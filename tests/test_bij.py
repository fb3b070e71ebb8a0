"""Digit-sequence representation: formats, sharing, size accounting."""

import random

import pytest

from giantnat import BIGNAT, BIJ, NatRep, ParseError, view
from giantnat.core import int_runs
from giantnat.bignat import oracle_bitsize
from giantnat.bij import BijDigits, digit_string, nested_form, parse_digit_string
from giantnat.numtheory import mersenne


def test_digit_string_of_42():
    assert digit_string(BIJ.from_int(42)) == "oioii"


def test_nested_form_of_42():
    assert nested_form(BIJ.from_int(42)) == "I (I (O (I (O B))))"


def test_zero_forms():
    assert digit_string(BIJ.e) == "e"
    assert nested_form(BIJ.e) == "B"
    assert parse_digit_string("e") == BIJ.e


def test_small_nested_forms():
    assert nested_form(BIJ.from_int(1)) == "O B"
    assert nested_form(BIJ.from_int(2)) == "I B"
    # 1 + 4: the sum of O B and I (O B)
    assert nested_form(BIJ.from_int(5)) == "O (I B)"


def test_digit_string_round_trip():
    for k in range(2000):
        x = BIJ.from_int(k)
        assert parse_digit_string(digit_string(x)) == x


def test_parse_rejects_junk():
    for bad, pos in (("", 0), ("oxi", 1), ("OI", 0), ("oi o", 2)):
        with pytest.raises(ParseError) as err:
            parse_digit_string(bad)
        assert err.value.position == pos


def test_digit_order_is_first_applied_first():
    x = BIJ.i(BIJ.o(BIJ.e))  # apply o then i: value 4
    assert digit_string(x) == "oi"
    assert BIJ.to_int(x) == 4
    assert x.digit_at(0) == "o"
    assert x.digit_at(1) == "i"


def test_length_equals_generic_bitsize():
    for k in range(1500):
        x = BIJ.from_int(k)
        assert len(x) == oracle_bitsize(k)
        assert len(x) == BIJ.to_int(BIJ.bitsize(x))


def test_mersenne_127_has_127_digits():
    m = mersenne(BIJ, BIJ.from_int(127))
    assert len(m) == 127
    assert digit_string(m) == "o" * 127
    assert view(m, BIJ, BIGNAT) == 2**127 - 1


def test_equality_across_diverged_buffers():
    a = BIJ.from_int(42)
    b = BIJ.succ(BIJ.from_int(41))
    assert a is not b
    assert a == b
    assert a != BIJ.from_int(43)
    assert BIJ.e == parse_digit_string("e")
    assert a.__eq__("oioii") is NotImplemented and a != "oioii"


def test_values_are_stable_under_sibling_extension():
    base = BIJ.from_int(5)
    x = BIJ.o(base)
    y = BIJ.i(base)  # diverges from x's buffer slot
    assert BIJ.to_int(x) == 11
    assert BIJ.to_int(y) == 12
    assert BIJ.to_int(base) == 5


def test_values_are_unhashable():
    with pytest.raises(TypeError):
        hash(BIJ.from_int(3))


def test_repr_shows_digits():
    assert repr(BIJ.from_int(42)) == "BijDigits('oioii')"


def test_digit_at_bounds():
    x = BIJ.from_int(4)
    with pytest.raises(IndexError):
        x.digit_at(2)
    with pytest.raises(IndexError):
        x.digit_at(-1)


def test_direct_construction_matches_parser():
    assert BijDigits(list("oioii"), 5) == parse_digit_string("oioii")


def test_run_pair_agrees_with_generic():
    # BIJ's string run pair against the generic digit walks, the oracle
    rng = random.Random(2000)
    ks = list(range(4097)) + [rng.getrandbits(rng.randrange(1, 2001)) for _ in range(200)]
    for k in ks:
        runs = int_runs(k)
        x = BIJ._from_runs(runs)
        assert x == NatRep._from_runs(BIJ, runs)
        assert BIJ._strip_runs(x) == NatRep._strip_runs(BIJ, x) == runs
    # a value reads only its own digits of a buffer it shares with a longer one
    x = BIJ.from_int(41)
    BIJ.i(BIJ.o(x))
    assert BIJ._strip_runs(x) == NatRep._strip_runs(BIJ, x) == int_runs(41)
