"""Generic-contract operations checked against native int arithmetic."""

import random
import re
import subprocess
import sys
import time
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import giantnat
from giantnat import BIGNAT, BIJ, TREE, DomainError, EQ, GT, LT, NatRep, view
from giantnat.bignat import oracle_add, oracle_bitsize, oracle_cmp, oracle_sub
from giantnat.core import _ONE_RUN, int_runs, runs_int
from giantnat.numtheory import mersenne45

SMALL = 130
_HREPS = (BIGNAT, BIJ, TREE)


def ints_to(limit):
    return st.integers(min_value=0, max_value=limit)


# ----------------------------------------------------------------------
# recognizers and primitives
# ----------------------------------------------------------------------


def test_recognizers_partition_domain(rep):
    for k in range(200):
        x = rep.from_int(k)
        flags = (rep.is_e(x), rep.is_o(x), rep.is_i(x))
        assert sum(flags) == 1
        assert flags == (k == 0, k % 2 == 1, k > 0 and k % 2 == 0)
        # the generic recognizers, which every representation overrides
        assert (NatRep.is_e(rep, x), NatRep.is_i(rep, x)) == (flags[0], flags[2])


def test_digit_constructors_and_inverses(rep):
    for k in range(100):
        x = rep.from_int(k)
        assert rep.to_int(rep.o(x)) == 2 * k + 1
        assert rep.to_int(rep.i(x)) == 2 * k + 2
        assert rep.o_inv(rep.o(x)) == x
        assert rep.i_inv(rep.i(x)) == x


def test_destructor_misuse_raises(rep):
    with pytest.raises(DomainError):
        rep.o_inv(rep.e)
    with pytest.raises(DomainError):
        rep.i_inv(rep.e)
    with pytest.raises(DomainError):
        rep.o_inv(rep.from_int(4))
    with pytest.raises(DomainError):
        rep.i_inv(rep.from_int(5))


def test_homomorphism_round_trip(rep):
    for k in range(2048):
        assert rep.to_int(rep.from_int(k)) == k


# ----------------------------------------------------------------------
# successor / predecessor / streams
# ----------------------------------------------------------------------


def test_succ_pred_small_sweep(rep):
    for k in range(1000):
        x = rep.from_int(k)
        assert rep.to_int(rep.succ(x)) == k + 1
        assert rep.pred(rep.succ(x)) == x
        if k > 0:
            assert rep.to_int(rep.pred(x)) == k - 1
            assert rep.succ(rep.pred(x)) == x


def test_succ_41_pred_42(rep):
    assert rep.to_int(rep.succ(rep.from_int(41))) == 42
    assert rep.to_int(rep.pred(rep.from_int(42))) == 41


def test_succ_of_all_o_run(rep):
    # "ooo" is 7; adding one flips the run and carries into 8
    assert rep.to_int(rep.succ(rep.from_int(7))) == 8


def test_pred_of_zero_raises(rep):
    with pytest.raises(DomainError):
        rep.pred(rep.e)


@given(ints_to(1 << 60))
@settings(max_examples=200)
def test_succ_pred_inverse_hypothesis(k):
    for rep_ in _HREPS:
        x = rep_.from_int(k)
        assert rep_.pred(rep_.succ(x)) == x
        assert rep_.to_int(rep_.succ(x)) == k + 1


def test_all_from(rep):
    stream = rep.all_from(rep.e)
    assert [rep.to_int(next(stream)) for _ in range(5)] == [0, 1, 2, 3, 4]
    stream = rep.all_from(rep.from_int(5))
    assert [rep.to_int(next(stream)) for _ in range(3)] == [5, 6, 7]


def test_all_from_hundredth_element(rep):
    stream = rep.all_from(rep.e)
    for _ in range(100):
        next(stream)
    assert rep.to_int(next(stream)) == 100


# ----------------------------------------------------------------------
# arithmetic
# ----------------------------------------------------------------------


def test_add_sub_cmp_against_oracle(rep):
    vals = [rep.from_int(k) for k in range(SMALL)]
    for x in range(SMALL):
        for y in range(SMALL):
            assert rep.to_int(rep.add(vals[x], vals[y])) == x + y
            expected = LT if x < y else EQ if x == y else GT
            assert rep.cmp(vals[x], vals[y]) is expected
            if y <= x:
                assert rep.to_int(rep.sub(vals[x], vals[y])) == x - y


def test_add_identity_and_examples(rep):
    x = rep.from_int(37)
    assert rep.add(x, rep.e) == x
    assert rep.sub(x, rep.e) == x
    assert rep.to_int(rep.add(rep.from_int(1), rep.from_int(4))) == 5
    assert rep.to_int(rep.sub(rep.from_int(50), rep.from_int(8))) == 42


def test_sub_underflow_raises(rep):
    with pytest.raises(DomainError):
        rep.sub(rep.from_int(3), rep.from_int(4))
    with pytest.raises(DomainError):
        rep.sub(rep.e, rep.from_int(1))


def test_sub_if_fits_against_oracle(rep):
    # None exactly where oracle_sub underflows: 3 - 4 and 5 - 6 have equal
    # digit counts, so only the last borrow tells.  Beside it, what is left
    # of y past x's digits: y + 1 without as many low bits, less one
    def want(x, y):
        try:
            return oracle_sub(x, y), 0
        except DomainError:
            return None, ((y + 1) >> oracle_bitsize(x)) - 1

    n = 301
    vals = [rep.from_int(k) for k in range(n)]
    for x in range(n):
        for y in range(n):
            got, rest = rep._sub_if_fits(vals[x], vals[y])
            got = got if got is None else rep.to_int(got)
            assert (got, rep.to_int(rest)) == want(x, y), (x, y)
    assert rep._sub_if_fits(rep.e, rep.e) == (rep.e, rep.e)
    assert rep._sub_if_fits(rep.e, vals[1]) == (None, vals[1])


def _carry_operands(rng):
    # next to powers of two a carry or borrow ripples through every digit:
    # 2^k - 2 is all i, 2^k - 1 all o, and 2^k less 2^k - 1 ends with a
    # borrow that takes the top i digit
    vals = [0, 1, 2]
    for k in (2, 3, 64, 65, 700, 2000):
        vals += [(1 << k) - 2, (1 << k) - 1, 1 << k, (1 << k) + 1]
    return vals + [rng.getrandbits(rng.randrange(1, 2001)) for _ in range(10)]


@pytest.mark.parametrize("rep_", [BIGNAT, BIJ], ids=["bignat", "bij"])
def test_generic_add_sub_on_long_operands(rep_):
    assert type(rep_).add is NatRep.add and type(rep_)._sub_if_fits is NatRep._sub_if_fits
    ints = _carry_operands(random.Random(2000))
    vals = [rep_.from_int(a) for a in ints]
    for a, x in zip(ints, vals):
        for b, y in zip(ints, vals):
            assert rep_.to_int(rep_.add(x, y)) == oracle_add(a, b)
            assert rep_.cmp(x, y) is oracle_cmp(a, b)
            if b > a:
                with pytest.raises(DomainError, match="subtraction underflow"):
                    rep_.sub(x, y)
            else:
                assert rep_.to_int(rep_.sub(x, y)) == oracle_sub(a, b)


def test_min2_max2(rep):
    a, b = rep.from_int(3), rep.from_int(4)
    assert rep.min2(a, b) == a
    assert rep.max2(a, b) == b
    assert rep.min2(a, a) == a


@given(ints_to(1 << 48), ints_to(1 << 48))
@settings(max_examples=150)
def test_add_sub_homomorphism_hypothesis(a, b):
    for rep_ in _HREPS:
        va, vb = rep_.from_int(a), rep_.from_int(b)
        assert rep_.to_int(rep_.add(va, vb)) == a + b
        lo, hi = (va, vb) if a <= b else (vb, va)
        assert rep_.to_int(rep_.sub(hi, lo)) == abs(a - b)


def test_mul_db_hf(rep):
    vals = [rep.from_int(k) for k in range(80)]
    for x in range(80):
        for y in range(80):
            assert rep.to_int(rep.mul(vals[x], vals[y])) == x * y
    assert rep.to_int(rep.mul(rep.from_int(10), rep.from_int(5))) == 50
    assert rep.mul(rep.from_int(9), rep.e) == rep.e
    assert rep.db(rep.e) == rep.e
    assert rep.to_int(rep.db(rep.from_int(5))) == 10
    assert rep.to_int(rep.hf(rep.from_int(10))) == 5


def test_hf_rejects_odd_and_zero(rep):
    with pytest.raises(DomainError):
        rep.hf(rep.from_int(5))
    with pytest.raises(DomainError):
        rep.hf(rep.e)


@given(ints_to(1 << 24), ints_to(1 << 24))
@settings(max_examples=100)
def test_mul_homomorphism_hypothesis(a, b):
    for rep_ in _HREPS:
        assert rep_.to_int(rep_.mul(rep_.from_int(a), rep_.from_int(b))) == a * b


def _long_run_operands():
    # x - 1 is one long o run (2^k), one long i run (2^k - 1), an o digit over
    # a long i run (2^k - 2), or i, then a long o run, then a long i run
    # (2^j (2^k - 1) + 1)
    for k in (1, 2, 3, 17, 64, 300):
        yield from (1 << k, (1 << k) - 1, (1 << k) - 2)
        for j in (1, 5, 150):
            yield ((1 << k) - 1 << j) + 1


def test_mul_on_long_runs(rep):
    # both operand orders, so each side of the fewer-runs choice drives the
    # fold; long i runs take the closed-form step, not one add per digit
    ints = sorted(set(_long_run_operands()))
    vals = [rep.from_int(a) for a in ints]
    for a, x in zip(ints, vals):
        for b, y in zip(ints, vals):
            assert rep.to_int(rep.mul(x, y)) == a * b


def test_pow_by_an_exponent_of_many_digits(rep):
    # 2^1200 has 1200 digits, one step each, more than the default
    # recursion limit allows frames
    y = rep.from_int(2**1200)
    for x in (0, 1):
        assert rep.to_int(rep.pow(rep.from_int(x), y)) == x
    assert rep.to_int(rep.pow(rep.from_int(3), rep.from_int(1000))) == 3**1000


def test_pow_squares_only_where_another_digit_follows(rep):
    # one product per digit of y, and one squaring between digits: x^1 is
    # one product and x^(2^10 - 1), ten o digits, nineteen.  The counter
    # shadows the class method, as perfbench's tracer does
    calls = []

    def counted(x, y):
        calls.append(1)
        return type(rep).mul(rep, x, y)

    rep.mul = counted
    try:
        for x, y, products in ((7, 1, 1), (3, 1023, 19), (3, 1000, 18), (5, 2, 2), (2, 6, 4)):
            calls.clear()
            assert rep.to_int(rep.pow(rep.from_int(x), rep.from_int(y))) == x ** y
            assert len(calls) == products, (x, y)
    finally:
        del rep.mul


def test_pow_exp2_leftshift(rep):
    for x in range(7):
        for y in range(6):
            assert rep.to_int(rep.pow(rep.from_int(x), rep.from_int(y))) == x**y
    assert rep.to_int(rep.pow(rep.from_int(3), rep.from_int(4))) == 81
    assert rep.to_int(rep.pow(rep.e, rep.e)) == 1
    assert rep.to_int(rep.pow(rep.from_int(7), rep.e)) == 1
    for x in range(13):
        assert rep.to_int(rep.exp2(rep.from_int(x))) == 2**x
        assert rep.exp2(rep.from_int(x)) == rep.pow(rep.from_int(2), rep.from_int(x))
    assert rep.to_int(rep.leftshift(rep.from_int(10), rep.from_int(1))) == 1024
    for a in range(13):
        for b in range(65):
            got = rep.leftshift(rep.from_int(a), rep.from_int(b))
            assert rep.to_int(got) == (1 << a) * b
            assert got == rep.mul(rep.exp2(rep.from_int(a)), rep.from_int(b))
    rng = random.Random(1900)
    for _ in range(30):
        k, y = rng.randrange(3001), rng.getrandbits(rng.randrange(1, 2001))
        assert rep.to_int(rep.leftshift(rep.from_int(k), rep.from_int(y))) == y << k
        assert rep.to_int(rep.exp2(rep.from_int(k))) == 1 << k


def test_div_and_rem(rep):
    for x in range(90):
        for y in range(1, 90):
            q, r = rep.div_and_rem(rep.from_int(x), rep.from_int(y))
            assert (rep.to_int(q), rep.to_int(r)) == divmod(x, y)
    q, r = rep.div_and_rem(rep.from_int(50), rep.from_int(10))
    assert (rep.to_int(q), rep.to_int(r)) == (5, 0)
    q, r = rep.div_and_rem(rep.from_int(7), rep.from_int(3))
    assert (rep.to_int(q), rep.to_int(r)) == (2, 1)
    x = rep.from_int(123)
    assert rep.div_and_rem(x, rep.from_int(1)) == (x, rep.e)
    assert rep.to_int(rep.divide(rep.from_int(50), rep.from_int(10))) == 5
    assert rep.to_int(rep.remainder(rep.from_int(7), rep.from_int(3))) == 1


def _counting_steps(rep, monkeypatch) -> list:
    # every _sub_if_fits call from here on, as (x, y)
    calls = []

    def counting(x, y, step=rep._sub_if_fits):
        calls.append((x, y))
        return step(x, y)

    monkeypatch.setitem(vars(rep), "_sub_if_fits", counting)
    return calls


def _runs_of_bits(n: int) -> int:
    return len(re.findall("0+|1+", bin(n)[2:]))


def test_division_takes_one_step_per_quotient_bit(rep, monkeypatch):
    # at most k + 1 trial steps for a quotient of at most k + 1 bits, k the
    # difference of the binary bit lengths; a trial step, by some 2^j b,
    # both tests and subtracts, and the jumps over runs only skip them.  The
    # other steps (of bit lengths, and the jumps' own differences) are not
    # by a multiple of b.
    calls = _counting_steps(rep, monkeypatch)
    rng = random.Random(41)
    for _ in range(20):
        b = rng.getrandbits(rng.randrange(2, 60)) | 3  # odd, not a power of two
        a = rng.getrandbits(rng.randrange(b.bit_length(), 120))
        if a < b:
            continue
        calls.clear()
        q, r = rep.div_and_rem(rep.from_int(a), rep.from_int(b))
        assert (rep.to_int(q), rep.to_int(r)) == divmod(a, b)
        multiples = [rep.to_int(y) // b for _, y in calls if rep.to_int(y) % b == 0]
        trials = [v for v in multiples if v.bit_count() == 1]
        assert len(trials) <= a.bit_length() - b.bit_length() + 1


# quotients of a few long runs of 1 and 0 bits
_LONG_RUN_QUOTIENTS = (
    ((1 << 40) - 1) << 40 | 1,
    ((1 << 200) - 1) << 200 | 1,
    (1 << 300) - 1,
    1 << 300,
    int("1" * 90 + "0" * 120 + "1" * 150 + "0" * 60 + "1" * 3 + "0" * 2 + "1", 2),
)


def test_division_takes_a_few_steps_per_quotient_run(rep, monkeypatch):
    # each run of the quotient costs a bounded number of steps, set-up
    # included, however long it is: a run of 1 bits _ONE_RUN steps and one
    # jump of four, then one more step where the jump fell one bit short; a
    # run of 0 bits one step and the jump's difference, at most twice
    calls = _counting_steps(rep, monkeypatch)
    rng = random.Random(43)
    for quotient in _LONG_RUN_QUOTIENTS:
        for _ in range(3):
            b = rng.getrandbits(rng.randrange(2, 50)) | 3
            rem = rng.randrange(b)
            calls.clear()
            q, r = rep.div_and_rem(rep.from_int(quotient * b + rem), rep.from_int(b))
            assert (rep.to_int(q), rep.to_int(r)) == (quotient, rem)
            assert len(calls) <= 3 + (_ONE_RUN + 5) * _runs_of_bits(quotient)


@st.composite
def _long_run_divisions(draw):
    # x = q y + r, q of a few runs of up to 90 bits from a 1 run down
    q = 0
    for j, n in enumerate(draw(st.lists(st.integers(1, 90), min_size=1, max_size=6))):
        q = q << n | (0 if j & 1 else (1 << n) - 1)
    y = draw(st.integers(min_value=1, max_value=1 << 70))
    return q * y + draw(st.integers(min_value=0, max_value=y - 1)), y


@given(_long_run_divisions())
@settings(max_examples=60, deadline=None)
def test_division_jumps_hypothesis(xy):
    x, y = xy
    for rep_ in _HREPS:
        q, r = rep_.div_and_rem(rep_.from_int(x), rep_.from_int(y))
        assert (rep_.to_int(q), rep_.to_int(r)) == divmod(x, y)


def test_division_by_zero_raises(rep):
    with pytest.raises(DomainError):
        rep.div_and_rem(rep.from_int(5), rep.e)


@given(ints_to(1 << 32), st.integers(min_value=1, max_value=1 << 32))
@settings(max_examples=75)
def test_div_homomorphism_hypothesis(a, b):
    for rep_ in _HREPS:
        q, r = rep_.div_and_rem(rep_.from_int(a), rep_.from_int(b))
        assert (rep_.to_int(q), rep_.to_int(r)) == divmod(a, b)


def test_split_agrees_with_divmod(rep):
    ks = [rep.from_int(k) for k in range(14)]
    for x in range(3000):
        v = rep.from_int(x)
        for k, kv in enumerate(ks):
            q, r = rep.split(kv, v)
            assert (rep.to_int(q), rep.to_int(r)) == divmod(x, 1 << k)


def test_split_around_powers_of_two(rep):
    # x - 1 of fewer, exactly k and more digits, and zero, which has no x - 1
    for k in range(301):
        kv = rep.from_int(k)
        for x in (0, 1, (1 << k) - 1, 1 << k, (1 << k) + 1, (1 << k + 3) - 1):
            q, r = rep.split(kv, rep.from_int(x))
            assert (rep.to_int(q), rep.to_int(r)) == divmod(x, 1 << k), (k, x)


def test_split_stops_where_x_runs_out(rep):
    # the digits are dropped one at a time, or a run at a time on trees,
    # only until x - 1 has none left, however large k is
    k, x = rep.from_int(10**9), rep.from_int(5)
    start = time.perf_counter()
    assert rep.split(k, x) == (rep.e, x)
    assert time.perf_counter() - start < 0.1


def test_division_at_equal_bit_lengths_and_all_one_bits(rep):
    # the set-up reads the difference of the bit lengths off x - 1 and
    # y - 1: x below, at and above y at one bit length, and x or y of all
    # 1 bits, 2^n - 1, which has as many digits as bits
    for n in (2, 3, 4, 7, 8, 9, 64, 65, 130):
        top, ones = 1 << n - 1, (1 << n) - 1
        for y in {top + 1, top | top >> 1 | 1, ones}:  # none a power of two
            xs = {top, y - 1, y, y + 1, ones - 1, ones, ones + 1, (ones << 1) - 1, (ones << 1) + 1}
            xs |= {(1 << m) - 1 for m in (1, n - 1, n + 1, n + 2, 2 * n)}
            for x in xs:
                q, r = rep.div_and_rem(rep.from_int(x), rep.from_int(y))
                assert (rep.to_int(q), rep.to_int(r)) == divmod(x, y), (x, y)


@pytest.mark.parametrize("rep_", [BIJ, BIGNAT, TREE], ids=["bij", "bignat", "tree"])
def test_generic_run_helpers_against_int_formulas(rep_):
    # the base-class run helpers, the oracle for the tree overrides, against
    # ints: the outermost run is int_runs' first, o^k(y) = 2^k (y + 1) - 1,
    # i^k(y) = 2^k (y + 2) - 2, and y's digits (1 for o, 2 for i, digit j
    # worth d 2^j) give what is left past its k outermost ones, None past
    # its end
    rng = random.Random(21)
    f, g = rep_.from_int, rep_.to_int
    for _ in range(150):
        y = rng.getrandbits(rng.randrange(0, 40))
        v, runs = f(y), int_runs(y)
        for o_digit in (True, False):
            first = runs[0][1] if runs and runs[0][0] == o_digit else 0
            assert g(NatRep.run_count(rep_, o_digit, v)) == first
            assert g(NatRep.run_trim(rep_, o_digit, v)) == runs_int(runs[1:] if first else runs)
        digits = [1 if o_digit else 2 for o_digit, n in runs for _ in range(n)]
        for k in {0, 1, len(digits), len(digits) + 1, len(digits) + 7, rng.randrange(len(digits) + 3)}:
            kv = f(k)
            assert g(NatRep.run_times(rep_, True, kv, v)) == 2**k * (y + 1) - 1
            assert g(NatRep.run_times(rep_, False, kv, v)) == 2**k * (y + 2) - 2
            t = NatRep._drop_digits(rep_, kv, v)
            if k > len(digits):
                assert t is None
            else:
                assert g(t) == sum(d << j for j, d in enumerate(digits[k:]))


@pytest.mark.parametrize("rep_, top", [(TREE, 4000), (BIGNAT, 4000), (BIJ, 1000)],
                         ids=["tree", "bignat", "bij"])
def test_div_and_rem_on_random_operands(rep_, top):
    # long division costs one borrow walk per quotient bit, each over the
    # whole operand: long operands get short quotients, short ones any
    rng = random.Random(top)
    cases = []
    for _ in range(20):
        n = rng.randrange(2, top + 1)
        m = max(1, n - rng.randrange(1, 41))
        cases.append((rng.getrandbits(n), rng.getrandbits(m) | 1 << (m - 1)))
        n = rng.randrange(1, 201)
        cases.append((rng.getrandbits(n), rng.getrandbits(rng.randrange(1, n + 1)) or 1))
    for a, b in cases:
        q, r = rep_.div_and_rem(rep_.from_int(a), rep_.from_int(b))
        assert (rep_.to_int(q), rep_.to_int(r)) == divmod(a, b)


# ----------------------------------------------------------------------
# view
# ----------------------------------------------------------------------


def test_view_between_representations():
    reps = _HREPS
    for src in reps:
        for dst in reps:
            assert view(src.e, src, dst) == dst.e
            for k in (1, 2, 41, 42, 255, 256, 12345, _LARGE["random100000"]):
                x = src.from_int(k)
                assert view(x, src, dst) == dst.from_int(k)
                assert src is not dst or view(x, src, dst) is x
    t42 = TREE.from_int(42)
    assert view(t42, TREE, BIGNAT) == 42
    # a tree handed back as it is, never expanded: a giant or a tower
    for x in (mersenne45(), TREE.exp2(TREE.exp2(TREE.from_int(2**70)))):
        assert view(x, TREE, TREE) is x


def test_view_round_trip(rep):
    for k in range(0, 3000, 7):
        x = rep.from_int(k)
        assert view(view(x, rep, BIGNAT), BIGNAT, rep) == x


_LARGE = {
    "0": 0,
    "1": 1,
    "2": 2,
    "mersenne200000": 2**200000 - 1,
    "random100000": random.Random(2013).getrandbits(100000) | 1 << 99999,
}


@pytest.mark.parametrize("k", list(_LARGE.values()), ids=list(_LARGE))
def test_from_int_to_int_round_trip_on_large_values(rep, k):
    # the generic conversions, also on BIGNAT, whose runs are its binary text
    x = NatRep.from_int(rep, k)
    if rep is BIGNAT:
        assert x == k
    assert NatRep.to_int(rep, x) == k


# ----------------------------------------------------------------------
# digit-level special computations
# ----------------------------------------------------------------------


def _int_dual(k):
    # flip each bijective digit of k with plain int steps
    digits = []
    while k:
        digits.append(k % 2 == 1)
        k = (k - 1) // 2 if k % 2 else (k - 2) // 2
    v = 0
    for is_o in reversed(digits):
        v = 2 * v + 2 if is_o else 2 * v + 1
    return v


def test_dual(rep):
    assert rep.dual(rep.e) == rep.e
    assert rep.to_int(rep.dual(rep.from_int(1))) == 2
    for k in range(800):
        x = rep.from_int(k)
        d = rep.dual(x)
        assert rep.to_int(d) == _int_dual(k)
        assert rep.dual(d) == x
        assert rep.bitsize(d) == rep.bitsize(x)


def test_bitsize(rep):
    assert rep.bitsize(rep.e) == rep.e
    assert rep.to_int(rep.bitsize(rep.from_int(42))) == 5
    for k in range(1500):
        assert rep.to_int(rep.bitsize(rep.from_int(k))) == oracle_bitsize(k)
    for width in range(1, 21):
        assert rep.to_int(rep.bitsize(rep.from_int(2**width - 1))) == width


# every truth table with table[0] = 0, as the int it computes
BIT_TABLES = {(0, a, b, c): (lambda x, y, a=a, b=b, c=c: (a and ~x & y) | (b and x & ~y) | (c and x & y))
              for a in (0, 1) for b in (0, 1) for c in (0, 1)}


def test_bitwise_tables_agree_with_int_formula(rep):
    vals = [rep.from_int(k) for k in range(256)]
    for table, formula in BIT_TABLES.items():
        for x in range(256):
            for y in range(256):
                assert rep.bitwise(table, vals[x], vals[y]) == vals[formula(x, y)], (table, x, y)


def test_bitwise_table_mapping_two_zero_bits_to_one_raises(rep):
    for table in ((1, 0, 0, 0), (1, 1, 1, 0), (1, 1, 1, 1)):
        for x, y in ((0, 0), (5, 0), (0, 3), (5, 3)):
            with pytest.raises(DomainError):
                rep.bitwise(table, rep.from_int(x), rep.from_int(y))


def test_repsize_defaults_to_bitsize():
    for rep_ in (BIGNAT, BIJ):
        for k in range(300):
            x = rep_.from_int(k)
            assert rep_.repsize(x) == rep_.bitsize(x)


def test_decons_cons_reference_points(rep):
    f = rep.from_int
    assert rep.decons(f(1)) == (rep.e, rep.e)
    assert rep.to_int(rep.cons(rep.e, rep.e)) == 1
    assert rep.decons(f(14)) == (f(5), rep.e)
    first, rest = rep.decons(f(4))
    assert (rep.to_int(first), rep.to_int(rest)) == (0, 1)


def test_decons_cons_round_trips(rep):
    f = rep.from_int
    for z in range(1, 600):
        x, y = rep.decons(f(z))
        assert rep.cons(x, y) == f(z)
    for x in range(32):
        for y in range(32):
            got = rep.decons(rep.cons(f(x), f(y)))
            assert got == (f(x), f(y))


def test_decons_zero_raises(rep):
    with pytest.raises(DomainError):
        rep.decons(rep.e)


TO_LIST_ALT_TABLE = [
    [], [0], [1], [2], [0, 0], [0, 1], [3], [4], [0, 2], [0, 0, 0], [1, 0],
    [1, 1], [0, 0, 1], [0, 3], [5], [6], [0, 4], [0, 0, 2], [1, 2], [1, 0, 0],
    [0, 0, 0, 0],
]


def test_to_list_alt_reference_table(rep):
    got = [[rep.to_int(v) for v in rep.to_list_alt(rep.from_int(k))] for k in range(21)]
    assert got == TO_LIST_ALT_TABLE


def test_from_list_alt_round_trip(rep):
    assert rep.to_list_alt(rep.e) == []
    assert rep.from_list_alt([]) == rep.e
    for k in range(1001):
        x = rep.from_int(k)
        assert rep.from_list_alt(rep.to_list_alt(x)) == x


def test_succ_depth_counts_trailing_i_digits(rep):
    # depth 1 on zero and on o-ending values, +1 per trailing i digit
    assert rep.succ_depth(rep.e) == 1
    assert rep.succ_depth(rep.from_int(1)) == 1
    assert rep.succ_depth(rep.from_int(2)) == 2
    assert rep.succ_depth(rep.from_int(2**10 - 2)) == 10


# ----------------------------------------------------------------------
# module lifetime
# ----------------------------------------------------------------------

_REIMPORT = """
import gc, importlib, sys, tracemalloc
sys.path.insert(0, sys.argv[1])
def fresh():
    for name in [n for n in sys.modules if n == "giantnat" or n.startswith("giantnat.")]:
        del sys.modules[name]
    importlib.import_module("giantnat.cli")
fresh()
gc.collect()
tracemalloc.start()
for _ in range(40):
    fresh()
gc.collect()
print(tracemalloc.get_traced_memory()[0])
"""


def test_reimported_package_copies_are_freed():
    # A process that re-imports the package (a benchmark does, per pass)
    # must not keep the old copies alive; typing caches a subscripted class
    # such as NatRep[int], and with it the module, for the whole process.
    src = str(Path(giantnat.__file__).parent.parent)
    out = subprocess.run(
        [sys.executable, "-c", _REIMPORT, src],
        capture_output=True, text=True, check=True, timeout=120,
    ).stdout
    assert int(out) < 2**20
