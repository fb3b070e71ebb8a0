"""Special numbers, primes, Lucas-Lehmer, Ackermann, Syracuse, identities."""

import time
from itertools import islice

import pytest

from giantnat import BIGNAT, BIJ, TREE, DomainError
from giantnat.numtheory import (
    PRIME45,
    a1,
    a2,
    a3,
    a4,
    ack,
    fastmod,
    fermat,
    kth,
    lucas_lehmer,
    mersenne,
    mersenne45,
    mersenne_prime_exps,
    mersenne_primes,
    nsyr,
    perfect,
    perfect45,
    primes,
    syracuse,
)
from giantnat.tree import fold_to_dag, print_tree


# ----------------------------------------------------------------------
# independent oracles
# ----------------------------------------------------------------------


def sieve(limit):
    flags = bytearray([1]) * (limit + 1)
    flags[0:2] = b"\x00\x00"
    for p in range(2, int(limit**0.5) + 1):
        if flags[p]:
            flags[p * p :: p] = bytearray(len(flags[p * p :: p]))
    return [k for k in range(limit + 1) if flags[k]]


def is_prime_trial(n):
    if n < 2:
        return False
    d = 2
    while d * d <= n:
        if n % d == 0:
            return False
        d += 1
    return True


def oracle_syracuse(m):
    v = 3 * m + 2
    while v % 2 == 0:
        v //= 2
    return (v - 1) // 2


# ----------------------------------------------------------------------
# special numbers
# ----------------------------------------------------------------------


def test_mersenne_values(rep):
    for p in range(0, 16):
        assert rep.to_int(mersenne(rep, rep.from_int(p))) == 2**p - 1


def test_mersenne_127():
    m = mersenne(TREE, TREE.from_int(127))
    assert print_tree(m) == "V (W (V T [T]) []) []"
    assert TREE.to_int(m) == 170141183460469231731687303715884105727
    assert BIGNAT.to_int(mersenne(BIGNAT, 127)) == 2**127 - 1


def test_fermat_values(rep):
    for n in range(0, 4):
        assert rep.to_int(fermat(rep, rep.from_int(n))) == 2 ** (2**n) + 1


def test_fermat_11_tree():
    f11 = fermat(TREE, TREE.from_int(11))
    assert print_tree(f11) == "V T [T,V T [W T [V T []]]]"
    assert TREE.to_int(TREE.bitsize(f11)) == 2048


def test_perfect_values(rep):
    assert rep.to_int(perfect(rep, rep.from_int(2))) == 6
    assert rep.to_int(perfect(rep, rep.from_int(3))) == 28
    for p in range(2, 21):
        want = 2 ** (p - 1) * (2**p - 1)
        assert rep.to_int(perfect(rep, rep.from_int(p))) == want


def test_perfect_tree_shortcut_matches_generic_product():
    for p in range(2, 21):
        tp = TREE.from_int(p)
        shortcut = perfect(TREE, tp)
        product = TREE.mul(TREE.exp2(TREE.pred(tp)), mersenne(TREE, tp))
        assert shortcut == product


def test_perfect_requires_two(rep):
    for bad in (0, 1):
        with pytest.raises(DomainError):
            perfect(rep, rep.from_int(bad))


def test_lucas_lehmer_requires_two(rep):
    for bad in (0, 1):
        with pytest.raises(DomainError, match="lucas_lehmer needs p >= 2"):
            lucas_lehmer(rep, rep.from_int(bad))


def test_largest_known_forms():
    m45 = mersenne45()
    assert TREE.to_int(TREE.bitsize(m45)) == PRIME45
    assert len(fold_to_dag(m45).nodes) == 6
    p45 = perfect45()
    assert TREE.to_int(TREE.bitsize(p45)) == 2 * PRIME45 - 2
    assert len(fold_to_dag(p45).nodes) == 7


# ----------------------------------------------------------------------
# primes
# ----------------------------------------------------------------------


def test_primes_against_sieve():
    want = sieve(1223)
    got = [BIGNAT.to_int(p) for p in islice(primes(BIGNAT), len(want))]
    assert got == want
    assert got[4] == 11 and got[99] == 541 and len(got) == 200


def test_primes_cross_representation():
    want = sieve(281)
    for rep in (TREE, BIJ):
        got = [rep.to_int(p) for p in islice(primes(rep), len(want))]
        assert got == want and len(got) == 60


def test_primes_never_divide_by_two(rep, monkeypatch):
    # every candidate past 2 is odd
    divisors = []

    def recording(x, y, div_and_rem=rep.div_and_rem):
        divisors.append(rep.to_int(y))
        return div_and_rem(x, y)

    monkeypatch.setitem(vars(rep), "div_and_rem", recording)
    assert [rep.to_int(p) for p in islice(primes(rep), 40)] == sieve(173)
    assert divisors and 2 not in divisors


# ----------------------------------------------------------------------
# Lucas-Lehmer
# ----------------------------------------------------------------------


def test_lucas_lehmer_reference_cases():
    assert lucas_lehmer(BIGNAT, 3) is True
    assert lucas_lehmer(BIGNAT, 11) is False  # 2047 = 23 * 89
    assert not is_prime_trial(2**11 - 1)


def test_lucas_lehmer_skips_two_by_construction():
    # the residue run starts at 4 and never reduces for p = 2
    assert lucas_lehmer(BIGNAT, 2) is False
    assert is_prime_trial(2**2 - 1)


def test_lucas_lehmer_matches_trial_division():
    for p in sieve(31):
        if p == 2:
            continue
        assert lucas_lehmer(BIGNAT, p) == is_prime_trial(2**p - 1)


def test_lucas_lehmer_on_trees_against_bignat():
    # long division, with split for the power of two, takes about 1.5-3 s
    # for p = 127 on trees on a 2-core host and some 5 s for all seven; the
    # doubling divstep it replaced took over 10 s for p = 61 alone
    cases = {61: True, 67: False, 71: False, 89: True, 101: False, 107: True, 127: True}
    start = time.perf_counter()
    assert {p: lucas_lehmer(TREE, TREE.from_int(p)) for p in cases} == cases
    assert time.perf_counter() - start < 60
    assert {p: lucas_lehmer(BIGNAT, p) for p in cases} == cases


def test_mersenne_exponent_stream():
    got = [BIGNAT.to_int(p) for p in islice(mersenne_prime_exps(BIGNAT), 7)]
    assert got == [3, 5, 7, 13, 17, 19, 31]
    want = [p for p in sieve(31) if p != 2 and is_prime_trial(2**p - 1)]
    assert got == want


def test_mersenne_prime_stream():
    got = [BIGNAT.to_int(m) for m in islice(mersenne_primes(BIGNAT), 4)]
    assert got == [7, 31, 127, 8191]


def test_fastmod(rep):
    f = rep.from_int
    m = rep.exp2(f(5))  # modulus 31 presented as 32
    for k in range(0, 200):
        assert rep.to_int(fastmod(rep, f(k), m)) == k % 31
    assert rep.to_int(fastmod(rep, f(30), m)) == 30  # below 2^p - 1: unchanged


def test_fastmod_refuses_a_modulus_below_two(rep):
    # m = 1 is a modulus m - 1 of zero, on which the fold would never end
    for m in (0, 1):
        with pytest.raises(DomainError):
            fastmod(rep, rep.from_int(5), rep.from_int(m))


# ----------------------------------------------------------------------
# Ackermann
# ----------------------------------------------------------------------


def test_ack_closed_forms(rep):
    f, g = rep.from_int, rep.to_int
    for n in range(6):
        assert g(ack(rep, rep.e, f(n))) == n + 1
        assert g(ack(rep, f(1), f(n))) == n + 2
        assert g(ack(rep, f(2), f(n))) == 2 * n + 3
    assert g(ack(rep, f(3), f(3))) == 61


def test_ack_3_5(rep):
    assert rep.to_int(ack(rep, rep.from_int(3), rep.from_int(5))) == 253


def test_ack_3_7_on_ints():
    assert BIGNAT.to_int(ack(BIGNAT, 3, 7)) == 2 ** (7 + 3) - 3 == 1021


# ----------------------------------------------------------------------
# Syracuse
# ----------------------------------------------------------------------


def test_nsyr_reference_table(rep):
    table = [[rep.to_int(v) for v in nsyr(rep, rep.from_int(n))] for n in range(8)]
    assert table == [
        [0],
        [1, 2, 0],
        [2, 0],
        [3, 5, 8, 6, 2, 0],
        [4, 3, 5, 8, 6, 2, 0],
        [5, 8, 6, 2, 0],
        [6, 2, 0],
        [7, 11, 17, 26, 2, 0],
    ]


def test_syracuse_step_matches_oracle(rep):
    for n in range(1, 300):
        got = rep.to_int(syracuse(rep, rep.from_int(n)))
        assert got == oracle_syracuse(n)


def test_nsyr_terminates_at_zero():
    for n in range(0, 500):
        seq = [BIGNAT.to_int(v) for v in nsyr(BIGNAT, n)]
        assert seq[0] == n and seq[-1] == 0
        for a, b in zip(seq, seq[1:]):
            if a != 0:
                assert b == oracle_syracuse(a)


# ----------------------------------------------------------------------
# iteration helper and identities
# ----------------------------------------------------------------------


def test_kth(rep):
    f = rep.from_int
    assert rep.to_int(kth(rep, rep.succ, f(3), rep.e)) == 3
    assert kth(rep, rep.o, rep.e, f(9)) == f(9)
    assert rep.to_int(kth(rep, rep.o, f(3), rep.e)) == 7


def test_identities_small(rep):
    f = rep.from_int
    for k in range(0, 20):
        assert a1(rep, f(k))
        if k >= 1:
            assert a2(rep, f(k))
    for n in range(0, 8):
        for b in range(0, 8):
            assert a3(rep, f(n), f(b))
            if b >= 1:
                assert a4(rep, f(n), f(b))
    # both sides of the o-iteration identity at a reference point
    n5, b7 = f(5), f(7)
    assert rep.to_int(kth(rep, rep.o, n5, b7)) == 255
    assert rep.to_int(rep.pred(rep.mul(rep.pow(f(2), n5), rep.succ(b7)))) == 255
