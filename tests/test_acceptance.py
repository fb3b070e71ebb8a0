"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest -s tests/test_acceptance.py`` to see the lines as they
complete.  The sweeps here are intentionally exhaustive; the whole module
is expected to take a few minutes.
"""

import random
import time
from itertools import islice

from helpers import value_if_feasible

from giantnat import BIGNAT, BIJ, TREE, EQ, GT, LT
from giantnat import codecs, numtheory
from giantnat.bignat import oracle_bitsize
from giantnat.cli import bench_lines, main
from giantnat.tree import (
    fold_to_dag,
    print_tree,
    random_tree,
)

SWEEP = 513  # operands 0..512 inclusive


def report(num, ok, detail):
    line = f"ACCEPTANCE {num:>2} {'PASS' if ok else 'FAIL'}: {detail}"
    print(line, flush=True)
    assert ok, line


def best_of(runs, fn):
    times = []
    result = None
    for _ in range(runs):
        start = time.perf_counter()
        result = fn()
        times.append(time.perf_counter() - start)
    return min(times), result


# ----------------------------------------------------------------------
# 1. cross-representation oracle equivalence
# ----------------------------------------------------------------------


def test_criterion_1_cross_representation_sweep():
    start = time.perf_counter()
    for rep in (TREE, BIJ):
        to_int = rep.to_int
        vals = [rep.from_int(k) for k in range(SWEEP)]
        add, sub, mul, cmp, dar = rep.add, rep.sub, rep.mul, rep.cmp, rep.div_and_rem
        for x in range(SWEEP):
            vx = vals[x]
            for y in range(SWEEP):
                vy = vals[y]
                assert to_int(add(vx, vy)) == x + y
                assert to_int(mul(vx, vy)) == x * y
                r = cmp(vx, vy)
                assert r is (LT if x < y else EQ if x == y else GT)
                if y <= x:
                    assert to_int(sub(vx, vy)) == x - y
                if y:
                    q, r = dar(vx, vy)
                    assert (to_int(q), to_int(r)) == divmod(x, y)
        for x in range(9):
            for y in range(7):
                assert to_int(rep.pow(vals[x], vals[y])) == x**y
    elapsed = time.perf_counter() - start
    report(1, elapsed < 300.0, f"0..512 sweep on tree and digit reps in {elapsed:.1f}s")


# ----------------------------------------------------------------------
# 2. golden sessions, byte-exact
# ----------------------------------------------------------------------

MERSENNE45_TEXT = (
    "V (W T [V (V T []) [],T,T,T,W T [],V T [],T,W T [],W T [],T,V T [],T,T]) []"
)
SPARSE_SET_DECIMAL = (
    27606985387162255149739023449108112443629669818608757680508075841159170
)


def test_criterion_2_golden_sessions():
    t = TREE.from_int
    checks = []

    checks.append(print_tree(t(42)) == "W (V T []) [T,T,T]")

    e5 = TREE.exp2(t(5))
    checks.append(print_tree(e5) == "W T [V (V T []) []]")
    checks.append(TREE.to_int(e5) == 32)

    shifted = TREE.leftshift(t(10), t(1))
    checks.append(print_tree(shifted) == "W T [W T [V T []]]")
    checks.append(TREE.to_int(shifted) == 1024)

    m127 = numtheory.mersenne(TREE, t(127))
    checks.append(print_tree(m127) == "V (W (V T [T]) []) []")
    checks.append(TREE.to_int(m127) == 170141183460469231731687303715884105727)
    checks.append(TREE.to_int(m127) == 2**127 - 1)

    checks.append(print_tree(numtheory.fermat(TREE, t(11))) == "V T [T,V T [W T [V T []]]]")

    checks.append(print_tree(numtheory.mersenne45()) == MERSENNE45_TEXT)

    packed = codecs.from_set(TREE, [t(k) for k in (1, 100, 123, 234)])
    checks.append(
        print_tree(packed)
        == "W (V T []) [V T [T,W T [],T],T,V T [V T [],T],T,V T [W T [],T,T]]"
    )
    checks.append(TREE.to_int(packed) == SPARSE_SET_DECIMAL)
    checks.append(SPARSE_SET_DECIMAL == sum(2**k for k in (1, 100, 123, 234)))

    positions = [BIGNAT.to_int(v) for v in codecs.to_set(BIGNAT, 1234)]
    checks.append(positions == [1, 4, 6, 7, 10])

    table = [[BIGNAT.to_int(v) for v in numtheory.nsyr(BIGNAT, n)] for n in range(8)]
    checks.append(
        table
        == [
            [0],
            [1, 2, 0],
            [2, 0],
            [3, 5, 8, 6, 2, 0],
            [4, 3, 5, 8, 6, 2, 0],
            [5, 8, 6, 2, 0],
            [6, 2, 0],
            [7, 11, 17, 26, 2, 0],
        ]
    )

    alt = [[BIGNAT.to_int(v) for v in BIGNAT.to_list_alt(n)] for n in range(21)]
    checks.append(
        alt
        == [
            [], [0], [1], [2], [0, 0], [0, 1], [3], [4], [0, 2], [0, 0, 0],
            [1, 0], [1, 1], [0, 0, 1], [0, 3], [5], [6], [0, 4], [0, 0, 2],
            [1, 2], [1, 0, 0], [0, 0, 0, 0],
        ]
    )

    report(2, all(checks), f"{len(checks)} golden session values byte-exact")


# ----------------------------------------------------------------------
# 3. compressed giants: bitsize, DAG node counts, refusal of expansion
# ----------------------------------------------------------------------


def test_criterion_3_giant_bitsize_and_dags(capsys):
    elapsed, bits = best_of(
        3, lambda: TREE.to_int(TREE.bitsize(numtheory.mersenne45()))
    )
    ok_bits = bits == 43112609 and elapsed < 1.0

    m_nodes = len(fold_to_dag(numtheory.mersenne45()).nodes)
    p_nodes = len(fold_to_dag(numtheory.perfect45()).nodes)

    # decimal expansion is refused, and reps that cannot run print '?'
    code = main(["special", "mersenne", "43112609", "--output", "dec"])
    err = capsys.readouterr().err
    refused = code == 1 and "refusing decimal expansion" in err
    marks = list(bench_lines("bitsize45", "n")) + list(bench_lines("bitsize45", "b"))
    refused = refused and all(line.endswith("? ?") for line in marks)

    report(
        3,
        ok_bits and m_nodes == 6 and p_nodes == 7 and refused,
        f"bitsize 43112609 in {elapsed * 1000:.1f}ms, DAG nodes {m_nodes}/{p_nodes}, "
        "decimal expansion refused",
    )


# ----------------------------------------------------------------------
# 4. doubly iterated exp2 in constant-ish time
# ----------------------------------------------------------------------


def test_criterion_4_exp2_exp2_14():
    t14 = TREE.from_int(14)
    elapsed, value = best_of(3, lambda: TREE.exp2(TREE.exp2(t14)))
    bits = TREE.to_int(TREE.bitsize(value))
    want = oracle_bitsize(2**16384)
    report(
        4,
        elapsed < 0.050 and bits == want,
        f"exp2(exp2(14)) in {elapsed * 1000:.2f}ms, bitsize {bits} == {want}",
    )


# ----------------------------------------------------------------------
# 5. sparse-set encoding speed ratio
# ----------------------------------------------------------------------


def test_criterion_5_sparse_set_ratio():
    def workload(rep):
        elements = [rep.from_int(k) for k in range(101, 100001, 1901)]
        return rep.to_int(rep.bitsize(codecs.from_set(rep, elements)))

    tree_time, tree_digest = best_of(3, lambda: workload(TREE))
    start = time.perf_counter()
    bij_digest = workload(BIJ)
    bij_time = time.perf_counter() - start
    ratio = bij_time / tree_time
    report(
        5,
        tree_digest == bij_digest and ratio >= 10.0,
        f"digit-string {bij_time * 1000:.0f}ms vs tree {tree_time * 1000:.1f}ms "
        f"(x{ratio:.0f}), digests agree",
    )


# ----------------------------------------------------------------------
# 6. perfect numbers across representations
# ----------------------------------------------------------------------


def test_criterion_6_perfect_numbers():
    ok = True
    for rep in (BIGNAT, BIJ, TREE):
        ok = ok and rep.to_int(numtheory.perfect(rep, rep.from_int(2))) == 6
        ok = ok and rep.to_int(numtheory.perfect(rep, rep.from_int(3))) == 28
        for p in range(2, 21):
            want = 2 ** (p - 1) * (2**p - 1)
            ok = ok and rep.to_int(numtheory.perfect(rep, rep.from_int(p))) == want
    for p in range(2, 21):
        tp = TREE.from_int(p)
        shortcut = numtheory.perfect(TREE, tp)
        product = TREE.mul(TREE.exp2(TREE.pred(tp)), numtheory.mersenne(TREE, tp))
        ok = ok and shortcut == product
    report(6, ok, "perfect(p) = 2^(p-1)(2^p-1) for p in 2..20, all reps incl. tree shortcut")


# ----------------------------------------------------------------------
# 7. Lucas-Lehmer exponent stream
# ----------------------------------------------------------------------


def _prime_trial(n):
    if n < 2:
        return False
    d = 2
    while d * d <= n:
        if n % d == 0:
            return False
        d += 1
    return True


def test_criterion_7_lucas_lehmer_stream():
    oracle = [p for p in range(3, 32) if _prime_trial(p) and _prime_trial(2**p - 1)]
    got_int = [BIGNAT.to_int(p) for p in islice(numtheory.mersenne_prime_exps(BIGNAT), 7)]
    got_tree = [TREE.to_int(p) for p in islice(numtheory.mersenne_prime_exps(TREE), 7)]
    two_skipped = numtheory.lucas_lehmer(BIGNAT, 2) is False and _prime_trial(2**2 - 1)
    ok = got_int == got_tree == oracle == [3, 5, 7, 13, 17, 19, 31] and two_skipped
    report(7, ok, f"first 7 exponents {got_int} on ints and trees (p=2 excluded by design)")


# ----------------------------------------------------------------------
# 8. bitwise suite
# ----------------------------------------------------------------------


def test_criterion_8_bitwise():
    rep = BIGNAT
    start = time.perf_counter()
    for x in range(256):
        for y in range(256):
            assert rep.to_int(codecs.l_and(rep, x, y)) == x & y
            assert rep.to_int(codecs.l_or(rep, x, y)) == x | y
            assert rep.to_int(codecs.l_xor(rep, x, y)) == x ^ y
            assert rep.to_int(codecs.l_dif(rep, x, y)) == x & ~y
    for c in range(32):
        for a in range(32):
            for b in range(32):
                got = rep.to_int(codecs.l_ite(rep, c, a, b))
                assert got == (c & a) | (~c & b)
    for width in range(11):
        for x in range(2**width):
            assert rep.to_int(codecs.l_not(rep, width, x)) == (2**width - 1) ^ x
    elapsed = time.perf_counter() - start
    report(8, True, f"and/or/xor/dif on 0..255^2, ite mux on 0..31^3, not windows in {elapsed:.0f}s")


# ----------------------------------------------------------------------
# 9. property suites
# ----------------------------------------------------------------------


def _feasible_random_trees(count, seed):
    rng = random.Random(seed)
    out = []
    while len(out) < count:
        x = random_tree(rng)
        if value_if_feasible(x) is not None:
            out.append(x)
    return out


def test_criterion_9_property_suites():
    reps = (BIGNAT, BIJ, TREE)

    # value homomorphism and succ/pred inverses over the full 16-bit range
    for rep in reps:
        x = rep.e
        for k in range(1, 1 << 16):
            x = rep.succ(x)
            assert rep.to_int(x) == k
        x = rep.from_int(1 << 16)
        for k in range(1 << 16, 0, -1):
            assert rep.succ(rep.pred(x)) == x
            x = rep.pred(x)
        assert rep.is_e(x)

    # succ/pred inverses on 200 digit-feasible random trees
    for x in _feasible_random_trees(200, seed=1208):
        assert TREE.pred(TREE.succ(x)) == x

    # cons/decons round trips
    for rep in reps:
        f = rep.from_int
        for z in range(1, 4097):
            a, b = rep.decons(f(z))
            assert rep.cons(a, b) == f(z)
        for a in range(64):
            for b in range(64):
                assert rep.decons(rep.cons(f(a), f(b))) == (f(a), f(b))

    # list and set codecs round-trip; set views ascend
    for rep in reps:
        for k in range(2049):
            x = rep.from_int(k)
            assert codecs.from_list(rep, codecs.to_list(rep, x)) == x
        for k in range(4097):
            x = rep.from_int(k)
            s = codecs.to_set(rep, x)
            assert all(rep.cmp(a, b) is LT for a, b in zip(s, s[1:]))
            assert codecs.from_set(rep, s) == x

    # dual is an involution preserving bitsize
    for rep in reps:
        for k in range(4097):
            x = rep.from_int(k)
            d = rep.dual(x)
            assert rep.dual(d) == x
            assert rep.bitsize(d) == rep.bitsize(x)

    # canonicity on 500 random trees (digit-feasible ones expanded exactly)
    rng = random.Random(20130606)
    for _ in range(500):
        x = random_tree(rng)
        value = value_if_feasible(x)
        if value is not None:
            assert TREE.to_int(x) == value
            assert TREE.from_int(value) == x

    # sampled ring laws
    rnd = random.Random(9)
    triples = [(rnd.randrange(513), rnd.randrange(513), rnd.randrange(513)) for _ in range(60)]
    for rep in reps:
        for a, b, c in triples:
            va, vb, vc = rep.from_int(a), rep.from_int(b), rep.from_int(c)
            assert rep.add(va, vb) == rep.add(vb, va)
            assert rep.add(rep.add(va, vb), vc) == rep.add(va, rep.add(vb, vc))
            assert rep.mul(va, rep.add(vb, vc)) == rep.add(rep.mul(va, vb), rep.mul(va, vc))

    # digit-iteration identities
    for rep in reps:
        f = rep.from_int
        for k in range(65):
            assert numtheory.a1(rep, f(k))
            if k >= 1:
                assert numtheory.a2(rep, f(k))
        for n in range(65):
            for b in (0, 1, 2, 3, 7, 8):
                assert numtheory.a3(rep, f(n), f(b))
                if b >= 1:
                    assert numtheory.a4(rep, f(n), f(b))

    report(9, True, "inverses, round trips, involutions, canonicity, ring laws, identities")


# ----------------------------------------------------------------------
# 10. average-case successor bound
# ----------------------------------------------------------------------


def test_criterion_10_mean_succ_depth():
    means = {}
    for rep, name in ((BIGNAT, "int"), (BIJ, "digits"), (TREE, "tree")):
        total = sum(rep.succ_depth(rep.from_int(k)) for k in range(1 << 16))
        means[name] = total / (1 << 16)
    ok = all(m <= 3.0 for m in means.values())
    shown = ", ".join(f"{name} {m:.3f}" for name, m in means.items())
    report(10, ok, f"mean succ depth over [0, 2^16): {shown} (bound 3)")
