"""Tree arithmetic on giants checked by residues.

:func:`helpers.residue` reads x mod m off a tree's nodes, however long its
runs, so results on values that no digit walk expands are checked exactly
modulo a few moduli, and not only by identities that a fault shared by two
operations would keep.
"""

import random
from functools import cmp_to_key

from giantnat import EQ, LEAF, LT, TREE, NatRep, VNode, WNode
from giantnat.codecs import from_set, l_and, l_dif, l_or, l_xor, pair_encode
from giantnat.numtheory import fermat, mersenne45, perfect45
from giantnat.tree import MAX_DEPTH, _gap, parse_tree, random_tree

from helpers import exp2_residue, residue, value_if_feasible

# a prime, odd and even composites, and a power of two
MODULI = (1000003, 999999, 3 << 18, 65537 * 12, 1 << 20)


def _residues(x):
    return [residue(x, m) for m in MODULI]


def _giants(seed, count, depth=6, digits=20000):
    # random trees drawn until count of them have more than the given
    # number of digits, too many to expand by default
    rng, out = random.Random(seed), []
    while len(out) < count:
        x = random_tree(rng, depth)
        if value_if_feasible(x, digits) is None:
            out.append(x)
    return out


def _check_split(x, k, q, r):
    # x = 2^k q + r with r < 2^k
    for m, rx, rq, rr in zip(MODULI, _residues(x), _residues(q), _residues(r)):
        assert rx == (rq * exp2_residue(k, m) + rr) % m
    assert TREE.cmp(r, TREE.exp2(k)) is LT


def test_residues_agree_with_the_expansion():
    rng, moduli = random.Random(22), MODULI + (1, 2, 3)
    for n in range(600):
        x = TREE.from_int(n)
        assert _residues(x) == [n % m for m in MODULI]
        assert [exp2_residue(x, m) for m in MODULI] == [pow(2, n, m) for m in MODULI]
    checked = 0
    while checked < 800:
        x = random_tree(rng, 4)
        v = value_if_feasible(x)
        if v is not None:
            checked += 1
            assert [residue(x, m) for m in moduli] == [v % m for m in moduli]
            if v < 1 << 16:
                assert [exp2_residue(x, m) for m in MODULI] == [pow(2, v, m) for m in MODULI]


def test_residues_of_the_paper_giants():
    p = 43112609
    assert _residues(mersenne45()) == [(pow(2, p, m) - 1) % m for m in MODULI]
    assert _residues(perfect45()) == [pow(2, p - 1, m) * (pow(2, p, m) - 1) % m for m in MODULI]


def test_split_and_division_by_a_power_of_two_on_giants():
    giants = _giants(6, 100)
    for x, y in zip(giants, giants[1:] + giants[:1]):
        size = TREE.bitsize(x)
        ks = [TREE.from_int(k) for k in (0, 1, 5, 64, 1000)]
        for k in ks + [TREE.pred(size), size, y]:
            _check_split(x, k, *TREE.split(k, x))
        for k in (ks[2], TREE.pred(size)):
            _check_split(x, k, *TREE.div_and_rem(x, TREE.exp2(k)))


def _check_division(x, y, q, r):
    # x = q y + r with r < y
    for m, rx, ry, rq, rr in zip(MODULI, _residues(x), _residues(y), _residues(q), _residues(r)):
        assert rx == (rq * ry + rr) % m
    assert TREE.cmp(r, y) is LT


def test_division_of_the_paper_giants():
    # perfect45 is 2^(p - 1) times mersenne45; F(20) over F(10) leaves 2
    x, y = perfect45(), mersenne45()
    _check_division(x, y, *TREE.div_and_rem(x, y))
    x, y = (fermat(TREE, TREE.from_int(n)) for n in (20, 10))
    _check_division(x, y, *TREE.div_and_rem(x, y))


def test_long_division_by_giants():
    # x = q y + r for giants y other than powers of two: q - 1 is a node of
    # one to four runs, many of them longer than 2^64 digits, and r is 0,
    # y - 1 or y mod 2^j
    rng = random.Random(25)
    ys = [y for y in _giants(9, 80, 5) if TREE.run_trim(True, TREE.pred(y)) is not LEAF][:60]
    counters = _giants(10, 20, 3, 64) + [TREE.from_int(n) for n in (0, 1, 2, 5, 40, 1000)]
    assert len(ys) == 60
    for n, y in enumerate(ys):
        c = [rng.choice(counters) for _ in range(rng.randrange(1, 5))]
        q = TREE.succ((WNode if n & 1 else VNode)(c[0], tuple(c[1:])))
        r = (LEAF, TREE.pred(y), TREE.split(TREE.from_int(rng.randrange(1, 200)), y)[1])[n % 3]
        x = TREE.add(TREE.mul(q, y), r)
        _check_division(x, y, *TREE.div_and_rem(x, y))


def test_add_sub_mul_on_giant_pairs():
    giants = _giants(7, 300)
    for x, y in zip(giants, giants[1:] + giants[:1]):
        rxs, rys = _residues(x), _residues(y)
        s = TREE.add(x, y)
        assert _residues(s) == [(a + b) % m for m, a, b in zip(MODULI, rxs, rys)]
        d = TREE._sub_if_fits(x, y)[0]
        if d is None:
            assert TREE.cmp(x, y) is LT
        else:
            assert _residues(d) == [(a - b) % m for m, a, b in zip(MODULI, rxs, rys)]
        assert TREE._sub_if_fits(s, y)[0] == x
        assert _residues(TREE.mul(x, y)) == [a * b % m for m, a, b in zip(MODULI, rxs, rys)]


def _towers():
    # 2^2^...^2 by exp2, 200 levels, the one below it, and the deepest
    # nesting parse_tree takes
    x = LEAF
    for _ in range(200):
        below, x = x, TREE.exp2(x)
    text = "V T []"
    for _ in range(MAX_DEPTH - 1):
        text = f"V ({text}) []"
    return x, below, parse_tree(text)


def test_arith_on_towers():
    x, below, deepest = _towers()
    k = TREE.from_int(100)
    for a, b in ((x, below), (deepest, x), (x, VNode(deepest, (LEAF,)))):
        ras, rbs = _residues(a), _residues(b)
        assert _residues(TREE.add(a, b)) == [(u + v) % m for m, u, v in zip(MODULI, ras, rbs)]
        assert _residues(TREE.mul(a, b)) == [u * v % m for m, u, v in zip(MODULI, ras, rbs)]
        d = TREE._sub_if_fits(a, b)[0]
        if d is not None:
            assert _residues(d) == [(u - v) % m for m, u, v in zip(MODULI, ras, rbs)]
        _check_split(a, k, *TREE.split(k, a))


def _operands():
    # random depth-6 giants and the towers, none of them zero
    return _giants(8, 60) + list(_towers())


def test_succ_pred_on_giants():
    for x in _operands():
        rxs = _residues(x)
        assert _residues(TREE.succ(x)) == [(r + 1) % m for m, r in zip(MODULI, rxs)]
        assert _residues(TREE.pred(x)) == [(r - 1) % m for m, r in zip(MODULI, rxs)]


def test_shifts_runs_and_pairing_on_giants():
    # with p = 2^k: exp2 is p, leftshift p y, k o digits on y p (y + 1) - 1,
    # k i digits p (y + 2) - 2, and the pairing p (2 y + 1)
    xs = _operands()
    ks = [TREE.from_int(k) for k in (0, 1, 5, 64, 1000)]
    for x, y in zip(xs, xs[1:] + xs[:1]):
        rys = _residues(y)
        for k in ks + [x]:
            ps = [exp2_residue(k, m) for m in MODULI]
            assert _residues(TREE.exp2(k)) == ps
            assert _residues(TREE.leftshift(k, y)) == [p * r % m for m, p, r in zip(MODULI, ps, rys)]
            assert _residues(TREE.run_times(True, k, y)) == [
                (p * (r + 1) - 1) % m for m, p, r in zip(MODULI, ps, rys)]
            assert _residues(TREE.run_times(False, k, y)) == [
                (p * (r + 2) - 2) % m for m, p, r in zip(MODULI, ps, rys)]
            assert _residues(pair_encode(TREE, k, y)) == [
                p * (2 * r + 1) % m for m, p, r in zip(MODULI, ps, rys)]


def test_bitsize_and_dual_on_giants():
    # bitsize is the sum of the run lengths, the counters plus one, and
    # x + dual(x) = 3 (2^n - 1) for n = bitsize(x)
    for x in _operands():
        n = TREE.bitsize(x)
        assert _residues(n) == [sum(residue(c, m) + 1 for c in (x.head, *x.tail)) % m for m in MODULI]
        assert _residues(TREE.dual(x)) == [
            (3 * (exp2_residue(n, m) - 1) - r) % m for m, r in zip(MODULI, _residues(x))]


def test_gap_on_giant_counters():
    # _gap orders trees whose counters carry no value, as the generic cmp,
    # the subtraction step's verdict, does, and the smaller plus the gap
    # plus one is the larger: on giants, the towers, Fermat counters 2^n - 3
    # and counters past a word; each against its dual (same digit count),
    # its successor, itself and a few others
    rng = random.Random(26)
    x, below, deepest = _towers()
    pool = _giants(11, 24) + [x, below, deepest, VNode(deepest, (LEAF,))]
    for n in (TREE.from_int(k) for k in (11, 20, 63, 64, 70, 100)):
        pool.append(fermat(TREE, n).tail[1])
    pool += [fermat(TREE, TREE.exp2(TREE.from_int(100))).tail[1], fermat(TREE, below).tail[1]]
    pool += [TREE.from_int(v) for v in (2**63 - 2, 2**63, 2**64 + 5, 3**50)]
    for a in pool:
        for b in [TREE.dual(a), TREE.succ(a), a, *rng.sample(pool, 4)]:
            order, gap = _gap(a, b)
            assert order is NatRep.cmp(TREE, a, b)
            if order is EQ:
                assert gap is None
                continue
            small, big = (a, b) if order is LT else (b, a)
            sums = [s + g + 1 for s, g in zip(_residues(small), _residues(gap))]
            assert [s % m for m, s in zip(MODULI, sums)] == _residues(big)


def test_bitwise_on_sparse_sets_of_giant_elements():
    # bit e of X is 1 for each element e of its set view, so X mod m is the
    # sum of 2^e mod m over them: l_and, l_or, l_xor and l_dif on sets with
    # giant elements, checked by index sets alone, apart from add, sub and
    # the set views
    rng = random.Random(27)
    pool = [TREE.from_int(v) for v in (0, 3, 2**64, 2**70, 2**80)]
    pool += [random_tree(rng, 5) for _ in range(10)]
    pool = [e for k, e in enumerate(pool) if e not in pool[:k]]
    pool.sort(key=cmp_to_key(lambda a, b: TREE.cmp(a, b).value))
    powers = [[exp2_residue(e, m) for m in MODULI] for e in pool]

    def residues_of(ks):
        return [sum(powers[k][j] for k in ks) % m for j, m in enumerate(MODULI)]

    for _ in range(60):
        a, b = ({k for k in range(len(pool)) if rng.random() < 0.4} for _ in range(2))
        x, y = (from_set(TREE, [pool[k] for k in sorted(ks)]) for ks in (a, b))
        assert _residues(x) == residues_of(a) and _residues(y) == residues_of(b)
        for op, ks in ((l_and, a & b), (l_or, a | b), (l_xor, a ^ b), (l_dif, a - b)):
            assert _residues(op(TREE, x, y)) == residues_of(ks), op.__name__
