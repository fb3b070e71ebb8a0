"""Compressed-tree representation: primitives, fast overrides, DAG, text."""

import random
import sys
import threading
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from giantnat import BIGNAT, BIJ, DomainError, EQ, GT, LEAF, LT, NatRep, ParseError, TREE, VNode, WNode, view
from giantnat.core import int_runs, runs_int
from giantnat.bignat import oracle_bitsize
from helpers import value_if_feasible
from giantnat.codecs import from_set
from giantnat.numtheory import PRIME45, fermat, mersenne, mersenne45, perfect45
from giantnat import core as core_module
from giantnat import tree as tree_module
from giantnat.tree import (
    _ADD,
    _CARRY,
    _MEMO_SIZE,
    _PAIRS,
    _PRED,
    _SUCC,
    MAX_DEPTH,
    Dag,
    _canon,
    _counter,
    _gap,
    _node,
    _order,
    _put,
    _walk,
    dag_to_dot,
    fold_to_dag,
    memo_stats,
    node_count,
    parse_tree,
    print_tree,
    random_tree,
    unfold_dag,
)

MERSENNE45_TEXT = (
    "V (W T [V (V T []) [],T,T,T,W T [],V T [],T,W T [],W T [],T,V T [],T,T]) []"
)


def t(k):
    return TREE.from_int(k)


# ----------------------------------------------------------------------
# primitives and canonical forms
# ----------------------------------------------------------------------


def test_first_constructor_rules():
    assert TREE.o(LEAF) == VNode(LEAF, ())
    assert TREE.i(LEAF) == WNode(LEAF, ())
    assert TREE.to_int(VNode(LEAF, ())) == 1
    assert TREE.to_int(WNode(LEAF, ())) == 2


def test_reference_tree_forms():
    assert print_tree(t(42)) == "W (V T []) [T,T,T]"
    assert print_tree(t(5)) == "V T [T]"
    assert print_tree(t(10)) == "W (V T []) [T]"


def test_node_kind_matches_parity():
    for k in range(1, 400):
        x = t(k)
        assert isinstance(x, VNode) == (k % 2 == 1)
        assert isinstance(x, WNode) == (k % 2 == 0)


def test_destructors_need_matching_node_kind():
    with pytest.raises(DomainError):
        TREE.o_inv(t(4))
    with pytest.raises(DomainError):
        TREE.i_inv(t(5))
    with pytest.raises(DomainError):
        TREE.o_inv(LEAF)


def test_canonicity_round_trip_on_values():
    for k in range(4096):
        x = t(k)
        assert TREE.to_int(x) == k
        assert TREE.from_int(TREE.to_int(x)) == x


def test_value_oracle_agrees_with_primitives():
    for k in range(4096):
        assert value_if_feasible(t(k)) == k


def test_canonicity_round_trip_on_random_trees():
    rng = random.Random(20130606)
    checked = 0
    for _ in range(500):
        x = random_tree(rng)
        value = value_if_feasible(x)
        if value is None:
            continue  # astronomically large; digit expansion is infeasible
        checked += 1
        assert TREE.to_int(x) == value
        assert TREE.from_int(value) == x
        assert view(view(x, TREE, BIJ), BIJ, TREE) == x
    assert checked > 200  # the generator mostly yields desk-scale trees


# ----------------------------------------------------------------------
# fast overrides against the generic definitions
# ----------------------------------------------------------------------


def test_exp2_fast_reference_values():
    e5 = TREE.exp2(t(5))
    assert print_tree(e5) == "W T [V (V T []) []]"
    assert TREE.to_int(e5) == 32
    assert TREE.exp2(LEAF) == VNode(LEAF, ())


# exp2 and leftshift are NatRep's identity a4 on TREE's run_times; from_int
# builds the same values from their bit text alone


def test_exp2_agrees_with_from_int():
    for k in range(2049):
        assert TREE.exp2(t(k)) == t(1 << k)


def test_exp2_fast_double_application():
    v = TREE.exp2(TREE.exp2(t(14)))
    assert TREE.to_int(TREE.bitsize(v)) == oracle_bitsize(2**16384)


def test_vmul():
    y = t(9)
    assert TREE.run_times(True, LEAF, y) == y
    assert TREE.to_int(TREE.run_times(True, t(3), t(1))) == 15
    assert TREE.to_int(TREE.run_times(True, t(2), t(2))) == 11
    for k in range(20):
        for y0 in range(40):
            got = TREE.run_times(True, t(k), t(y0))
            want = y0
            for _ in range(k):
                want = 2 * want + 1
            assert TREE.to_int(got) == want


def test_leftshift_fast_reference_values():
    v = TREE.leftshift(t(10), t(1))
    assert print_tree(v) == "W T [W T [V T []]]"
    assert TREE.to_int(v) == 1024
    assert TREE.leftshift(t(6), LEAF) == LEAF


def test_leftshift_agrees_with_from_int():
    for k in range(40):
        for y in range(0, 65, 3):
            assert TREE.leftshift(t(k), t(y)) == t(y << k)


def test_leftshift_fast_on_giant_arguments():
    big = t(43112609)
    shifted = TREE.leftshift(big, big)
    expect_bits = 43112609 + oracle_bitsize(43112609)
    assert TREE.to_int(TREE.bitsize(shifted)) == expect_bits


def test_bitsize_fast_agrees_with_generic():
    assert TREE.bitsize(LEAF) == LEAF
    assert TREE.to_int(TREE.bitsize(t(42))) == 5
    for x in [t(k) for k in range(2049)] + [mersenne45()]:
        assert TREE.bitsize(x) == NatRep.bitsize(TREE, x)
    # counters that carry no value, from the generator, towers and copies
    rng = random.Random(921)
    trees = [random_tree(rng, 3) for _ in range(200)] + [_tower(k) for k in range(1, 6)]
    for x in trees + [_plain(x) for x in trees + [t(rng.getrandbits(500)) for _ in range(20)]]:
        try:
            want = NatRep.bitsize(TREE, x)
        except DomainError:  # a run no int holds: sum the run lengths on trees
            want = LEAF
            for c in (x.head, *x.tail):
                want = TREE.add(want, TREE.succ(c))
        assert TREE.bitsize(x) == want


def test_bitsize_fast_mersenne45():
    assert TREE.to_int(TREE.bitsize(mersenne45())) == 43112609


def test_dual_fast_agrees_with_generic():
    assert TREE.dual(LEAF) == LEAF
    assert TREE.to_int(TREE.dual(t(1))) == 2
    for k in range(2049):
        assert TREE.dual(t(k)) == NatRep.dual(TREE, t(k))


def test_dual_fast_flips_only_top_tag():
    x = WNode(VNode(LEAF, ()), (LEAF, LEAF, LEAF, WNode(WNode(LEAF, ()), (LEAF,) * 4)))
    d = TREE.dual(x)
    assert isinstance(d, VNode)
    assert d.head == x.head and d.tail == x.tail


def test_repsize_and_node_count():
    assert TREE.repsize(LEAF) == LEAF
    assert node_count(LEAF) == 1
    assert node_count(t(42)) == 6
    assert TREE.to_int(TREE.repsize(t(42))) == 2

    def count_inner(x):
        if x is LEAF:
            return 0
        return 1 + sum(count_inner(c) for c in (x.head, *x.tail))

    rng = random.Random(99)
    trees = [random_tree(rng) for _ in range(200)] + [_tower(k) for k in range(1, 6)]
    for x in trees + [_plain(x) for x in trees + [t(rng.getrandbits(500)) for _ in range(20)]]:
        assert TREE.to_int(TREE.repsize(x)) == count_inner(x)
        assert node_count(x) == len(_all_counters(x))


def test_cons_decons_fast_reference_values():
    assert TREE.cons(LEAF, LEAF) == VNode(LEAF, ())
    assert TREE.decons(t(14)) == (t(5), LEAF)
    with pytest.raises(DomainError):
        TREE.decons(LEAF)


# ----------------------------------------------------------------------
# succ / pred as one node edit each
# ----------------------------------------------------------------------


def test_succ_pred_agree_with_generic():
    for k in range(4097):
        x = t(k)
        assert TREE.succ(x) == NatRep.succ(TREE, x)
        if k:
            assert TREE.pred(x) == NatRep.pred(TREE, x)


# One input per case of succ and of pred, by the shape of the outermost
# node, with the result as tree text
SUCC_CASES = [
    ("V (V T []) [T]", "W T [T,T]"),  # o run of 2 digits: its first turns i
    ("V T [V T []]", "W (W T []) []"),  # one o digit joins the i run under it
    ("V T []", "W T []"),  # one o digit, nothing under it
    ("W (V T []) []", "V (W T []) []"),  # only an i run: an o run one digit longer
    ("W T [V T []]", "V T [T,T]"),  # i run over an o run of 2 digits
    ("W T [T,V T []]", "V T [W T []]"),  # i run over one o digit over an i run
    ("W T [T]", "V T [T]"),  # i run over one o digit, nothing under it
]
PRED_CASES = [
    ("W (V T []) [T]", "V T [T,T]"),
    ("W T [V T []]", "V (W T []) []"),
    ("W T []", "V T []"),
    ("V (V T []) []", "W T []"),  # only an o run: an i run one digit shorter
    ("V T []", "T"),  # one o digit is one
    ("V T [V T []]", "W T [T,T]"),
    ("V T [T,V T []]", "W T [W T []]"),
    ("V T [T]", "W T [T]"),
]


@pytest.mark.parametrize("op, cases", [("succ", SUCC_CASES), ("pred", PRED_CASES)])
def test_succ_pred_one_case_per_outermost_node_shape(op, cases):
    for text, want in cases:
        x = parse_tree(text)
        got = getattr(TREE, op)(x)
        assert print_tree(got) == want, text
        assert got == getattr(NatRep, op)(TREE, x), text


def test_succ_pred_build_one_node_per_call(monkeypatch):
    # Node constructions counted as perfbench's tracer counts them, through
    # a wrapped __init__; what the one counter step (_SUCC or _PRED) builds
    # is its own and is not counted here.  Composing the result from digit
    # steps would build two to four nodes.
    counts = {"nodes": 0, "steps": 0}
    for cls in (VNode, WNode):
        def counting_init(node, head, tail, init=cls.__init__):
            counts["nodes"] += 1
            init(node, head, tail)

        monkeypatch.setattr(cls, "__init__", counting_init)
    for name in ("_SUCC", "_PRED"):
        def uncounted(x, step=getattr(tree_module, name)):
            counts["steps"] += 1
            outer = dict(counts)
            try:
                return step(x)
            finally:
                counts.update(outer)

        monkeypatch.setattr(tree_module, name, uncounted)
    values = [parse_tree(text) for text, _ in SUCC_CASES + PRED_CASES]
    values += [t(k) for k in range(1, 300)] + _giants()
    for x in values:
        for op in (TREE.succ, TREE.pred):
            counts.update(nodes=0, steps=0)
            y = op(x)
            assert counts["nodes"] == (y is not LEAF), print_tree(x)
            assert counts["steps"] <= 1, print_tree(x)


# ----------------------------------------------------------------------
# run helpers
# ----------------------------------------------------------------------


@pytest.mark.parametrize("o_digit", [True, False], ids=["o", "i"])
def test_run_helpers_agree_with_generic(o_digit):
    for n in range(513):
        x, k = t(n), t(n % 37)
        assert TREE.run_count(o_digit, x) == NatRep.run_count(TREE, o_digit, x)
        assert TREE.run_trim(o_digit, x) == NatRep.run_trim(TREE, o_digit, x)
        assert TREE.run_times(o_digit, k, x) == NatRep.run_times(TREE, o_digit, k, x)


def _giants():
    # too large to expand, but every counter is small enough for succ/pred
    rng = random.Random(2013)
    out = [mersenne45(), perfect45()]
    while len(out) < 60:
        x = random_tree(rng, 3)
        if value_if_feasible(x) is None:
            out.append(x)
    return out


def test_succ_pred_invert_each_other_on_giants():
    # each result also against the node-level digit steps that compose it:
    # the outermost digit flipped, or the outermost run flipped over the
    # successor (predecessor) of the rest
    for x in _giants():
        s, p = TREE.succ(x), TREE.pred(x)
        assert TREE.pred(s) == x
        assert TREE.succ(p) == x
        if TREE.is_o(x):
            assert s == TREE.i(TREE.o_inv(x))
            k, rest = TREE.run_count(True, x), TREE.run_trim(True, x)
            if TREE.is_e(rest):
                assert p == TREE.run_times(False, TREE.pred(k), LEAF)
            else:
                assert p == TREE.run_times(False, k, TREE.pred(rest))
        else:
            assert p == TREE.o(TREE.i_inv(x))
            k, rest = TREE.run_count(False, x), TREE.run_trim(False, x)
            assert s == TREE.run_times(True, k, TREE.succ(rest))


def test_cons_decons_round_trip_on_giants():
    # a giant with a long outermost i run, paired with zero, needs a succ
    # over that whole run
    for x in _giants():
        assert TREE.cons(*TREE.decons(x)) == x
        assert TREE.decons(TREE.cons(x, LEAF)) == (x, LEAF)


@pytest.mark.parametrize("o_digit", [True, False], ids=["o", "i"])
def test_run_helpers_split_and_rebuild_giants(o_digit):
    for x in _giants():
        count, rest = TREE.run_count(o_digit, x), TREE.run_trim(o_digit, x)
        assert TREE.run_times(o_digit, count, rest) == x
        assert TREE.run_count(o_digit, rest) == LEAF


# ----------------------------------------------------------------------
# cmp / add / sub / mul over runs
# ----------------------------------------------------------------------


def _check_arith_against_generic(a, b, mul=True):
    # generic sub wraps _sub_if_fits, which TREE overrides: the digit walk
    # oracle is the generic step.  TREE's product is the generic one, so its
    # oracle is the int product.
    x, y = t(a), t(b)
    assert TREE.cmp(x, y) is NatRep.cmp(TREE, x, y)
    assert TREE.add(x, y) == NatRep.add(TREE, x, y)
    if mul:
        assert TREE.to_int(TREE.mul(x, y)) == a * b
    diff, rest = NatRep._sub_if_fits(TREE, x, y)
    assert TREE._sub_if_fits(x, y) == (diff, rest)
    if a >= b:
        assert TREE.sub(x, y) == diff
    else:
        assert diff is None
        with pytest.raises(DomainError, match="subtraction underflow"):
            TREE.sub(x, y)


def test_arith_agrees_with_generic():
    for a in range(257):
        for b in range(257):
            _check_arith_against_generic(a, b)


def test_arith_agrees_with_generic_on_random_operands():
    rng = random.Random(1200)
    for _ in range(40):
        a, b = (rng.getrandbits(rng.randrange(1, 1201)) for _ in range(2))
        for p, q in ((a, b), (a + b, a), (a, a + b + 1)):  # (a + b, a): one length
            _check_arith_against_generic(p, q, mul=False)
        small = rng.getrandbits(rng.randrange(1, 33))
        product = TREE.mul(t(small), t(a))
        assert TREE.mul(t(a), t(small)) == product
        assert TREE.to_int(product) == small * a
    for _ in range(4):
        a, b = rng.getrandbits(600), rng.getrandbits(600)
        assert TREE.to_int(TREE.mul(t(a), t(b))) == a * b


@given(st.integers(min_value=0, max_value=1 << 256), st.integers(min_value=0, max_value=1 << 256))
@settings(max_examples=100, deadline=None)
def test_arith_homomorphism_hypothesis(a, b):
    x, y = t(a), t(b)
    assert TREE.cmp(x, y).value == (a > b) - (a < b)
    assert TREE.to_int(TREE.add(x, y)) == a + b
    assert TREE.to_int(TREE.mul(x, y)) == a * b
    if a >= b:
        assert TREE.to_int(TREE.sub(x, y)) == a - b
    else:
        with pytest.raises(DomainError):
            TREE.sub(x, y)


def test_arith_identities_on_giants():
    giants = _giants()
    for x, y in zip(giants, giants[1:] + giants[:1]):
        assert TREE.add(x, x) == TREE.db(x)
        assert TREE.mul(x, t(2)) == TREE.db(x)
        assert TREE.cmp(x, x) is EQ
        assert TREE.sub(TREE.add(x, y), y) == x
        order = TREE.cmp(x, y)
        assert TREE.cmp(y, x) is {LT: GT, EQ: EQ, GT: LT}[order]
        size_order = TREE.cmp(TREE.bitsize(x), TREE.bitsize(y))
        if size_order is not EQ:
            assert order is size_order


def test_sub_if_fits_agrees_with_cmp_and_sub_on_giants():
    giants = _giants()
    for x in giants:
        for y in giants[:20] + [TREE.pred(x), x, TREE.succ(x), LEAF]:
            got, rest = TREE._sub_if_fits(x, y)
            if TREE.cmp(x, y) is LT:
                assert got is None
            else:
                assert got == TREE.sub(x, y) and rest is LEAF
                assert TREE.add(got, y) == x


def test_mersenne45_squared():
    # (2^p - 1)^2 = 2^(p+1) (2^(p-1) - 1) + 1
    m = mersenne45()
    p = TREE.bitsize(m)
    want = TREE.succ(TREE.leftshift(TREE.succ(p), TREE.pred(TREE.exp2(TREE.pred(p)))))
    assert TREE.mul(m, m) == want
    assert TREE.to_int(TREE.bitsize(want)) == 2 * 43112609 - 1


def test_towers_squared():
    # 2^k less one is one o run of k digits, less two one i run of k - 1.
    # For k = 2^100 no index holds that run length, and for k = 2^(2^100)
    # no int holds it either: the product must never read a run length as
    # an int.  Checked by identity, never expanded
    for k in (TREE.exp2(t(100)), TREE.exp2(TREE.exp2(t(100)))):
        big = TREE.exp2(k)
        assert TREE.mul(big, big) == TREE.exp2(TREE.add(k, k))
        # (2^k - 1)^2 = 2^(k+1) (2^(k-1) - 1) + 1
        m = TREE.pred(big)
        want = TREE.succ(TREE.leftshift(TREE.succ(k), TREE.pred(TREE.exp2(TREE.pred(k)))))
        assert TREE.mul(m, m) == want
        assert TREE.bitsize(want) == TREE.pred(TREE.add(k, k))


def test_arith_scales_with_tree_size():
    # M(2^20) has a million digits; a digit walk takes some 20 s per add
    start = time.perf_counter()
    three = t(3)
    for k in range(10, 21):
        x = TREE.pred(TREE.exp2(t(1 << k)))
        y = TREE.pred(x)
        assert TREE.sub(TREE.add(x, y), y) == x
        assert TREE.cmp(y, x) is LT
        assert TREE.sub(TREE.mul(three, x), TREE.db(x)) == x
    assert time.perf_counter() - start < 1.0


def test_arith_on_deepest_towers():
    # towers nested as deep as parse_tree allows, differing only innermost:
    # comparing counters and then subtracting them would walk each level
    # twice, 2^255 walks in all
    def tower(inner):
        for _ in range(MAX_DEPTH - 1):
            inner = f"V ({inner}) []"
        return parse_tree(inner)

    x, z = tower("V T []"), tower("W T []")
    assert TREE.cmp(x, z) is LT and TREE.cmp(z, x) is GT
    assert TREE.sub(TREE.add(x, z), z) == x
    assert TREE.pred(TREE.sub(z, x)) == TREE.sub(TREE.pred(z), x)


def test_ops_on_a_tower_of_300_exp2():
    # a depth the recursive walks reach under the default recursion limit
    # with room to spare: no change may lower it
    def tower(depth):
        x = LEAF
        for _ in range(depth):
            below, x = x, TREE.exp2(x)
        return below, x

    below, x = tower(300)
    assert x == tower(300)[1]
    assert TREE.cmp(x, TREE.succ(x)) is LT and TREE.cmp(TREE.succ(x), x) is GT
    assert TREE.sub(TREE.add(x, x), x) == x
    assert TREE.mul(x, x) == TREE.exp2(TREE.add(below, below))
    assert TREE.bitsize(x) == below  # 2^n is one i digit then n - 1 o digits
    assert unfold_dag(fold_to_dag(x)) == x


def test_ops_on_a_tower_of_450_exp2():
    # close to the reach under the default recursion limit: a counter step
    # is one frame per level and the run walk orders counters with _gap,
    # never with a second, deep ==; near 500 levels every op here raises
    # RecursionError (ROADMAP item 7)
    x = LEAF
    for _ in range(450):
        below, x = x, TREE.exp2(x)
    plain = _plain(x)
    assert x == plain and hash(x) == hash(plain)
    up = TREE.succ(x)
    assert TREE.pred(up) == x and TREE.succ(TREE.pred(x)) == x
    assert TREE.cmp(x, up) is LT and TREE.cmp(up, x) is GT
    assert TREE.sub(TREE.add(x, x), x) == x
    assert TREE.mul(x, x) == TREE.exp2(TREE.add(below, below))
    assert TREE.bitsize(x) == below
    assert unfold_dag(fold_to_dag(x)) == x


# ----------------------------------------------------------------------
# counter memos
# ----------------------------------------------------------------------


def _all_counters(x):
    # x and every counter in it, at every level
    out = [x]
    if x is not LEAF:
        for c in (x.head, *x.tail):
            out += _all_counters(c)
    return out


def _tower(levels):
    # one run whose counter is the tower one level lower
    x = LEAF
    for _ in range(levels):
        x = VNode(x, ())
    return x


def test_counter_memos_agree_with_their_bodies():
    # the recursive step _gap gives what ints give where the counters
    # expand, the order and |a - b| - 1, and on every counter, giants and
    # towers too, the smaller plus the gap plus one is the larger
    rng = random.Random(909)
    counters = [t(rng.getrandbits(rng.randrange(1, 80))) for _ in range(20)]
    counters += [c for _ in range(10) for c in _all_counters(random_tree(rng, 3))]
    for x in (mersenne45(), perfect45(), fermat(TREE, t(11)), fermat(TREE, t(20)),
              _tower(6), TREE.exp2(TREE.exp2(t(2**40)))):
        counters += _all_counters(x)
    for a in counters:
        # _gap orders any two counters: equal ones, value or not, give EQ
        assert _gap(a, a) == _gap(a, _plain(a)) == _gap(_plain(a), a) == (EQ, None)
        va = value_if_feasible(a)
        for b in rng.sample(counters, 12):
            if a == b:
                assert _gap(a, b) == (EQ, None)
                continue
            order, gap = _gap(a, b)
            small, big = (a, b) if order is LT else (b, a)
            assert order in (LT, GT) and TREE.succ(TREE.add(small, gap)) == big
            vb = value_if_feasible(b)
            if va is not None and vb is not None:
                assert (order, gap) == (LT if va < vb else GT, t(abs(va - vb) - 1))


def _random_arith(rng, count):
    # results of cmp/add/sub/mul/xor on random (mostly giant) trees
    out = []
    for _ in range(count):
        x, y = random_tree(rng), random_tree(rng)
        order = TREE.cmp(x, y)
        big, small = (y, x) if order is LT else (x, y)
        out.append((order, TREE.add(x, y), TREE.sub(big, small), TREE.mul(x, y),
                    TREE.bitwise(XOR, x, y)))
    return out


def test_counter_memos_stay_within_their_bound():
    before = memo_stats()
    _random_arith(random.Random(910), 600)
    for k in range(1, 2 * _MEMO_SIZE):  # a run of k digits: table counter k - 1
        t((1 << k) - 1)
    before, after = before["counter"], memo_stats()["counter"]
    assert after["misses"] - before["misses"] > _MEMO_SIZE  # the table filled up
    assert after["size"] <= _MEMO_SIZE
    assert after["hits"] >= before["hits"]


def test_results_equal_with_memos_cleared_and_warm():
    rng = random.Random(911)
    cold = []
    for _ in range(100):  # each pair's ops start from an empty table
        _counter.cache_clear()
        cold += _random_arith(rng, 1)
    hits = memo_stats()["counter"]["hits"]
    warm = _random_arith(random.Random(911), 100)
    assert memo_stats()["counter"]["hits"] > hits
    assert warm == cold


def _plain(x):
    # x rebuilt node by node, so that no counter in it carries its value
    if x is LEAF:
        return LEAF
    return type(x)(_plain(x.head), tuple(map(_plain, x.tail)))


def _walk_gap(a, b):
    # order and distance of two counters as the run walk finds them, from the
    # one-run values a + 1 and b + 1
    _, rest_a, rest_b, _, _ = _walk(VNode(a, ()), VNode(b, ()), _PAIRS)
    if rest_a is LEAF and rest_b is LEAF:
        return EQ, None
    return (LT, rest_b.head) if rest_a is LEAF else (GT, rest_a.head)


def _walk_join(a, b):
    runs = [(True, a)]
    _put(runs, True, b)
    return _node(runs, LEAF).head


def test_counter_table_agrees_with_recursive_steps():
    # the int steps on table counters against TREE's recursive steps and
    # _gap, from zero up and across the word edge, where a value
    # stops being carried, mixed with counters that carry no value
    rng = random.Random(915)
    edge = [base + d for base in (1 << 62, sys.maxsize, 1 << 63) for d in range(-3, 4)]
    counters = [t(v) if v >= sys.maxsize else _counter(v) for v in [*range(301), *edge]]
    counters += [_plain(c) for c in rng.sample(counters, 30)] + [_tower(k) for k in range(1, 6)]
    results = []
    for a in counters:
        # the references take the node path: _plain copies carry no value
        results += [_SUCC(a), _PRED(a) if a is not LEAF else LEAF]
        assert results[-2] == TREE.succ(_plain(a))
        if a is not LEAF:
            assert results[-1] == TREE.pred(_plain(a))
        for b in rng.sample(counters, 10):
            results += [_ADD(a, b), _walk_join(a, b)]
            assert results[-2] == TREE.add(_plain(a), _plain(b))
            assert results[-1] == TREE.succ(TREE.add(_plain(a), _plain(b)))
            gap = _walk_gap(a, b)
            assert gap == _gap(a, b)
            if gap[1] is not None:
                results.append(gap[1])
    for c in counters + results:
        if c._value is not None:
            assert c._value < sys.maxsize
            assert c._value == TREE.to_int(_plain(c))
    # a counter past the word carries no value, so its run is still refused
    top = _SUCC(_counter(sys.maxsize - 1))
    assert top._value is None and TREE.to_int(_plain(top)) == sys.maxsize
    with pytest.raises(DomainError):
        TREE.to_int(VNode(top, ()))


def test_sub_if_fits_steps_table_counters_as_ints(monkeypatch):
    # two table counters subtract as ints: the table's counter, or None and
    # what is left of y, without a walk, as the digit pass gives them
    counters = [_counter(v) for v in range(256)]
    walks = []
    monkeypatch.setattr(tree_module, "_walk", lambda *args: walks.append(args))
    for a, x in enumerate(counters):
        for b, y in enumerate(counters):
            got, rest = TREE._sub_if_fits(x, y)
            assert (got, rest) == NatRep._sub_if_fits(TREE, _plain(x), _plain(y))
            assert got is (counters[a - b] if a >= b else None)
            assert rest is counters[((b + 1) >> oracle_bitsize(a)) - 1 if a < b else 0]
    assert not walks


def test_separate_conversions_share_counters():
    x = t(runs_int([(True, 5), (False, 40), (True, 2)]))
    y = t(runs_int([(False, 3), (True, 40)]))
    assert x.tail[0] is y.tail[0]  # both runs of 40 digits


def _count_gaps(monkeypatch):
    # a list that grows by one on every call of the recursive counter step
    calls = []

    def counted(a, b):
        calls.append(None)
        return _gap(a, b)

    monkeypatch.setattr(tree_module, "_gap", counted)
    return calls


def test_adding_fresh_giant_operands_takes_the_int_path(monkeypatch):
    # operands converted from ints hold table counters only, so the walk of
    # their stretches never takes the recursive step
    rng = random.Random(916)
    _, _, a, b = _long_run_operands(rng, 1 << 11)  # random digit profile
    x, y = t(a), t(b)
    calls = _count_gaps(monkeypatch)
    assert TREE.to_int(TREE.add(x, y)) == a + b
    assert not calls


def test_parsed_and_computed_small_counters_come_from_the_table():
    rng = random.Random(917)
    for _ in range(20):
        x = t(rng.getrandbits(rng.randrange(2, 300)))
        for copy in (parse_tree(print_tree(x)), unfold_dag(fold_to_dag(_plain(x)))):
            assert copy == x
            assert all(c._value is not None for c in _all_counters(copy)[1:])
    # a computed k has no value of its own; the run it makes is a table
    # counter.  o^k(y) = 2^k (y + 1) - 1 and i^k(y) = 2^k (y + 2) - 2
    for a, b in [(5, 3), (100, 37), (5000, 1)]:
        k = TREE.sub(t(a), t(b))
        assert k._value is None
        for o_digit in (True, False):
            for y in (0, 12345, 54321, 2**50):
                got = TREE.run_times(o_digit, k, t(y))
                d = 1 if o_digit else 2
                assert TREE.to_int(got) == ((y + d) << (a - b)) - d
                assert got.head._value is not None
    # the word edge: sys.maxsize - 1 has 62 digits and is the table's last
    # value; sys.maxsize has 63 and stays out
    assert _canon(t(sys.maxsize - 1))._value == sys.maxsize - 1
    assert _canon(t(sys.maxsize))._value is None


def test_tree_text_to_decimal_takes_no_recursive_counter_step(monkeypatch):
    from giantnat.cli import convert_text

    rng = random.Random(918)
    values = [rng.getrandbits(768) for _ in range(5)]
    texts = [print_tree(t(v)) for v in values]
    calls = _count_gaps(monkeypatch)
    assert [convert_text("tree", "dec", text) for text in texts] == [str(v) for v in values]
    assert not calls


def test_desk_sized_division_takes_no_recursive_counter_step(monkeypatch):
    # ordinary operands, as number theory divides them: every counter is
    # small, so the walks take int steps only
    rng = random.Random(919)
    pairs = [(rng.getrandbits(rng.randrange(1, 300)), rng.randrange(1, 1 << rng.randrange(1, 120)))
             for _ in range(200)]
    pairs += [(n, p) for n in range(200, 260) for p in (2, 3, 5, 7, 8, 64)]
    operands = [(t(a), t(b)) for a, b in pairs]
    calls = _count_gaps(monkeypatch)
    for (a, b), (x, y) in zip(pairs, operands):
        assert tuple(map(TREE.to_int, TREE.div_and_rem(x, y))) == divmod(a, b)
    assert not calls


def test_bitsize_and_repsize_of_a_giant_take_few_table_misses():
    rng = random.Random(920)
    v = rng.getrandbits(4096) | 1 << 4095
    x = t(v)
    inner = sum(c is not LEAF for c in _all_counters(x))
    for op, want in ((TREE.bitsize, oracle_bitsize(v)), (TREE.repsize, inner)):
        misses = memo_stats()["counter"]["misses"]
        assert TREE.to_int(op(x)) == want
        assert memo_stats()["counter"]["misses"] - misses <= 3


def test_threads_sharing_the_memos_agree_with_bignat():
    def work(seed, failures):
        rng = random.Random(seed)
        try:
            for _ in range(60):
                a, b = (rng.getrandbits(rng.randrange(1, 400)) for _ in range(2))
                x, y = t(a), t(b)
                assert TREE.cmp(x, y).value == BIGNAT.cmp(a, b).value
                assert TREE.to_int(TREE.add(x, y)) == BIGNAT.add(a, b)
                assert TREE.to_int(TREE.sub(*((x, y) if a >= b else (y, x)))) == abs(a - b)
                assert TREE.to_int(TREE.mul(x, t(b & 0xFFFF))) == BIGNAT.mul(a, b & 0xFFFF)
        except Exception as exc:  # a wrong result or a library error, reported below
            failures.append(exc)

    # more threads than cores, switching often, so that they interleave
    # inside the counter table's lookups and inserts
    failures = []
    threads = [threading.Thread(target=work, args=(seed, failures)) for seed in (912, 913, 914)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for th in threads:
            th.start()
        for th in threads:
            th.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(th.is_alive() for th in threads)
    assert not failures, failures


# ----------------------------------------------------------------------
# bitwise over runs
# ----------------------------------------------------------------------

BIT_TABLES = [(0, a, b, c) for a in (0, 1) for b in (0, 1) for c in (0, 1)]
OR, AND, XOR = (0, 1, 1, 1), (0, 0, 0, 1), (0, 1, 1, 0)


def _long_run_operands(rng, n):
    # an odd and an even operand of n digits: a long outer run closed by a
    # short one, and random digits with the expected run-length profile (half
    # the runs of length 1, a quarter of length 2, ...) in shuffled order
    r, s = rng.randrange(1, 33), rng.randrange(1, 33)
    yield runs_int([(True, n - r), (False, r)])
    yield runs_int([(False, n - s), (True, s)])
    profile = [length for length in range(1, n.bit_length()) for _ in range(n >> (length + 1))]
    profile.append(n - sum(profile))
    for first in (True, False):
        rng.shuffle(profile)
        yield runs_int([(first == (j % 2 == 0), k) for j, k in enumerate(profile)])


def test_bitwise_agrees_with_generic():
    rng = random.Random(808)
    trees = [t(k) for k in range(9)]
    while len(trees) < 50:
        x = random_tree(rng)
        if value_if_feasible(x) is not None:
            trees.append(x)
    for x in trees:
        for y in trees:
            for table in BIT_TABLES:
                assert TREE.bitwise(table, x, y) == NatRep.bitwise(TREE, table, x, y)
    # runs of 2^8..2^12 digits, which random_tree rarely makes
    for k in range(8, 13):
        operands = [t(v) for v in _long_run_operands(rng, 1 << k)] + trees[:3]
        for x in operands:
            for y in operands:
                for table in BIT_TABLES:
                    assert TREE.bitwise(table, x, y) == NatRep.bitwise(TREE, table, x, y)


def test_bitwise_identities_on_giants():
    # dense (2^p - 1, 2^(p-1) (2^p - 1)), 2^(2^20) + 1 and two sparse sets
    # with elements past sys.maxsize, which no run list or set view holds
    sparse = [from_set(TREE, [t(k) for k in ks]) for ks in ((2**70, 2**80), (3, 2**80))]
    pairs = [(mersenne45(), perfect45()), (perfect45(), fermat(TREE, t(20))), tuple(sparse)]
    for x, y in pairs:
        for a, b in ((x, y), (y, x)):
            start = time.perf_counter()
            o, n = TREE.bitwise(OR, a, b), TREE.bitwise(AND, a, b)
            assert TREE.add(o, n) == TREE.add(a, b)
            assert TREE.bitwise(XOR, a, b) == TREE.sub(o, n)
            assert time.perf_counter() - start < 0.05


def _mixed_operands(rng, count, pools):
    # count trees of 1..8 runs whose counters are drawn from the pools in turn
    out = []
    while len(out) < count:
        counters = [rng.choice(pools[j % len(pools)]) for j in range(rng.randrange(1, 9))]
        rng.shuffle(counters)
        out.append(rng.choice((VNode, WNode))(counters[0], tuple(counters[1:])))
    return out


def test_run_walk_on_mixed_counters():
    # the walk holds table counters as ints and meets counters without a
    # value (_plain copies, past a word, towers) through _gap; an int left
    # of a run may meet such a counter, and counters 0 and 1 make stretches
    # that the carry leaves unsettled
    rng = random.Random(1800)
    small = [_counter(v) for v in (0, 0, 1, 1, 2, 3, *rng.sample(range(4, 301), 10))]
    small += [_plain(c) for c in small[2:]]
    edge = [t(v) if v >= sys.maxsize else _counter(v) for v in range(sys.maxsize - 3, sys.maxsize + 4)]
    big = edge + [_tower(k) for k in range(1, 7)]
    dif = (0, 0, 1, 0)
    expandable = _mixed_operands(rng, 24, [small])
    for x in expandable:
        a = TREE.to_int(x)
        for k in (0, 1, 2, 7, 64, 301, a.bit_length()):
            q, r = TREE.split(t(k), x)
            assert (TREE.to_int(q), TREE.to_int(r)) == divmod(a, 1 << k)
        for y in expandable:
            b = TREE.to_int(y)
            assert TREE.cmp(x, y).value == (a > b) - (a < b)
            assert TREE.to_int(TREE.add(x, y)) == a + b
            fits, rest = TREE._sub_if_fits(x, y)
            assert fits is None if a < b else TREE.to_int(fits) == a - b
            assert TREE.to_int(rest) == (((b + 1) >> oracle_bitsize(a)) - 1 if a < b else 0)
            for table in BIT_TABLES:
                assert TREE.bitwise(table, x, y) == NatRep.bitwise(TREE, table, x, y)
    giants = _mixed_operands(rng, 24, [small, big])
    flip = {LT: GT, EQ: EQ, GT: LT}
    for x in giants:
        px = _plain(x)
        for k in (*map(t, (0, 1, 2, 7, 301)), TREE.succ(x.head), TREE.add(x.head, t(2))):
            q, r = TREE.split(k, x)
            assert TREE.add(TREE.leftshift(k, q), r) == x and TREE.cmp(r, TREE.exp2(k)) is LT
        for y in giants + expandable[:6]:
            s = TREE.add(x, y)
            assert TREE.add(px, _plain(y)) == s == TREE.add(y, x)
            assert TREE.sub(s, y) == x and TREE.sub(s, x) == y
            order = TREE.cmp(x, y)
            assert TREE.cmp(y, x) is flip[order] and TREE.cmp(px, y) is order
            for u, v, uv in ((x, y, order), (y, x, flip[order])):
                fits = TREE._sub_if_fits(u, v)[0]
                assert (fits is None) == (uv is LT)
                assert fits is None or TREE.add(fits, v) == u
            o, n = TREE.bitwise(OR, x, y), TREE.bitwise(AND, x, y)
            assert TREE.add(o, n) == s
            assert TREE.bitwise(XOR, x, y) == TREE.sub(o, n)
            assert TREE.bitwise(dif, x, y) == TREE.sub(x, n)


def test_carry_table_is_the_automaton():
    # with o worth 1 and i worth 2, every entry conserves value; the tree
    # run walk reads core's table, the one definition
    assert tree_module._CARRY is core_module._CARRY
    for sign in (1, -1):
        assert len(core_module._CARRY[sign]) == 12
        for carry in range(3):
            for xo in (0, 1):
                for yo in (0, 1):
                    o, nxt = core_module._CARRY[sign][4 * carry + 2 * xo + yo]
                    d, dx, dy = 2 - o, 2 - xo, 2 - yo
                    assert nxt in (0, 1, 2)
                    assert d + 2 * nxt == dx + dy + carry if sign == 1 else d - 2 * nxt == dx - dy - carry


def test_stretch_counts_follow_runs_not_bits(monkeypatch):
    # the walk takes stretches in proportion to the operands' runs: F(k) has
    # three runs and M(2^k) one whatever k, and an add of random operands
    # never takes more stretches than the two operands have runs
    counts = []

    def counting(u, v, table, walk=tree_module._walk):
        out = walk(u, v, table)
        counts.append(out[-1])
        return out

    monkeypatch.setattr(tree_module, "_walk", counting)
    per_k = set()
    for k in range(10, 21):
        f, m = fermat(TREE, t(k)), mersenne(TREE, t(1 << k))
        counts.clear()
        TREE.add(f, m)
        TREE.sub(f, m)
        per_k.add(tuple(counts))
    assert len(per_k) == 1 and max(next(iter(per_k))) <= 3
    rng = random.Random(1801)
    for k in range(8, 12):
        x, y = t(rng.getrandbits(1 << k)), t(rng.getrandbits(1 << k))
        counts.clear()
        TREE.add(x, y)
        assert sum(counts) <= len(x.tail) + 1 + len(y.tail) + 1


def _same_length(rng, digits):
    # a random value of exactly that many digits: 2^d - 1 .. 2^(d+1) - 2
    return (1 << digits) - 1 + rng.getrandbits(digits)


def test_sub_if_fits_agrees_with_generic_step():
    # the one borrow walk against the generic digit pass: on every pair up
    # to 511, where y is often longer than x and the final borrow past two
    # operands of equal length is 0, 1 or 2, and on random pairs of one
    # length, where the borrow past the walk decides alone
    seen = set()  # (x ends, y ends, borrow) past the walk, and y exceeds x
    rng = random.Random(1900)
    small = [t(a) for a in range(512)]
    pairs = [(x, y) for x in small for y in small]
    pairs += [(t(_same_length(rng, d)), t(_same_length(rng, d))) for d in range(1, 400, 3) for _ in range(4)]
    for x, y in pairs:
        got, rest = TREE._sub_if_fits(x, y)
        assert (got, rest) == NatRep._sub_if_fits(TREE, x, y)
        if x is not LEAF and y is not LEAF and len(x.tail) < 3:
            _, rest_x, rest_y, borrow, _ = _walk(x, y, _CARRY[-1])
            seen.add((rest_x is LEAF, rest_y is LEAF, borrow, got is None))
    assert (True, True, 2, True) in seen  # a borrow of 2 past both: y exceeds x
    assert (True, True, 1, False) in seen and (True, True, 1, True) in seen
    assert (True, False, 0, True) in seen  # y is longer than x


def test_innermost_cmp_agrees_with_generic():
    # operands of one digit count go to the innermost runs: random pairs,
    # and pairs that differ only in the innermost or outermost digit
    rng = random.Random(1901)
    pairs = [(_same_length(rng, d), _same_length(rng, d)) for d in range(1, 300, 2) for _ in range(3)]
    for d in range(2, 200, 7):
        base, r = (1 << d) - 1, rng.getrandbits(d)  # bit j of r set: digit j of base + r is i
        pairs += [(base + r, base + r), (base + r, base + (r ^ 1)), (base + r, base + (r ^ 1 << d - 1))]
    for a, b in pairs:
        for u, v in ((t(a), t(b)), (t(b), t(a))):
            assert TREE.cmp(u, v) is NatRep.cmp(TREE, u, v)
            assert TREE.cmp(u, v) is _order(*_walk(u, v, _PAIRS)[:3])


def test_fused_walk_and_innermost_cmp_on_mixed_counters():
    # the operand mix of test_run_walk_on_mixed_counters (table, _plain,
    # word-edge and tower counters) through the one walk of add and
    # _sub_if_fits and through both paths of cmp, by identities; operands
    # whose counters all carry values, reordered, keep their digit count
    rng = random.Random(1902)
    small = [_counter(v) for v in (0, 0, 1, 1, 2, 3, *rng.sample(range(4, 301), 10))]
    small += [_plain(c) for c in small[2:]]
    edge = [t(v) if v >= sys.maxsize else _counter(v) for v in range(sys.maxsize - 3, sys.maxsize + 4)]
    operands = _mixed_operands(rng, 12, [small]) + _mixed_operands(rng, 16, [small, edge + [_tower(k) for k in range(1, 7)]])
    for x in operands[:12]:
        counters = [_canon(c) for c in (x.head, *x.tail)]
        rng.shuffle(counters)
        operands += [type(x)(counters[0], tuple(counters[1:])), TREE.dual(x)]
    flip = {LT: GT, EQ: EQ, GT: LT}
    for x in operands:
        for y in operands:
            assert TREE.sub(TREE.add(x, y), y) == x
            order = TREE.cmp(x, y)
            assert TREE.cmp(y, x) is flip[order]
            assert order is _order(*_walk(x, y, _PAIRS)[:3])
            assert (TREE._sub_if_fits(x, y)[0] is None) == (order is LT)


# ----------------------------------------------------------------------
# split and division
# ----------------------------------------------------------------------


def test_split_agrees_with_generic():
    rng = random.Random(3000)
    pairs = [(k, x) for x in range(3000) for k in range(14)]
    pairs += [(rng.randrange(5001), rng.getrandbits(rng.randrange(1, 5001))) for _ in range(60)]
    for k, x in pairs:
        kt, xt = t(k), t(x)
        assert TREE._drop_digits(kt, xt) == NatRep._drop_digits(TREE, kt, xt)
        assert TREE.split(kt, xt) == NatRep.split(TREE, kt, xt)


@given(st.integers(min_value=0, max_value=1 << 256), st.integers(min_value=1, max_value=1 << 256),
       st.integers(min_value=0, max_value=300))
@settings(max_examples=100, deadline=None)
def test_div_and_split_homomorphism_hypothesis(a, b, k):
    q, r = TREE.div_and_rem(t(a), t(b))
    assert (TREE.to_int(q), TREE.to_int(r)) == divmod(a, b)
    q, r = TREE.split(t(k), t(a))
    assert (TREE.to_int(q), TREE.to_int(r)) == divmod(a, 1 << k)


def test_split_identities_on_giants():
    giants = _giants()
    for x, y in zip(giants, giants[1:] + giants[:1]):
        size = TREE.bitsize(x)
        for k in (*map(t, (0, 1, 2, 7, 1000)), TREE.pred(size), size, TREE.succ(size), y):
            q, r = TREE.split(k, x)
            assert TREE.add(TREE.leftshift(k, q), r) == x
            assert TREE.cmp(r, TREE.exp2(k)) is LT
            assert TREE.div_and_rem(x, TREE.exp2(k)) == (q, r)


def test_long_division_walks_once_per_quotient_bit(monkeypatch):
    # at most one _walk of the operands per quotient bit, plus one more, and
    # fewer where a run of 0 bits is skipped; the walks of counters
    # (bitsize, _gap, leftshift) have few runs and are not counted.  A cmp
    # and then a sub where m fits would walk about 1.5 (k + 1) times.
    rng = random.Random(600)
    a, b = rng.getrandbits(600) | 1 << 599, rng.getrandbits(300) | 1 << 299
    x, y = t(a), t(b)
    k = a.bit_length() - b.bit_length()
    walks = []

    def counting(u, v, table, walk=tree_module._walk):
        if len(u.tail) >= 16 and len(v.tail) >= 16:
            walks.append(1)
        return walk(u, v, table)

    monkeypatch.setattr(tree_module, "_walk", counting)
    q, r = TREE.div_and_rem(x, y)
    assert (TREE.to_int(q), TREE.to_int(r)) == divmod(a, b)
    assert len(walks) <= k + 2


def _trial_steps(monkeypatch, y):
    # the division steps by some 2^j y, y odd, as (x, 2^j y): 2^j y - 1 is
    # j o digits on y - 1, whose outermost digit is i.  The others are on
    # bit lengths, or by x - 1 in the set-up.
    calls, y1 = [], TREE.pred(y)

    def counting(u, v, step=TREE._sub_if_fits):
        if v is not LEAF and TREE.run_trim(True, TREE.pred(v)) == y1:
            calls.append((u, v))
        return step(u, v)

    monkeypatch.setitem(vars(TREE), "_sub_if_fits", counting)
    return calls


def test_perfect45_divided_by_mersenne45(monkeypatch):
    # 2^(p-1) (2^p - 1) by 2^p - 1: one step takes the top bit and leaves
    # 0, the next finds what is left of m and emits the p - 1 zero bits
    x, y = perfect45(), mersenne45()
    steps = _trial_steps(monkeypatch, y)
    start = time.perf_counter()
    q, r = TREE.div_and_rem(x, y)
    assert time.perf_counter() - start < 0.01  # about 0.2 ms here
    assert q == TREE.exp2(t(PRIME45 - 1)) and r is LEAF
    assert len(steps) <= 3


def test_fermat_divided_by_fermat_takes_steps_per_quotient_run(monkeypatch):
    # F(20) / F(10): the quotient sum over j < 1023 of (-1)^j 2^(1024 (1022 - j))
    # is 1023 runs of 1024 bits, and the remainder is 2
    x, y = fermat(TREE, t(20)), fermat(TREE, t(10))
    steps = _trial_steps(monkeypatch, y)
    start = time.perf_counter()
    q, r = TREE.div_and_rem(x, y)
    assert time.perf_counter() - start < 5.0  # about 0.1 s here
    monkeypatch.undo()
    assert TREE.add(TREE.mul(q, y), r) == x and TREE.cmp(r, y) is LT
    assert r == t(2)
    assert len(steps) <= 5 * 1023  # about four a run


def test_mersenne45_divided_by_a_power_of_two():
    # 2^p - 1 = 2^1000 (2^(p-1000) - 1) + 2^1000 - 1
    start = time.perf_counter()
    got = TREE.div_and_rem(mersenne45(), TREE.exp2(t(1000)))
    assert time.perf_counter() - start < 0.1  # about 0.5 ms here
    assert got == (mersenne(TREE, t(PRIME45 - 1000)), mersenne(TREE, t(1000)))


# ----------------------------------------------------------------------
# conversions
# ----------------------------------------------------------------------


def _canonical(runs):
    # digits alternate and every run holds at least one digit
    return all(n >= 1 for _, n in runs) and all(a != b for (a, _), (b, _) in zip(runs, runs[1:]))


def test_from_int_to_int_agree_with_generic():
    # TREE converts through its run pair alone: check that pair against the
    # generic digit walks, and every representation's runs against the
    # canonical runs of k's bit text.  Equal counters of one value are one
    # object, so the run walks and memos compare them by identity.
    rng = random.Random(5000)
    ks = list(range(4097)) + [rng.getrandbits(rng.randrange(1, 5001)) for _ in range(200)]
    for k in ks:
        runs = int_runs(k)
        assert _canonical(runs)
        x = TREE._from_runs(runs)
        assert x == NatRep._from_runs(TREE, runs) and TREE.to_int(x) == k
        counters = () if x is LEAF else (x.head, *x.tail)
        assert len(set(map(id, counters))) == len(set(counters))
        assert TREE._strip_runs(x) == NatRep._strip_runs(TREE, x) == runs
        for rep in (BIJ, BIGNAT):
            assert rep._strip_runs(rep.from_int(k)) == runs


def test_to_int_refuses_a_run_past_the_index_range():
    # the 6-level tower is 2^(2^65536) - 1: one run of 2^65536 o digits;
    # 2^(2^(2^40)) is one i digit, then a run whose counter has 2^40 - 1
    # digits.  Both are refused from the counter's run lengths, never
    # expanded.
    tower = parse_tree("V (V (V (V (V (V T []) []) []) []) []) []")
    for giant in (tower, TREE.exp2(TREE.exp2(t(2**40)))):
        for expand in (TREE.to_int, lambda x: view(x, TREE, BIJ), lambda x: view(x, TREE, BIGNAT)):
            start = time.perf_counter()
            with pytest.raises(DomainError, match="too large"):
                expand(giant)
            assert time.perf_counter() - start < 0.1
    assert TREE.to_int(tower.head) == (1 << 65536) - 1
    # 2^k - 1 is one run of k o digits: sys.maxsize digits still fit a list
    assert TREE._strip_runs(TREE.pred(TREE.exp2(t(sys.maxsize)))) == [(True, sys.maxsize)]
    with pytest.raises(DomainError, match="too large"):
        TREE._strip_runs(TREE.pred(TREE.exp2(t(sys.maxsize + 1))))


def test_compression_witness_for_powers_of_two():
    # exp2 adds only a constant number of nodes to the exponent's tree.
    # The canonical forms force a delta of up to 5 (first at 119 and at
    # 2^16 - 2), so that is the tight constant for this range.
    ks = list(range(0, 16385)) + [10**6 - 1, 10**6, 119, 65534, 98302]
    rng = random.Random(5)
    ks += [rng.randrange(16385, 10**6) for _ in range(2000)]
    for k in ks:
        base = t(k)
        assert node_count(TREE.exp2(base)) <= node_count(base) + 5


# ----------------------------------------------------------------------
# DAG folding
# ----------------------------------------------------------------------


def test_fold_leaf():
    dag = fold_to_dag(LEAF)
    assert len(dag.nodes) == 1
    assert dag.nodes[0] == (0, "T")
    assert dag.root == 0


def test_fold_reference_counts():
    assert len(fold_to_dag(mersenne45()).nodes) == 6
    assert len(fold_to_dag(perfect45()).nodes) == 7


def test_fold_unfold_round_trip():
    rng = random.Random(4242)
    for _ in range(300):
        x = random_tree(rng)
        dag = fold_to_dag(x)
        assert unfold_dag(dag) == x
        assert len(dag.nodes) <= node_count(x)
        assert dag.root == 0


def test_unfold_refuses_malformed_dags():
    dag = fold_to_dag(t(42))
    cases = {
        "unknown tag": Dag(((0, "X"), (1, "T")), ((1,), ()), 0),
        "no node 5": Dag(dag.nodes, (dag.edges[0], (5,), ()), 0),
        "no node 7": Dag(dag.nodes, dag.edges, 7),
        "no node -1": Dag(dag.nodes, dag.edges, -1),
        "cycle": Dag(((0, "V"), (1, "W")), ((1,), (0,)), 0),
        "leaf node with children": Dag(((0, "V"), (1, "T")), ((1,), (1,)), 0),
        "inner node without a head counter": Dag(((0, "W"),), ((),), 0),
    }
    for message, bad in cases.items():
        with pytest.raises(ValueError, match=message):
            unfold_dag(bad)


def test_dot_output_shape():
    text = dag_to_dot(fold_to_dag(t(42)))
    lines = text.strip().splitlines()
    assert lines[0] == "digraph tree {" and lines[-1] == "}"
    assert 'n0 [label="W"]' in lines
    assert 'n1 [label="V"]' in lines
    assert 'n2 [label="T"]' in lines
    assert 'n0 -> n1 [label="0"]' in lines
    assert 'n0 -> n2 [label="3"]' in lines
    assert 'n1 -> n2 [label="0"]' in lines
    # 3 nodes, 5 edges (head + three tail leaves at the top, head leaf below)
    assert len(lines) == 2 + 3 + 5


# ----------------------------------------------------------------------
# text format
# ----------------------------------------------------------------------


def test_print_reference_strings():
    assert print_tree(LEAF) == "T"
    assert print_tree(mersenne45()) == MERSENNE45_TEXT


def test_parse_print_round_trip_on_text():
    for text in ("T", "V T []", "W (V T []) [T,T,T]", MERSENNE45_TEXT):
        assert print_tree(parse_tree(text)) == text


def test_parse_print_round_trip_on_trees():
    rng = random.Random(77)
    for _ in range(300):
        x = random_tree(rng)
        assert parse_tree(print_tree(x)) == x


def test_parse_errors_carry_positions():
    cases = {
        "": 0,
        "X": 0,
        "V": 1,
        "V T": 3,
        "V T [": 5,
        "V T [T": 6,
        "V T [T,]": 7,
        "V  T []": 2,
        "W (V T [] []": 9,
        "T junk": 1,
    }
    for text, pos in cases.items():
        with pytest.raises(ParseError) as err:
            parse_tree(text)
        assert err.value.position == pos, text


def _nested_text(depth, through_head):
    # depth inner nodes, each holding the next one as its head counter or
    # as its only tail counter
    text = "V T []"
    for _ in range(depth - 1):
        text = f"V ({text}) []" if through_head else f"W T [{text}]"
    return text


def test_parse_refuses_deep_nesting():
    for through_head, opener in ((True, "V ("), (False, "W T [")):
        for depth in (MAX_DEPTH + 1, 1200):
            with pytest.raises(ParseError, match="nested deeper than 256") as err:
                parse_tree(_nested_text(depth, through_head))
            # the position is that of the first node past the limit
            assert err.value.position == MAX_DEPTH * len(opener)


def test_deepest_accepted_nesting_parses_prints_folds_and_hashes():
    for through_head in (True, False):
        text = _nested_text(MAX_DEPTH, through_head)
        x = parse_tree(text)
        assert print_tree(x) == text
        dag = fold_to_dag(x)
        assert len(dag.nodes) == MAX_DEPTH + 1
        assert unfold_dag(dag) == x
        assert hash(x) == hash(parse_tree(text))


def test_repr_matches_canonical_text():
    assert repr(t(42)) == "W (V T []) [T,T,T]"
    assert repr(LEAF) == "T"


def test_structural_equality_and_hashing():
    a = parse_tree("W (V T []) [T,T,T]")
    b = t(42)
    assert a == b and hash(a) == hash(b)
    assert a != t(41)
    assert VNode(LEAF, ()) != WNode(LEAF, ())
    assert len({a, b}) == 1
