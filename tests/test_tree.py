"""Compressed-tree representation: primitives, fast overrides, DAG, text."""

import random
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from giantnat import BIJ, DomainError, EQ, GT, LEAF, LT, NatRep, ParseError, TREE, VNode, WNode, view
from giantnat.bignat import oracle_bitsize
from helpers import value_if_feasible
from giantnat.numtheory import mersenne45, perfect45
from giantnat.tree import (
    MAX_DEPTH,
    dag_to_dot,
    fold_to_dag,
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


def test_exp2_fast_agrees_with_generic():
    for k in range(2049):
        assert TREE.exp2(t(k)) == NatRep.exp2(TREE, t(k))


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


def test_leftshift_fast_agrees_with_generic():
    for k in range(40):
        for y in range(0, 65, 3):
            assert TREE.leftshift(t(k), t(y)) == NatRep.leftshift(TREE, t(k), t(y))


def test_leftshift_fast_on_giant_arguments():
    big = t(43112609)
    shifted = TREE.leftshift(big, big)
    expect_bits = 43112609 + oracle_bitsize(43112609)
    assert TREE.to_int(TREE.bitsize(shifted)) == expect_bits


def test_bitsize_fast_agrees_with_generic():
    assert TREE.bitsize(LEAF) == LEAF
    assert TREE.to_int(TREE.bitsize(t(42))) == 5
    for k in range(2049):
        assert TREE.bitsize(t(k)) == NatRep.bitsize(TREE, t(k))


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
    for _ in range(200):
        x = random_tree(rng)
        assert TREE.to_int(TREE.repsize(x)) == count_inner(x)
        assert node_count(x) >= count_inner(x)


def test_cons_decons_fast_reference_values():
    assert TREE.cons(LEAF, LEAF) == VNode(LEAF, ())
    assert TREE.decons(t(14)) == (t(5), LEAF)
    with pytest.raises(DomainError):
        TREE.decons(LEAF)


# ----------------------------------------------------------------------
# succ / pred over whole runs
# ----------------------------------------------------------------------


def test_succ_pred_agree_with_generic():
    for k in range(4097):
        x = t(k)
        assert TREE.succ(x) == NatRep.succ(TREE, x)
        if k:
            assert TREE.pred(x) == NatRep.pred(TREE, x)


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
    for x in _giants():
        assert TREE.pred(TREE.succ(x)) == x
        assert TREE.succ(TREE.pred(x)) == x


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
    x, y = t(a), t(b)
    assert TREE.cmp(x, y) is NatRep.cmp(TREE, x, y)
    assert TREE.add(x, y) == NatRep.add(TREE, x, y)
    if mul:
        assert TREE.mul(x, y) == NatRep.mul(TREE, x, y)
    if a >= b:
        assert TREE.sub(x, y) == NatRep.sub(TREE, x, y)
    else:
        with pytest.raises(DomainError, match="subtraction underflow"):
            TREE.sub(x, y)


def test_arith_agrees_with_generic():
    for a in range(257):
        for b in range(257):
            _check_arith_against_generic(a, b)


def test_arith_agrees_with_generic_on_random_operands():
    # the generic mul walks the digits of its first operand, each step an
    # add over the product so far: its multiplier is kept small here
    rng = random.Random(1200)
    for _ in range(40):
        a, b = (rng.getrandbits(rng.randrange(1, 1201)) for _ in range(2))
        for p, q in ((a, b), (a + b, a), (a, a + b + 1)):  # (a + b, a): one length
            _check_arith_against_generic(p, q, mul=False)
        small = t(rng.getrandbits(rng.randrange(1, 33)))
        product = NatRep.mul(TREE, small, t(a))
        assert TREE.mul(small, t(a)) == TREE.mul(t(a), small) == product


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


def test_mersenne45_squared():
    # (2^p - 1)^2 = 2^(p+1) (2^(p-1) - 1) + 1
    m = mersenne45()
    p = TREE.bitsize(m)
    want = TREE.succ(TREE.leftshift(TREE.succ(p), TREE.pred(TREE.exp2(TREE.pred(p)))))
    assert TREE.mul(m, m) == want
    assert TREE.to_int(TREE.bitsize(want)) == 2 * 43112609 - 1


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


# ----------------------------------------------------------------------
# conversions
# ----------------------------------------------------------------------


def test_from_int_to_int_agree_with_generic():
    rng = random.Random(5000)
    ks = list(range(4097)) + [rng.getrandbits(rng.randrange(1, 5001)) for _ in range(200)]
    for k in ks:
        x = TREE.from_int(k)
        assert x == NatRep.from_int(TREE, k)
        assert TREE.to_int(x) == NatRep.to_int(TREE, x) == k


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
