"""Collection codecs, bitwise algebra, iso combinators."""

import random
import time

import pytest

from helpers import value_if_feasible
from giantnat import BIGNAT, BIJ, LEAF, TREE, DomainError, WNode
from giantnat.codecs import (
    Iso,
    as_,
    from_list,
    from_mset,
    from_set,
    l_and,
    l_dif,
    l_ite,
    l_not,
    l_op,
    l_or,
    l_xor,
    lend1,
    lend2,
    list_iso,
    list_length,
    mset_iso,
    nat_iso,
    pair_encode,
    pair_first,
    pair_rest,
    set_difference,
    set_intersection,
    set_iso,
    set_symdiff,
    set_union,
    to_list,
    to_mset,
    to_set,
)
from giantnat.numtheory import PRIME45, fermat, mersenne, mersenne45, perfect45
from giantnat.tree import node_count, print_tree, random_tree


def ints(rep, xs):
    return [rep.to_int(v) for v in xs]


def vals(rep, ks):
    return [rep.from_int(k) for k in ks]


# ----------------------------------------------------------------------
# pairing
# ----------------------------------------------------------------------


def _oracle_pair(x, y):
    return (2**x) * (2 * y + 1)


def test_pair_encode_reference_values(rep):
    f, g = rep.from_int, rep.to_int
    assert g(pair_encode(rep, rep.e, rep.e)) == 1
    assert g(pair_encode(rep, f(1), f(10))) == 42
    assert g(pair_first(rep, f(42))) == 1
    assert g(pair_rest(rep, f(42))) == 10
    assert g(pair_encode(rep, f(3), f(5))) == 88


def test_pair_round_trip_against_oracle(rep):
    f, g = rep.from_int, rep.to_int
    for x in range(24):
        for y in range(24):
            z = pair_encode(rep, f(x), f(y))
            assert g(z) == _oracle_pair(x, y)
            assert g(pair_first(rep, z)) == x
            assert g(pair_rest(rep, z)) == y


def _generic_pair_encode(rep, x, y):
    return rep.mul(rep.exp2(x), rep.o(y))


def _generic_pair_first(rep, z):
    k = rep.e
    while not rep.is_o(z):
        z = rep.hf(z)
        k = rep.succ(k)
    return k


def _generic_pair_rest(rep, z):
    while not rep.is_o(z):
        z = rep.hf(z)
    return rep.o_inv(z)


def test_tree_pairing_agrees_with_generic_path():
    for z in range(1, 513):
        tz = TREE.from_int(z)
        assert pair_first(TREE, tz) == _generic_pair_first(TREE, tz)
        assert pair_rest(TREE, tz) == _generic_pair_rest(TREE, tz)
    for x in range(23):
        for y in range(23):
            tx, ty = TREE.from_int(x), TREE.from_int(y)
            got = pair_encode(TREE, tx, ty)
            assert got == _generic_pair_encode(TREE, tx, ty)
            assert TREE.to_int(got) == _oracle_pair(x, y)


def _even_giants(rng, count):
    # Even trees too large to expand: depth-two counters under a W node
    # whose head is nonzero.
    out = [TREE.dual(mersenne45())]  # 2^(PRIME45+1) - 2
    while len(out) < count:
        head = random_tree(rng, 2)
        x = WNode(head, tuple(random_tree(rng, 2) for _ in range(rng.randrange(1, 4))))
        if head != LEAF and value_if_feasible(x) is None:
            out.append(x)
    return out


def test_tree_pairing_identities_on_giants():
    rng = random.Random(45)
    ks = _even_giants(rng, 10)
    ys = [LEAF, perfect45(), *_even_giants(rng, 10)]
    for k in ks:
        for y in ys:
            z = TREE.leftshift(k, TREE.o(y))
            assert pair_first(TREE, z) == k
            assert pair_rest(TREE, z) == y
            assert pair_encode(TREE, pair_first(TREE, z), pair_rest(TREE, z)) == z
    for y in ys:
        z = TREE.o(y)
        assert pair_first(TREE, z) == LEAF
        assert pair_encode(TREE, pair_first(TREE, z), pair_rest(TREE, z)) == z
    assert pair_first(TREE, perfect45()) == TREE.from_int(PRIME45 - 1)


def test_tree_pair_rest_of_perfect45():
    # twice the odd-part component, 2^PRIME45 - 2, is one run of i digits,
    # which hf's succ turns into a run of o digits in one step
    assert pair_rest(TREE, perfect45()) == mersenne(TREE, TREE.from_int(PRIME45 - 1))


def test_pair_projections_of_zero_raise(rep):
    with pytest.raises(DomainError):
        pair_first(rep, rep.e)
    with pytest.raises(DomainError):
        pair_rest(rep, rep.e)


# ----------------------------------------------------------------------
# lists, multisets, sets
# ----------------------------------------------------------------------


def test_to_list_reference_values(rep):
    f = rep.from_int
    assert to_list(rep, rep.e) == []
    assert ints(rep, to_list(rep, f(42))) == [1, 1, 1]
    assert rep.to_int(from_list(rep, vals(rep, [1, 1, 1]))) == 42


def test_list_round_trip(rep):
    for k in range(2049):
        x = rep.from_int(k)
        assert from_list(rep, to_list(rep, x)) == x


def test_list_length_counts_entries(rep):
    for k in range(2000):
        x = rep.from_int(k)
        n = rep.to_int(list_length(rep, x))
        assert n == len(to_list(rep, x)) == len(to_set(rep, x)) == bin(k).count("1")


def test_list_length_of_perfect45():
    # 2^(p-1) (2^p - 1) has p one bits; its list is never built
    assert TREE.to_int(list_length(TREE, perfect45())) == PRIME45


def test_mset_reference_values(rep):
    f = rep.from_int
    assert ints(rep, to_mset(rep, f(42))) == [1, 2, 3]
    assert rep.to_int(from_mset(rep, vals(rep, [1, 2, 3]))) == 42


def test_set_reference_values(rep):
    f = rep.from_int
    assert ints(rep, to_set(rep, f(1234))) == [1, 4, 6, 7, 10]
    assert rep.to_int(from_set(rep, vals(rep, [1, 4, 6, 7, 10]))) == 1234


def test_set_view_is_binary_bit_positions(rep):
    for k in range(1, 1024):
        positions = ints(rep, to_set(rep, rep.from_int(k)))
        assert positions == [b for b in range(k.bit_length()) if k >> b & 1]
        assert positions == sorted(set(positions))


def test_set_mset_round_trips(rep):
    for k in range(1024):
        x = rep.from_int(k)
        assert from_set(rep, to_set(rep, x)) == x
        assert from_mset(rep, to_mset(rep, x)) == x


def test_sparse_set_tree_form():
    elements = vals(TREE, [1, 100, 123, 234])
    packed = from_set(TREE, elements)
    assert print_tree(packed) == (
        "W (V T []) [V T [T,W T [],T],T,V T [V T [],T],T,V T [W T [],T,T]]"
    )
    assert TREE.to_int(packed) == sum(2**k for k in [1, 100, 123, 234])


def test_from_set_requires_strict_ascent(rep):
    with pytest.raises(DomainError):
        from_set(rep, vals(rep, [1, 1]))
    with pytest.raises(DomainError):
        from_set(rep, vals(rep, [2, 1]))
    assert rep.to_int(from_set(rep, [])) == 0


def test_from_mset_requires_non_decrease(rep):
    assert rep.to_int(from_mset(rep, vals(rep, [1, 1]))) == _oracle_pair(1, _oracle_pair(0, 0))
    with pytest.raises(DomainError):
        from_mset(rep, vals(rep, [2, 1]))


def test_dual_of_near_full_set_is_sparse():
    dense = vals(BIGNAT, [1, 3, 5] + list(range(6, 221)))
    packed = from_set(BIGNAT, dense)
    assert packed == 3369993333393829974333376885877453834204643052817571560137951281130
    flipped = BIGNAT.dual(packed)
    assert ints(BIGNAT, to_set(BIGNAT, flipped)) == [0, 1, 4, 220]

    tree = TREE.from_int(packed)
    assert print_tree(tree) == "W (V T []) [T,T,T,W (W T []) [T,T,T,T]]"
    dual_tree = TREE.dual(tree)
    assert print_tree(dual_tree) == "V (V T []) [T,T,T,W (W T []) [T,T,T,T]]"
    assert node_count(dual_tree) == node_count(tree)
    assert ints(TREE, to_set(TREE, dual_tree)) == [0, 1, 4, 220]


# ----------------------------------------------------------------------
# ordered-set algebra and bitwise operations
# ----------------------------------------------------------------------


def test_set_algebra_small():
    a = vals(BIGNAT, [0, 2, 3, 7])
    b = vals(BIGNAT, [1, 2, 7, 9])
    assert ints(BIGNAT, set_union(BIGNAT, a, b)) == [0, 1, 2, 3, 7, 9]
    assert ints(BIGNAT, set_intersection(BIGNAT, a, b)) == [2, 7]
    assert ints(BIGNAT, set_difference(BIGNAT, a, b)) == [0, 3]
    assert ints(BIGNAT, set_symdiff(BIGNAT, a, b)) == [0, 1, 3, 9]


def test_bitwise_reference_values(rep):
    f, g = rep.from_int, rep.to_int
    assert g(l_and(rep, f(12), f(10))) == 8
    assert g(l_or(rep, f(5), f(2))) == 7
    assert g(l_xor(rep, f(9), f(9))) == 0
    assert g(l_dif(rep, f(13), f(5))) == 8
    assert g(l_not(rep, 4, f(5))) == 10


def test_bitwise_against_native_small(rep):
    f, g = rep.from_int, rep.to_int
    for x in range(64):
        vx = f(x)
        for y in range(64):
            vy = f(y)
            assert g(l_and(rep, vx, vy)) == x & y
            assert g(l_or(rep, vx, vy)) == x | y
            assert g(l_xor(rep, vx, vy)) == x ^ y
            assert g(l_dif(rep, vx, vy)) == x & ~y


def test_l_ite_muxes_bits(rep):
    f, g = rep.from_int, rep.to_int
    for c in range(16):
        for a in range(16):
            for b in range(16):
                got = g(l_ite(rep, f(c), f(a), f(b)))
                assert got == (c & a) | (~c & b)
    x, y = f(9), f(5)
    assert l_ite(rep, x, y, y) == y


def test_l_not_window(rep):
    f, g = rep.from_int, rep.to_int
    for width in range(9):
        for x in range(2**width):
            assert g(l_not(rep, width, f(x))) == (2**width - 1) ^ x


def test_l_not_rejects_wide_operands(rep):
    with pytest.raises(DomainError):
        l_not(rep, 3, rep.from_int(8))
    with pytest.raises(DomainError):
        l_not(rep, 0, rep.from_int(1))
    assert rep.to_int(l_not(rep, 0, rep.e)) == 0


def test_bitwise_equals_set_view_on_sparse_giants():
    # 2^(2^20) + 1, {2^70, 2^80} and {3, 2^80}: the set views are short, the
    # runs of bits between their elements too long for any list
    giants = [fermat(TREE, TREE.from_int(20))]
    giants += [from_set(TREE, vals(TREE, ks)) for ks in ((2**70, 2**80), (3, 2**80))]
    ops = ((l_and, set_intersection), (l_or, set_union), (l_xor, set_symdiff), (l_dif, set_difference))
    for x in giants:
        for y in giants:
            for op, merge in ops:
                assert op(TREE, x, y) == l_op(TREE, merge, x, y)


@pytest.mark.parametrize("rep_", [BIGNAT, BIJ], ids=["bignat", "bij"])
def test_l_and_over_a_long_run_is_linear(rep_):
    # 2^100000 - 1 has 100000 elements in its set view, but one run of bits
    ones = rep_.from_int((1 << 100000) - 1)
    k = random.Random(100000).getrandbits(100000)
    x = rep_.from_int(k)
    start = time.perf_counter()
    got = l_and(rep_, ones, x)
    assert time.perf_counter() - start < 1.0
    assert got == x


def test_l_op_transports_custom_operations():
    doubled = l_op(BIGNAT, lambda r, xs, ys: set_union(r, xs, ys), 5, 2)
    assert BIGNAT.to_int(doubled) == 7


# ----------------------------------------------------------------------
# iso combinators
# ----------------------------------------------------------------------


def test_as_reference_values():
    assert as_(set_iso(BIGNAT), nat_iso(BIGNAT), 1234) == [1, 4, 6, 7, 10]
    assert as_(nat_iso(BIGNAT), set_iso(BIGNAT), [1, 4, 6, 7, 10]) == 1234
    assert as_(mset_iso(BIGNAT), list_iso(BIGNAT), [1, 1, 1]) == [1, 2, 3]


def test_as_round_trips(rep):
    isos = (nat_iso(rep), list_iso(rep), mset_iso(rep), set_iso(rep))
    for k in (0, 1, 42, 255, 1234):
        x = rep.from_int(k)
        for iso in isos:
            assert as_(nat_iso(rep), iso, as_(iso, nat_iso(rep), x)) == x


def test_lend_reference_values():
    assert lend1(BIGNAT.succ, set_iso(BIGNAT), [0, 2, 3]) == [1, 2, 3]
    assert lend2(BIGNAT.add, set_iso(BIGNAT), [0, 2, 3], [4, 5]) == [0, 2, 3, 4, 5]


def test_lend_on_trees():
    iso = set_iso(TREE)
    got = lend2(TREE.add, iso, vals(TREE, [0, 2, 3]), vals(TREE, [4, 5]))
    assert ints(TREE, got) == [0, 2, 3, 4, 5]


def test_iso_is_a_plain_pair():
    iso = Iso(lambda xs: xs[0], lambda x: [x])
    assert lend1(lambda v: v + 1, iso, [41]) == [42]
