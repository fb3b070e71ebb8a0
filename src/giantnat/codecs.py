"""Bijections between naturals and lists, multisets and sets of naturals,
bitwise operations borrowed from ordered-set algebra, and a small layer of
isomorphism combinators for moving operations between the views.

The base pairing is f(x, y) = 2^x * (2y + 1), a bijection from pairs onto
the positive naturals.  Lists arise by iterating it; multisets and sets by
prefix sums over lists.  A sparse set therefore encodes as the natural
whose ordinary-binary 1-bits sit exactly at the set's elements, which the
compressed tree representation keeps small.

Every function takes the representation as its first argument and uses
only the :class:`~giantnat.core.NatRep` contract; nothing here tells one
representation from another.  The pairing is written with leftshift and
the run helpers, which trees override with edits of the outermost node.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import islice
from typing import Callable

from .core import DomainError, NatRep, GT, LT

# ----------------------------------------------------------------------
# Pairing bijection
# ----------------------------------------------------------------------


def pair_encode(rep: NatRep, x, y):
    """2^x * (2y + 1), pairing x and y into a positive value."""
    return rep.leftshift(x, rep.o(y))


# An even z = 2^k * (2y + 1) reads, outermost digit first, as one i digit,
# then k - 1 o digits, then the digits of 2y; an odd z is the o digit on y.


def pair_first(rep: NatRep, z):
    """Exponent-of-2 component of a positive value; domain error on zero."""
    if rep.is_e(z):
        raise DomainError("pairing projection of zero")
    if rep.is_o(z):
        return rep.e
    return rep.succ(rep.run_count(True, rep.i_inv(z)))


def pair_rest(rep: NatRep, z):
    """Odd-part component of a positive value; domain error on zero."""
    if rep.is_e(z):
        raise DomainError("pairing projection of zero")
    if rep.is_o(z):
        return rep.o_inv(z)
    doubled = rep.run_trim(True, rep.i_inv(z))
    return rep.e if rep.is_e(doubled) else rep.hf(doubled)


# ----------------------------------------------------------------------
# Lists, multisets, sets
# ----------------------------------------------------------------------


def to_list(rep: NatRep, x) -> list:
    """Peel pair components until zero; bijection from naturals to lists."""
    out = []
    is_e = rep.is_e
    while not is_e(x):
        out.append(pair_first(rep, x))
        x = pair_rest(rep, x)
    return out


def from_list(rep: NatRep, xs: list):
    """Inverse of :func:`to_list`; the empty list encodes zero."""
    acc = rep.e
    for v in reversed(xs):
        acc = pair_encode(rep, v, acc)
    return acc


def _list_to_mset(rep: NatRep, ns: list) -> list:
    out = []
    acc = rep.e
    for v in ns:
        acc = rep.add(acc, v)
        out.append(acc)
    return out


def _mset_to_list(rep: NatRep, ms: list) -> list:
    out = []
    prev = rep.e
    for v in ms:
        out.append(rep.sub(v, prev))
        prev = v
    return out


def _list_to_set(rep: NatRep, ns: list) -> list:
    return [rep.pred(v) for v in _list_to_mset(rep, [rep.succ(v) for v in ns])]


def _set_to_list(rep: NatRep, xs: list) -> list:
    return [rep.pred(v) for v in _mset_to_list(rep, [rep.succ(v) for v in xs])]


def to_mset(rep: NatRep, x) -> list:
    """Non-decreasing multiset view: prefix sums of the list view."""
    return _list_to_mset(rep, to_list(rep, x))


def from_mset(rep: NatRep, ms: list):
    """Inverse of :func:`to_mset`; input must be non-decreasing."""
    cmp = rep.cmp
    for a, b in zip(ms, ms[1:]):
        if cmp(a, b) is GT:
            raise DomainError("multiset elements must be non-decreasing")
    return from_list(rep, _mset_to_list(rep, ms))


def to_set(rep: NatRep, x) -> list:
    """Strictly ascending set view: the 1-bit positions of x in ordinary binary."""
    return _list_to_set(rep, to_list(rep, x))


def from_set(rep: NatRep, xs: list):
    """Inverse of :func:`to_set`; input must be strictly ascending."""
    cmp = rep.cmp
    for a, b in zip(xs, xs[1:]):
        if cmp(a, b) is not LT:
            raise DomainError("set elements must be strictly ascending")
    return from_list(rep, _set_to_list(rep, xs))


# ----------------------------------------------------------------------
# Ordered-set algebra on strictly ascending sequences (linear merges)
# ----------------------------------------------------------------------


def _merge(rep: NatRep, xs: list, ys: list, keep_x: bool, keep_both: bool, keep_y: bool) -> list:
    # Keep the elements found only in xs, in both, or only in ys, as flagged.
    cmp = rep.cmp
    out = []
    a, b = 0, 0
    while a < len(xs) and b < len(ys):
        r = cmp(xs[a], ys[b])
        if r is LT:
            if keep_x:
                out.append(xs[a])
            a += 1
        elif r is GT:
            if keep_y:
                out.append(ys[b])
            b += 1
        else:
            if keep_both:
                out.append(xs[a])
            a += 1
            b += 1
    if keep_x:
        out.extend(xs[a:])
    if keep_y:
        out.extend(ys[b:])
    return out


def set_union(rep: NatRep, xs: list, ys: list) -> list:
    return _merge(rep, xs, ys, keep_x=True, keep_both=True, keep_y=True)


def set_intersection(rep: NatRep, xs: list, ys: list) -> list:
    return _merge(rep, xs, ys, keep_x=False, keep_both=True, keep_y=False)


def set_difference(rep: NatRep, xs: list, ys: list) -> list:
    return _merge(rep, xs, ys, keep_x=True, keep_both=False, keep_y=False)


def set_symdiff(rep: NatRep, xs: list, ys: list) -> list:
    return _merge(rep, xs, ys, keep_x=True, keep_both=False, keep_y=True)


# ----------------------------------------------------------------------
# Bitwise operations via the set view
# ----------------------------------------------------------------------


def l_op(rep: NatRep, op: Callable, x, y):
    """Transport a binary ordered-set operation onto naturals."""
    return from_set(rep, op(rep, to_set(rep, x), to_set(rep, y)))


def l_and(rep: NatRep, x, y):
    return l_op(rep, set_intersection, x, y)


def l_or(rep: NatRep, x, y):
    return l_op(rep, set_union, x, y)


def l_xor(rep: NatRep, x, y):
    return l_op(rep, set_symdiff, x, y)


def l_dif(rep: NatRep, x, y):
    return l_op(rep, set_difference, x, y)


def l_ite(rep: NatRep, x, y, z):
    """Bitwise multiplexer: per bit, choose y's bit where x has a 1, else z's."""
    cond = to_set(rep, x)
    a = to_set(rep, y)
    b = to_set(rep, z)
    changed = set_intersection(rep, set_symdiff(rep, a, b), cond)
    return from_set(rep, set_symdiff(rep, changed, b))


def l_not(rep: NatRep, bitlen: int, x):
    """Complement of x against the first ``bitlen`` bit positions.

    Requires every 1-bit of x to lie below ``bitlen`` (a wider operand has
    no complement in that window).
    """
    xs = to_set(rep, x)
    universe = list(islice(rep.all_from(rep.e), bitlen))
    if xs and (bitlen == 0 or rep.cmp(xs[-1], universe[-1]) is GT):
        raise DomainError("operand has bits at or above the requested bit length")
    return from_set(rep, set_difference(rep, universe, xs))


# ----------------------------------------------------------------------
# Isomorphism combinators
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class Iso:
    """A pair of mutually inverse maps between a view and the naturals."""

    forward: Callable  # view -> natural
    backward: Callable  # natural -> view


def nat_iso(rep: NatRep) -> Iso:
    return Iso(lambda x: x, lambda x: x)


def list_iso(rep: NatRep) -> Iso:
    return Iso(lambda xs: from_list(rep, xs), lambda x: to_list(rep, x))


def mset_iso(rep: NatRep) -> Iso:
    return Iso(lambda xs: from_mset(rep, xs), lambda x: to_mset(rep, x))


def set_iso(rep: NatRep) -> Iso:
    return Iso(lambda xs: from_set(rep, xs), lambda x: to_set(rep, x))


def as_(target: Iso, source: Iso, x):
    """Re-view x: encode through ``source``, decode through ``target``."""
    return target.backward(source.forward(x))


def lend1(op: Callable, iso: Iso, x):
    """Run a one-argument natural operation on a view value."""
    return iso.backward(op(iso.forward(x)))


def lend2(op: Callable, iso: Iso, x, y):
    """Run a two-argument natural operation on view values."""
    return iso.backward(op(iso.forward(x), iso.forward(y)))
