"""Bijections between naturals and lists, multisets and sets of naturals,
ordered-set algebra and the bitwise operations that match it, and a small
layer of isomorphism combinators for moving operations between the views.

The base pairing is f(x, y) = 2^x * (2y + 1), a bijection from pairs onto
the positive naturals.  Lists arise by iterating it; multisets and sets by
prefix sums over lists.  A sparse set therefore encodes as the natural
whose ordinary-binary 1-bits sit exactly at the set's elements, which the
compressed tree representation keeps small.  The set operations on those
naturals are bitwise operations, which ``NatRep.bitwise`` defines on
Python ints and trees compute a run of bits at a time; the set view is
never built for them, and ``l_op`` transports any other set operation
through it.

Every function takes the representation as its first argument and uses
only the :class:`~giantnat.core.NatRep` contract; nothing here tells one
representation from another.  The pairing is written with leftshift and
the run helpers, which trees override with edits of the outermost node.
"""

from __future__ import annotations

from dataclasses import dataclass
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


def list_length(rep: NatRep, x):
    """Entry count of the list, multiset and set views of x, without
    decoding them: the 1 bits of x in ordinary binary, which are one more
    than the i digits of x - 1, counted a run at a time."""
    if rep.is_e(x):
        return rep.e
    n, z = rep.o(rep.e), rep.pred(x)
    while not rep.is_e(z):
        n = rep.add(n, rep.run_count(False, z))
        z = rep.run_trim(True, rep.run_trim(False, z))
    return n


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
# Bitwise operations through NatRep.bitwise; each
# equals l_op with the matching set merge, without building the set views
# ----------------------------------------------------------------------


def l_op(rep: NatRep, op: Callable, x, y):
    """Transport a binary ordered-set operation onto naturals."""
    return from_set(rep, op(rep, to_set(rep, x), to_set(rep, y)))


def l_and(rep: NatRep, x, y):
    """Bitwise and: the intersection of the set views."""
    return rep.bitwise((0, 0, 0, 1), x, y)


def l_or(rep: NatRep, x, y):
    """Bitwise or: the union of the set views."""
    return rep.bitwise((0, 1, 1, 1), x, y)


def l_xor(rep: NatRep, x, y):
    """Bitwise exclusive or: the symmetric difference of the set views."""
    return rep.bitwise((0, 1, 1, 0), x, y)


def l_dif(rep: NatRep, x, y):
    """x and not y: the difference of the set views."""
    return rep.bitwise((0, 0, 1, 0), x, y)


def l_ite(rep: NatRep, x, y, z):
    """Bitwise multiplexer: per bit, choose y's bit where x has a 1, else z's."""
    return l_xor(rep, z, l_and(rep, x, l_xor(rep, y, z)))


def l_not(rep: NatRep, bitlen: int, x):
    """Complement of x against the first ``bitlen`` bit positions.

    Requires every 1-bit of x to lie below ``bitlen`` (a wider operand has
    no complement in that window).
    """
    if bitlen < 0:
        raise DomainError(f"negative bit length {bitlen}")
    ones = rep.from_int((1 << bitlen) - 1)
    if rep.cmp(x, ones) is GT:
        raise DomainError("operand has bits at or above the requested bit length")
    return l_xor(rep, x, ones)


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
