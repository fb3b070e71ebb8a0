"""Run-length compressed trees of natural numbers.

A value is a leaf (zero) or a node carrying a head counter and a list of
further counters, every counter itself a tree.  Reading the bijective
base-2 digit string of the value from the outermost digit inward, a V node
describes runs alternating o,i,o,... and a W node runs alternating
i,o,i,...; run j has length counter_j + 1.  The encoding is applied
recursively to the counters, so numbers whose digit strings consist of a
few huge runs -- for instance 2^p - 1 -- stay tiny.

Digit primitives touch only the outermost node plus one succ/pred on a
counter.  :class:`TreeNatRep` overrides several derived operations with
node-level edits: bitsize sums the outermost node's run counters, dual
flips its tag and repsize counts nodes.  The run helpers (run_count,
run_trim, run_times) are overridden too: a run is one counter of the
outermost node, so each reads or edits that node, and the generic mul,
cons/decons, pairing codec and leftshift built on them get the speed
without knowing about trees: leftshift (exp2 is leftshift of one) lays one
o run under a single succ, by the paper's identity a4.  succ and pred are
single node edits, one case per shape of the outermost node as in the
paper: either the outermost digit turns into the other one, or the whole
outermost run does and the digit under it turns.  Each builds one new node
with at most one succ or pred on a counter, so their cost follows the
depth of the tree rather than the length of a run.
cmp, add and the subtraction step ``_sub_if_fits`` read both operands a
common stretch of runs at a time: add and subtraction run a bijective
base-2 carry (or borrow) automaton that settles within two digits of a
stretch, and cmp lets the operand that ends first, or else the innermost
differing stretch, decide.  ``_sub_if_fits`` gives the order and, where y
fits, the difference from one walk.  The generic sub, long division and
run-fold mul are built on these three and the run helpers, so they too go
a run at a time.  A conversion reads or writes one counter per run.
split drops its k digits as the common stretches of x and the all-o value
2^k - 1, a whole run at a time, so dividing by a power of two follows the
run count and the depth, however long the runs.  bitwise merges the common
stretches of x - 1 and y - 1, whose digits are the bits of x and y below
their top 1 bits, and keeps or drops the rest of the longer operand whole,
so sparse sets with elements past ``sys.maxsize``, whose runs no list
holds, combine at node level.  Counters that fit a word come from one
table, one object per value, and carry their value: the counter steps on
them (succ, pred, add, and in the run walks the order and distance of two
counters and the merge of two runs) are int steps.  The run walks memoize
the recursive steps of other counters (towers, counters past a word), so
on operands of many short runs the cost follows the distinct counters
rather than the stretches (see :func:`memo_stats`).
"""

from __future__ import annotations

import sys
from dataclasses import dataclass
from functools import lru_cache
from random import Random

from .core import EQ, GT, LT, DomainError, NatRep, Ordering, ParseError, int_runs, runs_int

# A counter of d digits is at least 2^d - 1; its run, counter + 1 digits,
# is sure to fit an index (sys.maxsize) only while d is at most this.
_MAX_RUN_DIGITS = sys.maxsize.bit_length() - 1


class Tree:
    """Base class of tree values; see :data:`LEAF`, :class:`VNode`, :class:`WNode`."""

    __slots__ = ()

    def __repr__(self) -> str:
        return print_tree(self)


class _Leaf(Tree):
    __slots__ = ()
    _value = 0  # zero is the table's first counter (see _counter)


LEAF = _Leaf()


class VNode(Tree):
    """Odd values: outermost run is made of o digits."""

    __slots__ = ("head", "tail", "_hash", "_value")

    def __init__(self, head: Tree, tail: tuple[Tree, ...]):
        self.head = head
        self.tail = tail
        self._hash = None
        self._value = None

    def __eq__(self, other: object) -> bool:
        if self is other:
            return True
        if type(other) is not VNode:
            return NotImplemented if not isinstance(other, Tree) else False
        return self.head == other.head and self.tail == other.tail

    def __hash__(self) -> int:
        h = self._hash
        if h is None:
            h = hash((False, self.head, self.tail))
            self._hash = h
        return h


class WNode(Tree):
    """Even positive values: outermost run is made of i digits."""

    __slots__ = ("head", "tail", "_hash", "_value")

    def __init__(self, head: Tree, tail: tuple[Tree, ...]):
        self.head = head
        self.tail = tail
        self._hash = None
        self._value = None

    def __eq__(self, other: object) -> bool:
        if self is other:
            return True
        if type(other) is not WNode:
            return NotImplemented if not isinstance(other, Tree) else False
        return self.head == other.head and self.tail == other.tail

    def __hash__(self) -> int:
        h = self._hash
        if h is None:
            h = hash((True, self.head, self.tail))
            self._hash = h
        return h


class TreeNatRep(NatRep):
    """Digit primitives on trees, with the fast derived-operation overrides."""

    e = LEAF

    @staticmethod
    def o(x: Tree) -> Tree:
        t = type(x)
        if t is VNode:
            return VNode(_SUCC(x.head), x.tail)
        if t is WNode:
            return VNode(LEAF, (x.head, *x.tail))
        return VNode(LEAF, ())

    @staticmethod
    def i(x: Tree) -> Tree:
        t = type(x)
        if t is WNode:
            return WNode(_SUCC(x.head), x.tail)
        if t is VNode:
            return WNode(LEAF, (x.head, *x.tail))
        return WNode(LEAF, ())

    @staticmethod
    def o_inv(x: Tree) -> Tree:
        if type(x) is not VNode:
            raise DomainError("o_inv needs an odd value")
        head = x.head
        if head is LEAF:
            if x.tail:
                return WNode(x.tail[0], x.tail[1:])
            return LEAF
        return VNode(_PRED(head), x.tail)

    @staticmethod
    def i_inv(x: Tree) -> Tree:
        if type(x) is not WNode:
            raise DomainError("i_inv needs an even positive value")
        head = x.head
        if head is LEAF:
            if x.tail:
                return VNode(x.tail[0], x.tail[1:])
            return LEAF
        return WNode(_PRED(head), x.tail)

    @staticmethod
    def is_o(x: Tree) -> bool:
        return type(x) is VNode

    @staticmethod
    def is_e(x: Tree) -> bool:
        return x is LEAF

    @staticmethod
    def is_i(x: Tree) -> bool:
        return type(x) is WNode

    # fast overrides; semantics identical to the generic definitions, which
    # stay their oracle.  succ and pred build one node each, one case per
    # shape of the outermost node, with at most one succ or pred on a counter.

    def succ(self, x: Tree) -> Tree:
        t = type(x)
        if t is VNode:  # the outermost o digit becomes an i digit
            return _flip(WNode, x.head, x.tail)
        if t is WNode:  # an i run over r becomes an o run as long over r + 1
            if x.tail:
                return _flip_under(VNode, x.head, x.tail)
            return VNode(_SUCC(x.head), ())
        return VNode(LEAF, ())

    def pred(self, x: Tree) -> Tree:
        t = type(x)
        if t is WNode:  # the outermost i digit becomes an o digit
            return _flip(VNode, x.head, x.tail)
        if t is VNode:  # an o run over r becomes an i run as long over r - 1
            if x.tail:
                return _flip_under(WNode, x.head, x.tail)
            # o^k(0) - 1 is i^(k-1)(0)
            return WNode(_PRED(x.head), ()) if x.head is not LEAF else LEAF
        raise DomainError("predecessor of zero")

    def bitsize(self, x: Tree) -> Tree:
        # sum the run lengths read off the outermost node's counters
        if x is LEAF:
            return LEAF
        acc = x.head
        for counter in reversed(x.tail):
            acc = _SUCC(_ADD(counter, acc))
        return _SUCC(acc)

    def dual(self, x: Tree) -> Tree:
        # swapping every digit swaps every run: flip only the top tag
        t = type(x)
        if t is VNode:
            return WNode(x.head, x.tail)
        if t is WNode:
            return VNode(x.head, x.tail)
        return LEAF

    def repsize(self, x: Tree) -> Tree:
        # count of non-leaf nodes
        if x is LEAF:
            return LEAF
        acc: Tree = LEAF
        for child in reversed((x.head, *x.tail)):
            acc = _ADD(self.repsize(child), acc)
        return _SUCC(acc)

    def run_count(self, o_digit: bool, x: Tree) -> Tree:
        if type(x) is (VNode if o_digit else WNode):
            return _SUCC(x.head)
        return LEAF

    def run_trim(self, o_digit: bool, x: Tree) -> Tree:
        if type(x) is not (VNode if o_digit else WNode):
            return x
        if x.tail:
            # the next run holds the other digit: re-tag the tail
            return (WNode if o_digit else VNode)(x.tail[0], x.tail[1:])
        return LEAF

    def run_times(self, o_digit: bool, k: Tree, y: Tree) -> Tree:
        if not o_digit:
            return self.dual(self.run_times(True, k, self.dual(y)))
        if k is LEAF:
            return y
        if y is LEAF:
            return VNode(_PRED(k), ())
        if type(y) is VNode:
            # y already opens with an o run; k joins its counter
            return VNode(_ADD(k, y.head), y.tail)
        return VNode(_PRED(k), (y.head, *y.tail))

    # cmp, add and _sub_if_fits read both operands one common stretch of
    # runs at a time (see _stretches): their cost follows run counts and tree
    # depth.  The generic sub and mul reach them through this class.

    def cmp(self, x: Tree, y: Tree) -> Ordering:
        if x is LEAF:
            return EQ if y is LEAF else LT
        if y is LEAF:
            return GT
        return _order(*_stretches(x, y))

    def add(self, x: Tree, y: Tree) -> Tree:
        if x is LEAF:
            return y
        if y is LEAF:
            return x
        stretches, rest_x, rest_y = _stretches(x, y)
        runs, carry = _carry_runs(stretches, 1)
        rest = rest_y if rest_x is LEAF else rest_x
        for _ in range(carry):
            rest = _SUCC(rest)
        return _node(runs, rest)

    def _sub_if_fits(self, x: Tree, y: Tree) -> Tree | None:
        # one walk gives both the order and the difference
        if y is LEAF:
            return x
        if x is LEAF:
            return None
        stretches, rest_x, rest_y = _stretches(x, y)
        return None if _order(stretches, rest_x, rest_y) is LT else _diff(stretches, rest_x)

    def bitwise(self, table: tuple[int, int, int, int], x: Tree, y: Tree) -> Tree:
        # the digits of x - 1 and y - 1 are the bits of x and y below their
        # top 1 bits (o as 0): each common stretch of them gives one run
        if table[0]:
            raise DomainError("a bitwise table mapping two 0 bits to 1 has no finite result")
        if x is LEAF:
            return y if table[1] else LEAF
        if y is LEAF:
            return x if table[2] else LEAF
        a, b = _PRED(x), _PRED(y)
        stretches, rest_a, rest_b = ([], a, b) if a is LEAF or b is LEAF else _stretches(a, b)
        o_out = [not bit for bit in reversed(table)]  # index 2 xo + yo
        runs: list = []
        for ao, bo, k in stretches:
            _put(runs, o_out[2 * ao + bo], k)
        rest = None  # what is left of the longer operand, when it is kept
        if rest_a is LEAF and rest_b is LEAF:  # the two top 1 bits meet
            _put(runs, o_out[0], LEAF)
        else:
            # the shorter operand's top 1 bit meets the longer one's next
            # digit; above it the longer operand's bits pass through
            # table[1] (or table[2]) against 0 bits: kept whole or dropped
            longer_y = rest_a is LEAF
            longer = rest_b if longer_y else rest_a
            lo = type(longer) is VNode
            _put(runs, o_out[lo if longer_y else 2 * lo], LEAF)
            if table[1] if longer_y else table[2]:
                rest = self.o_inv(longer) if lo else self.i_inv(longer)
        if rest is None:  # drop the 0 bits above the top 1 bit, then that bit
            if not _drop_top_i(runs):
                return LEAF
            rest = LEAF
        return _SUCC(_node(runs, rest))

    def _drop_digits(self, k: Tree, x: Tree) -> tuple[Tree, bool]:
        # the common stretches of x and the k-digit all-o value 2^k - 1 are
        # x's k outermost digits, a whole run at a time; what is left of the
        # second operand is the digits x lacks
        if k is LEAF or x is LEAF:
            return x, True
        stretches, rest, rest_k = _stretches(x, VNode(_PRED(k), ()))
        if rest_k is not LEAF:
            return LEAF, True
        return rest, all(xo for xo, _, _ in stretches)

    # A run is one counter: its length is the counter + 1.

    def _strip_runs(self, x: Tree) -> list[tuple[bool, int]]:
        return _runs(x)[0]

    def _from_runs(self, runs: list[tuple[bool, int]]) -> Tree:
        if not runs:
            return LEAF
        # every counter from the table: equal run lengths, in this value or
        # in one converted apart, give one counter object
        head, *tail = [_counter(n - 1) for _, n in runs]
        return (VNode if runs[0][0] else WNode)(head, tuple(tail))


def _flip(node: type, head: Tree, tail: tuple) -> Tree:
    # the runs head, *tail with their outermost digit turned into node's,
    # the second run's digit: succ of an odd value, pred of an even one
    if head is not LEAF:
        return node(LEAF, (_PRED(head), *tail))
    if tail:
        return node(_SUCC(tail[0]), tail[1:])
    return node(LEAF, ())


def _flip_under(node: type, head: Tree, tail: tuple) -> Tree:
    # a run of head + 1 of node's digits over the runs tail, flipped as in
    # _flip: succ of an even value, pred of an odd one with a second run
    c = tail[0]
    if c is not LEAF:
        return node(head, (LEAF, _PRED(c), *tail[1:]))
    if len(tail) > 1:
        return node(head, (_SUCC(tail[1]), *tail[2:]))
    return node(head, (LEAF,))


def _runs(x: Tree) -> tuple[list, int]:
    # x's runs and its digit count.  A counter of more digits than an index
    # has bits makes a run no list or string holds: it is refused from its
    # own digit count, before runs_int expands it.
    runs, digits, o_digit = [], 0, type(x) is VNode
    for counter in () if x is LEAF else (x.head, *x.tail):
        n = counter._value  # a table counter's run fits an index
        if n is None:
            counter_runs, counter_digits = _runs(counter)
            if counter_digits > _MAX_RUN_DIGITS:
                raise DomainError("value too large to expand into an int")
            n = runs_int(counter_runs)
        n += 1
        runs.append((o_digit, n))
        digits += n
        o_digit = not o_digit
    return runs, digits


def _stretches(x: Tree, y: Tree):
    # Split two nonzero trees into common stretches, outermost first:
    # (x digit is o, y digit is o, counter), the stretch one digit longer
    # than its counter.  Each takes the shorter of the two current runs off
    # both.  Also returns what is left of x and of y once one of them ends;
    # at least one of the two is zero.
    xs, ys = (x.head, *x.tail), (y.head, *y.tail)
    nx, ny = len(xs), len(ys)
    xo, yo = type(x) is VNode, type(y) is VNode
    rx, ry = xs[0], ys[0]  # counters of what is left of the current runs
    i = j = 0
    out = []
    while True:
        a, b = rx._value, ry._value
        if a is not None and b is not None:  # two table counters: int steps
            if a == b:
                order = EQ
            elif a < b:
                order, gap = LT, _counter(b - a - 1)
            else:
                order, gap = GT, _counter(a - b - 1)
        elif rx is ry or (rx is not LEAF and ry is not LEAF and rx == ry):
            order = EQ
        else:
            order, gap = _gap(rx, ry)
        if order is EQ:
            out.append((xo, yo, rx))
            rx = ry = None
        elif order is LT:
            out.append((xo, yo, rx))
            rx, ry = None, gap
        else:
            out.append((xo, yo, ry))
            rx, ry = gap, None
        if rx is None:
            i += 1
            if i < nx:
                rx, xo = xs[i], not xo
        if ry is None:
            j += 1
            if j < ny:
                ry, yo = ys[j], not yo
        if i == nx or j == ny:
            return out, _rest(xo, rx, xs, i), _rest(yo, ry, ys, j)


# The run walks meet the same few counters again and again: a random
# 2^11-digit operand has 1024 runs but 11 distinct counters.  A counter of
# value v < sys.maxsize (its run v + 1 fits an index, as _runs requires)
# comes from one table, _counter, and carries v: conversions draw their
# counters from it, and a counter step on table counters is an int step
# whose result comes from the table.  Other counters take the recursive
# steps; the two the run walks repeat, _gap and _join, are memoized, keyed
# by the nodes' structural hash and ==.  The table and each memo hold at
# most _MEMO_SIZE entries, least recently used going first (an evicted
# entry is only rebuilt, and keeps its value): the op lists of the three
# perfbench workloads on two seeds, then add, sub and cmp of 30 fresh
# random 2^11-digit pairs, left 180 entries in the table, 70 in _gap's and
# 14 in _join's; the bound leaves five times that room.
_MEMO_SIZE = 1024


@lru_cache(maxsize=_MEMO_SIZE)
def _counter(n: int) -> Tree:
    # the table's counter of value n, 0 <= n < sys.maxsize; the only place a
    # node is given its value
    if not n:
        return LEAF
    c = TREE._from_runs(int_runs(n))
    c._value = n
    return c


@lru_cache(maxsize=_MEMO_SIZE)
def _gap(a: Tree, b: Tree):
    # Order of two distinct counters, and one less than their distance, from
    # one walk of both: comparing and then subtracting would walk them twice,
    # and so on every level below, exponentially in the depth.
    if a is LEAF:
        return LT, _PRED(b)
    if b is LEAF:
        return GT, _PRED(a)
    stretches, rest_a, rest_b = _stretches(a, b)
    if _order(stretches, rest_a, rest_b) is LT:
        return LT, _PRED(_diff([(bo, ao, k) for ao, bo, k in stretches], rest_b))
    return GT, _PRED(_diff(stretches, rest_a))


def _order(stretches: list, rest_x: Tree, rest_y: Tree) -> Ordering:
    # x against y from their common stretches and what is left of each: the
    # operand that ends first is smaller, else the innermost stretch where
    # the digits differ decides
    if rest_x is not LEAF:
        return GT
    if rest_y is not LEAF:
        return LT
    for xo, yo, _ in reversed(stretches):
        if xo != yo:
            return LT if xo else GT
    return EQ


def _carry_runs(stretches: list, sign: int):
    # Runs of x + y (sign 1) or x - y (sign -1) over the common stretches,
    # outermost first, and the carry (or borrow) left past them.  With o
    # worth 1 and i worth 2, each digit is s = dx + sign * (dy + carry): the
    # result digit is o when s is odd, and the next carry is
    # sign * (s - digit) / 2, always 0, 1 or 2.  It settles after at most
    # two digits, so a stretch gives at most two single digits and a run.
    runs: list = []
    carry = 0
    for xo, yo, k in stretches:
        dx, dy = 2 - xo, 2 - yo
        while True:
            s = dx + sign * (dy + carry)
            d_o = s & 1
            nxt = sign * (s - 2 + d_o) // 2
            if nxt == carry:  # settled: the rest of the stretch repeats d
                _put(runs, d_o, k)
                break
            _put(runs, d_o, LEAF)
            carry = nxt
            if k is LEAF:
                break
            k = _PRED(k)
    return runs, carry


def _diff(stretches: list, rest: Tree) -> Tree:
    # x - y for x >= y, from their common stretches and what is left of x
    runs, borrow = _carry_runs(stretches, -1)
    while borrow and rest is not LEAF:
        rest = _PRED(rest)
        borrow -= 1
    # the digits so far minus 2^len: the innermost o digits pass the borrow
    # on, the innermost i digit takes it (x >= y leaves at most one borrow,
    # and an i digit to take it)
    if borrow:
        _drop_top_i(runs)
    return _node(runs, rest)


def _drop_top_i(runs: list) -> bool:
    # drop the innermost o run, then one digit of the i run under it; False
    # when no i digit is left
    if runs and runs[-1][0]:
        runs.pop()
    if not runs:
        return False
    k = _as_counter(runs.pop()[1])
    if k is not LEAF:
        runs.append((False, _PRED(k)))
    return True


def _rest(o_digit: bool, counter: Tree, counters: tuple, j: int) -> Tree:
    # the tree left from run j on, whose first run is cut down to counter
    if j == len(counters):
        return LEAF
    return (VNode if o_digit else WNode)(counter, counters[j + 1:])


def _put(runs: list, o_digit, k: Tree) -> None:
    # append a run of k + 1 digits, merging it into a last run of that digit;
    # a merge of counters that carry values is held as an int until _node
    if runs and runs[-1][0] == o_digit:
        a = runs[-1][1]
        u, v = a if type(a) is int else a._value, k._value
        if u is not None and v is not None:
            runs[-1] = (o_digit, u + v + 1)
        else:
            runs[-1] = (o_digit, _join(_as_counter(a), k))
    else:
        runs.append((o_digit, k))


def _as_counter(k) -> Tree:
    # a run counter as a tree: ints from _put merges come from the table
    if type(k) is not int:
        return k
    return _counter(k) if k < sys.maxsize else TREE.from_int(k)


@lru_cache(maxsize=_MEMO_SIZE)
def _join(a: Tree, k: Tree) -> Tree:
    # the counter of a run of a + 1 digits followed by k + 1 more
    return _SUCC(_ADD(a, k))


def memo_stats() -> dict[str, dict[str, int]]:
    """Hits, misses and entry count of the counter table, ``counter`` (one
    counter per value that fits a word), and of the two counter memos:
    ``gap`` (order and distance of two counters) and ``join`` (two runs of
    one digit merged).  Reading them costs the table and memos nothing."""
    return {name: {"hits": info.hits, "misses": info.misses, "size": info.currsize}
            for name, info in (("counter", _counter.cache_info()), ("gap", _gap.cache_info()),
                               ("join", _join.cache_info()))}


def _node(runs: list, rest: Tree) -> Tree:
    # one tree from runs of alternating digits, outermost first, then rest
    tail: tuple = ()
    if rest is not LEAF:
        _put(runs, type(rest) is VNode, rest.head)
        tail = rest.tail
    if not runs:
        return LEAF
    head, *counters = [_as_counter(k) if type(k) is int else k for _, k in runs]
    return (VNode if runs[0][0] else WNode)(head, (*counters, *tail))


def node_count(x: Tree) -> int:
    """Total node count, leaves included, as a plain int."""
    if x is LEAF:
        return 1
    return 1 + node_count(x.head) + sum(node_count(c) for c in x.tail)


# ----------------------------------------------------------------------
# DAG folding
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class Dag:
    """Tree with identical subtrees shared.

    ``nodes`` holds (id, tag) pairs with tag "T", "V" or "W"; ``edges`` is
    indexed by id and lists child ids, head counter first.  Ids follow
    first-visit (preorder) order from the root, which is id 0.
    """

    nodes: tuple[tuple[int, str], ...]
    edges: tuple[tuple[int, ...], ...]
    root: int


def fold_to_dag(t: Tree) -> Dag:
    """Fold structurally identical subtrees into a single shared node."""
    ids: dict[Tree, int] = {}
    nodes: list[tuple[int, str]] = []
    edges: list[tuple[int, ...]] = []

    def visit(u: Tree) -> int:
        nid = ids.get(u)
        if nid is not None:
            return nid
        nid = len(nodes)
        ids[u] = nid
        if u is LEAF:
            nodes.append((nid, "T"))
            edges.append(())
            return nid
        nodes.append((nid, "V" if type(u) is VNode else "W"))
        edges.append(())
        edges[nid] = tuple(visit(c) for c in (u.head, *u.tail))
        return nid

    root = visit(t)
    return Dag(tuple(nodes), tuple(edges), root)


def unfold_dag(dag: Dag) -> Tree:
    """Rebuild the tree a DAG was folded from."""
    tags = dict(dag.nodes)
    memo: dict[int, Tree] = {}
    building: set[int] = set()

    def build(nid: int) -> Tree:
        got = memo.get(nid)
        if got is not None:
            return got
        if nid in building:
            raise ValueError("cycle in DAG")
        building.add(nid)
        tag = tags[nid]
        children = dag.edges[nid]
        if tag == "T":
            if children:
                raise ValueError("leaf node with children")
            t: Tree = LEAF
        else:
            if not children:
                raise ValueError("inner node without a head counter")
            head = build(children[0])
            tail = tuple(build(c) for c in children[1:])
            t = VNode(head, tail) if tag == "V" else WNode(head, tail)
        building.discard(nid)
        memo[nid] = t
        return t

    return build(dag.root)


def dag_to_dot(dag: Dag) -> str:
    """DOT text: one line per node and per edge, edges labelled by child index."""
    lines = ["digraph tree {"]
    for nid, tag in dag.nodes:
        lines.append(f'n{nid} [label="{tag}"]')
    for nid, children in enumerate(dag.edges):
        for idx, child in enumerate(children):
            lines.append(f'n{nid} -> n{child} [label="{idx}"]')
    lines.append("}")
    return "\n".join(lines) + "\n"


# ----------------------------------------------------------------------
# Text format
# ----------------------------------------------------------------------


def print_tree(x: Tree) -> str:
    """Canonical text form, e.g. ``W (V T []) [T,T,T]`` for 42."""
    if x is LEAF:
        return "T"
    tag = "V" if type(x) is VNode else "W"
    head = "T" if x.head is LEAF else f"({print_tree(x.head)})"
    items = ",".join(print_tree(c) for c in x.tail)
    return f"{tag} {head} [{items}]"


# Deepest nesting parse_tree accepts.  The recursive walks over trees
# (printing, folding, ==, hash) need a few frames per level; no arithmetic
# result nests anywhere near this deep.
MAX_DEPTH = 256


def parse_tree(text: str) -> Tree:
    """Inverse of :func:`print_tree`; raises :class:`ParseError` with position,
    also for trees nested deeper than :data:`MAX_DEPTH`."""
    t, pos = _parse_node(text, 0, 1)
    if pos != len(text):
        raise ParseError("trailing characters after tree", pos)
    return t


def _expect(s: str, pos: int, ch: str) -> int:
    if pos >= len(s) or s[pos] != ch:
        raise ParseError(f"expected {ch!r}", pos)
    return pos + 1


def _parse_node(s: str, pos: int, depth: int) -> tuple[Tree, int]:
    # depth counts the inner nodes from the root down to this one
    if pos >= len(s):
        raise ParseError("unexpected end of input", pos)
    ch = s[pos]
    if ch == "T":
        return LEAF, pos + 1
    if ch not in ("V", "W"):
        raise ParseError(f"expected 'T', 'V' or 'W', found {ch!r}", pos)
    if depth > MAX_DEPTH:
        raise ParseError(f"tree nested deeper than {MAX_DEPTH}", pos)
    ctor = VNode if ch == "V" else WNode
    pos = _expect(s, pos + 1, " ")
    if pos < len(s) and s[pos] == "T":
        head: Tree = LEAF
        pos += 1
    elif pos < len(s) and s[pos] == "(":
        head, pos = _parse_node(s, pos + 1, depth + 1)
        pos = _expect(s, pos, ")")
    else:
        raise ParseError("expected head counter ('T' or a parenthesized tree)", pos)
    pos = _expect(s, pos, " ")
    pos = _expect(s, pos, "[")
    items: list[Tree] = []
    if pos < len(s) and s[pos] != "]":
        while True:
            item, pos = _parse_node(s, pos, depth + 1)
            items.append(item)
            if pos < len(s) and s[pos] == ",":
                pos += 1
            else:
                break
    pos = _expect(s, pos, "]")
    return ctor(head, tuple(items)), pos


# ----------------------------------------------------------------------
# Structural random generator (used by the test suite)
# ----------------------------------------------------------------------


def random_tree(rng: Random, max_depth: int = 4) -> Tree:
    """Random tree: leaf with probability 1/2, else V or W evenly, with a
    recursively drawn head and 0..3 tail counters.  Depth-capped, so the
    trees stay small while their values may be astronomically large."""
    if max_depth == 0 or rng.random() < 0.5:
        return LEAF
    head = random_tree(rng, max_depth - 1)
    tail = tuple(random_tree(rng, max_depth - 1) for _ in range(rng.randrange(4)))
    ctor = VNode if rng.random() < 0.5 else WNode
    return ctor(head, tail)


TREE = TreeNatRep()

# The counter steps.  The digit primitives above call these rather than the
# singleton: on table counters they are int steps, on any other counter, or
# past the table's bound, TREE's recursive steps, bound here once.
_tree_succ, _tree_pred, _tree_add = TREE.succ, TREE.pred, TREE.add


def _SUCC(x: Tree) -> Tree:
    v = x._value
    if v is not None and v + 1 < sys.maxsize:
        return _counter(v + 1)
    return _tree_succ(x)


def _PRED(x: Tree) -> Tree:
    v = x._value
    if v:  # neither unknown nor zero, whose pred raises
        return _counter(v - 1)
    return _tree_pred(x)


def _ADD(x: Tree, y: Tree) -> Tree:
    u, v = x._value, y._value
    if u is not None and v is not None and u + v < sys.maxsize:
        return _counter(u + v)
    return _tree_add(x, y)
