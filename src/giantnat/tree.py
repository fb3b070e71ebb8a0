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
flips its tag, repsize counts nodes, and leftshift lays one o run under a
single succ (exp2 is leftshift of one).  The run helpers (run_count,
run_trim, run_times) are overridden too: a run is one counter of the
outermost node, so each reads or edits that node, and the generic
cons/decons and pairing codec built on them get the speed without knowing
about trees.  succ and pred are overridden on top of those helpers: each
turns a whole outermost run into a run of the other digit, so their cost
follows the depth of the tree rather than the length of a run.
cmp, add and sub read both operands a common stretch of runs at a time:
add and sub run a bijective base-2 carry (or borrow) automaton that
settles within two digits of a stretch, and cmp lets the operand that ends
first, or else the innermost differing stretch, decide.  mul folds over
the runs of x - 1, and from_int/to_int read and write whole runs of bits.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from random import Random

from .core import EQ, GT, LT, DomainError, NatRep, Ordering, ParseError


class Tree:
    """Base class of tree values; see :data:`LEAF`, :class:`VNode`, :class:`WNode`."""

    __slots__ = ()

    def __repr__(self) -> str:
        return print_tree(self)


class _Leaf(Tree):
    __slots__ = ()


LEAF = _Leaf()


class VNode(Tree):
    """Odd values: outermost run is made of o digits."""

    __slots__ = ("head", "tail", "_hash")

    def __init__(self, head: Tree, tail: tuple[Tree, ...]):
        self.head = head
        self.tail = tail
        self._hash = None

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

    __slots__ = ("head", "tail", "_hash")

    def __init__(self, head: Tree, tail: tuple[Tree, ...]):
        self.head = head
        self.tail = tail
        self._hash = None

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

    # fast overrides; semantics identical to the generic definitions

    def succ(self, x: Tree) -> Tree:
        if type(x) is not WNode:  # zero or odd: flip the outer digit
            return self.i(self.o_inv(x)) if x is not LEAF else VNode(LEAF, ())
        # an i run over r (zero or odd) becomes an o run as long over r + 1
        r = self.run_trim(False, x)
        if r is LEAF:
            return VNode(_SUCC(x.head), ())
        y = self.i(self.o_inv(r))
        return VNode(x.head, (y.head, *y.tail))

    def pred(self, x: Tree) -> Tree:
        if type(x) is not VNode:  # zero or even: flip the outer digit
            if x is LEAF:
                raise DomainError("predecessor of zero")
            return self.o(self.i_inv(x))
        # an o run over r (zero or even) becomes an i run as long over r - 1;
        # o^k(0) - 1 is i^(k-1)(0)
        r = self.run_trim(True, x)
        if r is LEAF:
            return WNode(_PRED(x.head), ()) if x.head is not LEAF else LEAF
        y = self.o(self.i_inv(r))
        return WNode(x.head, (y.head, *y.tail))

    def exp2(self, x: Tree) -> Tree:
        return self.leftshift(x, self._one)

    def leftshift(self, k: Tree, y: Tree) -> Tree:
        # 2^k*y is one more than k o digits on y-1, whatever the parity of y
        # (the paper's identity a4)
        if y is LEAF:
            return LEAF
        return _SUCC(self.run_times(True, k, _PRED(y)))

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

    # cmp, add and sub read both operands one common stretch of runs at a
    # time (see _stretches): their cost follows run counts and tree depth.

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

    def sub(self, x: Tree, y: Tree) -> Tree:
        if y is LEAF:
            return x
        if x is LEAF:
            raise DomainError("subtraction underflow")
        return _diff(*_stretches(x, y))

    def mul(self, x: Tree, y: Tree) -> Tree:
        # the generic fold over the digits of x - 1, taken a run at a time,
        # with x the operand of fewer runs
        if x is LEAF or y is LEAF:
            return LEAF
        if len(x.tail) > len(y.tail):
            x, y = y, x
        b, y1, a = _PRED(y), _SUCC(y), _PRED(x)
        acc, counters = b, (() if a is LEAF else (a.head, *a.tail))
        for j in range(len(counters) - 1, -1, -1):
            k = counters[j]
            if (j % 2 == 0) == (type(a) is VNode):
                acc = self.run_times(True, _SUCC(k), acc)
            elif k is LEAF:
                acc = _SUCC(self.add(b, self.o(acc)))
            else:
                # k + 1 i digits: acc + 1 becomes 2^(k+1) (acc + 1 + y) - y
                acc = self.sub(self.leftshift(_SUCC(k), self.add(acc, y1)), y1)
        return _SUCC(acc)

    # Conversions read and write whole runs of bits: x + 1 in binary,
    # leading 1 dropped and reversed, spells x's digits outermost first,
    # a 0 bit for an o digit and a 1 bit for an i digit.

    def from_int(self, k: int) -> Tree:
        if k < 0:
            raise DomainError("negative value")
        runs = _BIT_RUNS.findall(bin(k + 1)[:2:-1])
        if not runs:
            return LEAF
        counters = [LEAF if len(r) == 1 else self.from_int(len(r) - 1) for r in runs]
        return (VNode if runs[0][0] == "0" else WNode)(counters[0], tuple(counters[1:]))

    def to_int(self, x: Tree) -> int:
        if x is LEAF:
            return 0
        bit = "0" if type(x) is VNode else "1"
        parts = []
        for counter in (x.head, *x.tail):
            parts.append(bit * (self.to_int(counter) + 1))
            bit = "1" if bit == "0" else "0"
        return int("1" + "".join(parts)[::-1], 2) - 1


_BIT_RUNS = re.compile("0+|1+")


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
        if rx is ry or (rx is not LEAF and ry is not LEAF and rx == ry):
            out.append((xo, yo, rx))
            rx = ry = None
        else:
            order, gap = _gap(rx, ry)
            if order is LT:
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
        return LT, _PRED(_diff([(bo, ao, k) for ao, bo, k in stretches], rest_b, rest_a))
    return GT, _PRED(_diff(stretches, rest_a, rest_b))


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


def _diff(stretches: list, rest: Tree, rest_y: Tree) -> Tree:
    # x - y from their common stretches and what is left of each
    if rest_y is not LEAF:
        raise DomainError("subtraction underflow")
    runs, borrow = _carry_runs(stretches, -1)
    while borrow and rest is not LEAF:
        rest = _PRED(rest)
        borrow -= 1
    if borrow:
        # the digits so far minus 2^len: the innermost o digits pass the
        # borrow on, the innermost i digit takes it
        while runs and runs[-1][0]:
            runs.pop()
        if borrow == 2 or not runs:
            raise DomainError("subtraction underflow")
        k = runs.pop()[1]
        if k is not LEAF:
            runs.append((False, _PRED(k)))
    return _node(runs, rest)


def _rest(o_digit: bool, counter: Tree, counters: tuple, j: int) -> Tree:
    # the tree left from run j on, whose first run is cut down to counter
    if j == len(counters):
        return LEAF
    return (VNode if o_digit else WNode)(counter, counters[j + 1:])


def _put(runs: list, o_digit, k: Tree) -> None:
    # append a run of k + 1 digits, merging it into a last run of that digit
    if runs and runs[-1][0] == o_digit:
        runs[-1] = (o_digit, _SUCC(_ADD(runs[-1][1], k)))
    else:
        runs.append((o_digit, k))


def _node(runs: list, rest: Tree) -> Tree:
    # one tree from runs of alternating digits, outermost first, then rest
    tail: tuple = ()
    if rest is not LEAF:
        _put(runs, type(rest) is VNode, rest.head)
        tail = rest.tail
    if not runs:
        return LEAF
    o_digit, head = runs[0]
    return (VNode if o_digit else WNode)(head, (*(k for _, k in runs[1:]), *tail))


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

# The digit primitives above rebind these rather than going through the
# singleton, keeping the succ/pred mutual recursion on counters cheap.
_SUCC = TREE.succ
_PRED = TREE.pred
_ADD = TREE.add
