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
add and the subtraction step ``_sub_if_fits`` read both operands once, a
common stretch of runs at a time, and run each stretch through a bijective
base-2 carry (or borrow) automaton, which settles within two digits of a
stretch, as the walk finds it; the final borrow and what is left of each
operand tell whether y fits, and where it does not, what is left of y goes
with the verdict: long division reads a run of 0 bits off it.  cmp sums the
digit counts its operands' counters carry and, if they are equal, lets the
innermost differing pair of runs decide.  The generic sub, long division
and run-fold mul are built on these three and the run helpers, so they too
go a run at a time.  A conversion reads or writes one counter per run.
split drops its k digits as the common stretches of x and the all-o value
2^k - 1, a whole run at a time, so dividing by a power of two follows the
run count and the depth, however long the runs.  bitwise merges, in the
same walk, the common stretches of x - 1 and y - 1, whose digits are the
bits of x and y below their top 1 bits, and keeps or drops the rest of the
longer operand whole, so sparse sets with elements past ``sys.maxsize``,
whose runs no list holds, combine at node level.  Counters that fit a word
come from one table, one object per value, and carry their value: succ,
pred and add open with an int step on them, and the run walks hold them as
ints from order to merge, so on operands of many short runs a stretch costs
a few int steps, not a counter walk.  Small computed or parsed counters
join the table where they enter a node; only towers and counters past a
word take the recursive steps.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass
from functools import lru_cache
from itertools import count as _count
from random import Random

from .core import _CARRY, EQ, GT, LT, DomainError, NatRep, Ordering, ParseError, int_runs, runs_int

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
    # stay their oracle.  succ and pred step a table counter as an int, and
    # otherwise build one node each, one case per shape of the outermost
    # node, with at most one succ or pred on a counter.

    def succ(self, x: Tree) -> Tree:
        v = x._value  # a table counter, zero included, steps as an int
        if v is not None and v + 1 < sys.maxsize:
            return _counter(v + 1)
        if type(x) is VNode:  # the outermost o digit becomes an i digit
            return _flip(WNode, x.head, x.tail)
        # an i run over r becomes an o run as long over r + 1
        if x.tail:
            return _flip_under(VNode, x.head, x.tail)
        return VNode(_SUCC(x.head), ())

    def pred(self, x: Tree) -> Tree:
        v = x._value
        if v:  # a table counter other than zero steps as an int
            return _counter(v - 1)
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
        # x's runs merged into one: carried counters sum as ints, off the table
        if x is LEAF:
            return LEAF
        runs: list = []
        for counter in (x.head, *x.tail):
            _put(runs, True, counter)
        return _SUCC(_as_counter(runs[0][1]))

    def dual(self, x: Tree) -> Tree:
        # swapping every digit swaps every run: flip only the top tag
        t = type(x)
        if t is VNode:
            return WNode(x.head, x.tail)
        if t is WNode:
            return VNode(x.head, x.tail)
        return LEAF

    def repsize(self, x: Tree) -> Tree:
        # count of non-leaf nodes, counted as an int and converted once
        def count(u: Tree) -> int:
            return 0 if u is LEAF else 1 + count(u.head) + sum(map(count, u.tail))
        return _as_counter(count(x))

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
        k = _canon(k)  # often a computed value, such as a difference of bitsizes
        if type(y) is VNode:
            # y already opens with an o run; k joins its counter
            return VNode(_ADD(k, y.head), y.tail)
        return VNode(_PRED(k), () if y is LEAF else (y.head, *y.tail))

    # add, _sub_if_fits and bitwise read both operands once, one common
    # stretch of runs at a time (see _walk), and cmp reads carried digit
    # counts and then runs from the innermost end: their cost follows run
    # counts and tree depth.  The generic sub and mul reach them through
    # this class.

    def cmp(self, x: Tree, y: Tree) -> Ordering:
        if x is LEAF:
            return EQ if y is LEAF else LT
        if y is LEAF:
            return GT
        xs, ys = (x.head, *x.tail), (y.head, *y.tail)
        try:  # every counter carries its value: the longer operand is larger
            d = sum([c._value for c in xs]) + len(xs) - sum([c._value for c in ys]) - len(ys)
        except TypeError:
            return _order(*_walk(x, y, _PAIRS)[:3])
        if d:
            return GT if d > 0 else LT
        # equal digit counts: the first pair of runs from the innermost that
        # differs in digit or, as runs alternate, in length decides
        i, j = len(xs) - 1, len(ys) - 1
        o = (type(x) is VNode) != i & 1  # x's innermost digit is o
        if o != ((type(y) is VNode) != j & 1):
            return LT if o else GT
        while i >= 0:
            a, b = xs[i]._value, ys[j]._value
            if a != b:  # the shorter run meets the other digit first
                return LT if (a > b) is o else GT
            i, j, o = i - 1, j - 1, not o
        return EQ

    def add(self, x: Tree, y: Tree) -> Tree:
        u, v = x._value, y._value
        if u is not None and v is not None and u + v < sys.maxsize:
            return _counter(u + v)
        if x is LEAF:
            return y
        if y is LEAF:
            return x
        runs, rest_x, rest_y, carry, _ = _walk(x, y, _CARRY[1])
        rest = rest_y if rest_x is LEAF else rest_x
        for _ in range(carry):
            rest = _SUCC(rest)
        return _node(runs, rest)

    def _sub_if_fits(self, x: Tree, y: Tree) -> tuple[Tree | None, Tree]:
        # one walk gives the difference or, from the final borrow and what
        # is left of each operand, that y exceeds x and what is left of y
        u, v = x._value, y._value
        if u is not None and v is not None:  # two table counters step as ints
            if u >= v:
                return _counter(u - v), LEAF
            # y without x's digits: y + 1 without as many low bits (see int_runs)
            return None, _counter(((v + 1) >> (u + 1).bit_length() - 1) - 1)
        if y is LEAF:
            return x, LEAF
        if x is LEAF:
            return None, y
        runs, rest, rest_y, borrow, _ = _walk(x, y, _CARRY[-1])
        if rest_y is not LEAF:
            return None, rest_y
        return _borrowed(runs, borrow, rest), LEAF

    def bitwise(self, table: tuple[int, int, int, int], x: Tree, y: Tree) -> Tree:
        # the digits of x - 1 and y - 1 are the bits of x and y below their
        # top 1 bits (o as 0): each common stretch of them gives one run,
        # through a table of the walk's shape whose carry is always 0
        if table[0]:
            raise DomainError("a bitwise table mapping two 0 bits to 1 has no finite result")
        if x is LEAF:
            return y if table[1] else LEAF
        if y is LEAF:
            return x if table[2] else LEAF
        a, b = _PRED(x), _PRED(y)
        o_out = [not bit for bit in reversed(table)]  # index 2 xo + yo
        runs, rest_a, rest_b = (([], a, b) if a is LEAF or b is LEAF
                                else _walk(a, b, tuple((o, 0) for o in o_out))[:3])
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
        stretches, rest, rest_k, _, _ = _walk(x, VNode(_PRED(_canon(k)), ()), _PAIRS)
        if rest_k is not LEAF:
            return LEAF, True
        return rest, all(xy == 3 for xy, _ in stretches)

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


def _walk(x: Tree, y: Tree, table: tuple):
    # Two nonzero trees read in common stretches, outermost first, each the
    # shorter of the two current runs taken off both and one digit longer
    # than its counter k, and each run through the automaton table (see
    # core._CARRY, which NatRep._carry_pass runs a digit at a time) as it
    # is found: the result's runs merge into the last one, held open.  What
    # is left of a run is held as its counter's value where it carries one,
    # so two of them order and subtract as ints; others take _gap.  Returns
    # the runs, what is left of x and of y once one of them ends (at least
    # one is zero), the carry and the stretch count.
    xs, ys = (x.head, *x.tail), (y.head, *y.tail)
    nx, ny = len(xs), len(ys)
    xy = 2 * (type(x) is not VNode) + (type(y) is not VNode)  # 2 xo + yo, flipped as a run opens
    a = b = None  # what is left of the current runs, None once taken
    i = j = -1
    runs: list = []  # its first entry stands for the run before the first
    put = runs.append
    last_o = last_k = None
    carry = c4 = 0  # c4 is 4 carry
    for count in _count():
        if a is None:
            i += 1
            if i < nx:
                c, xy = xs[i], xy ^ 2
                a = c._value
                if a is None:
                    a = c
        if b is None:
            j += 1
            if j < ny:
                c, xy = ys[j], xy ^ 1
                b = c._value
                if b is None:
                    b = c
        if i == nx or j == ny:
            put((last_o, last_k))
            del runs[0]
            return runs, _rest(xy & 2, a, xs, i), _rest(xy & 1, b, ys, j), carry, count
        try:  # two ints; a counter without a value raises
            if a > b:
                k, a, b = b, a - b - 1, None
            else:
                k, a, b = a, None, b - a - 1 if a < b else None
        except TypeError:
            order, gap = (EQ, None) if a is b else _gap(_as_counter(a), _as_counter(b))
            if gap is not None and gap._value is not None:
                gap = gap._value
            k, a, b = (b, gap, None) if order is GT else (a, None, gap)
        while True:  # the carry settles within two digits
            o, nxt = table[c4 + xy]
            n = k if nxt == carry else 0  # settled: the rest of the stretch repeats o
            if o != last_o:
                put((last_o, last_k))
                last_o, last_k = o, n
            else:
                try:
                    last_k += n + 1
                except TypeError:
                    last_k = _SUCC(_ADD(_as_counter(last_k), _as_counter(n)))
            if nxt == carry:
                break
            carry, c4 = nxt, 4 * nxt
            if not k or k is LEAF:  # k is an int, or a counter once stepped
                break
            k = k - 1 if type(k) is int else _PRED(k)


# The stretches themselves, (2 xo + yo, k), for _gap, _drop_digits and cmp
# on counters without a value: a table that keeps the digit pair, which
# changes from each stretch to the next, so none merge.
_PAIRS = tuple((xy, 0) for xy in range(4))


# The run walks meet the same few counters again and again: a random
# 2^11-digit operand has 1024 runs but 11 distinct counters.  A counter of
# value v < sys.maxsize (its run v + 1 fits an index, as _runs requires)
# comes from one table, _counter, and carries v: conversions draw their
# counters from it, _canon brings in small computed and parsed ones, and a
# counter step on them is an int step to a table counter; towers and
# counters past a word take the recursive steps.  The table keeps the
# _MEMO_SIZE most recently used (an evicted counter is only rebuilt, with
# its value): a pass of a perfbench op list from an empty table left 59-60
# entries on giant-tree, 15 on desk-numtheory and 123-144 on codec-cli.
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


def _canon(k: Tree) -> Tree:
    # k as the table's counter when its counters carry values and its digits
    # fit a word, else k itself.  A run of n + 1 digits d (o worth 1, i
    # worth 2) at offset s adds d (2^(n+1) - 1) 2^s to the value.
    if k._value is not None:
        return k
    value, digits, d = 0, 0, 1 if type(k) is VNode else 2
    for c in (k.head, *k.tail):
        n = c._value
        if n is None or digits + n >= _MAX_RUN_DIGITS:
            return k
        value += d * ((2 << n) - 1) << digits
        digits, d = digits + n + 1, 3 - d
    return _counter(value)


def _gap(a: Tree, b: Tree):
    # Order of any two counters, and one less than their distance (None when
    # equal), from one walk of both and one borrow pass over its stretches:
    # comparing and then subtracting would walk them twice, and so on every
    # level below, exponentially in the depth.
    if b is LEAF:
        return (EQ, None) if a is LEAF else (GT, _PRED(a))
    if a is LEAF:
        return LT, _PRED(b)
    stretches, rest_a, rest_b, _, _ = _walk(a, b, _PAIRS)
    order = _order(stretches, rest_a, rest_b)
    if order is EQ:
        return EQ, None
    if order is LT:  # b - a: each digit pair swapped
        stretches, rest_a = [((0, 2, 1, 3)[xy], k) for xy, k in stretches], rest_b
    return order, _PRED(_borrowed(*_carry_runs(stretches), rest_a))


def _order(stretches: list, rest_x: Tree, rest_y: Tree) -> Ordering:
    # x against y from their _PAIRS stretches and what is left of each, for
    # _gap and cmp on counters without a value: the operand that ends first
    # is smaller, else the innermost stretch where the digits differ decides
    if rest_x is not LEAF:
        return GT
    if rest_y is not LEAF:
        return LT
    for xy, _ in reversed(stretches):
        if xy == 1 or xy == 2:
            return LT if xy == 2 else GT
    return EQ


def _carry_runs(stretches: list):
    # _walk's borrow automaton over a list of stretches, for _gap: the runs
    # of x - y and the borrow past them
    table = _CARRY[-1]
    runs: list = []  # as in _walk
    last_o = last_k = None
    carry = 0
    for xy, k in stretches:
        while True:
            o, nxt = table[4 * carry + xy]
            n = k if nxt == carry else 0
            if o != last_o:
                runs.append((last_o, last_k))
                last_o, last_k = o, n
            elif type(last_k) is int and type(n) is int:
                last_k += n + 1
            else:
                last_k = _SUCC(_ADD(_as_counter(last_k), _as_counter(n)))
            if nxt == carry:
                break
            carry = nxt
            if not k or k is LEAF:
                break
            k = k - 1 if type(k) is int else _PRED(k)
    runs.append((last_o, last_k))
    del runs[0]
    return runs, carry


def _borrowed(runs: list, borrow: int, rest: Tree) -> Tree | None:
    # x - y from the runs and the borrow of the borrow automaton and what is
    # left of x once y ends, or None when y exceeds x.  A borrow past x is
    # the digits so far less 2^len: the innermost o digits pass it on, the
    # innermost i digit takes it; with a borrow of 2, or no i digit, y
    # exceeds x.
    while borrow and rest is not LEAF:
        rest = _PRED(rest)
        borrow -= 1
    if borrow and (borrow == 2 or not _drop_top_i(runs)):
        return None
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


def _rest(o_digit: bool, left, counters: tuple, j: int) -> Tree:
    # the tree left from run j on, whose first run is cut down to left, a
    # counter or its value
    if j == len(counters):
        return LEAF
    return (VNode if o_digit else WNode)(_as_counter(left), counters[j + 1:])


def _put(runs: list, o_digit, k) -> None:
    # append a run of k + 1 digits, k a counter or its value, merging it into
    # a last run of that digit
    if runs and runs[-1][0] == o_digit:
        a = runs[-1][1]
        u, v = a if type(a) is int else a._value, k if type(k) is int else k._value
        if u is not None and v is not None:  # held as an int (see _as_counter)
            runs[-1] = (o_digit, u + v + 1)
        else:
            runs[-1] = (o_digit, _SUCC(_ADD(_as_counter(a), _as_counter(k))))
    else:
        runs.append((o_digit, k))


def _as_counter(k) -> Tree:
    # a run counter as a tree: ints from the walks and merges come from the table
    if type(k) is not int:
        return k
    return _counter(k) if k < sys.maxsize else TREE.from_int(k)


def memo_stats() -> dict[str, dict[str, int]]:
    """Hits, misses and entry count of the counter table, ``counter``: one
    counter per value that fits a word.  Reading them costs it nothing."""
    info = _counter.cache_info()
    return {"counter": {"hits": info.hits, "misses": info.misses, "size": info.currsize}}


def _node(runs: list, rest: Tree) -> Tree:
    # one tree from runs of alternating digits, outermost first, then rest
    tail: tuple = ()
    if rest is not LEAF:
        _put(runs, type(rest) is VNode, rest.head)
        tail = rest.tail
    if not runs:
        return LEAF
    # most runs are ints that fit a word: they take the table without a call
    head, *counters = [_counter(k) if type(k) is int and k < sys.maxsize else _as_counter(k)
                       for _, k in runs]
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
    """Rebuild the tree a DAG was folded from; raises ValueError on a
    malformed one (an unknown id or tag, a cycle, a leaf with children or an
    inner node without a head counter)."""
    tags = dict(dag.nodes)
    memo: dict[int, Tree] = {}
    building: set[int] = set()

    def build(nid: int) -> Tree:
        got = memo.get(nid)
        if got is not None:
            return got
        if nid in building:
            raise ValueError("cycle in DAG")
        tag = tags.get(nid)
        if tag is None or not 0 <= nid < len(dag.edges):
            raise ValueError(f"no node {nid} in DAG")
        if tag not in ("T", "V", "W"):
            raise ValueError(f"unknown tag {tag!r} in DAG")
        building.add(nid)
        children = dag.edges[nid]
        if tag == "T":
            if children:
                raise ValueError("leaf node with children")
            t: Tree = LEAF
        else:
            if not children:
                raise ValueError("inner node without a head counter")
            head = _canon(build(children[0]))
            tail = tuple(_canon(build(c)) for c in children[1:])
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
# (printing, folding, ==, hash) and the counter steps take a frame or two
# per level: under Python's default recursion limit, a tower of repeated
# exp2 supports every op (==, hash, succ, pred, cmp, add, sub, mul, bitsize,
# folding) to about 480 levels.  No arithmetic result nests near this deep.
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
    # counters from the table, but not the root: parsed values would fill it
    return ctor(_canon(head), tuple(map(_canon, items))), pos


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

# The counter steps, which the digit primitives and the walks call as
# globals: names of their own let a tracer count counter steps apart from
# top-level calls.
_SUCC, _PRED, _ADD = TREE.succ, TREE.pred, TREE.add
