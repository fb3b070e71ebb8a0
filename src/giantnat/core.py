"""Representation-generic arithmetic on natural numbers.

A *representation* supplies six primitives: the empty value ``e`` standing
for zero, the digit constructors ``o`` (n -> 2n+1) and ``i`` (n -> 2n+2),
their inverses ``o_inv`` / ``i_inv``, and the recognizer ``is_o``.  Values
are then exactly the bijective base-2 numerals over the digit alphabet
{o, i}, with zero written as the empty digit string.

Everything else -- successor/predecessor, arithmetic, comparison, division,
and the digit-level "special computations" (dual, bitsize, the cons/decons
pairing) -- is derived here once from the primitives and shared by every
representation.  Addition and subtraction are one pass over digit pairs
of the bijective base-2 carry automaton, a table (``_CARRY``) that the
tree run walk reads too; multiplication is a fold with one step per run.
Division is binary long division a quotient run at a time: each step is
one borrow walk that subtracts where the divisor fits and otherwise
returns what is left of it, whose length is a run of 0 bits, and a long
run of 1 bits closes in one jump; a power-of-two divisor goes to
``split``, which reads the quotient off the digits left once the low ones
are dropped.  Conversions all go through one format, a list of runs (see
``_strip_runs``).  A representation may override a derived operation with
a faster equivalent as long as observable behaviour is unchanged; the
derived definitions below remain available through the base class for
cross-checks.

All values are immutable and all operations are pure, so values can be
shared freely across threads.
"""

from __future__ import annotations

import enum
import re
from abc import ABC, abstractmethod
from typing import Iterator, TypeVar

N = TypeVar("N")


class DomainError(ValueError):
    """Raised when an operation is applied outside its domain."""


class ParseError(ValueError):
    """Raised on malformed textual input; carries the reason and the offending position."""

    def __init__(self, message: str, position: int | None = None):
        self.reason = message
        if position is not None:
            message = f"{message} (at position {position})"
        super().__init__(message)
        self.position = position


class Ordering(enum.Enum):
    """Three-way comparison result."""

    LT = -1
    EQ = 0
    GT = 1


LT = Ordering.LT
EQ = Ordering.EQ
GT = Ordering.GT


# The bijective base-2 carry (or borrow) automaton: with o worth 1 and i
# worth 2, a digit of x + y (sign 1) or x - y (sign -1) under carry c is
# s = dx + sign * (dy + c); the result digit is o when s is odd, and the
# next carry is sign * (s - digit) / 2, always 0, 1 or 2.
# _CARRY[sign][4 c + 2 xo + yo] is (result digit is o, next carry).
_CARRY = {sign: tuple((s & 1 == 1, sign * (s - 2 + (s & 1)) // 2)
                      for c in range(3) for xy in range(4)
                      for s in [2 - (xy >> 1) + sign * (2 - (xy & 1) + c)])
          for sign in (1, -1)}


# Long division closes a run of 1 bits in one jump once it is this long.
# The jump costs about three steps and cannot tell a run that is about to
# end, so it waits past the short runs of ordinary quotients: from 5 on,
# the trial divisions of the first 40 primes make no jump.
_ONE_RUN = 5


class NatRep(ABC):
    """Contract for a natural-number representation plus derived algorithms.

    Subclasses implement the six primitives for their value type ``N``.
    Instances are stateless; one module-level singleton per representation
    is enough.
    """

    e: N

    def __init__(self) -> None:
        self._one = self.o(self.e)

    # ------------------------------------------------------------------
    # primitives (static: they never need the instance, and the hot generic
    # loops below fetch them through self a lot)
    # ------------------------------------------------------------------

    @staticmethod
    @abstractmethod
    def o(x: N) -> N:
        """Apply the digit taking n to 2n+1."""

    @staticmethod
    @abstractmethod
    def i(x: N) -> N:
        """Apply the digit taking n to 2n+2."""

    @staticmethod
    @abstractmethod
    def o_inv(x: N) -> N:
        """Undo ``o``; domain error unless the outermost digit is o."""

    @staticmethod
    @abstractmethod
    def i_inv(x: N) -> N:
        """Undo ``i``; domain error unless the outermost digit is i."""

    @staticmethod
    @abstractmethod
    def is_o(x: N) -> bool:
        """True when the outermost digit is o (the value is odd)."""

    # Derived recognizers.  Exactly one of is_e/is_o/is_i holds for any
    # value; subclasses usually override these with cheaper checks.

    def is_e(self, x: N) -> bool:
        """True for the zero value."""
        return x == self.e

    def is_i(self, x: N) -> bool:
        """True when the outermost digit is i (the value is even, nonzero)."""
        return not (self.is_e(x) or self.is_o(x))

    # ------------------------------------------------------------------
    # successor / predecessor
    # ------------------------------------------------------------------

    def succ(self, x: N) -> N:
        """Value plus one."""
        is_i, i_inv = self.is_i, self.i_inv
        runs = 0
        while is_i(x):
            x = i_inv(x)
            runs += 1
        x = self.o(x) if self.is_e(x) else self.i(self.o_inv(x))
        if runs:
            o = self.o
            for _ in range(runs):
                x = o(x)
        return x

    def pred(self, x: N) -> N:
        """Value minus one; domain error on zero."""
        is_o, o_inv, is_e = self.is_o, self.o_inv, self.is_e
        runs = 0
        while is_o(x):
            stripped = o_inv(x)
            if is_e(stripped):
                # x was the lone-o-digit value; the run below it is empty
                x = self.e
                break
            x = stripped
            runs += 1
        else:
            if not self.is_i(x):
                raise DomainError("predecessor of zero")
            x = self.o(self.i_inv(x))
        if runs:
            i = self.i
            for _ in range(runs):
                x = i(x)
        return x

    def succ_depth(self, x: N) -> int:
        """Number of rule applications ``succ`` performs on ``x``.

        One application for the terminal rule plus one per trailing i digit.
        Constant on average over a uniform range of values.
        """
        depth = 1
        while self.is_i(x):
            x = self.i_inv(x)
            depth += 1
        return depth

    def all_from(self, x: N) -> Iterator[N]:
        """Unbounded increasing stream x, x+1, x+2, ...; pull-driven."""
        while True:
            yield x
            x = self.succ(x)

    # ------------------------------------------------------------------
    # arithmetic
    # ------------------------------------------------------------------

    def add(self, x: N, y: N) -> N:
        """Sum, in one carry pass: once one operand ends, the carry goes into
        the other's rest with at most two succ."""
        digits, x, y, carry = self._carry_pass(_CARRY[1], x, y)
        res = y if self.is_e(x) else x
        if carry:
            res = self.succ(res if carry == 1 else self.succ(res))
        return self._put_digits(digits, res)

    def sub(self, x: N, y: N) -> N:
        """Difference x - y by :meth:`_sub_if_fits`; domain error when y exceeds x."""
        d = self._sub_if_fits(x, y)[0]
        if d is None:
            raise DomainError("subtraction underflow")
        return d

    def _sub_if_fits(self, x: N, y: N) -> tuple[N | None, N]:
        """(x - y, 0), or (None, what is left of y once x's digits ran out)
        when y exceeds x: one borrow pass.  Once y ends, the borrow takes at
        most two pred on x's rest; once x ends too, the digits so far less
        2^len lose their innermost o digits and one i digit, and with no i
        digit left y exceeds x, with nothing of it left."""
        digits, x, y, borrow = self._carry_pass(_CARRY[-1], x, y)
        is_e = self.is_e
        if not is_e(y):
            return None, y
        if borrow == 2 and not is_e(x):
            x, borrow = self.pred(x), 1
        if borrow and not is_e(x):
            x, borrow = self.pred(x), 0
        if borrow:
            while digits and digits[-1]:
                digits.pop()
            if borrow == 2 or not digits:
                return None, y
            digits.pop()
        return self._put_digits(digits, x), y

    def _carry_pass(self, table: tuple, x: N, y: N) -> tuple[list[bool], N, N, int]:
        # the carry automaton table (see _CARRY) over the digit pairs of x
        # and y, outermost first, until one of them ends: the result digits
        # (True for o), what is left of x and of y, and the carry
        is_e, is_o, o_inv, i_inv = self.is_e, self.is_o, self.o_inv, self.i_inv
        digits = []
        put = digits.append
        carry = 0
        while not (is_e(x) or is_e(y)):
            ao = is_o(x)
            bo = is_o(y)
            x = o_inv(x) if ao else i_inv(x)
            y = o_inv(y) if bo else i_inv(y)
            o, carry = table[4 * carry + 2 * ao + bo]
            put(o)
        return digits, x, y, carry

    def _put_digits(self, digits: list[bool], x: N) -> N:
        # the digits (True for o), outermost first, applied onto x
        o, i = self.o, self.i
        for d_o in reversed(digits):
            x = o(x) if d_o else i(x)
        return x

    def cmp(self, x: N, y: N) -> Ordering:
        """Three-way comparison agreeing with the numeric order.

        Walks matched digits inward; the deepest o-vs-i mismatch breaks a
        tie between equal-length digit strings, a shorter string loses.
        """
        is_e, is_o = self.is_e, self.is_o
        o_inv, i_inv = self.o_inv, self.i_inv
        tiebreak = EQ
        while True:
            if is_e(x):
                base = EQ if is_e(y) else LT
                break
            if is_e(y):
                base = GT
                break
            ao = is_o(x)
            bo = is_o(y)
            x = o_inv(x) if ao else i_inv(x)
            y = o_inv(y) if bo else i_inv(y)
            if ao != bo:
                tiebreak = LT if ao else GT
        return base if base is not EQ else tiebreak

    def min2(self, x: N, y: N) -> N:
        return x if self.cmp(x, y) is LT else y

    def max2(self, x: N, y: N) -> N:
        return y if self.cmp(x, y) is LT else x

    def mul(self, x: N, y: N) -> N:
        """Product.  Zero absorbs; otherwise a fold over the runs of x - 1,
        innermost first, from acc = y - 1, keeping acc + 1 = (v + 1) y for v
        the digits folded: n o digits are n o digits on acc, one i digit
        makes acc o(acc) + y, and n >= 2 take acc + 1 to 2^n (acc + 1 + y) - y.
        Of x - 1 and y - 1, read in step, the one of fewer runs drives the
        fold.  Run lengths stay values of the representation, so run helpers
        that edit whole runs keep a product of giants at that level."""
        is_e, is_o, run_count, run_trim = self.is_e, self.is_o, self.run_count, self.run_trim
        if is_e(x) or is_e(y):
            return self.e
        a, b = x1, y1 = self.pred(x), self.pred(y)
        # each run's digit and the operand from that run on: only the runs
        # that drive the fold are counted
        runs_a, runs_b = [], []
        while not (is_e(a) or is_e(b)):
            oa, ob = is_o(a), is_o(b)
            runs_a.append((oa, a))
            runs_b.append((ob, b))
            a, b = run_trim(oa, a), run_trim(ob, b)
        runs = runs_a
        if not is_e(a):  # y - 1 has fewer runs: x and y swap roles
            runs, y, y1 = runs_b, x, x1
        o, add, succ, one = self.o, self.add, self.succ, self._one
        acc, y2 = y1, succ(y)
        for o_digit, rest in reversed(runs):
            n = run_count(o_digit, rest)
            if o_digit:
                acc = self.run_times(True, n, acc)
            elif n == one:
                acc = add(o(acc), y)
            else:
                acc = self.sub(self.leftshift(n, add(acc, y2)), y2)
        return succ(acc)

    def db(self, x: N) -> N:
        """Double."""
        return self.pred(self.o(x))

    def hf(self, x: N) -> N:
        """Half of an even positive value; domain error otherwise."""
        return self.succ(self.i_inv(x))

    def pow(self, x: N, y: N) -> N:
        """x raised to y, by squaring on y's digits; pow(0, 0) is 1."""
        if self.is_e(y):
            return self._one
        xx = self.mul(x, x)
        if self.is_o(y):
            return self.mul(x, self.pow(xx, self.o_inv(y)))
        return self.mul(xx, self.pow(xx, self.i_inv(y)))

    def exp2(self, x: N) -> N:
        """2 raised to x: :meth:`leftshift` of one."""
        return self.leftshift(x, self._one)

    def leftshift(self, x: N, y: N) -> N:
        """y times 2 raised to x, by the paper's identity a4: 2^x y is one
        more than x o digits on y - 1.  A representation that lays a whole
        run at once in ``run_times`` makes this a node-level edit."""
        if self.is_e(y):
            return self.e
        return self.succ(self.run_times(True, x, self.pred(y)))

    def div_and_rem(self, x: N, y: N) -> tuple[N, N]:
        """Quotient and remainder; domain error when y is zero.

        A power-of-two divisor 2^k is :meth:`split` at k.  Any other is
        binary long division, a quotient run at a time.  One
        :meth:`_sub_if_fits` of x from y tells x <= y, or leaves what is
        left of x past the digits of y: its digit count, less one where x is
        all o digits and plus one where y is, is the difference k of the
        binary bit lengths, so the quotient has at most k + 1 bits.
        m = 2^k y is built from y - 1, and the quotient is kept
        as q - 1, on which each bit is one digit.  One :meth:`_sub_if_fits`
        of m from the remainder r is a trial step: it subtracts where m
        fits, or it tells what is left of m once r's digits ran out.  With d
        digits left, the next d quotient bits are 0, as m, even, has one
        more bit than digits and r at most one more: from d = 3 on, they
        are emitted at once.  A run of 1 bits that reaches ``_ONE_RUN`` is
        closed in one jump: while the bits are 1, u = m - r stays the same,
        and each next m/2^t fits while it has more bits than u, which the
        bit lengths of u and y count; the jump takes those, and the trial
        steps go on from there.
        """
        is_e = self.is_e
        if is_e(y):
            raise DomainError("division by zero")
        if is_e(x):
            return x, x
        sub_if_fits, succ, pred, bitsize, run_times = (
            self._sub_if_fits, self.succ, self.pred, self.bitsize, self.run_times)
        y1 = pred(y)
        if is_e(self.run_trim(True, y1)):  # y - 1 is all o digits
            return self.split(self.run_count(True, y1), x)
        d, rest = sub_if_fits(y, x)  # rest: x past y's digits
        if d is not None:  # x <= y
            return (self._one, d) if is_e(d) else (self.e, x)
        # a value has one digit fewer than bits, but 2^n - 1, all o digits, as many
        k = bitsize(rest)
        if is_e(self.run_trim(True, x)):
            k = pred(k)
        if is_e(self.run_trim(True, y)):
            k = succ(k)
        # m = 2^k y is i(o^(k-1)(y - 1)): halving it takes three digit steps
        o, i, is_o, o_inv, i_inv = self.o, self.i, self.is_o, self.o_inv, self.i_inv
        m = succ(run_times(True, k, y1))
        r = sub_if_fits(x, m)[0]
        if r is None:  # the quotient's top bit is the next one, a 1
            if is_e(k):
                return self.e, x
            k = pred(k)
            m = y if is_e(k) else i(o_inv(i_inv(m)))
            r = sub_if_fits(x, m)[0]
        # q - 1, on which a 1 bit is an i digit and a 0 bit an o digit
        q1, ones = self.e, 1

        def inner(v):  # v without its outermost digit, zero without one
            return v if is_e(v) else o_inv(v) if is_o(v) else i_inv(v)

        while not is_e(k):
            k = pred(k)
            m = y if is_e(k) else i(o_inv(i_inv(m)))
            d, rest = sub_if_fits(r, m)
            if d is not None:  # a 1 bit
                q1, r, ones = i(q1), d, ones + 1
                if ones == _ONE_RUN and not is_e(k):
                    # the bits down to position j are 1, for j the least
                    # with 2^j y longer than u: 0, or one more than the
                    # bit length of u less that of y
                    ones = 0
                    u = sub_if_fits(m, r)[0]
                    w = sub_if_fits(bitsize(pred(u)), bitsize(y1))[0]
                    j = self.e if w is None else succ(w)
                    t = sub_if_fits(k, j)[0]
                    if t is not None and not is_e(t):
                        m = succ(run_times(True, j, y1))
                        q1, r, k = run_times(False, t, q1), sub_if_fits(m, u)[0], j
            else:  # a 0 bit, and as many as m has digits left
                ones = 0
                rest = inner(inner(rest))
                if is_e(rest):  # at most two digits were left
                    q1 = o(q1)
                else:  # the bits down to position j are 0
                    g1 = succ(bitsize(rest))  # one less than the digits left
                    j = sub_if_fits(k, g1)[0]
                    if j is None:
                        j, g1 = self.e, k
                    q1, k = run_times(True, succ(g1), q1), j
                    m = succ(run_times(True, j, y1))
        return succ(q1), r

    def split(self, k: N, x: N) -> tuple[N, N]:
        """(x div 2^k, x mod 2^k).

        With t for x without its k outermost digits and s for the binary
        value of those digits (o as 0, i as 1), x = 2^k (t + 1) + s - 1: the
        quotient is t when s is zero, else t + 1.  An x of fewer than k
        digits gives (0, x).
        """
        t, all_o = self._drop_digits(k, x)
        q = t if all_o else self.succ(t)
        return q, self.sub(x, self.leftshift(k, q))

    def _drop_digits(self, k: N, x: N) -> tuple[N, bool]:
        # x without its k outermost digits, and whether every digit dropped
        # was o; (0, True) when x has fewer than k digits
        is_e, is_o, o_inv, i_inv = self.is_e, self.is_o, self.o_inv, self.i_inv
        all_o = True
        for _ in range(self.to_int(k)):
            if is_e(x):
                return self.e, True
            if is_o(x):
                x = o_inv(x)
            else:
                x, all_o = i_inv(x), False
        return x, all_o

    def divide(self, x: N, y: N) -> N:
        return self.div_and_rem(x, y)[0]

    def remainder(self, x: N, y: N) -> N:
        return self.div_and_rem(x, y)[1]

    # ------------------------------------------------------------------
    # digit-level special computations
    # ------------------------------------------------------------------

    def dual(self, x: N) -> N:
        """Swap every o digit with i and vice versa.  An involution."""
        return self._from_runs([(not o_digit, n) for o_digit, n in self._strip_runs(x)])

    def bitsize(self, x: N) -> N:
        """Digit count of x in bijective base 2, as a value of this representation."""
        return self.from_int(sum(n for _, n in self._strip_runs(x)))

    def repsize(self, x: N) -> N:
        """Representation size; for digit-string representations this is bitsize."""
        return self.bitsize(x)

    def decons(self, z: N) -> tuple[N, N]:
        """Split z > 0 into a pair, inverting :meth:`cons`.

        Separates the outermost run of identical digits from the rest;
        a bijection from positive values onto all pairs.
        """
        if self.is_e(z):
            raise DomainError("decons of zero")
        o_digit = self.is_o(z)
        x = self.pred(self.run_count(o_digit, z))
        y = self.run_trim(o_digit, z)
        if self.is_e(y):
            x = self.pred((self.o if o_digit else self.i)(x))
        return x, y

    def cons(self, x: N, y: N) -> N:
        """Pair x and y into a single positive value; inverse of :meth:`decons`."""
        succ = self.succ
        if not self.is_e(y):
            return self.run_times(not self.is_o(y), succ(x), y)
        if self.is_e(x):
            return self._one
        o_digit = not self.is_o(x)
        d_inv = self.o_inv if o_digit else self.i_inv
        return self.run_times(o_digit, succ(d_inv(succ(x))), self.e)

    def bitwise(self, table: tuple[int, int, int, int], x: N, y: N) -> N:
        """The value whose binary bit j is ``table[2 * a + b]``, with a and b
        bit j of x and of y: and is (0, 0, 0, 1), or (0, 1, 1, 1), xor
        (0, 1, 1, 0) and x and not y (0, 0, 1, 0).

        ``table[0]`` must be 0, or the result would have infinitely many 1
        bits.  This is the definition, on Python ints; a representation
        whose values can outgrow an int overrides it.
        """
        if table[0]:
            raise DomainError("a bitwise table mapping two 0 bits to 1 has no finite result")
        a, b = self.to_int(x), self.to_int(y)
        return self.from_int((table[1] and ~a & b) | (table[2] and a & ~b) | (table[3] and a & b))

    def to_list_alt(self, x: N) -> list[N]:
        """Run-splitting bijection from values to lists, via repeated decons."""
        out = []
        is_e, decons = self.is_e, self.decons
        while not is_e(x):
            head, x = decons(x)
            out.append(head)
        return out

    def from_list_alt(self, xs: list[N]) -> N:
        """Inverse of :meth:`to_list_alt`."""
        acc = self.e
        cons = self.cons
        for v in reversed(xs):
            acc = cons(v, acc)
        return acc

    # Run helpers.  The digit is a flag, True for o and False for i, as in
    # _strip_runs.  mul, leftshift, cons/decons and the pairing codec are
    # built on these three, so a representation that can edit a whole run at
    # once overrides them and speeds those callers up without their knowing
    # it.

    def run_count(self, o_digit: bool, x: N) -> N:
        """Length of the outermost run of the given digit; zero when x does
        not open with that digit."""
        is_d, d_inv = (self.is_o, self.o_inv) if o_digit else (self.is_i, self.i_inv)
        n = self.e
        while is_d(x):
            x = d_inv(x)
            n = self.succ(n)
        return n

    def run_trim(self, o_digit: bool, x: N) -> N:
        """x without its outermost run of the given digit."""
        is_d, d_inv = (self.is_o, self.o_inv) if o_digit else (self.is_i, self.i_inv)
        while is_d(x):
            x = d_inv(x)
        return x

    def run_times(self, o_digit: bool, k: N, y: N) -> N:
        """The given digit applied k times to y."""
        d = self.o if o_digit else self.i
        for _ in range(self.to_int(k)):
            y = d(y)
        return y

    # ------------------------------------------------------------------
    # conversions
    # ------------------------------------------------------------------

    # The one conversion format: a list of (digit, length) runs, outermost
    # first, digits alternating, every length at least 1.  These two walk
    # digits and stay the oracle; a representation holding runs overrides them.

    def _strip_runs(self, x: N) -> list[tuple[bool, int]]:
        runs = []
        is_e, is_o, is_i, o_inv, i_inv = self.is_e, self.is_o, self.is_i, self.o_inv, self.i_inv
        while not is_e(x):
            o_digit = is_o(x)
            is_d, d_inv = (is_o, o_inv) if o_digit else (is_i, i_inv)
            n = 0
            while is_d(x):
                x = d_inv(x)
                n += 1
            runs.append((o_digit, n))
        return runs

    def _from_runs(self, runs: list[tuple[bool, int]]) -> N:
        # inverse of _strip_runs: rebuild innermost run first
        x = self.e
        for o_digit, n in reversed(runs):
            d = self.o if o_digit else self.i
            for _ in range(n):
                x = d(x)
        return x

    def from_int(self, k: int) -> N:
        """Build the value for a Python int."""
        if k < 0:
            raise DomainError("negative value")
        return self._from_runs(int_runs(k))

    def to_int(self, x: N) -> int:
        """Numeric value as a Python int."""
        return runs_int(self._strip_runs(x))


# Only these two know the bit text: x + 1 in binary, leading 1 dropped and
# the rest reversed, spells x's digits outermost first, 0 for o and 1 for i.
# Python converts ints to and from binary text in linear time.

_BIT_RUNS = re.compile("0+|1+")


def int_runs(k: int) -> list[tuple[bool, int]]:
    """The runs of the nonnegative int k, outermost first."""
    return [(run[0] == "0", len(run)) for run in _BIT_RUNS.findall(bin(k + 1)[:2:-1])]


def runs_int(runs: list[tuple[bool, int]]) -> int:
    """The int with these runs; inverse of :func:`int_runs`."""
    return int("1" + "".join([("0" if o_digit else "1") * n for o_digit, n in reversed(runs)]), 2) - 1


def view(x, src: NatRep, dst: NatRep):
    """Re-express a value of representation ``src`` in representation ``dst``, through its runs."""
    return dst._from_runs(src._strip_runs(x))
