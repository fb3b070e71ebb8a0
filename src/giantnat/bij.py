"""Symbolic bijective base-2 digit sequences.

A value is a finite sequence over the digit alphabet {o, i}, stored
first-applied (least significant) digit first; the empty sequence is zero.
This is the uncompressed baseline: every operation pays per digit.

Digits live in an append-only buffer shared between values that are
prefixes of one another, so applying or removing a digit at the outer end
is amortized constant time; a divergent extension copies the prefix once.
"""

from __future__ import annotations

import re

from .core import DomainError, ParseError, NatRep

O_DIGIT = "o"
I_DIGIT = "i"
_DIGIT_RUNS = re.compile("o+|i+")


class BijDigits:
    """Immutable digit-sequence value; construct via :data:`BIJ` or parsing."""

    __slots__ = ("_buf", "_len")

    def __init__(self, buf: list[str], length: int):
        self._buf = buf
        self._len = length

    def __len__(self) -> int:
        return self._len

    def digit_at(self, k: int) -> str:
        """Digit k, counting from the first-applied (least significant) end."""
        if not 0 <= k < self._len:
            raise IndexError(k)
        return self._buf[k]

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, BijDigits):
            return NotImplemented
        if self._len != other._len:
            return False
        if self._buf is other._buf:
            return True
        return self._buf[: self._len] == other._buf[: other._len]

    __hash__ = None  # type: ignore[assignment]

    def __repr__(self) -> str:
        return f"BijDigits({digit_string(self)!r})"

    def _push(self, digit: str) -> "BijDigits":
        buf, ln = self._buf, self._len
        if ln < len(buf):
            if buf[ln] == digit:
                return BijDigits(buf, ln + 1)
        else:
            buf.append(digit)
            # Recheck the slot: a concurrent extender may have claimed it.
            if buf[ln] == digit:
                return BijDigits(buf, ln + 1)
        fresh = buf[:ln]
        fresh.append(digit)
        return BijDigits(fresh, ln + 1)


EMPTY = BijDigits([], 0)


class BijNatRep(NatRep):
    """Digit primitives on :class:`BijDigits` sequences."""

    e = EMPTY

    @staticmethod
    def o(x: BijDigits) -> BijDigits:
        return x._push(O_DIGIT)

    @staticmethod
    def i(x: BijDigits) -> BijDigits:
        return x._push(I_DIGIT)

    @staticmethod
    def o_inv(x: BijDigits) -> BijDigits:
        ln = x._len
        if ln == 0 or x._buf[ln - 1] != O_DIGIT:
            raise DomainError("o_inv needs an outermost o digit")
        return BijDigits(x._buf, ln - 1)

    @staticmethod
    def i_inv(x: BijDigits) -> BijDigits:
        ln = x._len
        if ln == 0 or x._buf[ln - 1] != I_DIGIT:
            raise DomainError("i_inv needs an outermost i digit")
        return BijDigits(x._buf, ln - 1)

    @staticmethod
    def is_o(x: BijDigits) -> bool:
        return x._len > 0 and x._buf[x._len - 1] == O_DIGIT

    @staticmethod
    def is_e(x: BijDigits) -> bool:
        return x._len == 0

    @staticmethod
    def is_i(x: BijDigits) -> bool:
        return x._len > 0 and x._buf[x._len - 1] == I_DIGIT

    # The run pair over the digit buffer as one string: the generic pair
    # walks it a digit at a time.

    def _strip_runs(self, x: BijDigits) -> list[tuple[bool, int]]:
        outermost_first = "".join(x._buf[: x._len])[::-1]
        return [(run[0] == O_DIGIT, len(run)) for run in _DIGIT_RUNS.findall(outermost_first)]

    def _from_runs(self, runs: list[tuple[bool, int]]) -> BijDigits:
        digits = "".join([(O_DIGIT if o_digit else I_DIGIT) * n for o_digit, n in reversed(runs)])
        return BijDigits(list(digits), len(digits))


# ----------------------------------------------------------------------
# Text formats
# ----------------------------------------------------------------------


def digit_string(x: BijDigits) -> str:
    """Compact form: digits least significant first, "e" for zero.  42 <-> "oioii"."""
    if x._len == 0:
        return "e"
    return "".join(x._buf[: x._len])


def parse_digit_string(text: str) -> BijDigits:
    """Inverse of :func:`digit_string`."""
    if text == "e":
        return EMPTY
    if not text:
        raise ParseError("empty digit string (zero is written 'e')", 0)
    for pos, ch in enumerate(text):
        if ch not in (O_DIGIT, I_DIGIT):
            raise ParseError(f"invalid digit {ch!r}", pos)
    return BijDigits(list(text), len(text))


def nested_form(x: BijDigits) -> str:
    """Constructor-application display, outermost digit first.

    Zero prints as "B"; 42 prints as "I (I (O (I (O B))))".
    """
    out = "B"
    for k in range(x._len):
        label = "O" if x._buf[k] == O_DIGIT else "I"
        out = f"{label} {out}" if out == "B" else f"{label} ({out})"
    return out


BIJ = BijNatRep()
