"""Conventional arbitrary-precision representation backed by Python ints.

Values are plain nonnegative ``int`` objects.  The derived generic
algorithms run on the digit primitives below, while the ``oracle_*``
helpers expose native int arithmetic separately so the generic code can be
checked against it.  This representation exists for correctness, not speed.
"""

from __future__ import annotations

import decimal

from .core import DomainError, ParseError, NatRep, Ordering, EQ, GT, LT, int_runs, runs_int


class BigNatRep(NatRep):
    """Digit view of nonnegative Python ints: o(x) = 2x+1, i(x) = 2x+2."""

    e = 0

    @staticmethod
    def o(x: int) -> int:
        return 2 * x + 1

    @staticmethod
    def i(x: int) -> int:
        return 2 * x + 2

    @staticmethod
    def o_inv(x: int) -> int:
        if x <= 0 or not x & 1:
            raise DomainError("o_inv needs an odd positive value")
        return (x - 1) >> 1

    @staticmethod
    def i_inv(x: int) -> int:
        if x <= 0 or x & 1:
            raise DomainError("i_inv needs an even positive value")
        return (x - 2) >> 1

    @staticmethod
    def is_o(x: int) -> bool:
        return x & 1 == 1

    @staticmethod
    def is_e(x: int) -> bool:
        return x == 0

    @staticmethod
    def is_i(x: int) -> bool:
        return x > 0 and x & 1 == 0

    # an int's runs are those of its binary text, so from_int and to_int
    # give back the int they are handed
    _strip_runs = staticmethod(int_runs)
    _from_runs = staticmethod(runs_int)


# ----------------------------------------------------------------------
# Native-arithmetic oracle, kept apart from the generic-contract path so
# the derived algorithms have something independent to be tested against.
# ----------------------------------------------------------------------


def oracle_add(x: int, y: int) -> int:
    return x + y


def oracle_sub(x: int, y: int) -> int:
    if y > x:
        raise DomainError("subtraction underflow")
    return x - y


def oracle_mul(x: int, y: int) -> int:
    return x * y


def oracle_cmp(x: int, y: int) -> Ordering:
    if x < y:
        return LT
    return EQ if x == y else GT


def oracle_pow(x: int, y: int) -> int:
    return x**y

def oracle_div_and_rem(x: int, y: int) -> tuple[int, int]:
    if y == 0:
        raise DomainError("division by zero")
    return divmod(x, y)


def oracle_bitsize(x: int) -> int:
    """Digit count of x in bijective base 2 (the empty string for 0)."""
    return (x + 1).bit_length() - 1


# ----------------------------------------------------------------------
# Decimal text format used by the CLI
# ----------------------------------------------------------------------

# Exact for any length, unlike int <-> str, which the interpreter limits
# to 4300 digits by default.  Sharing one context is safe: exact
# conversions raise no flag, so nothing ever changes it.
_DECIMAL = decimal.Context(prec=decimal.MAX_PREC, Emax=decimal.MAX_EMAX)


def parse_decimal(text: str) -> int:
    for pos, ch in enumerate(text):
        if not ch.isdigit() or not ch.isascii():
            raise ParseError(f"invalid decimal digit {ch!r}", pos)
    if not text:
        raise ParseError("empty decimal literal", 0)
    return int(_DECIMAL.create_decimal(text))


def print_decimal(x: int) -> str:
    return str(_DECIMAL.create_decimal(x))


BIGNAT = BigNatRep()
