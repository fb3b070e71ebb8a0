"""Special-number constructors, a prime stream, the Lucas-Lehmer test, and
recursive workloads (Ackermann, Syracuse), all written against the generic
contract so they run on every representation.

Nothing here tells one representation from another.  mersenne, fermat
and perfect build on exp2 and leftshift, node-level on trees through the
generic identity a4 and run_times, with pred and succ stepping over whole
runs, so numbers like 2^43112609 - 1 stay a handful of nodes.  fastmod
divides by a power of two, which div_and_rem hands to split.
"""

from __future__ import annotations

from typing import Callable, Iterator

from .codecs import pair_rest
from .core import DomainError, NatRep, GT, LT
from .tree import Tree, TREE

# Exponent of the 45th known Mersenne prime (GIMPS, 2008), the showcase
# giant throughout this package: 43 million bits, a handful of tree nodes.
PRIME45 = 43112609


def mersenne(rep: NatRep, p):
    """2^p - 1."""
    return rep.pred(rep.exp2(p))


def fermat(rep: NatRep, n):
    """2^(2^n) + 1."""
    return rep.succ(rep.exp2(rep.exp2(n)))


def perfect(rep: NatRep, p):
    """2^(p-1) * (2^p - 1), perfect whenever 2^p - 1 is prime; needs p >= 2."""
    if rep.cmp(p, rep.i(rep.e)) is LT:
        raise DomainError("perfect needs p >= 2")
    return rep.leftshift(rep.pred(p), mersenne(rep, p))


def mersenne45() -> Tree:
    """Tree form of 2^PRIME45 - 1."""
    return mersenne(TREE, TREE.from_int(PRIME45))


def perfect45() -> Tree:
    """Tree form of 2^(PRIME45-1) * (2^PRIME45 - 1)."""
    return perfect(TREE, TREE.from_int(PRIME45))


# ----------------------------------------------------------------------
# Primes by trial division against the stream itself
# ----------------------------------------------------------------------


def primes(rep: NatRep) -> Iterator:
    """Ascending stream of all primes, built from the representation's own
    arithmetic: trial division of each odd candidate by earlier odd primes
    up to its square root.  Each known prime is kept with its square."""
    cmp, mul, div_and_rem, is_e = rep.cmp, rep.mul, rep.div_and_rem, rep.is_e
    three = rep.o(rep.o(rep.e))
    yield rep.i(rep.e)
    yield three
    known = [(three, mul(three, three))]
    candidate = rep.succ(rep.succ(three))
    while True:
        # prime iff no known odd prime up to its square root divides it
        for p, square in known:
            if cmp(square, candidate) is GT:
                known.append((candidate, mul(candidate, candidate)))
                yield candidate
                break
            if is_e(div_and_rem(candidate, p)[1]):
                break
        candidate = rep.succ(rep.succ(candidate))


# ----------------------------------------------------------------------
# Lucas-Lehmer
# ----------------------------------------------------------------------


def fastmod(rep: NatRep, k, m):
    """k mod (m - 1) for m a power of 2, folding quotients back into remainders.
    m below 2 is a domain error: on a modulus m - 1 of zero the fold never ends."""
    m1 = m if rep.is_e(m) else rep.pred(m)
    if rep.is_e(m1):
        raise DomainError("fastmod needs m >= 2")
    while True:
        if k == m1:
            return rep.e
        if rep.cmp(k, m) is LT:
            return k
        q, r = rep.div_and_rem(k, m)
        k = rep.add(q, r)


def lucas_lehmer(rep: NatRep, p) -> bool:
    """True iff the Lucas-Lehmer residue for 2^p - 1 vanishes; needs p >= 2.

    Note p = 2 yields False although 2^2 - 1 = 3 is prime: the iteration
    starts from 4 and runs p - 2 times, so it never reduces for p = 2.
    The stream consumers below simply skip that exponent.
    """
    if rep.cmp(p, rep.i(rep.e)) is LT:
        raise DomainError("lucas_lehmer needs p >= 2")
    rounds = rep.pred(rep.pred(p))
    m = rep.exp2(p)
    y = rep.i(rep.o(rep.e))  # 4
    is_e, pred, mul = rep.is_e, rep.pred, rep.mul
    while not is_e(rounds):
        y = fastmod(rep, pred(pred(mul(y, y))), m)
        rounds = pred(rounds)
    return is_e(y)


def mersenne_prime_exps(rep: NatRep) -> Iterator:
    """Prime exponents p (from 3 on) whose 2^p - 1 passes Lucas-Lehmer."""
    for p in primes(rep):
        if lucas_lehmer(rep, p):
            yield p


def mersenne_primes(rep: NatRep) -> Iterator:
    """The Mersenne primes 2^p - 1 themselves."""
    for p in mersenne_prime_exps(rep):
        yield mersenne(rep, p)


# ----------------------------------------------------------------------
# Recursive workloads
# ----------------------------------------------------------------------


def ack(rep: NatRep, m, x):
    """Ackermann function; exercises succ and pred heavily.

    The nesting is unwound onto an explicit stack of first arguments, since
    the call depth for even small inputs exceeds interpreter limits.
    """
    is_e, succ, pred = rep.is_e, rep.succ, rep.pred
    one = rep.o(rep.e)
    stack = [m]
    while stack:
        m = stack.pop()
        if is_e(m):
            x = succ(x)
        elif is_e(x):
            stack.append(pred(m))
            x = one
        else:
            stack.append(pred(m))
            stack.append(m)
            x = pred(x)
    return x


def syracuse(rep: NatRep, n):
    """Odd part of 3n + 2, halved and decremented: the Collatz-style step."""
    return pair_rest(rep, rep.add(n, rep.i(n)))


def nsyr(rep: NatRep, n) -> list:
    """Iterate :func:`syracuse` down to zero; the list starts at n and ends at 0."""
    out = []
    is_e = rep.is_e
    while not is_e(n):
        out.append(n)
        n = syracuse(rep, n)
    out.append(rep.e)
    return out


def kth(rep: NatRep, f: Callable, k, x):
    """Apply f k times to x, k counted down in the representation."""
    is_e, pred = rep.is_e, rep.pred
    while not is_e(k):
        x = f(x)
        k = pred(k)
    return x


# ----------------------------------------------------------------------
# Cross-checking identities between digit iteration and arithmetic
# ----------------------------------------------------------------------


def a1(rep: NatRep, k) -> bool:
    """2^k equals one more than k stacked o digits on zero."""
    return rep.pow(rep.i(rep.e), k) == rep.succ(kth(rep, rep.o, k, rep.e))


def a2(rep: NatRep, k) -> bool:
    """2^k equals two more than k-1 stacked i digits on zero; needs k >= 1."""
    lhs = rep.pow(rep.i(rep.e), k)
    rhs = rep.succ(rep.succ(kth(rep, rep.i, rep.pred(k), rep.e)))
    return lhs == rhs


def a3(rep: NatRep, n, b) -> bool:
    """n stacked o digits on b equals 2^n * (b + 1) - 1."""
    u = kth(rep, rep.o, n, b)
    v = rep.pred(rep.mul(rep.pow(rep.i(rep.e), n), rep.succ(b)))
    return u == v


def a4(rep: NatRep, x, y) -> bool:
    """2^x * y equals one more than x stacked o digits on y - 1; needs y >= 1."""
    lhs = rep.mul(rep.pow(rep.i(rep.e), x), y)
    rhs = rep.succ(kth(rep, rep.o, x, rep.pred(y)))
    return lhs == rhs
