"""Shared test helpers."""

from functools import lru_cache

from giantnat import LEAF, VNode


def value_if_feasible(x, max_digits=20000):
    """Value of a tree computed straight from the run-length reading, or
    None once the digit expansion would exceed the budget.

    Independent of the library's digit primitives, so it doubles as an
    oracle for the interpretation.  Random trees routinely encode
    astronomically large numbers; those are reported as None rather than
    ever being expanded, and checked by identities instead.
    """
    if x is LEAF:
        return 0
    runs = []
    total = 0
    for counter in (x.head, *x.tail):
        cv = value_if_feasible(counter, max_digits)
        if cv is None:
            return None
        total += cv + 1
        if total > max_digits:
            return None
        runs.append(cv + 1)
    digits = []  # outermost first
    use_o = isinstance(x, VNode)
    for run in runs:
        digits.extend([use_o] * run)
        use_o = not use_o
    v = 0
    for is_o in reversed(digits):
        v = 2 * v + (1 if is_o else 2)
    return v


def residue(x, m):
    """x mod m for a tree x, read straight off its nodes however long its
    runs, so an oracle for giants that no digit expansion reaches.

    Innermost run first, k digits over the value n below them make
    2^k (n + 1) - 1 (o digits) or 2^k (n + 2) - 2 (i digits); k is one more
    than the run's counter, and 2^k mod m comes from :func:`exp2_residue`.
    """
    return _Residues().of(x, m)


def exp2_residue(k, m):
    """2^k mod m for a tree k.  With m = 2^e q, q odd, 2^k mod m is
    2^e (2^(k - e) mod q) once k >= e, and 2^(k - e) mod q depends on
    k - e mod phi(q) alone (Euler): so it needs k mod phi(q), a residue on
    a smaller modulus, and whether k is below e, which a reading capped at
    e tells."""
    return _Residues().exp2(k, m, 0)


class _Residues:
    # one reading: each counter is read once per modulus
    def __init__(self):
        self.memo = {}

    def of(self, x, m):
        if x is LEAF or m == 1:
            return 0
        key = (id(x), m)
        if key not in self.memo:
            counters = (x.head, *x.tail)
            n = 0
            for j in reversed(range(len(counters))):
                p = self.exp2(counters[j], m, 1)
                if (j % 2 == 0) == isinstance(x, VNode):
                    n = (p * (n + 1) - 1) % m
                else:
                    n = (p * (n + 2) - 2) % m
            self.memo[key] = n
        return self.memo[key]

    def exp2(self, k, m, plus):
        # 2^(k + plus) mod m
        e = (m & -m).bit_length() - 1
        low = _capped(k, e)
        if low < e:  # k is exact
            return (1 << low + plus) % m
        q = m >> e
        period = _totient(q)
        return pow(2, (self.of(k, period) + plus - e) % period, q) << e


def _capped(x, cap):
    # min(value of x, cap) off the nodes: a run of k digits alone is worth at
    # least 2^k - 1, at least cap once its counter reaches cap's bit length
    # less one, so counters are read capped there
    if x is LEAF or cap == 0:
        return 0
    counters = (x.head, *x.tail)
    n = 0
    for j in reversed(range(len(counters))):
        k = _capped(counters[j], cap.bit_length() - 1) + 1
        n = (n + 1 << k) - 1 if (j % 2 == 0) == isinstance(x, VNode) else (n + 2 << k) - 2
        if n >= cap:
            return cap
    return n


@lru_cache(maxsize=None)
def _totient(q):
    # Euler's phi by trial division; the moduli here stay small
    out, p = q, 2
    while p * p <= q:
        if q % p == 0:
            out -= out // p
            while q % p == 0:
                q //= p
        p += 1
    return out - out // q if q > 1 else out
