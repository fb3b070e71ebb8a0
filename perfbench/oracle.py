"""Independent oracles for checking giantnat results.

Nothing here calls giantnat.  Library tree values are read through the
public node fields (``head``, ``tail``, the ``VNode`` class and ``LEAF``)
the way the test suite's helpers read them; CLI text is read by a small
parser of our own.  Values then become Python ints, checked with Python's
own operators.

A tree is mirrored as a *struct*: ``"T"`` for zero, else
``(tag, head, tail)`` with tag ``"V"`` (outermost run of o digits) or
``"W"`` (outermost run of i digits), ``head``/``tail`` being the counter
structs.  Run j of the bijective base-2 digit string, read outermost
first and alternating o,i,... (V) or i,o,... (W), has length counter_j + 1.
"""

from __future__ import annotations

import hashlib
import sys
from functools import lru_cache


class WrongResult(Exception):
    """A result disagrees with its oracle."""


def expect(ok: bool, what: str) -> None:
    if not ok:
        raise WrongResult(what)


# ----------------------------------------------------------------------
# ints <-> bijective base-2 runs
# ----------------------------------------------------------------------


def _trailing_zeros(n: int) -> int:
    return (n & -n).bit_length() - 1


def int_runs(n: int) -> tuple[bool, list[int]]:
    """(outermost run is o, run lengths outermost first) of n > 0.

    o(v) = 2v+1 strips as v = n >> 1 while n is odd, so an o run is the
    count of trailing 1 bits; i(v) = 2v+2 strips as n+2 -> (n+2)/2, so an
    i run is the count of trailing 0 bits of n+2, ending early at zero.
    """
    first_o = bool(n & 1)
    runs = []
    is_o = first_o
    while n:
        if is_o:
            k = _trailing_zeros(n + 1)
            n >>= k
        else:
            y = n + 2
            k = _trailing_zeros(y)
            y >>= k
            if y == 1:  # reached zero after k-1 steps
                k -= 1
                n = 0
            else:
                n = y - 2
        runs.append(k)
        is_o = not is_o
    return first_o, runs


def runs_int(first_o: bool, runs: list[int]) -> int:
    """Inverse of :func:`int_runs`: o^k(v) = 2^k(v+1)-1, i^k(v) = 2^k(v+2)-2."""
    v = 0
    is_o = first_o if len(runs) % 2 else not first_o  # innermost run's digit
    for k in reversed(runs):
        v = ((v + 1) << k) - 1 if is_o else ((v + 2) << k) - 2
        is_o = not is_o
    return v


def bitsize(n: int) -> int:
    """Digit count of n in bijective base 2."""
    return (n + 1).bit_length() - 1


# ----------------------------------------------------------------------
# structs
# ----------------------------------------------------------------------


@lru_cache(maxsize=4096)
def int_struct(n: int):
    """Struct of the compressed tree for n."""
    if n == 0:
        return "T"
    first_o, runs = int_runs(n)
    counters = [int_struct(k - 1) for k in runs]
    return ("V" if first_o else "W", counters[0], tuple(counters[1:]))


def struct_int(s, budget: int = 1 << 22):
    """Value of a struct, or None when its digit string exceeds ``budget``."""
    if s == "T":
        return 0
    tag, head, tail = s
    runs = []
    total = 0
    for c in (head, *tail):
        cv = struct_int(c, budget)
        if cv is None:
            return None
        total += cv + 1
        if total > budget:
            return None
        runs.append(cv + 1)
    return runs_int(tag == "V", runs)


def struct_text(s) -> str:
    """Canonical tree text, the grammar ``giantnat`` prints."""
    if s == "T":
        return "T"
    tag, head, tail = s
    h = "T" if head == "T" else f"({struct_text(head)})"
    return f"{tag} {h} [{','.join(struct_text(c) for c in tail)}]"


def dag_size(s) -> int:
    """Distinct subtrees of a struct, leaf included: its folded DAG's node count."""
    seen = set()
    todo = [s]
    while todo:
        u = todo.pop()
        if u in seen:
            continue
        seen.add(u)
        if u != "T":
            todo.append(u[1])
            todo.extend(u[2])
    return len(seen)


def dual_struct(s):
    """Swapping every digit keeps the runs and flips the outermost kind."""
    if s == "T":
        return "T"
    return ("W" if s[0] == "V" else "V", s[1], s[2])


def parse_tree_text(text: str):
    """Struct of tree text; iterative, so any nesting depth reads.

    Raises ValueError on text outside the grammar.  Spaces are optional.
    """
    s = text.replace(" ", "")
    pos = 0
    # frames: [tag, head, items, state]; state "head" or "tail"
    stack: list[list] = []
    result = None

    def fail(msg):
        raise ValueError(f"{msg} at {pos} in tree text")

    while True:
        if pos >= len(s):
            fail("unexpected end")
        ch = s[pos]
        if ch == "T":
            pos += 1
            value = "T"
        elif ch in "VW":
            pos += 1
            if pos < len(s) and s[pos] == "T":
                pos += 1
                stack.append([ch, "T", [], "tail"])
                if s[pos:pos + 1] != "[":
                    fail("expected [")
                pos += 1
                if s[pos:pos + 1] == "]":
                    pos += 1
                    frame = stack.pop()
                    value = (frame[0], frame[1], ())
                else:
                    continue
            elif pos < len(s) and s[pos] == "(":
                pos += 1
                stack.append([ch, None, [], "head"])
                continue
            else:
                fail("expected head")
        else:
            fail(f"unexpected {ch!r}")
        # attach value to the enclosing frame, closing frames as they complete
        while True:
            if not stack:
                result = value
                break
            frame = stack[-1]
            if frame[3] == "head":
                frame[1] = value
                frame[3] = "tail"
                if s[pos:pos + 2] != ")[":
                    fail("expected )[")
                pos += 2
                if s[pos:pos + 1] == "]":
                    pos += 1
                    stack.pop()
                    value = (frame[0], frame[1], ())
                    continue
                break
            frame[2].append(value)
            if s[pos:pos + 1] == ",":
                pos += 1
                break
            if s[pos:pos + 1] != "]":
                fail("expected , or ]")
            pos += 1
            stack.pop()
            value = (frame[0], frame[1], tuple(frame[2]))
        if result is not None:
            break
    if pos != len(s):
        fail("trailing text")
    return result


def parse_dot(text: str):
    """Struct of the tree a ``dag_to_dot`` text describes, and its node count."""
    tags: dict[int, str] = {}
    edges: dict[int, list[tuple[int, int]]] = {}
    lines = text.strip().splitlines()
    if not lines or lines[0].strip() != "digraph tree {" or lines[-1].strip() != "}":
        raise ValueError("not a digraph")
    for line in lines[1:-1]:
        line = line.strip()
        left, _, label = line.partition(" [label=\"")
        label = label.rstrip("\"]")
        if " -> " in left:
            a, b = left.split(" -> ")
            edges.setdefault(int(a[1:]), []).append((int(label), int(b[1:])))
        else:
            tags[int(left[1:])] = label
    memo: dict[int, object] = {}

    def build(nid, depth=0):
        if depth > 10_000:
            raise ValueError("dot graph too deep")
        if nid in memo:
            return memo[nid]
        kids = [c for _, c in sorted(edges.get(nid, []))]
        tag = tags[nid]
        if tag == "T":
            s = "T"
        else:
            built = [build(c, depth + 1) for c in kids]
            s = (tag, built[0], tuple(built[1:]))
        memo[nid] = s
        return s

    return build(0), len(tags)


# ----------------------------------------------------------------------
# library values
# ----------------------------------------------------------------------


def tree_struct(x, vnode, leaf):
    """Struct of a library tree value, read through its public fields."""
    memo: dict[int, object] = {}

    def walk(u):
        if u is leaf:
            return "T"
        got = memo.get(id(u))
        if got is None:
            got = ("V" if isinstance(u, vnode) else "W", walk(u.head), tuple(walk(c) for c in u.tail))
            memo[id(u)] = got
        return got

    return walk(x)


def bij_int(x) -> int:
    """Value of a BijDigits sequence, read through ``len`` and ``digit_at``."""
    v = 0
    for k in range(len(x)):
        v = 2 * v + (1 if x.digit_at(k) == "o" else 2)
    return v


def bij_text(n: int) -> str:
    """Digit-string text: first-applied digit first, "e" for zero."""
    if n == 0:
        return "e"
    first_o, runs = int_runs(n)
    out = []
    is_o = first_o
    for k in runs:
        out.append(("o" if is_o else "i") * k)
        is_o = not is_o
    return "".join(out)[::-1]


def bij_text_int(text: str) -> int:
    if text == "e":
        return 0
    v = 0
    for ch in text:
        if ch not in "oi":
            raise ValueError(f"bad digit {ch!r}")
        v = 2 * v + (1 if ch == "o" else 2)
    return v


def dec_text(n: int) -> str:
    """Decimal text of any size; lifts the interpreter's digit limit only here."""
    old = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        return str(n)
    finally:
        sys.set_int_max_str_digits(old)


def digest_text(text: str) -> str:
    return text if len(text) <= 64 else "h:" + hashlib.sha256(text.encode()).hexdigest()[:16]


def short(v) -> str:
    """Printable head of a value of any size, for failure messages."""
    if isinstance(v, int) and v.bit_length() > 200:
        return canon(v)
    return repr(v)[:60]


def canon(n: int) -> str:
    """Short stable digest of an int for result digests."""
    if n.bit_length() <= 256:
        return str(n)
    raw = n.to_bytes((n.bit_length() + 7) // 8, "little")
    return f"b{n.bit_length()}:{hashlib.sha256(raw).hexdigest()[:16]}"


# ----------------------------------------------------------------------
# codecs: pairing 2^x (2y+1), lists, multisets, sets, bit algebra
# ----------------------------------------------------------------------


def enc_list(ns: list[int]) -> int:
    acc = 0
    for v in reversed(ns):
        acc = (2 * acc + 1) << v
    return acc


def mset_to_list(ms: list[int]) -> list[int]:
    return [b - a for a, b in zip([0, *ms], ms)]


def set_to_list(xs: list[int]) -> list[int]:
    return [v - 1 for v in mset_to_list([x + 1 for x in xs])]


def encode_view(view: str, elems: list[int]) -> int:
    if view == "list":
        return enc_list(elems)
    if view == "mset":
        return enc_list(mset_to_list(elems))
    return enc_list(set_to_list(elems))


def bits_op(op: str, vals: list[int]) -> int:
    if op == "and":
        return vals[0] & vals[1]
    if op == "or":
        return vals[0] | vals[1]
    if op == "xor":
        return vals[0] ^ vals[1]
    if op == "dif":
        return vals[0] & ~vals[1]
    if op == "ite":
        x, y, z = vals
        return (x & y) | (~x & z)
    bitlen, x = vals  # not
    return ((1 << bitlen) - 1) ^ x


# ----------------------------------------------------------------------
# number theory
# ----------------------------------------------------------------------


def first_primes(k: int) -> list[int]:
    out = []
    n = 2
    while len(out) < k:
        if all(n % p for p in out if p * p <= n):
            out.append(n)
        n += 1
    return out


def is_prime(n: int) -> bool:
    if n < 2:
        return False
    d = 2
    while d * d <= n:
        if n % d == 0:
            return False
        d += 1
    return True


def mersenne_prime_exps(k: int) -> list[int]:
    """First k prime p >= 3 with 2^p - 1 prime (the library skips p = 2)."""
    out = []
    p = 3
    while len(out) < k:
        if is_prime(p) and _lucas_lehmer(p):
            out.append(p)
        p += 2
    return out


def _lucas_lehmer(p: int) -> bool:
    m = (1 << p) - 1
    s = 4
    for _ in range(p - 2):
        s = (s * s - 2) % m
    return s == 0


def ack(m: int, n: int) -> int:
    if m == 0:
        return n + 1
    if m == 1:
        return n + 2
    if m == 2:
        return 2 * n + 3
    if m == 3:
        return (1 << (n + 3)) - 3
    raise ValueError("ack oracle covers m <= 3")


def syracuse(n: int) -> int:
    z = 3 * n + 2
    z >>= _trailing_zeros(z)
    return z >> 1


def nsyr(n: int) -> list[int]:
    out = []
    while n:
        out.append(n)
        n = syracuse(n)
    out.append(0)
    return out
