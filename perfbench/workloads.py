"""The three benchmark workloads, built from a seed.

Each workload function takes a seeded ``random.Random``, draws the inputs
and computes the oracle's expected values (see :mod:`oracle`), and returns
a ``build`` function.  ``build`` takes the freshly imported ``giantnat``
modules and does only the library's part of set-up: it converts the inputs
into the representations and returns a :class:`Workload`, a fixed list of
timed operations, each with an independent check, plus the boundary probes
that are run once per run outside the timed list.  Set-up time is the time
of the import and of ``build``; :meth:`Workload.verify` then checks the
converted inputs, untimed.  A seed
changes operand values, never the number or kind of operations, and the
operands are drawn so that the work per operation barely depends on the
seed: the run-to-run spread across seeds has to stay within the bounds in
``BENCHMARK.json``.
"""

from __future__ import annotations

import io
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass, field
from itertools import islice
from random import Random
from typing import Any, Callable

import oracle as orc
from oracle import expect


@dataclass
class Op:
    """One timed operation.

    ``check`` runs outside the timed window on the result and returns a
    canonical string for the run's result digest; it raises
    :class:`oracle.WrongResult` on a wrong result.
    """

    name: str
    rep: str  # representation the time is charged to: tree, bij or int
    run: Callable[[], Any]
    check: Callable[[Any], str]
    group: str = ""
    reps: int = 1  # back-to-back runs per pass; the pass keeps the fastest


@dataclass
class Workload:
    ops: list[Op]
    probes: list[Op] = field(default_factory=list)
    budget_s: float = 10.0  # per-op budget in the timed list
    # checks of the converted inputs, run once after set-up, outside its timing
    verify: Callable[[], None] = lambda: None


PROBE_BUDGET_S = 3.0


# ----------------------------------------------------------------------
# value readers: library values -> ints, independently of the library
# ----------------------------------------------------------------------


def _readers(gn):
    vnode, leaf = gn.tree.VNode, gn.tree.LEAF
    return {
        "tree": lambda x: orc.struct_int(orc.tree_struct(x, vnode, leaf)),
        "bij": orc.bij_int,
        "int": lambda x: x,
    }


def _int_check(read, want: int, what: str):
    def check(result):
        got = read(result)
        if got != want:
            raise orc.WrongResult(f"{what}: got {orc.short(got)}, want {orc.short(want)}")
        return orc.canon(got)

    return check


# ----------------------------------------------------------------------
# giant-tree
# ----------------------------------------------------------------------

# Digit counts 2^8 .. 2^12: 16 times more digits at the top than at the
# bottom.  A pass has to stay under a second so that a 30 s run times every
# op some 30 times (see run.per_op_times): the 2^13 rung alone takes 0.66 s
# and the 2^14 rung 1.3 s.  The random shape stops one rung lower: with
# many short runs every digit primitive copies the node's tail, so its
# cost grows about quadratically.
MERSENNE_RUNGS = (8, 9, 10, 11, 12)
RANDOM_RUNGS = (8, 9, 10, 11)
# Ops of a few milliseconds or less run several times per pass: their
# fastest time needs more samples than the pass count alone gives.
SMALL_RUNG = 9
SMALL_REPS = 4
LADDER_OPS = ("pred", "succ", "cmp", "add", "sub", "mul", "db", "hf")


def _ladder_operands(shape: str, n: int, rng: Random) -> tuple[int, int]:
    """An odd and an even operand of exactly n digits."""
    if shape == "mersenne":
        # a long outer run closed by a short one: a handful of tree nodes
        r, s = rng.randrange(1, 33), rng.randrange(1, 33)
        return orc.runs_int(True, [n - r, r]), orc.runs_int(False, [n - s, s])
    # random digits, with the run lengths of the expected profile (half the
    # runs of length 1, a quarter of length 2, ...) shuffled by the seed:
    # the tree's size, and so the work, is the same on every seed
    profile = []
    for length in range(1, n.bit_length()):
        profile += [length] * (n >> (length + 1))
    if sum(profile) < n:
        profile.append(n - sum(profile))
    odd_runs, even_runs = profile[:], profile[:]
    rng.shuffle(odd_runs)
    rng.shuffle(even_runs)
    return orc.runs_int(True, odd_runs), orc.runs_int(False, even_runs)


def giant_tree(rng: Random):
    operands = []  # (shape, k, odd operand, even operand)
    for shape, rungs in (("mersenne", MERSENNE_RUNGS), ("random", RANDOM_RUNGS)):
        for k in rungs:
            xi, yi = _ladder_operands(shape, 1 << k, rng)
            expect(orc.bitsize(xi) == orc.bitsize(yi) == 1 << k, "ladder operand size")
            operands.append((shape, k, xi, yi))
    build_node_ops = _node_ops(rng)

    def build(gn) -> Workload:
        T = gn.tree.TREE
        read = _readers(gn)["tree"]
        ops: list[Op] = []
        three = T.from_int(3)
        for shape, k, xi, yi in operands:
            x, y = T.from_int(xi), T.from_int(yi)
            big, small, bigi, smalli = (x, y, xi, yi) if xi >= yi else (y, x, yi, xi)
            cases = {
                "pred": (lambda x=x: T.pred(x), xi - 1),
                "succ": (lambda y=y: T.succ(y), yi + 1),
                "cmp": (lambda x=x, y=y: T.cmp(x, y).value, (xi > yi) - (xi < yi)),
                "add": (lambda x=x, y=y: T.add(x, y), xi + yi),
                "sub": (lambda b=big, s=small: T.sub(b, s), bigi - smalli),
                "mul": (lambda x=x: T.mul(three, x), 3 * xi),
                "db": (lambda x=x: T.db(x), 2 * xi),
                "hf": (lambda y=y: T.hf(y), yi // 2),
            }
            for opname in LADDER_OPS:
                run, want = cases[opname]
                ops.append(Op(f"{shape}:2^{k}:{opname}", "tree", run,
                              _int_check(int if opname == "cmp" else read, want, f"{opname} 2^{k}"),
                              f"{shape}:{k}",
                              reps=SMALL_REPS if k <= SMALL_RUNG else 1))
        node_ops, verify = build_node_ops(gn, read)
        for op in node_ops:
            op.reps = SMALL_REPS
            ops.append(op)
        return Workload(ops, verify=verify)

    return build


def _node_ops(rng: Random):
    """Node-level overrides on mersenne45, perfect45, a Fermat number and a
    seeded shift amount, checked by structure, paper constants and
    identities: mersenne45 and perfect45 are never expanded.

    Draws the seeded values and the expected structs now; returns
    ``build(gn, read) -> (ops, verify)``."""
    # PRIME45 of giantnat.numtheory: the exponent of the 45th Mersenne prime
    p = 43112609
    fk = rng.randrange(12, 17)
    fermat_i = (1 << (1 << fk)) + 1
    ki = rng.randrange(1 << 16, 1 << 20)
    # the inputs against the paper: 2^p - 1 is one run of p o digits that
    # folds to a 6-node DAG; 2^(p-1) (2^p - 1) is one i digit, p-2 o digits
    # and p-1 i digits
    S = {"m45": ("V", orc.int_struct(p - 1), ()),
         "p45": ("W", "T", (orc.int_struct(p - 3), orc.int_struct(p - 2))),
         "F": orc.int_struct(fermat_i),
         "k": orc.int_struct(ki)}
    expect(orc.dag_size(S["m45"]) == 6, "mersenne45 folds to a 6-node DAG")

    def exp2_struct(n: int):  # 2^n is one i digit then n-1 o digits
        return ("W", "T", (orc.int_struct(n - 2),))

    want = {
        "exp2:k": exp2_struct(ki),
        "exp2:F": exp2_struct(fermat_i),
        "leftshift:k,F": orc.int_struct(fermat_i << ki),
        # 2^k * perfect45 = 2^(p-1+k) (2^p - 1): runs i, o^(p+k-2), i^(p-1)
        "leftshift:k,p45": ("W", "T", (orc.int_struct(p + ki - 3), orc.int_struct(p - 2))),
        # decons splits a lone run of p o digits into (2p - 2, 0)
        "decons:m45": (orc.int_struct(2 * p - 2), "T"),
        **{f"dual:{name}": orc.dual_struct(S[name]) for name in ("m45", "p45", "F")},
    }

    def build(gn, read):
        T, nt = gn.tree.TREE, gn.numtheory
        vnode, leaf = gn.tree.VNode, gn.tree.LEAF
        vals = {"m45": nt.mersenne45(), "p45": nt.perfect45(),
                "F": nt.fermat(T, T.from_int(fk)), "k": T.from_int(ki)}
        m45, p45, F, k = vals.values()
        one, two = T.from_int(1), T.from_int(2)

        def struct(x):
            return orc.tree_struct(x, vnode, leaf)

        def verify():
            expect(nt.PRIME45 == p, "PRIME45")
            for name, v in vals.items():
                expect(struct(v) == S[name], f"{name} structure")

        def same(*want, what: str):
            """Check that a result (or a pair of results) has the given structs."""
            def check(result):
                got = tuple(struct(v) for v in result) if len(want) > 1 else (struct(result),)
                expect(got == want, what)
                return orc.digest_text(";".join(map(orc.struct_text, got)))
            return check

        ops = [
            Op("exp2:k", "tree", lambda: T.exp2(k), same(want["exp2:k"], what="exp2 k")),
            Op("exp2:F", "tree", lambda: T.exp2(F), same(want["exp2:F"], what="exp2 fermat")),
            Op("leftshift:k,F", "tree", lambda: T.leftshift(k, F),
               same(want["leftshift:k,F"], what="leftshift k fermat")),
            Op("leftshift:k,p45", "tree", lambda: T.leftshift(k, p45),
               same(want["leftshift:k,p45"], what="leftshift k perfect45")),
            Op("bitsize:m45", "tree", lambda: T.bitsize(m45), _int_check(read, 43112609, "bitsize mersenne45")),
            Op("bitsize:p45", "tree", lambda: T.bitsize(p45), _int_check(read, 2 * p - 2, "bitsize perfect45")),
            Op("bitsize:F", "tree", lambda: T.bitsize(F),
               _int_check(read, orc.bitsize(fermat_i), "bitsize fermat")),
            # bitsize(2^k * 2) == k + 1 (leftshift(k, 1) = 2^k has bitsize k)
            Op("bitsize-leftshift:k,2", "tree", lambda: T.bitsize(T.leftshift(k, two)),
               _int_check(read, ki + 1, "bitsize(leftshift(k, 2))")),
            Op("bitsize-leftshift:F,1", "tree", lambda: T.bitsize(T.leftshift(F, one)),
               same(S["F"], what="bitsize(leftshift(fermat, 1))")),
            Op("decons:m45", "tree", lambda: T.decons(m45), same(*want["decons:m45"], what="decons mersenne45")),
        ]
        for name in ("m45", "p45", "F"):
            x = vals[name]
            ops.append(Op(f"dual:{name}", "tree", lambda x=x: T.dual(x),
                          same(want[f"dual:{name}"], what=f"dual {name}")))
            ops.append(Op(f"dual-dual:{name}", "tree", lambda x=x: T.dual(T.dual(x)),
                          same(S[name], what=f"dual(dual {name})")))
        for a, b in (("m45", "p45"), ("p45", "F"), ("F", "m45"), ("k", "p45")):
            ops.append(Op(f"decons-cons:{a},{b}", "tree",
                          lambda x=vals[a], y=vals[b]: T.decons(T.cons(x, y)),
                          same(S[a], S[b], what=f"decons(cons({a}, {b}))")))
        return ops, verify

    return build


# ----------------------------------------------------------------------
# desk-numtheory
# ----------------------------------------------------------------------

# Sized so that a pass takes under a second: each op needs tens of
# samples for a steady fastest time (ack(3,5) alone costs 0.27 s a pass).
ACK_KS = (1, 2, 3, 4)
PRIMES_COUNT = 40
MERSENNE_COUNT = 4
DESK_SMALL_REPS = 3  # ack and nsyr ops take a few milliseconds or less
# One nsyr start per target total bit length of its trajectory's values:
# the seed picks which start, among those within NSYR_SLACK bits of the
# target.  That total sets the work (an op's time and its total correlate
# at 0.99 on all three representations), so the work is the same on every
# seed; Collatz-style trajectories vary too much for a few dozen random
# starts, or starts of fixed trajectory lengths, to cost the same.
NSYR_BITS = tuple(range(100, 500, 10))
NSYR_SLACK = 2
NSYR_RANGE = (1000, 5000)


def _nsyr_starts(rng: Random) -> list[int]:
    by_bits: dict[int, list[int]] = {}
    for n in range(*NSYR_RANGE):
        by_bits.setdefault(sum(v.bit_length() for v in orc.nsyr(n)), []).append(n)
    return [rng.choice([n for b in range(target - NSYR_SLACK, target + NSYR_SLACK + 1)
                        for n in by_bits.get(b, [])])
            for target in NSYR_BITS]


def desk_numtheory(rng: Random):
    starts = _nsyr_starts(rng)
    nsyr_want = [orc.nsyr(s) for s in starts]
    ack_want = [orc.ack(3, k) for k in ACK_KS]
    primes_want = orc.first_primes(PRIMES_COUNT)
    mp_want = [(1 << q) - 1 for q in orc.mersenne_prime_exps(MERSENNE_COUNT)]

    def build(gn) -> Workload:
        nt = gn.numtheory
        readers = _readers(gn)
        ops: list[Op] = []
        for tag, rep in (("tree", gn.tree.TREE), ("bij", gn.bij.BIJ), ("int", gn.bignat.BIGNAT)):
            read = readers[tag]

            def list_check(want, what, read=read):
                def check(result):
                    got = [read(v) for v in result]
                    expect(got == want, f"{what}: got {got[:8]}..., want {want[:8]}...")
                    return orc.digest_text(",".join(map(orc.canon, got)))
                return check

            three = rep.from_int(3)
            for k, want in zip(ACK_KS, ack_want):
                kv = rep.from_int(k)
                ops.append(Op(f"{tag}:ack(3,{k})", tag, lambda rep=rep, kv=kv, t=three: nt.ack(rep, t, kv),
                              _int_check(read, want, f"ack(3,{k})"), reps=DESK_SMALL_REPS))
            ops.append(Op(f"{tag}:primes({PRIMES_COUNT})", tag,
                          lambda rep=rep: list(islice(nt.primes(rep), PRIMES_COUNT)),
                          list_check(primes_want, "primes")))
            ops.append(Op(f"{tag}:mersenne_primes({MERSENNE_COUNT})", tag,
                          lambda rep=rep: list(islice(nt.mersenne_primes(rep), MERSENNE_COUNT)),
                          list_check(mp_want, "mersenne_primes")))
            for j, (s, want) in enumerate(zip(starts, nsyr_want)):
                sv = rep.from_int(s)
                ops.append(Op(f"{tag}:nsyr#{j}", tag, lambda rep=rep, sv=sv: nt.nsyr(rep, sv),
                              list_check(want, f"nsyr({s})"), reps=DESK_SMALL_REPS))
        return Workload(ops)

    return build


# ----------------------------------------------------------------------
# codec-cli
# ----------------------------------------------------------------------

CONVERT_PAIRS = (("dec", "tree"), ("tree", "dec"), ("dec", "bij"), ("bij", "dec"),
                 ("tree", "bij"), ("bij", "tree"))
CONVERT_BITS = 768
CONVERT_PER_PAIR = 3
VIEWS = ("list", "mset", "set")
FORMATS = ("dec", "tree", "bij")
FORMAT_TAG = {"dec": "int", "tree": "tree", "bij": "bij"}
LETTER_TAG = {"t": "tree", "b": "bij", "n": "int"}
BITS_OPS = ("and", "or", "xor", "dif", "ite", "not")
BITS_WIDTH = 96
NOT_BITLEN = 128
DOT_BITS = 512


def call_main(cli, argv: list[str]) -> tuple[int, str, str]:
    """Run ``giantnat`` in-process, capturing stdout and stderr."""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = cli.main(argv)
    return code, out.getvalue(), err.getvalue()


def render(fmt: str, n: int) -> str:
    if fmt == "dec":
        return orc.dec_text(n)
    if fmt == "tree":
        return orc.struct_text(orc.int_struct(n))
    return orc.bij_text(n)


def read_text(fmt: str, text: str) -> int:
    if fmt == "dec":
        if not text.isdigit():
            raise orc.WrongResult(f"not a decimal: {text[:40]!r}")
        return int(text)
    if fmt == "tree":
        v = orc.struct_int(orc.parse_tree_text(text))
        if v is None:
            raise orc.WrongResult("tree output too large to read back")
        return v
    return orc.bij_text_int(text)


def _cli_check(what: str, judge: Callable[[str], Any]):
    """Exit 0, nothing on stderr, and stdout accepted by ``judge``."""
    def check(result):
        code, out, err = result
        expect(code == 0 and err == "", f"{what}: exit {code}, stderr {err.strip()[:80]!r}")
        try:
            got = judge(out)
        except ValueError as exc:
            raise orc.WrongResult(f"{what}: unreadable output: {exc}") from None
        return f"{what}={got}"
    return check


def _equals(want, read: Callable[[str], Any]):
    def judge(out):
        got = read(out)
        if got != want:
            raise orc.WrongResult(f"got {orc.short(got)}, want {orc.short(want)}")
        return orc.canon(got) if isinstance(got, int) else got
    return judge


def codec_cli(rng: Random):
    calls: list[tuple[str, list[str], str, Callable]] = []  # (name, argv, rep tag, check)

    def add(argv: list[str], tag: str, judge):
        name = " ".join(a if len(a) < 24 else a[:10] + "..." for a in argv)
        calls.append((name, argv, tag, _cli_check(name, judge)))

    for src, dst in CONVERT_PAIRS:
        tag = "tree" if "tree" in (src, dst) else "bij"
        for _ in range(CONVERT_PER_PAIR):
            n = rng.getrandbits(CONVERT_BITS) | 1 << (CONVERT_BITS - 1)
            add(["convert", src, dst, render(src, n)], tag,
                _equals(n, lambda out, d=dst: read_text(d, out.strip())))

    special = {
        "mersenne": (lambda q: (1 << q) - 1, rng.randrange(10**5, 10**6), rng.randrange(3000, 3100)),
        "fermat": (lambda q: (1 << (1 << q)) + 1, rng.randrange(14, 19), 11),
        "perfect": (lambda q: ((1 << q) - 1) << (q - 1), rng.randrange(10**5, 10**6), rng.randrange(1500, 1600)),
    }
    for kind, (value, q_giant, q_dec) in special.items():
        v = value(q_giant)
        s = orc.int_struct(v)
        size = orc.dag_size(s)
        for out_fmt, judge in (
            ("tree", _equals(v, lambda out: read_text("tree", out.strip()))),
            ("nodes", _equals(size, lambda out: int(out))),
            ("dot", _equals((s, size), lambda out: orc.parse_dot(out))),
            ("bitsize", _equals(orc.bitsize(v), lambda out: int(out))),
        ):
            add(["special", kind, str(q_giant), "--output", out_fmt], "tree", judge)
        add(["special", kind, str(q_dec), "--output", "dec"], "tree",
            _equals(orc.dec_text(value(q_dec)), lambda out: out.strip()))

    def elements(view: str) -> list[int]:
        if view == "list":
            return [rng.randrange(40) for _ in range(10)]
        if view == "mset":
            return sorted(rng.randrange(200) for _ in range(10))
        return sorted(rng.sample(range(300), 10))

    for view in VIEWS:
        for fmt in FORMATS:
            for _ in range(2):
                elems = elements(view)
                add(["encode", view, ",".join(map(str, elems)), "--rep", fmt], FORMAT_TAG[fmt],
                    _equals(orc.encode_view(view, elems), lambda out, f=fmt: read_text(f, out.strip())))
    for view in VIEWS:
        for fmt in FORMATS:
            for _ in range(2):
                elems = elements(view)
                add(["decode", view, render(fmt, orc.encode_view(view, elems)), "--rep", fmt],
                    FORMAT_TAG[fmt],
                    _equals(elems, lambda out: [int(t) for t in out.strip().split(",") if t]))
    for op in BITS_OPS:
        for letter in ("t", "b", "n"):
            if op == "not":
                vals = [NOT_BITLEN, rng.getrandbits(BITS_WIDTH)]
            else:
                vals = [rng.getrandbits(BITS_WIDTH) for _ in range(3 if op == "ite" else 2)]
            add(["bits", op, *map(str, vals), "--rep", letter], LETTER_TAG[letter],
                _equals(orc.bits_op(op, vals), lambda out: int(out)))
    for fmt in FORMATS:
        for _ in range(2):
            n = rng.getrandbits(DOT_BITS) | 1 << (DOT_BITS - 1)
            s = orc.int_struct(n)
            add(["dot", render(fmt, n), "--format", fmt], "tree",
                _equals((s, orc.dag_size(s)), lambda out: orc.parse_dot(out)))
    probes = _probes()

    def build(gn) -> Workload:
        cli = gn.cli

        def op(name, argv, tag, check):
            return Op(name, tag, lambda: call_main(cli, argv), check)

        return Workload([op(*c) for c in calls], probes=[op(*c) for c in probes], budget_s=3.0)

    return build


# Boundary inputs that fail when this benchmark was added (ROADMAP item 5).  Each
# passes when the command prints the correct output or refuses cleanly:
# nonzero exit, nothing on stdout, one line on stderr, no exception.
TOWER5 = "V (V (V (V (V T []) []) []) []) []"  # 2^65536 - 1: 19729 decimal digits
TOWER6 = f"V ({TOWER5}) []"  # 2^(2^65536) - 1: no digit walk ever finishes


def _deep_text(depth: int) -> str:
    text = "V T []"
    for _ in range(depth):
        text = f"V ({text}) []"
    return text


def _probes() -> list[tuple[str, list[str], str, Callable]]:
    deep = _deep_text(1200)
    cases = [
        ("special mersenne 20000 --output dec", ["special", "mersenne", "20000", "--output", "dec"],
         lambda out: out.strip() == orc.dec_text((1 << 20000) - 1)),
        ("primes -3", ["primes", "-3"], lambda out: out.strip() == ""),
        ("convert tree tree <1200-deep text>", ["convert", "tree", "tree", deep],
         lambda out: out.strip() == deep),
        ("convert tree dec <5-level tower>", ["convert", "tree", "dec", TOWER5],
         lambda out: out.strip() == orc.dec_text(orc.struct_int(orc.parse_tree_text(TOWER5)))),
        ("convert tree dec <6-level tower>", ["convert", "tree", "dec", TOWER6],
         lambda out: False),
    ]
    probes = []
    for name, argv, correct in cases:
        def check(result, name=name, correct=correct):
            code, out, err = result
            refused = code != 0 and out == "" and len(err.strip().splitlines()) == 1
            expect(refused or (code == 0 and err == "" and correct(out)),
                   f"{name}: exit {code}, stderr {err.strip()[:60]!r}")
            return "refused" if refused else "ok"
        probes.append((name, argv, "tree", check))
    return probes


WORKLOADS: dict[str, Callable[[Random], Callable[[Any], Workload]]] = {
    "giant-tree": giant_tree,
    "desk-numtheory": desk_numtheory,
    "codec-cli": codec_cli,
}
