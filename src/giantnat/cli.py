"""Command-line front end.

Subcommands: convert, special, encode, decode, bits, dot, bench, nsyr,
primes, ack.  Values travel in one of three text formats: ``dec`` (decimal
digits), ``tree`` (the compressed-tree grammar), ``bij`` (lowercase o/i
digit string, least significant first).  Benchmarks name a representation
by letter: t (tree), b (digit string), n (conventional integer).

Exit code 0 on success; any error prints a single-line diagnostic on
stderr and exits nonzero.
"""

from __future__ import annotations

import argparse
import re
import sys
import time
from itertools import islice
from typing import Callable, Iterable

from . import codecs, numtheory
from .bignat import BIGNAT, parse_decimal, print_decimal
from .bij import BIJ, digit_string, parse_digit_string
from .core import GT, DomainError, NatRep, ParseError, view
from .tree import TREE, dag_to_dot, fold_to_dag, parse_tree, print_tree

FORMATS = ("dec", "tree", "bij")
_FORMAT_REP: dict[str, NatRep] = {"dec": BIGNAT, "tree": TREE, "bij": BIJ}
_LETTER_REP: dict[str, NatRep] = {"t": TREE, "b": BIJ, "n": BIGNAT}

DEFAULT_DEC_BITS_CAP = 10**6


class _Parser(argparse.ArgumentParser):
    # keep usage failures to the single-line contract
    def error(self, message):
        raise SystemExit(self.prog + ": error: " + message)


def _parse_value(fmt: str, text: str):
    if fmt == "dec":
        return parse_decimal(text)
    if fmt == "tree":
        return parse_tree(text)
    return parse_digit_string(text)


def _render_value(fmt: str, value) -> str:
    if fmt == "dec":
        return print_decimal(value)
    if fmt == "tree":
        return print_tree(value)
    return digit_string(value)


def _nonnegative(value: int, who: str, what: str) -> int:
    # an int argument that must not be negative, refused by name
    if value < 0:
        raise DomainError(f"{who} needs a nonnegative {what}, got {value}")
    return value


def _check_cap(size, cap: int, what: str, unit: str, hint: str = "") -> None:
    # Refuse output whose size, a tree, exceeds cap; compared as trees, so a
    # giant size is never expanded.
    if TREE.cmp(size, TREE.from_int(cap)) is GT:
        raise DomainError(f"refusing {what}: more than {cap} {unit}{hint}")


def _render_tree(dst: str, value) -> str:
    # a tree rendered in format dst, expanded into digits only up to the cap
    if dst != "tree":
        _check_cap(TREE.bitsize(value), DEFAULT_DEC_BITS_CAP, f"{dst} expansion", "bits")
        value = view(value, TREE, _FORMAT_REP[dst])
    return _render_value(dst, value)


def convert_text(src: str, dst: str, text: str) -> str:
    """Parse ``text`` in format ``src`` and render it in format ``dst``;
    a tree is expanded into digits only up to :data:`DEFAULT_DEC_BITS_CAP`
    bits."""
    value = _parse_value(src, text)
    if src == "tree":
        return _render_tree(dst, value)
    if src != dst:
        value = view(value, _FORMAT_REP[src], _FORMAT_REP[dst])
    return _render_value(dst, value)


def _cmd_convert(args) -> int:
    print(convert_text(args.src, args.dst, args.value))
    return 0


_SPECIAL_BUILDERS = {
    "mersenne": lambda p: numtheory.mersenne(TREE, p),
    "fermat": lambda p: numtheory.fermat(TREE, p),
    "perfect": lambda p: numtheory.perfect(TREE, p),
}


def _cmd_special(args) -> int:
    _nonnegative(args.max_dec_bits, "--max-dec-bits", "bit count")
    p = _nonnegative(args.p, f"special {args.kind}", "p")
    value = _SPECIAL_BUILDERS[args.kind](TREE.from_int(p))
    out, hint = args.output, " (raise --max-dec-bits to override)"
    if out == "tree":
        print(print_tree(value))
    elif out == "bitsize":  # a giant value's bitsize is a giant decimal too
        size = TREE.bitsize(value)
        _check_cap(TREE.bitsize(size), args.max_dec_bits, "decimal expansion", "bits", hint)
        print(print_decimal(TREE.to_int(size)))
    elif out == "nodes":
        print(len(fold_to_dag(value).nodes))
    elif out == "dot":
        sys.stdout.write(dag_to_dot(fold_to_dag(value)))
    else:  # dec
        _check_cap(TREE.bitsize(value), args.max_dec_bits, "decimal expansion", "bits", hint)
        print(print_decimal(TREE.to_int(value)))
    return 0


_ENCODERS = {"list": codecs.from_list, "mset": codecs.from_mset, "set": codecs.from_set}
_DECODERS = {"list": codecs.to_list, "mset": codecs.to_mset, "set": codecs.to_set}


def _parse_elements(text: str) -> list[int]:
    # comma-separated decimals; a parse error tells its position in text
    elements, start = [], 0
    for part in text.split(",") if text else ():
        try:
            elements.append(parse_decimal(part))
        except ParseError as err:
            raise ParseError(err.reason, start + err.position) from None
        start += len(part) + 1
    return elements


def _cmd_encode(args) -> int:
    # encoded on trees, where a large element costs a few nodes, and expanded
    # to dec or bij as convert expands a tree
    elements = [TREE.from_int(k) for k in _parse_elements(args.elements)]
    print(_render_tree(args.rep, _ENCODERS[args.view](TREE, elements)))
    return 0


def _cmd_decode(args) -> int:
    rep = _FORMAT_REP[args.rep]
    value = _parse_value(args.rep, args.value)
    if args.rep == "tree":
        _check_cap(codecs.list_length(TREE, value), DEFAULT_DEC_BITS_CAP, "to decode", "entries")
    elements = _DECODERS[args.view](rep, value)
    if args.rep == "tree":
        for v in elements:
            _check_cap(TREE.bitsize(v), DEFAULT_DEC_BITS_CAP, "decimal expansion", "bits")
    print(",".join(print_decimal(rep.to_int(v)) for v in elements))
    return 0


# bits op -> (arity, its codecs function), for the parser and _cmd_bits.  The
# function is looked up by name on each call, so a wrapper put on the codecs
# module, as perfbench's tracer does, is the one called.
_BITS = {"and": (2, "l_and"), "or": (2, "l_or"), "xor": (2, "l_xor"),
         "dif": (2, "l_dif"), "ite": (3, "l_ite"), "not": (2, "l_not")}


def _cmd_bits(args) -> int:
    rep = _LETTER_REP[args.rep]
    op = args.op
    operands = args.operands
    arity, name = _BITS[op]
    if len(operands) != arity:
        raise DomainError(f"bits {op} takes {arity} arguments, got {len(operands)}")
    fn = getattr(codecs, name)
    if op == "not":
        bitlen = parse_decimal(operands[0])
        if bitlen > DEFAULT_DEC_BITS_CAP:
            raise DomainError(f"refusing bit length: more than {DEFAULT_DEC_BITS_CAP} bits")
        result = fn(rep, bitlen, rep.from_int(parse_decimal(operands[1])))
    else:
        result = fn(rep, *[rep.from_int(parse_decimal(t)) for t in operands])
    print(print_decimal(rep.to_int(result)))
    return 0


def _cmd_dot(args) -> int:
    value = _parse_value(args.format, args.value)
    tree = value if args.format == "tree" else view(value, _FORMAT_REP[args.format], TREE)
    sys.stdout.write(dag_to_dot(fold_to_dag(tree)))
    return 0


# ----------------------------------------------------------------------
# Benchmarks
# ----------------------------------------------------------------------


def _digest_bitsize(rep: NatRep, value) -> str:
    return f"bitsize={rep.to_int(rep.bitsize(value))}"


def _bench_ack(rep: NatRep) -> str:
    v = numtheory.ack(rep, rep.from_int(3), rep.from_int(7))
    return f"value={rep.to_int(v)}"


def _bench_exp2(rep: NatRep) -> str:
    return _digest_bitsize(rep, rep.exp2(rep.exp2(rep.from_int(14))))


def _bench_sparse(rep: NatRep) -> str:
    elements = [rep.from_int(k) for k in range(101, 100001, 1901)]
    return _digest_bitsize(rep, codecs.from_set(rep, elements))


def _bench_primes(rep: NatRep) -> str:
    last = list(islice(numtheory.primes(rep), 100))[-1]
    return f"value={rep.to_int(last)}"


def _bench_mersenne(rep: NatRep) -> str:
    last = list(islice(numtheory.mersenne_primes(rep), 7))[-1]
    return _digest_bitsize(rep, last)


def _bench_syr_lengths(rep: NatRep) -> str:
    longest = max(len(numtheory.nsyr(rep, rep.from_int(n))) for n in range(2001))
    return f"maxlen={longest}"


def _bench_syr_compress(rep: NatRep) -> str:
    worst = 0
    for n in range(101):
        packed = codecs.from_list(rep, numtheory.nsyr(rep, rep.from_int(n)))
        worst = max(worst, rep.to_int(rep.bitsize(packed)))
    return f"bitsize={worst}"


def _bench_syr_compress_twice(rep: NatRep) -> str:
    seqs = [codecs.from_list(rep, numtheory.nsyr(rep, rep.from_int(n))) for n in range(21)]
    return _digest_bitsize(rep, codecs.from_list(rep, seqs))


def _bench_bitsize45_m(rep: NatRep) -> str:
    return f"bitsize={TREE.to_int(TREE.bitsize(numtheory.mersenne45()))}"


def _bench_bitsize45_p(rep: NatRep) -> str:
    return f"bitsize={TREE.to_int(TREE.bitsize(numtheory.perfect45()))}"


def _bench_div45(rep: NatRep) -> str:
    q, r = TREE.div_and_rem(numtheory.perfect45(), numtheory.mersenne45())
    return f"{_digest_bitsize(TREE, q)},zero-rem={TREE.is_e(r)}"


_BENCHES: list[tuple[str, Callable[[NatRep], str]]] = [
    ("ack-3-7", _bench_ack),
    ("exp2-exp2-14", _bench_exp2),
    ("sparse-set", _bench_sparse),
    ("bitsize45:mersenne45", _bench_bitsize45_m),
    ("bitsize45:perfect45", _bench_bitsize45_p),
    ("div45:perfect45-by-mersenne45", _bench_div45),
    ("primes-100", _bench_primes),
    ("mersenne-tests", _bench_mersenne),
    ("syracuse:lengths-2000", _bench_syr_lengths),
    ("syracuse:compress-100", _bench_syr_compress),
    ("syracuse:compress-twice-20", _bench_syr_compress_twice),
]

# lines only trees can run: the others would expand compressed giants
_TREE_ONLY = {"bitsize45:mersenne45", "bitsize45:perfect45", "div45:perfect45-by-mersenne45",
              "syracuse:compress-twice-20"}


def _suite_of(name: str) -> str:
    # a line belongs to the suite named before its first '-' or ':'
    return re.split("[-:]", name, maxsplit=1)[0]


BENCH_SUITES = (*dict.fromkeys(_suite_of(name) for name, _ in _BENCHES), "all")


def bench_lines(suite: str, rep_letter: str) -> Iterable[str]:
    """Run the selected benchmarks, yielding ``name rep elapsed_ms digest`` lines.

    Combinations a representation cannot run (expanding compressed giants)
    yield ``?`` placeholders instead of timings.
    """
    rep = _LETTER_REP[rep_letter]
    for name, runner in _BENCHES:
        if suite != "all" and _suite_of(name) != suite:
            continue
        if rep_letter != "t" and name in _TREE_ONLY:
            yield f"{name} {rep_letter} ? ?"
            continue
        start = time.perf_counter()
        digest = runner(rep)
        elapsed_ms = int((time.perf_counter() - start) * 1000)
        yield f"{name} {rep_letter} {elapsed_ms} {digest}"


def _cmd_bench(args) -> int:
    for line in bench_lines(args.suite, args.rep):
        print(line, flush=True)
    return 0


def _cmd_nsyr(args) -> int:
    rep = _LETTER_REP[args.rep]
    seq = numtheory.nsyr(rep, rep.from_int(_nonnegative(args.n, "nsyr", "n")))
    print(",".join(print_decimal(rep.to_int(v)) for v in seq))
    return 0


def _cmd_primes(args) -> int:
    rep = _LETTER_REP[args.rep]
    firsts = islice(numtheory.primes(rep), _nonnegative(args.k, "primes", "count"))
    print(",".join(print_decimal(rep.to_int(p)) for p in firsts))
    return 0


def _cmd_ack(args) -> int:
    rep = _LETTER_REP[args.rep]
    m = rep.from_int(_nonnegative(args.m, "ack", "m"))
    n = rep.from_int(_nonnegative(args.n, "ack", "n"))
    print(print_decimal(rep.to_int(numtheory.ack(rep, m, n))))
    return 0


# ----------------------------------------------------------------------


def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="giantnat", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    p = sub.add_parser("convert", help="re-express a value in another format")
    p.add_argument("src", choices=FORMATS)
    p.add_argument("dst", choices=FORMATS)
    p.add_argument("value")
    p.set_defaults(fn=_cmd_convert)

    p = sub.add_parser("special", help="build a Mersenne, Fermat or perfect number")
    p.add_argument("kind", choices=sorted(_SPECIAL_BUILDERS))
    p.add_argument("p", type=int)
    p.add_argument("--output", choices=("dec", "tree", "bitsize", "dot", "nodes"), default="tree")
    p.add_argument("--max-dec-bits", type=int, default=DEFAULT_DEC_BITS_CAP,
                   help="refuse decimal output beyond this many digits of bitsize")
    p.set_defaults(fn=_cmd_special)

    p = sub.add_parser("encode", help="encode a collection of naturals as one natural")
    p.add_argument("view", choices=("list", "mset", "set"))
    p.add_argument("elements", help="comma-separated decimal elements (may be empty)")
    p.add_argument("--rep", choices=FORMATS, default="dec")
    p.set_defaults(fn=_cmd_encode)

    p = sub.add_parser("decode", help="decode a natural back into a collection")
    p.add_argument("view", choices=("list", "mset", "set"))
    p.add_argument("value")
    p.add_argument("--rep", choices=FORMATS, default="dec")
    p.set_defaults(fn=_cmd_decode)

    p = sub.add_parser("bits", help="bitwise operations, the set algebra of the sparse-set views")
    p.add_argument("op", choices=tuple(_BITS))
    p.add_argument("operands", nargs="+",
                   help="decimal operands; 'not' takes BITLEN VALUE, 'ite' takes three values")
    p.add_argument("--rep", choices=sorted(_LETTER_REP), default="n")
    p.set_defaults(fn=_cmd_bits)

    p = sub.add_parser("dot", help="DOT text of the folded (subtree-shared) tree form")
    p.add_argument("value")
    p.add_argument("--format", choices=FORMATS, default="tree")
    p.set_defaults(fn=_cmd_dot)

    p = sub.add_parser("bench", help="timed benchmark suite")
    p.add_argument("suite", choices=BENCH_SUITES)
    p.add_argument("--rep", choices=sorted(_LETTER_REP), required=True)
    p.set_defaults(fn=_cmd_bench)

    p = sub.add_parser("nsyr", help="Syracuse iteration down to zero")
    p.add_argument("n", type=int)
    p.add_argument("--rep", choices=sorted(_LETTER_REP), default="n")
    p.set_defaults(fn=_cmd_nsyr)

    p = sub.add_parser("primes", help="first K primes")
    p.add_argument("k", type=int)
    p.add_argument("--rep", choices=sorted(_LETTER_REP), default="n")
    p.set_defaults(fn=_cmd_primes)

    p = sub.add_parser("ack", help="Ackermann function (desk-scale arguments)")
    p.add_argument("m", type=int)
    p.add_argument("n", type=int)
    p.add_argument("--rep", choices=sorted(_LETTER_REP), default="n")
    p.set_defaults(fn=_cmd_ack)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        return args.fn(args)
    except SystemExit as exc:
        if isinstance(exc.code, str):
            print(exc.code, file=sys.stderr)
            return 2
        return exc.code if isinstance(exc.code, int) else 0
    except (DomainError, ParseError) as exc:
        print(f"giantnat: error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
