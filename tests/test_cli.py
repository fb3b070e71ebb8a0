"""Command-line interface: conversions, outputs, exit codes, benchmarks."""

import contextlib
import hashlib
import io
import os
import random
import subprocess
import sys
import time
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import giantnat
from giantnat.bignat import oracle_bitsize, print_decimal
from giantnat.cli import bench_lines, convert_text, main

MERSENNE45_TEXT = (
    "V (W T [V (V T []) [],T,T,T,W T [],V T [],T,W T [],W T [],T,V T [],T,T]) []"
)


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# ----------------------------------------------------------------------
# convert
# ----------------------------------------------------------------------


def test_convert_dec_to_tree(capsys):
    code, out, _ = run(capsys, "convert", "dec", "tree", "42")
    assert code == 0 and out == "W (V T []) [T,T,T]\n"


def test_module_runs_as_a_command():
    # python -m giantnat.cli: the answer and exit 0, or one line on stderr and exit 1
    env = {**os.environ, "PYTHONPATH": str(Path(giantnat.__file__).parent.parent)}
    command = [sys.executable, "-m", "giantnat.cli", "convert", "dec", "tree"]
    ok = subprocess.run([*command, "42"], capture_output=True, text=True, env=env, timeout=120)
    assert (ok.returncode, ok.stdout, ok.stderr) == (0, "W (V T []) [T,T,T]\n", "")
    bad = subprocess.run([*command, "x"], capture_output=True, text=True, env=env, timeout=120)
    assert bad.returncode == 1 and bad.stdout == "" and len(bad.stderr.splitlines()) == 1


def test_convert_dec_to_bij(capsys):
    code, out, _ = run(capsys, "convert", "dec", "bij", "42")
    assert code == 0 and out == "oioii\n"


def test_convert_tree_to_dec(capsys):
    code, out, _ = run(capsys, "convert", "tree", "dec", "V (W (V T [T]) []) []")
    assert code == 0 and out == "170141183460469231731687303715884105727\n"


def test_convert_zero_forms(capsys):
    assert run(capsys, "convert", "dec", "bij", "0")[1] == "e\n"
    assert run(capsys, "convert", "bij", "tree", "e")[1] == "T\n"


def test_convert_round_trips_to_ten_thousand():
    for k in range(10001):
        dec = str(k)
        assert convert_text("tree", "dec", convert_text("dec", "tree", dec)) == dec
        assert convert_text("bij", "dec", convert_text("dec", "bij", dec)) == dec


def test_convert_parse_failure_exits_nonzero(capsys):
    code, out, err = run(capsys, "convert", "dec", "tree", "4x")
    assert code == 1 and out == "" and err.startswith("giantnat: error:")
    assert len(err.strip().splitlines()) == 1


def test_convert_bad_tree_text(capsys):
    code, _, err = run(capsys, "convert", "tree", "dec", "V T [")
    assert code == 1 and "position" in err


def test_convert_refuses_a_parenthesized_leaf_head(capsys):
    code, out, err = run(capsys, "convert", "tree", "tree", "V (T) []")
    assert code == 1 and out == "" and "position 2" in err
    assert len(err.strip().splitlines()) == 1


def test_convert_refuses_deeply_nested_tree_text(capsys):
    text = "V T []"
    for _ in range(1200):
        text = f"V ({text}) []"
    code, out, err = run(capsys, "convert", "tree", "tree", text)
    assert code == 1 and out == ""
    assert len(err.splitlines()) == 1 and "nested deeper than 256" in err


# ----------------------------------------------------------------------
# special
# ----------------------------------------------------------------------


def test_special_mersenne_bitsize(capsys):
    code, out, _ = run(capsys, "special", "mersenne", "43112609", "--output", "bitsize")
    assert code == 0 and out == "43112609\n"


def test_special_mersenne_nodes(capsys):
    code, out, _ = run(capsys, "special", "mersenne", "43112609", "--output", "nodes")
    assert code == 0 and out == "6\n"


def test_special_perfect_nodes(capsys):
    code, out, _ = run(capsys, "special", "perfect", "43112609", "--output", "nodes")
    assert code == 0 and out == "7\n"


def test_special_mersenne45_tree(capsys):
    code, out, _ = run(capsys, "special", "mersenne", "43112609", "--output", "tree")
    assert code == 0 and out == MERSENNE45_TEXT + "\n"


def test_special_fermat_tree(capsys):
    code, out, _ = run(capsys, "special", "fermat", "11", "--output", "tree")
    assert code == 0 and out == "V T [T,V T [W T [V T []]]]\n"


def test_special_small_dec(capsys):
    code, out, _ = run(capsys, "special", "mersenne", "127", "--output", "dec")
    assert code == 0 and out == "170141183460469231731687303715884105727\n"
    code, out, _ = run(capsys, "special", "perfect", "3", "--output", "dec")
    assert code == 0 and out == "28\n"


def test_special_dec_refusal_beyond_cap(capsys):
    code, out, err = run(capsys, "special", "mersenne", "43112609", "--output", "dec")
    assert code == 1 and out == ""
    assert "refusing decimal expansion" in err
    assert len(err.strip().splitlines()) == 1


def test_special_dec_cap_override(capsys):
    code, out, _ = run(
        capsys, "special", "mersenne", "4099", "--output", "dec", "--max-dec-bits", "5000"
    )
    assert code == 0 and int(out) == 2**4099 - 1


def test_special_rejects_a_negative_dec_cap(capsys):
    code, out, err = run(capsys, "special", "mersenne", "5", "--output", "dec", "--max-dec-bits", "-1")
    assert code == 1 and out == ""
    assert err == "giantnat: error: --max-dec-bits needs a nonnegative bit count, got -1\n"


def test_special_fermat_bitsize_respects_the_dec_cap(capsys):
    # the bitsize of F(p) = 2^(2^p) + 1 is a decimal of about p bits
    start = time.perf_counter()
    code, out, err = run(capsys, "special", "fermat", str(10**9), "--output", "bitsize")
    assert time.perf_counter() - start < 1.0
    assert code == 1 and out == ""
    assert "refusing decimal expansion" in err and len(err.strip().splitlines()) == 1
    code, out, err = run(
        capsys, "special", "fermat", "30", "--output", "bitsize", "--max-dec-bits", "10"
    )
    assert code == 1 and out == "" and "raise --max-dec-bits" in err
    code, out, _ = run(capsys, "special", "fermat", "20", "--output", "bitsize")
    assert code == 0 and out == f"{oracle_bitsize(2 ** 2**20 + 1)}\n"


def test_special_perfect_needs_two(capsys):
    code, _, err = run(capsys, "special", "perfect", "1", "--output", "dec")
    assert code == 1 and "p >= 2" in err


def test_special_dot_output(capsys):
    code, out, _ = run(capsys, "special", "mersenne", "43112609", "--output", "dot")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "digraph tree {" and lines[-1] == "}"
    assert sum(1 for line in lines if "label=" in line and "->" not in line) == 6


# ----------------------------------------------------------------------
# encode / decode
# ----------------------------------------------------------------------


def test_encode_set_tree(capsys):
    code, out, _ = run(capsys, "encode", "set", "1,100,123,234", "--rep", "tree")
    assert code == 0
    assert out == "W (V T []) [V T [T,W T [],T],T,V T [V T [],T],T,V T [W T [],T,T]]\n"


def test_decode_set_tree(capsys):
    code, out, _ = run(
        capsys,
        "decode",
        "set",
        "W (V T []) [V T [T,W T [],T],T,V T [V T [],T],T,V T [W T [],T,T]]",
        "--rep",
        "tree",
    )
    assert code == 0 and out == "1,100,123,234\n"


def test_encode_set_dec(capsys):
    code, out, _ = run(capsys, "encode", "set", "1,4,6,7,10", "--rep", "dec")
    assert code == 0 and out == "1234\n"


def test_decode_set_dec(capsys):
    code, out, _ = run(capsys, "decode", "set", "1234", "--rep", "dec")
    assert code == 0 and out == "1,4,6,7,10\n"


def test_encode_decode_other_views(capsys):
    assert run(capsys, "encode", "list", "1,1,1", "--rep", "dec")[1] == "42\n"
    assert run(capsys, "decode", "list", "42", "--rep", "dec")[1] == "1,1,1\n"
    assert run(capsys, "encode", "mset", "1,2,3", "--rep", "dec")[1] == "42\n"
    assert run(capsys, "decode", "mset", "42", "--rep", "dec")[1] == "1,2,3\n"


def test_encode_empty_collection(capsys):
    assert run(capsys, "encode", "set", "", "--rep", "dec")[1] == "0\n"
    assert run(capsys, "decode", "set", "0", "--rep", "dec")[1] == "\n"


def test_encode_rejects_unsorted_set(capsys):
    code, _, err = run(capsys, "encode", "set", "4,1", "--rep", "dec")
    assert code == 1 and "ascending" in err


def test_encode_refuses_expanding_a_giant_set(capsys):
    # {10^9} is 2^(10^9): a few nodes as a tree, a billion bits as digits
    for fmt in ("dec", "bij"):
        start = time.perf_counter()
        code, out, err = run(capsys, "encode", "set", "1000000000", "--rep", fmt)
        assert time.perf_counter() - start < 1.0
        assert _refused(code, out, err) and f"refusing {fmt} expansion" in err


def test_encode_reports_parse_positions_in_the_whole_argument(capsys):
    for elements, want in (("1,,2", "empty decimal literal (at position 2)"),
                           ("12,3x", "invalid decimal digit 'x' (at position 4)"),
                           ("7,", "empty decimal literal (at position 2)"),
                           ("x", "invalid decimal digit 'x' (at position 0)")):
        code, out, err = run(capsys, "encode", "list", elements, "--rep", "dec")
        assert code == 1 and out == "" and err.strip().endswith(want)
        assert len(err.strip().splitlines()) == 1


# ----------------------------------------------------------------------
# bits / dot
# ----------------------------------------------------------------------


def test_bits_operations(capsys):
    assert run(capsys, "bits", "and", "12", "10")[1] == "8\n"
    assert run(capsys, "bits", "or", "5", "2")[1] == "7\n"
    assert run(capsys, "bits", "xor", "9", "9")[1] == "0\n"
    assert run(capsys, "bits", "dif", "13", "5")[1] == "8\n"
    assert run(capsys, "bits", "ite", "12", "10", "3")[1] == str((12 & 10) | (~12 & 3)) + "\n"
    assert run(capsys, "bits", "not", "4", "5")[1] == "10\n"


def test_bits_on_tree_representation(capsys):
    assert run(capsys, "bits", "xor", "12", "10", "--rep", "t")[1] == "6\n"


def test_bits_arity_errors(capsys):
    code, _, err = run(capsys, "bits", "and", "1")
    assert code == 1 and "takes 2 arguments" in err
    code, _, err = run(capsys, "bits", "ite", "1", "2")
    assert code == 1 and "takes 3 arguments" in err


@pytest.mark.parametrize("letter", ["t", "b", "n"])
def test_bits_not_refuses_a_bit_length_past_the_cap(capsys, letter):
    # refused before the window 2^BITLEN - 1 is built
    for bitlen in ("100000000", "1000001"):
        start = time.perf_counter()
        code, out, err = run(capsys, "bits", "not", bitlen, "5", "--rep", letter)
        assert time.perf_counter() - start < 1.0
        assert code == 1 and out == "" and err.count("\n") == 1 and "refusing bit length" in err


def test_bits_not_at_a_million_bits(capsys):
    code, out, err = run(capsys, "bits", "not", "1000000", "5", "--rep", "n")
    assert code == 0 and err == ""
    assert _int_of(out) == ((1 << 10**6) - 1) ^ 5


_BITS_ARITY = {"and": 2, "or": 2, "xor": 2, "dif": 2, "ite": 3, "not": 2}


def _bits_oracle(op, texts):
    # what `bits` must print, or None where it must refuse
    if _BITS_ARITY.get(op) != len(texts) or not all(s.isascii() and s.isdigit() for s in texts):
        return None
    v = [int(s) for s in texts]
    if op == "not":
        return None if v[1] >> v[0] else ((1 << v[0]) - 1) ^ v[1]
    x, y = v[0], v[1]
    return {"and": x & y, "or": x | y, "xor": x ^ y, "dif": x & ~y,
            "ite": (x & y) | (~x & v[-1])}[op]


_DIGITS = st.text(alphabet="0123456789", min_size=1, max_size=4)
# "--" alone ends option parsing and is dropped by argparse: not an operand
_OPERAND = st.text(alphabet="0123456789-+. x\u0663", max_size=4).filter(lambda s: s != "--")


@given(st.sampled_from([*_BITS_ARITY, "nand", "AND", "", "-x"]),
       st.one_of(st.lists(_DIGITS, min_size=2, max_size=3), st.lists(_OPERAND, max_size=4)),
       st.sampled_from([(), ("--rep", "t"), ("--rep", "b"), ("--rep", "n")]))
@settings(max_examples=200, deadline=None)
def test_bits_fuzz_exits_with_the_answer_or_one_error_line(op, texts, rep):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(["bits", op, *texts, *rep])
    want = _bits_oracle(op, texts)
    if want is None:
        assert code != 0 and out.getvalue() == ""
        assert err.getvalue().count("\n") == 1 and err.getvalue().endswith("\n")
        assert "Traceback" not in err.getvalue()
    else:
        assert (code, out.getvalue(), err.getvalue()) == (0, f"{want}\n", "")


def test_dot_from_decimal(capsys):
    code, out, _ = run(capsys, "dot", "42", "--format", "dec")
    assert code == 0
    assert 'n0 [label="W"]' in out and "n0 -> n1" in out


# ----------------------------------------------------------------------
# workloads
# ----------------------------------------------------------------------


def test_nsyr_command(capsys):
    assert run(capsys, "nsyr", "7")[1] == "7,11,17,26,2,0\n"
    assert run(capsys, "nsyr", "0")[1] == "0\n"
    assert run(capsys, "nsyr", "7", "--rep", "t")[1] == "7,11,17,26,2,0\n"


def test_primes_command(capsys):
    assert run(capsys, "primes", "5")[1] == "2,3,5,7,11\n"
    assert run(capsys, "primes", "5", "--rep", "t")[1] == "2,3,5,7,11\n"


def test_primes_rejects_negative_count(capsys):
    code, out, err = run(capsys, "primes", "-3")
    assert code == 1 and out == ""
    assert err.startswith("giantnat: error:") and len(err.strip().splitlines()) == 1


@pytest.mark.parametrize("argv, named", [
    (["nsyr", "-3"], "nsyr needs a nonnegative n, got -3"),
    (["ack", "-1", "2"], "ack needs a nonnegative m, got -1"),
    (["ack", "2", "-1"], "ack needs a nonnegative n, got -1"),
    (["special", "mersenne", "-5"], "special mersenne needs a nonnegative p, got -5"),
    (["special", "fermat", "-5"], "special fermat needs a nonnegative p, got -5"),
    (["special", "perfect", "-5"], "special perfect needs a nonnegative p, got -5"),
])
def test_negative_int_arguments_are_refused_by_name(capsys, argv, named):
    code, out, err = run(capsys, *argv)
    assert code == 1 and out == ""
    assert err == f"giantnat: error: {named}\n"


def test_ack_command(capsys):
    assert run(capsys, "ack", "3", "5")[1] == "253\n"
    assert run(capsys, "ack", "0", "9", "--rep", "b")[1] == "10\n"


def test_usage_errors_are_single_line(capsys):
    code, out, err = run(capsys, "bogus")
    assert code == 2 and out == ""
    assert len(err.strip().splitlines()) == 1
    code, _, err = run(capsys, "convert", "dec", "nope", "1")
    assert code == 2 and len(err.strip().splitlines()) == 1


# ----------------------------------------------------------------------
# bench
# ----------------------------------------------------------------------


def test_bench_line_format():
    lines = list(bench_lines("exp2", "t"))
    assert len(lines) == 1
    name, rep, ms, digest = lines[0].split()
    assert name == "exp2-exp2-14" and rep == "t"
    assert int(ms) >= 0
    assert digest == "bitsize=16384"


def test_bench_unable_combinations_print_question_marks():
    lines = list(bench_lines("bitsize45", "n"))
    assert lines == ["bitsize45:mersenne45 n ? ?", "bitsize45:perfect45 n ? ?"]
    lines = list(bench_lines("bitsize45", "t"))
    assert lines[0].split()[3] == "bitsize=43112609"
    assert lines[1].split()[3] == "bitsize=86225216"


def test_bench_div45_divides_perfect45_by_mersenne45():
    assert list(bench_lines("div45", "b")) == ["div45:perfect45-by-mersenne45 b ? ?"]
    (line,) = bench_lines("div45", "t")
    name, rep, ms, digest = line.split()
    assert name == "div45:perfect45-by-mersenne45" and rep == "t" and int(ms) >= 0
    assert digest == "bitsize=43112608,zero-rem=True"


def test_bench_ack_digest_on_ints():
    (line,) = bench_lines("ack", "n")
    assert line.split()[3] == "value=1021"


def test_bench_sparse_all_reps_share_digest():
    digests = set()
    for letter in ("t", "n"):
        (line,) = bench_lines("sparse", letter)
        digests.add(line.split()[3])
    assert len(digests) == 1


def test_bench_command_exit(capsys):
    code, out, _ = run(capsys, "bench", "bitsize45", "--rep", "t")
    assert code == 0 and len(out.strip().splitlines()) == 2


# sha256 of the compress-twice-20 digest, a bitsize of 3054 decimal digits
COMPRESS_TWICE_20_SHA256 = "c3b302cb84a6a6a2ef7789fb4a1673405e9a814b125b43b2459ff49f4e6057ae"


@pytest.mark.parametrize("letter", ["t", "n"])
def test_bench_number_theory_digests(letter):
    digests = {line.split()[0]: line.split()[3]
               for suite in ("primes", "mersenne", "syracuse") for line in bench_lines(suite, letter)}
    twice = digests.pop("syracuse:compress-twice-20")
    assert digests == {"primes-100": "value=541", "mersenne-tests": "bitsize=31",
                       "syracuse:lengths-2000": "maxlen=88", "syracuse:compress-100": "bitsize=11248"}
    if letter == "t":
        assert hashlib.sha256(twice.encode()).hexdigest() == COMPRESS_TWICE_20_SHA256
    else:
        assert twice == "?"


def test_help_exits_zero(capsys):
    code, out, err = run(capsys, "--help")
    assert code == 0 and out.startswith("usage: giantnat") and err == ""


# ----------------------------------------------------------------------
# decimals past the interpreter's int <-> str digit limit
# ----------------------------------------------------------------------


def _int_of(text):
    # the oracle parses with the limit lifted, the CLI runs with it in place
    old = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        return int(text)
    finally:
        sys.set_int_max_str_digits(old)


def test_special_dec_beyond_str_digit_limit(capsys):
    code, out, err = run(capsys, "special", "mersenne", "20000", "--output", "dec")
    assert code == 0 and err == ""
    assert len(out.strip()) > 4300 and _int_of(out) == 2**20000 - 1


def test_convert_dec_tree_round_trip_beyond_str_digit_limit():
    big = print_decimal(random.Random(2013).getrandbits(100000) | 1 << 99999)  # 100 000 bits
    for text in ("7" + "0123456789" * 600, big):
        tree = convert_text("dec", "tree", text)
        assert convert_text("tree", "dec", tree) == text
        assert convert_text("tree", "bij", tree) == convert_text("dec", "bij", text)


# ----------------------------------------------------------------------
# expansion caps
# ----------------------------------------------------------------------

TOWER5 = "V (V (V (V (V T []) []) []) []) []"  # 2^65536 - 1
TOWER6 = f"V ({TOWER5}) []"  # 2^(2^65536) - 1


def _refused(code, out, err):
    return code == 1 and out == "" and len(err.strip().splitlines()) == 1


def test_decode_refuses_too_many_entries(capsys):
    perfect45 = run(capsys, "special", "perfect", "43112609")[1].strip()
    for view in ("list", "set"):
        code, out, err = run(capsys, "decode", view, perfect45, "--rep", "tree")
        assert _refused(code, out, err) and "refusing to decode" in err


def test_decode_refuses_a_giant_entry(capsys):
    # 2^(2^(2^65536) + 1): one entry, of 2^65536 bits
    code, out, err = run(capsys, "decode", "list", f"W T [{TOWER6}]", "--rep", "tree")
    assert _refused(code, out, err) and "refusing decimal expansion" in err


def test_decode_lets_few_entries_of_a_giant_through(capsys):
    code, packed, _ = run(capsys, "encode", "set", "1,100,10000000", "--rep", "tree")
    assert code == 0
    code, out, err = run(capsys, "decode", "set", packed.strip(), "--rep", "tree")
    assert code == 0 and err == "" and out == "1,100,10000000\n"


def test_convert_refuses_expanding_a_tower(capsys):
    for dst in ("dec", "bij"):
        code, out, err = run(capsys, "convert", "tree", dst, TOWER6)
        assert _refused(code, out, err) and f"refusing {dst} expansion" in err
    code, out, err = run(capsys, "convert", "tree", "tree", TOWER6)
    assert code == 0 and out == TOWER6 + "\n"


def test_convert_expands_a_tower_within_the_cap(capsys):
    code, out, err = run(capsys, "convert", "tree", "dec", TOWER5)
    assert code == 0 and err == ""
    assert _int_of(out) == 2**65536 - 1
