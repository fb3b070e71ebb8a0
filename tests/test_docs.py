"""README examples run as written: each CLI line and each quick-start print
gives the output its comment shows."""

import contextlib
import io
import re
import shlex
from pathlib import Path

from giantnat.cli import main

README = (Path(__file__).parents[1] / "README.md").read_text()

# CLI comments that describe the output instead of spelling it
DESCRIBED = {
    "DOT text of the folded tree": lambda out: out.startswith("digraph tree {\n"),
    "name rep elapsed_ms digest": lambda out: all(len(line.split()) == 4 for line in out.splitlines()),
}


def _block(heading: str, lang: str) -> list[str]:
    # the lines of the first fenced block of that language under the heading
    section = README.split(f"\n## {heading}\n", 1)[1]
    return section.split(f"```{lang}\n", 1)[1].split("```", 1)[0].splitlines()


def _comment(line: str) -> tuple[str, str | None]:
    # a line's code and its comment, None without one
    code, sep, comment = line.partition("  # ")
    return code.strip(), comment.strip() if sep else None


def test_readme_cli_lines():
    checked = 0
    for line in _block("CLI", "sh"):
        command, expected = _comment(line)
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(shlex.split(command)[1:])
        assert (code, err.getvalue()) == (0, ""), command
        if expected in DESCRIBED:
            assert DESCRIBED[expected](out.getvalue()), command
        elif expected is not None:
            assert out.getvalue() == expected + "\n", command
            checked += 1
    assert checked == 12


def test_readme_quick_start():
    # each print's comment is its line of output; past two spaces comes a
    # note, and "..." stands for elided digits
    lines = _block("Library quick start", "python")
    expected = [_comment(line)[1].split("  ")[0] for line in lines if line.startswith("print(")]
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec("\n".join(lines), {})
    printed = out.getvalue().splitlines()
    assert len(printed) == len(expected) == 8
    for got, want in zip(printed, expected):
        assert re.fullmatch(r"\d+".join(map(re.escape, want.split("..."))), got), (got, want)
