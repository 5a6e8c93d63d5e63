"""Near-valid design and matrix files.

Each file is a valid one with a few small edits: lines dropped, doubled or
cut short, tokens swapped for small or malformed ones, stray lines added.
Every such text must end in a ValueError or in an object that writes and
reads back to an equal object, and through `qnull verify` / `qnull rank` in
exit 0, 1 or 2 with at most one `error:` line, never in a traceback.  The
tokens are small, so no header asks a reader or a command for a large size.
The search flags of `minweight` and `minsupport` are fuzzed the same way on
a small Wilson file.
"""

import contextlib
import io
import re
import tempfile
import time
from pathlib import Path

from hypothesis import given, settings
from hypothesis import strategies as st

from qnull.cli import main
from qnull.designs import (
    construct_lb_design,
    construct_uniform_design,
    read_design,
    write_design,
)
from qnull.incidence import read_matrix, wilson_matrix, write_matrix

DESIGNS = [
    write_design(construct_uniform_design(3, 3, 2, 1)),
    write_design(construct_lb_design(2, 3, 1)),
    write_design(construct_lb_design(4, 2, 0, r=4)),
]
MATRICES = [
    write_matrix(wilson_matrix(2, 3, 1, 2)),
    write_matrix(wilson_matrix(3, 2, 0, 1)),
]
TOKENS = ["-1", "0", "1", "2", "3", "4", "5", "7", "9", "12", "012", "+1", "",
          "x", "1.0", "10", "01", "1;0", "100;010", "0|1"]
CHARS = "0123456789 |;-x"


@st.composite
def near_valid(draw, texts):
    lines = draw(st.sampled_from(texts)).splitlines()
    for _ in range(draw(st.integers(min_value=1, max_value=3))):
        i = draw(st.integers(min_value=0, max_value=len(lines)))
        line = lines[i] if i < len(lines) else ""
        edit = draw(st.sampled_from(["drop", "double", "cut", "token", "char", "add"]))
        if edit == "add" or i == len(lines):
            parts = draw(st.lists(st.sampled_from(TOKENS), min_size=1, max_size=6))
            lines.insert(i, draw(st.sampled_from([" ", "|"])).join(parts))
        elif edit == "drop":
            del lines[i]
        elif edit == "double":
            lines.insert(i, line)
        elif edit == "cut":
            lines[i] = line[: draw(st.integers(min_value=0, max_value=len(line)))]
        elif edit == "token":
            parts = re.split(r"([ |])", line)
            j = 2 * draw(st.integers(min_value=0, max_value=len(parts) // 2))
            parts[j] = draw(st.sampled_from(TOKENS))
            lines[i] = "".join(parts)
        else:
            j = draw(st.integers(min_value=0, max_value=len(line)))
            lines[i] = line[:j] + draw(st.sampled_from(CHARS)) + line[j + 1:]
    return "\n".join(lines) + "\n"


def _state(design):
    return design.field, design.n, design.r, design.t_claimed, dict(design.support)


@given(near_valid(DESIGNS))
@settings(max_examples=300, deadline=None)
def test_a_near_valid_design_file_is_refused_or_round_trips(text):
    try:
        design = read_design(text)
    except ValueError:
        return
    assert _state(read_design(write_design(design))) == _state(design)


@given(near_valid(MATRICES))
@settings(max_examples=300, deadline=None)
def test_a_near_valid_matrix_file_is_refused_or_round_trips(text):
    try:
        m = read_matrix(text)
    except ValueError:
        return
    assert read_matrix(write_matrix(m)) == m


def _run_on_file(text, argv):
    """Exit code and stderr of `qnull <argv> <file holding text>`, in process,
    so that any exception other than the handled ones fails the test."""
    out, err = io.StringIO(), io.StringIO()
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "in.txt"
        path.write_text(text, encoding="ascii")
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv + [str(path)])
    return code, err.getvalue()


def _check_exit(code, err):
    assert code in (0, 1, 2)
    if code == 2:
        assert err.startswith("error: ") and err.count("\n") == 1
    else:
        assert err == ""


@given(near_valid(DESIGNS), st.booleans())
@settings(max_examples=40, deadline=None)
def test_verify_on_a_near_valid_design_file_ends_in_an_exit_code(text, as_json):
    argv = ["verify"] + ["--json"] * as_json + ["--design"]
    _check_exit(*_run_on_file(text, argv))


@given(near_valid(MATRICES), st.sampled_from(["gf", "q"]))
@settings(max_examples=40, deadline=None)
def test_rank_on_a_near_valid_matrix_file_ends_in_an_exit_code(text, over):
    _check_exit(*_run_on_file(text, ["rank", "--over", over, "--matrix"]))


FANO = write_matrix(wilson_matrix(2, 3, 1, 2))
# small numbers, the default budget, primes of 20, 61 and 82 bits, the
# primality bound and two numbers past it
SEARCH_INTS = st.one_of(
    st.integers(min_value=-3, max_value=12),
    st.sampled_from([
        2**22, 10**6 + 3, 2**61 - 1, 3317044064679887385961813,
        3317044064679887385961981, 2**89 - 1, 10**40,
    ]),
)


@st.composite
def int_text(draw):
    """An integer as argparse reads it: a sign, leading zeros, digit groups or
    spaces.  Text that is no integer never reaches qnull: argparse refuses it
    with its own usage message."""
    v = draw(SEARCH_INTS)
    forms = ["{}", "00{}"] + ["+{}", "{:_}"] * (v >= 0)
    text = draw(st.sampled_from(forms)).format(abs(v))
    return draw(st.sampled_from(["{}", " {} "])).format("-" * (v < 0) + text)


def _check_search(argv):
    start = time.perf_counter()
    code, err = _run_on_file(FANO, argv + ["--matrix"])
    assert time.perf_counter() - start < 10, argv
    assert code in (0, 2), argv
    _check_exit(code, err)


@given(int_text(), int_text(), int_text(), st.sampled_from(["kernel", "support"]))
@settings(max_examples=150, deadline=None)
def test_minweight_search_flags_end_in_an_exit_code(cap, p, budget, mode):
    _check_search(
        ["minweight", "--cap", cap, "--p", p, "--budget", budget, "--mode", mode]
    )


@given(int_text(), int_text())
@settings(max_examples=60, deadline=None)
def test_minsupport_search_flags_end_in_an_exit_code(cap, budget):
    _check_search(["minsupport", "--cap", cap, "--budget", budget])
