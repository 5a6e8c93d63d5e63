import contextlib
import io
import json
import resource
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qnull.cli import EXIT_PIPE_CLOSED, main
from qnull.designs import read_design
from qnull.grassmann import contains, enumerate_subspaces, subspace_to_text
from qnull.incidence import read_matrix


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, *argv):
    code, out, err = run(capsys, *argv, "--json")
    return code, json.loads(out), err


# -- enumerate ------------------------------------------------------------------


def test_enumerate_human(capsys):
    code, out, err = run(capsys, "enumerate", "--q", "2", "--n", "2", "--k", "1")
    assert code == 0 and err == ""
    lines = out.strip().splitlines()
    assert lines == ["10", "11", "01", "count=3 gaussian_binomial=3"]


def test_enumerate_json(capsys):
    code, payload, _ = run_json(
        capsys, "enumerate", "--q", "2", "--n", "4", "--k", "2"
    )
    assert code == 0
    assert payload["count"] == payload["gaussian_binomial"] == 35
    assert len(payload["subspaces"]) == 35
    assert payload["subspaces"][0] == "1000;0100"


def test_enumerate_json_is_counted_before_it_is_listed(capsys, monkeypatch):
    # [12, 6]_2 = 230674393235 subspaces; the streamed text form has no count
    start = time.perf_counter()
    code, out, err = run(
        capsys, "enumerate", "--q", "2", "--n", "12", "--k", "6", "--json"
    )
    assert time.perf_counter() - start < 1.0
    _assert_refused(code, out, err)
    assert err == (
        "error: enumerate would list 230674393235 subspaces, budget is 4194304\n"
    )
    argv = ["enumerate", "--q", "2", "--n", "2", "--k", "1"]
    monkeypatch.setenv("QNULL_BUDGET", "2")
    code, out, err = run(capsys, *argv, "--json")
    _assert_refused(code, out, err)
    assert err == "error: enumerate would list 3 subspaces, budget is 2\n"
    code, out, err = run(capsys, *argv)
    assert code == 0 and err == "" and out.endswith("count=3 gaussian_binomial=3\n")
    monkeypatch.setenv("QNULL_BUDGET", "3")
    code, payload, _ = run_json(capsys, *argv)
    assert code == 0 and payload["count"] == 3


def test_enumerate_rejects_bad_parameters(capsys):
    code, _, err = run(capsys, "enumerate", "--q", "2", "--n", "2", "--k", "3")
    assert code == 2 and "error:" in err
    code, _, err = run(capsys, "enumerate", "--q", "6", "--n", "2", "--k", "1")
    assert code == 2 and "error:" in err


def test_enumerate_rejects_q_beyond_the_digit_alphabet(capsys):
    # 37 is prime, but the text format has only 36 digit symbols
    code, out, err = run(capsys, "enumerate", "--q", "37", "--n", "2", "--k", "1")
    assert code == 2 and out == ""
    assert err.startswith("error:") and len(err.splitlines()) == 1


# -- wilson ---------------------------------------------------------------------


def test_wilson_writes_readable_matrix(tmp_path, capsys):
    out = tmp_path / "w.txt"
    code, text, _ = run(
        capsys,
        "wilson", "--q", "2", "--n", "4", "--t", "1", "--k", "2",
        "--out", str(out),
    )
    assert code == 0 and "15x35" in text
    m = read_matrix(out.read_text())
    assert (m.rows, m.cols) == (15, 35)


def test_wilson_json_embeds_matrix_without_out(capsys):
    code, payload, _ = run_json(
        capsys, "wilson", "--q", "3", "--n", "3", "--t", "1", "--k", "2"
    )
    assert code == 0
    assert (payload["rows"], payload["cols"]) == (13, 13)
    m = read_matrix(payload["matrix"])
    assert m.q == 3 and m.cols == 13


def test_wilson_over_the_budget_is_refused_before_it_is_built(capsys, monkeypatch):
    # [12,6]_2 [6,5]_2 = 14532486773805 nonzeros, against default_budget(2)
    start = time.perf_counter()
    code, out, err = run(
        capsys, "wilson", "--q", "2", "--n", "12", "--t", "5", "--k", "6"
    )
    assert time.perf_counter() - start < 1.0
    _assert_refused(code, out, err)
    assert err == (
        "error: wilson matrix would have 14532486773805 nonzeros, budget is 4194304\n"
    )
    # W_{1,2} of GF(2)^3 has 21 nonzeros
    argv = ["wilson", "--q", "2", "--n", "3", "--t", "1", "--k", "2"]
    monkeypatch.setenv("QNULL_BUDGET", "20")
    code, out, err = run(capsys, *argv)
    _assert_refused(code, out, err)
    assert "21 nonzeros, budget is 20" in err
    monkeypatch.setenv("QNULL_BUDGET", "21")
    assert run(capsys, *argv)[0] == 0


@pytest.mark.parametrize(
    "argv, key",
    [
        (["wilson", "--q", "2", "--n", "3", "--t", "1", "--k", "2"], "matrix"),
        (["construct", "--kind", "lb", "--q", "2", "--n", "3", "--t", "1"], "design"),
    ],
)
def test_json_with_out_names_the_file_instead_of_embedding_it(
    tmp_path, capsys, argv, key
):
    code, embedded, _ = run_json(capsys, *argv)
    assert code == 0 and embedded["out"] is None
    path = tmp_path / "x.txt"
    code, payload, _ = run_json(capsys, *argv, "--out", str(path))
    assert code == 0 and key not in payload and payload["out"] == str(path)
    assert path.read_text() == embedded.pop(key)
    assert {**payload, "out": None} == embedded


@pytest.mark.parametrize(
    "argv",
    [
        ["wilson", "--q", "2", "--n", "3", "--t", "1", "--k", "2"],
        ["construct", "--kind", "lb", "--q", "2", "--n", "3", "--t", "1"],
    ],
)
@pytest.mark.parametrize("as_json", [False, True])
def test_unwritable_out_is_a_usage_error(tmp_path, capsys, argv, as_json):
    for out in (str(tmp_path / "no" / "such" / "x.txt"), str(tmp_path)):
        code, stdout, err = run(capsys, *argv, "--out", out, *["--json"] * as_json)
        _assert_refused(code, stdout, err)
        assert err.startswith(f"error: cannot write {out}: "), err


# -- construct / verify / strength ------------------------------------------------


def test_construct_verify_strength_round_trip(tmp_path, capsys):
    path = tmp_path / "d.txt"
    code, _, _ = run(
        capsys,
        "construct", "--kind", "lb", "--q", "2", "--n", "4", "--t", "1",
        "--out", str(path),
    )
    assert code == 0
    d = read_design(path.read_text())
    assert len(d.support) == 4 and d.t_claimed == 1

    code, out, _ = run(capsys, "verify", "--design", str(path))
    assert code == 0 and "ok" in out

    code, payload, _ = run_json(capsys, "strength", "--design", str(path))
    assert code == 0 and payload["strength"] == 1


def test_a_design_at_the_largest_n_is_written_and_verified(tmp_path, capsys):
    # its ordinals come from block sizes, not from the C(256, 3) pivot sets
    path = tmp_path / "d.txt"
    argv = ["construct", "--kind", "lb", "--q", "2", "--n", "256", "--t", "2"]
    code, _, err = run(capsys, *argv, "--out", str(path))
    assert code == 0 and err == ""
    assert len(read_design(path.read_text()).support) == 8
    code, out, err = run(capsys, "verify", "--design", str(path))
    assert code == 0 and err == "" and out == "ok: strength 2 holds mod 2\n"


def test_verify_flags_a_corrupted_design(tmp_path, capsys):
    path = tmp_path / "d.txt"
    run(
        capsys,
        "construct", "--kind", "lb", "--q", "2", "--n", "3", "--t", "1",
        "--out", str(path),
    )
    lines = path.read_text().splitlines()
    head, body = lines[0], lines[1:]
    dim, text, coeff = body[0].split("|")
    body[0] = f"{dim}|{text}|{int(coeff) + 1}"
    path.write_text("\n".join([head] + body) + "\n")

    code, payload, _ = run_json(capsys, "verify", "--design", str(path))
    assert code == 1
    assert not payload["ok"] and payload["violations"]
    code, out, _ = run(capsys, "verify", "--design", str(path))
    assert code == 1 and "FAIL" in out


def test_verify_lists_exactly_the_per_y_violations(tmp_path, capsys):
    """Each violation printed by its Wilson row is the literal per-y sum."""
    path = tmp_path / "u.txt"
    run(
        capsys,
        "construct", "--kind", "uniform", "--q", "3", "--n", "4", "--t", "1",
        "--k", "2", "--out", str(path),
    )
    lines = path.read_text().splitlines()
    dim, text, coeff = lines[1].split("|")
    lines[1] = f"{dim}|{text}|{int(coeff) + 1}"  # 1 -> 2 mod 3
    del lines[-1]
    path.write_text("\n".join(lines) + "\n")
    design = read_design(path.read_text())
    want = []
    for y in enumerate_subspaces(design.field, design.n, 1):
        v = sum(c for x, c in design.support.items() if contains(x, y)) % design.r
        if v:
            want.append({"dim": 1, "subspace": subspace_to_text(y), "sum": v})
    assert {w["sum"] for w in want} == {1, 2}

    code, payload, _ = run_json(capsys, "verify", "--design", str(path))
    assert code == 1 and not payload["ok"]
    assert payload["violations"] == want
    code, out, _ = run(capsys, "verify", "--design", str(path))
    assert code == 1
    assert out.splitlines() == ["FAIL: strength 1 violated mod 3"] + [
        f"  dim 1 [{w['subspace']}] sum={w['sum']}" for w in want
    ]


def test_construct_uniform_needs_k(tmp_path, capsys):
    code, _, err = run(
        capsys, "construct", "--kind", "uniform", "--q", "2", "--n", "4",
        "--t", "1",
    )
    assert code == 2 and "error:" in err
    path = tmp_path / "u.txt"
    code, _, _ = run(
        capsys,
        "construct", "--kind", "uniform", "--q", "2", "--n", "4", "--t", "1",
        "--k", "2", "--out", str(path),
    )
    assert code == 0
    d = read_design(path.read_text())
    assert len(d.support) == 4 and d.uniform_dim() == 2

    code, _, _ = run(capsys, "verify", "--design", str(path), "--t", "1")
    assert code == 0


@pytest.mark.parametrize(
    "design, t_max",
    [
        ("2 3 2 1\n2|100;010|1\n", "-1"),  # below 0
        ("2 3 2 0\n", "9"),  # void design, beyond n = 3
    ],
)
def test_strength_rejects_t_max_outside_0_to_n(tmp_path, capsys, design, t_max):
    path = tmp_path / "d.txt"
    path.write_text(design)
    code, out, err = run(capsys, "strength", "--design", str(path), "--t-max", t_max)
    assert code == 2 and out == "" and "t_max" in err


def _whole_space_design(tmp_path, n):
    """One element, GF(2)^n itself: a short file whose t-layers are huge."""
    rows = ";".join("0" * i + "1" + "0" * (n - 1 - i) for i in range(n))
    path = tmp_path / "whole.txt"
    path.write_text(f"2 {n} 2 0\n{n}|{rows}|1\n")
    return str(path)


@pytest.mark.parametrize(
    "argv, err",
    [
        # q^(t+1) = 2^24
        ("construct --kind uniform --q 2 --n 30 --t 23 --k 25",
         "uniform design would have 16777216 nonzeros"),
        # 1 + [23, 22]_2 = 2^23
        ("construct --kind lb --q 2 --n 30 --t 22",
         "lb design would have 8388608 nonzeros"),
        # [24, 12]_2
        ("verify --t 12 --design {}",
         "verifying strength 12 would list "
         "77184136346814161837268404381760884963259795 subspaces"),
        # [24, 0]_2 + ... + [24, 24]_2
        ("strength --design {}",
         "the strength scan would list "
         "164304968783681312159419977026505787771908319 subspaces"),
    ],
)
def test_large_designs_are_refused_before_any_work(tmp_path, capsys, argv, err):
    argv = argv.format(_whole_space_design(tmp_path, 24)).split()
    start = time.perf_counter()
    code, out, got = run(capsys, *argv)
    assert time.perf_counter() - start < 1.0
    _assert_refused(code, out, got)
    assert got == f"error: {err}, budget is 4194304\n"


@pytest.mark.parametrize(
    "argv, count, what",
    [
        # 1 + [2, 1]_2
        ("construct --kind lb --q 2 --n 3 --t 1", 4,
         "lb design would have {} nonzeros"),
        # 2^2
        ("construct --kind uniform --q 2 --n 3 --t 1 --k 2", 4,
         "uniform design would have {} nonzeros"),
        # [2, 1]_2 + 3 [1, 1]_2
        ("verify --design {}", 6, "verifying strength 1 would list {} subspaces"),
        # t = 0 adds 1 + 3
        ("strength --design {}", 10, "the strength scan would list {} subspaces"),
    ],
)
def test_design_budget_boundary_through_the_environment(
    tmp_path, capsys, monkeypatch, argv, count, what
):
    path = tmp_path / "lb.txt"
    run(capsys, "construct", "--kind", "lb", "--q", "2", "--n", "3", "--t", "1",
        "--out", str(path))
    argv = argv.format(path).split()
    monkeypatch.setenv("QNULL_BUDGET", str(count - 1))
    code, out, err = run(capsys, *argv)
    _assert_refused(code, out, err)
    assert err == f"error: {what.format(count)}, budget is {count - 1}\n"
    monkeypatch.setenv("QNULL_BUDGET", str(count))
    assert run(capsys, *argv)[0] == 0


def test_verify_missing_file_is_usage_error(capsys):
    code, _, err = run(capsys, "verify", "--design", "/nonexistent/d.txt")
    assert code == 2 and "cannot read" in err


@pytest.mark.parametrize("argv", ["verify --design", "rank --over q --matrix"])
def test_a_file_that_is_not_ascii_is_named(tmp_path, capsys, argv):
    path = tmp_path / "f.txt"
    path.write_bytes(b"\xff2 3 2 1\n")
    code, out, err = run(capsys, *argv.split(), str(path))
    assert (code, out) == (2, "")
    assert err.startswith(f"error: cannot read {path}: ") and err.count("\n") == 1


@pytest.mark.parametrize(
    "argv, text, named",
    [
        ("verify --design", "2 3 2 x\n", "bad header '2 3 2 x'"),
        ("verify --design", "2 3 2 1\nx|100|1\n", "bad design line 'x|100|1'"),
        ("verify --design", "2 3 2 1\n1|100|y\n", "bad design line '1|100|y'"),
        ("verify --design", "2 3 2 1\n1|100|1.5\n", "bad design line '1|100|1.5'"),
        ("rank --over q --matrix", "2 3 1 2 x 7\n", "bad header '2 3 1 2 x 7'"),
    ],
)
def test_a_non_integer_in_a_file_names_its_header_or_line(
    tmp_path, capsys, argv, text, named
):
    path = tmp_path / "f.txt"
    path.write_text(text)
    code, out, err = run(capsys, *argv.split(), str(path))
    assert (code, out) == (2, "")
    assert named in err and err.count("\n") == 1


# -- refused parameters -----------------------------------------------------------


def _assert_refused(code, out, err):
    assert (code, out) == (2, "")
    assert err.startswith("error: ") and err.count("\n") == 1, err


@pytest.mark.parametrize(
    "argv",
    [
        # n < 0
        "enumerate --q 2 --n -1 --k 0",
        "wilson --q 2 --n -1 --t 0 --k 0",
        "construct --kind lb --q 2 --n -1 --t 0",
        "construct --kind uniform --q 2 --n -1 --t 0 --k 0",
        # k outside [0, n]; lb builds no k-spaces, but a given --k is checked
        "enumerate --q 2 --n 2 --k 3",
        "enumerate --q 2 --n 2 --k -1",
        "wilson --q 2 --n 3 --t 1 --k 4",
        "wilson --q 2 --n 3 --t 0 --k -1",
        "construct --kind uniform --q 2 --n 3 --t 1 --k 4",
        "construct --kind uniform --q 2 --n 3 --t 0 --k -1",
        "construct --kind lb --q 2 --n 3 --t 1 --k 4",
        "construct --kind lb --q 2 --n 3 --t 0 --k -1",
        # t outside [0, n], or t > k
        "wilson --q 2 --n 3 --t -1 --k 1",
        "wilson --q 2 --n 3 --t 4 --k 4",
        "wilson --q 2 --n 3 --t 2 --k 1",
        "construct --kind lb --q 2 --n 3 --t -1",
        "construct --kind lb --q 2 --n 3 --t 4",
        "construct --kind lb --q 2 --n 3 --t 2 --k 1",
        "construct --kind uniform --q 2 --n 4 --t 2 --k 1",
        # r not a power of p, or outside [2, q]
        "construct --kind lb --q 4 --n 2 --t 0 --r 3",
        "construct --kind uniform --q 9 --n 3 --t 0 --k 1 --r 2",
        "construct --kind lb --q 2 --n 3 --t 1 --r 4",
        "construct --kind uniform --q 3 --n 3 --t 0 --k 1 --r 9",
        "construct --kind lb --q 2 --n 3 --t 1 --r 1",
        "construct --kind lb --q 2 --n 3 --t 1 --r 0",
        "construct --kind uniform --q 2 --n 3 --t 0 --k 1 --r -2",
        # q not a prime power
        "enumerate --q 6 --n 2 --k 1",
        "enumerate --q 0 --n 2 --k 1",
        "wilson --q 1 --n 2 --t 0 --k 1",
        "construct --kind lb --q 6 --n 2 --t 0",
        "construct --kind uniform --q 0 --n 3 --t 0 --k 1",
        # uniform needs k
        "construct --kind uniform --q 2 --n 4 --t 1",
    ],
)
def test_bad_parameters_are_refused_with_one_line(capsys, argv):
    _assert_refused(*run(capsys, *argv.split()))


SMALL = st.integers(min_value=-2, max_value=5)


@given(
    st.sampled_from(["enumerate", "wilson", "construct", "strength"]),
    st.sampled_from([0, 1, 2, 3, 4, 6, 37]),
    st.tuples(SMALL, SMALL, SMALL, SMALL),
    st.sampled_from(["lb", "uniform"]),
    st.sampled_from([(), ("k",), ("r",), ("k", "r")]),
    st.booleans(),
)
@settings(max_examples=200, deadline=None)
def test_small_and_bad_arguments_end_in_an_exit_code(
    command, q, ntkr, kind, given_args, as_json
):
    """Any small numbers, valid or not, end in exit 0, 1 or 2, and 2 comes
    with one error line.  strength reads a design file with no support whose
    header is `q n r t`, and takes k as --t-max."""
    n, t, k, r = (str(v) for v in ntkr)
    argv = {
        "enumerate": ["enumerate", "--q", str(q), "--n", n, "--k", k],
        "wilson": ["wilson", "--q", str(q), "--n", n, "--t", t, "--k", k],
        "construct": ["construct", "--kind", kind, "--q", str(q), "--n", n, "--t", t]
        + ["--k", k] * ("k" in given_args) + ["--r", r] * ("r" in given_args),
        "strength": ["strength", "--t-max", k] * ("k" in given_args) or ["strength"],
    }[command] + ["--json"] * as_json
    out, err = io.StringIO(), io.StringIO()
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "d.txt"
        path.write_text(f"{q} {n} {r} {t}\n", encoding="ascii")
        if command == "strength":
            argv += ["--design", str(path)]
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
    assert code in (0, 1, 2)
    if code == 2:
        _assert_refused(code, out.getvalue(), err.getvalue())
    else:
        assert err.getvalue() == ""


# -- rank -------------------------------------------------------------------------


@pytest.fixture()
def wilson_file(tmp_path, capsys):
    path = tmp_path / "w242.txt"
    run(
        capsys,
        "wilson", "--q", "2", "--n", "4", "--t", "1", "--k", "2",
        "--out", str(path),
    )
    return str(path)


def test_rank_over_gf_and_q(wilson_file, capsys):
    code, payload, _ = run_json(capsys, "rank", "--matrix", wilson_file, "--over", "gf")
    assert code == 0 and payload["rank"] == 11 and payload["p"] == 2
    code, payload, _ = run_json(capsys, "rank", "--matrix", wilson_file, "--over", "q")
    assert code == 0 and payload["rank"] == 15 and payload["p"] is None
    code, out, _ = run(capsys, "rank", "--matrix", wilson_file, "--over", "gf")
    assert "rank over GF(2): 11" in out


def test_rank_over_a_large_prime_answers_and_past_the_primality_bound_refuses(
    wilson_file, capsys
):
    # 2^61 - 1 takes 64-bit lanes; trial division would take 1.5e9 steps
    code, out, err = run(
        capsys, "rank", "--matrix", wilson_file, "--over", "gf", "--p", str(2**61 - 1)
    )
    assert (code, err) == (0, "")
    assert out == f"rank over GF({2**61 - 1}): 15  (15x35)\n"
    code, out, err = run(
        capsys, "rank", "--matrix", wilson_file, "--over", "gf", "--p", str(2**89 - 1)
    )
    _assert_refused(code, out, err)
    assert "primality is decided below 3317044064679887385961981" in err


@pytest.mark.parametrize("p", ["4", "7"])
def test_rank_over_q_refuses_a_modulus(wilson_file, capsys, p):
    # the rank over Q takes no modulus: a given --p, prime or not, is refused
    argv = ("rank", "--matrix", wilson_file, "--over", "q", "--p", p)
    code, out, err = run(capsys, *argv)
    _assert_refused(code, out, err)
    assert f"--p {p} applies only to --over gf" in err


def test_rank_rejects_duplicate_matrix_entry(tmp_path, capsys):
    path = tmp_path / "dup.txt"
    path.write_text("2 2 1 1 1 1\n0 0\n0 0\n")
    code, out, err = run(capsys, "rank", "--matrix", str(path), "--over", "gf")
    assert code == 2 and out == ""
    assert "entry (0,0) listed twice" in err


@pytest.mark.parametrize("shape", ["0 3", "-1 3", "2 -1"])
@pytest.mark.parametrize(
    "argv",
    [
        ["minweight", "--p", "3", "--cap", "4"],
        ["minsupport", "--cap", "4"],
        ["rank", "--over", "gf"],
    ],
)
def test_degenerate_matrix_shape_is_a_usage_error(tmp_path, capsys, shape, argv):
    # a 0x3 matrix has every vector in its kernel, so "none found" would be wrong
    path = tmp_path / "shape.txt"
    path.write_text(f"2 3 1 2 {shape}\n")
    code, out, err = run(capsys, *argv, "--matrix", str(path))
    assert code == 2 and out == ""
    assert err.startswith("error: ") and err.count("\n") == 1
    assert f"bad shape {shape.replace(' ', 'x')}" in err


@pytest.mark.parametrize(
    "text,message",
    [
        # 99,999,999,999 rows would be allocated by the dense paths
        ("2 3 1 2 99999999999 1\n0 0\n", "99999999999 rows exceed the 7 1-subspaces"),
        ("6 1 0 1 1 2\n0 0\n0 1\n", "6 is not a prime power"),
        ("2 3 1 2 1 1\n1\n", "bad matrix line '1'"),
        ("2 3 1 2 1 1\n0 1 2\n", "bad matrix line '0 1 2'"),
    ],
)
def test_matrix_header_and_lines_are_checked_before_any_work(
    tmp_path, capsys, monkeypatch, text, message
):
    import qnull.cli

    def no_search(*args, **kwargs):
        raise AssertionError("the search ran on a refused matrix file")

    monkeypatch.setattr(qnull.cli, "min_weight_kernel_gfp", no_search)
    path = tmp_path / "m.txt"
    path.write_text(text)
    for argv in (
        ["minweight", "--p", "2", "--cap", "2"],
        ["rank", "--over", "q"],
    ):
        code, out, err = run(capsys, *argv, "--matrix", str(path))
        assert (code, out) == (2, ""), argv
        assert err.startswith("error: bad matrix file ") and err.count("\n") == 1
        assert message in err
        assert "unpack" not in err


@pytest.mark.parametrize("head", ["2 1000000 1 2 3 3", "2 1000000 0 0 1 1"])
@pytest.mark.parametrize(
    "argv", [["minweight", "--p", "2", "--cap", "1"], ["minsupport", "--cap", "1"]]
)
def test_matrix_of_a_huge_dimension_is_refused(tmp_path, capsys, head, argv):
    # every column is 0, so each search finds a witness at once, and naming
    # its subspaces would take the packed layout of GF(2)^1000000 and, at
    # k = 2, its C(1000000, 2) pivot sets
    path = tmp_path / "m.txt"
    path.write_text(head + "\n")
    code, out, err = run(capsys, *argv, "--matrix", str(path))
    _assert_refused(code, out, err)
    assert err == (
        f"error: bad matrix file {path}: dimension 1000000 is above the limit 256\n"
    )


# -- minweight ----------------------------------------------------------------------


def test_minweight_json_payload(wilson_file, capsys):
    code, payload, _ = run_json(
        capsys,
        "minweight", "--matrix", wilson_file, "--p", "2", "--cap", "8",
        "--mode", "support",
    )
    assert code == 0
    assert payload["weight"] == 4
    assert payload["exhaustive"] is True
    assert payload["mode"] == "support-enumeration"
    w = payload["witness"]
    assert len(w["support"]) == 4 == len(w["values"])
    # the witness doubles as a verifiable design file
    d = read_design(w["design"])
    assert d.t_claimed == 1 and len(d.support) == 4


def test_minweight_none_found_below_cap(wilson_file, capsys):
    code, payload, _ = run_json(
        capsys,
        "minweight", "--matrix", wilson_file, "--p", "2", "--cap", "3",
        "--mode", "support",
    )
    assert code == 0
    assert payload["weight"] == "none found" and payload["witness"] is None


def test_minweight_budget_flag_refusal(wilson_file, capsys):
    code, _, err = run(
        capsys,
        "minweight", "--matrix", wilson_file, "--p", "2", "--cap", "4",
        "--mode", "kernel", "--budget", "100",
    )
    assert code == 2 and "budget" in err


def test_minweight_budget_env(wilson_file, capsys, monkeypatch):
    monkeypatch.setenv("QNULL_BUDGET", "100")
    code, _, err = run(
        capsys,
        "minweight", "--matrix", wilson_file, "--p", "2", "--cap", "4",
        "--mode", "kernel",
    )
    assert code == 2 and "budget" in err
    # an explicit flag outranks the environment
    code, _, _ = run(
        capsys,
        "minweight", "--matrix", wilson_file, "--p", "2", "--cap", "4",
        "--mode", "kernel", "--budget", str(2**24),
    )
    assert code == 0
    monkeypatch.setenv("QNULL_BUDGET", "not-a-number")
    code, _, err = run(
        capsys,
        "minweight", "--matrix", wilson_file, "--p", "2", "--cap", "4",
        "--mode", "kernel",
    )
    assert code == 2 and "QNULL_BUDGET" in err


def test_budget_below_one_is_a_usage_error(wilson_file, capsys, monkeypatch):
    # refused before any work, not as a search that "reached 1 nodes"
    code, out, err = run(capsys, "reproduce", "--only", "gf2-rank", "--budget", "-1")
    assert (code, out) == (2, "")
    assert err == "error: budget must be >= 1, got -1\n"
    monkeypatch.setenv("QNULL_BUDGET", "-3")
    code, out, err = run(
        capsys,
        "minweight", "--matrix", wilson_file, "--p", "2", "--cap", "4",
        "--mode", "kernel",
    )
    assert (code, out) == (2, "")
    assert err == "error: budget must be >= 1, got -3\n"
    monkeypatch.setenv("QNULL_BUDGET", "0")
    code, _, err = run(capsys, "reproduce", "--only", "gf2-rank")
    assert code == 2 and err == "error: budget must be >= 1, got 0\n"


@pytest.mark.parametrize("threads", ["-5", "0"])
@pytest.mark.parametrize(
    "argv",
    [
        ["reproduce", "--only", "gf2-rank q2 n4"],
        ["minweight", "--p", "2", "--cap", "4", "--matrix"],
        ["minsupport", "--cap", "4", "--matrix"],
    ],
)
def test_threads_below_one_is_a_usage_error(wilson_file, capsys, argv, threads):
    if argv[-1] == "--matrix":
        argv = argv + [wilson_file]
    code, out, err = run(capsys, *argv, "--threads", threads)
    assert (code, out) == (2, "")
    assert err == f"error: threads must be >= 1, got {threads}\n"


def test_field_orders_above_the_table_limit_are_usage_errors(tmp_path, capsys):
    # q = 10007 would first build two q x q tables, about 10^8 entries each
    code, out, err = run(capsys, "enumerate", "--q", "10007", "--n", "1", "--k", "1")
    assert (code, out) == (2, "")
    assert err == "error: field order 10007 is above the limit 1024\n"
    design = tmp_path / "d.txt"
    design.write_text("10007 1 10007 0\n")
    matrix = tmp_path / "m.txt"
    matrix.write_text("10007 1 0 1 1 2\n0 0\n0 1\n")
    for argv in (
        ["verify", "--design", str(design)],
        ["rank", "--matrix", str(matrix), "--over", "gf"],
        # the search finds columns 0 and 1; the refusal comes with its design
        ["minweight", "--matrix", str(matrix), "--p", "2", "--cap", "2"],
    ):
        code, out, err = run(capsys, *argv)
        assert (code, out) == (2, ""), argv
        assert err.startswith("error: ") and err.count("\n") == 1, argv
        assert "field order 10007 is above the limit 1024" in err, argv


def test_minweight_support_budget_refusal(tmp_path, capsys):
    path = tmp_path / "w2523.txt"
    run(
        capsys,
        "wilson", "--q", "2", "--n", "5", "--t", "2", "--k", "3",
        "--out", str(path),
    )
    code, out, err = run(
        capsys,
        "minweight", "--matrix", str(path), "--p", "2", "--cap", "8",
        "--mode", "support", "--budget", "1000",
    )
    assert code == 2 and out == ""
    assert err.startswith("error:") and "budget" in err


@pytest.mark.parametrize(
    "argv", [["minweight", "--p", "2", "--mode", "support"], ["minsupport"]]
)
def test_searches_root_at_column_0_only_on_a_genuine_wilson_file(
    tmp_path, capsys, monkeypatch, argv
):
    # W_{0,1} over GF(2)^3 is one row of 7 ones: the least dependent set is
    # {0, 1}, rooted or not; with column 3 emptied, it is {3}, which a search
    # rooted at column 0 would miss, so the edited file takes the full loop
    import qnull.linalg

    search, rooted = qnull.linalg._least_dependent_set, []

    def spy(*args):
        rooted.append(args[-1])
        return search(*args)

    monkeypatch.setattr(qnull.linalg, "_least_dependent_set", spy)
    path = tmp_path / "w.txt"
    run(capsys, "wilson", "--q", "2", "--n", "3", "--t", "0", "--k", "1",
        "--out", str(path))
    edited = tmp_path / "edited.txt"
    edited.write_text(path.read_text().replace("0 3\n", ""))
    for matrix, support in ((path, [0, 1]), (edited, [3])):
        code, payload, _ = run_json(
            capsys, *argv, "--matrix", str(matrix), "--cap", "3"
        )
        assert code == 0 and payload["witness"]["support"] == support
    assert rooted == [True, False]


def test_minweight_broken_witness_is_an_internal_error(wilson_file, capsys, monkeypatch):
    # a witness helper that returns a vector outside the kernel is a bug: the
    # self-check must end in exit 3, not in the usage-error exit 2 (over GF(3)
    # the least witness here is 1 2 2 1 2 1, so all ones is wrong)
    import qnull.linalg

    monkeypatch.setattr(qnull.linalg, "_nullvector", lambda rows, w, p: (1,) * w)
    code, out, err = run(
        capsys,
        "minweight", "--matrix", wilson_file, "--p", "3", "--cap", "8",
        "--mode", "support",
    )
    assert code == 3 and out == ""
    assert err == "internal error: witness is not in the kernel\n"


def test_minweight_cap_validation(wilson_file, capsys):
    code, _, err = run(
        capsys, "minweight", "--matrix", wilson_file, "--p", "2", "--cap", "0"
    )
    assert code == 2 and "cap" in err


# -- minsupport ---------------------------------------------------------------------


def test_minsupport_finds_pair_on_rank_one_matrix(tmp_path, capsys):
    path = tmp_path / "row.txt"
    run(
        capsys,
        "wilson", "--q", "2", "--n", "4", "--t", "0", "--k", "1",
        "--out", str(path),
    )
    code, payload, _ = run_json(
        capsys, "minsupport", "--matrix", str(path), "--cap", "3"
    )
    assert code == 0
    assert payload["weight"] == 2
    assert payload["witness"] == {"support": [0, 1], "values": [1, -1]}
    code, out, _ = run(capsys, "minsupport", "--matrix", str(path), "--cap", "3")
    assert "witness subspaces:" in out and "|-1" in out


def test_minsupport_broken_witness_is_an_internal_error(tmp_path, capsys, monkeypatch):
    # the rational witness takes the same self-check: on one row of ones the
    # least dependent set is {0, 1}, and 1, 1 does not kill it over Q
    import qnull.linalg

    monkeypatch.setattr(qnull.linalg, "_nullvector", lambda rows, w, p: (1,) * w)
    path = tmp_path / "row.txt"
    run(
        capsys,
        "wilson", "--q", "2", "--n", "4", "--t", "0", "--k", "1",
        "--out", str(path),
    )
    code, out, err = run(capsys, "minsupport", "--matrix", str(path), "--cap", "3")
    assert code == 3 and out == ""
    assert err == "internal error: witness is not in the kernel\n"


def test_minsupport_budget_refusal_states_the_count(tmp_path, capsys, monkeypatch):
    path = tmp_path / "row.txt"
    run(
        capsys,
        "wilson", "--q", "2", "--n", "4", "--t", "0", "--k", "1",
        "--out", str(path),
    )
    code, out, err = run(
        capsys, "minsupport", "--matrix", str(path), "--cap", "3", "--budget", "1"
    )
    # the file is W_{0,1} itself, so each stage tries only column 0 first:
    # stage 1 takes one node, and stage 2's first is over the budget
    assert (code, out) == (2, "")
    assert err == "error: support search reached 2 nodes at stage w=2, budget is 1\n"
    # with one entry dropped it is not, and stage 1 tries every column
    lines = path.read_text().splitlines()
    edited = tmp_path / "edited.txt"
    edited.write_text("\n".join(lines[:-1]) + "\n")
    _, _, full = run(
        capsys, "minsupport", "--matrix", str(edited), "--cap", "3", "--budget", "1"
    )
    assert full == "error: support search reached 2 nodes at stage w=1, budget is 1\n"
    monkeypatch.setenv("QNULL_BUDGET", "1")
    assert run(capsys, "minsupport", "--matrix", str(path), "--cap", "3") == (
        code, out, err
    )
    monkeypatch.setenv("QNULL_BUDGET", "x")
    code, _, err = run(capsys, "minsupport", "--matrix", str(path), "--cap", "3")
    assert code == 2 and "QNULL_BUDGET must be an integer" in err


def test_minsupport_none_on_full_rank_matrix(tmp_path, capsys):
    path = tmp_path / "ident.txt"
    run(
        capsys,
        "wilson", "--q", "3", "--n", "3", "--t", "2", "--k", "2",
        "--out", str(path),
    )
    code, payload, _ = run_json(
        capsys, "minsupport", "--matrix", str(path), "--cap", "13"
    )
    assert code == 0
    assert payload["weight"] == "none found" and payload["exhaustive"] is True


def test_a_witness_over_gf37_is_printed_without_subspace_text(tmp_path, capsys):
    # the text format has 36 digits, too few for GF(37): both searches keep
    # their answer and leave out only the design file and subspace lines
    path = tmp_path / "w37.txt"
    run(
        capsys,
        "wilson", "--q", "37", "--n", "2", "--t", "0", "--k", "1",
        "--out", str(path),
    )
    for argv, values in (
        (["minweight", "--p", "37", "--mode", "support"], [1, 36]),
        (["minsupport"], [1, -1]),
    ):
        argv += ["--matrix", str(path), "--cap", "3"]
        code, payload, err = run_json(capsys, *argv)
        assert (code, err) == (0, ""), argv
        assert payload["weight"] == 2
        assert payload["witness"] == {"support": [0, 1], "values": values}
        code, out, err = run(capsys, *argv)
        assert (code, err) == (0, ""), argv
        assert out.splitlines() == [
            "weight:     2",
            "mode:       support-enumeration",
            "exhaustive: True",
            "cap:        3",
            f"witness:    0:{values[0]} 1:{values[1]}",
        ]


# -- reproduce ------------------------------------------------------------------------


def test_reproduce_filtered_subset(capsys):
    code, out, _ = run(capsys, "reproduce", "--only", "counts q2")
    assert code == 0
    lines = out.strip().splitlines()
    assert all(ln.startswith("[PASS]") for ln in lines[:-1])
    assert lines[-1].endswith("0 failures")


def test_reproduce_json_is_deterministic(capsys):
    code1, out1, _ = run(capsys, "reproduce", "--only", "counts q3", "--json")
    code2, out2, _ = run(capsys, "reproduce", "--only", "counts q3", "--json")
    assert code1 == code2 == 0
    assert out1 == out2
    payload = json.loads(out1)
    assert payload["failures"] == 0 and payload["checks"] > 0
    assert {r["status"] for r in payload["rows"]} == {"PASS"}


def test_reproduce_corruption_control_fails(capsys):
    code, payload, _ = run_json(
        capsys, "reproduce", "--only", "gf2-rank q2 n4", "--inject-corruption"
    )
    assert code == 1
    assert payload["failures"] >= 1
    bad = [r for r in payload["rows"] if r["status"] == "FAIL"]
    assert bad and bad[0]["criterion"] == 6


def test_reproduce_empty_filter_matches_nothing(capsys):
    code, payload, _ = run_json(capsys, "reproduce", "--only", "zzz-no-such-label")
    assert code == 0 and payload["checks"] == 0


# -- output ---------------------------------------------------------------------


def test_enumerate_streams_until_the_reader_goes_away():
    """2^40 - 1 lines: the reader takes 3 and closes, and the next write ends it.

    Under a 400 MB address-space limit, so a command that lists every
    subspace before it prints fails here instead of filling the host.
    """

    def limit_memory():
        resource.setrlimit(resource.RLIMIT_AS, (400 << 20, 400 << 20))

    proc = subprocess.Popen(
        [sys.executable, "-m", "qnull.cli", "enumerate", "--q", "2", "--n", "40"]
        + ["--k", "1"],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        preexec_fn=limit_memory,
    )
    head = [proc.stdout.readline() for _ in range(3)]
    proc.stdout.close()
    err = proc.stderr.read()
    proc.stderr.close()
    assert proc.wait(timeout=60) == EXIT_PIPE_CLOSED
    assert head == [b"1" + b"0" * 38 + tail + b"\n" for tail in (b"0", b"1")] + [
        b"1" + b"0" * 37 + b"10\n"
    ]
    assert err == b""


def test_enumerate_prints_the_first_subspace_of_a_deep_layer_at_once():
    """[40, 20]_2 has C(40, 20) pivot sets; the first line needs only the
    first, under the same 400 MB address-space limit as above."""

    def limit_memory():
        resource.setrlimit(resource.RLIMIT_AS, (400 << 20, 400 << 20))

    start = time.perf_counter()
    proc = subprocess.Popen(
        [sys.executable, "-m", "qnull.cli", "enumerate", "--q", "2", "--n", "40"]
        + ["--k", "20"],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        preexec_fn=limit_memory,
    )
    first = proc.stdout.readline()
    proc.stdout.close()
    err = proc.stderr.read()
    proc.stderr.close()
    assert proc.wait(timeout=60) == EXIT_PIPE_CLOSED
    assert time.perf_counter() - start < 10
    units = ["0" * i + "1" + "0" * (39 - i) for i in range(20)]
    assert first == (";".join(units) + "\n").encode()
    assert err == b""


@pytest.mark.parametrize(
    "argv",
    [
        ["rank", "--over", "q"],
        ["rank", "--over", "gf"],
        ["minweight", "--p", "2", "--cap", "1", "--mode", "support"],
        ["minsupport", "--cap", "1"],
    ],
)
def test_a_matrix_too_large_to_hold_is_refused_before_it_is_built(tmp_path, argv):
    """200000 x 200000 entries take 625000000 64-bit words at one bit each.

    Under a 400 MB address-space limit, so a command that builds the matrix
    before it counts ends in a MemoryError here instead of filling the host.
    """

    def limit_memory():
        resource.setrlimit(resource.RLIMIT_AS, (400 << 20, 400 << 20))

    path = tmp_path / "big.txt"
    path.write_text("2 40 20 20 200000 200000\n0 0\n")
    start = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, "-m", "qnull.cli", *argv, "--matrix", str(path)],
        capture_output=True,
        preexec_fn=limit_memory,
        timeout=60,
    )
    assert time.perf_counter() - start < 1
    assert (proc.returncode, proc.stdout) == (2, b"")
    # dense over Q, one 64-bit slot per entry; packed over GF(2), one bit
    need = b"40000000000 64-bit words at 64 bits" if argv[-1] == "q" else (
        b"625000000 64-bit words at one bit"
    )
    assert proc.stderr == (
        b"error: a 200000x200000 matrix takes " + need + b" per entry, budget is 4194304\n"
    )


@pytest.mark.parametrize(
    "argv",
    [["rank", "--over", "q"], ["rank", "--over", "gf", "--p", str(2**61 - 1)]],
)
def test_the_matrix_budget_counts_the_words_each_ring_stores(tmp_path, argv):
    """16000 x 16000 entries are 4000000 words at one bit, under the budget,
    but 256000000 dense over Q or at the 64-bit lanes of GF(2^61 - 1).

    Counted at one bit, both ended in a MemoryError under a 400 MB limit.
    """

    def limit_memory():
        resource.setrlimit(resource.RLIMIT_AS, (400 << 20, 400 << 20))

    path = tmp_path / "wide.txt"
    path.write_text("2 40 20 20 16000 16000\n0 0\n")
    start = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, "-m", "qnull.cli", *argv, "--matrix", str(path)],
        capture_output=True,
        preexec_fn=limit_memory,
        timeout=60,
    )
    assert time.perf_counter() - start < 1
    assert (proc.returncode, proc.stdout) == (2, b"")
    assert proc.stderr == (
        b"error: a 16000x16000 matrix takes 256000000 64-bit words at 64 bits"
        b" per entry, budget is 4194304\n"
    )


def test_closed_stdout_pipe_ends_quietly():
    """A reader that goes away early, as in `qnull ... | head`, gets no traceback."""
    proc = subprocess.Popen(
        [sys.executable, "-m", "qnull.cli", "enumerate", "--q", "3", "--n", "4"]
        + ["--k", "2"],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
    )
    proc.stdout.close()  # before the interpreter is up, so every write fails
    err = proc.stderr.read()
    proc.stderr.close()
    assert proc.wait(timeout=60) == EXIT_PIPE_CLOSED == 141
    assert err == b""
