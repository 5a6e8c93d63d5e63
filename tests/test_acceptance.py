"""The acceptance gate: one test per reproduction criterion.

Each test prints a single `criterion N: ...` line (run with `pytest -s` to see
them all). The rows come from the same grid that backs `qnull reproduce`,
computed once per session.

Criteria 1-5, 7, 9 and 10 assert that every grid row passed.

Criteria 6 and 8 check each row's computed value against a closed form that
this file computes on its own, without qnull:

- criterion 6: the 2-rank of points against k-spaces of GF(2)^n is
  dim RM(n-k, n) = sum_{i<=n-k} C(n, i) (Assmus-Key);
- criterion 8: W_{t,k} over Q has full rank [n,t]_q for t <= k <= n-t
  (Kantor 1972), so its kernel has dimension [n,k]_q - [n,t]_q. Where that is
  positive, the minimum support is prod_{i<=t} (1+q^i); where it is 0, the
  search finds nothing.

Three pinned expectations in the grid contradict these closed forms. The
README ("Tests") documents them, and `qnull reproduce` reports them as FAIL.
DOCUMENTED_WRONG_PINS holds them: each must keep its pinned value and keep
contradicting the closed form, and every other row of criteria 6 and 8 must
pass. Editing a pin, or a new contradiction, fails the test.
"""

import math
import re
import subprocess
import sys
from pathlib import Path

import pytest

from qnull.reproduce import run_grid

CRITERIA = {
    1: "subspace enumeration counts match the product formula",
    2: "interval counts are (q^(d-t+1)-1)/(q-1) and 1 mod r",
    3: "minimal-support construction verifies with the exact support size",
    4: "k-uniform construction verifies for default and random chains",
    5: "exact GF(2) minimum weights equal 2^(t+1)",
    6: "GF(2) ranks of the containment matrices equal sum_{i<=n-k} C(n,i)",
    7: "full rational rank equals the row count",
    8: (
        "rational minimum support equals prod(1+q^i) for k=t+1 where a "
        "rational null design exists; none where W is square"
    ),
    9: "GF(3) minimum bracketed in [5,9] with both modes agreeing",
    10: "matrix route and superspace route agree on random vectors",
}

# Pinned expectations that contradict the closed forms, by criterion:
# label -> pinned value. The README "Tests" section documents each of them;
# change both together.
DOCUMENTED_WRONG_PINS = {
    6: {"gf2-rank q2 n5 t1 k2": "16", "gf2-rank q2 n5 t1 k3": "26"},
    8: {"rational-min-support q3 n3 t1 k2 cap8": "8"},
}


def _gaussian_binomial(n: int, k: int, q: int) -> int:
    num = den = 1
    for i in range(k):
        num *= q ** (n - i) - 1
        den *= q ** (i + 1) - 1
    return num // den


def _params(label: str) -> dict:
    """The q, n, t, k of a label such as `gf2-rank q2 n5 t1 k2`."""
    return {
        name: int(value)
        for name, value in re.findall(r"\b([qntk])(\d+)\b", label)
    }


def _gf2_rank(q: int, n: int, t: int, k: int) -> str:
    assert (q, t) == (2, 1), f"no closed form for q={q} t={t}"
    return str(sum(math.comb(n, i) for i in range(n - k + 1)))


def _rational_min_support(q: int, n: int, t: int, k: int) -> str:
    assert k == t + 1 and k <= n - t, f"no closed form for t={t} k={k} n={n}"
    if _gaussian_binomial(n, k, q) - _gaussian_binomial(n, t, q) == 0:
        return "none found"
    return str(math.prod(1 + q**i for i in range(t + 1)))


CLOSED_FORMS = {6: _gf2_rank, 8: _rational_min_support}

# The seed program's own `qnull reproduce --json` stdout, which the benchmark
# also checks every row against: labels, order, values and the documented
# FAIL rows.
GRID_REFERENCE = (
    Path(__file__).resolve().parent.parent / "perfbench" / "reference" / "grid_stdout.json"
)


@pytest.fixture(scope="session")
def grid():
    return run_grid()


def _report(criterion: int, rows) -> None:
    assert rows, f"no grid rows for criterion {criterion}"
    ok = all(r.ok for r in rows)
    print(f"criterion {criterion}: {'PASS' if ok else 'FAIL'}")
    bad = [r for r in rows if not r.ok]
    detail = "; ".join(
        f"{r.label}: expected {r.expected}, computed {r.computed}" for r in bad
    )
    assert ok, f"criterion {criterion} ({CRITERIA[criterion]}): {detail}"


def _report_closed_form(criterion: int, rows) -> None:
    assert rows, f"no grid rows for criterion {criterion}"
    documented = DOCUMENTED_WRONG_PINS[criterion]
    problems, pin_problems, shown = [], [], []
    for r in rows:
        want = CLOSED_FORMS[criterion](**_params(r.label))
        if r.computed != want:
            problems.append(
                f"{r.label}: computed {r.computed}, closed form {want}"
            )
        if r.label in documented:
            shown.append(f"{r.label} pinned {r.expected}, closed form {want}")
            if r.expected != documented[r.label] or r.expected == want:
                pin_problems.append(
                    f"{r.label}: pinned {r.expected}, documented as "
                    f"{documented[r.label]}, closed form {want}"
                )
        elif r.expected != want:
            pin_problems.append(
                f"{r.label}: pinned {r.expected}, closed form {want}"
            )
        elif not r.ok:
            problems.append(f"{r.label}: reports FAIL")
    missing = sorted(set(documented) - {r.label for r in rows})
    pin_problems += [
        f"{label}: documented row is missing" for label in missing
    ]
    if pin_problems:
        problems.append(
            "pinned expectations no longer match the documented wrong pins ("
            + "; ".join(pin_problems)
            + "); update the README 'Tests' section and DOCUMENTED_WRONG_PINS "
            "together"
        )
    status = "FAIL" if problems else "PASS"
    print(
        f"criterion {criterion}: {status}, {len(rows)} rows checked against "
        f"the closed form; documented wrong pins: {'; '.join(shown)}"
    )
    assert not problems, (
        f"criterion {criterion} ({CRITERIA[criterion]}): {'; '.join(problems)}"
    )


@pytest.mark.parametrize("criterion", sorted(CRITERIA))
def test_criterion(grid, criterion):
    rows = [r for r in grid if r.criterion == criterion]
    if criterion in CLOSED_FORMS:
        _report_closed_form(criterion, rows)
    else:
        _report(criterion, rows)


def test_criterion_11_byte_identical_across_thread_counts():
    """Machine-readable reproduce output never depends on the thread count,
    and is the reference grid byte for byte."""
    outs = []
    for threads in ("1", "8"):
        proc = subprocess.run(
            [
                sys.executable,
                "-m",
                "qnull.cli",
                "reproduce",
                "--json",
                "--threads",
                threads,
            ],
            capture_output=True,
            timeout=600,
        )
        assert proc.returncode in (0, 1), proc.stderr.decode()
        outs.append(proc.stdout)
    ok = outs[0] == outs[1] and len(outs[0]) > 0
    same_as_reference = outs[0] == GRID_REFERENCE.read_bytes()
    print(f"criterion 11: {'PASS' if ok and same_as_reference else 'FAIL'}")
    assert ok, "reproduce --json differs between --threads 1 and --threads 8"
    assert same_as_reference, f"reproduce --json differs from {GRID_REFERENCE.name}"
