"""The three workloads and their reference results.

Each workload's ``setup(seed, negative_control)`` builds its inputs and returns
a list of ``Op``: one call into qnull, issued one at a time by one client.
Every result is checked against a reference that the program did not
produce, where an independent closed form exists:

* enumeration counts and support sizes against Gaussian binomials computed
  here, not by ``qnull.grassmann.gaussian_binomial``;
* a one-coefficient corruption of a design against exactly [dim x, t]_q
  violations, with both verifiers agreeing;
* GF(2) ranks of points against k-spaces against sum_{i<=n-k} C(n, i);
* GF(p) ranks of points against hyperplanes against C(n+p-2, n-1) + 1;
* rational ranks against [n, t]_q (full row rank for t <= k <= n - t);
* the ``grid`` against the seed program's own ``qnull reproduce --json``
  stdout, stored byte for byte in ``reference/grid_stdout.json`` with its three
  documented FAIL rows as they are: each row against its record, the rendered
  stdout against all of it, and the real CLI against its CLI_ONLY rows.

``negative_control`` makes the check see wrong results: ``grid`` runs with
``inject_corruption`` (``--inject-corruption`` for the CLI) and the other
workloads shift every expected value by one.  Either way ``failed`` must come
out above zero.
"""

from __future__ import annotations

import json
import os
import random
import subprocess
import sys
from dataclasses import dataclass
from math import comb
from typing import Any, Callable

HERE = os.path.dirname(os.path.abspath(__file__))
GRID_REFERENCE = os.path.join(HERE, "reference", "grid_stdout.json")

# One label prefix per reproduce criterion, in grid order.
CRITERIA = (
    "counts",
    "interval-count",
    "lower-bound-design",
    "uniform-design",
    "gf2-min-weight",
    "gf2-rank",
    "rational-rank",
    "rational-min-support",
    "gf3-min-weight",
    "oracle-equivalence",
)

# The cheapest grid row of each criterion.  Traced runs of lattice and elim
# replay them first, so that every layer and criterion metric is measured in
# every traced run and every wrapped binding is seen to work.
PROBE_ROWS = (
    "counts q2 n3 all-k",
    "interval-count q2 n2",
    "lower-bound-design q2 n3 t1",
    "uniform-design q2 n3 t1 k2",
    "gf2-min-weight q2 n3 t1 k2 kernel",
    "gf2-rank q2 n4 t1 k2",
    "rational-rank q2 n2",
    "rational-min-support q2 n4 t1 k2 cap6",
    "gf3-min-weight q3 n3 t1 k2 both-modes",
    "oracle-equivalence q2 n2",
)


def qbinom(n: int, k: int, q: int) -> int:
    """[n, k]_q as a product of q-integers, written apart from the program's."""
    if not 0 <= k <= n:
        return 0
    num = den = 1
    for i in range(1, k + 1):
        num *= q ** (n - k + i) - 1
        den *= q**i - 1
    return num // den


@dataclass
class Op:
    """One call into qnull and the check of its result.

    ``run`` is what is timed.  ``summarize`` turns its result into plain data
    outside the timed section.  ``check`` returns (attempted, failed) for the
    summary; by default one operation that fails unless summary == expected.
    """

    name: str
    group: str
    run: Callable[[], Any]
    expected: Any = None
    summarize: Callable[[Any], Any] = lambda r: r
    check: Callable[[Any], tuple[int, int]] | None = None

    def verdict(self, summary) -> tuple[int, int]:
        """(attempted, failed); a call that raised fails every check it carries."""
        if self.check is not None:
            return self.check(summary)
        return 1, int(summary is RAISED or summary != self.expected)


# The summary of a call that raised.
RAISED = object()


def probe_ops() -> list[Op]:
    """PROBE_ROWS as operations, each checked against its grid reference row."""
    from qnull import reproduce

    with open(GRID_REFERENCE, "rb") as fh:
        ref = {r["label"]: r for r in json.loads(fh.read())["rows"]}
    return [
        Op(label, f"c{criterion_of(label)}", lambda label=label: reproduce.run_grid(only=label),
           [ref[label]], lambda rows: reproduce.rows_to_records(rows))
        for label in PROBE_ROWS
    ]


# -- grid ---------------------------------------------------------------------

# The real CLI runs once per pass on this criterion's rows: cheap, and
# --inject-corruption changes them.
CLI_ONLY = "gf2-rank"


def render_stdout(rows: list[dict], failures: int) -> bytes:
    """What `qnull reproduce --json` prints for these row records."""
    payload = {"checks": len(rows), "failures": failures, "rows": rows}
    return (json.dumps(payload, sort_keys=True, indent=2) + "\n").encode()


class Grid:
    """The 161-row `qnull reproduce` grid, one row per call, in process.

    Each row is `run_grid(only=<its label>)`, checked against its reference
    record.  The pass ends by rendering every row into the bytes that
    `reproduce --json` prints, compared byte for byte with the reference, and
    by running the real CLI as a subprocess on the CLI_ONLY rows.  The grid
    runs in the worker, not as one `reproduce` subprocess, because the
    worker's speed probes (see speed.py) run on a timer of its own CPU time,
    which stops while it waits for a subprocess.
    """

    name = "grid"
    probe = False

    def setup(self, seed: int, negative_control: bool) -> list[Op]:
        del seed  # the grid draws from the program's own fixed seeds
        from qnull import fields, reproduce

        for q in (2, 3, 4):
            fields.field(q)
        with open(GRID_REFERENCE, "rb") as fh:
            reference = fh.read()
        ref_rows = json.loads(reference)["rows"]
        latest: dict[str, list] = {}  # label -> this pass's CheckRows

        def row_op(i: int, label: str) -> Op:
            def run():
                rows = reproduce.run_grid(only=label, inject_corruption=negative_control)
                latest[label] = rows
                return rows

            return Op(label, f"c{criterion_of(label)}", run, [ref_rows[i]],
                      lambda rows: reproduce.rows_to_records(rows))

        def render():
            rows = [r for ref in ref_rows for r in latest.get(ref["label"], [])]
            failures = sum(1 for r in rows if not r.ok)
            return (1 if failures else 0), render_stdout(reproduce.rows_to_records(rows), failures)

        want_code = 1 if json.loads(reference)["failures"] else 0
        cli_rows = [r for r in ref_rows if CLI_ONLY in r["label"]]
        cli_failures = sum(1 for r in cli_rows if r["status"] == "FAIL")
        cmd = [sys.executable, "-m", "qnull.cli", "reproduce", "--json", "--only", CLI_ONLY]
        if negative_control:
            cmd.append("--inject-corruption")

        def cli():
            proc = subprocess.run(cmd, stdout=subprocess.PIPE, check=False)
            return proc.returncode, proc.stdout

        return [row_op(i, ref["label"]) for i, ref in enumerate(ref_rows)] + [
            Op("render --json stdout", "render", render, (want_code, reference)),
            Op(f"cli reproduce --json --only {CLI_ONLY}", "cli", cli,
               (1 if cli_failures else 0, render_stdout(cli_rows, cli_failures))),
        ]


def criterion_of(label: str) -> int:
    """1-based index in CRITERIA of the criterion a grid row belongs to."""
    return next(i for i, prefix in enumerate(CRITERIA, 1) if label.startswith(prefix + " "))


# -- lattice ------------------------------------------------------------------

# (q, n, k, t, chains): k-uniform designs on seeded random chains, verified
# mod q and, for q=4, mod p as well.
UNIFORM_CELLS = (
    (2, 7, 6, 3, 2),
    (2, 7, 5, 3, 3),
    (3, 6, 5, 3, 1),
    (3, 7, 4, 2, 2),
    (4, 6, 4, 2, 2),
    (4, 5, 4, 3, 2),
)
# (q, n, t): lower-bound designs, verified at every strength t..0, mod p and mod q.
LB_CELLS = ((2, 7, 5), (3, 6, 4), (4, 6, 3))
# (q, n, t, k): containment matrices built and checked by their degrees.
WILSON_CELLS = ((4, 5, 2, 3), (2, 7, 1, 3))
# (q, n, k, t): verify_strength_direct on a valid design and on one with a
# single corrupted coefficient.
DIRECT_CELLS = ((2, 7, 4, 2), (2, 6, 4, 3), (3, 5, 4, 3), (4, 6, 3, 1))
# (q, n, k): full enumeration counts.
ENUM_CELLS = ((2, 7, 3), (2, 7, 4), (3, 6, 3), (4, 6, 2), (3, 7, 2))


class Lattice:
    """Subspace-lattice work beyond grid sizes; no linalg call runs in it."""

    name = "lattice"
    probe = True

    def setup(self, seed: int, negative_control: bool) -> list[Op]:
        from qnull import designs, fields, grassmann, incidence

        rng = random.Random(seed)
        off = 1 if negative_control else 0
        ops: list[Op] = []

        def qgroup(q: int) -> str:
            return "q2" if q == 2 else "q34"

        for q, n, k, t, reps in UNIFORM_CELLS:
            f = fields.field(q)
            for i in range(reps):
                chain = designs.make_random_chain(f, n, k, t, rng)

                def run(q=q, n=n, k=k, t=t, chain=chain, p=f.p):
                    d = designs.construct_uniform_design(q, n, k, t, chain=chain)
                    ok = designs.verify_strength(d, t).ok
                    if p != q:
                        ok = ok and designs.verify_strength(designs.as_modulus(d, p), t).ok
                    return len(d.support), d.uniform_dim(), ok

                ops.append(
                    Op(
                        f"uniform q{q} n{n} k{k} t{t} chain{i}",
                        f"scatter.{qgroup(q)}",
                        run,
                        (q ** (t + 1) + off, k, True),
                    )
                )
        for q, n, t in LB_CELLS:
            for r in sorted({fields.field(q).p, q}):

                def run(q=q, n=n, t=t, r=r):
                    d = designs.construct_lb_design(q, n, t, r=r)
                    ok = all(designs.verify_strength(d, tau).ok for tau in range(t, -1, -1))
                    return len(d.support), ok

                ops.append(
                    Op(
                        f"lower-bound q{q} n{n} t{t} r{r}",
                        f"scatter.{qgroup(q)}",
                        run,
                        (1 + qbinom(t + 1, t, q) + off, True),
                    )
                )
        for q, n, t, k in WILSON_CELLS:
            ops.append(
                Op(
                    f"wilson q{q} n{n} t{t} k{k}",
                    f"scatter.{qgroup(q)}",
                    lambda q=q, n=n, t=t, k=k: incidence.wilson_matrix(q, n, t, k),
                    (
                        qbinom(n, t, q) + off,
                        qbinom(n, k, q),
                        {qbinom(k, t, q)},
                        {qbinom(n - t, k - t, q)},
                    ),
                    _wilson_shape,
                )
            )
        for q, n, k, t in DIRECT_CELLS:
            f = fields.field(q)
            chain = designs.make_random_chain(f, n, k, t, rng)
            design = designs.construct_uniform_design(q, n, k, t, chain=chain)
            x, c = rng.choice(design.items_sorted())
            delta = rng.randrange(1, design.r)
            support = dict(design.support)
            support[x] = c + delta
            corrupt = designs.NullDesign(f, n, design.r, t, support)
            for label, d, want in (
                ("valid", design, (0 + off, True, set())),
                ("corrupt", corrupt, (qbinom(x.k, t, q) + off, True, {delta})),
            ):

                def run(d=d, t=t):
                    return designs.verify_strength_direct(d, t), designs.verify_strength(d, t)

                ops.append(
                    Op(f"direct q{q} n{n} k{k} t{t} {label}", f"query.{qgroup(q)}", run, want,
                       _verdict_pair)
                )
        for q, n, k in ENUM_CELLS:
            f = fields.field(q)
            ops.append(
                Op(
                    f"enumerate q{q} n{n} k{k}",
                    f"query.{qgroup(q)}",
                    lambda f=f, n=n, k=k: sum(1 for _ in grassmann.enumerate_subspaces(f, n, k)),
                    qbinom(n, k, q) + off,
                )
            )
        return ops


def _wilson_shape(m) -> tuple:
    row_degree = [0] * m.rows
    for col in m.col_rows:
        for i in col:
            row_degree[i] += 1
    return m.rows, m.cols, {len(col) for col in m.col_rows}, set(row_degree)


def _verdict_pair(pair) -> tuple:
    direct, scatter = pair
    return len(direct.violations), direct == scatter, {s for _, s in direct.violations}


# -- elim ---------------------------------------------------------------------


def _rank_points_k_spaces_gf2(n: int, k: int) -> int:
    return sum(comb(n, i) for i in range(n - k + 1))


def _rank_points_hyperplanes(n: int, p: int) -> int:
    return comb(n + p - 2, n - 1) + 1


# (ring, q, n, t, k, expected rank); ring is "gf<p>" or "Q".
ELIM_CELLS = (
    # GF(2): about half of the pass
    ("gf2", 2, 6, 2, 3, 421),  # the seed's value; no closed form used here
    ("gf2", 2, 7, 1, 3, _rank_points_k_spaces_gf2(7, 3)),
    ("gf2", 2, 5, 1, 2, _rank_points_k_spaces_gf2(5, 2)),
    ("gf2", 2, 5, 1, 3, _rank_points_k_spaces_gf2(5, 3)),
    # odd p: points against hyperplanes
    ("gf3", 3, 7, 1, 6, _rank_points_hyperplanes(7, 3)),
    ("gf5", 5, 5, 1, 4, _rank_points_hyperplanes(5, 5)),
    ("gf7", 7, 4, 1, 3, _rank_points_hyperplanes(4, 7)),
    # Q: full row rank
    ("Q", 3, 5, 1, 2, qbinom(5, 1, 3)),
    ("Q", 2, 6, 1, 3, qbinom(6, 1, 2)),
    ("Q", 2, 5, 2, 3, qbinom(5, 2, 2)),
)


class Elim:
    """Exact rank of containment matrices that are built during set-up."""

    name = "elim"
    probe = True

    def setup(self, seed: int, negative_control: bool) -> list[Op]:
        del seed  # the matrices are fixed by their parameters
        from qnull import incidence, linalg

        off = 1 if negative_control else 0
        ops = []
        for ring, q, n, t, k, want in ELIM_CELLS:
            m = incidence.wilson_matrix(q, n, t, k)
            if ring == "Q":
                run = lambda m=m: linalg.rank_rational(m.dense())
                group = "Q"
            else:
                p = int(ring[2:])
                run = lambda m=m, p=p: linalg.rref_gfp(linalg.GfpMatrix.from_incidence(m, p))[1]
                group = "gf2" if p == 2 else "gfodd"
            ops.append(Op(f"rank {ring} q{q} n{n} t{t} k{k} {m.rows}x{m.cols}", group, run, want + off))
        return ops


WORKLOADS = {w.name: w for w in (Grid(), Lattice(), Elim())}
