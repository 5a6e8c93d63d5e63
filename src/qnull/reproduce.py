"""The reproduction grid: every check row behind `qnull reproduce`.

run_grid holds the grid as one table.  Each criterion has a label format,
the cells it runs on, and a compute function.  A cell's row is labelled
label_format.format(*cell).  compute(*cell) returns (expected, computed), and
the row passes when the two print the same.  Criterion 9 alone returns
(expected, computed, ok), since its expectation is a range.  The pass/fail
criteria compute "ok" or the first failure that their check finds.

The `--only` filter is a label substring.  It is applied to each label before
that cell computes anything, and every randomized piece (chains, sparse
vectors) draws from a generator seeded by its own cell.  So a row's content
never depends on which other rows ran, and repeated runs are byte-identical
regardless of thread count.  The same rows back the acceptance test suite,
so the CLI table and the test results cannot drift apart.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, replace
from functools import partial
from itertools import compress, count
from typing import Callable, Optional

from .designs import (
    NullDesign,
    as_modulus,
    construct_lb_design,
    construct_uniform_design,
    make_random_chain,
    verify_strength,
    verify_strength_direct,
)
from .fields import field
from .grassmann import (
    Subspace,
    contains,
    coordinate_span,
    enumerate_subspaces,
    gaussian_binomial,
    random_subspace_of,
    subspaces_of,
)
from .incidence import apply_check, wilson_matrix
from .linalg import (
    GfpMatrix,
    min_support_kernel_rational,
    min_weight_kernel_gfp,
    rank_gfp,
    rank_rational,
)

__all__ = ["CheckRow", "run_grid", "format_rows", "rows_to_records"]

_CHAIN_SEED = 74520413
_VECTOR_SEED = 91530827


@dataclass(frozen=True)
class CheckRow:
    criterion: int
    label: str
    expected: str
    computed: str
    ok: bool


def _passes(check: Callable[..., Optional[str]]) -> Callable[..., tuple[str, str]]:
    """The compute of a pass/fail criterion: "ok", or the first failure that
    check(*cell) returns."""
    return lambda *cell: ("ok", check(*cell) or "ok")


# -- criterion 1: Grassmannian counts ----------------------------------------


def _counts(q: int, n: int) -> tuple[str, str]:
    f = field(q)
    expected = " ".join(str(gaussian_binomial(n, k, q)) for k in range(n + 1))
    computed = " ".join(
        str(sum(1 for _ in enumerate_subspaces(f, n, k))) for k in range(n + 1)
    )
    return expected, computed


# -- criterion 2: interval counts are (q^{d-t+1}-1)/(q-1) = 1 mod r ----------


def _check_interval_cell(q: int, n: int) -> Optional[str]:
    f = field(q)
    # per-row seed: a row's draws never depend on which rows ran
    rng = random.Random(_VECTOR_SEED + 10_000 + q * 100 + n)
    for t in range(1, n + 1):
        for d in range(t, n + 1):
            want = (q ** (d - t + 1) - 1) // (q - 1)
            full = coordinate_span(f, n, n)
            pairs = [(coordinate_span(f, n, t - 1), coordinate_span(f, n, d))]
            for _ in range(3):
                z = random_subspace_of(full, d, rng)
                y = random_subspace_of(z, t - 1, rng)
                pairs.append((y, z))
            for y, z in pairs:
                got = sum(1 for x in subspaces_of(z, t) if contains(x, y))
                if got != want:
                    return f"t{t} d{d}: count {got} != {want}"
                for r in {f.p, q}:
                    if got % r != 1:
                        return f"t{t} d{d}: {got} mod {r} != 1"
    return None


# -- criterion 3: minimum-support lower-bound construction -------------------


def _check_lb_cell(q: int, n: int, t: int) -> Optional[str]:
    d = construct_lb_design(q, n, t)
    want_support = 1 + (q ** (t + 1) - 1) // (q - 1)
    if len(d.support) != want_support:
        return f"support {len(d.support)} != {want_support}"
    for tau in range(t, -1, -1):
        if not verify_strength(d, tau).ok:
            return f"fails at strength {tau}"
    return None


# -- criterion 4: k-uniform construction, default and random chains ----------


def _check_uniform_cell(q: int, n: int, t: int, k: int) -> Optional[str]:
    f = field(q)
    rng = random.Random(_CHAIN_SEED + q * 10000 + n * 100 + k * 10 + t)
    chains: list[Optional[tuple[Subspace, Subspace, Subspace]]] = [None]
    chains += [make_random_chain(f, n, k, t, rng) for _ in range(10)]
    for idx, chain in enumerate(chains):
        d = construct_uniform_design(q, n, k, t, chain=chain)
        name = "default" if idx == 0 else f"chain{idx}"
        if len(d.support) != q ** (t + 1):
            return f"{name}: support {len(d.support)} != {q ** (t + 1)}"
        if d.uniform_dim() != k:
            return f"{name}: not {k}-uniform"
        if not verify_strength(d, t).ok:
            return f"{name}: fails at strength {t} mod {q}"
        if f.p != q and not verify_strength(as_modulus(d, f.p), t).ok:
            return f"{name}: fails at strength {t} mod {f.p}"
    return None


# -- criterion 5: exact GF(2) minima -----------------------------------------


def _gf2_min_weight(
    n: int, t: int, k: int, mode: str, want: int, budget: Optional[int]
) -> tuple[str, str]:
    m = GfpMatrix.from_incidence(wilson_matrix(2, n, t, k), 2)
    rep = min_weight_kernel_gfp(m, cap=want, mode=mode, budget=budget, transitive=True)
    computed = f"{rep.weight_text()} exhaustive={rep.exhaustive}"
    return f"{want} exhaustive=True", computed


# -- criterion 6: GF(2) ranks ------------------------------------------------


def _gf2_rank(n: int, t: int, k: int, want: int, corrupt: bool) -> tuple[int, int]:
    m = wilson_matrix(2, n, t, k)
    if corrupt:  # toggle the entry in row 0 of column 0
        col = tuple(sorted(set(m.col_rows[0]) ^ {0}))
        m = replace(m, col_rows=(col,) + m.col_rows[1:])
    return want, rank_gfp(GfpMatrix.from_incidence(m, 2))


# -- criterion 7: full rational rank -----------------------------------------


def _check_rational_rank_cell(q: int, n: int) -> Optional[str]:
    for t in range(0, n + 1):
        for k in range(t, n - t + 1):
            got = rank_rational(wilson_matrix(q, n, t, k).dense())
            want = gaussian_binomial(n, t, q)
            if got != want:
                return f"t{t} k{k}: rank {got} != {want}"
    return None


# -- criterion 8: rational minimum support for k = t+1 ------------------------


def _rational_min_support(
    q: int, n: int, cap: int, want: int, budget: Optional[int]
) -> tuple[int, str]:
    m = GfpMatrix.from_incidence(wilson_matrix(q, n, 1, 2), 2)
    rep = min_support_kernel_rational(m, cap=cap, budget=budget, transitive=True)
    return want, rep.weight_text()


# -- criterion 9: GF(3) minimum bracketed, both modes agree -------------------


def _gf3_bracket(budget: Optional[int]) -> tuple[str, str, bool]:
    m = GfpMatrix.from_incidence(wilson_matrix(3, 3, 1, 2), 3)
    rep_k = min_weight_kernel_gfp(m, cap=9, mode="kernel", budget=budget)
    rep_s = min_weight_kernel_gfp(
        m, cap=9, mode="support", budget=budget, transitive=True
    )
    agree = (
        rep_k.weight == rep_s.weight
        and rep_k.witness_support == rep_s.witness_support
        and rep_k.witness_values == rep_s.witness_values
    )
    in_bracket = (
        rep_k.weight is not None
        and 5 <= rep_k.weight <= 9
        and rep_k.exhaustive
        and rep_s.exhaustive
    )
    computed = (
        f"weight={rep_k.weight_text()} "
        f"{'modes agree' if agree else 'modes disagree'}"
    )
    return "weight in [5,9], modes agree", computed, agree and in_bracket


# -- criterion 10: dual-route oracle equivalence ------------------------------


def _random_sparse_vector(
    cols: int, p: int, rng: random.Random
) -> list[int]:
    c = [0] * cols
    for _ in range(rng.randint(1, 4)):
        c[rng.randrange(cols)] = rng.randrange(1, p)
    return c


def _check_oracle_cell(q: int, n: int) -> Optional[str]:
    """W c mod p, listed as (row, sum) where nonzero, must be the direct
    verdict's violations, and the scatter verdict must equal the direct one."""
    f = field(q)
    p = f.p
    rng = random.Random(_VECTOR_SEED + q * 100 + n)
    for t in range(0, n + 1):
        for k in range(t, n + 1):
            m = wilson_matrix(q, n, t, k)
            col_subs = m.col_subspaces()
            for _ in range(100):
                c = _random_sparse_vector(m.cols, p, rng)
                sums = apply_check(m, c, p)
                got = tuple(zip(compress(count(), sums), filter(None, sums)))
                # c's entries are drawn in [0, p)
                support = dict(zip(compress(col_subs, c), filter(None, c)))
                design = NullDesign(f, n, p, 0, support)
                direct = verify_strength_direct(design, t)
                if got != direct.violations:
                    return f"t{t} k{k}: matrix/superspace mismatch"
                if verify_strength(design, t) != direct:
                    return f"t{t} k{k}: verifier mismatch"
    return None


# -- grid driver ---------------------------------------------------------------


def run_grid(
    only: Optional[str] = None,
    inject_corruption: bool = False,
    budget: Optional[int] = None,
) -> list[CheckRow]:
    """All reproduction rows, optionally filtered by a label substring.

    budget reaches every search in the grid (criteria 5, 8 and 9), and
    inject_corruption flips one entry of each criterion 6 matrix.
    """
    grid = [
        (1, "counts q{} n{} all-k",
         [(q, n) for q in (2, 3, 4) for n in range(1, 6)], _counts),
        (2, "interval-count q{} n{}",
         [(q, n) for q in (2, 3, 4) for n in range(1, 5)],
         _passes(_check_interval_cell)),
        (3, "lower-bound-design q{} n{} t{}",
         [(q, n, t) for q in (2, 3, 4) for n in range(1, 6) for t in range(n)],
         _passes(_check_lb_cell)),
        (4, "uniform-design q{} n{} t{} k{}",
         [(q, n, t, k) for q in (2, 3, 4) for n in range(2, 6)
          for k in range(1, n) for t in range(k)],
         _passes(_check_uniform_cell)),
        # cells (n, t, k, mode, want)
        (5, "gf2-min-weight q2 n{} t{} k{} {}",
         [(3, 1, 2, "kernel", 4), (4, 1, 2, "support", 4),
          (4, 1, 3, "kernel", 4), (5, 1, 3, "support", 4),
          (4, 2, 3, "kernel", 8), (5, 2, 3, "support", 8)],
         partial(_gf2_min_weight, budget=budget)),
        # cells (n, t, k, want)
        (6, "gf2-rank q2 n{} t{} k{}",
         [(4, 1, 2, 11), (5, 1, 2, 16), (5, 1, 3, 26)],
         partial(_gf2_rank, corrupt=inject_corruption)),
        (7, "rational-rank q{} n{}",
         [(q, n) for q in (2, 3) for n in range(1, 5)],
         _passes(_check_rational_rank_cell)),
        # cells (q, n, cap, want)
        (8, "rational-min-support q{} n{} t1 k2 cap{}",
         [(2, 4, 6, 6), (3, 3, 8, 8)],
         partial(_rational_min_support, budget=budget)),
        (9, "gf3-min-weight q3 n3 t1 k2 both-modes", [()],
         partial(_gf3_bracket, budget=budget)),
        (10, "oracle-equivalence q{} n{}",
         [(q, n) for q in (2, 3, 4) for n in range(2, 5)],
         _passes(_check_oracle_cell)),
    ]
    rows = []
    for criterion, label_format, cells, compute in grid:
        for cell in cells:
            label = label_format.format(*cell)
            if only is not None and only not in label:
                continue
            expected, computed, *ok = compute(*cell)
            e, c = str(expected), str(computed)
            rows.append(CheckRow(criterion, label, e, c, ok[0] if ok else e == c))
    return rows


def format_rows(rows: list[CheckRow]) -> str:
    lines = []
    for r in rows:
        status = "PASS" if r.ok else "FAIL"
        lines.append(
            f"[{status}] c{r.criterion:>2} {r.label:<44} "
            f"expected: {r.expected}  computed: {r.computed}"
        )
    failures = sum(1 for r in rows if not r.ok)
    lines.append(f"{len(rows)} checks, {failures} failures")
    return "\n".join(lines) + "\n"


def rows_to_records(rows: list[CheckRow]) -> list[dict]:
    return [
        {
            "criterion": r.criterion,
            "label": r.label,
            "expected": r.expected,
            "computed": r.computed,
            "status": "PASS" if r.ok else "FAIL",
        }
        for r in rows
    ]
