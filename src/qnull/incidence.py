"""Containment incidence matrices between dimension layers of the subspace lattice.

W_{q;t,k} has rows indexed by the t-dimensional and columns by the
k-dimensional subspaces of GF(q)^n, both in enumeration order, with a 1
exactly where the row subspace is contained in the column subspace.  Columns
are stored as sorted tuples of row indices (each column has only
gaussian_binomial(k,t,q) ones), which is what the kernel searches want.

wilson_matrix builds no Subspace: it walks both layers in the packed blocks
of grassmann._packed_subspaces_of on GF(q)^n itself and lists the columns'
t-subspaces with _local_choices, that walk's row loop.  A block's columns
are the product of its rows' lists C_0 x ... x C_{k-1}, and it builds them
together: one _local_choices call per suffix (v_1..v_{k-1}), with row 0
started from all of C_0.  The t-subspaces of span(v_1..v_{k-1}) are ranked
once for all |C_0| columns of the suffix; the rest come in one list per pivot
set, slice i for the i-th choice of row 0.  Free entries (r, c) have c > 0,
so only rows 1..k-1 need multiples, built once per block.  Row indices are
keyed by packed basis, or at t = 1 by the one packed row, with no 1-tuples.
Over odd p at large k about half the build is those lane sums, most of them
in batches of one big-int pass each (grassmann module doc); at t >= 2 most
of it is the rank look-ups and the column sorts.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Sequence

from .fields import Field, field
from .grassmann import (
    Subspace,
    _lanes,
    _local_choices,
    _packed_subspaces_of,
    _pivot_layout,
    enumerate_subspaces,
    gaussian_binomial,
)

__all__ = [
    "IncidenceMatrix",
    "wilson_matrix",
    "apply_check",
    "write_matrix",
    "read_matrix",
]


@dataclass(frozen=True)
class IncidenceMatrix:
    q: int
    n: int
    t: int
    k: int
    rows: int
    cols: int
    col_rows: tuple[tuple[int, ...], ...]  # per column, sorted row indices of the 1s

    def col_subspaces(self) -> list[Subspace]:
        return list(enumerate_subspaces(field(self.q), self.n, self.k))

    def dense(self) -> list[list[int]]:
        m = [[0] * self.cols for _ in range(self.rows)]
        for j, col in enumerate(self.col_rows):
            for i in col:
                m[i][j] = 1
        return m


def wilson_matrix(q: int, n: int, t: int, k: int) -> IncidenceMatrix:
    """The 0/1 containment matrix between J_q(n,t) rows and J_q(n,k) columns."""
    if not 0 <= t <= k <= n:
        raise ValueError(f"need 0 <= t <= k <= n, got t={t}, k={k}, n={n}")
    lanes = _lanes(q, n)
    points = iter if t == 1 else itertools.product  # keys from the rows' lists
    ordinal = {}
    for _, choices in _packed_subspaces_of(lanes.whole, t):
        ordinal.update(zip(points(*choices), itertools.count(len(ordinal))))
    rank, multiples, sums = ordinal.__getitem__, lanes.multiples, lanes.sums
    layout, cols = _pivot_layout(k, t), []
    for _, choices in _packed_subspaces_of(lanes.whole, k):
        # the block's columns are head x product(rest); k = 0 has one column
        head, *rest = choices or [[None]]
        mult = {v: multiples(v) for row in rest for v in row}
        stride = math.prod(map(len, rest))
        block = [None] * (len(head) * stride)
        for s, suffix in enumerate(itertools.product(*rest)):
            starts = [head] + [[v] for v in suffix]
            ms = [None, *map(mult.__getitem__, suffix)]
            shared, own = [], []
            for local, rows in zip(layout, _local_choices(starts, ms, layout, sums)):
                ids = list(map(rank, points(*rows)))
                if local and not local[0]:  # slice i of ids is head[i]'s
                    own.append((ids, len(ids) // len(head)))
                else:  # in span(suffix): every column of the batch has ids
                    shared += ids
            for i in range(len(head)):
                col = shared.copy()
                for ids, m in own:
                    col += ids[i * m:(i + 1) * m]
                col.sort()
                block[i * stride + s] = tuple(col)
        cols += block
    return IncidenceMatrix(
        q=q, n=n, t=t, k=k, rows=len(ordinal), cols=len(cols), col_rows=tuple(cols)
    )


def apply_check(m: IncidenceMatrix, c: Sequence[int], r: int) -> list[int]:
    """The vector of containment sums mod r, in row order: (W c) mod r.

    r must be a power of the field characteristic with r <= q.
    """
    if len(c) != m.cols:
        raise ValueError(f"coefficient vector length {len(c)} != cols {m.cols}")
    f = field(m.q)
    if not f.is_modulus(r):
        raise ValueError(f"modulus {r} is not a power of {f.p} with r <= {m.q}")
    out = [0] * m.rows
    for rows, cj in zip(itertools.compress(m.col_rows, c), filter(None, c)):
        v = cj % r
        for i in rows:
            out[i] = (out[i] + v) % r
    return out


# -- file format -----------------------------------------------------------
# header `q n t k rows cols`, then one `row col` line per nonzero, 0-based,
# sorted row-major.

def write_matrix(m: IncidenceMatrix) -> str:
    by_row = [[] for _ in range(m.rows)]  # each row's columns, ascending
    for j, col in enumerate(m.col_rows):
        for i in col:
            by_row[i].append(j)
    return f"{m.q} {m.n} {m.t} {m.k} {m.rows} {m.cols}\n" + "".join(
        "".join(map(f"{i} {{}}\n".format, cols)) for i, cols in enumerate(by_row)
    )


def read_matrix(text: str) -> IncidenceMatrix:
    lines = [ln for ln in text.splitlines() if ln.strip()]
    if not lines:
        raise ValueError("empty matrix file")
    try:
        q, n, t, k, rows, cols = map(int, lines[0].split())
    except ValueError:
        raise ValueError(f"bad header {lines[0]!r}, expected 'q n t k rows cols'") from None
    field(q)
    if not 0 <= t <= k <= n:
        raise ValueError(f"need 0 <= t <= k <= n, got t={t}, k={k}, n={n}")
    # naming a row's or column's subspace (a search witness, say) builds the
    # packed layout of GF(q)^n
    if n > Field.MAX_DIMENSION:
        raise ValueError(f"dimension {n} is above the limit {Field.MAX_DIMENSION}")
    # a 0-row matrix would lose its width: GfpMatrix reads cols off row 0
    if rows < 0 or cols < 0 or rows == 0 < cols:
        raise ValueError(f"bad shape {rows}x{cols}: need sizes >= 0, rows if cols")
    for name, size, d in (("rows", rows, t), ("cols", cols, k)):
        # [n,d]_q = [n,m]_q >= q^(m(n-m)) for m = min(d, n-d): so the count
        # is only built for a size that could exceed it
        m = min(d, n - d)
        if m * (n - m) < size.bit_length() and size > gaussian_binomial(n, m, q):
            raise ValueError(
                f"{size} {name} exceed the {gaussian_binomial(n, m, q)} "
                f"{d}-subspaces of GF({q})^{n}"
            )
    col_sets: list[set[int]] = [set() for _ in range(cols)]
    for ln in lines[1:]:
        try:
            i, j = map(int, ln.split())
        except ValueError:
            raise ValueError(f"bad matrix line {ln!r}") from None
        if not (0 <= i < rows and 0 <= j < cols):
            raise ValueError(f"entry ({i},{j}) out of bounds {rows}x{cols}")
        if i in col_sets[j]:
            raise ValueError(f"entry ({i},{j}) listed twice")
        col_sets[j].add(i)
    return IncidenceMatrix(
        q=q,
        n=n,
        t=t,
        k=k,
        rows=rows,
        cols=cols,
        col_rows=tuple(tuple(sorted(col)) for col in col_sets),
    )
