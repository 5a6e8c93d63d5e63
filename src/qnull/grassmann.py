"""Canonical subspaces of GF(q)^n: enumeration, indexing, and lattice queries.

A subspace is represented by its unique reduced-row-echelon basis, stored as a
tuple of row tuples of element codes.  The fixed enumeration order is: pivot
column sets ascending lexicographically (as increasing tuples), then the free
entries read row-major as a base-q integer, ascending.  Over GF(2) with n=2,
k=1 that gives span{(1,0)}, span{(1,1)}, span{(0,1)}.

One structural fact carries most of the module: if B is the k x n RREF basis
of x and L is any d x k RREF matrix, then L.B is already in RREF form with
pivot columns {pivots(x)[j] : j pivot of L}, and distinct L give distinct
subspaces.  So the d-dimensional subspaces of x are exactly the products L.B
with L ranging over the d x k RREF matrices, no re-reduction needed.
"""

from __future__ import annotations

import itertools
from bisect import bisect_right
from functools import lru_cache
from typing import Iterable, Iterator, Sequence

from .fields import Field, field

__all__ = [
    "Subspace",
    "gaussian_binomial",
    "canonicalize",
    "contains",
    "join",
    "enumerate_subspaces",
    "subspaces_of",
    "index_of",
    "from_index",
    "subspace_to_text",
    "subspace_from_text",
]

_DIGITS = "0123456789abcdefghijklmnopqrstuvwxyz"


def gaussian_binomial(n: int, k: int, q: int) -> int:
    """Number of k-dimensional subspaces of an n-dimensional space over GF(q)."""
    if k < 0 or k > n:
        return 0
    num = den = 1
    for i in range(k):
        num *= q ** (n - i) - 1
        den *= q ** (i + 1) - 1
    return num // den


class Subspace:
    """A k-dimensional subspace of GF(q)^n in canonical RREF form.

    Instances are immutable; equality and hashing go through the canonical
    basis, so two values are equal iff they are the same subspace.
    """

    __slots__ = ("field", "n", "k", "rows", "_hash")

    def __init__(self, f: Field, n: int, rows: tuple[tuple[int, ...], ...]):
        self.field = f
        self.n = n
        self.k = len(rows)
        self.rows = rows
        self._hash = hash((f.q, n, rows))

    @property
    def dim(self) -> int:
        return self.k

    def pivots(self) -> tuple[int, ...]:
        return tuple(next(c for c, v in enumerate(row) if v) for row in self.rows)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Subspace)
            and self._hash == other._hash
            and self.field is other.field
            and self.n == other.n
            and self.rows == other.rows
        )

    def __hash__(self) -> int:
        return self._hash

    def __repr__(self) -> str:
        return f"Subspace(q={self.field.q}, n={self.n}, <{subspace_to_text(self)}>)"


def canonicalize(f: Field, n: int, rows: Iterable[Sequence[int]]) -> Subspace:
    """The subspace spanned by the given vectors (RREF of the stack).

    Empty or all-zero input yields the zero space (k=0, empty basis).
    """
    work = [list(r) for r in rows]
    for r in work:
        if len(r) != n:
            raise ValueError(f"vector length {len(r)} != ambient dimension {n}")
        if any(not 0 <= v < f.q for v in r):
            raise ValueError("entry out of range for the field")
    mul, sub, inv = f.mul, f.sub, f.inv
    out: list[list[int]] = []
    pivots: list[int] = []
    for col in range(n):
        src = None
        for i, r in enumerate(work):
            if r[col]:
                src = i
                break
        if src is None:
            continue
        row = work.pop(src)
        s = inv(row[col])
        row = [mul(s, v) for v in row]
        for r in itertools.chain(out, work):
            c = r[col]
            if c:
                for j in range(col, n):
                    r[j] = sub(r[j], mul(c, row[j]))
        out.append(row)
        pivots.append(col)
        if not work:
            break
    return Subspace(f, n, tuple(tuple(r) for r in out))


def contains(x: Subspace, y: Subspace) -> bool:
    """True iff y is a subspace of x (every basis row of y reduces to zero)."""
    if x.field is not y.field or x.n != y.n:
        raise ValueError("subspaces live in different ambient spaces")
    if y.k > x.k:
        return False
    mul, sub = x.field.mul, x.field.sub
    xp = x.pivots()
    n = x.n
    for yrow in y.rows:
        v = list(yrow)
        for xrow, p in zip(x.rows, xp):
            c = v[p]
            if c:
                for j in range(p, n):
                    v[j] = sub(v[j], mul(c, xrow[j]))
        if any(v):
            return False
    return True


def join(x: Subspace, y: Subspace) -> Subspace:
    """The smallest subspace containing both x and y."""
    if x.field is not y.field or x.n != y.n:
        raise ValueError("subspaces live in different ambient spaces")
    return canonicalize(x.field, x.n, x.rows + y.rows)


# -- enumeration order ---------------------------------------------------

def _free_positions(n: int, pivots: tuple[int, ...]) -> list[tuple[int, int]]:
    """Row-major free coordinates of the RREF pattern with the given pivots."""
    pset = set(pivots)
    return [
        (r, c)
        for r, p in enumerate(pivots)
        for c in range(p + 1, n)
        if c not in pset
    ]


@lru_cache(maxsize=None)
def _pivot_layout(q: int, n: int, k: int):
    """Per pivot set: (pivots, free positions, ordinal offset); plus offsets list."""
    layouts = []
    offsets = []
    total = 0
    for pivots in itertools.combinations(range(n), k):
        free = _free_positions(n, pivots)
        layouts.append((pivots, free, total))
        offsets.append(total)
        total += q ** len(free)
    return layouts, offsets, total


def _fill(pivots, free, digits, n) -> tuple[tuple[int, ...], ...]:
    k = len(pivots)
    rows = [[0] * n for _ in range(k)]
    for r, p in enumerate(pivots):
        rows[r][p] = 1
    for (r, c), d in zip(free, digits):
        rows[r][c] = d
    return tuple(tuple(r) for r in rows)


def enumerate_subspaces(f: Field, n: int, k: int) -> Iterator[Subspace]:
    """All k-dimensional subspaces of GF(q)^n in the fixed order, streamed."""
    if not 0 <= k <= n:
        return
    if k == 0:
        yield Subspace(f, n, ())
        return
    for pivots in itertools.combinations(range(n), k):
        free = _free_positions(n, pivots)
        for digits in itertools.product(range(f.q), repeat=len(free)):
            yield Subspace(f, n, _fill(pivots, free, digits, n))


def index_of(x: Subspace) -> int:
    """Ordinal of x within enumerate_subspaces(field, n, k), the inverse of from_index."""
    layouts, _, _ = _pivot_layout(x.field.q, x.n, x.k)
    pivots = x.pivots()
    # pivot sets are emitted in combinations() order; locate by direct scan of
    # the combination rank
    lo, hi = 0, len(layouts)
    # binary search on the lexicographic order of increasing tuples
    while lo < hi:
        mid = (lo + hi) // 2
        if layouts[mid][0] < pivots:
            lo = mid + 1
        else:
            hi = mid
    pv, free, offset = layouts[lo]
    if pv != pivots:
        raise ValueError("pivot set not found (corrupt subspace?)")
    q = x.field.q
    val = 0
    for r, c in free:
        val = val * q + x.rows[r][c]
    return offset + val


def from_index(f: Field, n: int, k: int, ordinal: int) -> Subspace:
    """The subspace at a given position of the fixed enumeration order."""
    if not 0 <= k <= n:
        raise ValueError(f"dimension {k} out of range for n={n}")
    layouts, offsets, total = _pivot_layout(f.q, n, k)
    if not 0 <= ordinal < total:
        raise ValueError(f"ordinal {ordinal} out of range [0, {total})")
    i = bisect_right(offsets, ordinal) - 1
    pivots, free, offset = layouts[i]
    val = ordinal - offset
    digits = [0] * len(free)
    for j in range(len(free) - 1, -1, -1):
        digits[j] = val % f.q
        val //= f.q
    return Subspace(f, n, _fill(pivots, free, digits, n))


# -- local enumeration inside a subspace ---------------------------------

@lru_cache(maxsize=None)
def _local_rref(q: int, m: int, d: int) -> tuple[tuple[tuple[int, ...], ...], ...]:
    """All d x m RREF matrices over GF(q), materialized in enumeration order."""
    f = field(q)
    return tuple(s.rows for s in enumerate_subspaces(f, m, d))


def subspaces_of(x: Subspace, d: int) -> Iterator[Subspace]:
    """All d-dimensional subspaces of x, via local RREF coordinates.

    The order is the enumeration order of the local coordinates, which is
    deterministic but not the global enumerate_subspaces order.
    """
    if d > x.k or d < 0:
        return
    if d == 0:
        yield Subspace(x.field, x.n, ())
        return
    if d == x.k:
        yield x
        return
    f = x.field
    mul, add = f.mul, f.add
    n, k = x.n, x.k
    brows = x.rows
    for local in _local_rref(f.q, k, d):
        rows = []
        for lrow in local:
            acc = [0] * n
            for j, c in enumerate(lrow):
                if c:
                    br = brows[j]
                    if c == 1:
                        for t in range(n):
                            if br[t]:
                                acc[t] = add(acc[t], br[t])
                    else:
                        for t in range(n):
                            if br[t]:
                                acc[t] = add(acc[t], mul(c, br[t]))
            rows.append(tuple(acc))
        yield Subspace(f, n, tuple(rows))


# -- textual format -------------------------------------------------------

def subspace_to_text(x: Subspace) -> str:
    """Rows of base-q digit characters joined by ';'; the zero space is ''."""
    if x.field.q > len(_DIGITS):
        raise ValueError(
            f"the text format has {len(_DIGITS)} digits and cannot print "
            f"GF({x.field.q})"
        )
    return ";".join("".join(_DIGITS[v] for v in row) for row in x.rows)


def subspace_from_text(f: Field, n: int, text: str) -> Subspace:
    """Parse the ';'-joined digit format back into a canonical Subspace."""
    if text == "":
        return Subspace(f, n, ())
    rows = []
    for part in text.split(";"):
        if len(part) != n:
            raise ValueError(f"row {part!r} has length {len(part)}, expected {n}")
        row = []
        for ch in part:
            code = _DIGITS.index(ch.lower())
            if code >= f.q:
                raise ValueError(f"digit {ch!r} out of range for GF({f.q})")
            row.append(code)
        rows.append(row)
    return canonicalize(f, n, rows)
