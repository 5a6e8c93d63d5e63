"""Canonical subspaces of GF(q)^n: enumeration, indexing, and lattice queries.

A subspace is represented by its unique reduced-row-echelon basis.  Each
basis row is packed into one int with one lane per base-p digit of each
coordinate: coordinate j takes bits [j*s*w, (j+1)*s*w) and digit i of its
element code (fields.py: code = sum of digit_i p^i) sits w*i bits above that.
Over p = 2 a lane is one bit and vector addition is XOR.  Over odd p a lane
has w bits with 2^(w-1) >= p, room for the sum of two digits, so addition is
one integer add followed by a lane-wise subtraction of p wherever the sum
reached p (fields._lane_ops, which linalg's GF(p) elimination shares).  The
pivot columns are stored with the rows, and `Subspace.rows` decodes the
packed rows back into tuples of element codes.

The fixed enumeration order is: pivot column sets ascending lexicographically
(as increasing tuples), then the free entries read row-major as a base-q
integer, ascending.  Over GF(2) with n=2, k=1 that gives span{(1,0)},
span{(1,1)}, span{(0,1)}.  index_of and from_index place a subspace by at
most n - k block sizes (_block), never by listing its layer.

One structural fact carries most of the module: if B is the k x n RREF basis
of x and L is any d x k RREF matrix, then L.B is already in RREF form with
pivot columns {pivots(x)[j] : j pivot of L}, and distinct L give distinct
subspaces.  So the d-dimensional subspaces of x are exactly the products L.B
with L ranging over the d x k RREF matrices, no re-reduction needed.  Row r
of L.B is x's row at L's r-th pivot plus a multiple of x's row c for each
free entry (r, c) of L, so it is built from x's cached row multiples and x is
never spanned.  That loop is _local_choices, one _Lanes.sums call per free
entry (no call per vector).  Over odd p a sums call of at least
fields._BATCH_MIN (32) vectors of at most 64 bits lists its product in one
big-int pass on 4- or 8-byte slots (fields._lane_ops); shorter products and
wider vectors take one step of the inline formula per vector.  The
loop starts each row from a list: [row] for one subspace x, or, as
incidence.wilson_matrix does for the blocks of a layer, a whole list for x's
row 0, which no free entry adds, so one call lists the rows of the
subspaces of every x in the block that shares rows 1..k-1.
GF(q)^n is the subspace _Lanes.whole, on whose unit basis local order is the
global order, so one _packed_subspaces_of walks every layer: all pivot sets
at once while its lists are small, else one pivot set at a time in blocks
whose lists are held to _STREAM_CAP vectors (_choice_blocks).  A subspace
object keeps the verifiers' walks of it for the last t (_blocks, _hits).
"""

from __future__ import annotations

import itertools
import math
import random
from collections import Counter
from functools import lru_cache
from typing import Iterable, Iterator, Sequence

from .fields import Field, _lane_ops, field

__all__ = [
    "Subspace",
    "gaussian_binomial",
    "canonicalize",
    "coordinate_span",
    "random_subspace_of",
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
#: the most vectors listed for one row, or pivot sets laid out, at one time
_STREAM_CAP = 1 << 16


def gaussian_binomial(n: int, k: int, q: int) -> int:
    """Number of k-dimensional subspaces of an n-dimensional space over GF(q)."""
    if k < 0 or k > n:
        return 0
    num = den = 1
    for i in range(k):
        num *= q ** (n - i) - 1
        den *= q ** (i + 1) - 1
    return num // den


class _Lanes:
    """The packed layout of GF(q)^n and the vector arithmetic on it."""

    def __init__(self, f: Field, n: int):
        p, s, q = f.p, f.s, f.q
        w = 1 if p == 2 else (p - 1).bit_length() + 1
        self.field, self.n, self.q = f, n, q
        self.bw, self.mask = s * w, (1 << s * w) - 1
        self.enc = [sum((c // p**i % p) << (i * w) for i in range(s)) for c in range(q)]
        self.dec = {raw: c for c, raw in enumerate(self.enc)}
        # -c at the lane pattern of each code c; no other pattern occurs
        self._neg_at = [f.neg(self.dec.get(raw, 0)) for raw in range(max(self.enc) + 1)]
        # sums lists add(v, m) for v in vs for m in ms
        self.add, self.sums = _lane_ops(p, w, n * s)
        # x times a coordinate moves its digits up one lane and adds the top
        # digit d back in as d*x^s = d*(-modulus[0] - modulus[1] x - ...)
        self._top = sum(((1 << w) - 1) << (j * self.bw + (s - 1) * w) for j in range(n))
        self._low = ((1 << n * self.bw) - 1) & ~self._top
        self._w, self._top_shift = w, (s - 1) * w
        self._fold = [j * w for j, m in enumerate(f.modulus[:s]) for _ in range(-m % p)]
        # c*v = (c - p^i)*v + x^i*v, with i the lowest nonzero digit of c
        self._steps = []
        for c in range(1, q):
            i = min(i for i in range(s) if c // p**i % p)
            self._steps.append((c - p**i, i))
        # GF(q)^n itself, on the unit basis.  Set here, not on first use, so
        # that every instance keeps one attribute layout and stays fast to read.
        units = tuple(1 << (j * self.bw) for j in range(n))
        self.whole = Subspace(self, units, tuple(range(n)))

    def multiples(self, v: int) -> list[int]:
        """c*v for every element code c, indexed by c."""
        basis, add = [v], self.add
        for _ in range(self.field.s - 1):
            v = basis[-1]
            out, top = (v & self._low) << self._w, (v & self._top) >> self._top_shift
            for sh in self._fold:
                out = add(out, top << sh)
            basis.append(out)
        out = [0]
        for prev, i in self._steps:
            out.append(add(out[prev], basis[i]))
        return out

    def negated(self, mult: list[int]) -> list[int]:
        """-c*v for every element code c, indexed by the lane pattern of c,
        from the multiples of v."""
        return list(map(mult.__getitem__, self._neg_at))

    def code(self, v: int, j: int) -> int:
        return self.dec[(v >> (j * self.bw)) & self.mask]

    def rref(self, vecs: Iterable[int]) -> "Subspace":
        """The subspace spanned by packed vectors, reduced to canonical form."""
        work, out, pivots = list(vecs), [], []
        for col in range(self.n):
            shift, mask = col * self.bw, self.mask
            src = next((i for i, v in enumerate(work) if (v >> shift) & mask), None)
            if src is None:
                continue
            row = work.pop(src)
            row = self.multiples(row)[self.field.inv(self.code(row, col))]
            negs = self.negated(self.multiples(row))
            out = [self.add(v, negs[(v >> shift) & mask]) for v in out] + [row]
            work = [self.add(v, negs[(v >> shift) & mask]) for v in work]
            pivots.append(col)
        return Subspace(self, tuple(out), tuple(pivots))


@lru_cache(maxsize=None)
def _lanes(q: int, n: int) -> _Lanes:
    if n > Field.MAX_DIMENSION:
        raise ValueError(f"dimension {n} is above the limit {Field.MAX_DIMENSION}")
    return _Lanes(field(q), n)


class Subspace:
    """A k-dimensional subspace of GF(q)^n in canonical RREF form.

    Instances are immutable; equality and hashing go through the packed
    canonical basis, so two values are equal iff they are the same subspace.
    """

    __slots__ = ("field", "n", "k", "vecs", "pivots", "_lanes", "_reducer", "_multiples",
                 "_blocks", "_hits")

    def __init__(self, lanes: _Lanes, vecs: tuple[int, ...], pivots: tuple[int, ...]):
        self.field = lanes.field
        self.n = lanes.n
        self.k = len(vecs)
        self.vecs = vecs
        self.pivots = pivots
        self._lanes = lanes
        self._reducer = None  # set by _reducer(): per row, (pivot shift, -c*row)
        self._multiples = None  # set by _multiples(): per row, c*row
        # _blocks and _hits hold (last t, data); _multiples() sets them, not each init

    @property
    def rows(self) -> tuple[tuple[int, ...], ...]:
        """The RREF basis as rows of element codes."""
        code, n = self._lanes.code, self.n
        return tuple(tuple(code(v, j) for j in range(n)) for v in self.vecs)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Subspace)
            and self.vecs == other.vecs
            and self._lanes is other._lanes
        )

    def __hash__(self) -> int:
        return hash(self.vecs)

    def __repr__(self) -> str:
        if self.field.q <= len(_DIGITS):
            body = subspace_to_text(self)
        else:
            body = ";".join(",".join(map(str, row)) for row in self.rows)
        return f"Subspace(q={self.field.q}, n={self.n}, <{body}>)"


def canonicalize(f: Field, n: int, rows: Iterable[Sequence[int]]) -> Subspace:
    """The subspace spanned by the given vectors (RREF of the stack).

    Empty or all-zero input yields the zero space (k=0, empty basis).
    """
    rows = [list(r) for r in rows]
    for r in rows:
        if len(r) != n:
            raise ValueError(f"vector length {len(r)} != ambient dimension {n}")
        if any(not 0 <= v < f.q for v in r):
            raise ValueError("entry out of range for the field")
    lanes = _lanes(f.q, n)
    enc, bw = lanes.enc, lanes.bw
    return lanes.rref(sum(enc[c] << (j * bw) for j, c in enumerate(r)) for r in rows)


def coordinate_span(f: Field, n: int, m: int) -> Subspace:
    """span(e_1..e_m), the first m unit rows of GF(q)^n; refuses m outside [0, n]."""
    if not 0 <= m <= n:
        raise ValueError(f"span dimension {m} out of range [0, {n}]")
    whole = _lanes(f.q, n).whole
    return Subspace(whole._lanes, whole.vecs[:m], whole.pivots[:m])


def random_subspace_of(parent: Subspace, d: int, rng: random.Random) -> Subspace:
    """A uniformly random d-dimensional subspace of parent.

    Draws d vectors, each with one rng.randrange(q) coefficient per basis row
    of parent, and draws again until they are independent.
    """
    if not 0 <= d <= parent.k:
        raise ValueError(f"dimension {d} out of range [0, {parent.k}]")
    lanes, mults = parent._lanes, _multiples(parent)
    while True:
        rows = []
        for _ in range(d):
            vec = 0
            for mult in mults:
                vec = lanes.add(vec, mult[rng.randrange(lanes.q)])
            rows.append(vec)
        cand = lanes.rref(rows)
        if cand.k == d:
            return cand


def _multiples(x: Subspace) -> tuple[list[int], ...]:
    """Per basis row of x: c*row for each element code c; built once per
    subspace object."""
    if x._multiples is None:
        x._multiples = tuple(map(x._lanes.multiples, x.vecs))
        x._blocks = x._hits = (None, None)  # read only after the multiples
    return x._multiples


def _reducer(x: Subspace) -> tuple[tuple[int, list[int]], ...]:
    """Per basis row of x: its pivot's bit shift and -c*row for each lane
    pattern c.  Adding them in turn takes any vector of x to zero; built once
    per subspace object."""
    if x._reducer is None:
        lanes = x._lanes
        x._reducer = tuple(
            (p * lanes.bw, lanes.negated(m)) for m, p in zip(_multiples(x), x.pivots)
        )
    return x._reducer


def _blocks(x: Subspace, t: int):
    """The blocks of _packed_subspaces_of(x, t), listed and kept for the last t
    from the second call at that t on, so a subspace walked once holds nothing."""
    _multiples(x)  # sets the slot on a first walk
    held = x._blocks
    if held[0] != t:
        x._blocks = (t, None)
        return _packed_subspaces_of(x, t)
    if held[1] is None:
        x._blocks = held = (t, list(_packed_subspaces_of(x, t)))
    return held[1]


def _hits(x: Subspace, t: int) -> list:
    """Per block of the ambient t-layer (_ambient_layer) whose pivots x has: its
    offset and per row the weighted indices of the choices in x; the offset plus
    each product's sum is the ordinal of a t-subspace of x.  Kept for the last t."""
    red = _reducer(x)  # builds the multiples, and so the slot, first
    if x._hits[0] != t:
        lanes, xp, out = x._lanes, set(x.pivots), []
        add, mask = lanes.add, lanes.mask
        for pivots, choices, weights, offset in _ambient_layer(lanes.q, x.n, t):
            if xp.issuperset(pivots):
                out.append((offset, hits := []))
                for row, weight in zip(choices, weights):
                    hits.append(hit := [])
                    for i, v in enumerate(row):
                        for shift, negs in red:
                            d = (v >> shift) & mask
                            if d:
                                v = add(v, negs[d])
                        if not v:
                            hit.append(i * weight)
        x._hits = (t, out)
    return x._hits[1]


def contains(x: Subspace, y: Subspace) -> bool:
    """True iff y is a subspace of x (every basis row of y reduces to zero)."""
    lanes = x._lanes
    if lanes is not y._lanes:
        raise ValueError("subspaces live in different ambient spaces")
    if y.k > x.k:
        return False
    reducer = _reducer(x)
    add, mask = lanes.add, lanes.mask
    for v in y.vecs:
        for shift, negs in reducer:
            c = (v >> shift) & mask
            if c:
                v = add(v, negs[c])
        if v:
            return False
    return True


def join(x: Subspace, y: Subspace) -> Subspace:
    """The smallest subspace containing both x and y."""
    if x._lanes is not y._lanes:
        raise ValueError("subspaces live in different ambient spaces")
    return x._lanes.rref(x.vecs + y.vecs)


# -- enumeration order ---------------------------------------------------

def _free_entries(n: int, pivots: tuple[int, ...]) -> list[tuple[int, int]]:
    """The free coordinates (r, c) of an RREF basis with these pivots, row-major."""
    rest = [c for c in range(n) if c not in pivots]
    return [(r, c) for r, p in enumerate(pivots) for c in rest if c > p]


@lru_cache(maxsize=256)
def _pivot_layout(k: int, d: int) -> dict:
    """The d-subspaces of a k-dimensional space in local coordinates: per
    pivot set, in order, its row-major free coordinates (r, c)."""
    return {p: _free_entries(k, p) for p in itertools.combinations(range(k), d)}


def _block(q: int, n: int, k: int, r: int, c: int) -> int:
    """With the rows above row r fixed, the k-subspaces of GF(q)^n whose row r
    has its pivot at c: row r's free entries, then the n-c-1 columns right of c."""
    return q ** (n - k - c + r) * gaussian_binomial(n - c - 1, k - r - 1, q)


@lru_cache(maxsize=256)
def _place(q: int, n: int, pivots: tuple[int, ...]):
    """The free coordinates of a pivot set, row-major, and the ordinal of its
    first subspace: the sizes of the blocks it skips, at most n - k of them."""
    k, offset, scale, start = len(pivots), 0, 1, 0
    for r, p in enumerate(pivots):
        offset += scale * sum(_block(q, n, k, r, c) for c in range(start, p))
        scale *= q ** (n - k - p + r)
        start = p + 1
    return _free_entries(n, pivots), offset


def enumerate_subspaces(f: Field, n: int, k: int) -> Iterator[Subspace]:
    """All k-dimensional subspaces of GF(q)^n in the fixed order, streamed:
    subspaces_of the whole space, whose local order is the global order."""
    if 0 <= k <= n:
        lanes = _lanes(f.q, n)
        for pivots, choices in _packed_subspaces_of(lanes.whole, k):
            for vecs in itertools.product(*choices):
                yield Subspace(lanes, vecs, pivots)


def index_of(x: Subspace) -> int:
    """Ordinal of x within enumerate_subspaces(field, n, k), the inverse of from_index."""
    return _ordinal(x._lanes, x.vecs, x.pivots)


def _ordinal(lanes: _Lanes, vecs: tuple[int, ...], pivots: tuple[int, ...]) -> int:
    """Ordinal of a packed RREF basis, with its pivots, within its layer."""
    free, offset = _place(lanes.q, lanes.n, pivots)
    q, dec, bw, mask = lanes.q, lanes.dec, lanes.bw, lanes.mask
    val = 0
    for r, c in free:
        val = val * q + dec[(vecs[r] >> (c * bw)) & mask]
    return offset + val


def from_index(f: Field, n: int, k: int, ordinal: int) -> Subspace:
    """The subspace at a given position of the fixed enumeration order."""
    if not 0 <= k <= n:
        raise ValueError(f"dimension {k} out of range for n={n}")
    lanes = _lanes(f.q, n)
    total = gaussian_binomial(n, k, f.q)
    if not 0 <= ordinal < total:
        raise ValueError(f"ordinal {ordinal} out of range [0, {total})")
    # per row, skip the blocks before val's, times the choices of rows above
    q, val, scale, pivots, c = f.q, ordinal, 1, (), 0
    for r in range(k):
        while val >= (size := scale * _block(q, n, k, r, c)):
            val -= size
            c += 1
        pivots += (c,)
        scale *= q ** (n - k - c + r)
        c += 1
    rows = [1 << (p * lanes.bw) for p in pivots]
    for r, c in reversed(_free_entries(n, pivots)):
        val, digit = divmod(val, f.q)
        rows[r] |= lanes.enc[digit] << (c * lanes.bw)
    return Subspace(lanes, tuple(rows), pivots)


# -- local enumeration inside a subspace ---------------------------------

def _packed_subspaces_of(x: Subspace, d: int):
    """Per block of the d-dimensional subspaces of x (0 <= d <= x.k), in
    local order: the global pivots and, per basis row, the packed vectors the
    row can take (_local_choices).  The rows choose independently: the bases
    are the product.  The pivot sets are laid out at once (_pivot_layout)
    only when the most vectors that could be listed, C(k, d) d q^(k-d), fit
    in _STREAM_CAP; else they come one at a time from itertools.combinations,
    each in the capped blocks of _choice_blocks.
    """
    k, xp, lanes, mults = x.k, x.pivots, x._lanes, _multiples(x)
    if math.comb(k, d) * d * lanes.q ** (k - d) <= _STREAM_CAP:
        layout = _pivot_layout(k, d)
        lists = _local_choices([[v] for v in x.vecs], mults, layout, lanes.sums)
        for local, choices in zip(layout, lists):
            yield tuple(map(xp.__getitem__, local)), choices
        return
    for local in itertools.combinations(range(k), d):
        pivots, rows = tuple(map(xp.__getitem__, local)), [x.vecs[p] for p in local]
        for choices in _choice_blocks(rows, _free_entries(k, local), mults, lanes):
            yield pivots, choices


def _choice_blocks(rows: list[int], free, mults, lanes: _Lanes):
    """The lists of choices of one pivot set's rows, built by _local_choices
    from the rows' start vectors, in blocks that hold each list to
    _STREAM_CAP vectors: while a list would be longer, the leading free entry
    takes each multiple in turn, added into its row's start.  The blocks'
    products follow one another in order, so a huge layer streams."""
    longest = max(Counter(r for r, _ in free).values(), default=0)
    if longest and lanes.q ** longest > _STREAM_CAP:
        (r, c), free = free[0], free[1:]
        for m in mults[c]:
            head = rows[:r] + [lanes.add(rows[r], m)] + rows[r + 1:]
            yield from _choice_blocks(head, free, mults, lanes)
        return
    # one pivot set, whose local pivots are all the rows
    starts, layout = [[v] for v in rows], {range(len(rows)): free}
    yield _local_choices(starts, mults, layout, lanes.sums)[0]


@lru_cache(maxsize=16)
def _ambient_layer(q: int, n: int, d: int) -> tuple:
    """The blocks of the d-layer of GF(q)^n (_packed_subspaces_of), in order:
    pivots, the rows' lists, each row's mixed-radix weight and the offset."""
    out, offset = [], 0
    for pivots, rows in _packed_subspaces_of(_lanes(q, n).whole, d):
        weights = [math.prod(map(len, rows[i + 1:])) for i in range(d)]
        out.append((pivots, rows, weights, offset))
        offset += math.prod(map(len, rows))
    return tuple(out)


def _local_choices(starts, mults, layout, sums) -> list:
    """Per pivot set of layout (local pivots -> free entries, as in
    _pivot_layout(k, d)), in its order: the lists of packed vectors that
    the rows of a d-subspace of span(basis) can take, given per RREF basis
    row (k rows) its start list, [row] for one basis, and its multiples.

    Row r's list starts as the start list of the basis row at the r-th local
    pivot; each free entry (r, c), read row-major, replaces it by every sum of
    a choice and a multiple of basis row c, in code order: one call
    sums(list, multiples).  So a basis's place in local order is the
    mixed-radix value of its row indices over the list lengths.  A start list
    of several vectors lists several bases' rows at once, each vector's
    slice of the result after the one before: c > 0 in every free entry
    (r, c), so basis row 0 may take a list and needs no multiples.  The
    lists are fresh where a row has a free entry, else its start list.
    """
    out = []
    for local, free in layout.items():
        choices = [starts[p] for p in local]
        for r, c in free:
            choices[r] = sums(choices[r], mults[c])
        out.append(choices)
    return out


def _coordinates(x: Subspace, vec: int) -> tuple[int, ...]:
    """The coefficients of a packed vector of x in x's RREF basis, which are
    its codes at the pivot columns of x."""
    code = x._lanes.code
    return tuple(code(vec, p) for p in x.pivots)


def _hyperplanes(x: Subspace, functionals: Iterable[Sequence[int]]) -> Iterator[Subspace]:
    """ker phi for each nonzero functional phi on x, given by its values on
    x's basis rows.

    With l the last row where phi is nonzero, the rows x_i - (phi_i/phi_l) x_l
    for i < l and x_i for i > l are the RREF basis of the kernel (the local
    kernel basis is RREF, so the structural fact applies): one lane add per
    row and no reduction.
    """
    lanes, f, vecs = x._lanes, x.field, x.vecs
    mults, add = _multiples(x), lanes.add
    for phi in functionals:
        last = max(i for i, c in enumerate(phi) if c)
        scale, along = f.neg(f.inv(phi[last])), mults[last]
        rows = [add(v, along[f.mul(c, scale)]) for v, c in zip(vecs[:last], phi)]
        yield Subspace(
            lanes,
            tuple(rows) + vecs[last + 1:],
            x.pivots[:last] + x.pivots[last + 1:],
        )


def subspaces_of(x: Subspace, d: int) -> Iterator[Subspace]:
    """All d-dimensional subspaces of x, via local RREF coordinates.

    The order is the enumeration order of the local coordinates, which is
    deterministic but not the global enumerate_subspaces order.
    """
    if d > x.k or d < 0:
        return
    lanes = x._lanes
    for pivots, choices in _packed_subspaces_of(x, d):
        for vecs in itertools.product(*choices):
            yield Subspace(lanes, vecs, pivots)


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
        return canonicalize(f, n, [])
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
