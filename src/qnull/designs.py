"""Null designs on the subspace lattice: verification, strength, constructions.

A design is a finitely supported map from subspaces of dimension >= t to
nonzero residues mod r, where r is a power of the field characteristic.  It
has strength t when, for every t-dimensional y, the coefficients of the
support elements containing y sum to zero mod r.

Two verifiers are provided on purpose.  Within one pivot set of the t-layer
each basis row of y ranges over its own list of packed row choices
(grassmann._packed_subspaces_of).  verify_strength counts the products of
the lists built from each support element's rows.  verify_strength_direct
reads the cached lists of that walk on GF(q)^n (grassmann._ambient_layer) and
tests each row choice once against each support element covering the pivots,
so it never lists an element's subspaces; tests hold the two equal.  Both
count a block into a plain dict in one C-level pass and name a violation as
a row of W_{t,k} c = 0 with its nonzero sum, y's ordinal in its layer (see
Verdict), so neither builds a Subspace.

A design keeps its last verify_strength counts, with their t, in a private
slot, and as_modulus(design, r) hands the slot on when r divides design.r:
counts keyed by coefficients mod design.r give every sum mod r, as
sum c*m = sum (c mod r)*m (mod r).  So a design mod q is checked mod p with
one pass over its counts.  The slot's tuple is replaced, never changed, so
neither design sees the other's later counts.

construct_uniform_design does not search: the support elements are the
kernels of the functionals solved for in the chain's top space, read off its
basis (see the function).
"""

from __future__ import annotations

import itertools
import random
from collections import _count_elements  # Counter.update's loop, in C when built
from dataclasses import dataclass
from types import MappingProxyType
from typing import Mapping, Optional

from .fields import Field, field
from .grassmann import (
    Subspace,
    _ambient_layer,
    _coordinates,
    _hyperplanes,
    _lanes,
    _ordinal,
    _packed_subspaces_of,
    _reducer,
    canonicalize,
    contains,
    coordinate_span,
    gaussian_binomial,
    index_of,
    join,
    random_subspace_of,
    subspace_from_text,
    subspace_to_text,
    subspaces_of,
)
from .linalg import InvariantError

__all__ = [
    "NullDesign",
    "Verdict",
    "sum_over_superspaces",
    "verify_strength",
    "verify_strength_direct",
    "strength_of",
    "construct_lb_design",
    "construct_uniform_design",
    "as_modulus",
    "make_random_chain",
    "write_design",
    "read_design",
]


class NullDesign:
    """Immutable finitely-supported coefficient map on subspaces of dim >= t_claimed."""

    __slots__ = ("field", "n", "r", "t_claimed", "support", "_sorted", "_scatter")

    def __init__(
        self,
        f: Field,
        n: int,
        r: int,
        t_claimed: int,
        support: Mapping[Subspace, int],
    ):
        if not f.is_modulus(r):
            raise ValueError(f"modulus {r} must be a power of {f.p} in [2, {f.q}]")
        if not 0 <= t_claimed <= n:
            raise ValueError(f"claimed strength {t_claimed} out of range for n={n}")
        cleaned: dict[Subspace, int] = {}
        for x, c in support.items():
            if x.field is not f or x.n != n:
                raise ValueError("support subspace from a different ambient space")
            if x.k < t_claimed:
                raise ValueError(
                    f"support contains a {x.k}-dimensional subspace, below "
                    f"claimed strength {t_claimed}"
                )
            c %= r
            if c:
                cleaned[x] = c
        self.field = f
        self.n = n
        self.r = r
        self.t_claimed = t_claimed
        self.support = MappingProxyType(cleaned)
        self._sorted = None
        self._scatter = (None, None)  # (t, counts) of the last verify_strength

    def items_sorted(self) -> list[tuple[Subspace, int]]:
        """Support items ordered by (dimension, enumeration ordinal)."""
        if self._sorted is None:
            self._sorted = sorted(
                self.support.items(), key=lambda xc: (xc[0].k, index_of(xc[0]))
            )
        return list(self._sorted)

    def uniform_dim(self) -> Optional[int]:
        """The common support dimension if the design is uniform, else None."""
        dims = {x.k for x in self.support}
        if len(dims) == 1:
            return dims.pop()
        return None

    def is_void(self) -> bool:
        return not self.support

    def __repr__(self) -> str:
        return (
            f"NullDesign(q={self.field.q}, n={self.n}, r={self.r}, "
            f"t={self.t_claimed}, |support|={len(self.support)})"
        )


@dataclass(frozen=True)
class Verdict:
    """violations: (ordinal, sum mod r) per t-subspace y with a nonzero sum,
    ascending.  The ordinal is index_of(y), y's row in wilson_matrix(q, n, t,
    k); from_index(field, n, t, ordinal) recovers y."""

    ok: bool
    violations: tuple[tuple[int, int], ...]


def sum_over_superspaces(design: NullDesign, y: Subspace) -> int:
    """The containment sum at y: coefficients of support elements above y, mod r."""
    if y.field is not design.field or y.n != design.n:
        raise ValueError("query subspace from a different ambient space")
    total = 0
    for x, c in design.support.items():
        if contains(x, y):
            total += c
    return total % design.r


def _check_domain(design: NullDesign, t: int) -> None:
    if not 0 <= t <= design.n:
        raise ValueError(f"strength {t} out of range for n={design.n}")
    low = [x for x in design.support if x.k < t]
    if low:
        raise ValueError(
            f"support contains dimension-{min(x.k for x in low)} subspaces; "
            f"the design is not defined on strata below {t}"
        )


def _nonzero_cells(counts: dict[int, dict], r: int) -> list[tuple[object, int]]:
    """(cell, sum mod r) wherever the sum of c times the cell's count under
    each coefficient c is nonzero; counts of coefficient 1 alone are the sums."""
    total = counts.get(1, {})
    if len(counts) > 1 or not total:
        total = {}
        for c, cells in counts.items():
            for key, m in cells.items():
                total[key] = total.get(key, 0) + m * c
    return [(key, v % r) for key, v in total.items() if v % r]


def verify_strength(design: NullDesign, t: int) -> Verdict:
    """Check the strength-t condition at every t-dimensional subspace.

    Scatter formulation: only y below some support element can have a nonzero
    sum.  The packed bases of the elements' t-subspaces are counted per pivot
    set and coefficient, one C-level pass per block into a plain dict, and
    only nonzero cells get an ordinal (see Verdict).  The counts stay on the
    design until it is verified at another t.  Counts at t+1 with no nonzero
    sum give t with no count: [j-t, 1]_q = 1 (mod r) (t+1)-spaces lie between
    a t-space and an element of dimension j > t, so each sum at t is a sum of
    sums at t+1.
    """
    _check_domain(design, t)
    if design._scatter[0] == t + 1 and not any(
            _nonzero_cells(counts, design.r) for counts in design._scatter[1].values()):
        design._scatter = (t, {})
    if design._scatter[0] != t:
        design._scatter = (None, None)  # free the old counts before counting anew
        groups = {}  # pivots -> c -> {packed basis: count}
        for x, c in design.support.items():
            for pivots, choices in _packed_subspaces_of(x, t):
                cells = groups.setdefault(pivots, {}).setdefault(c, {})
                _count_elements(cells, itertools.product(*choices))
        design._scatter = (t, groups)
    lanes, r = _lanes(design.field.q, design.n), design.r
    violations = tuple(sorted(
        (_ordinal(lanes, key, pivots), v)
        for pivots, counts in design._scatter[1].items()
        for key, v in _nonzero_cells(counts, r)
    ))
    return Verdict(ok=not violations, violations=violations)


def verify_strength_direct(design: NullDesign, t: int) -> Verdict:
    """Reference verifier: walk the pivot sets of J_q(n,t) and sum per y.

    y lies in x only if x has y's pivots, so a pivot set that no support
    element covers is skipped whole.  y lies in x exactly when each of its
    rows reduces to zero against x, and each row picks from its own list, so
    each choice is reduced once per candidate x and c is counted at every
    product of hits.  y's ordinal is its block's offset plus the
    mixed-radix value of its row indices over the list lengths.
    """
    _check_domain(design, t)
    lanes, r = _lanes(design.field.q, design.n), design.r
    add, mask = lanes.add, lanes.mask
    counts = {c: {} for c in design.support.values()}  # c -> {ordinal: count}
    above = [(set(x.pivots), _reducer(x), counts[c]) for x, c in design.support.items()]
    for pivots, choices, weights, offset in _ambient_layer(lanes.q, design.n, t):
        below = [(red, cells) for xp, red, cells in above if xp.issuperset(pivots)]
        if not below:
            continue
        offsets = itertools.repeat(offset)
        for red, cells in below:
            hits = []
            for row, weight in zip(choices, weights):
                hit = []
                for i, v in enumerate(row):
                    for shift, negs in red:
                        d = (v >> shift) & mask
                        if d:
                            v = add(v, negs[d])
                    if not v:
                        hit.append(i * weight)
                if not hit:
                    break
                hits.append(hit)
            else:
                _count_elements(cells, map(sum, itertools.product(*hits), offsets))
    bad = tuple(sorted(_nonzero_cells(counts, r)))
    return Verdict(ok=not bad, violations=bad)


def strength_of(design: NullDesign, t_max: int) -> Optional[int]:
    """Largest t <= t_max at which the design verifies; None if even t=0 fails.

    Strength is downward closed, so t in 0..min(t_max, least support dim) is
    tried from both ends (top, 0, top - 1, 1, ...) up to the first top t that
    holds or bottom t that fails.
    """
    if not 0 <= t_max <= design.n:
        raise ValueError(f"t_max {t_max} out of range [0, {design.n}]")
    if design.is_void():
        return t_max
    lo, hi = 0, min(t_max, min(x.k for x in design.support))
    while lo <= hi:  # every t < lo holds and every t > hi fails
        if verify_strength(design, hi).ok:
            return hi
        hi -= 1
        if lo <= hi and not verify_strength(design, lo).ok:
            hi = lo - 1
        lo += 1
    return hi if hi >= 0 else None


def construct_lb_design(q: int, n: int, t: int, r: Optional[int] = None) -> NullDesign:
    """Minimal-support non-void design of strength t.

    One (t+1)-dimensional subspace carries coefficient 1 and each of its
    t-dimensional subspaces carries -1; the support size is
    1 + (q^{t+1}-1)/(q-1) and cannot be beaten by any non-void design of
    strength t.
    """
    f = field(q)
    if not 0 <= t < n:
        raise ValueError(f"need 0 <= t < n, got t={t}, n={n}")
    if r is None:
        r = f.p
    v = coordinate_span(f, n, t + 1)
    support: dict[Subspace, int] = {v: 1}
    for u in subspaces_of(v, t):
        support[u] = r - 1
    design = NullDesign(f, n, r, t, support)
    expected = 1 + gaussian_binomial(t + 1, t, q)
    if len(design.support) != expected:
        raise InvariantError(f"support size {len(design.support)} != expected {expected}")
    return design


def construct_uniform_design(
    q: int,
    n: int,
    k: int,
    t: int,
    chain: Optional[tuple[Subspace, Subspace, Subspace]] = None,
) -> NullDesign:
    """k-uniform strength-t design with q^{t+1} nonzeros, coefficients mod q.

    Given a chain u < v < w of dimensions k-t-1, k-t, k+1, the design is the
    0/1 indicator of the k-dimensional x with u < x < w minus those with
    v < x < w.  Any valid chain works; the default is the coordinate chain.

    Those x are the kernels of the functionals phi on w with phi(u) = 0 and
    phi(e) = 1, for e a basis row of v outside u: the solutions of one affine
    system in w's local coordinates, q^{t+1} of them, each read off w's RREF
    rows.
    """
    f = field(q)
    if not (0 <= t < k < n):
        raise ValueError(f"need 0 <= t < k < n, got t={t}, k={k}, n={n}")
    if chain is None:
        u = coordinate_span(f, n, k - t - 1)
        v = coordinate_span(f, n, k - t)
        w = coordinate_span(f, n, k + 1)
    else:
        u, v, w = chain
        if (u.k, v.k, w.k) != (k - t - 1, k - t, k + 1):
            raise ValueError(
                f"chain dimensions {(u.k, v.k, w.k)} != "
                f"{(k - t - 1, k - t, k + 1)}"
            )
        if not (contains(v, u) and contains(w, v)):
            raise ValueError("chain is not nested: need u <= v <= w")
        if u.n != n or v.n != n or w.n != n:
            raise ValueError("chain lives in the wrong ambient dimension")
    # the pivots of u are pivots of v, and v's row at the other one is not in u
    e = next(row for row, p in zip(v.vecs, v.pivots) if p not in u.pivots)
    zeros = [_coordinates(w, row) for row in u.vecs]
    one = _coordinates(w, e)
    functionals = _functionals(f, zeros, one)
    for phi in functionals:
        if any(_dot(f, phi, a) for a in zeros) or _dot(f, phi, one) != 1:
            raise InvariantError(f"functional {phi} is not 0 on u and 1 at e")
    support = dict.fromkeys(_hyperplanes(w, functionals), 1)
    if len(support) != q ** (t + 1):
        raise InvariantError(
            f"{len(support)} distinct support elements != q^(t+1) = {q ** (t + 1)}"
        )
    return NullDesign(f, n, q, t, support)


def _dot(f: Field, a: tuple[int, ...], b: tuple[int, ...]) -> int:
    total = 0
    for x, y in zip(a, b):
        total = f.add(total, f.mul(x, y))
    return total


def _functionals(
    f: Field, zeros: list[tuple[int, ...]], one: tuple[int, ...]
) -> list[tuple[int, ...]]:
    """Every phi on GF(q)^m with phi.a = 0 for each a in zeros and phi.one = 1.

    The solutions are read off the RREF of the augmented system: the free
    columns take every value, in base-q order, and each pivot column follows
    from its row.
    """
    m = len(one)
    system = canonicalize(f, m + 1, [[*a, 0] for a in zeros] + [[*one, 1]])
    if system.k != len(zeros) + 1 or m in system.pivots:
        raise InvariantError("the conditions on the functional are dependent")
    free = [c for c in range(m) if c not in system.pivots]
    eqs = [
        (p, row[m], [f.neg(row[c]) for c in free])
        for p, row in zip(system.pivots, system.rows)
    ]
    out = []
    for vals in itertools.product(range(f.q), repeat=len(free)):
        phi = [0] * m
        for c, val in zip(free, vals):
            phi[c] = val
        for p, val, negs in eqs:
            for a, b in zip(negs, vals):
                val = f.add(val, f.mul(a, b))
            phi[p] = val
        out.append(tuple(phi))
    return out


def as_modulus(design: NullDesign, r: int) -> NullDesign:
    """Reinterpret the coefficients mod a different power of p (zeros drop);
    a divisor r of design.r shares design's scatter counts (module docstring)."""
    out = NullDesign(design.field, design.n, r, design.t_claimed, dict(design.support))
    if design.r % r == 0:
        out._scatter = design._scatter
    return out


def make_random_chain(
    f: Field, n: int, k: int, t: int, rng: random.Random
) -> tuple[Subspace, Subspace, Subspace]:
    """A uniformly arbitrary valid chain u < v < w for construct_uniform_design."""
    w = random_subspace_of(coordinate_span(f, n, n), k + 1, rng)
    u = random_subspace_of(w, k - t - 1, rng)
    while True:
        v = join(u, random_subspace_of(w, 1, rng))
        if v.k == k - t:
            return u, v, w


# -- file format -----------------------------------------------------------
# header `q n r t_claimed`, then one `dim|subspace-text|coeff` line per
# support element, sorted by (dim, ordinal).

def write_design(design: NullDesign) -> str:
    lines = [f"{design.field.q} {design.n} {design.r} {design.t_claimed}"]
    for x, c in design.items_sorted():
        lines.append(f"{x.k}|{subspace_to_text(x)}|{c}")
    return "\n".join(lines) + "\n"


def read_design(text: str) -> NullDesign:
    lines = [ln for ln in text.splitlines() if ln.strip()]
    if not lines:
        raise ValueError("empty design file")
    head = lines[0].split()
    if len(head) != 4:
        raise ValueError(f"bad header {lines[0]!r}, expected 'q n r t_claimed'")
    q, n, r, t_claimed = map(int, head)
    f = field(q)
    support: dict[Subspace, int] = {}
    for ln in lines[1:]:
        parts = ln.split("|")
        if len(parts) != 3:
            raise ValueError(f"bad design line {ln!r}")
        dim, text_part, coeff = int(parts[0]), parts[1], int(parts[2])
        x = subspace_from_text(f, n, text_part)
        if x.k != dim:
            raise ValueError(f"line {ln!r}: stated dim {dim} but parsed dim {x.k}")
        if x in support:
            raise ValueError(f"duplicate support element {text_part!r}")
        support[x] = coeff
    return NullDesign(f, n, r, t_claimed, support)
