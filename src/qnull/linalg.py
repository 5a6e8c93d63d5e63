"""Exact rank/kernel computations over GF(p) and Q, with minimum searches.

A GfpMatrix stores each row packed, as one int with column j at bit nc-1-j
over GF(2) and at w-bit lane nc-1-j over odd p, w = 4 for p = 3, 5, 7 and
else the least of 8, 16, 32, ... bits that holds a sum of two residues:
_pack and _unpack read a lane as a digit, as one big-endian struct integer
up to 64 bits, or as hex text above.  from_incidence writes the ints from
the columns, staging each row as its own bytes at the lane width (8 columns
a byte over GF(2)) except for the 4-bit lanes, staged one hex digit a lane
since an OR into a shared byte measured slower on their dense cells.  The
tuple entries is decoded only when read.  The two elimination cores take and
give packed rows, so rref_gfp and the kernels neither pack nor decode.  Over
GF(2) _xor_basis, also used by the all-ones test, is the forward pass to an
echelon basis keyed by leading bit.  Over odd p _lane_basis keys it by
leading lane and keeps each row as found, with -1/lead and, once used, its
multiples: all p for p <= 7, so a step is one lane add (fields._lane_ops),
else the doublings, one add per set bit of the scalar.  rank_gfp,
rank_rational and the support search's leaf test stop there, cheaper on
full-rank input than a reduced basis.  Over odd p rref_gfp runs Gauss-Jordan
as the rows come: every basis row is zero at the other pivot lanes, so a row
costs one lane add per pivot it touches, with no fill-in, and a new pivot
clears its lane from the rows leading above it.  Over GF(2) rref_gfp
back-substitutes the echelon basis.

Over Q, rank_rational has no elimination of its own.  It turns the matrix
so that rows <= columns and takes its rank mod p on _lane_basis for the
4-bit-lane primes 7, 5, 3, then the other odd primes below 2^7, largest
first, then below 2^11, 2^15, ...  The largest rank r seen is a lower
bound: a minor nonzero mod p is nonzero.  It stops at r = rows, or once the
product P of the primes tried has P^2 above the product of the r+1 largest
squared column (or, if less, row) norms.  Each (r+1)-minor is then
divisible by P and, by Hadamard's inequality, below P in absolute value, so
0.  That stop holds after any primes, so the bound is built only once 7, 5
and 3 are all tried.  Full rank (Kantor: W_{t,k} for t <= min(k, n-k)) ends
the loop at the first prime that shows it, 7 or else 5 on the W_{t,k}
tried; a rank-deficient matrix takes passes until P beats the bound.  Each
row becomes bytes once, in C, when every entry is in [0, 256): per prime,
one translate per row finds whether any byte is p or more (then a second
maps each byte to its residue), and the rows are packed from those bytes.
Other integer matrices are reduced % p entry by entry; a non-integer entry
is refused by its position, located only once the bytes pass has failed.
_rank_mod_primes, the prime loop, takes any packer.

Two exhaustive minimum-weight strategies are implemented for kernels over
GF(p):

* kernel-enumeration walks every kernel vector, with the kernel basis packed
  as the rows are, in a Gray-code order: a step is one XOR or lane add, a
  weight one bit count, and the tie-break compares ints.  It requires
  p^(kernel dim) to fit a budget.

* support-enumeration finds the lexicographically first dependent column
  subset of least size.  Stages run in increasing size w, so at stage w a
  dependent w-subset is minimal and carries a kernel word with full support
  on it: every row it touches is touched at least twice, and over GF(2) an
  even number of times.  One depth-first search, in the style of Knuth's
  Dancing Links, branches on the lowest row that breaks this and prunes
  when the columns still to come cannot cover the open rows.  Over GF(2) a
  leaf with no open row is dependent, and when the all-ones vector lies in
  the row space every kernel word has even weight, so odd stages are
  skipped; over other primes a leaf gets a mod-p rank test.  The search
  counts its nodes against the same budget and refuses past it.  On a
  column-transitive matrix, such as W_{t,k}, whose columns GL(n,q) permutes
  in one orbit, transitive=True roots every stage at column 0.

Minimum rational support is the same search, with Q passed as p = 0, on a
0/1 matrix held over GF(2).  A rational dependency among integer columns
survives reduction mod any prime, so a leaf first gets the mod-7 rank test,
on its columns spread into 4-bit lanes when first read; only a leaf that is
dependent mod 7 gets the exact rank test, _rank_rational, passed that rank
with 7 as tried, so its prime loop goes on at 5.  One helper, _nullvector,
gives the witness in every ring.  The search reads the column view _columns
and never decodes entries; leaf tests and witnesses read only the chosen
columns.
"""

from __future__ import annotations

import functools
import itertools
import math
import operator
from dataclasses import dataclass
from fractions import Fraction
from struct import error as StructError, pack, unpack
from typing import Callable, Iterable, Iterator, Optional, Sequence

from .fields import _is_prime, _lane_ops

__all__ = [
    "GfpMatrix",
    "SearchReport",
    "BudgetExceededError",
    "InvariantError",
    "rank_gfp",
    "rref_gfp",
    "kernel_basis_gfp",
    "rank_rational",
    "min_weight_kernel_gfp",
    "min_support_kernel_rational",
    "default_budget",
]

MODE_KERNEL = "kernel-enumeration"
MODE_SUPPORT = "support-enumeration"


class BudgetExceededError(RuntimeError):
    """A search would exceed its configured budget (kernel vectors or nodes).

    A support search's refusal carries the stage w it stopped in, below which
    every weight is ruled out, and the nodes it had visited; a kernel-mode
    refusal, which walks nothing, carries None for both.
    """

    def __init__(
        self, message: str, stage: Optional[int] = None, nodes: Optional[int] = None
    ):
        super().__init__(message)
        self.stage, self.nodes = stage, nodes


class InvariantError(RuntimeError):
    """A self-check on a computed result failed: a bug, not a usage error."""


def default_budget(p: int) -> int:
    """Default search budget: ~2^22 vectors or nodes at p=2, scaled by 1/log p."""
    return int(2**22 / math.log2(p))


@dataclass(frozen=True, init=False, repr=False)
class GfpMatrix:
    """A matrix over GF(p), stored as the packed rows the elimination cores use:
    row i is one int with column j at lane cols-1-j of w = _lane_width(p) bits.
    entries, the rows as tuples, is decoded when first read and then cached.
    GfpMatrix(p, entries) reads the rows, any iterable of them, once and
    refuses an entry outside [0, p) or not an integer.
    """

    p: int
    cols: int
    _packed: tuple[int, ...]

    def __init__(self, p: int, entries: Iterable[Iterable[int]]):
        if not _is_prime(p):
            raise ValueError(f"modulus {p} is not prime")
        entries = tuple(map(tuple, entries))  # once: the rows may be an iterator
        if len({len(r) for r in entries}) > 1:
            raise ValueError("ragged matrix")
        try:
            for i, row in enumerate(entries):
                if row and not 0 <= min(row) <= max(row) < p:
                    j = next(j for j, v in enumerate(row) if not 0 <= v < p)
                    raise ValueError(f"entry {row[j]!r} at ({i}, {j}) is not in [0, {p})")
            packed = _pack(entries, _lane_width(p))
        except (TypeError, ValueError, StructError):
            _refuse_non_integers(entries)  # by its position, else the error stands
            raise
        self._set(p, len(entries[0]) if entries else 0, packed)
        self.__dict__["entries"] = entries

    def _set(self, p: int, cols: int, packed: Iterable[int]) -> "GfpMatrix":
        self.__dict__.update(p=p, cols=cols, _packed=tuple(packed))  # frozen
        return self

    @functools.cached_property
    def entries(self) -> tuple[tuple[int, ...], ...]:
        w = _lane_width(self.p)
        return tuple(_unpack(v, self.cols, w) for v in self._packed)

    @property
    def rows(self) -> int:
        return len(self._packed)

    def __repr__(self) -> str:
        return f"GfpMatrix(p={self.p!r}, entries={self.entries!r})"

    @classmethod
    def from_incidence(cls, m, p: int) -> "GfpMatrix":
        """Reduce an IncidenceMatrix (0/1 entries) mod p, packed from col_rows.

        Each row is staged as the bytes of its int, ceil(cols * w / 8) of
        them, and read by int.from_bytes: column j sets bit (cols-1-j) * w,
        whose byte and bit are found once per column.  At p = 2 that is the
        packed size, eight columns to a byte.  The 4-bit lanes (p = 3, 5, 7)
        stage one hex digit per lane instead, read by int(text, 16): two
        lanes sharing a byte cost an OR per entry, which measured slower on
        their dense cells than the digit store.
        """
        if not _is_prime(p):
            raise ValueError(f"modulus {p} is not prime")
        w = _lane_width(p)
        if w == 4:
            # one hex digit per lane, after a 0 so that an empty row parses
            digits = [bytearray(b"0" * (m.cols + 1)) for _ in range(m.rows)]
            for pos, col in enumerate(m.col_rows, 1):
                for i in col:
                    digits[i][pos] = 49  # "1"
            return object.__new__(cls)._set(p, m.cols, [int(r, 16) for r in digits])
        size = -(-m.cols * w // 8)
        rows = [bytearray(size) for _ in range(m.rows)]
        for j, col in enumerate(m.col_rows):
            at = (m.cols - 1 - j) * w
            pos, bit = size - 1 - (at >> 3), 1 << (at & 7)
            for i in col:
                rows[i][pos] |= bit
        return object.__new__(cls)._set(
            p, m.cols, [int.from_bytes(r, "big") for r in rows]
        )


@dataclass(frozen=True)
class SearchReport:
    """Self-certified outcome of a minimum-weight or minimum-support search.

    weight is None when nothing was found up to the cap.  witness_support and
    witness_values describe one minimum vector (positions and their
    coefficients); they are verified against the matrix before the report is
    constructed.  exhaustive means every weight below the reported one (or up
    to the cap, when nothing was found) was ruled out.
    """

    weight: Optional[int]
    witness_support: Optional[tuple[int, ...]]
    witness_values: Optional[tuple[int, ...]]
    mode: str
    exhaustive: bool
    cap: int

    @property
    def found(self) -> bool:
        return self.weight is not None

    def weight_text(self) -> str:
        return str(self.weight) if self.found else "none found"


# -- RREF and kernels over GF(p) -------------------------------------------


# ASCII digit of each residue below 16, and back: one binary digit per
# column at p = 2, one hex digit per 4-bit lane at odd p <= 7; a lane of 8
# to 64 bits is one big-endian struct integer, of the code _STRUCT[w]
_TO_DIGIT = bytes.maketrans(bytes(range(16)), b"0123456789abcdef")
_FROM_DIGIT = bytes.maketrans(b"0123456789abcdef", bytes(range(16)))
_STRUCT = {8: "B", 16: "H", 32: "I", 64: "Q"}


def _lane_width(p: int) -> int:
    """1 at p = 2, else the least power of two w with 2^(w-1) >= p: 4 for
    p <= 7, then 8, 16, 32, ... bits, so a lane of a byte or more is whole bytes."""
    return 1 if p == 2 else 1 << (p - 1).bit_length().bit_length()


def _pack(entries: Iterable[Sequence[int]], w: int) -> list[int]:
    """Rows as ints of w-bit lanes, w = _lane_width(p); column j is lane nc-1-j:
    one digit a lane up to 4 bits, one struct integer up to 64, else hex text."""
    if w <= 4:
        return [int(b"0" + bytes(row).translate(_TO_DIGIT), 1 << w) for row in entries]
    if w <= 64:
        fmt = ">%d" + _STRUCT[w]
        return [int.from_bytes(pack(fmt % len(row), *row), "big") for row in entries]
    lane = f"%0{w // 4}x"
    return [int("0" + "".join(map(lane.__mod__, row)), 16) for row in entries]


def _unpack(v: int, nc: int, w: int) -> tuple[int, ...]:
    if 8 <= w <= 64:
        return unpack(f">{nc}{_STRUCT[w]}", v.to_bytes(nc * w // 8, "big"))
    # a marker bit above the top lane keeps the leading zeros, and nc = 0
    text = format(v | 1 << nc * w, "b" if w == 1 else "x")[1:]
    if w <= 4:
        return tuple(text.encode().translate(_FROM_DIGIT))
    d = w // 4
    return tuple(int(text[i : i + d], 16) for i in range(0, len(text), d))


def _reduce(basis: dict[int, int], v: int) -> int:
    """v minus its part in the span of an echelon basis keyed by leading bit."""
    while v:
        h = v.bit_length() - 1
        if h not in basis:
            return v
        v ^= basis[h]
    return 0


def _xor_basis(vectors: Iterable[int]) -> dict[int, int]:
    """GF(2) echelon basis of bit-vectors, keyed by leading bit."""
    basis: dict[int, int] = {}
    for v in vectors:
        v = _reduce(basis, v)
        if v:
            basis[v.bit_length() - 1] = v
    return basis


def _rref_gf2(m: GfpMatrix) -> dict[int, int]:
    """p = 2: the RREF rows as bit-vectors, keyed by leading bit."""
    basis = _xor_basis(m._packed)
    # last pivot column first: each done row is zero at the other pivot
    # bits, so one XOR per done pivot bit set in v clears v there
    done: dict[int, int] = {}
    seen = 0  # the done pivot bits
    for h in sorted(basis):
        v = basis[h]
        hits = v & seen
        while hits:
            g = hits.bit_length() - 1
            hits ^= 1 << g
            v ^= done[g]
        done[h] = v
        seen |= 1 << h
    return done


_TABLE_P = 8  # below it (4-bit lanes), _multiples lists all p multiples


def _multiples(b: int, add: Callable[[int, int], int], p: int) -> list[int]:
    """The multiples of b that _axpy adds: every c*b, indexed by c, below
    _TABLE_P; else the doublings b, 2b, 4b, ... up to the top bit of p - 1."""
    if p < _TABLE_P:
        return list(itertools.accumulate([b] * (p - 1), add, initial=0))
    out = [b]
    for _ in range(p.bit_length() - 1):
        out.append(add(out[-1], out[-1]))
    return out


def _axpy(v: int, c: int, e: list, add: Callable[[int, int], int], p: int) -> int:
    """v - (c/lead)*row for a basis entry e = [row, -1/lead mod p, its
    _multiples or None until this first use], clearing c at the row's leading
    lane: one lane add, or one per set bit of the scalar."""
    row, k, mults = e
    if mults is None:
        mults = e[2] = _multiples(row, add, p)
    c = c * k % p
    if p < _TABLE_P:
        return add(v, mults[c])
    for b in mults:
        if c & 1:
            v = add(v, b)
        c >>= 1
    return v


def _lane_basis(rows: Iterable[int], p: int, w: int, nc: int) -> dict[int, list]:
    """Odd p: echelon basis of rows of nc w-bit lanes, keyed by leading lane,
    each row kept as found in the entry that _axpy reduces by; its size is the rank."""
    add = _lane_ops(p, w, nc)[0]
    basis: dict[int, list] = {}
    for v in rows:
        top = nc  # each step must lower the leading lane
        while v:
            h = (v.bit_length() - 1) // w
            if h >= top:
                raise InvariantError("a lane add left a leading lane nonzero")
            c = v >> h * w
            e = basis.get(h)
            if e is None:
                basis[h] = [v, -pow(c, -1, p) % p, None]
                break
            v = _axpy(v, c, e, add, p)
            top = h
        if len(basis) == nc:
            break
    return basis


def _rref_lanes(m: GfpMatrix, w: int) -> dict[int, int]:
    """Odd p: the RREF rows as ints of w-bit lanes, keyed by leading lane."""
    p, nc = m.p, m.cols
    add, lane = _lane_ops(p, w, nc)[0], (1 << w) - 1
    # each basis row is zero at the other pivot lanes, so one multiple per
    # nonzero pivot lane clears v there; a row keeps its lead until the end
    basis: dict[int, list] = {}
    seen = 0  # all ones at the pivot lanes
    for v in m._packed:
        hits = v & seen
        while hits:
            g = (hits.bit_length() - 1) // w
            c = hits >> (g * w)
            hits ^= c << (g * w)
            v = _axpy(v, c, basis[g], add, p)
        if v & seen:
            raise InvariantError("a lane add left a leading lane nonzero")
        if not v:
            continue
        h = (v.bit_length() - 1) // w
        e = basis[h] = [v, -pow(v >> (h * w), -1, p) % p, None]
        seen |= lane << (h * w)
        for f in basis.values():  # clear lane h from the rows leading above h
            c = f[0] >> (h * w) & lane
            if c and f is not e:  # its multiples are rebuilt on next use
                f[0], f[2] = _axpy(f[0], c, e, add, p), None
        if len(basis) == nc:
            break
    return {h: _axpy(0, p - 1, e, add, p) for h, e in basis.items()}  # v/lead


def rank_gfp(m: GfpMatrix) -> int:
    """Rank over GF(p), from the forward pass alone."""
    if m.p == 2:
        return len(_xor_basis(m._packed))
    return len(_lane_basis(m._packed, m.p, _lane_width(m.p), m.cols))


def rref_gfp(m: GfpMatrix) -> tuple[GfpMatrix, int, tuple[int, ...]]:
    """Reduced row echelon form over GF(p): (rref, rank, pivot columns).

    Works on the packed rows of m and returns the RREF packed the same way.
    """
    p, nc, w = m.p, m.cols, _lane_width(m.p)
    done = _rref_gf2(m) if p == 2 else _rref_lanes(m, w)
    order = sorted(done, reverse=True)
    rows = [done[h] for h in order] + [0] * (m.rows - len(order))
    pivots = tuple(nc - 1 - h for h in order)
    return object.__new__(GfpMatrix)._set(p, nc, rows), len(pivots), pivots


def kernel_basis_gfp(m: GfpMatrix) -> list[tuple[int, ...]]:
    """Basis of {x : Mx = 0 mod p}, one vector per free column, ascending."""
    red, _, pivots = rref_gfp(m)
    p, nc, w = m.p, m.cols, _lane_width(m.p)
    basis = []
    for f in sorted(set(range(nc)) - set(pivots)):
        v = [0] * nc
        v[f] = 1
        shift = (nc - 1 - f) * w  # column f's lane in each RREF row
        for row, pc in zip(red._packed, pivots):
            v[pc] = -(row >> shift & (1 << w) - 1) % p
        basis.append(tuple(v))
    return basis


# -- exact rational rank ----------------------------------------------------


def _rank_primes() -> Iterator[int]:
    """The 4-bit-lane primes 7, 5, 3, then the other odd primes below 2^7,
    then 2^7..2^11, 2^11..2^15, ..., each band largest first."""
    yield from (7, 5, 3)
    lo = 7
    for e in itertools.count(7, 4):
        yield from (p for p in range((1 << e) - 1, lo, -2) if _is_prime(p))
        lo = 1 << e


def _norm_products(vectors: Iterable[Sequence[int]]) -> list[int]:
    """[1, n1, n1*n2, ...] over the squared norms n1 >= n2 >= ... of vectors."""
    norms = sorted((sum(map(operator.mul, x, x)) for x in vectors), reverse=True)
    return list(itertools.accumulate(norms, operator.mul, initial=1))


def _rank_mod_primes(
    packed: Callable[[int, int], list[int]],
    nr: int,
    nc: int,
    bounds: Callable[[], list[int]],
    rank: int = 0,
    prod: int = 1,
) -> int:
    """Rank over Q of an nr x nc integer matrix, nr <= nc, whose rows mod p
    packed(p, w) gives in w-bit lanes; bounds() gives the Hadamard products
    min(_norm_products) of its rows and columns, built only if needed.  The
    primes dividing prod are taken as tried already, rank the most seen."""
    bound = None
    for p in _rank_primes():
        if prod % p == 0:
            continue
        w = _lane_width(p)
        rank = max(rank, len(_lane_basis(packed(p, w), p, w, nc)))
        prod *= p
        if rank == nr:
            return rank
        if p in (7, 5):
            continue  # the bound waits until 3, the last 4-bit-lane prime
        if bound is None:
            bound = bounds()
        # each (rank+1)-minor is divisible by prod, and below it by Hadamard
        if prod * prod > bound[rank + 1]:
            return rank


def _byte_residues(rows: list[bytes], p: int) -> list[bytes]:
    """Rows of byte entries mod p, the same rows if every byte is below p."""
    if p > 255:
        return rows
    below = bytes(range(p))
    if not any(b.translate(None, below) for b in rows):
        return rows
    table = (below * (256 // p + 1))[:256]  # byte v to v % p
    return [b.translate(table) for b in rows]


def _refuse_non_integers(entries: Sequence[Sequence[int]]) -> None:
    """Raise ValueError at the first entry that is not an integer."""
    for i, row in enumerate(entries):
        for j, v in enumerate(row):
            try:
                operator.index(v)
            except TypeError:
                raise ValueError(f"entry ({i},{j}) = {v!r} is not an integer") from None


def rank_rational(entries: Sequence[Sequence[int]]) -> int:
    """Rank over Q of an integer matrix, from its ranks mod p (see module doc)."""
    return _rank_rational(entries, 0, 1)


def _rank_rational(entries: Sequence[Sequence[int]], rank: int, prod: int) -> int:
    """rank_rational with the primes dividing prod taken as tried and rank the
    most seen there: a support-search leaf passes its rank mod 7 and 7."""
    if len({len(r) for r in entries}) > 1:
        raise ValueError("ragged matrix")
    if not entries or not entries[0]:
        return 0
    rows = entries if len(entries) <= len(entries[0]) else list(zip(*entries))
    try:
        rows = list(map(bytes, rows))  # in C, if every entry is in [0, 256)
    except (TypeError, ValueError):
        _refuse_non_integers(entries)
        packed = lambda p, w: _pack([[v % p for v in r] for r in rows], w)
    else:
        packed = lambda p, w: _pack(_byte_residues(rows, p), w)
    bounds = lambda: list(map(min, _norm_products(rows), _norm_products(zip(*rows))))
    return _rank_mod_primes(packed, len(rows), len(rows[0]), bounds, rank, prod)


# -- the column view and witnesses -----------------------------------------


def _columns(m: GfpMatrix) -> tuple[list[int], list[int], list[int], Callable]:
    """(masks, row_cols, lanes, on_support) of m, in one walk over the nonzero
    lanes of its rows: where m[i][j] != 0, masks[j] has bit i, row_cols[i] bit
    j and lanes[j] m[i][j] at lane i; on_support(S) gives S's columns over the
    rows they touch, as row tuples (other rows are 0 there: no kernel change)."""
    p, nc, w = m.p, m.cols, _lane_width(m.p)
    masks, row_cols = [0] * nc, []
    lanes = masks if p == 2 else [0] * nc
    for i, v in enumerate(m._packed):
        row_cols.append(0)
        while v:
            h = (v.bit_length() - 1) // w
            c = v >> h * w
            v ^= c << h * w
            masks[nc - 1 - h] |= 1 << i
            row_cols[i] |= 1 << nc - 1 - h
            if p != 2:
                lanes[nc - 1 - h] |= c << i * w

    def on_support(support: Sequence[int]) -> list[tuple[int, ...]]:
        touched = functools.reduce(operator.or_, (masks[j] for j in support), 0)
        return [
            tuple(lanes[j] >> i * w & (1 << w) - 1 for j in support)
            for i in range(touched.bit_length())
            if touched >> i & 1
        ]

    return masks, row_cols, lanes, on_support


def _verify_kernel_vector(
    on_support: Callable, p: int, support: tuple[int, ...], values: tuple[int, ...]
) -> None:
    """Check that values, none 0, kill the columns in support mod p (Q at p = 0)."""
    if len(support) != len(values) or not all(v % p if p else v for v in values):
        raise InvariantError("malformed witness")
    for row in on_support(support):
        dot = sum(a * v for a, v in zip(row, values))
        if dot % p if p else dot:
            raise InvariantError("witness is not in the kernel")


def _nullvector(rows: Sequence[Sequence[int]], w: int, p: int) -> tuple[int, ...]:
    """The kernel of w columns, given as the rows they touch, when it is one
    line: over GF(p) its point that leads with 1, over Q (p = 0) its primitive
    integer point with a positive lead.  Any other kernel is an InvariantError."""
    # Gauss-Jordan on ints mod p, or on Fractions
    mod = (lambda a: a % p) if p else Fraction
    inv = (lambda a: pow(a, -1, p)) if p else (lambda a: 1 / a)
    done: dict[int, list] = {}  # the RREF rows, keyed by pivot column
    for row in rows:
        v = list(map(mod, row))
        for c, r in done.items():
            f = v[c]
            if f:
                v = [mod(a - f * b) for a, b in zip(v, r)]
        c = next((c for c in range(w) if v[c]), None)
        if c is not None:
            v = [mod(a * inv(v[c])) for a in v]
            for r in done.values():
                if r[c]:
                    r[:] = [mod(a - r[c] * b) for a, b in zip(r, v)]
            done[c] = v
    free = [c for c in range(w) if c not in done]
    if len(free) != 1:
        raise InvariantError("support set is not minimally dependent")
    vec = [mod(-done[c][free[0]] if c in done else c == free[0]) for c in range(w)]
    lead = inv(next(a for a in vec if a))
    vec = [mod(a * lead) for a in vec]
    scale = 1 if p else math.lcm(*(a.denominator for a in vec))
    return tuple(int(a * scale) for a in vec)


# -- kernel-enumeration mode ------------------------------------------------


def _kernel_enum(m: GfpMatrix, cap: int, budget: int) -> SearchReport:
    p, nc, w = m.p, m.cols, _lane_width(m.p)

    def refuse(kd: int, least: str = "") -> None:
        if p ** min(kd, budget.bit_length()) > budget:  # never a huge p^kd
            raise BudgetExceededError(
                f"kernel enumeration needs {least}{p}^{kd} vectors, budget is {budget}"
            )

    refuse(max(nc - m.rows, 0), "at least ")  # dim ker >= cols - rows
    basis = _pack(kernel_basis_gfp(m), w)  # column j at lane nc-1-j
    kd = len(basis)
    refuse(kd)
    # adding 2^(w-1) - 1 to every lane sets the top bit of exactly the nonzero
    # lanes, and no lane carries: its residue is below 2^(w-1)
    ones = ((1 << w * nc) - 1) // ((1 << w) - 1)
    fold, high = ones * ((1 << w - 1) - 1), ones << w - 1
    best = (nc + 1, 0, 0)  # (weight, -support mask, vector) of the least so far

    def offer(v: int, weight: int) -> None:
        # column j at lane nc-1-j: at equal weight the larger support mask, then
        # the smaller int, is the lex-least support, then values
        nonlocal best
        best = min(best, (weight, -(v + fold & high), v))

    cur = 0
    if p == 2:
        for c in range(1, 1 << kd):
            cur ^= basis[(c & -c).bit_length() - 1]
            weight = cur.bit_count()
            if weight <= best[0]:
                offer(cur, weight)
    else:
        add = _lane_ops(p, w, nc)[0]
        for c in range(1, p**kd):
            # modular Gray step: bump the digit at the p-adic valuation of c,
            # which adds one basis vector to the running combination
            cc, i = c, 0
            while cc % p == 0:
                cc, i = cc // p, i + 1
            cur = add(cur, basis[i])
            weight = (cur + fold & high).bit_count()
            if weight <= best[0]:
                offer(cur, weight)
    if best[0] > min(cap, nc):  # nothing up to the cap, or no nonzero vector
        return SearchReport(None, None, None, MODE_KERNEL, True, cap)
    vec = _unpack(best[2], nc, w)
    support = tuple(j for j, v in enumerate(vec) if v)
    values = tuple(v for v in vec if v)
    _verify_kernel_vector(_columns(m)[3], p, support, values)
    return SearchReport(best[0], support, values, MODE_KERNEL, True, cap)


# -- support-enumeration mode ------------------------------------------------


def _all_ones_in_row_space(m: GfpMatrix) -> bool:
    """p=2: is the all-ones row a GF(2) combination of the rows?"""
    return not _reduce(_xor_basis(m._packed), (1 << m.cols) - 1)


def _least_dependent_set(
    masks: Sequence[int],
    row_cols: Sequence[int],
    stages: Iterable[int],
    dependent: Optional[Callable[[list[int]], bool]],
    budget: int,
    transitive: bool,
) -> Optional[tuple[int, ...]]:
    """Lex-least column set of the first stage size w that has one, or None.

    masks[j] is the set of rows where column j is nonzero, row_cols[i] the
    set of columns where row i is.  At stage w every smaller set is
    independent, so a dependent w-set S is minimal and carries a kernel
    vector with full support on S: every row S touches is touched at least
    twice, and over GF(2) (dependent None) an even number of times.  The
    depth-first search keeps the "open" rows that break this (touched once,
    or an odd number of times over GF(2)), always branches on the lowest
    open row over the columns that cover it, and bans the columns tried in
    earlier sibling branches, so each set is reached once.  A node is pruned
    when its open rows outnumber what the columns still to come can cover.
    A leaf with no open row is a hit over GF(2); otherwise dependent(set)
    decides.  The least column a runs in ascending order and the search
    returns the least hit of the first a that has one.  When the columns are
    one orbit of a group that maps dependent sets to dependent sets
    (transitive), some w-set holding column 0 is dependent if any is, so only
    a = 0 runs: the same answer.  More than budget nodes raise
    BudgetExceededError.
    """
    maxdeg = max((mk.bit_count() for mk in masks), default=0)
    every = (1 << len(masks)) - 1
    chosen: list[int] = []
    hits: list[tuple[int, ...]] = []
    nodes = 0
    w = 0

    def push(c: int, once: int, multi: int, used: int) -> None:
        nonlocal nodes
        nodes += 1
        if nodes > budget:
            raise BudgetExceededError(
                f"support search reached {nodes} nodes at stage w={w}, "
                f"budget is {budget}",
                stage=w,
                nodes=nodes,
            )
        chosen.append(c)
        mk = masks[c]
        if dependent is None:
            once ^= mk
        else:
            once, multi = (once ^ mk) & ~multi, multi | (once & mk)
        left = w - len(chosen)
        if not left:
            if not once and (dependent is None or dependent(chosen)):
                hits.append(tuple(sorted(chosen)))
        elif once.bit_count() <= left * maxdeg:
            cands = row_cols[(once & -once).bit_length() - 1] if once else every
            cands &= ~used
            while cands:
                bit = cands & -cands
                cands ^= bit
                used |= bit
                push(bit.bit_length() - 1, once, multi, used)
        chosen.pop()

    for w in stages:
        for a in range(1 if transitive else len(masks) - w + 1):
            push(a, 0, 0, (2 << a) - 1)
            if hits:
                return min(hits)
    return None


def _support_enum(
    m: GfpMatrix, p: int, cap: int, budget: int, transitive: bool
) -> SearchReport:
    """The support search over GF(p), or over Q (p = 0) on a 0/1 m over GF(2)."""
    masks, row_cols, lanes, on_support = _columns(m)
    # <all-ones, x> = weight of x mod 2, so if the all-ones row is in the row
    # space every kernel word has even weight
    step = 2 if p == 2 and _all_ones_in_row_space(m) else 1
    stages = range(step, min(cap, m.cols) + 1, step)
    dependent = None
    if p != 2:
        # a rational dependency among integer columns survives mod any prime,
        # so over Q a leaf is ranked mod 7 first, on its columns spread into
        # 4-bit lanes (bit i to lane i) when first read, and only a leaf
        # dependent mod 7 gets the exact rank test, which goes on from there
        lp = p or 7
        lw = _lane_width(lp)
        column = lanes.__getitem__ if p else functools.cache(
            lambda j: int(format(masks[j], "b"), 16)
        )

        def dependent(chosen: list[int]) -> bool:
            vecs = [column(j) for j in chosen]  # the columns, as rows
            rank = len(_lane_basis(vecs, lp, lw, m.rows))
            if p or rank == len(chosen):
                return rank < len(chosen)
            return _rank_rational(on_support(chosen), rank, 7) < len(chosen)

    hit = _least_dependent_set(masks, row_cols, stages, dependent, budget, transitive)
    if hit is None:
        return SearchReport(None, None, None, MODE_SUPPORT, True, cap)
    values = _nullvector(on_support(hit), len(hit), p)
    _verify_kernel_vector(on_support, p, hit, values)
    return SearchReport(len(hit), hit, values, MODE_SUPPORT, True, cap)


def min_weight_kernel_gfp(
    m: GfpMatrix,
    cap: int,
    mode: str = MODE_KERNEL,
    budget: Optional[int] = None,
    transitive: bool = False,
) -> SearchReport:
    """Minimum Hamming weight of a nonzero kernel vector, with witness.

    mode is "kernel-enumeration" (walk the whole kernel; requires
    p^(kernel dim) <= budget) or "support-enumeration" (search column subsets
    by size; refused once the search passes budget nodes).  budget defaults
    to default_budget(p) and refusals raise BudgetExceededError.  Both are
    exhaustive and agree wherever both run; ties are
    broken by lexicographically least support, then least coefficient tuple.
    transitive says that m's columns are one orbit of its automorphisms, as
    a Wilson matrix's are under GL(n, q): the support search then tries only
    sets that hold column 0, with the same result.
    """
    if cap < 1:
        raise ValueError("cap must be >= 1")
    mode_norm = {"kernel": MODE_KERNEL, "support": MODE_SUPPORT}.get(mode, mode)
    if mode_norm not in (MODE_KERNEL, MODE_SUPPORT):
        raise ValueError(f"unknown mode {mode!r}")
    if budget is None:
        budget = default_budget(m.p)
    if mode_norm == MODE_KERNEL:
        return _kernel_enum(m, cap, budget)
    return _support_enum(m, m.p, cap, budget, transitive)


# -- rational minimum support ------------------------------------------------


def min_support_kernel_rational(
    m: GfpMatrix, cap: int, budget: Optional[int] = None, transitive: bool = False
) -> SearchReport:
    """Smallest column subset dependent over Q, first in lexicographic order.

    m is held over GF(2) and its entries are read as the integers 0 and 1.
    The witness is the primitive integer kernel vector on that subset with
    positive leading entry.  A search past budget nodes raises
    BudgetExceededError; budget defaults to default_budget(2), the support
    search's default over GF(2).  transitive is min_weight_kernel_gfp's.
    """
    if cap < 1:
        raise ValueError("cap must be >= 1")
    if m.p != 2:
        raise ValueError(f"expected a 0/1 matrix over GF(2), got one over GF({m.p})")
    if budget is None:
        budget = default_budget(2)
    return _support_enum(m, 0, cap, budget, transitive)
