import functools
import itertools
import math
import os
import random
import re
import subprocess
import sys
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qnull import fields, linalg
from qnull.designs import NullDesign, verify_strength
from qnull.fields import field
from qnull.grassmann import gaussian_binomial
from qnull.incidence import IncidenceMatrix, read_matrix, wilson_matrix
from qnull.linalg import (
    MODE_KERNEL,
    MODE_SUPPORT,
    BudgetExceededError,
    GfpMatrix,
    InvariantError,
    _all_ones_in_row_space,
    default_budget,
    kernel_basis_gfp,
    min_support_kernel_rational,
    min_weight_kernel_gfp,
    rank_gfp,
    rank_rational,
    rref_gfp,
)


def _m(p, rows):
    return GfpMatrix(p, [[v % p for v in r] for r in rows])


# -- RREF ---------------------------------------------------------------------


def test_rref_identity_and_zero():
    ident = _m(5, [[1, 0], [0, 1]])
    red, rank, pivots = rref_gfp(ident)
    assert red == ident and rank == 2 and pivots == (0, 1)
    zero = _m(3, [[0, 0, 0]])
    red, rank, pivots = rref_gfp(zero)
    assert red == zero and rank == 0 and pivots == ()


def test_rref_is_idempotent_and_normalized():
    m = _m(7, [[2, 4, 1], [3, 6, 5], [1, 2, 0]])
    red, rank, pivots = rref_gfp(m)
    again, rank2, pivots2 = rref_gfp(red)
    assert red == again and rank == rank2 and pivots == pivots2
    for r, pc in enumerate(pivots):
        assert red.entries[r][pc] == 1
        for other in range(red.rows):
            if other != r:
                assert red.entries[other][pc] == 0


def test_gfp_matrix_validation():
    with pytest.raises(ValueError):
        GfpMatrix(4, [[1]])  # 4 is not prime
    with pytest.raises(ValueError):
        GfpMatrix(2, [[1, 0], [1]])  # ragged


def test_gfp_matrix_reads_rows_from_any_iterable():
    # a generator was once read whole by the ragged check, leaving no rows
    rows = [[1, 2], [0, 1]]
    want = GfpMatrix(3, rows)
    for given_rows in ((r for r in rows), iter(rows), map(iter, rows)):
        got = GfpMatrix(3, given_rows)
        assert got == want and got.entries == ((1, 2), (0, 1))
    assert rank_gfp(GfpMatrix(3, (r for r in rows))) == 2
    with pytest.raises(ValueError, match="ragged"):
        GfpMatrix(3, (r for r in [[1, 2], [1]]))


def test_gfp_matrix_refuses_entries_outside_the_residues():
    # each once went through: a rank mod 3 of 2 where it is 1, an
    # InvariantError in the lane core, and a raw int() parse message
    for p, rows, bad in (
        (3, ((3, 0), (0, 1)), "entry 3 at (0, 0)"),
        (5, ((7, 2), (2, 4)), "entry 7 at (0, 0)"),
        (2, ((2, 1),), "entry 2 at (0, 0)"),
        (7, ((1, 2), (3, -1)), "entry -1 at (1, 1)"),
    ):
        with pytest.raises(ValueError, match=re.escape(f"{bad} is not in [0, {p})")):
            GfpMatrix(p, rows)
        reduced = _m(p, rows)
        want = tuple(tuple(v % p for v in row) for row in rows)
        assert reduced.entries == want and GfpMatrix(p, want) == reduced
    assert rref_gfp(_m(3, ((3, 0), (0, 1))))[1] == 1


@pytest.mark.parametrize("p", [3, 11, 131, 2**61 - 1, 3317044064679887385961813])
@pytest.mark.parametrize("bad", [1.5, "1", None])
def test_gfp_matrix_refuses_a_non_integer_entry_by_its_position(p, bad):
    # 1.5 passes the range check and once failed in the packer (TypeError in
    # the digit and hex-text codecs, struct.error at byte lanes); "1" and
    # None once failed in min() with a TypeError
    with pytest.raises(ValueError, match=re.escape(f"(1,1) = {bad!r} is not an integer")):
        GfpMatrix(p, [[0, 1], [1, bad]])


def test_gfp_matrix_is_a_value():
    a = _m(5, [[1, 2, 3], [4, 0, 1]])
    b = GfpMatrix.from_incidence(read_matrix("5 2 1 1 2 3\n0 0\n1 2\n"), 5)
    assert b.entries == ((1, 0, 0), (0, 0, 1))
    assert a == GfpMatrix(5, a.entries) and hash(a) == hash(GfpMatrix(5, a.entries))
    assert a != b and a != GfpMatrix(7, a.entries)
    assert repr(a) == "GfpMatrix(p=5, entries=((1, 2, 3), (4, 0, 1)))"
    assert (a.p, a.rows, a.cols) == (5, 2, 3)
    with pytest.raises(AttributeError):
        a.entries = ()


def test_tracer_hooks_stay_in_place():
    # perfbench/tracer.py wraps this classmethod and reads p, rows and cols
    # off each rref_gfp argument and result
    assert isinstance(vars(GfpMatrix)["from_incidence"], classmethod)
    for p in (2, 3, 131):
        m = GfpMatrix.from_incidence(wilson_matrix(2, 3, 1, 2), p)
        red = rref_gfp(m)[0]
        assert (red.p, red.rows, red.cols) == (m.p, m.rows, m.cols) == (p, 7, 7)
    # perfbench's elim workload ranks m.dense() over Q, and its tracer wraps
    # that method on the class
    assert callable(vars(IncidenceMatrix)["dense"])


def _has_field(q):
    try:
        field(q)
    except ValueError:  # not a prime power, or no modulus on record
        return False
    return True


@functools.cache
def _storage_cases():
    """Every Wilson cell with q^n <= 3^4 over a field qnull has, and
    hand-edited files (an empty row and column, a row that repeats another, a
    column of ones, no column, widths around a byte), each with its dense
    rows."""
    cells = [
        wilson_matrix(q, n, t, k)
        for q in filter(_has_field, range(2, 3**4 + 1))
        for n in range(1, 7)
        if q**n <= 3**4
        for t in range(n + 1)
        for k in range(t, n + 1)
    ]
    cells.append(read_matrix("2 3 1 2 4 5\n0 0\n0 3\n0 4\n1 4\n3 0\n3 3\n3 4\n"))
    # the byte edges of staging rows as bytes: rows with no column, and 8, 9,
    # 16 and 17 columns with the first and last set, column 3 holding every
    # row at 8 and 16, and row 3 empty at 9 and 17
    cells.append(read_matrix("2 3 1 2 3 0\n"))
    for c in (8, 9, 16, 17):
        ones = {(0, 0), (1, c - 1), (2, 0), (2, c - 1), (0, c // 2)}
        ones |= {(i, 3) for i in range(4)} if c % 8 == 0 else {(1, 1)}
        text = "".join(f"{i} {j}\n" for i, j in sorted(ones))
        cells.append(read_matrix(f"2 5 1 2 4 {c}\n{text}"))
    return [(m, tuple(map(tuple, m.dense()))) for m in cells]


@pytest.mark.parametrize("p", [2, 3, 5, 7, 11, 131])
def test_packed_storage_keeps_the_dense_meaning(p):
    # lane widths 1, 4, 4, 4, 8 and 16: from_incidence writes the packed
    # rows itself, the constructor packs the dense rows as entries.  Past 2^16
    # entries (eight GF(2)^6 cells) both eliminations would take seconds on
    # what the equal rows already decide, so those check storage only.
    for m, rows in _storage_cases():
        packed, dense = GfpMatrix.from_incidence(m, p), GfpMatrix(p, rows)
        assert packed == dense, (m.q, m.n, m.t, m.k)
        assert (packed.entries, packed.rows, packed.cols) == (rows, m.rows, m.cols)
        if m.rows * m.cols > 1 << 16:
            continue
        (red, rank, pivots), (red2, rank2, pivots2) = rref_gfp(packed), rref_gfp(dense)
        assert (red.entries, rank, pivots) == (red2.entries, rank2, pivots2)
        assert kernel_basis_gfp(packed) == kernel_basis_gfp(dense)


# primes at each edge of each lane width, the least power of two w with
# 2^(w-1) >= p: 1 and 4 bits are digits, 8 to 64 one struct integer, and 128
# (an 82-bit prime, p > 2^63) hex text
LANE_PRIMES = [
    (2, 1), (3, 4), (7, 4), (11, 8), (127, 8), (131, 16), (32749, 16),
    (32771, 32), (2**31 - 1, 32), (2**61 - 1, 64), (3317044064679887385961813, 128),
]


@pytest.mark.parametrize("p, w", LANE_PRIMES)
def test_pack_and_unpack_round_trip_at_each_lane_width(p, w):
    assert linalg._lane_width(p) == w
    rng = random.Random(p)
    rows = [[], [0], [p - 1], [0, p - 1, 1, 0], [p - 1] * 9, [0] * 9]
    rows += [[rng.randrange(p) for _ in range(nc)] for nc in (1, 7, 70)]
    for row in rows:
        nc = len(row)
        v = linalg._pack([row], w)[0]
        assert v < 1 << nc * w and linalg._unpack(v, nc, w) == tuple(row)
        # column j at lane nc-1-j
        assert all(v >> (nc - 1 - j) * w & (1 << w) - 1 == x for j, x in enumerate(row))
    assert linalg._pack(rows, w) == [linalg._pack([r], w)[0] for r in rows]


STAGING_PEAK = """
from qnull.incidence import wilson_matrix
from qnull.linalg import GfpMatrix

def peak_kb():
    with open("/proc/self/status") as status:
        return int(next(ln for ln in status if ln.startswith("VmHWM:")).split()[1])

m = wilson_matrix(2, 7, 2, 3)
before = peak_kb()
g = GfpMatrix.from_incidence(m, 2)
print((peak_kb() - before) / 1024)
"""


@pytest.mark.skipif(not os.path.exists("/proc/self/status"), reason="reads VmHWM")
def test_gf2_staging_peak_stays_near_the_packed_rows():
    # W_{2,3}(2,7) is 2667 x 11811: its packed rows take 3.9 MB, where a
    # staging of one ASCII digit per column took 31 MB more.  The peak is
    # the child's own VmHWM: Linux carries the parent's peak into a child's
    # ru_maxrss across fork and exec, which would hide the growth.
    src = os.path.dirname(os.path.dirname(linalg.__file__))
    proc = subprocess.run(
        [sys.executable, "-c", STAGING_PEAK],
        capture_output=True,
        env={**os.environ, "PYTHONPATH": src},
        timeout=60,
    )
    assert (proc.returncode, proc.stderr) == (0, b""), proc.stderr
    assert float(proc.stdout) < 16, proc.stdout


def test_kernel_basis_properties():
    p = 3
    m = _m(p, [[1, 2, 0, 1], [0, 0, 1, 2]])
    basis = kernel_basis_gfp(m)
    _, rank, _ = rref_gfp(m)
    assert len(basis) == m.cols - rank == 2
    for v in basis:
        assert len(v) == m.cols
        for row in m.entries:
            assert sum(a * b for a, b in zip(row, v)) % p == 0
    # one basis vector per free column, free entry set to 1 in column order
    frees = [j for j in range(m.cols) if j not in rref_gfp(m)[2]]
    for v, fc in zip(basis, frees):
        assert v[fc] == 1
        for other in frees:
            if other != fc:
                assert v[other] == 0


def test_kernel_basis_spans_kernel_of_wilson():
    m = GfpMatrix.from_incidence(wilson_matrix(2, 4, 1, 2), 2)
    basis = kernel_basis_gfp(m)
    _, rank, _ = rref_gfp(m)
    assert rank == 11 and len(basis) == 35 - 11
    for v in basis:
        for row in m.entries:
            assert sum(a * b for a, b in zip(row, v)) % 2 == 0


def _rref_mod_p(rows, ncols, p):
    """Reference: plain Gauss-Jordan mod p on lists, (rows, rank, pivots)."""
    work = [list(row) for row in rows]
    pivots = []
    for c in range(ncols):
        r = len(pivots)
        piv = next((i for i in range(r, len(work)) if work[i][c]), None)
        if piv is None:
            continue
        work[r], work[piv] = work[piv], work[r]
        inv = pow(work[r][c], p - 2, p)
        work[r] = [v * inv % p for v in work[r]]
        for i in range(len(work)):
            if i != r and work[i][c]:
                f = work[i][c]
                work[i] = [(a - f * b) % p for a, b in zip(work[i], work[r])]
        pivots.append(c)
    return tuple(map(tuple, work)), len(pivots), tuple(pivots)


@st.composite
def gfp_rows(draw, primes, max_cols, max_rows):
    """Rows mod p: repeated rows, combinations of rows, zero rows, zero columns."""
    p = draw(st.sampled_from(primes))
    ncols = draw(st.integers(min_value=0, max_value=max_cols))
    base = []
    for code in draw(st.lists(st.integers(0, p**ncols - 1), max_size=max_rows)):
        row = []
        for _ in range(ncols):
            code, digit = divmod(code, p)
            row.append(digit)
        base.append(row)
    rows = list(base)
    if base:
        pick = st.sampled_from(base)
        rows += draw(st.lists(pick, max_size=2))
        coeff = st.integers(min_value=1, max_value=p - 1)
        combos = draw(st.lists(st.tuples(pick, coeff, pick, coeff), max_size=2))
        rows += [[(a * u + b * v) % p for u, v in zip(x, y)] for x, a, y, b in combos]
    rows += [[0] * ncols] * draw(st.integers(min_value=0, max_value=2))
    rows = draw(st.permutations(rows))
    dead = draw(st.sets(st.integers(min_value=0, max_value=max(ncols - 1, 0))))
    rows = [[0 if j in dead else v for j, v in enumerate(row)] for row in rows]
    return p, ncols, rows


def _check_rref_and_kernel(p, ncols, rows):
    m = _m(p, rows)
    red, rank, pivots = rref_gfp(m)
    assert (red.entries, rank, pivots) == _rref_mod_p(rows, ncols, p)
    assert rank_gfp(m) == rank
    basis = kernel_basis_gfp(m)
    free = [j for j in range(m.cols) if j not in pivots]
    assert len(basis) == len(free) == m.cols - rank
    for v, f in zip(basis, free):
        assert [v[j] for j in free] == [int(j == f) for j in free]
        for row in rows:
            assert sum(a * b for a, b in zip(row, v)) % p == 0


@given(gfp_rows(primes=(2,), max_cols=200, max_rows=10))
@settings(max_examples=200, deadline=None)
def test_gf2_rref_matches_list_elimination(shape):
    # widths up to 200 cross the 64- and 128-bit boundaries of the packed rows
    _check_rref_and_kernel(*shape)


@given(gfp_rows(primes=(3, 5, 7, 11, 13, 17, 127, 131, 2**31 - 1), max_cols=200, max_rows=10))
@settings(max_examples=300, deadline=None)
def test_gfp_rref_matches_list_elimination(shape):
    # 4-bit lanes for p <= 7, 8 bits for 11 to 127 (the widest prime there,
    # whose sums reach the top bit of a lane), 16 for 131 and 32 for
    # 2^31 - 1; 7 is the widest prime that reduces from a table of all its
    # multiples and 11 the first that reduces from doublings, so a scalar
    # multiple takes up to 31 of them; widths up to 200 cross the 64-bit
    # words of the packed rows at every lane width
    _check_rref_and_kernel(*shape)


@st.composite
def spanned_rows(draw, primes, max_cols):
    """Up to 30 rows mod p, each a combination of the same at most 4 base
    rows: most rows lie in the span of the rows before them."""
    p = draw(st.sampled_from(primes))
    ncols = draw(st.integers(min_value=0, max_value=max_cols))
    digit = st.integers(min_value=0, max_value=p - 1)
    row = st.lists(digit, min_size=ncols, max_size=ncols)
    base = draw(st.lists(row, max_size=4))
    coeffs = st.lists(digit, min_size=len(base), max_size=len(base))
    rows = [
        [sum(c * b[j] for c, b in zip(cs, base)) % p for j in range(ncols)]
        for cs in draw(st.lists(coeffs, max_size=30))
    ]
    return p, ncols, rows


@given(spanned_rows(primes=(3, 5, 7, 11, 131), max_cols=100))
@settings(max_examples=200, deadline=None)
def test_gfp_rref_of_rows_in_a_small_span_matches_list_elimination(shape):
    # rows in the span are cleared at the pivots they touch, and each new
    # pivot clears its lane from the basis rows that lead above it
    _check_rref_and_kernel(*shape)


def test_a_row_in_the_span_costs_one_lane_add_per_pivot_it_touches(monkeypatch):
    # W_{1,4}(5,5) is 781 x 781 with 5-rank 71 (Hamada), so nearly every row
    # is in the span.  The basis stays reduced, so a row costs one lane add
    # per pivot lane where it is nonzero; an echelon pass followed by
    # back-substitution took 24,325 lane adds here.
    calls = 0
    real = linalg._axpy

    def spy(*args):
        nonlocal calls
        calls += 1
        return real(*args)

    monkeypatch.setattr(linalg, "_axpy", spy)
    assert rref_gfp(GfpMatrix.from_incidence(wilson_matrix(5, 5, 1, 4), 5))[1] == 71
    assert calls <= 12_000


@pytest.mark.parametrize("p", [3, 131])
def test_a_lane_add_that_leaves_a_leading_lane_is_an_invariant_error(monkeypatch, p):
    # lane sums mod p + 1 never clear a leading lane mod p: the forward pass
    # must stop at its first step, not loop or return a wrong rank.  p = 3
    # reduces from tables and 131 from doublings; rank_rational reaches p
    # because its entries are too large for the primes before p to settle a
    # rank-1 matrix
    real = linalg._lane_ops
    monkeypatch.setattr(linalg, "_lane_ops", lambda r, w, n: real(r + (r == p), w, n))
    big = 10**1000
    calls = (
        lambda: rank_gfp(_m(p, [[1, 2, 1], [2, 1, 1]])),
        lambda: rref_gfp(_m(p, [[1, 2, 1], [2, 1, 1]])),
        lambda: rank_rational([[big, big], [big, big]]),
    )
    for call in calls:
        with pytest.raises(InvariantError, match="a lane add left a leading lane nonzero"):
            call()


@pytest.mark.parametrize("p", [7, 13])
def test_a_basis_row_builds_its_multiples_only_once_used(p):
    # the identity needs no reduction step, so no basis row pays for a table
    # or doublings; a repeated row uses the one basis row it repeats
    w = linalg._lane_width(p)
    basis = linalg._lane_basis([1 << w * j for j in range(50)], p, w, 50)
    assert len(basis) == 50 and all(e[2] is None for e in basis.values())
    basis = linalg._lane_basis([2, 2, 2 << w], p, w, 2)
    assert basis[0][2] is not None and basis[1][2] is None


@given(gfp_rows(primes=(2,), max_cols=12, max_rows=5))
@settings(max_examples=200, deadline=None)
def test_all_ones_in_row_space_matches_subset_sums(shape):
    _, _, rows = shape
    m = _m(2, rows)
    ncols = m.cols  # a matrix with no rows has no columns
    sums = {
        tuple(sum(col) % 2 for col in zip(*subset)) if subset else (0,) * ncols
        for size in range(len(rows) + 1)
        for subset in itertools.combinations(rows, size)
    }
    assert _all_ones_in_row_space(m) == ((1,) * ncols in sums)


def test_gf2_rank_of_points_against_k_spaces_is_a_reed_muller_dimension():
    # the 2-rank of points against k-spaces of GF(2)^n is dim RM(n-k, n)
    for n in range(2, 8):
        for k in range(1, n):
            m = GfpMatrix.from_incidence(wilson_matrix(2, n, 1, k), 2)
            want = sum(math.comb(n, i) for i in range(n - k + 1))
            assert rref_gfp(m)[1] == want, (n, k)


def test_hamada_p_rank_of_points_against_hyperplanes():
    # Hamada: over GF(p) the p-rank of points against hyperplanes of GF(p)^n
    # is C(n+p-2, n-1) + 1
    # (7, n) and (11, 3) run on 4- and 8-bit lanes, from tables of multiples
    # and from doublings; (11, 3) is 133x133 and (13, 3) 183x183
    cells = (
        (3, 3, 7), (3, 4, 11), (3, 5, 16), (5, 3, 16), (7, 3, 29), (7, 4, 85),
        (11, 3, 67), (13, 3, 92),
    )
    for p, n, want in cells:
        assert want == math.comb(n + p - 2, n - 1) + 1
        m = GfpMatrix.from_incidence(wilson_matrix(p, n, 1, n - 1), p)
        assert rref_gfp(m)[1] == want, (p, n)


@pytest.mark.parametrize(
    "q, n, t, k, p",
    # the elimination benchmark's GF(p) cells, and one of full rank over GF(13)
    [(2, 6, 2, 3, 2), (2, 7, 1, 3, 2), (2, 5, 1, 2, 2), (2, 5, 1, 3, 2),
     (3, 7, 1, 6, 3), (5, 5, 1, 4, 5), (7, 4, 1, 3, 7), (3, 4, 1, 1, 13)],
)
def test_rank_from_the_forward_pass_is_the_rref_rank(q, n, t, k, p):
    m = GfpMatrix.from_incidence(wilson_matrix(q, n, t, k), p)
    assert rank_gfp(m) == rref_gfp(m)[1]


def test_cross_characteristic_rank_is_the_frumkin_yakir_closed_form():
    # Frumkin and Yakir (Israel J. Math. 71, 1990): for a prime l that does
    # not divide q and t <= min(k, n-k), the rank over GF(l) of W_{t,k}(q)
    # is the sum of [n,i]_q - [n,i-1]_q over the i <= t with l not dividing
    # [k-i, t-i]_q
    def closed_form(q, n, t, k, l):
        gb = gaussian_binomial
        return sum(
            gb(n, i, q) - (gb(n, i - 1, q) if i else 0)
            for i in range(t + 1)
            if gb(k - i, t - i, q) % l
        )

    cells = [
        (q, n, t, k)
        for q in (2, 3, 4, 5)
        for n in range(1, 8)
        for t in range(n + 1)
        for k in range(t, n - t + 1)
        if gaussian_binomial(n, k, q) * gaussian_binomial(k, t, q) <= 5000
    ]
    pairs = deficient = 0
    for q, n, t, k in cells:
        m = wilson_matrix(q, n, t, k)
        for l in (2, 3, 5, 7, 13):
            if q % l:
                want = closed_form(q, n, t, k, l)
                assert rank_gfp(GfpMatrix.from_incidence(m, l)) == want, (q, n, t, k, l)
                pairs, deficient = pairs + 1, deficient + (want < m.rows)
    assert (pairs, deficient) == (640, 24)
    # past the size cut: q2 n6 t2 k3 (9765 nonzeros) has rank 589 of 651
    m = GfpMatrix.from_incidence(wilson_matrix(2, 6, 2, 3), 3)
    assert rank_gfp(m) == closed_form(2, 6, 2, 3, 3) == 589


def test_minimum_weight_of_the_dual_plane_code_is_a_closed_form():
    # at n = 3, t = 1, k = 2 the kernel of W over GF(p) is the dual code of
    # PG(2,q); its minimum weight is 2p for prime q = p, and q + 2 for even q,
    # where the supports are hyperovals (Assmus-Key, Designs and their Codes,
    # ch. 6).  The uniform construction has weight q^2 here.
    for q, want in ((3, 6), (4, 6), (5, 10), (8, 10)):
        f = field(q)
        assert want == (2 * q if q == f.p else q + 2)
        m = wilson_matrix(q, 3, 1, 2)
        g = GfpMatrix.from_incidence(m, f.p)
        rep = min_weight_kernel_gfp(g, cap=want, mode=MODE_SUPPORT)
        assert rep.weight == want and rep.exhaustive, q
        # the witness is a null design in its own right
        cols = m.col_subspaces()
        support = {cols[j]: v for j, v in zip(rep.witness_support, rep.witness_values)}
        d = NullDesign(f, 3, f.p, 1, support)
        assert len(d.support) == want
        assert verify_strength(d, 1).ok and d.uniform_dim() == 2, q


# -- exact rational rank ------------------------------------------------------


def _fraction_rank(entries):
    """Reference rank: naive Gaussian elimination over Fraction."""
    rows = [[Fraction(v) for v in row] for row in entries]
    rank = 0
    col = 0
    ncols = len(rows[0]) if rows else 0
    while rank < len(rows) and col < ncols:
        piv = next((i for i in range(rank, len(rows)) if rows[i][col]), None)
        if piv is None:
            col += 1
            continue
        rows[rank], rows[piv] = rows[piv], rows[rank]
        inv = rows[rank][col]
        rows[rank] = [v / inv for v in rows[rank]]
        for i in range(len(rows)):
            if i != rank and rows[i][col]:
                c = rows[i][col]
                rows[i] = [a - c * b for a, b in zip(rows[i], rows[rank])]
        rank += 1
        col += 1
    return rank


@given(
    st.lists(
        st.lists(st.integers(min_value=-9, max_value=9), min_size=1, max_size=6),
        min_size=1,
        max_size=6,
    ).filter(lambda rows: len({len(r) for r in rows}) == 1)
)
@settings(max_examples=200, deadline=None)
def test_rank_rational_matches_fraction_elimination(rows):
    assert rank_rational(rows) == _fraction_rank(rows)


def test_rank_rational_edge_cases():
    assert rank_rational([]) == 0
    assert rank_rational([[0, 0], [0, 0]]) == 0
    assert rank_rational([[1, 2], [2, 4]]) == 1
    assert rank_rational([[2, 0], [0, 3]]) == 2
    # entries large enough to overflow fixed-width arithmetic
    big = 10**30
    assert rank_rational([[big, 1], [1, big]]) == 2
    assert rank_rational([[big, big], [big, big]]) == 1


@pytest.mark.parametrize("rows", [[[1], [2, 3]], [[1, 2], [3]], [[], [1]]])
def test_rank_rational_rejects_ragged_rows(rows):
    with pytest.raises(ValueError, match="ragged"):
        rank_rational(rows)


@st.composite
def zero_one_rows(draw, max_size=24):
    """0/1 rows, wide or tall, with repeated rows, sums of two rows (entries
    up to 2), zero rows and zero columns."""
    ncols = draw(st.integers(min_value=1, max_value=max_size))
    bit_row = st.lists(st.integers(0, 1), min_size=ncols, max_size=ncols)
    base = draw(st.lists(bit_row, min_size=1, max_size=max_size - 6))
    pick = st.sampled_from(base)
    rows = base + draw(st.lists(pick, max_size=2))
    pairs = draw(st.lists(st.tuples(pick, pick), max_size=2))
    rows += [[a + b for a, b in zip(x, y)] for x, y in pairs]
    rows += [[0] * ncols] * draw(st.integers(min_value=0, max_value=2))
    rows = draw(st.permutations(rows))
    dead = draw(st.sets(st.integers(min_value=0, max_value=ncols - 1)))
    return [[0 if j in dead else v for j, v in enumerate(row)] for row in rows]


@given(zero_one_rows())
@settings(max_examples=200, deadline=None)
def test_rank_rational_matches_fraction_elimination_on_01_matrices(rows):
    assert rank_rational(rows) == _fraction_rank(rows)
    assert rank_rational([list(col) for col in zip(*rows)]) == _fraction_rank(rows)


def test_rank_rational_certificate_edge_cases():
    # P is 0 mod every prime below 128, so the ranks mod those primes are 1
    # and 0, and the Hadamard stop holds off until a larger prime is tried
    P = math.prod(p for p in range(2, 128) if all(p % d for d in range(2, p)))
    assert rank_rational([[P, 0], [0, 1]]) == 2
    assert rank_rational([[P, P], [P, P]]) == 1
    assert rank_rational([[0] * 5] * 3) == 0
    assert rank_rational([[0, 3, -4, 0, 7]]) == 1
    assert rank_rational([[0], [3], [-4]]) == 1
    assert rank_rational([[0, 0, 0]]) == 0
    assert rank_rational([[0], [0]]) == 0
    assert rank_rational([[], []]) == 0


@pytest.mark.parametrize(
    "rows, want",
    [
        ([[200, 0], [0, 1]], 2),
        ([[9, 2], [2, 9]], 2),  # rank 1 mod 7, full mod 5
        ([[255, 255], [255, 255]], 1),
        ([[256, 1], [1, 256]], 2),  # past a byte: the entries are reduced one by one
        ([[105]], 1),  # 0 mod 7, 5 and 3, so it takes p = 127
    ],
)
def test_rank_rational_reduces_byte_entries_at_or_above_p(rows, want):
    assert rank_rational(rows) == want == _fraction_rank(rows)


@st.composite
def byte_range_rows(draw):
    """Entries in [0, 300], mostly below 256: rows of entries up to a drawn
    top, and copies of them scaled by products of 3, 5 and 7, which vanish
    mod those primes."""
    top = draw(st.sampled_from([2, 6, 7, 30, 127, 255, 300]))
    ncols = draw(st.integers(min_value=1, max_value=6))
    row = st.lists(st.integers(0, top), min_size=ncols, max_size=ncols)
    base = draw(st.lists(row, min_size=1, max_size=5))
    scale = st.sampled_from([3, 5, 7, 15, 21, 35, 105])
    scaled = draw(st.lists(st.tuples(st.sampled_from(base), scale), max_size=2))
    rows = base + [[c * v for v in r] for r, c in scaled if c * max(r) <= 300]
    return draw(st.permutations(rows))


@given(byte_range_rows())
@settings(max_examples=200, deadline=None)
def test_rank_rational_matches_fraction_elimination_on_byte_range_entries(rows):
    assert rank_rational(rows) == _fraction_rank(rows)
    assert rank_rational([list(col) for col in zip(*rows)]) == _fraction_rank(rows)


@pytest.mark.parametrize(
    "rows, where",
    [
        ([[0.5, 1]], r"\(0,0\) = 0\.5"),
        ([[Fraction(1, 2), 1]], r"\(0,0\) = Fraction\(1, 2\)"),
        ([["1", 2]], r"\(0,0\) = '1'"),
        ([[1, 2], [3, 2.0]], r"\(1,1\) = 2\.0"),
        ([[300, 1], [-1, None]], r"\(1,1\) = None"),  # past a byte, then not an int
        ([[1], [2], [0.5]], r"\(2,0\) = 0\.5"),  # tall: named as given, not transposed
    ],
)
def test_rank_rational_refuses_a_non_integer_entry_by_its_position(rows, where):
    with pytest.raises(ValueError, match=where + " is not an integer"):
        rank_rational(rows)


def test_rank_primes_try_the_4_bit_lane_primes_first():
    odd = [p for p in range(3, 1 << 11, 2) if all(p % d for d in range(3, p, 2))]
    primes = list(itertools.islice(linalg._rank_primes(), len(odd)))
    # 7, 5, 3, then each other odd prime below 2^11 once, by band, largest first
    low, high = odd[3:30], odd[30:]  # 11..127 and 131..2039
    assert primes == [7, 5, 3, *reversed(low), *reversed(high)]
    assert primes[3:5] == [127, 113] and primes[29:31] == [11, 2039]


def _spy_rank_primes(monkeypatch):
    """The (p, rank mod p) pairs that rank_rational tries, in order."""
    tried = []
    real = linalg._lane_basis

    def spy(rows, p, w, nc):
        basis = real(rows, p, w, nc)
        tried.append((p, len(basis)))
        return basis

    monkeypatch.setattr(linalg, "_lane_basis", spy)
    return tried


def test_full_rank_after_a_deficient_4_bit_lane_prime_builds_no_bound(monkeypatch):
    # W_{1,3}(2,6) is 63x1395, of rank 62 mod 7 and 63 mod 5: full rank ends
    # the loop at p = 5, before the Hadamard bound is built
    tried = _spy_rank_primes(monkeypatch)

    def no_bound(vectors):
        raise AssertionError("the Hadamard bound was built")

    monkeypatch.setattr(linalg, "_norm_products", no_bound)
    assert rank_rational(wilson_matrix(2, 6, 1, 3).dense()) == 63
    assert tried == [(7, 62), (5, 63)]


def test_the_bound_is_checked_once_7_5_and_3_are_tried(monkeypatch):
    # Hadamard puts the 2-minor of [[1, 1], [1, 1]] at most 2 in absolute
    # value, and 7 * 5 * 3 divides it, so it is 0 once 3 is tried
    tried = _spy_rank_primes(monkeypatch)
    assert rank_rational([[1, 1], [1, 1]]) == 1
    assert tried == [(7, 1), (5, 1), (3, 1)]


def test_rational_rank_of_wilson_matrices_is_kantors_closed_form():
    # Kantor (1972): W_{t,k} has full rank [n,t]_q over Q when t <= min(k, n-k)
    def qbinom(n, k, q):
        num = den = 1
        for i in range(k):
            num *= q ** (n - i) - 1
            den *= q ** (i + 1) - 1
        return num // den

    # (q, n, t, k): 651x1395, 121x1210, 127x11811 and 85x357
    for q, n, t, k in ((2, 6, 2, 3), (3, 5, 1, 2), (2, 7, 1, 3), (4, 4, 1, 2)):
        m = wilson_matrix(q, n, t, k)
        assert (m.rows, m.cols) == (qbinom(n, t, q), qbinom(n, k, q))
        assert rank_rational(m.dense()) == qbinom(n, t, q), (q, n, t, k)


# -- minimum-weight search ----------------------------------------------------


def _brute_min_weight(m, cap):
    """Reference search: every nonzero coefficient vector, p^cols of them."""
    best = None
    for vec in itertools.product(range(m.p), repeat=m.cols):
        if not any(vec):
            continue
        if any(
            sum(a * b for a, b in zip(row, vec)) % m.p for row in m.entries
        ):
            continue
        w = sum(1 for v in vec if v)
        support = tuple(j for j, v in enumerate(vec) if v)
        values = tuple(v for v in vec if v)
        key = (w, support, values)
        if best is None or key < best:
            best = key
    if best is None or best[0] > cap:
        return None
    return best


@st.composite
def small_gfp_matrix(draw):
    """Lanes of 1, 4, 8 and 16 bits, with table (p < 8) and doubling multiples;
    at most about 2*10^4 vectors, p^cols, for the brute force."""
    p = draw(st.sampled_from([2, 3, 5, 7, 11, 131]))
    nr = draw(st.integers(min_value=1, max_value=4))
    nc = draw(st.integers(min_value=1, max_value=int(math.log(2e4, p))))
    rows = [
        [draw(st.integers(min_value=0, max_value=p - 1)) for _ in range(nc)]
        for _ in range(nr)
    ]
    return _m(p, rows)


@given(small_gfp_matrix())
@settings(max_examples=120, deadline=None)
def test_both_modes_match_brute_force(m):
    cap = m.cols
    want = _brute_min_weight(m, cap)
    for mode in (MODE_KERNEL, MODE_SUPPORT):
        rep = min_weight_kernel_gfp(m, cap, mode=mode)
        assert rep.exhaustive
        assert rep.mode == mode
        if want is None:
            assert not rep.found
        else:
            assert (rep.weight, rep.witness_support, rep.witness_values) == want
            # the reported witness really is in the kernel
            vec = [0] * m.cols
            for j, v in zip(rep.witness_support, rep.witness_values):
                vec[j] = v
            for row in m.entries:
                assert sum(a * b for a, b in zip(row, vec)) % m.p == 0


def test_mode_aliases_and_validation():
    m = _m(2, [[1, 1]])
    a = min_weight_kernel_gfp(m, 2, mode="kernel")
    b = min_weight_kernel_gfp(m, 2, mode=MODE_KERNEL)
    assert a == b
    c = min_weight_kernel_gfp(m, 2, mode="support")
    assert c.weight == a.weight == 2
    with pytest.raises(ValueError):
        min_weight_kernel_gfp(m, 2, mode="guess")
    with pytest.raises(ValueError):
        min_weight_kernel_gfp(m, 0)


def test_cap_semantics():
    # kernel spanned by the all-ones vector of weight 3
    m = _m(2, [[1, 1, 0], [0, 1, 1]])
    hit = min_weight_kernel_gfp(m, 3)
    assert hit.found and hit.weight == 3 and hit.witness_support == (0, 1, 2)
    miss = min_weight_kernel_gfp(m, 2)
    assert not miss.found and miss.exhaustive and miss.cap == 2
    assert miss.weight_text() == "none found"
    miss2 = min_weight_kernel_gfp(m, 2, mode=MODE_SUPPORT)
    assert not miss2.found and miss2.exhaustive


def test_trivial_kernel_reports_none():
    m = _m(3, [[1, 0], [0, 1]])
    for mode in (MODE_KERNEL, MODE_SUPPORT):
        rep = min_weight_kernel_gfp(m, 2, mode=mode)
        assert not rep.found and rep.exhaustive


def test_budget_refusal():
    # kernel dimension 25 makes 2^25 vectors; budget says no, support mode copes
    m = _m(2, [[0] * 25])
    with pytest.raises(BudgetExceededError):
        min_weight_kernel_gfp(m, 1, mode=MODE_KERNEL, budget=2**20)
    rep = min_weight_kernel_gfp(m, 1, mode=MODE_SUPPORT)
    assert rep.weight == 1 and rep.witness_support == (0,)
    assert default_budget(2) == 2**22
    assert default_budget(3) < default_budget(2)


def test_budget_refusal_carries_its_stage_and_nodes():
    # q2 n5 t2 k3 has minimum weight 8 and even stages: 1000 nodes end in 4
    m = GfpMatrix.from_incidence(wilson_matrix(2, 5, 2, 3), 2)
    with pytest.raises(BudgetExceededError) as err:
        min_weight_kernel_gfp(m, 8, mode=MODE_SUPPORT, budget=1000)
    e = err.value
    assert (e.stage, e.nodes) == (4, 1001)
    assert str(e) == "support search reached 1001 nodes at stage w=4, budget is 1000"
    with pytest.raises(BudgetExceededError) as err:
        min_support_kernel_rational(_m(2, [[1] * 4]), 3, budget=1)
    assert (err.value.stage, err.value.nodes) == (1, 2)
    with pytest.raises(BudgetExceededError) as err:
        min_weight_kernel_gfp(_m(2, [[0] * 25]), 1, mode=MODE_KERNEL, budget=2**20)
    assert (err.value.stage, err.value.nodes) == (None, None)


# the Wilson matrices of the grid's lattices, q in (2, 3, 4) and n <= 4, and
# q = 2 at n = 5; q3 n4 t2 k3 (18) is the slowest, and q4 n4 t2 k3 (24) is
# past the default budget for the full search
ROOTED_CELLS = [
    (q, n, t, k)
    for q in (2, 3, 4)
    for n in range(2, 6 if q == 2 else 5)
    for k in range(1, n)
    for t in range(k)
    if (q, n, t, k) != (4, 4, 2, 3)
]


@pytest.mark.parametrize("q,n,t,k", ROOTED_CELLS)
def test_rooted_support_search_matches_the_full_one_over_gf(q, n, t, k):
    # W_{t,k} is column-transitive, so rooting every stage at column 0 finds
    # the same lex-least set, and so the same witness
    m = GfpMatrix.from_incidence(wilson_matrix(q, n, t, k), field(q).p)
    full = min_weight_kernel_gfp(m, m.cols, mode=MODE_SUPPORT)
    assert full.found
    rooted = min_weight_kernel_gfp(m, m.cols, mode=MODE_SUPPORT, transitive=True)
    assert rooted == full


@pytest.mark.parametrize(
    "q,n,t,k",
    [(q, n, 0, k) for q in (2, 3, 4) for n in range(1, 5) for k in range(1, n + 1)]
    + [(2, 3, 1, 2), (2, 4, 1, 2), (2, 5, 1, 2), (2, 4, 2, 3), (3, 3, 1, 2)],
)
def test_rooted_support_search_matches_the_full_one_over_q(q, n, t, k):
    m = GfpMatrix.from_incidence(wilson_matrix(q, n, t, k), 2)
    full = min_support_kernel_rational(m, m.cols)
    assert min_support_kernel_rational(m, m.cols, transitive=True) == full


def test_rooted_search_is_only_sound_on_transitive_columns():
    # column 3 of W_{0,1} made zero: the full search finds it alone, and a
    # search rooted at column 0 misses it, so the flag is a promise
    m = GfpMatrix.from_incidence(wilson_matrix(2, 3, 0, 1), 2)
    bad = _m(2, [[1, 1, 1, 0, 1, 1, 1]])
    for search in (
        functools.partial(min_weight_kernel_gfp, mode=MODE_SUPPORT),
        min_support_kernel_rational,
    ):
        assert search(m, 3, transitive=True) == search(m, 3)
        assert search(bad, 3).witness_support == (3,)
        assert search(bad, 3, transitive=True).witness_support == (0, 1)
    # kernel mode walks the whole kernel, with no root to take
    kernel = min_weight_kernel_gfp(bad, 3, mode=MODE_KERNEL, transitive=True)
    assert kernel.witness_support == (3,)


def test_kernel_mode_refuses_a_wide_matrix_before_it_eliminates(monkeypatch):
    # the kernel has dimension at least cols - rows, so a wide matrix is
    # refused on its shape, with the count it would need at least
    def spy(m):
        raise AssertionError("rref_gfp ran before the refusal")

    monkeypatch.setattr(linalg, "rref_gfp", spy)
    for p, cols, budget in ((2, 26, 2**20), (3, 30, 3**29 - 1), (131, 20_000, 10**9)):
        m = _m(p, [[1] * cols])
        with pytest.raises(
            BudgetExceededError,
            match=rf"needs at least {p}\^{cols - 1} vectors, budget is {budget}$",
        ):
            min_weight_kernel_gfp(m, 1, mode=MODE_KERNEL, budget=budget)
    # a square matrix passes the shape test and is refused on its kernel
    monkeypatch.undo()
    with pytest.raises(BudgetExceededError, match=r"needs 3\^3 vectors, budget is 26$"):
        min_weight_kernel_gfp(_m(3, [[0] * 3] * 3), 1, mode=MODE_KERNEL, budget=26)


def test_tie_break_is_lex_least_support_then_values():
    # columns 0,1 equal and columns 2,3 equal: two weight-2 kernel vectors
    m = _m(3, [[1, 1, 2, 2]])
    rep = min_weight_kernel_gfp(m, 4)
    assert rep.weight == 2
    assert rep.witness_support == (0, 1)
    assert rep.witness_values == (1, 2)  # least coefficient tuple with x0=1
    rep2 = min_weight_kernel_gfp(m, 4, mode=MODE_SUPPORT)
    assert (rep2.witness_support, rep2.witness_values) == ((0, 1), (1, 2))


# -- support search internals ----------------------------------------------------


def _mask_matrix(masks, rows):
    return _m(2, [[(mk >> i) & 1 for mk in masks] for i in range(rows)])


def _brute_min_dependent_gf2(masks, cap):
    """Reference: lex-first column subset of least size whose masks XOR to 0."""
    for w in range(1, cap + 1):
        for combo in itertools.combinations(range(len(masks)), w):
            acc = 0
            for idx in combo:
                acc ^= masks[idx]
            if not acc:
                return combo
    return None


def test_support_mode_matches_brute_force_on_random_masks():
    rng = random.Random(40814)
    rows = 20
    for trial in range(30):
        masks = [rng.getrandbits(rows) | 1 for _ in range(24)]
        want = _brute_min_dependent_gf2(masks, 6)
        rep = min_weight_kernel_gfp(_mask_matrix(masks, rows), 6, mode=MODE_SUPPORT)
        assert rep.witness_support == want, (trial, rep.witness_support, want)
        assert rep.weight == (None if want is None else len(want))


def test_support_mode_matches_kernel_mode_on_wilson():
    m = GfpMatrix.from_incidence(wilson_matrix(2, 4, 1, 2), 2)
    rep = min_weight_kernel_gfp(m, 8, mode=MODE_SUPPORT)
    krep = min_weight_kernel_gfp(m, 8, mode=MODE_KERNEL, budget=2**24)
    assert rep.weight == krep.weight == 4
    assert rep.witness_support == krep.witness_support
    assert rep.witness_values == krep.witness_values


def test_support_search_refuses_past_its_node_budget():
    m = GfpMatrix.from_incidence(wilson_matrix(2, 5, 2, 3), 2)
    with pytest.raises(BudgetExceededError, match=r"stage w=\d+, budget is 1000"):
        min_weight_kernel_gfp(m, 8, mode=MODE_SUPPORT, budget=1000)
    rep = min_weight_kernel_gfp(m, 8, mode=MODE_SUPPORT)
    assert rep.weight == 8
    assert rep.witness_support == (0, 1, 4, 5, 16, 17, 20, 21)


def test_support_mode_reaches_weight_eight_at_n6():
    # W_{2,3} over GF(2)^6 is 651x1395; its minimum weight is 2^(t+1) = 8
    m = GfpMatrix.from_incidence(wilson_matrix(2, 6, 2, 3), 2)
    rep = min_weight_kernel_gfp(m, 8, mode=MODE_SUPPORT)
    assert rep.weight == 8 and rep.exhaustive
    assert rep.witness_support == (0, 1, 8, 9, 64, 65, 72, 73)


def test_all_ones_in_row_space_detects_even_weight_kernels():
    # row space contains the all-ones row: every kernel word has even weight
    m = _m(2, [[1, 1, 1, 1]])
    assert _all_ones_in_row_space(m)
    m2 = _m(2, [[1, 1, 0, 0], [0, 0, 1, 1]])
    assert _all_ones_in_row_space(m2)
    m3 = _m(2, [[1, 0, 0, 0]])
    assert not _all_ones_in_row_space(m3)
    # consistency: when the certificate holds, no odd-weight kernel word exists
    for mat in (m, m2):
        for vec in itertools.product(range(2), repeat=mat.cols):
            if any(vec) and all(
                sum(a * b for a, b in zip(row, vec)) % 2 == 0
                for row in mat.entries
            ):
                assert sum(vec) % 2 == 0


def _parity_cells():
    """Wilson cells of GF(q)^n, q^n <= 16, each with the primes p in {2, 3,
    char q} whose p^(kernel dim) kernel mode walks in at most 2^12 steps."""
    cells = []
    for q, n in ((2, 1), (2, 2), (2, 3), (2, 4), (3, 1), (3, 2), (4, 1), (4, 2)):
        for t in range(n + 1):
            for k in range(t, n + 1):
                m = wilson_matrix(q, n, t, k)
                for p in sorted({2, 3, field(q).p}):
                    g = GfpMatrix.from_incidence(m, p)
                    if p ** (g.cols - rref_gfp(g)[1]) <= 2**12:
                        cells.append((m, g))
    return cells


def test_support_and_kernel_modes_agree_on_small_wilson_cells():
    cells = _parity_cells()
    assert len(cells) == 96
    found = 0
    for m, g in cells:
        cap = min(g.cols, 8)
        modes = (MODE_KERNEL, MODE_SUPPORT)
        reps = [min_weight_kernel_gfp(g, cap, mode=mode) for mode in modes]
        got = {(r.weight, r.witness_support, r.witness_values) for r in reps}
        assert len(got) == 1, (m.q, m.n, m.t, m.k, g.p, got)
        found += reps[0].found
    assert found == 14


def test_rational_search_matches_brute_force_on_small_wilson_cells():
    # the brute force walks every column subset: cells of at most 7 columns
    seen = 0
    for m, g in _parity_cells():
        if g.p != 2 or m.cols > 7:
            continue
        rep = min_support_kernel_rational(g, m.cols)
        want = _brute_min_support_rational(m.dense(), m.cols)
        assert (rep.weight, rep.witness_support) == (want or (None, None))
        seen += 1
    assert seen == 43


def test_the_searches_never_decode_entries(monkeypatch):
    # Wilson cells with kernels over GF(2) and GF(3), and a hand-edited file
    # with an empty row and an empty column, whose minimum weight is 1
    hand = read_matrix("2 3 1 2 4 5\n0 0\n0 3\n0 4\n1 4\n3 0\n3 3\n3 4\n")
    cells = [wilson_matrix(2, 3, 1, 2), wilson_matrix(3, 3, 1, 2), hand]
    mats = {p: [GfpMatrix.from_incidence(m, p) for m in cells] for p in (2, 3)}

    def decode(self):
        raise AssertionError("a search decoded entries")

    monkeypatch.setattr(GfpMatrix, "entries", property(decode))
    weights = []
    for p, gs in mats.items():
        for g in gs:
            for mode in (MODE_KERNEL, MODE_SUPPORT):
                weights.append(min_weight_kernel_gfp(g, g.cols, mode=mode).weight)
    for g in mats[2]:
        weights.append(min_support_kernel_rational(g, g.cols).weight)
    assert weights == [4, 4, 13, 13, 1, 1, 7, 7, 6, 6, 1, 1, None, None, 1]


# -- rational minimum support ---------------------------------------------------


def test_rational_identity_has_no_dependence():
    ident = GfpMatrix(2, [[1 if i == j else 0 for j in range(4)] for i in range(4)])
    rep = min_support_kernel_rational(ident, 4)
    assert not rep.found and rep.exhaustive


def test_rational_gf2_prefilter_is_not_trusted():
    # columns 0,1,2 are dependent mod 2 but independent over Q; the true
    # minimum needs all four columns: c0 + c1 - c2 - 2*c3 = 0
    entries = GfpMatrix(2, [
        [1, 1, 0, 1],
        [1, 0, 1, 0],
        [0, 1, 1, 0],
    ])
    rep = min_support_kernel_rational(entries, 4)
    assert rep.found
    assert rep.weight == 4
    assert rep.witness_support == (0, 1, 2, 3)
    assert rep.witness_values == (1, 1, -1, -2)


def test_rational_mod_7_leaf_test_is_not_trusted(monkeypatch):
    # these six 0/1 columns have determinant 7: dependent mod 7, the leaf's
    # first test, but independent over Q, so the exact rank test must say no
    rows = ["010010", "001110", "010100", "011011", "100111", "111000"]
    rows = [[int(c) for c in r] for r in rows]
    widths, real = [], linalg._rank_rational

    def spy(sub, rank, prod):
        widths.append(len(sub[0]))
        return real(sub, rank, prod)

    monkeypatch.setattr(linalg, "_rank_rational", spy)
    rep = min_support_kernel_rational(GfpMatrix(2, rows), 6)
    assert rep.weight_text() == "none found" and rep.exhaustive
    assert widths == [6]  # only the full set is dependent mod 7
    # a seventh column equal to column 0 is the least dependent set with it
    rep = min_support_kernel_rational(GfpMatrix(2, [r + r[:1] for r in rows]), 7)
    assert rep.weight == 2
    assert rep.witness_support == (0, 6) and rep.witness_values == (1, -1)


def test_a_rational_leaf_is_not_ranked_mod_7_twice(monkeypatch):
    # W_{1,2}(2,4)'s least rational support has 6 columns; each leaf that is
    # dependent mod 7 brings that rank to the exact test, which goes on at 5
    # and stops by the bound once 3 is tried
    tried = _spy_rank_primes(monkeypatch)
    exact, real = [], linalg._rank_rational

    def spy(sub, rank, prod):
        tried.clear()
        got = real(sub, rank, prod)
        exact.append(tuple(tried))
        return got

    monkeypatch.setattr(linalg, "_rank_rational", spy)
    m = GfpMatrix.from_incidence(wilson_matrix(2, 4, 1, 2), 2)
    rep = min_support_kernel_rational(m, 6, transitive=True)
    assert rep.weight == 6
    assert exact and all(ps == ((5, 5), (3, 5)) for ps in exact)
    # the matrix alone still starts at 7
    tried.clear()
    assert rank_rational(m.entries) == m.rows
    assert tried[0][0] == 7


@pytest.mark.parametrize("n", [4, 5])
def test_a_rational_leaf_carries_its_own_rank_mod_7(monkeypatch, n):
    # the exact test takes the leaf's rank mod 7 on trust to start its prime
    # loop, so each leaf it gets must carry the rank of exactly its rows; the
    # search on W_{1,2}(2,5) is refused, after about 200 such leaves
    carried, real = [], linalg._rank_rational

    def spy(sub, rank, prod):
        carried.append((rank, rank_gfp(GfpMatrix(7, [list(r) for r in sub]))))
        return real(sub, rank, prod)

    monkeypatch.setattr(linalg, "_rank_rational", spy)
    m = GfpMatrix.from_incidence(wilson_matrix(2, n, 1, 2), 2)
    try:
        min_support_kernel_rational(m, m.cols, budget=2**16, transitive=True)
    except BudgetExceededError:
        assert n == 5
    assert carried and all(got == want for got, want in carried)


def test_a_refused_rational_search_makes_no_exact_rank_test(monkeypatch):
    # W_{1,4} over GF(2)^5 has many leaves dependent mod 2 but none mod 7 up
    # to 2^14 nodes, so a refusal there costs no rank_rational call
    calls = []
    monkeypatch.setattr(linalg, "_rank_rational", lambda *args: calls.append(args))
    m = GfpMatrix.from_incidence(wilson_matrix(2, 5, 1, 4), 2)
    with pytest.raises(BudgetExceededError):
        min_support_kernel_rational(m, m.cols, budget=2**14, transitive=True)
    assert calls == []


def test_a_rational_search_builds_its_lane_ops_once():
    # every leaf is ranked mod 7 on lanes of the same width and count, so the
    # refusal of W_{1,4}(2,5) at 2^16 nodes, with thousands of leaves, builds
    # the lane ops of fields._lane_ops once and reads the rest from its cache
    m = GfpMatrix.from_incidence(wilson_matrix(2, 5, 1, 4), 2)
    fields._lane_ops.cache_clear()
    with pytest.raises(BudgetExceededError):
        min_support_kernel_rational(m, m.cols, budget=2**16, transitive=True)
    info = fields._lane_ops.cache_info()
    assert info.misses <= 2 and info.hits > 1000


def test_rational_zero_and_duplicate_columns():
    rep = min_support_kernel_rational(GfpMatrix(2, [[0, 1], [0, 1]]), 2)
    assert rep.weight == 1 and rep.witness_support == (0,)
    assert rep.witness_values == (1,)
    rep2 = min_support_kernel_rational(GfpMatrix(2, [[1, 1], [1, 1]]), 2)
    assert rep2.weight == 2 and rep2.witness_values == (1, -1)


def test_rational_witness_is_primitive_with_positive_lead():
    entries = GfpMatrix(2, [[1, 1, 1, 1], [1, 1, 0, 0]])
    rep = min_support_kernel_rational(entries, 4)
    assert rep.found and rep.weight == 2
    assert rep.witness_support == (0, 1)
    assert rep.witness_values == (1, -1)


def test_rational_rejects_non_01_matrices():
    # a 0/1 matrix is one over GF(2): other entries are refused there, and a
    # matrix over another field is refused by the search
    with pytest.raises(ValueError, match=re.escape("entry 2 at (0, 1) is not in")):
        min_support_kernel_rational(GfpMatrix(2, [[0, 2]]), 2)
    with pytest.raises(ValueError, match=re.escape("entry -1 at (0, 0)")):
        min_support_kernel_rational(GfpMatrix(2, [[-1, 0]]), 2)
    with pytest.raises(ValueError, match="over GF\\(2\\), got one over GF\\(3\\)"):
        min_support_kernel_rational(GfpMatrix(3, [[0, 2]]), 2)
    with pytest.raises(ValueError, match="cap must be >= 1"):
        min_support_kernel_rational(GfpMatrix(2, [[1, 0]]), 0)


def test_rational_cap_limits_the_scan():
    entries = GfpMatrix(2, [[1, 1, 1], [1, 1, 0]])  # only dependence is beyond cap
    rep = min_support_kernel_rational(entries, 1)
    assert not rep.found and rep.exhaustive and rep.cap == 1


def test_rational_search_defaults_to_the_gf2_budget(monkeypatch):
    import qnull.linalg

    monkeypatch.setattr(qnull.linalg, "default_budget", lambda p: 1)
    # stage 1 visits one node per column, so the second is past a budget of 1
    with pytest.raises(BudgetExceededError, match="budget is 1$"):
        min_support_kernel_rational(GfpMatrix(2, [[1, 1]]), 2)


def test_rational_min_support_eight_at_q3_n4():
    # W_{1,2} at q=3 is 13x13 and of full rank for n=3; at n=4 (40x130) the
    # kernel is nonzero and the minimum support is (1+1)(1+3) = 8
    m = GfpMatrix.from_incidence(wilson_matrix(3, 4, 1, 2), 2)
    rep = min_support_kernel_rational(m, 8)
    assert rep.weight == 8
    assert rep.witness_support == (0, 1, 27, 28, 68, 71, 77, 80)
    assert rep.witness_values == (1, -1, -1, 1, -1, 1, 1, -1)


def _brute_min_support_rational(entries, cap):
    ncols = len(entries[0])
    for w in range(1, min(cap, ncols) + 1):
        for cols in itertools.combinations(range(ncols), w):
            sub = [[Fraction(row[j]) for j in cols] for row in entries]
            if _fraction_rank(sub) < w:
                return w, cols
    return None


@given(
    st.lists(
        st.lists(st.integers(min_value=0, max_value=1), min_size=3, max_size=5),
        min_size=2,
        max_size=4,
    ).filter(lambda rows: len({len(r) for r in rows}) == 1)
)
@settings(max_examples=100, deadline=None)
def test_rational_search_matches_brute_force(rows):
    cap = len(rows[0])
    want = _brute_min_support_rational(rows, cap)
    rep = min_support_kernel_rational(GfpMatrix(2, rows), cap)
    if want is None:
        assert not rep.found
    else:
        assert (rep.weight, rep.witness_support) == want
        # witness annihilates every row exactly
        for row in rows:
            assert (
                sum(row[j] * v for j, v in zip(rep.witness_support, rep.witness_values))
                == 0
            )
