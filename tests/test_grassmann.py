import itertools
import math
import os
import random
import resource
import subprocess
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qnull import fields, grassmann
from qnull.fields import Field, field
from qnull.grassmann import (
    Subspace,
    _lanes,
    canonicalize,
    contains,
    coordinate_span,
    enumerate_subspaces,
    from_index,
    gaussian_binomial,
    index_of,
    join,
    random_subspace_of,
    subspace_from_text,
    subspace_to_text,
    subspaces_of,
)
from qnull.incidence import wilson_matrix


def spans_by_closure(q, n, k):
    """Independent oracle: count k-dim subspaces as distinct closed vector sets.

    Builds every subspace as the literal set of q^k vectors by closing random
    generator tuples under the span, without touching RREF or the counting
    formula.
    """
    f = field(q)
    vectors = list(itertools.product(range(q), repeat=n))

    def span(gens):
        out = {(0,) * n}
        for g in gens:
            for c in range(1, q):
                scaled = tuple(f.mul(c, v) for v in g)
                out |= {
                    tuple(f.add(a, b) for a, b in zip(scaled, w)) for w in out
                }
        return frozenset(out)

    seen = set()
    for gens in itertools.combinations(vectors[1:], k):
        s = span(gens)
        if len(s) == q**k:
            seen.add(s)
    return len(seen)


@pytest.mark.parametrize(
    "q,n,k",
    [(2, 3, 1), (2, 3, 2), (2, 4, 2), (3, 3, 1), (3, 3, 2)],
)
def test_enumeration_count_against_closure_oracle(q, n, k):
    got = sum(1 for _ in enumerate_subspaces(field(q), n, k))
    assert got == spans_by_closure(q, n, k)
    assert got == gaussian_binomial(n, k, q)


def test_gaussian_binomial_values():
    assert gaussian_binomial(4, 2, 2) == 35
    assert gaussian_binomial(5, 2, 2) == 155
    assert gaussian_binomial(3, 1, 3) == 13
    assert gaussian_binomial(4, 2, 3) == 130
    assert gaussian_binomial(5, 2, 4) == 5797
    assert gaussian_binomial(3, 5, 2) == 0
    assert gaussian_binomial(3, -1, 2) == 0
    # symmetry
    for n in range(6):
        for k in range(n + 1):
            assert gaussian_binomial(n, k, 3) == gaussian_binomial(n, n - k, 3)


def test_enumeration_order_is_pinned():
    f = field(2)
    got = [x.rows for x in enumerate_subspaces(f, 2, 1)]
    assert got == [((1, 0),), ((1, 1),), ((0, 1),)]
    assert index_of(canonicalize(f, 2, [(0, 1)])) == 2


@pytest.mark.parametrize(
    "q,n,k",
    [
        (q, n, k)
        for q in (2, 3, 4, 5)
        for n in range(7 if q == 2 else 6)
        for k in range(n + 1)
    ],
)
def test_index_round_trip(q, n, k):
    f = field(q)
    for i, x in enumerate(enumerate_subspaces(f, n, k)):
        assert index_of(x) == i
        assert from_index(f, n, k, i) == x
    total = gaussian_binomial(n, k, q)
    with pytest.raises(ValueError):
        from_index(f, n, k, total)
    with pytest.raises(ValueError):
        from_index(f, n, k, -1)


def large_round_trips():
    """from_index and index_of at the ends and the middle of layers whose
    pivot sets (C(200, 100), C(256, 5)) could never be listed."""
    f = field(2)
    for n, k in ((200, 100), (256, 5), (120, 4)):
        total = gaussian_binomial(n, k, 2)
        for o in (0, 1, total // 2, total - 1):
            x = from_index(f, n, k, o)
            assert index_of(x) == o, (n, k, o)
            yield n, k, o, x


def test_index_round_trips_at_large_n_and_refuses_huge_n():
    f = field(2)
    got = {(n, k, o): x for n, k, o, x in large_round_trips()}
    # ordinal 1 lies in the first pivot set: the coordinate span with a 1 at
    # its last free entry; the last ordinal is the span of the last k units,
    # which has no free entry
    x = got[200, 100, 1]
    assert x.pivots == tuple(range(100))
    assert x.rows[:99] == coordinate_span(f, 200, 100).rows[:99]
    assert x.rows[99] == (0,) * 99 + (1,) + (0,) * 99 + (1,)
    assert got[200, 100, 0] == coordinate_span(f, 200, 100)
    last = got[256, 5, gaussian_binomial(256, 5, 2) - 1]
    assert last.pivots == tuple(range(251, 256))
    assert last == canonicalize(f, 256, [[int(j == i) for j in range(256)]
                                         for i in range(251, 256)])
    with pytest.raises(ValueError, match="out of range"):
        from_index(f, 200, 100, gaussian_binomial(200, 100, 2))
    assert Field.MAX_DIMENSION == 256
    for make in (
        lambda: from_index(f, 10**6, 0, 0),
        lambda: coordinate_span(f, 257, 1),
        lambda: list(enumerate_subspaces(f, 10**6, 10**6)),
    ):
        with pytest.raises(ValueError, match="above the limit 256"):
            make()


def test_no_layer_is_laid_out_past_the_stream_cap(monkeypatch):
    # the ordinals come from block sizes, and a layer's pivot sets are laid
    # out at once only when every vector its lists could hold fits in
    # _STREAM_CAP; a larger layer takes them from itertools.combinations
    from qnull import designs, incidence

    calls = []
    real = grassmann._pivot_layout

    def spy(k, d):
        calls.append((k, d))
        return real(k, d)

    def small(q):
        cap = grassmann._STREAM_CAP
        return all(math.comb(k, d) * d * q ** (k - d) <= cap for k, d in calls)

    monkeypatch.setattr(grassmann, "_pivot_layout", spy)
    monkeypatch.setattr(incidence, "_pivot_layout", spy)
    for n, k, o, x in large_round_trips():
        assert not calls, (n, k, o)
    f = field(2)
    first = next(enumerate_subspaces(f, 40, 20))
    assert first == coordinate_span(f, 40, 20) and not calls
    design = designs.read_design(
        designs.write_design(designs.construct_lb_design(2, 256, 2))
    )
    assert designs.verify_strength(design, 2).ok
    assert calls and small(2)
    calls.clear()
    design = designs.construct_lb_design(3, 4, 1)
    assert designs.verify_strength_direct(design, 1).ok
    assert wilson_matrix(3, 4, 1, 2).cols == gaussian_binomial(4, 2, 3)
    # a small layer of GF(3)^4 is laid out like any subspace's
    assert (4, 1) in calls and small(3)


# (n, d): the first d-subspace of GF(2)^n, and the seconds it took, under a
# 600 MB address-space limit
FIRST_OF_A_DEEP_LAYER = """
import sys, time
from qnull.fields import field
from qnull.grassmann import coordinate_span, subspaces_of
n, d = map(int, sys.argv[1:])
start = time.perf_counter()
first = next(subspaces_of(coordinate_span(field(2), n, n), d))
print(time.perf_counter() - start, first == coordinate_span(field(2), n, d))
"""


def test_a_local_layer_past_the_stream_cap_is_walked_one_pivot_set_at_a_time(
    monkeypatch,
):
    # the C(30, 15) and C(18, 9) pivot sets, and the 2^22 choices of a row of
    # the first pivot set at (44, 22), are never listed at once: the first
    # subspace comes at once, and the walk keeps the order of the laid-out
    # layer
    def limit_memory():
        resource.setrlimit(resource.RLIMIT_AS, (600 << 20, 600 << 20))

    src = os.path.dirname(os.path.dirname(grassmann.__file__))
    for n, d in ((30, 15), (18, 9), (44, 22)):
        proc = subprocess.run(
            [sys.executable, "-c", FIRST_OF_A_DEEP_LAYER, str(n), str(d)],
            capture_output=True,
            env={**os.environ, "PYTHONPATH": src},
            preexec_fn=limit_memory,
            timeout=60,
        )
        assert (proc.returncode, proc.stderr) == (0, b""), (n, d, proc.stderr)
        seconds, same = proc.stdout.split()
        assert float(seconds) < 2 and same == b"True", (n, d, proc.stdout)
    rng = random.Random(5)
    xs = [random_subspace(field(q), 6, 4, rng) for q in (2, 3, 4)]
    want = [list(subspaces_of(x, d)) for x in xs for d in range(5)]
    for cap in (0, 1, 2, 5):
        monkeypatch.setattr(grassmann, "_STREAM_CAP", cap)
        assert [list(subspaces_of(x, d)) for x in xs for d in range(5)] == want


@st.composite
def random_span_input(draw):
    q = draw(st.sampled_from([2, 3, 4, 5]))
    n = draw(st.integers(min_value=1, max_value=4))
    m = draw(st.integers(min_value=1, max_value=4))
    rows = [
        [draw(st.integers(min_value=0, max_value=q - 1)) for _ in range(n)]
        for _ in range(m)
    ]
    return q, n, rows


@given(random_span_input(), st.randoms(use_true_random=False))
@settings(max_examples=150, deadline=None)
def test_canonicalize_is_span_invariant(inp, rng):
    """Row shuffles, scalings, and row additions never change the canonical form."""
    q, n, rows = inp
    f = field(q)
    base = canonicalize(f, n, rows)
    mixed = [list(r) for r in rows]
    rng.shuffle(mixed)
    for _ in range(3):
        i = rng.randrange(len(mixed))
        c = rng.randrange(1, q)
        mixed[i] = [f.mul(c, v) for v in mixed[i]]
        j = rng.randrange(len(mixed))
        if j != i:
            mixed[j] = [f.add(a, f.mul(c, b)) for a, b in zip(mixed[j], mixed[i])]
    assert canonicalize(f, n, mixed) == base


def test_canonicalize_validates_input():
    f = field(3)
    with pytest.raises(ValueError):
        canonicalize(f, 3, [(1, 0)])
    with pytest.raises(ValueError):
        canonicalize(f, 2, [(1, 3)])


def test_zero_space():
    f = field(3)
    z = canonicalize(f, 3, [])
    assert z.k == 0 and z.rows == ()
    assert subspace_to_text(z) == ""
    assert subspace_from_text(f, 3, "") == z
    zs = list(enumerate_subspaces(f, 3, 0))
    assert zs == [z]
    for x in enumerate_subspaces(f, 3, 2):
        assert contains(x, z)


def test_contains_is_a_partial_order():
    f = field(2)
    all_by_dim = {
        k: list(enumerate_subspaces(f, 3, k)) for k in range(4)
    }
    whole = all_by_dim[3][0]
    for k, xs in all_by_dim.items():
        for x in xs:
            assert contains(x, x)
            assert contains(whole, x)
    # transitivity on a sampled chain
    for x in all_by_dim[2]:
        for y in all_by_dim[1]:
            if contains(x, y):
                assert contains(whole, y)
    with pytest.raises(ValueError):
        contains(all_by_dim[1][0], canonicalize(field(3), 3, [(1, 0, 0)]))


def test_join():
    f = field(2)
    a = canonicalize(f, 3, [(1, 0, 0)])
    b = canonicalize(f, 3, [(0, 1, 0)])
    j = join(a, b)
    assert j.k == 2 and contains(j, a) and contains(j, b)
    assert join(a, a) == a


@pytest.mark.parametrize("q,n,k", [(2, 4, 2), (3, 4, 3), (4, 4, 2)])
def test_subspaces_of_matches_global_filter(q, n, k):
    f = field(q)
    rng = random.Random(1105)
    xs = list(enumerate_subspaces(f, n, k))
    for x in rng.sample(xs, min(5, len(xs))):
        for d in range(k + 1):
            local = list(subspaces_of(x, d))
            global_filter = [
                y for y in enumerate_subspaces(f, n, d) if contains(x, y)
            ]
            assert sorted(local, key=index_of) == global_filter
            assert len(local) == gaussian_binomial(k, d, q)
            assert len(set(local)) == len(local)


@pytest.mark.parametrize("q,n,k", [(2, 4, 3), (3, 3, 2), (4, 3, 2)])
def test_subspaces_of_yields_canonical_forms(q, n, k):
    """The local-times-basis product must already be in ambient RREF."""
    f = field(q)
    for x in enumerate_subspaces(f, n, k):
        for d in range(k + 1):
            for y in subspaces_of(x, d):
                assert canonicalize(f, n, y.rows) == y


# -- reference enumerations: the span-based construction ------------------------
#
# The packed layer used to be built by OR-ing each free entry's code into the
# unit rows, and the d-subspaces of x by spanning all q^k vectors of x and
# reading each local RREF row out of that span by its base-q index.  They are
# kept here, unchanged, to pin the exact output order of the current code.

ORDER_FIELDS = [2, 3, 4, 5, 7, 8, 9]


def layer_by_or(lanes, k):
    """Per pivot set of GF(q)^n's k-layer: the pivots and the packed bases."""
    n, enc, bw = lanes.n, lanes.enc, lanes.bw
    for pivots in itertools.combinations(range(n), k):
        rest = [c for c in range(n) if c not in pivots]
        free = [(r, c) for r, p in enumerate(pivots) for c in rest if c > p]
        choices = [[1 << (p * bw)] for p in pivots]
        for r, c in free:
            choices[r] = [v | (e << (c * bw)) for v in choices[r] for e in enc]
        yield pivots, itertools.product(*choices)


def subspaces_by_span(x, d):
    """(vecs, pivots) of each d-subspace of x, read out of x's full span."""
    lanes, q, k = x._lanes, x.field.q, x.k
    span = [0]
    for v in x.vecs:
        span = [lanes.add(a, m) for a in span for m in lanes.multiples(v)]
    local = _lanes(q, k)
    out = []
    for local_pivots, bases in layer_by_or(local, d):
        pivots = tuple(x.pivots[j] for j in local_pivots)
        for rows in bases:
            idx = [
                sum(local.code(v, j) * q ** (k - 1 - j) for j in range(k))
                for v in rows
            ]
            out.append((tuple(span[i] for i in idx), pivots))
    return out


def random_subspace(f, n, k, rng):
    while True:
        x = canonicalize(
            f, n, [[rng.randrange(f.q) for _ in range(n)] for _ in range(k)]
        )
        if x.k == k:
            return x


@pytest.mark.parametrize("q", ORDER_FIELDS)
def test_coordinate_span_is_the_span_of_the_first_units(q):
    f = field(q)
    for n in range(7):
        for m in range(n + 1):
            units = [[int(j == i) for j in range(n)] for i in range(m)]
            x, y = coordinate_span(f, n, m), canonicalize(f, n, units)
            assert (x, x.k, x.pivots) == (y, m, y.pivots), (n, m)
        for bad in (-1, n + 1):
            with pytest.raises(ValueError, match="out of range"):
                coordinate_span(f, n, bad)


@pytest.mark.parametrize("d", [-1, 3])
def test_random_subspace_of_refuses_a_dimension_outside_the_parent(d, within_5_s):
    # no such subspace exists, so drawing until one is found would never end
    with pytest.raises(ValueError, match=r"dimension .* out of range \[0, 2\]"):
        random_subspace_of(coordinate_span(field(2), 4, 2), d, random.Random(0))


@pytest.mark.parametrize("q", ORDER_FIELDS)
def test_subspaces_of_order_matches_the_span_construction(q):
    f, rng = field(q), random.Random(q)
    for k in range(5 if q <= 4 else 4):
        n = k + 2
        for x in (coordinate_span(f, n, k), random_subspace(f, n, k, rng)):
            for d in range(k + 1):
                got = [(y.vecs, y.pivots) for y in subspaces_of(x, d)]
                assert got == subspaces_by_span(x, d), (x, d)


@pytest.mark.parametrize("q", ORDER_FIELDS)
def test_enumerate_subspaces_order_matches_the_or_built_layer(q):
    f = field(q)
    for n in range(5 if q <= 4 else 4):
        for k in range(n + 1):
            want = [
                (vecs, pivots)
                for pivots, bases in layer_by_or(_lanes(q, n), k)
                for vecs in bases
            ]
            got = [(x.vecs, x.pivots) for x in enumerate_subspaces(f, n, k)]
            assert got == want, (n, k)
    # the local order of GF(q)^n itself, on the unit basis, is the global one
    for n in range(6 if q <= 5 else 0):
        whole = coordinate_span(f, n, n)
        for k in range(n + 1):
            got = [(x.vecs, x.pivots) for x in subspaces_of(whole, k)]
            want = [(x.vecs, x.pivots) for x in enumerate_subspaces(f, n, k)]
            assert got == want, (n, k)


def local_choices_by_add(vecs, mults, layout, add):
    """_local_choices as it was, with one add call per listed vector."""
    out = []
    for local, free in layout.items():
        choices = [[vecs[p]] for p in local]
        for r, c in free:
            choices[r] = [add(v, m) for v in choices[r] for m in mults[c]]
        out.append(choices)
    return out


@pytest.mark.parametrize("q", [2, 3, 4, 5, 7, 8, 9, 11, 13])
def test_lane_sums_list_what_one_add_per_element_listed(q):
    f, rng = field(q), random.Random(q)
    for n in range(1, 5):
        lanes = _lanes(q, n)

        def vec(zero=None):
            return sum(
                lanes.enc[0 if j == zero else rng.randrange(q)] << (j * lanes.bw)
                for j in range(n)
            )

        for _ in range(3):
            c = rng.randrange(n)
            vs, ms = [vec(zero=c) for _ in range(q + 1)], lanes.multiples(vec())
            assert lanes.sums(vs, ms) == [lanes.add(v, m) for v in vs for m in ms]
            # a multiple of unit row c adds into lane c only, where vs are 0,
            # so there the sum is an XOR at any q
            units = lanes.multiples(1 << (c * lanes.bw))
            assert fields._xor_sums(vs, units) == [
                lanes.add(v, m) for v in vs for m in units
            ]
        for k in range(n + 1):
            for d in range(k + 1):
                layout = grassmann._pivot_layout(k, d)
                x = random_subspace(f, n, k, rng)
                mults = grassmann._multiples(x)
                starts = [[v] for v in x.vecs]
                assert grassmann._local_choices(
                    starts, mults, layout, lanes.sums
                ) == local_choices_by_add(x.vecs, mults, layout, lanes.add)
                if k:  # row 0 started from several vectors lists them in turn
                    heads = [x.vecs[0]] + [vec() for _ in range(2)]
                    got = grassmann._local_choices(
                        [heads] + starts[1:], (None,) + mults[1:], layout, lanes.sums
                    )
                    each = [
                        local_choices_by_add(
                            (v,) + x.vecs[1:], mults, layout, lanes.add
                        )
                        for v in heads
                    ]
                    for local, lists, *alone in zip(layout, got, *each):
                        if local and not local[0]:
                            assert lists[0] == [v for a in alone for v in a[0]]
                            assert all(lists[1:] == a[1:] for a in alone)
                        else:
                            assert all(lists == a for a in alone)
                if k == n:  # the unit basis, in the ambient layer
                    w = lanes.whole
                    mults = grassmann._multiples(w)
                    assert grassmann._local_choices(
                        [[v] for v in w.vecs], mults, layout, fields._xor_sums
                    ) == local_choices_by_add(w.vecs, mults, layout, lanes.add)


def random_vectors(lanes, count, rng):
    return [
        sum(lanes.enc[rng.randrange(lanes.q)] << (j * lanes.bw) for j in range(lanes.n))
        for _ in range(count)
    ]


@pytest.mark.parametrize("q", [3, 5, 7, 9, 11, 13, 25])
def test_batched_lane_sums_list_what_one_add_per_element_listed(q):
    # products from just below the batch's crossover to well above it, at
    # vectors of 4-byte and of 8-byte slots
    b, rng = fields._BATCH_MIN, random.Random(q)
    for n in (2, 32 // _lanes(q, 1).bw + 1):
        lanes = _lanes(q, n)
        for nv, nm in ((b - 1, 1), (1, b - 1), (b, 1), (1, b), (b // q + 1, q),
                       (3 * b, q), (7, 5)):
            vs, ms = random_vectors(lanes, nv, rng), random_vectors(lanes, nm, rng)
            assert lanes.sums(vs, ms) == [lanes.add(v, m) for v in vs for m in ms]
        assert lanes.sums([], lanes.multiples(1)) == []
        assert lanes.sums(random_vectors(lanes, b, rng), []) == []


@pytest.mark.parametrize("q, n", [(5, 8), (5, 9), (5, 16), (5, 17),
                                  (3, 10), (3, 11), (3, 21), (3, 22)])
def test_batched_lane_sums_at_the_slot_widths(q, n):
    # 32, 36, 64 and 68-bit vectors at q = 5, 30, 33, 63 and 66 at q = 3:
    # each side of the 4-byte and 8-byte slots, and past them (one add per
    # vector); every lane of vs and ms is p - 1 in one of the vectors
    lanes, rng = _lanes(q, n), random.Random(n)
    top = sum(lanes.enc[q - 1] << (j * lanes.bw) for j in range(n))
    vs = [top] + random_vectors(lanes, 2 * fields._BATCH_MIN, rng)
    ms = [top, 0] + lanes.multiples(random_vectors(lanes, 1, rng)[0])
    assert lanes.sums(vs, ms) == [lanes.add(v, m) for v in vs for m in ms]
    assert lanes.sums([], ms) == []


@pytest.mark.parametrize("q, n, t, k", [(3, 7, 1, 6), (5, 5, 1, 4), (9, 3, 1, 2)])
def test_wilson_matrix_is_the_same_with_and_without_batched_sums(monkeypatch, q, n, t, k):
    want = wilson_matrix(q, n, t, k)
    for crossover in (0, math.inf):
        monkeypatch.setattr(fields, "_BATCH_MIN", crossover)
        assert wilson_matrix(q, n, t, k) == want, crossover


@pytest.mark.parametrize("cap", [1, 2, 5])
def test_enumeration_in_capped_blocks_keeps_the_order(monkeypatch, cap):
    # a row's list of choices is held to cap vectors by fixing the leading
    # free entries in turn; the subspaces still come in index order, and a
    # subspace's own layers and both verifiers' verdicts stay the same
    from qnull import designs

    for q, n, k in ((2, 5, 1), (2, 5, 2), (3, 4, 2), (4, 3, 1), (5, 3, 2)):
        want = [(x.vecs, x.pivots) for x in enumerate_subspaces(field(q), n, k)]
        monkeypatch.setattr(grassmann, "_STREAM_CAP", cap)
        got = list(enumerate_subspaces(field(q), n, k))
        monkeypatch.undo()
        assert [(x.vecs, x.pivots) for x in got] == want, (q, n, k)
        assert [index_of(x) for x in got] == list(range(gaussian_binomial(n, k, q)))
    rng = random.Random(cap)
    xs = [random_subspace(field(q), 5, 4, rng) for q in (2, 3, 4)]
    supports = [designs.construct_lb_design(3, 4, 1).support]
    for w in xs:  # four 3-subspaces of w, which need not sum to zero
        ys = rng.sample(list(subspaces_of(w, 3)), 4)
        supports.append({y: rng.randrange(1, w.field.q) for y in ys})

    def walks():
        grassmann._ambient_layer.cache_clear()
        layers = [list(subspaces_of(x, d)) for x in xs for d in range(5)]
        verdicts = []
        for support in supports:
            x = next(iter(support))
            for t in range(min(y.k for y in support) + 1):
                design = designs.NullDesign(x.field, x.n, x.field.q, 0, support)
                verdicts.append((designs.verify_strength(design, t),
                                 designs.verify_strength_direct(design, t)))
        return layers, verdicts

    want = walks()
    assert {v.ok for v, _ in want[1]} == {True, False}
    monkeypatch.setattr(grassmann, "_STREAM_CAP", cap)
    assert walks() == want
    monkeypatch.undo()
    grassmann._ambient_layer.cache_clear()


def test_text_round_trip():
    f = field(4)
    for x in enumerate_subspaces(f, 3, 2):
        assert subspace_from_text(f, 3, subspace_to_text(x)) == x
    with pytest.raises(ValueError):
        subspace_from_text(f, 3, "10")
    with pytest.raises(ValueError):
        subspace_from_text(field(2), 3, "120")


def test_subspace_equality_and_hash():
    f = field(2)
    a = canonicalize(f, 4, [(1, 0, 0, 0), (0, 1, 0, 0)])
    b = canonicalize(f, 4, [(1, 1, 0, 0), (0, 1, 0, 0)])
    assert a == b and hash(a) == hash(b)
    c = canonicalize(f, 4, [(1, 0, 0, 0), (0, 1, 1, 0)])
    assert a != c
    assert a != "not a subspace"
    assert isinstance(a, Subspace)


def test_repr_is_total_beyond_the_digit_alphabet():
    lines = list(enumerate_subspaces(field(37), 2, 1))
    assert len(lines) == 38
    assert repr(lines[1]) == "Subspace(q=37, n=2, <1,1>)"
    assert repr(lines[36]) == "Subspace(q=37, n=2, <1,36>)"
    assert repr(lines[0]) != repr(lines[37])
    assert repr(canonicalize(field(4), 2, [(2, 1)])) == "Subspace(q=4, n=2, <13>)"


# -- packed paths against literal vector sets ----------------------------------


def extend(f, vectors, v):
    """The literal vector set vectors + GF(q) v."""
    return frozenset(
        tuple(f.add(a, f.mul(c, b)) for a, b in zip(w, v))
        for w in vectors
        for c in range(f.q)
    )


def closure(f, n, gens):
    """The literal set of vectors spanned by gens, closed by hand."""
    out = frozenset({(0,) * n})
    for g in gens:
        out = extend(f, out, g)
    return out


def closed_subsets(f, n, vectors, d):
    """Every d-dimensional subspace inside a closed vector set, as vector sets."""
    layer = {closure(f, n, [])}
    for _ in range(d):
        bigger = set()
        for s in layer:
            rest = set(vectors - s)
            while rest:
                grown = extend(f, s, rest.pop())
                bigger.add(grown)
                rest -= grown
        layer = bigger
    return layer


def check_against_closure(f, n, x_gens, y_gens, t, k):
    x, y = canonicalize(f, n, x_gens), canonicalize(f, n, y_gens)
    sx, sy = closure(f, n, x.rows), closure(f, n, y.rows)
    assert sx == closure(f, n, x_gens) and len(sx) == f.q**x.k
    assert sy == closure(f, n, y_gens) and len(sy) == f.q**y.k
    assert contains(x, y) == (sy <= sx)
    assert contains(y, x) == (sx <= sy)
    for d in range(x.k + 1):
        got = [closure(f, n, z.rows) for z in subspaces_of(x, d)]
        assert len(set(got)) == len(got)
        assert set(got) == closed_subsets(f, n, sx, d)
    m = wilson_matrix(f.q, n, t, k)
    rows = [closure(f, n, z.rows) for z in enumerate_subspaces(f, n, t)]
    for j, z in enumerate(m.col_subspaces()):
        sz = closure(f, n, z.rows)
        assert m.col_rows[j] == tuple(i for i, s in enumerate(rows) if s <= sz)


@st.composite
def lattice_case(draw):
    # every lane layout: p = 2 with s = 1, 2, 3 and odd p with s = 1, 2
    cases = [(2, 4), (3, 3), (4, 3), (5, 2), (7, 2), (8, 2), (9, 2)]
    q, n_max = draw(st.sampled_from(cases))
    n = draw(st.integers(min_value=1, max_value=n_max))
    gens = [
        [
            [draw(st.integers(min_value=0, max_value=q - 1)) for _ in range(n)]
            for _ in range(draw(st.integers(min_value=0, max_value=n)))
        ]
        for _ in range(2)
    ]
    k = draw(st.integers(min_value=0, max_value=n))
    t = draw(st.integers(min_value=0, max_value=k))
    return field(q), n, gens[0], gens[1], t, k


@given(lattice_case())
@settings(max_examples=150, deadline=None)
def test_packed_paths_match_vector_set_closure(case):
    check_against_closure(*case)


def test_packed_paths_match_vector_set_closure_with_wide_lanes():
    f = field(37)
    check_against_closure(f, 2, [(3, 5), (0, 7)], [(2, 36)], 1, 2)
    check_against_closure(f, 2, [(4, 9)], [(8, 18)], 1, 1)
    check_against_closure(f, 2, [(4, 9)], [(1, 18)], 0, 1)
