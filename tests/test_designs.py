import random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from qnull import designs
from qnull.designs import (
    NullDesign,
    as_modulus,
    construct_lb_design,
    construct_uniform_design,
    make_random_chain,
    read_design,
    strength_of,
    sum_over_superspaces,
    verify_strength,
    verify_strength_direct,
    write_design,
)
from qnull.fields import field
from qnull.grassmann import (
    canonicalize,
    contains,
    coordinate_span,
    enumerate_subspaces,
    from_index,
    gaussian_binomial,
    index_of,
    subspaces_of,
)
from qnull.incidence import apply_check, wilson_matrix
from qnull.linalg import InvariantError


def _span(q, n, *rows):
    return canonicalize(field(q), n, [list(r) for r in rows])


# -- construction and validation --------------------------------------------


def test_modulus_must_be_power_of_p_in_range():
    f = field(4)
    x = _span(4, 3, (1, 0, 0))
    for bad in (1, 3, 8, 0, -2):
        with pytest.raises(ValueError):
            NullDesign(f, 3, bad, 0, {x: 1})
    for ok in (2, 4):
        NullDesign(f, 3, ok, 0, {x: 1})
    with pytest.raises(ValueError):
        NullDesign(field(2), 3, 4, 0, {})  # 4 > q = 2


def test_t_claimed_range_and_support_dims():
    f = field(2)
    line = _span(2, 3, (1, 0, 0))
    with pytest.raises(ValueError):
        NullDesign(f, 3, 2, -1, {})
    with pytest.raises(ValueError):
        NullDesign(f, 3, 2, 4, {})
    with pytest.raises(ValueError):
        NullDesign(f, 3, 2, 2, {line: 1})  # dim 1 support below t_claimed 2
    NullDesign(f, 3, 2, 1, {line: 1})


def test_foreign_support_rejected():
    plane2 = _span(2, 3, (1, 0, 0))
    with pytest.raises(ValueError):
        NullDesign(field(3), 3, 3, 0, {plane2: 1})  # wrong field
    with pytest.raises(ValueError):
        NullDesign(field(2), 4, 2, 0, {plane2: 1})  # wrong ambient dim


def test_coefficients_reduced_and_zeros_dropped():
    f = field(3)
    a = _span(3, 3, (1, 0, 0))
    b = _span(3, 3, (0, 1, 0))
    d = NullDesign(f, 3, 3, 0, {a: 5, b: -3})
    assert d.support == {a: 2}
    assert not d.is_void()
    assert d.uniform_dim() == 1
    with pytest.raises(TypeError):
        d.support[b] = 1  # read-only mapping


def test_void_design():
    d = NullDesign(field(2), 4, 2, 1, {})
    assert d.is_void()
    assert d.uniform_dim() is None
    assert strength_of(d, 4) == 4
    assert verify_strength(d, 1).ok


def test_strength_of_rejects_t_max_outside_0_to_n():
    void = NullDesign(field(2), 3, 2, 0, {})
    for bad in (-1, 4, 9):
        with pytest.raises(ValueError, match="t_max"):
            strength_of(void, bad)
    d = construct_lb_design(2, 3, 1)
    with pytest.raises(ValueError, match="t_max"):
        strength_of(d, -1)
    assert strength_of(d, 0) == 0 and strength_of(d, 3) == 1


# -- minimal-support construction --------------------------------------------


@pytest.mark.parametrize("q,n,t", [(2, 3, 1), (2, 5, 2), (3, 4, 1), (4, 3, 1)])
def test_lb_design_support_and_strength(q, n, t):
    d = construct_lb_design(q, n, t)
    assert len(d.support) == 1 + (q ** (t + 1) - 1) // (q - 1)
    dims = sorted({x.k for x in d.support})
    assert dims == [t, t + 1]
    for tau in range(t + 1):
        assert verify_strength(d, tau).ok
    assert strength_of(d, n) == t


def test_lb_design_custom_modulus():
    d = construct_lb_design(4, 3, 1, r=4)
    assert d.r == 4
    assert verify_strength(d, 1).ok
    top = [x for x in d.support if x.k == 2]
    assert d.support[top[0]] == 1
    assert all(d.support[x] == 3 for x in d.support if x.k == 1)
    with pytest.raises(ValueError):
        construct_lb_design(2, 3, 3)
    with pytest.raises(ValueError):
        construct_lb_design(2, 3, -1)


# -- uniform construction -----------------------------------------------------


@pytest.mark.parametrize(
    "q,n,k,t", [(2, 4, 2, 1), (2, 5, 3, 1), (3, 4, 2, 1), (4, 3, 2, 1), (2, 4, 3, 2)]
)
def test_uniform_design_default_chain(q, n, k, t):
    d = construct_uniform_design(q, n, k, t)
    assert len(d.support) == q ** (t + 1)
    assert d.uniform_dim() == k
    assert d.r == q
    assert verify_strength(d, t).ok
    assert strength_of(d, n) >= t


def test_uniform_design_random_chains_all_verify():
    rng = random.Random(20260816)
    q, n, k, t = 3, 4, 2, 1
    f = field(q)
    for _ in range(5):
        chain = make_random_chain(f, n, k, t, rng)
        u, v, w = chain
        assert (u.k, v.k, w.k) == (k - t - 1, k - t, k + 1)
        assert contains(v, u) and contains(w, v)
        d = construct_uniform_design(q, n, k, t, chain=chain)
        assert len(d.support) == q ** (t + 1)
        assert verify_strength(d, t).ok


def test_uniform_design_rejects_bad_chains():
    q, n, k, t = 2, 4, 2, 1
    f = field(q)
    zero = canonicalize(f, n, [])
    v = _span(2, 4, (1, 0, 0, 0))
    w = _span(2, 4, (1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0))
    construct_uniform_design(q, n, k, t, chain=(zero, v, w))  # valid baseline
    with pytest.raises(ValueError):
        # u has the wrong dimension
        construct_uniform_design(q, n, k, t, chain=(v, v, w))
    v_outside = _span(2, 4, (0, 0, 0, 1))
    assert not contains(w, v_outside)
    with pytest.raises(ValueError):
        # right dims, but v is not inside w
        construct_uniform_design(q, n, k, t, chain=(zero, v_outside, w))
    w_small = _span(2, 3, (1, 0, 0), (0, 1, 0), (0, 0, 1))
    with pytest.raises(ValueError):
        construct_uniform_design(
            q, n, k, t, chain=(canonicalize(f, 3, []), _span(2, 3, (1, 0, 0)), w_small)
        )
    with pytest.raises(ValueError):
        construct_uniform_design(q, n, k, k)  # t = k
    with pytest.raises(ValueError):
        construct_uniform_design(q, n, n, 1)  # k = n


def _filtered_uniform_support(q, n, k, t, chain=None):
    """The support by its definition: every k-subspace of w that contains u
    and not v, found by filtering all of them through `contains`."""
    f = field(q)
    if chain is None:
        chain = tuple(coordinate_span(f, n, d) for d in (k - t - 1, k - t, k + 1))
    u, v, w = chain
    return {x: 1 for x in subspaces_of(w, k) if contains(x, u) and not contains(x, v)}


def _keyed(support):
    # Subspace equality reads only the packed rows; the pivots must match too
    return {(x.vecs, x.pivots): c for x, c in support.items()}


def _assert_uniform_matches_filter(q, n, k, t, chains):
    for chain in chains:
        got = construct_uniform_design(q, n, k, t, chain=chain).support
        want = _filtered_uniform_support(q, n, k, t, chain)
        assert dict(got) == want
        assert _keyed(got) == _keyed(want)


@pytest.mark.parametrize("q", [2, 3, 4])
def test_uniform_design_matches_the_containment_filter_on_grid_cells(q):
    f = field(q)
    for n in range(2, 6):
        for k in range(1, n):
            for t in range(k):
                rng = random.Random(q * 1000 + n * 100 + k * 10 + t)
                chains = [None] + [make_random_chain(f, n, k, t, rng) for _ in range(10)]
                _assert_uniform_matches_filter(q, n, k, t, chains)


@pytest.mark.parametrize("q", [5, 7, 8, 9])
def test_uniform_design_matches_the_containment_filter_for_larger_q(q):
    f = field(q)
    for n in range(2, 5 if q == 5 else 4):
        for k in range(1, n):
            for t in range(k):
                rng = random.Random(q * 1000 + n * 100 + k * 10 + t)
                chains = [None] + [make_random_chain(f, n, k, t, rng) for _ in range(2)]
                _assert_uniform_matches_filter(q, n, k, t, chains)


def test_uniform_design_rejects_a_broken_functional(monkeypatch):
    solve = designs._functionals

    def doubled(f, zeros, one):  # 2*phi is 2 at e, not 1
        first, *rest = solve(f, zeros, one)
        return [tuple(f.add(c, c) for c in first)] + rest

    def repeated(f, zeros, one):  # a valid functional twice: one kernel short
        phis = solve(f, zeros, one)
        return [phis[0]] + phis[:-1]

    construct_uniform_design(3, 4, 2, 1)
    monkeypatch.setattr(designs, "_functionals", doubled)
    with pytest.raises(InvariantError, match="not 0 on u and 1 at e"):
        construct_uniform_design(3, 4, 2, 1)
    monkeypatch.setattr(designs, "_functionals", repeated)
    with pytest.raises(InvariantError, match="distinct support elements"):
        construct_uniform_design(3, 4, 2, 1)


def test_uniform_design_strength_is_exactly_t_in_small_cases():
    for q, n, k, t in [(2, 4, 2, 1), (2, 4, 2, 0), (3, 4, 2, 1), (2, 5, 3, 1)]:
        d = construct_uniform_design(q, n, k, t)
        assert strength_of(d, n) == t


# -- verification agreement ---------------------------------------------------


@pytest.mark.parametrize("q,n,k,t", [(2, 4, 2, 1), (3, 3, 2, 1), (2, 5, 2, 1)])
def test_two_verifiers_agree_on_valid_and_corrupted(q, n, k, t):
    d = construct_uniform_design(q, n, k, t)
    a = verify_strength(d, t)
    b = verify_strength_direct(d, t)
    assert a.ok and b.ok
    assert a.violations == b.violations == ()

    # drop one support element and both must flag the same violations
    items = dict(d.support)
    del items[d.items_sorted()[0][0]]
    bad = NullDesign(d.field, d.n, d.r, 0, items)
    va = verify_strength(bad, t)
    vb = verify_strength_direct(bad, t)
    assert not va.ok and not vb.ok
    assert va.violations == vb.violations
    assert all(1 <= v < bad.r for _, v in va.violations)


@st.composite
def design_case(draw):
    """(q, n, r, t, items): a design over GF(q)^n mod r, one (dim, ordinal,
    coefficient) item per support element, every dim at least t."""
    q, n_max = draw(st.sampled_from([(2, 4), (3, 3), (4, 3), (5, 2), (9, 2)]))
    n = draw(st.integers(min_value=1, max_value=n_max))
    t = draw(st.integers(min_value=0, max_value=n))
    f = field(q)
    r = draw(st.sampled_from([f.p**i for i in range(1, f.s + 1)]))
    items = draw(
        st.lists(
            st.tuples(
                st.integers(min_value=t, max_value=n),
                st.integers(min_value=0, max_value=10**6),
                st.integers(min_value=1, max_value=r - 1),
            ),
            max_size=5,
        )
    )
    return q, n, r, t, [(d, o % gaussian_binomial(n, d, q), c) for d, o, c in items]


def _design_of(case):
    q, n, r, t, items = case
    f = field(q)
    support = {from_index(f, n, d, o): c for d, o, c in items}
    return NullDesign(f, n, r, t, support), t


def _listed(violations):
    """Reference (subspace, sum) pairs as the verdict names them."""
    return tuple((index_of(y), v) for y, v in violations)


VERIFIER_EXAMPLES = [
    (2, 3, 2, 0, [(1, 0, 1), (2, 3, 1), (3, 0, 1)]),  # t = 0
    (3, 2, 3, 2, [(2, 0, 2)]),  # t = n
    (3, 3, 3, 1, [(1, 0, 1), (2, 5, 2), (1, 7, 1)]),  # t is a support dim
    (2, 4, 2, 1, [(2, 0, 1)]),  # pivots (0, 1): groups (2,) and (3,) missed
    (4, 3, 4, 1, [(2, 0, 2), (2, 1, 2)]),  # sums 0 mod 4 on their meet
    # several candidates of dims 2, 3 and 4 over two-row pivot groups
    (3, 4, 3, 2, [(2, 5, 1), (3, 0, 2), (3, 20, 1), (4, 0, 1)]),
    # coefficients 2 and 3 mod 4 meeting in the same pivot groups
    (4, 4, 4, 1, [(2, 3, 2), (2, 40, 3), (3, 7, 2), (3, 0, 3)]),
]


def _with_examples(test):
    for case in VERIFIER_EXAMPLES:
        test = example(case)(test)
    return test


@given(design_case())
@_with_examples
@settings(max_examples=150, deadline=None)
def test_verify_strength_direct_matches_per_y_superspace_sums(case):
    design, t = _design_of(case)
    want = []
    for y in enumerate_subspaces(design.field, design.n, t):
        v = sum_over_superspaces(design, y)
        if v:
            want.append((y, v))
    verdict = verify_strength_direct(design, t)
    assert verdict.violations == _listed(want)
    assert verdict.ok == (not want)


@given(design_case())
@_with_examples
@settings(max_examples=150, deadline=None)
def test_verify_strength_violations_match_the_keyed_scatter(case):
    """Scatter onto the subspaces that subspaces_of yields, keyed by subspace,
    and sort the nonzero sums by index_of."""
    design, t = _design_of(case)
    acc = {}
    for x, c in design.support.items():
        for y in subspaces_of(x, t):
            acc[y] = acc.get(y, 0) + c
    want = sorted(
        ((y, v % design.r) for y, v in acc.items() if v % design.r),
        key=lambda yv: index_of(yv[0]),
    )
    verdict = verify_strength(design, t)
    assert verdict.violations == _listed(want)
    assert verdict == verify_strength_direct(design, t)


def test_verifiers_name_the_nonzero_rows_of_w_c_at_a_lattice_cell():
    """q3 n5 k4 t3: one corrupted coefficient of a uniform design breaks the
    sum at exactly the [4,3]_3 t-subspaces of its element."""
    q, n, k, t = 3, 5, 4, 3
    design = construct_uniform_design(q, n, k, t)
    x, c = design.items_sorted()[0]
    support = dict(design.support)
    support[x] = c + 1
    bad = NullDesign(design.field, n, design.r, t, support)
    m = wilson_matrix(q, n, t, k)
    col = [0] * m.cols
    for y, v in bad.support.items():
        col[index_of(y)] = v
    want = tuple((i, v) for i, v in enumerate(apply_check(m, col, q)) if v)
    assert len(want) == gaussian_binomial(k, t, q) == 40
    assert verify_strength_direct(bad, t).violations == want
    assert verify_strength(bad, t).violations == want
    assert verify_strength_direct(design, t).ok and verify_strength(design, t).ok


def test_nonzero_cells_on_plain_dict_counts():
    """Counts are c -> {cell: count} plain dicts; a cell is listed with its
    sum of c * count mod r only when that sum is nonzero mod r."""
    cells = designs._nonzero_cells
    a, b, c = (1, 2), (5,), (7, 8)
    # 3 hits of coefficient 1 are 3 over Z and 0 mod 3
    assert cells({1: {a: 3, b: 1}}, 3) == [(b, 1)]
    # coefficients 1 and r - 1 on the same cell cancel
    assert sorted(cells({1: {a: 1, b: 1}, 3: {a: 1, c: 2}}, 4)) == [(b, 1), (c, 2)]
    # the merge path (coefficients 1 and 4 = 1 mod 3, as in counts shared
    # from a design mod 9) gives the one-coefficient path's list
    one = cells({1: {a: 2, b: 1, c: 3}}, 3)
    assert sorted(one) == [(a, 2), (b, 1)]
    assert sorted(cells({1: {a: 2, c: 3}, 4: {b: 1}}, 3)) == sorted(one)
    assert sorted(cells({1: {a: 2, b: 1, c: 3}, 2: {}}, 3)) == sorted(one)
    # a lone coefficient other than 1 is weighted, not taken as the sums
    assert cells({2: {a: 1, b: 3}}, 3) == [(a, 2)]
    # no counts, or coefficients with no cell, list nothing
    assert cells({}, 2) == []
    assert cells({1: {}}, 2) == cells({1: {}, 2: {}}, 4) == []


def test_verify_rejects_undefined_strata():
    d = construct_lb_design(2, 4, 1)  # support dims 1 and 2
    with pytest.raises(ValueError):
        verify_strength(d, 2)  # dim-1 support sits below stratum 2
    with pytest.raises(ValueError):
        verify_strength(d, 5)
    with pytest.raises(ValueError):
        verify_strength_direct(d, -1)


def test_sum_over_superspaces_matches_handcount():
    q, n = 2, 3
    d = construct_lb_design(q, n, 1)
    f = field(q)
    for y in enumerate_subspaces(f, n, 1):
        manual = sum(c for x, c in d.support.items() if contains(x, y)) % d.r
        assert sum_over_superspaces(d, y) == manual == 0
    with pytest.raises(ValueError):
        sum_over_superspaces(d, _span(3, 3, (1, 0, 0)))


# -- modulus change -----------------------------------------------------------


def test_as_modulus_reduction():
    d = construct_uniform_design(4, 3, 2, 0)  # coefficients 1 and 3 mod 4
    d2 = as_modulus(d, 2)
    assert d2.r == 2
    assert set(d2.support.values()) == {1}
    assert verify_strength(d2, 0).ok
    with pytest.raises(ValueError):
        as_modulus(d, 8)

    # reduction can empty the support entirely
    f = field(4)
    x = _span(4, 3, (1, 0, 0))
    even = NullDesign(f, 3, 4, 0, {x: 2})
    assert as_modulus(even, 2).is_void()


# -- scatter counts shared across moduli ------------------------------------


def _mixed_design(q, n, seed):
    """A design mod q over GF(q)^n with coefficients across [1, q), multiples
    of p among them, on support dims 1 to n."""
    rng, f = random.Random(seed), field(q)
    support = {}
    for _ in range(8):
        d = rng.randint(1, n)
        x = from_index(f, n, d, rng.randrange(gaussian_binomial(n, d, q)))
        support[x] = rng.randrange(1, q)
    support[from_index(f, n, 2, 0)] = f.p  # 0 mod p
    return NullDesign(f, n, q, 0, support)


def _fresh(design, r):
    """The design mod r through the file format, so it shares no counts."""
    return as_modulus(read_design(write_design(design)), r)


@pytest.mark.parametrize("q", [4, 8, 9])
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_a_coarser_modulus_reuses_the_counts_with_the_fresh_verdict(q, seed):
    d = _mixed_design(q, 3, seed)
    low = min(x.k for x in d.support)
    divisors = [r for r in range(2, q) if q % r == 0 and field(q).is_modulus(r)]
    failed = 0
    for t in range(low + 1):
        verify_strength(d, t)
        for r in divisors:
            child = as_modulus(d, r)
            assert child._scatter is d._scatter
            got = verify_strength(child, t)
            assert got == verify_strength(_fresh(d, r), t)
            failed += not got.ok
    assert failed  # the shared counts carried real violations


def test_counts_survive_the_order_traps():
    d = _mixed_design(9, 3, 5)
    # the child verified at t before the parent, then the parent
    child = as_modulus(d, 3)
    assert verify_strength(child, 1) == verify_strength(_fresh(d, 3), 1)
    assert verify_strength(d, 1) == verify_strength(_fresh(d, 9), 1)
    # the parent at t, then the child at t' != t, then the parent at t'
    for t, t2 in ((0, 1), (1, 0)):
        verify_strength(d, t)
        child = as_modulus(d, 3)
        assert verify_strength(child, t2) == verify_strength(_fresh(d, 3), t2)
        assert verify_strength(d, t2) == verify_strength(_fresh(d, 9), t2)
        assert verify_strength(child, t) == verify_strength(_fresh(d, 3), t)
    # a scan over t leaves the counts of its last t behind
    u = construct_uniform_design(9, 4, 2, 1)
    assert strength_of(u, 4) == 1
    assert strength_of(as_modulus(u, 3), 4) == strength_of(_fresh(u, 3), 4) == 1
    assert strength_of(d, 3) == strength_of(_fresh(d, 9), 3)
    assert strength_of(as_modulus(d, 3), 3) == strength_of(_fresh(d, 3), 3)


def test_a_finer_modulus_gets_no_counts():
    d = as_modulus(_mixed_design(4, 3, 7), 2)
    verify_strength(d, 1)
    wide = as_modulus(d, 4)
    assert d._scatter[0] == 1 and wide._scatter == (None, None)
    assert verify_strength(wide, 1) == verify_strength(_fresh(d, 4), 1)


# -- strengths checked from the top down -------------------------------------


def _spy_listing(monkeypatch):
    """The subspaces verify_strength lists the t-subspaces of, call by call."""
    listed, real = [], designs._packed_subspaces_of

    def spy(x, d):
        listed.append(x)
        return real(x, d)

    monkeypatch.setattr(designs, "_packed_subspaces_of", spy)
    return listed


def _layered_designs(q, r, seed):
    """Designs mod r over GF(q)^n with least support dimension n - 2: the
    lower-bound design (every sum zero), it with two random elements added
    (few nonzero sums), and six random elements (many)."""
    rng, f = random.Random(seed), field(q)
    n = 4 if q <= 4 else 3

    def element(d):
        return from_index(f, n, d, rng.randrange(gaussian_binomial(n, d, q)))

    lb = construct_lb_design(q, n, n - 2, r=r)
    patched = dict(lb.support)
    for d in (n - 2, n - 1):
        patched[element(d)] = rng.randrange(1, r)
    scattered = {element(rng.randint(n - 2, n)): rng.randrange(1, r) for _ in range(6)}
    return [lb] + [NullDesign(f, n, r, n - 2, s) for s in (patched, scattered)]


@pytest.mark.parametrize("q", [2, 3, 4, 5, 8, 9])
def test_a_top_down_check_gives_the_fresh_verdict_at_every_strength(q, monkeypatch):
    """One object verified from its top strength down to 0 equals a fresh
    object and the direct verifier at each t, as does an as_modulus child
    checked at t after its parent at t+1.  Below a strength that holds,
    nothing is listed."""
    listed = _spy_listing(monkeypatch)
    p = field(q).p
    held = failed = 0
    for r in sorted({p, q}):
        for seed in range(3):
            for d in _layered_designs(q, r, seed):
                above = None
                for t in range(min(x.k for x in d.support), -1, -1):
                    if r != p and d._scatter[0] == t + 1:
                        child = as_modulus(d, p)
                        assert child._scatter is d._scatter
                        got = verify_strength(child, t)
                        assert got == verify_strength_direct(child, t)
                        assert got == verify_strength(_fresh(d, p), t)
                    listed.clear()
                    got = verify_strength(d, t)
                    assert not (above and listed)
                    held += bool(above)
                    assert d._scatter[0] == t
                    assert got == verify_strength(_fresh(d, r), t)
                    assert got == verify_strength_direct(d, t)
                    above = got.ok
                    failed += not got.ok
    assert held and failed


def test_a_holding_design_lists_nothing_below(monkeypatch):
    """construct_lb_design(3, 5, 3) holds at 3, so t = 2, 1, 0 hold with no
    count: nothing is listed and the slot keeps no counts."""
    listed = _spy_listing(monkeypatch)
    lb = construct_lb_design(3, 5, 3)
    assert verify_strength(lb, 3).ok and lb._scatter[0] == 3
    listed.clear()
    for t in (2, 1, 0):
        got = verify_strength(lb, t)
        assert got.ok and not got.violations and lb._scatter == (t, {})
    assert not listed


def _upward_strength(design, t_max):
    """Reference scan: t = 0, 1, ... on the direct verifier, up to the first
    t that fails; None if t = 0 fails."""
    best = None
    for t in range(min(t_max, *(x.k for x in design.support)) + 1):
        if not verify_strength_direct(design, t).ok:
            break
        best = t
    return best


def test_strength_of_from_both_ends_matches_the_upward_scan():
    f2, f3 = field(2), field(3)
    two = [from_index(f2, 5, 3, i) for i in (0, 17)]
    lines = [from_index(f3, 3, 2, i) for i in (0, 5)]
    cases = [
        construct_lb_design(2, 3, 1),
        construct_lb_design(3, 4, 2),
        construct_lb_design(2, 5, 3),
        construct_uniform_design(2, 4, 2, 0),
        construct_uniform_design(3, 4, 2, 1),
        construct_uniform_design(2, 5, 3, 2),
        # strength 0: two 3-spaces whose coefficients cancel at the zero space
        NullDesign(f2, 5, 2, 0, dict.fromkeys(two, 1)),
        NullDesign(f3, 3, 3, 0, {lines[0]: 1, lines[1]: 2}),
        # None: one element, whose coefficient every t-subspace sees
        NullDesign(f3, 3, 3, 0, {lines[0]: 1}),
    ]
    cases += [_mixed_design(q, 3, seed) for q in (2, 4, 9) for seed in range(2)]
    cases += [d for q in (2, 3) for d in _layered_designs(q, q, 1)]
    seen = set()
    for d in cases:
        for t_max in range(d.n + 1):
            want = _upward_strength(d, t_max)
            assert strength_of(d, t_max) == want, (write_design(d), t_max)
            seen.add(want)
    assert {None, 0, 1, 2, 3} <= seen


def test_direct_verifier_with_ambient_keys_interleaved():
    """More (q, n, t) keys than the ambient table cache holds, in a shuffled
    order, twice: each verdict equals the scatter's and the per-y sums."""
    designs._ambient_layer.cache_clear()
    cases = [
        (q, n, t) for q, n_max in ((2, 4), (3, 3), (4, 3)) for n in range(1, n_max + 1)
        for t in range(n + 1)
    ]
    assert len(cases) > 16
    rng = random.Random(15)
    order = cases * 2
    rng.shuffle(order)
    for q, n, t in order:
        f = field(q)
        support = {}
        for _ in range(3):
            d = rng.randint(t, n)
            support[from_index(f, n, d, rng.randrange(gaussian_binomial(n, d, q)))] = (
                rng.randrange(1, q)
            )
        design = NullDesign(f, n, q, t, support)
        want = tuple(
            (i, v)
            for i, y in enumerate(enumerate_subspaces(f, n, t))
            if (v := sum_over_superspaces(design, y))
        )
        assert verify_strength_direct(design, t).violations == want
        assert verify_strength(design, t).violations == want


# -- file round trip ----------------------------------------------------------


def test_write_read_round_trip():
    for d in (
        construct_lb_design(3, 4, 1),
        construct_uniform_design(2, 4, 2, 1),
        NullDesign(field(2), 3, 2, 0, {}),
    ):
        back = read_design(write_design(d))
        assert back.field is d.field
        assert (back.n, back.r, back.t_claimed) == (d.n, d.r, d.t_claimed)
        assert dict(back.support) == dict(d.support)


def test_read_design_rejects_malformed_input():
    with pytest.raises(ValueError):
        read_design("")
    with pytest.raises(ValueError):
        read_design("2 3 2\n")  # short header
    good = "2 3 2 1\n1|100|1\n"
    read_design(good)
    with pytest.raises(ValueError):
        read_design("2 3 2 1\n2|100|1\n")  # stated dim disagrees with text
    with pytest.raises(ValueError):
        read_design("2 3 2 1\n1|100|1\n1|100|1\n")  # duplicate element
    with pytest.raises(ValueError):
        read_design("2 3 2 1\n1|100\n")  # missing coefficient field


def test_items_sorted_order():
    d = construct_lb_design(2, 4, 1)
    items = d.items_sorted()
    keys = [(x.k, c) for x, c in items]
    assert keys == sorted(keys, key=lambda kc: kc[0])
    assert items[0][0].k == 1 and items[-1][0].k == 2


def test_make_random_chain_determinism():
    f = field(2)
    a = make_random_chain(f, 5, 3, 1, random.Random(7))
    b = make_random_chain(f, 5, 3, 1, random.Random(7))
    assert a == b
