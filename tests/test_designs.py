import random

import pytest

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
    enumerate_subspaces,
    subspaces_of,
)


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
