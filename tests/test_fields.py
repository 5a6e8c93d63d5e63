import math
import operator
import random

import pytest

from qnull import fields
from qnull.fields import Field, _is_prime, field


@pytest.mark.parametrize("q", Field.REQUIRED_ORDERS)
def test_field_axioms_exhaustive(q):
    """Every required order: full associativity/commutativity/distributivity."""
    f = field(q)
    R = range(q)
    for a in R:
        assert f.add(a, 0) == a
        assert f.mul(a, 1) == a
        assert f.mul(a, 0) == 0
        for b in R:
            assert f.add(a, b) == f.add(b, a)
            assert f.mul(a, b) == f.mul(b, a)
            for c in R:
                assert f.add(f.add(a, b), c) == f.add(a, f.add(b, c))
                assert f.mul(f.mul(a, b), c) == f.mul(a, f.mul(b, c))
                assert f.mul(a, f.add(b, c)) == f.add(f.mul(a, b), f.mul(a, c))


@pytest.mark.parametrize("q", Field.REQUIRED_ORDERS)
def test_inverses(q):
    f = field(q)
    for a in range(1, q):
        assert f.mul(a, f.inv(a)) == 1
        assert f.add(a, f.neg(a)) == 0
    with pytest.raises(ZeroDivisionError):
        f.inv(0)


def test_characteristic_and_degree():
    assert (field(8).p, field(8).s) == (2, 3)
    assert (field(9).p, field(9).s) == (3, 2)
    assert (field(7).p, field(7).s) == (7, 1)


@pytest.mark.parametrize("q", [0, 1, 6, 10, 12, 15])
def test_non_prime_powers_rejected(q):
    with pytest.raises(ValueError):
        Field(q)


def test_field_instances_are_cached():
    assert field(4) is field(4)
    assert field(4) is not field(8)


def test_bad_modulus_rejected(monkeypatch):
    import qnull.fields as fm

    # x^2 + 1 = (x+1)^2 over GF(2): reducible
    monkeypatch.setitem(fm._MODULI, 4, (1, 0, 1))
    with pytest.raises(ValueError, match="reducible"):
        Field(4)
    # x^2 + x over GF(2): x is a zero divisor and never returns to 1
    monkeypatch.setitem(fm._MODULI, 4, (0, 1, 1))
    with pytest.raises(ValueError, match="reducible or not primitive"):
        Field(4)
    # x^2 + 1 over GF(3) is irreducible but x has order 4, not 8
    monkeypatch.setitem(fm._MODULI, 9, (1, 0, 1))
    with pytest.raises(ValueError, match="not primitive"):
        Field(9)
    # not monic / wrong degree
    monkeypatch.setitem(fm._MODULI, 4, (1, 1))
    with pytest.raises(ValueError, match="monic"):
        Field(4)


def _schoolbook_mul(a, b, p, mod):
    """a * b as polynomials in base-p digit codes, then long division by mod."""
    s = len(mod) - 1
    da, db = ([c // p**i % p for i in range(s)] for c in (a, b))
    prod = [0] * (2 * s - 1)
    for i, x in enumerate(da):
        for j, y in enumerate(db):
            prod[i + j] += x * y
    for top in range(2 * s - 2, s - 1, -1):  # mod is monic: subtract c x^(top-s) mod
        c = prod[top]
        for i, f in enumerate(mod):
            prod[top - s + i] -= c * f
    return sum(prod[i] % p * p**i for i in range(s))


@pytest.mark.parametrize("q", [4, 8, 9, 16, 25, 27])
def test_mul_is_the_product_mod_the_tabled_modulus(q):
    # subspace texts and design files store these codes, so the encoding
    # itself is pinned, not only some field of order q
    import qnull.fields as fm

    f = field(q)
    mod = fm._MODULI[q]
    assert f.modulus == mod
    for a in range(q):
        for b in range(q):
            assert f.mul(a, b) == _schoolbook_mul(a, b, f.p, mod), (a, b)


def test_frobenius_in_characteristic_p():
    # (a+b)^p = a^p + b^p is a quick independent sanity check of the tables
    for q in (4, 8, 9):
        f = field(q)
        p = f.p

        def power(x, e):
            acc = 1
            for _ in range(e):
                acc = f.mul(acc, x)
            return acc

        for a in range(q):
            for b in range(q):
                assert power(f.add(a, b), p) == f.add(power(a, p), power(b, p))


def test_orders_above_the_table_limit_are_refused_before_any_table():
    # each table holds q^2 entries, and factoring 2^61 - 1 by trial division
    # alone would take about 1.5e9 steps: both must be refused up front
    assert Field.MAX_ORDER == 1024
    for q in (1031, 10007, 2**61 - 1):
        with pytest.raises(ValueError, match="above the limit 1024"):
            field(q)


def test_every_order_up_to_37_with_tables_on_record_is_accepted():
    primes = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)
    for q in primes + (4, 8, 9, 16, 25, 27):
        assert field(q).q == q


def _trial_division(m):
    return m >= 2 and all(m % d for d in range(2, math.isqrt(m) + 1))


def test_primality_matches_trial_division_and_refuses_past_its_bound():
    # the uncached function, so that 10^5 answers do not stay in the cache
    is_prime = _is_prime.__wrapped__
    assert [m for m in range(10**5) if is_prime(m) != _trial_division(m)] == []
    assert is_prime(2**61 - 1) and is_prime(3317044064679887385961813)
    # 561 is a Carmichael number; 3215031751 passes the bases 2, 3, 5 and 7,
    # and 399165290221 * 798330580441 every base below 41
    assert 399165290221 * 798330580441 == 318665857834031151167461
    for m in (561, 3215031751, 318665857834031151167461, 2**61 + 1):
        assert not is_prime(m), m
    # 1287836182261 * 2575672364521 passes all 13 bases: the first number refused
    limit = 1287836182261 * 2575672364521
    for m in (limit, 2**89 - 1):
        message = f"^{m} is too large: primality is decided below {limit}$"
        with pytest.raises(ValueError, match=message):
            is_prime(m)


def test_lane_ops_at_p_2_are_xor():
    assert fields._lane_ops(2, 1, 9) == (operator.xor, fields._xor_sums)
    assert fields._xor_sums([0b101, 0b010], [0b011, 0]) == [0b110, 0b101, 0b001, 0b010]


@pytest.mark.parametrize(
    "p, w, lanes", [(3, 3, 10), (3, 3, 11), (5, 4, 16), (7, 4, 17), (131, 9, 3), (3, 3, 30)]
)
def test_lane_sums_add_each_lane_mod_p(p, w, lanes):
    # vectors of 30 and 33 bits at p = 3, 64 and 68 at p = 5 and 7 (each side
    # of the 4- and 8-byte slots of the batch), 27 at p = 131 and 90 at p = 3
    # (past the slots), in products on each side of the batch's threshold,
    # against each lane added on its own
    add, sums = fields._lane_ops(p, w, lanes)
    rng, b, mask = random.Random(p * lanes), fields._BATCH_MIN, (1 << w) - 1

    def vectors(count):  # led by p - 1 in every lane, where each sum reaches p
        top = sum(p - 1 << j * w for j in range(lanes))
        rest = [sum(rng.randrange(p) << j * w for j in range(lanes)) for _ in range(count)]
        return ([top] + rest)[:count]

    def lane_add(x, y):
        lane = lambda v, j: v >> j * w & mask
        return sum((lane(x, j) + lane(y, j)) % p << j * w for j in range(lanes))

    for nv, nm in ((1, 1), (b - 1, 1), (1, b), (b // 3 + 1, 3), (3 * b, 7), (0, b), (b, 0)):
        vs, ms = vectors(nv), vectors(nm)
        want = [lane_add(v, m) for v in vs for m in ms]
        assert sums(vs, ms) == [add(v, m) for v in vs for m in ms] == want, (nv, nm)
