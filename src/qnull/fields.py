"""Exact arithmetic in GF(p^s) for small prime powers.

Elements are integer codes in [0, q).  The code's base-p digits c_0..c_{s-1}
are the coefficients of the polynomial sum(c_i x^i), so code 0 is the zero
element, code 1 the one element, and code p the class of x.  For s > 1 the
quotient modulus comes from a fixed table so that encodings are reproducible.
The table entry is not trusted: it is certified by the order of x, whose
powers, walked once at construction, must reach every nonzero element.

Arithmetic is table-driven: a Field instance precomputes full add/mul/inv
tables at construction, which keeps inner loops at list-indexing cost; they
grow as q^2, so orders above Field.MAX_ORDER are refused before any is built.

Vectors over GF(p) packed one residue per lane of an int are added by the
lane ops of _lane_ops, the one factory that both the packed subspaces
(grassmann) and the GF(p) elimination (linalg) use: XOR at p = 2, else one
integer add and a lane-wise fold of p, with long products of short vectors
listed in one big-int pass.
"""

from __future__ import annotations

import operator
import sys
from array import array
from functools import lru_cache
from typing import Callable

__all__ = ["Field", "field"]

#: the fewest vectors the sums of _lane_ops list in one big-int pass; per
#: vector, the batch and the inline formula break even between 24 and 54
#: vectors at q = 3, 5, 7, 9 and 27 (4- and 8-byte slots)
_BATCH_MIN = 32

# Modulus polynomials for the non-prime orders, low degree first:
# GF(4): x^2+x+1, GF(8): x^3+x+1, GF(9): x^2+2x+2, GF(16): x^4+x+1,
# GF(25): x^2+4x+2, GF(27): x^3+2x+1.
_MODULI: dict[int, tuple[int, ...]] = {
    4: (1, 1, 1),
    8: (1, 1, 0, 1),
    9: (2, 2, 1),
    16: (1, 1, 0, 0, 1),
    25: (2, 4, 1),
    27: (1, 2, 0, 1),
}


# Miller-Rabin with the first 13 primes as bases decides primality exactly
# below this bound (Sorenson and Webster, Math. Comp. 86, 2017)
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_MR_LIMIT = 3317044064679887385961981


@lru_cache(maxsize=None)
def _is_prime(m: int) -> bool:
    """Exact primality of m, refused with ValueError at _MR_LIMIT and above."""
    if m >= _MR_LIMIT:
        raise ValueError(f"{m} is too large: primality is decided below {_MR_LIMIT}")
    if m < 2 or any(m % a == 0 for a in _MR_BASES):
        return m in _MR_BASES
    d, s = m - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    for a in _MR_BASES:
        x = pow(a, d, m)
        if x == 1:
            continue
        for _ in range(s):  # m passes if some x^(2^r) with r < s is -1
            if x == m - 1:
                break
            x = x * x % m
        else:  # a witnesses that m is composite
            return False
    return True


def _factor_prime_power(q: int) -> tuple[int, int]:
    """Return (p, s) with q = p^s and p prime, or raise ValueError."""
    if q < 2:
        raise ValueError(f"field order must be >= 2, got {q}")
    p = next(d for d in range(2, q + 1) if q % d == 0)  # the least factor is prime
    s, m = 0, q
    while m % p == 0:
        m, s = m // p, s + 1
    if m != 1:
        raise ValueError(f"{q} is not a prime power")
    return p, s


def _poly_digits(code: int, p: int, s: int) -> list[int]:
    out = []
    for _ in range(s):
        out.append(code % p)
        code //= p
    return out


def _poly_code(digits: list[int], p: int) -> int:
    c = 0
    for d in reversed(digits):
        c = c * p + d
    return c


def _powers_of_x(q: int, p: int, s: int, mod: tuple[int, ...]) -> list[int]:
    """The codes of x^0, ..., x^(q-2) modulo the monic modulus of degree s,
    refused unless x first returns to 1 after exactly q-1 steps: then they are
    q-1 distinct units of a ring of q elements, so the ring is a field and the
    modulus is irreducible and primitive."""
    if len(mod) != s + 1 or mod[s] != 1:
        raise ValueError(f"modulus for GF({q}) must be monic of degree {s}")
    one = [1] + [0] * (s - 1)
    digits, powers = one, []
    for _ in range(q - 1):
        powers.append(_poly_code(digits, p))
        # times x: each digit moves up one place, and the top digit d comes
        # back as -d (mod[0] + ... + mod[s-1] x^(s-1))
        d = digits[-1]
        digits = [(c - d * f) % p for c, f in zip([0] + digits[:-1], mod)]
        if digits == one:
            break
    if digits != one or len(powers) != q - 1:
        raise ValueError(
            f"modulus for GF({q}) is reducible or not primitive: "
            f"x does not have order {q - 1}"
        )
    return powers


class Field:
    """GF(p^s) with precomputed operation tables.

    Use :func:`field` to get the cached instance for an order; instances from
    the cache are canonical, so identity comparison between them is safe.
    """

    __slots__ = ("p", "s", "q", "modulus", "_add", "_mul", "_inv", "_neg")

    #: orders that must be available; larger ones work if a modulus is listed
    REQUIRED_ORDERS = (2, 3, 4, 5, 7, 8, 9)
    #: the largest order accepted: the add and mul tables hold q^2 entries each
    MAX_ORDER = 1024
    #: the largest ambient dimension n accepted for GF(q)^n: its packed layout
    #: holds n unit rows of up to n lanes each, O(n^2) bits, and a subspace
    #: count [n, n/2]_q has about (n^2/4) log2(q) bits
    MAX_DIMENSION = 256

    def __init__(self, q: int):
        if q > self.MAX_ORDER:
            raise ValueError(f"field order {q} is above the limit {self.MAX_ORDER}")
        p, s = _factor_prime_power(q)
        self.p = p
        self.s = s
        self.q = q
        if s == 1:
            self.modulus: tuple[int, ...] = ()
        else:
            if q not in _MODULI:
                raise ValueError(f"no modulus polynomial on record for GF({q})")
            self.modulus = _MODULI[q]
        self._build_tables()

    def _build_tables(self) -> None:
        p, s, q = self.p, self.s, self.q
        if s == 1:
            self._add = [[(a + b) % p for b in range(q)] for a in range(q)]
            self._mul = [[(a * b) % p for b in range(q)] for a in range(q)]
        else:
            self._add = [
                [
                    _poly_code(
                        [
                            (x + y) % p
                            for x, y in zip(
                                _poly_digits(a, p, s), _poly_digits(b, p, s)
                            )
                        ],
                        p,
                    )
                    for b in range(q)
                ]
                for a in range(q)
            ]
            exp = _powers_of_x(q, p, s, self.modulus)
            log = {e: i for i, e in enumerate(exp)}
            self._mul = [
                [exp[(log[a] + log[b]) % (q - 1)] if a and b else 0 for b in range(q)]
                for a in range(q)
            ]
        # q is prime or x generates the nonzero elements: each has an inverse
        self._neg = [row.index(0) for row in self._add]
        self._inv = [0] + [row.index(1) for row in self._mul[1:]]

    # -- arithmetic on int codes ------------------------------------------

    def add(self, a: int, b: int) -> int:
        return self._add[a][b]

    def mul(self, a: int, b: int) -> int:
        return self._mul[a][b]

    def neg(self, a: int) -> int:
        return self._neg[a]

    def inv(self, a: int) -> int:
        if a == 0:
            raise ZeroDivisionError(f"0 has no inverse in GF({self.q})")
        return self._inv[a]

    def is_modulus(self, r: int) -> bool:
        """True iff r = p^i with 1 <= i <= s: a modulus for coefficients over GF(q)."""
        return 2 <= r <= self.q and self.q % r == 0

    def __repr__(self) -> str:
        return f"Field(GF({self.q}))"


def _xor_sums(vs: list[int], ms: list[int]) -> list[int]:
    """The sums of _lane_ops at p = 2, or at any p where no lane is nonzero in both."""
    return [v ^ m for v in vs for m in ms]


@lru_cache(maxsize=256)
def _lane_ops(p: int, w: int, lanes: int) -> tuple[Callable, Callable]:
    """Lane-wise (a + b) mod p on ints of `lanes` w-bit lanes, 2^(w-1) >= p
    at odd p: add(a, b), and sums(vs, ms), which lists add(a, b) for a in vs
    for b in ms in one call.  At p = 2 they are XOR and _xor_sums.

    Each lane of a and b holds a residue below p.  Adding 2^(w-1) - p sets a
    lane's high bit exactly when its sum reaches p, and no lane carries into
    the next, so one mask and one multiply take p off where it is due.

    sums lists a product of _BATCH_MIN or more vectors of at most 64 bits in
    a few C-level big-int steps, not one Python step per vector.  Each vector
    of the product gets a slot of an array, 4 bytes (8 above 32 bits): vs[i]
    in the len(ms) slots of row i, ms tiled once per row.  Read as ints, the
    two take the formula once, with its constants repeated per slot, and the
    array read back from the result is the list, in the same order.  The
    padding bits of a slot stay 0, since no lane carries.  Wider vectors, and
    shorter products, take the formula inline, one step per vector.

    The ops hold no state, so they are cached by (p, w, lanes): a support
    search that ranks each leaf on the same lanes builds them once.
    """
    if p == 2:
        return operator.xor, _xor_sums
    ones = ((1 << w * lanes) - 1) // ((1 << w) - 1)  # the low bit of every lane
    fold, high, sh = ones * ((1 << (w - 1)) - p), ones << (w - 1), w - 1
    size, order = 4 if w * lanes <= 32 else 8, sys.byteorder
    code = "I" if size == 4 else "Q"
    # `ones` as one slot's bytes, None if a vector does not fit a slot
    one = ones.to_bytes(size, order) if w * lanes <= 64 else None

    def add(a: int, b: int) -> int:
        t = a + b
        return t - (((t + fold) & high) >> sh) * p

    def sums(vs: list[int], ms: list[int]) -> list[int]:
        n, m = len(vs) * len(ms), len(ms)
        if n < _BATCH_MIN or one is None:
            return [
                (t := a + b) - (((t + fold) & high) >> sh) * p for a in vs for b in ms
            ]
        buf, row = array(code, bytes(n * size)), array(code, vs)
        for j in range(m):
            buf[j::m] = row
        t = int.from_bytes(buf, order) + int.from_bytes(array(code, ms) * len(vs), order)
        o = int.from_bytes(one * n, order)  # the repeated fold is h - o * p
        h, out = o << sh, array(code)
        out.frombytes((t - (((t + h - o * p) & h) >> sh) * p).to_bytes(n * size, order))
        return out.tolist()

    return add, sums


@lru_cache(maxsize=None)
def field(q: int) -> Field:
    """The canonical Field instance of order q (cached, safe to compare by id)."""
    return Field(q)
