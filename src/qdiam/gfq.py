"""Exact arithmetic in the small finite fields GF(q), q <= 16.

Elements are the integers 0..q-1.  For prime q the integer is the residue
itself; for q = p^e the base-p digits of the integer are the coefficients of
a polynomial of degree < e over GF(p), multiplied modulo a fixed irreducible
polynomial.  Every operation is precomputed into dense tables so that row
reduction downstream is branch-free table lookup.

The reduction polynomials are pinned once and for all; changing them would
only relabel elements, never any count computed by this package.
"""

from __future__ import annotations

from functools import lru_cache
from math import isqrt

from .errors import NonPrimePower, ZeroInverse

SUPPORTED_ORDERS = (2, 3, 4, 5, 7, 8, 9, 11, 13, 16)

# Ascending coefficient lists over GF(p); the leading (monic) term included.
_REDUCTION = {
    4: (1, 1, 1),        # x^2 + x + 1
    8: (1, 1, 0, 1),     # x^3 + x + 1
    9: (2, 2, 1),        # x^2 + 2x + 2
    16: (1, 1, 0, 0, 1),  # x^4 + x + 1
}


def _prime_power(q):
    """Return (p, e) with q = p^e and p prime, or None."""
    if q < 2:
        return None
    # The least divisor of q above 1 is its least prime factor; q is prime
    # when it has none up to isqrt(q).
    p = next((p for p in range(2, isqrt(q) + 1) if q % p == 0), q)
    e = 0
    m = q
    while m % p == 0:
        m //= p
        e += 1
    return (p, e) if m == 1 else None


def _to_digits(x, p, e):
    return [(x // p**i) % p for i in range(e)]


def _from_digits(digits, p):
    x = 0
    for i, c in enumerate(digits):
        x += c * p**i
    return x


def _poly_mul_mod(a, b, p, reduction, e):
    """Multiply two coefficient lists modulo the monic reduction polynomial."""
    prod = [0] * (2 * e - 1)
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b):
                prod[i + j] = (prod[i + j] + ai * bj) % p
    for i in range(2 * e - 2, e - 1, -1):
        c = prod[i]
        if c:
            prod[i] = 0
            # x^i == -c * (reduction minus leading term) shifted by i-e
            for j in range(e):
                prod[i - e + j] = (prod[i - e + j] - c * reduction[j]) % p
    return prod[:e]


class FieldSpec:
    """Immutable description of GF(q) backed by dense operation tables."""

    __slots__ = ("q", "p", "e", "reduction_poly",
                 "add_table", "mul_table", "neg_table", "inv_table",
                 "sub_table")

    def __init__(self, q, p, e, reduction_poly):
        self.q = q
        self.p = p
        self.e = e
        self.reduction_poly = reduction_poly

        # For prime q (e = 1) the digits are the residue itself and the
        # reduction polynomial is empty, so this is arithmetic mod p.
        digits = [_to_digits(x, p, e) for x in range(q)]
        add = [[_from_digits([(a + b) % p for a, b in zip(digits[x], digits[y])], p)
                for y in range(q)] for x in range(q)]
        mul = [[_from_digits(_poly_mul_mod(digits[x], digits[y], p, reduction_poly, e), p)
                for y in range(q)] for x in range(q)]

        neg = [0] * q
        for x in range(q):
            for y in range(q):
                if add[x][y] == 0:
                    neg[x] = y
                    break

        inv = [0] * q
        for x in range(1, q):
            for y in range(1, q):
                if mul[x][y] == 1:
                    inv[x] = y
                    break
            else:
                raise NonPrimePower(
                    f"element {x} has no inverse; reduction polynomial for q={q} "
                    f"is not irreducible")

        self.add_table = tuple(tuple(row) for row in add)
        self.mul_table = tuple(tuple(row) for row in mul)
        self.neg_table = tuple(neg)
        self.inv_table = tuple(inv)
        self.sub_table = tuple(tuple(add[x][neg[y]] for y in range(q))
                               for x in range(q))

    def add(self, x, y):
        return self.add_table[x][y]

    def sub(self, x, y):
        return self.sub_table[x][y]

    def mul(self, x, y):
        return self.mul_table[x][y]

    def neg(self, x):
        return self.neg_table[x]

    def inv(self, x):
        if x == 0:
            raise ZeroInverse("0 has no multiplicative inverse")
        return self.inv_table[x]

    def __repr__(self):
        return f"FieldSpec(q={self.q})"

    def __reduce__(self):
        # Re-resolve through the cache so instances stay shared.
        return (field_new, (self.q,))


@lru_cache(maxsize=None)
def field_new(q: int) -> FieldSpec:
    """Build (or fetch the cached) GF(q) for a supported prime power q.

    Raises NonPrimePower for q with two distinct prime factors or q outside
    the supported range 2..16.
    """
    pe = _prime_power(q)
    if pe is None:
        raise NonPrimePower(f"{q} is not a prime power")
    if q not in SUPPORTED_ORDERS:
        raise NonPrimePower(f"q={q} not supported (supported: {SUPPORTED_ORDERS})")
    p, e = pe
    reduction = _REDUCTION.get(q, ())
    return FieldSpec(q, p, e, reduction)
