"""Exact arithmetic in cyclotomic fields Q(zeta_m) and their integers Z[zeta_m].

Values are kept in the power basis 1, zeta, ..., zeta^(phi(m)-1).  Reduction
modulo Phi_m lives only in ``CyclotomicIntegers``, in its table of the powers
of zeta and its product; ``Cyclotomic`` is the field layer over one cached ring
per conductor, over one int denominator.  Rational values are demoted to
conductor 1, where the ring is plain ints; ``Fraction`` only reads and prints
values.  ``add_at_conductors`` is the one rule for the conductor of a sum of
ring elements, used by ``Cyclotomic`` and by ``polys``.
"""

from __future__ import annotations

import operator
from fractions import Fraction
from functools import lru_cache
from math import gcd, lcm


@lru_cache(maxsize=None)
def cyclotomic_polynomial(m: int) -> tuple[int, ...]:
    """Integer coefficients of Phi_m, ascending degree, monic.

    Computed by exact division of x^m - 1 by the product of Phi_d over the
    proper divisors d of m.
    """
    if m < 1:
        raise ValueError("m must be positive")
    if m == 1:
        return (-1, 1)
    numerator = [-1] + [0] * (m - 1) + [1]  # x^m - 1
    for d in range(1, m):
        if m % d == 0:
            numerator = _poly_divide_exact(numerator, cyclotomic_polynomial(d))
    return tuple(numerator)


def _poly_divide_exact(num: list[int], den: tuple[int, ...]) -> list[int]:
    """Divide polynomials with integer coefficients; the remainder must vanish."""
    num = list(num)
    dn = len(den) - 1
    quot = [0] * (len(num) - dn)
    for i in range(len(num) - 1, dn - 1, -1):
        c, rem = divmod(num[i], den[dn])
        if rem:
            raise ArithmeticError("inexact polynomial division")
        quot[i - dn] = c
        if c:
            for j, dc in enumerate(den):
                num[i - dn + j] -= c * dc
    if any(num):
        raise ArithmeticError("nonzero remainder in cyclotomic division")
    return quot


class Cyclotomic:
    """num / den in Q(zeta_m): num in ``cyclotomic_ring(m)``, den > 0, gcd divided out.

    A rational value is demoted to conductor 1, num an int.  A sum
    (``add_at_conductors``) or a product lives at the lcm of its operands'
    conductors and is demoted only to conductor 1, so equal values can print at
    different conductors.  Lifts, products and roots come from ``cyclotomic_ring``.
    """

    __slots__ = ("conductor", "num", "den")

    def __init__(self, conductor: int, num, den: int = 1):
        if conductor != 1 and not any(num[1:]):
            conductor, num = 1, num[0]
        g = gcd(num, den) if conductor == 1 else gcd(*num, den)
        if g != 1:
            num = num // g if conductor == 1 else tuple([c // g for c in num])
            den //= g
        self.conductor, self.num, self.den = conductor, num, den

    @staticmethod
    def from_rational(q: int | Fraction) -> "Cyclotomic":
        return Cyclotomic(1, q.numerator, q.denominator)

    @staticmethod
    def zero() -> "Cyclotomic":
        return Cyclotomic(1, 0)

    @staticmethod
    def one() -> "Cyclotomic":
        return Cyclotomic(1, 1)

    @staticmethod
    def root_of_unity(m: int, k: int) -> "Cyclotomic":
        """zeta_m^k, stored at the minimal conductor m/gcd(k, m)."""
        return Cyclotomic(*root_at_conductor(m, k))

    def _lift(self, M: int):
        """The numerator written in Z[zeta_M], m | M."""
        if M == self.conductor:
            return self.num
        return cyclotomic_ring(M).combine(self.num if self.conductor > 1 else (self.num,),
                                          M // self.conductor)

    def _scaled(self, k: int):
        """The numerator times the int k."""
        return cyclotomic_ring(self.conductor).scale(self.num, k)

    def is_rational(self) -> bool:
        return self.conductor == 1

    def is_zero(self) -> bool:
        return self.conductor == 1 and self.num == 0

    def __bool__(self):
        return not self.is_zero()

    def __add__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        den = lcm(self.den, other.den)
        return Cyclotomic(*add_at_conductors(
            self.conductor, self._scaled(den // self.den),
            other.conductor, other._scaled(den // other.den)), den)

    __radd__ = __add__

    def __neg__(self):
        return Cyclotomic(self.conductor, self._scaled(-1), self.den)

    def __mul__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        M = lcm(self.conductor, other.conductor)
        return Cyclotomic(M, cyclotomic_ring(M).mul(self._lift(M), other._lift(M)),
                          self.den * other.den)

    __rmul__ = __mul__

    def __eq__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        M = lcm(self.conductor, other.conductor)
        scale = cyclotomic_ring(M).scale
        return scale(self._lift(M), other.den) == scale(other._lift(M), self.den)

    # values at different conductors can compare equal, so hashing is unsupported
    __hash__ = None

    def __str__(self):
        if self.conductor == 1:
            return str(Fraction(self.num, self.den))
        parts = []
        for j, c in enumerate(self.num):
            if not c:
                continue
            c = Fraction(c, self.den)
            if j == 0:
                parts.append(str(c))
            else:
                power = f"z{self.conductor}" if j == 1 else f"z{self.conductor}^{j}"
                parts.append(power if c == 1 else f"{c}*{power}")
        return " + ".join(parts).replace("+ -", "- ")

    def __repr__(self):
        return f"Cyclotomic({self})"

    def to_json(self):
        """Exact JSON form: rationals as numerator/denominator strings."""
        if self.conductor == 1:
            return {"num": str(self.num), "den": str(self.den)}
        coeffs = [Fraction(c, self.den) for c in self.num]
        return {"conductor": self.conductor,
                "coeffs": [{"num": str(c.numerator), "den": str(c.denominator)} for c in coeffs]}


def root_at_conductor(m: int, k: int):
    """zeta_m^k as (r, power) at r = m/gcd(k, m), or as (1, 1 or -1) when r <= 2."""
    if m < 1:
        raise ValueError("m must be positive")
    g = gcd(k, m)
    return (1 if m // g <= 2 else m // g), cyclotomic_ring(m // g).powers[k % m // g]


def add_at_conductors(ca: int, a, cb: int, b):
    """a at conductor ca plus b at conductor cb, as (conductor, value): at lcm(ca, cb),
    or at 1 when it is rational.  A value at c > 1 is its tuple in the power basis of
    Z[zeta_c] and is not rational; at conductor 1 it is an int."""
    if cb == 1:  # a rational addend leaves the other's irrational part as it is
        return (1, a + b) if ca == 1 else (ca, (a[0] + b,) + a[1:])
    if ca == 1:
        return cb, (a + b[0],) + b[1:]
    M = lcm(ca, cb)
    ring = cyclotomic_ring(M)
    total = tuple(map(operator.add, a if ca == M else ring.combine(a, M // ca),
                      b if cb == M else ring.combine(b, M // cb)))
    return (M, total) if any(total[1:]) else (1, total[0])


def _coerce(value) -> "Cyclotomic":
    if isinstance(value, Cyclotomic):
        return value
    if isinstance(value, (int, Fraction)):
        return Cyclotomic.from_rational(value)
    return NotImplemented


class CyclotomicIntegers:
    """The ring Z[zeta_m]: the one place that reduces modulo Phi_m.

    An element is a tuple of phi(m) ints in the power basis modulo Phi_m, the
    basis ``Cyclotomic`` uses, or a plain int when phi(m) = 1 (m = 1 or 2).
    The power basis is a basis, so equal elements have equal representations.
    ``add``, ``sub``, ``mul``, ``scale`` (by an int) and ``nonzero`` are plain
    functions, so loops can bind them to locals; ``Cyclotomic`` multiplies and
    lifts its numerators with ``mul`` and ``combine``.  ``mul`` is
    ``operator.mul`` at phi(m) = 1 and above that a schoolbook product reduced
    by ``powers``.
    """

    def __init__(self, m: int):
        phi = cyclotomic_polynomial(m)
        deg = len(phi) - 1
        self.m = m
        self.degree = deg
        # powers[k] = zeta_m^k: multiply by zeta, then reduce with the monic Phi_m
        powers = [[1] + [0] * (deg - 1)]
        for _ in range(m - 1):
            prev = powers[-1]
            top = prev[-1]
            powers.append([c - top * phi[t] for t, c in enumerate([0] + prev[:-1])])
        if deg == 1:
            self.powers = tuple(p[0] for p in powers)
            self.zero = 0
            self.add, self.sub, self.mul = operator.add, operator.sub, operator.mul
            self.scale = operator.mul
            self.nonzero = bool
            return
        self.powers = tuple(tuple(p) for p in powers)
        self.zero = (0,) * deg
        self.nonzero = any

        def add(a, b):
            return tuple(map(operator.add, a, b))

        def sub(a, b):
            return tuple(map(operator.sub, a, b))

        high = [self.powers[j % m] for j in range(deg, 2 * deg - 1)]

        def mul(a, b):
            prod = [0] * (2 * deg - 1)
            for i, x in enumerate(a):
                if x:
                    for j, y in enumerate(b):
                        prod[i + j] += x * y
            out = prod[:deg]
            for c, power in zip(prod[deg:], high):
                if c:
                    for t, w in enumerate(power):
                        out[t] += c * w
            return tuple(out)

        def scale(a, k):
            return tuple(k * x for x in a)

        self.add, self.sub, self.mul, self.scale = add, sub, mul, scale

    @property
    def one(self):
        return self.powers[0]

    def root(self, k: int):
        """zeta_m^k."""
        return self.powers[k % self.m]

    def combine(self, coeffs, step: int = 1):
        """The sum of c_j zeta_m^(j step) over coeffs c_j, for j step < m."""
        powers = self.powers
        if self.degree == 1:
            return sum(c * powers[j * step] for j, c in enumerate(coeffs))
        out = [0] * self.degree
        for j, c in enumerate(coeffs):
            if c:
                for t, w in enumerate(powers[j * step]):
                    out[t] += c * w
        return tuple(out)

    def to_cyclotomic(self, a, denominator: int = 1) -> Cyclotomic:
        """The element a / denominator of Q(zeta_m)."""
        coeffs = (a,) if self.degree == 1 else a
        total = Cyclotomic.zero()
        for j, c in enumerate(coeffs):
            if c:
                total = total + Cyclotomic.root_of_unity(self.m, j) * Cyclotomic(1, c, denominator)
        return total


@lru_cache(maxsize=None)
def cyclotomic_ring(m: int) -> CyclotomicIntegers:
    """The one ``CyclotomicIntegers(m)`` that ``Cyclotomic`` and the projector share."""
    return CyclotomicIntegers(m)
