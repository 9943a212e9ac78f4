"""Exact arithmetic in cyclotomic fields Q(zeta_m) and their integers Z[zeta_m].

Values are kept in canonical form modulo the m-th cyclotomic polynomial, in the
power basis 1, zeta, ..., zeta^(phi(m)-1).  Rational values are demoted to
conductor 1, so the common all-rational case runs on plain Fractions.
``CyclotomicIntegers`` holds elements of Z[zeta_m] at a fixed m as bare integer
coefficients in the same basis, for loops that never need a denominator.
"""

from __future__ import annotations

import operator
from fractions import Fraction
from functools import lru_cache
from math import gcd, lcm
from typing import Union

Rational = Union[int, Fraction]


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


def _reduce_mod_phi(coeffs: list[Fraction], m: int) -> list[Fraction]:
    """Remainder of a polynomial in zeta_m modulo Phi_m (Phi_m is monic)."""
    phi = cyclotomic_polynomial(m)
    deg = len(phi) - 1
    work = list(coeffs)
    for i in range(len(work) - 1, deg - 1, -1):
        c = work[i]
        if c:
            for j, pc in enumerate(phi):
                if pc:
                    work[i - deg + j] -= c * pc
    work = work[:deg]
    work += [Fraction(0)] * (deg - len(work))
    return work


class Cyclotomic:
    """An exact element of Q(zeta_m)."""

    __slots__ = ("conductor", "coeffs")

    def __init__(self, conductor: int, coeffs: tuple[Fraction, ...]):
        # assumes coeffs already reduced mod Phi_m; use the constructors below
        self.conductor = conductor
        self.coeffs = coeffs

    @staticmethod
    def from_rational(q: Rational) -> "Cyclotomic":
        return Cyclotomic(1, (Fraction(q),))

    @staticmethod
    def zero() -> "Cyclotomic":
        return Cyclotomic(1, (Fraction(0),))

    @staticmethod
    def one() -> "Cyclotomic":
        return Cyclotomic(1, (Fraction(1),))

    @staticmethod
    def root_of_unity(m: int, k: int) -> "Cyclotomic":
        """zeta_m^k, stored at the minimal conductor m/gcd(k, m)."""
        if m < 1:
            raise ValueError("m must be positive")
        k %= m
        g = gcd(k, m)
        m, k = m // g, k // g
        if m == 1:
            return Cyclotomic.one()
        if m == 2:
            return Cyclotomic.from_rational(-1)
        raw = [Fraction(0)] * (k + 1)
        raw[k] = Fraction(1)
        return Cyclotomic._canonical(m, _reduce_mod_phi(raw, m))

    @staticmethod
    def _canonical(m: int, reduced: list[Fraction]) -> "Cyclotomic":
        if m > 1 and not any(reduced[1:]):
            return Cyclotomic(1, (reduced[0],))
        return Cyclotomic(m, tuple(reduced))

    def _lift(self, M: int) -> list[Fraction]:
        """Coefficients of this value written in Q(zeta_M), m | M."""
        step = M // self.conductor
        raw = [Fraction(0)] * ((len(self.coeffs) - 1) * step + 1)
        for j, c in enumerate(self.coeffs):
            raw[j * step] = c
        return _reduce_mod_phi(raw, M)

    def is_rational(self) -> bool:
        return self.conductor == 1

    def as_rational(self) -> Fraction:
        if self.conductor != 1:
            raise ValueError(f"{self!r} is not rational")
        return self.coeffs[0]

    def is_zero(self) -> bool:
        return self.conductor == 1 and self.coeffs[0] == 0

    def __bool__(self):
        return not self.is_zero()

    def __add__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        if self.conductor == 1 and other.conductor == 1:
            return Cyclotomic(1, (self.coeffs[0] + other.coeffs[0],))
        M = lcm(self.conductor, other.conductor)
        a, b = self._lift(M), other._lift(M)
        return Cyclotomic._canonical(M, [x + y for x, y in zip(a, b)])

    __radd__ = __add__

    def __neg__(self):
        return Cyclotomic(self.conductor, tuple(-c for c in self.coeffs))

    def __sub__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        return _coerce(other) + (-self)

    def __mul__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        if self.conductor == 1 and other.conductor == 1:
            return Cyclotomic(1, (self.coeffs[0] * other.coeffs[0],))
        if self.conductor == 1:
            q = self.coeffs[0]
            return Cyclotomic._canonical(other.conductor, [q * c for c in other.coeffs])
        if other.conductor == 1:
            q = other.coeffs[0]
            return Cyclotomic._canonical(self.conductor, [q * c for c in self.coeffs])
        M = lcm(self.conductor, other.conductor)
        a, b = self._lift(M), other._lift(M)
        prod = [Fraction(0)] * (len(a) + len(b) - 1)
        for i, x in enumerate(a):
            if x:
                for j, y in enumerate(b):
                    if y:
                        prod[i + j] += x * y
        return Cyclotomic._canonical(M, _reduce_mod_phi(prod, M))

    __rmul__ = __mul__

    def __eq__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        if self.conductor == other.conductor:
            return self.coeffs == other.coeffs
        M = lcm(self.conductor, other.conductor)
        return self._lift(M) == other._lift(M)

    # values at different conductors can compare equal, so hashing is unsupported
    __hash__ = None

    def __str__(self):
        if self.conductor == 1:
            q = self.coeffs[0]
            return str(q.numerator) if q.denominator == 1 else f"{q.numerator}/{q.denominator}"
        parts = []
        for j, c in enumerate(self.coeffs):
            if not c:
                continue
            coeff = str(c.numerator) if c.denominator == 1 else f"{c.numerator}/{c.denominator}"
            if j == 0:
                parts.append(coeff)
            else:
                power = f"z{self.conductor}" if j == 1 else f"z{self.conductor}^{j}"
                parts.append(power if c == 1 else f"{coeff}*{power}")
        return " + ".join(parts).replace("+ -", "- ")

    def __repr__(self):
        return f"Cyclotomic({self})"

    def to_json(self):
        """Exact JSON form: rationals as numerator/denominator strings."""
        if self.conductor == 1:
            q = self.coeffs[0]
            return {"num": str(q.numerator), "den": str(q.denominator)}
        return {
            "conductor": self.conductor,
            "coeffs": [{"num": str(c.numerator), "den": str(c.denominator)}
                       for c in self.coeffs],
        }


def _coerce(value) -> "Cyclotomic":
    if isinstance(value, Cyclotomic):
        return value
    if isinstance(value, (int, Fraction)):
        return Cyclotomic.from_rational(value)
    return NotImplemented


class CyclotomicIntegers:
    """The ring Z[zeta_m], for exact integer arithmetic in hot loops.

    An element is a tuple of phi(m) ints in the power basis modulo Phi_m, the
    basis ``Cyclotomic`` uses, or a plain int when phi(m) = 1 (m = 1 or 2).
    The power basis is a basis, so equal elements have equal representations.
    ``add``, ``sub``, ``mul``, ``scale`` (by an int) and ``nonzero`` are plain
    functions, so loops can bind them to locals.
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
        high = [self.powers[j % m] for j in range(deg, 2 * deg - 1)]

        def add(a, b):
            return tuple(map(operator.add, a, b))

        def sub(a, b):
            return tuple(map(operator.sub, a, b))

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

    def to_cyclotomic(self, a, denominator: int = 1) -> Cyclotomic:
        """The element a / denominator of Q(zeta_m)."""
        coeffs = (a,) if self.degree == 1 else a
        total = Cyclotomic.zero()
        for j, c in enumerate(coeffs):
            if c:
                total = total + Cyclotomic.root_of_unity(self.m, j) * Fraction(c, denominator)
        return total
