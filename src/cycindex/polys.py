"""Sparse exact polynomials: cycle indices in power sums and their expansions.

PowerSumPoly lives in p_1..p_d with cyclotomic coefficients and is isobaric:
every exponent vector (c_1,...,c_d) satisfies sum(s * c_s) = weight.
MonomialPoly lives in x_0..x_n.  Both subclass one sparse core, ``_SparsePoly``,
and differ in the key rule, the size field and the variable names; only
PowerSumPoly has a product.  Terms print in reverse lexicographic order on padded
exponent vectors, which is graded for the polynomials produced here.

``cycle_index`` and ``specialize`` (p_s -> x_0^s + ... + x_n^s, giving g_n) add
int (conductor, value) pairs over one denominator with ``add_at_conductors``, in
the order that fixes each conductor; a ``Cyclotomic`` coefficient is such a pair.
``specialize`` checks symmetry on those int pairs: a term and its image under a
swap of variables are summed from the same counts in the same order, so their pairs
are equal.  The insertion rule p_s -> Z_V(p_s, p_2s, ...) (``plethysm_insert``)
adds Cyclotomics.
"""

from __future__ import annotations

from itertools import zip_longest
from math import comb, lcm
from typing import Mapping

from .caps import Caps, CapExceeded, DEFAULT_CAPS
from .characters import LinearCharacter
from .cyclo import Cyclotomic, add_at_conductors, cyclotomic_ring, root_at_conductor
from .perms import PermGroup, cycle_type


class _SparsePoly:
    """Exponent tuples mapped to nonzero cyclotomic coefficients.

    A subclass names its size field ``SIZE`` (the attribute is ``size``), its
    variable letter ``VAR`` and the index ``FIRST`` of its first variable, says
    whether zero polynomials of different sizes differ (``SIZE_IN_EQ``), and
    supplies the key rule ``_key`` (normal form of an exponent vector,
    ValueError if it does not fit).  Terms with a zero coefficient are dropped
    before their key is looked at.
    """

    SIZE: str
    VAR: str
    FIRST: int
    SIZE_IN_EQ: bool

    def __init__(self, size: int, terms: Mapping[tuple[int, ...], Cyclotomic]):
        self.size = size
        self.terms = {self._key(exps): coeff for exps, coeff in terms.items() if coeff}

    def add(self, other):
        if self.size != other.size:
            raise ValueError(f"{self.SIZE} mismatch: {self.size} != {other.size}")
        out = dict(self.terms)
        for exps, coeff in other.terms.items():
            prev = out.get(exps)
            out[exps] = coeff if prev is None else prev + coeff
        return type(self)(self.size, out)

    def scale(self, factor):
        return type(self)(self.size, {e: c * factor for e, c in self.terms.items()})

    def sorted_terms(self) -> list[tuple[tuple[int, ...], Cyclotomic]]:
        width = max((len(e) for e in self.terms), default=0)
        return sorted(self.terms.items(),
                      key=lambda kv: kv[0] + (0,) * (width - len(kv[0])),
                      reverse=True)

    def __eq__(self, other):
        if not isinstance(other, type(self)):
            return NotImplemented
        return self.terms == other.terms and (
            self.size == other.size or not self.SIZE_IN_EQ)

    def render_text(self) -> str:
        pieces = []
        for exps, coeff in self.sorted_terms():
            mono = "*".join(f"{self.VAR}{i + self.FIRST}" + (f"^{e}" if e > 1 else "")
                            for i, e in enumerate(exps) if e)
            rational = coeff.is_rational()
            negative = rational and coeff.num < 0
            shown = -coeff if negative else coeff
            if not mono:
                body = _coeff_text(shown)
            elif rational and coeff.den == 1 and abs(coeff.num) == 1:
                body = mono
            else:
                body = f"{_coeff_text(shown)}*{mono}"
            if pieces:
                pieces.append(f"{'-' if negative else '+'} {body}")
            else:
                pieces.append(f"-{body}" if negative else body)
        return " ".join(pieces) if pieces else "0"

    def to_json(self):
        return {
            self.SIZE: self.size,
            "terms": [{"exponents": list(exps), "coeff": coeff.to_json()}
                      for exps, coeff in self.sorted_terms()],
        }

    def __repr__(self):
        return f"{type(self).__name__}({self.render_text()})"


def _coeff_text(coeff: Cyclotomic) -> str:
    if coeff.is_rational() and coeff.den == 1:
        return str(coeff)
    return f"({coeff})"


class PowerSumPoly(_SparsePoly):
    """Sparse isobaric polynomial in the power sums p_1, p_2, ...

    Keys carry no trailing zeros.  Equality ignores the weight, which only
    tells zero polynomials apart.
    """

    SIZE, VAR, FIRST, SIZE_IN_EQ = "weight", "p", 1, False

    @property
    def weight(self) -> int:
        return self.size

    def _key(self, exps):
        key = list(exps)
        while key and key[-1] == 0:
            key.pop()
        if sum(s * c for s, c in enumerate(key, start=1)) != self.size:
            raise ValueError(f"term {tuple(key)} is not isobaric of weight {self.size}")
        return tuple(key)

    def mul(self, other: "PowerSumPoly", caps: Caps = DEFAULT_CAPS) -> "PowerSumPoly":
        """Product, padding exponent vectors of unequal length with zeros."""
        if len(self.terms) * len(other.terms) > caps.specialize_terms:
            raise CapExceeded("monomial product exceeds the term cap")
        out: dict[tuple[int, ...], Cyclotomic] = {}
        for ea, ca in self.terms.items():
            for eb, cb in other.terms.items():
                key = tuple(x + y for x, y in zip_longest(ea, eb, fillvalue=0))
                prev = out.get(key)
                out[key] = ca * cb if prev is None else prev + ca * cb
        return PowerSumPoly(self.weight + other.weight, out)

    @staticmethod
    def unit() -> "PowerSumPoly":
        return PowerSumPoly(0, {(): Cyclotomic.one()})

    @staticmethod
    def zero(weight: int) -> "PowerSumPoly":
        return PowerSumPoly(weight, {})


class MonomialPoly(_SparsePoly):
    """Sparse polynomial in x_0, ..., x_{size-1}; every key has length ``size``."""

    SIZE, VAR, FIRST, SIZE_IN_EQ = "nvars", "x", 0, True

    def _key(self, exps):
        key = tuple(exps)
        if len(key) != self.size:
            raise ValueError(f"exponent vector {key} has wrong length")
        return key


# The power-sum product the product rule is checked with.
psum_mul = PowerSumPoly.mul


def cycle_index(G: PermGroup, chi: LinearCharacter) -> PowerSumPoly:
    """Generalized cycle index: |W|^-1 sum over sigma of chi(sigma) p^cycle_type(sigma).

    The values are summed in the element order of chi's group, one shared
    int (conductor, value) root of unity per exponent, and divided by |W| at the end.
    """
    if chi.group != G:
        raise ValueError("character is defined on a different group")
    roots = {e: root_at_conductor(chi.order_m, e) for e in set(chi.exponents)}
    acc: dict[tuple[int, ...], tuple] = {}
    for key, e in zip(map(cycle_type, chi.group.images), chi.exponents):
        prev = acc.get(key)
        acc[key] = roots[e] if prev is None else add_at_conductors(*prev, *roots[e])
    return PowerSumPoly(G.degree, {k: Cyclotomic(*v, G.order) for k, v in acc.items()})


def specialize(Z: PowerSumPoly, n: int, caps: Caps = DEFAULT_CAPS) -> MonomialPoly:
    """Substitute p_s -> x_0^s + ... + x_n^s and expand exactly.

    Each term's product of power sums is expanded from the constant monomial,
    one factor p_s at a time, s ascending, as int counts of exponent vectors.
    Each count scales the term's int coefficient over the common denominator D
    of Z, and the products are summed in ``sorted_terms`` order, the order that
    fixes the conductor of a non-rational sum.
    """
    if n < 0:
        raise ValueError("n must be nonnegative")
    check_monomial_cap(Z.weight, n, caps)
    nvars = n + 1
    acc: dict[tuple[int, ...], tuple] = {}
    D = lcm(1, *[coeff.den for coeff in Z.terms.values()])
    for exps, coeff in Z.sorted_terms():
        conductor, ring = coeff.conductor, cyclotomic_ring(coeff.conductor)
        value = ring.scale(coeff.num, D // coeff.den)
        counts: dict[tuple[int, ...], int] = {(0,) * nvars: 1}
        for s in [s for s, c in enumerate(exps, start=1) for _ in range(c)]:
            if len(counts) * nvars > caps.specialize_terms:
                raise CapExceeded("monomial product exceeds the term cap")
            expanded: dict[tuple[int, ...], int] = {}
            for key, count in counts.items():
                for i in range(nvars):
                    moved = key[:i] + (key[i] + s,) + key[i + 1:]
                    expanded[moved] = expanded.get(moved, 0) + count
            counts = expanded
        for key, count in counts.items():
            prev = acc.get(key)
            item = conductor, ring.scale(value, count)
            acc[key] = item if prev is None else add_at_conductors(*prev, *item)
    if not _symmetric_terms(acc):
        raise AssertionError("specialized cycle index is not symmetric")
    return MonomialPoly(nvars, {k: Cyclotomic(*v, D) for k, v in acc.items()})


def check_monomial_cap(degree: int, n: int, caps: Caps = DEFAULT_CAPS) -> None:
    """Refuse degree-d polynomials in x_0..x_n if C(n+d, d) monomials * (n+1) > work cap."""
    k = min(degree, n)  # C(n+d, d) >= 2^k, so comb runs only on a small k
    if k >= caps.orbit_work.bit_length() or comb(n + degree, k) * (n + 1) > caps.orbit_work:
        raise CapExceeded(f"C({n + degree},{degree}) monomials of {n + 1} exponents "
                          f"exceed work cap {caps.orbit_work}")


def psum_reindex(Z: PowerSumPoly, s: int) -> PowerSumPoly:
    """p_k -> p_{ks} inside Z, giving an isobaric polynomial of weight s * Z.weight."""
    out: dict[tuple[int, ...], Cyclotomic] = {}
    for exps, coeff in Z.terms.items():
        new = [0] * (len(exps) * s)
        for k, c in enumerate(exps, start=1):
            if c:
                new[k * s - 1] = c
        out[tuple(new)] = coeff
    return PowerSumPoly(Z.weight * s, out)


def plethysm_insert(Z_outer: PowerSumPoly, Z_inner: PowerSumPoly,
                    caps: Caps = DEFAULT_CAPS) -> PowerSumPoly:
    """Insertion: substitute p_s -> Z_inner(p_s, p_2s, ..., p_rs) inside Z_outer."""
    images: dict[int, PowerSumPoly] = {}
    result = PowerSumPoly.zero(Z_outer.weight * Z_inner.weight)
    for exps, coeff in Z_outer.sorted_terms():
        prod = PowerSumPoly.unit()
        for s, c in enumerate(exps, start=1):
            if c and s not in images:
                images[s] = psum_reindex(Z_inner, s)
            for _ in range(c):
                prod = prod.mul(images[s], caps)
        result = result.add(prod.scale(coeff))
    return result


def is_symmetric(P: MonomialPoly) -> bool:
    """Invariance under every adjacent transposition of the variables."""
    return _symmetric_terms(P.terms)


def _symmetric_terms(terms: Mapping[tuple[int, ...], object]) -> bool:
    """Each term's image under each swap of two unequal neighbouring exponents holds
    a value == to its own; a missing image fails, so zero values must be absent or
    stored at both."""
    for exps, value in terms.items():
        for i in range(len(exps) - 1):
            a, b = exps[i], exps[i + 1]
            if a != b and terms.get(exps[:i] + (b, a) + exps[i + 2:]) != value:
                return False
    return True
