"""One-dimensional characters of permutation groups.

Character values are roots of unity and are stored as exponents k modulo a
shared order m, so the value at g is zeta_m^k.  Cyclotomic objects are only
materialized when values enter polynomial coefficients.
"""

from __future__ import annotations

from itertools import product as iter_product
from math import gcd, lcm

from .caps import Caps, CapExceeded, DEFAULT_CAPS
from .cyclo import Cyclotomic
from .perms import (PermGroup, Permutation, compose, cycle_type,
                    decompose_wreath_element, derived_subgroup,
                    direct_product_embed, split_product_element)


class LinearCharacter:
    """A homomorphism from a permutation group into the m-th roots of unity."""

    def __init__(self, group: PermGroup, order_m: int, exponents: tuple[int, ...],
                 name: str | None = None):
        if len(exponents) != group.order:
            raise ValueError("one exponent per group element required")
        if exponents[0] % order_m != 0:
            raise ValueError("character must map the identity to 1")
        self.group = group
        self.order_m = order_m
        self.exponents = tuple(e % order_m for e in exponents)
        self.name = name

    def exponent(self, g: Permutation) -> int:
        return self.exponents[self.group.index(g)]

    def value(self, g: Permutation) -> Cyclotomic:
        return Cyclotomic.root_of_unity(self.order_m, self.exponent(g))

    __call__ = value

    def is_unit(self) -> bool:
        return all(e == 0 for e in self.exponents)

    def image_order(self) -> int:
        """Order of the image of the character, a divisor of order_m."""
        return lcm(1, *(self.order_m // gcd(e, self.order_m) for e in self.exponents))

    def is_trivial_on(self, elems) -> bool:
        return all(self.exponent(g) == 0 for g in elems)

    def __eq__(self, other):
        if not isinstance(other, LinearCharacter):
            return NotImplemented
        if self.group != other.group:
            return False
        m = lcm(self.order_m, other.order_m)
        scale_a, scale_b = m // self.order_m, m // other.order_m
        return all((ea * scale_a - eb * scale_b) % m == 0
                   for ea, eb in zip(self.exponents, other.exponents))

    __hash__ = None

    def __repr__(self):
        tag = self.name or f"order {self.image_order()}"
        return f"LinearCharacter({tag} on {self.group!r})"


def validate_homomorphism(chi: LinearCharacter) -> None:
    """Check chi(x g) = chi(x) chi(g) for every element x and generator g.

    This suffices: the relation extends to arbitrary pairs by induction on the
    generator word length of the second factor.
    """
    G, m = chi.group, chi.order_m
    for x in G.elements:
        ex = chi.exponent(x)
        for g in G.generators:
            if (chi.exponent(compose(x, g)) - ex - chi.exponent(g)) % m != 0:
                raise ValueError(f"not a homomorphism at ({x!r}, {g!r})")


def unit_character(G: PermGroup) -> LinearCharacter:
    return LinearCharacter(G, 1, (0,) * G.order, name="unit")


def sign_character(G: PermGroup) -> LinearCharacter:
    """Restriction of the alternating character of S_d to G."""
    d = G.degree
    exponents = tuple((d - sum(cycle_type(g))) % 2 for g in G.elements)
    m = 2 if any(exponents) else 1
    chi = LinearCharacter(G, m, exponents, name="sign")
    validate_homomorphism(chi)
    return chi


def abelianization_exponent(G: PermGroup, derived: PermGroup) -> int:
    """Exponent of G/[G,G]: the lcm over g in G of the least t >= 1 with g^t in [G,G]."""
    m = 1
    for g in G.elements:
        power, t = g, 1
        while power not in derived:
            power = compose(power, g)
            t += 1
        m = lcm(m, t)
    return m


def enumerate_linear_characters(G: PermGroup, caps: Caps = DEFAULT_CAPS
                                ) -> list[LinearCharacter]:
    """All linear characters of G, deterministically ordered, unit character first.

    Each of the m^#gens generator assignments walks the group once, so that
    search is bounded by the work cap.
    """
    derived = derived_subgroup(G, caps=caps)
    expected = G.order // derived.order
    m = abelianization_exponent(G, derived)
    gens = G.generators
    work = m ** len(gens) * G.order * len(gens)
    if work > caps.orbit_work:
        raise CapExceeded(f"m^#gens * |G| * #gens = {work} for the character search "
                          f"exceeds work cap {caps.orbit_work}")
    found: list[tuple[int, ...]] = []
    seen: set[tuple[int, ...]] = set()
    for assignment in iter_product(range(m), repeat=len(gens)):
        table = _extend_to_group(G, gens, assignment, m)
        if table is not None and table not in seen:
            seen.add(table)
            found.append(table)
    if len(found) != expected:
        raise AssertionError(
            f"found {len(found)} characters, expected |G/[G,G]| = {expected}")
    found.sort()
    out = []
    for k, table in enumerate(found):
        name = "unit" if not any(table) else f"index:{k}"
        chi = LinearCharacter(G, m, table, name=name)
        validate_homomorphism(chi)
        out.append(chi)
    return out


def _extend_to_group(G: PermGroup, gens, assignment, m) -> tuple[int, ...] | None:
    """Extend generator exponents to the whole group along BFS words; None if inconsistent.

    The walk compares every (element, generator) edge once, so a table it
    returns satisfies chi(x g) = chi(x) chi(g) everywhere.
    """
    values: dict[Permutation, int] = {G.identity: 0}
    frontier = [G.identity]
    while frontier:
        nxt = []
        for x in frontier:
            for g, e in zip(gens, assignment):
                y = compose(x, g)
                v = (values[x] + e) % m
                if y in values:
                    if values[y] != v:
                        return None
                else:
                    values[y] = v
                    nxt.append(y)
        frontier = nxt
    if len(values) != G.order:
        return None
    return tuple(values[g] for g in G.elements)


def kernel(chi: LinearCharacter) -> PermGroup:
    """H = {g : chi(g) = 1}, a normal subgroup of index image_order."""
    elems = [g for g in chi.group.elements if chi.exponent(g) == 0]
    H = PermGroup.from_elements(elems)
    if chi.group.order != H.order * chi.image_order():
        raise AssertionError("kernel index does not match the character image order")
    return H


def product_character(chi: LinearCharacter, theta: LinearCharacter,
                      P: PermGroup | None = None) -> LinearCharacter:
    """chi (x) theta on the direct-product embedding of their groups."""
    W, V = chi.group, theta.group
    if P is None:
        P = direct_product_embed(W, V)
    d, r = W.degree, V.degree
    m = lcm(chi.order_m, theta.order_m)
    exponents = []
    for g in P.elements:
        sigma, tau = split_product_element(g, d, r)
        if sigma not in W or tau not in V:
            raise ValueError(f"{g!r} does not decompose inside W x V")
        exponents.append((chi.exponent(sigma) * (m // chi.order_m)
                          + theta.exponent(tau) * (m // theta.order_m)) % m)
    lam = LinearCharacter(P, m, tuple(exponents), name="product")
    validate_homomorphism(lam)
    return lam


def wreath_character(theta: LinearCharacter, chi: LinearCharacter,
                     G: PermGroup) -> LinearCharacter:
    """theta^(x)d (x) chi on the wreath embedding G of V by W in S_{dr}."""
    V, W = theta.group, chi.group
    r, d = V.degree, W.degree
    m = lcm(theta.order_m, chi.order_m)
    exponents = []
    for g in G.elements:
        sigma, taus = decompose_wreath_element(g, r, d, V, W)
        e = chi.exponent(sigma) * (m // chi.order_m)
        for tau in taus:
            e += theta.exponent(tau) * (m // theta.order_m)
        exponents.append(e % m)
    mu = LinearCharacter(G, m, tuple(exponents), name="wreath")
    validate_homomorphism(mu)
    return mu
