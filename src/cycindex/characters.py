"""One-dimensional characters of permutation groups.

Character values are roots of unity and are stored as exponents k modulo a
shared order m, so the value at g is zeta_m^k.  Cyclotomic objects are only
materialized when values enter polynomial coefficients.

Every character is built by ``_from_generators``: generator exponents are
extended along a BFS spanning tree of the group's right-multiplication table,
then ``validate_homomorphism`` checks every (element, generator) edge once.
A homomorphism is fixed by its generator values, so the named characters only
compute those.  The enumerated ones are read off the abelianized relators of
that BFS: their Hermite form modulo the exponent m of G/[G,G] lists
Hom(G/[G,G], Z/m) by back-substitution.
"""

from __future__ import annotations

from math import gcd, lcm
from operator import sub

from .caps import Caps, CapExceeded, DEFAULT_CAPS
from .perms import (PermGroup, Permutation, _right_mul, cycle_type,
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

    def exponents_in(self, group: PermGroup) -> tuple[int, ...]:
        """The exponents listed in the element order of ``group``, a group equal to
        this character's group whose elements may come in another order."""
        return tuple(map(self.exponents.__getitem__,
                         map(self.group.image_index.__getitem__, group.images)))

    def is_unit(self) -> bool:
        return all(e == 0 for e in self.exponents)

    def image_order(self) -> int:
        """Order of the image of the character, a divisor of order_m."""
        return lcm(1, *(self.order_m // gcd(e, self.order_m) for e in self.exponents))

    def __eq__(self, other):
        if not isinstance(other, LinearCharacter):
            return NotImplemented
        if self.group != other.group:
            return False
        m = lcm(self.order_m, other.order_m)
        scale_a, scale_b = m // self.order_m, m // other.order_m
        return all((ea * scale_a - eb * scale_b) % m == 0
                   for ea, eb in zip(self.exponents, other.exponents_in(self.group)))

    __hash__ = None

    def __repr__(self):
        tag = self.name or f"order {self.image_order()}"
        return f"LinearCharacter({tag} on {self.group!r})"


def validate_homomorphism(chi: LinearCharacter) -> None:
    """Check chi(x g) = chi(x) chi(g) for every element x and generator g.

    This suffices: the relation extends to arbitrary pairs by induction on the
    generator word length of the second factor.  Each check is one lookup in
    the group's right-multiplication table.
    """
    G, m, table = chi.group, chi.order_m, chi.exponents
    failures = []
    for k, row in enumerate(G.right):
        e = table[G.index(G.generators[k])]
        if list(map(table.__getitem__, row)) != [(v + e) % m for v in table]:
            i = next(i for i, j in enumerate(row) if table[j] != (table[i] + e) % m)
            failures.append((i, k))
    if failures:
        i, k = min(failures)
        raise ValueError(f"not a homomorphism at ({Permutation(G.images[i])!r}, "
                         f"{G.generators[k]!r})")


def _from_generators(G: PermGroup, m: int, exponents, name: str | None,
                     tree: list[tuple[int, int, int]] | None = None) -> LinearCharacter:
    """The character with value zeta_m^exponents[k] at generator k.

    The values are extended along the spanning tree; ValueError unless the
    resulting table is a homomorphism.
    """
    if tree is None:
        tree = _spanning_tree(G)
    values = [0] * G.order
    for i, k, j in tree:
        values[j] = (values[i] + exponents[k]) % m
    chi = LinearCharacter(G, m, values, name=name)
    validate_homomorphism(chi)
    return chi


def unit_character(G: PermGroup) -> LinearCharacter:
    return _from_generators(G, 1, [0] * len(G.generators), "unit")


def sign_character(G: PermGroup) -> LinearCharacter:
    """Restriction of the alternating character of S_d to G."""
    parities = [(G.degree - sum(cycle_type(g.images))) % 2 for g in G.generators]
    return _from_generators(G, 2 if any(parities) else 1, parities, "sign")


def abelianization_exponent(G: PermGroup, derived: PermGroup) -> int:
    """Exponent of G/[G,G]: the lcm over the generators g of the least t >= 1 with g^t in
    [G,G].  The quotient is abelian and generated by the generators' images, and the
    exponent of such a group is the lcm of its generators' orders."""
    m = 1
    for g in G.generators:
        power, t, times_g = g.images, 1, _right_mul(g.images)
        while power not in derived.image_index:
            power = times_g(power)
            t += 1
        m = lcm(m, t)
    return m


def enumerate_linear_characters(G: PermGroup, caps: Caps = DEFAULT_CAPS
                                ) -> list[LinearCharacter]:
    """All linear characters of G, deterministically ordered, unit character first.

    They are the |G/[G,G]| solutions of the relator lattice modulo m
    (``relator_hermite_form``), each built by ``_from_generators``, so the
    search is bounded up front by |G/[G,G]| * |G| * #gens against the work cap.
    The count is checked against the derived-subgroup closure.
    """
    derived = derived_subgroup(G, caps=caps)
    expected = G.order // derived.order
    work = expected * G.order * len(G.generators)
    if work > caps.orbit_work:
        raise CapExceeded(f"|G/[G,G]| * |G| * #gens = {work} for the character search "
                          f"exceeds work cap {caps.orbit_work}")
    m = abelianization_exponent(G, derived)
    tree = _spanning_tree(G)
    found = [_from_generators(G, m, assignment, None, tree)
             for assignment in _lattice_solutions(relator_hermite_form(G, m, tree), m)]
    if len(found) != expected:
        raise AssertionError(
            f"found {len(found)} characters, expected |G/[G,G]| = {expected}")
    found.sort(key=lambda chi: chi.exponents)
    for k, chi in enumerate(found):
        chi.name = "unit" if chi.is_unit() else f"index:{k}"
    return found


def _spanning_tree(G: PermGroup) -> list[tuple[int, int, int]]:
    """Edges (i, k, j), j = right[k][i], of a BFS tree over the table from the identity."""
    right = G.right
    reached = bytearray(G.order)
    reached[0] = 1
    walk, tree = [0], []
    for i in walk:
        for k, row in enumerate(right):
            j = row[i]
            if not reached[j]:
                reached[j] = 1
                walk.append(j)
                tree.append((i, k, j))
    if len(walk) != G.order:
        raise ValueError("the generators do not generate the element list")
    return tree


def relator_hermite_form(G: PermGroup, m: int,
                         tree: list[tuple[int, int, int]] | None = None) -> list[list[int]]:
    """Hermite normal form, modulo m, of the abelianized relator lattice of G.

    With w(x) the generator exponent sums of x's word along the spanning tree,
    every table edge x g_k = y gives the relator w(x) + e_k - w(y) (0 on tree
    edges).  These and m Z^#gens span a lattice L with Z^#gens / L = G/[G,G]
    when m is a multiple of its exponent.  Row i is zero left of column i, its
    pivot d_i at column i divides m, and the product of the pivots is the
    index of L, which is |G/[G,G]|.
    Words and relators are packed into ints, one slot per generator, so the
    relators are formed and deduplicated in C loops.
    """
    n, size = len(G.generators), G.order
    if tree is None:
        tree = _spanning_tree(G)
    width = (2 * size).bit_length()  # slot values lie in [size - depth, size + depth + 1]
    units = [1 << (width * k) for k in range(n)]
    words = [0] * size
    for i, k, j in tree:
        words[j] = words[i] + units[k]
    offset = size * sum(units)
    packed: set[int] = set()
    for unit, row in zip(units, G.right):
        packed.update(map(sub, map((offset + unit).__add__, words), map(words.__getitem__, row)))
    mask = (1 << width) - 1
    relators = {tuple([((r >> (width * k) & mask) - size) % m for k in range(n)])
                for r in packed}
    rows = [[m if k == i else 0 for k in range(n)] for i in range(n)]
    for v in relators:
        _hermite_insert(rows, list(v), m)
    return rows


def _hermite_insert(rows: list[list[int]], v: list[int], m: int) -> None:
    """Add v to the lattice spanned by the triangular rows, all entries mod m.

    At each column, Euclid's algorithm on the pivot row and v (swap, subtract
    a multiple) leaves the gcd as pivot and a zero in v; pivots divide m and
    never exceed it, so reducing mod m leaves them intact.
    """
    for i in range(len(v)):
        while v[i]:
            q = rows[i][i] // v[i]
            rows[i], v = v, [(x - q * y) % m for x, y in zip(rows[i], v)]


def _lattice_solutions(rows: list[list[int]], m: int) -> list[tuple[int, ...]]:
    """Every a in (Z/m)^n with row . a = 0 mod m for each row, by back-substitution.

    Row i fixes d_i a_i mod m given a_{i+1..}; d_i divides the right side
    (the rows are a Hermite basis of a lattice holding m Z^n), so each
    partial solution extends in d_i ways, prod d_i in all.
    """
    n = len(rows)
    tails: list[tuple[int, ...]] = [()]
    for i in reversed(range(n)):
        d, row = rows[i][i], rows[i][i + 1:]
        step = m // d
        extended = []
        for tail in tails:
            rhs = -sum(x * y for x, y in zip(row, tail)) % m
            if rhs % d:
                raise AssertionError(f"Hermite row {i} has no solution over {tail}")
            extended += [(rhs // d + t * step,) + tail for t in range(d)]
        tails = extended
    return tails


def kernel(chi: LinearCharacter) -> PermGroup:
    """H = {g : chi(g) = 1}, a normal subgroup of index image_order."""
    H = PermGroup.from_elements(g for g, e in zip(chi.group.images, chi.exponents) if e == 0)
    if chi.group.order != H.order * chi.image_order():
        raise AssertionError("kernel index does not match the character image order")
    return H


def product_character(chi: LinearCharacter, theta: LinearCharacter,
                      P: PermGroup | None = None) -> LinearCharacter:
    """chi (x) theta on the direct-product embedding of their groups."""
    W, V = chi.group, theta.group
    if P is None:
        P = direct_product_embed(W, V)
    m = lcm(chi.order_m, theta.order_m)
    exponents = []
    for g in P.generators:
        sigma, tau = split_product_element(g, W.degree, V.degree)
        if sigma not in W or tau not in V:
            raise ValueError(f"{g!r} does not decompose inside W x V")
        exponents.append(chi.exponent(sigma) * (m // chi.order_m)
                         + theta.exponent(tau) * (m // theta.order_m))
    return _from_generators(P, m, exponents, "product")


def wreath_character(theta: LinearCharacter, chi: LinearCharacter,
                     G: PermGroup) -> LinearCharacter:
    """theta^(x)d (x) chi on the wreath embedding G of V by W in S_{dr}."""
    V, W = theta.group, chi.group
    m = lcm(theta.order_m, chi.order_m)
    exponents = []
    for g in G.generators:
        sigma, taus = decompose_wreath_element(g, V.degree, W.degree, V, W)
        exponents.append(chi.exponent(sigma) * (m // chi.order_m)
                         + sum(map(theta.exponent, taus)) * (m // theta.order_m))
    return _from_generators(G, m, exponents, "wreath")
