"""Bijections of {1,...,d} as image tuples, and permutation groups stored as element lists.

A group element, generators included, is its image tuple, ``images[s-1]`` the
image of the point s, or its index in the group's element order; ``compose``,
``inverse``, ``cycle_type`` and ``cycle_string`` act on image tuples, and
``perm_from_cycles`` parses cycle notation into one.
Every group is closed by one capped breadth-first walk, ``_bfs_order``, which
fixes the element order and records the right-multiplication table:
``right[k][i]`` is the index of ``images[i] * generators[k]``, one compact
``array`` row per generator.  One greedy closure on that walk builds
``from_elements`` and ``derived_subgroup``, a normal closure.
Every ``PermGroup`` holds its table from construction: a group given by an
element list, such as a direct product, builds it in the constructor.
Points are 1-based throughout.  ``compose(a, b)`` applies ``b`` first, so the
induced coordinate action on tuples is a left action.
"""

from __future__ import annotations

import re
from array import array
from operator import itemgetter
from typing import Callable, Iterable, Sequence

from .caps import Caps, CapExceeded, DEFAULT_CAPS

Images = tuple[int, ...]


def compose(a: Images, b: Images) -> Images:
    """a after b: compose(a, b)[s-1] = a(b(s))."""
    if len(a) != len(b):
        raise ValueError(f"degree mismatch: {len(a)} != {len(b)}")
    return tuple([a[t - 1] for t in b])


def inverse(g: Images) -> Images:
    """The image tuple of g^-1."""
    inv = [0] * len(g)
    for s, t in enumerate(g, start=1):
        inv[t - 1] = s
    return tuple(inv)


def cycle_type(g: Images) -> tuple[int, ...]:
    """(c_1,...,c_d) where c_s counts the s-cycles of g, fixed points included."""
    counts = [0] * len(g)
    seen = bytearray(len(g) + 1)
    for start in range(1, len(g) + 1):
        if not seen[start]:
            length, t = 0, start
            while not seen[t]:
                seen[t] = 1
                t = g[t - 1]
                length += 1
            counts[length - 1] += 1
    return tuple(counts)


def cycle_string(g: Images) -> str:
    """Cycle notation of g: its nontrivial cycles, each from its smallest point, in
    the order of those points; ``()`` for the identity."""
    seen = bytearray(len(g) + 1)
    out = []
    for start in range(1, len(g) + 1):
        cyc, t = [], start
        while not seen[t]:
            seen[t] = 1
            cyc.append(str(t))
            t = g[t - 1]
        if len(cyc) > 1:
            out.append("(" + " ".join(cyc) + ")")
    return "".join(out) or "()"


_CYCLE_RE = re.compile(r"\(([^()]*)\)")


def perm_from_cycles(text: str, degree: int) -> Images:
    """Parse disjoint cycle notation like ``(1 2 3)(4 5)``; omitted points are fixed,
    and an empty cycle, such as the identity's ``()``, moves nothing."""
    stripped = text.strip()
    if _CYCLE_RE.sub("", stripped).strip():
        raise ValueError(f"malformed cycle notation: {text!r}")
    images = list(range(1, degree + 1))
    used: set[int] = set()
    for body in _CYCLE_RE.findall(stripped):
        entries = body.replace(",", " ").split()
        try:
            points = [int(e) for e in entries]
        except ValueError:
            raise ValueError(f"malformed cycle notation: {text!r}") from None
        for p in points:
            if not 1 <= p <= degree:
                raise ValueError(f"point {p} out of range 1..{degree}")
            if p in used:
                raise ValueError(f"repeated point {p} in {text!r}")
            used.add(p)
        for i, p in enumerate(points):
            images[p - 1] = points[(i + 1) % len(points)]
    return tuple(images)


def _right_mul(g: Images) -> Callable[[Images], Images]:
    """The map e -> e * g on image tuples (g applied first); g has degree >= 2, as no
    closure keeps a degree-1 generator, the identity."""
    return itemgetter(*[t - 1 for t in g])


class PermGroup:
    """A permutation group given by its full element list, identity first.

    ``images`` holds the elements and ``generators`` the generators, all as
    image tuples, and ``image_index`` maps each element to its position.
    ``right[k][i]`` is the index of ``images[i] * generators[k]``, so
    ``right[k][0]`` is the index of generator k.  The constructor builds the
    index and the table when they are not given.
    """

    def __init__(self, degree: int, images: Sequence[Images], generators: Sequence[Images],
                 image_index: dict[Images, int] | None = None,
                 right: list[array] | None = None):
        self.degree = degree
        self.images = tuple(images)
        self.generators = tuple(generators)
        if not self.images or self.images[0] != tuple(range(1, degree + 1)):
            raise ValueError("element list must start with the identity")
        if image_index is None:
            image_index = dict(zip(self.images, range(len(self.images))))
        self.image_index = image_index
        if right is None:
            try:
                right = [array("i", map(image_index.__getitem__,
                                        map(_right_mul(g), self.images)))
                         for g in generators]
            except KeyError:
                raise ValueError("element list is not closed under the generators") from None
        self.right = right

    @property
    def order(self) -> int:
        return len(self.images)

    def __eq__(self, other):
        if not isinstance(other, PermGroup):
            return NotImplemented
        return self.degree == other.degree and self.image_index.keys() == other.image_index.keys()

    def __hash__(self):
        return hash((self.degree, frozenset(self.images)))

    def __repr__(self):
        return f"PermGroup(degree={self.degree}, order={self.order})"

    @staticmethod
    def from_elements(elements: Iterable[Images]) -> "PermGroup":
        """Build a group from its elements as image tuples; ValueError if they are not a group.

        Generators are chosen greedily in sorted order (``_greedy_closure``),
        and no closure may grow past the size of the set.  The elements come in
        the BFS order of the last closure.
        """
        elems = list(dict.fromkeys(elements))
        if not elems:
            raise ValueError("empty element list")
        degree = len(elems[0])
        if any(len(p) != degree for p in elems):
            raise ValueError("elements of mixed degrees")
        elems.sort()  # identity sorts first
        try:
            # the closure holds every element and is no larger than the set: they are equal
            return _greedy_closure(elems, degree, Caps(group_order=len(elems)))
        except CapExceeded:
            raise ValueError("element set is not a group") from None


def _greedy_closure(candidates: list[Images], degree: int, caps: Caps,
                    conjugators: Sequence[Images] = ()) -> PermGroup:
    """The group generated by the candidates, each taken as a generator in turn when the
    closure so far misses it; the BFS is re-walked once per generator.  A new generator
    h also appends its conjugates c^-1 h c to the list walked, one per conjugator c,
    so the result is normalized by the conjugators: it is the normal closure."""
    gens: list[Images] = []
    images, image_index, right = _bfs_order(gens, degree, caps)
    conjugations = [(inverse(c), c) for c in conjugators]
    for p in candidates:  # the list grows while it is walked
        if p not in image_index:
            gens.append(p)
            images, image_index, right = _bfs_order(gens, degree, caps)
            candidates += [compose(c_inverse, compose(p, c)) for c_inverse, c in conjugations]
    return PermGroup(degree, images, gens, image_index, right)


def _check_table(order: int, degree: int, caps: Caps) -> None:
    """CapExceeded unless a table of ``order`` elements of this degree fits the caps."""
    if order > caps.group_order:
        raise CapExceeded(f"group order exceeds cap {caps.group_order}")
    if order * degree > caps.orbit_work:
        raise CapExceeded(f"group elements times degree exceed work cap {caps.orbit_work}")


def _bfs_order(generators: Sequence[Images], degree: int, caps: Caps
               ) -> tuple[list[Images], dict[Images, int], list[array]]:
    """Deterministic element order: breadth-first products in generator order.

    Returns the image tuples in that order, their index, and the table
    ``right[k][i]`` = index of ``elements[i] * generators[k]``.  Raises
    CapExceeded as soon as the group would have more than ``caps.group_order``
    elements, or its element table more than ``caps.orbit_work`` entries
    (elements times degree).
    """
    start = tuple(range(1, degree + 1))
    order = [start]
    index = {start: 0}
    steps = [(_right_mul(g), array("i")) for g in generators]
    limit = min(caps.group_order, caps.orbit_work // max(degree, 1))
    for e in order:  # the list grows while it is walked: a FIFO queue
        for mul, row in steps:
            p = mul(e)
            j = index.get(p)
            if j is None:
                j = len(order)
                if j >= limit:
                    _check_table(j + 1, degree, caps)
                index[p] = j
                order.append(p)
            row.append(j)
    return order, index, [row for _, row in steps]


def group_closure(generators: Iterable[Images], degree: int | None = None,
                  caps: Caps = DEFAULT_CAPS) -> PermGroup:
    """Smallest group containing the generators, elements in BFS order from the identity."""
    gens = list(dict.fromkeys(g for g in generators if g != tuple(range(1, len(g) + 1))))
    if gens:
        degrees = {len(g) for g in gens}
        if len(degrees) != 1:
            raise ValueError(f"generators of mixed degrees {sorted(degrees)}")
        if degree is not None and degree != len(gens[0]):
            raise ValueError("degree does not match generators")
        degree = len(gens[0])
    elif degree is None:
        raise ValueError("no generators and no degree given")
    if degree < 1:
        raise ValueError("degree must be positive")
    images, image_index, right = _bfs_order(gens, degree, caps)
    return PermGroup(degree, images, gens, image_index, right)


def named_group(kind: str, d: int, caps: Caps = DEFAULT_CAPS) -> PermGroup:
    """Catalog groups: symmetric, alternating, cyclic, dihedral (orders d!, d!/2, d, 2d)."""
    if d < 1:
        raise ValueError(f"unsupported degree {d}")
    if kind not in ("symmetric", "alternating", "cyclic", "dihedral"):
        raise ValueError(f"unknown group kind {kind!r}")
    if kind == "symmetric":
        gens = [] if d == 1 else [perm_from_cycles("(1 2)", d)]
        if d >= 3:
            gens.append(tuple(range(2, d + 1)) + (1,))
    elif kind == "alternating":
        gens = [perm_from_cycles(f"(1 2 {k})", d) for k in range(3, d + 1)]
    elif kind == "cyclic":
        gens = [] if d == 1 else [tuple(range(2, d + 1)) + (1,)]
    else:  # dihedral
        if d < 3:
            raise ValueError(f"dihedral group needs degree >= 3, got {d}")
        gens = [tuple(range(2, d + 1)) + (1,), tuple(range(d, 0, -1))]
    return group_closure(gens, degree=d, caps=caps)


def direct_product_embed(W: PermGroup, V: PermGroup, caps: Caps = DEFAULT_CAPS) -> PermGroup:
    """W x V inside S_{d+r}: s -> sigma(s) for s <= d, d+t -> d+tau(t).

    Generated by W's generators on 1..d, then V's generators shifted by d.
    """
    d, r = W.degree, V.degree
    _check_table(W.order * V.order, d + r, caps)
    shifted = [tuple([t + d for t in tau]) for tau in V.images]
    images = [sigma + tau for sigma in W.images for tau in shifted]
    gens = [g + shifted[0] for g in W.generators]
    gens += [W.images[0] + tuple([t + d for t in g]) for g in V.generators]
    return PermGroup(d + r, images, gens)


def split_product_element(g: Images, d: int, r: int) -> tuple[Images, Images]:
    """(sigma, tau) with g = sigma on 1..d and d+tau(t) on d+t; raises if g does not
    preserve the two blocks.  A bijection g that keeps 1..d in place restricts to
    bijections of both blocks."""
    if len(g) != d + r:
        raise ValueError(f"degree {len(g)} != d+r = {d + r}")
    if any(img > d for img in g[:d]) or any(img <= d for img in g[d:]):
        raise ValueError(f"{cycle_string(g)} does not preserve the blocks "
                         f"1..{d} / {d + 1}..{d + r}")
    return g[:d], tuple([t - d for t in g[d:]])


def wreath_embed(V: PermGroup, W: PermGroup, caps: Caps = DEFAULT_CAPS) -> PermGroup:
    """Wreath product of V (block group, degree r) by W (top group on d blocks) inside S_{dr}.

    Generated by copies of V's generators inside every block together with W's
    generators permuting the blocks; the order must come out as |V|^d * |W|.
    """
    r, d = V.degree, W.degree
    _check_table(d * len(V.generators) + len(W.generators), d * r, caps)
    start = tuple(range(1, d * r + 1))
    # v inside block b: b*r+t -> b*r+v(t), every other point fixed
    gens = [start[:b * r] + tuple([b * r + t for t in v]) + start[(b + 1) * r:]
            for b in range(d) for v in V.generators]
    # w moving the blocks: (s-1)r+t -> (w(s)-1)r+t
    gens += [tuple([(s - 1) * r + t for s in w for t in range(1, r + 1)])
             for w in W.generators]
    group = group_closure(gens, degree=d * r, caps=caps)
    expected = V.order ** d * W.order
    if group.order != expected:
        raise AssertionError(f"wreath order {group.order} != |V|^d*|W| = {expected}")
    return group


def decompose_wreath_element(g: Images, r: int, d: int,
                             V: PermGroup, W: PermGroup) -> tuple[Images, tuple[Images, ...]]:
    """Split g in wreath(V, W) into the block permutation sigma and per-block maps.

    g sends (s-1)r+t to (sigma(s)-1)r+tau_s(t); returns (sigma, (tau_1,...,tau_d)).
    Once the bijection g maps every block into a single block, sigma and each
    tau_s are bijections; their membership in W and V is checked.
    """
    if len(g) != d * r:
        raise ValueError(f"degree {len(g)} != d*r = {d * r}")
    sigma_images = []
    taus = []
    for s in range(d):
        block = g[s * r:(s + 1) * r]
        target = (block[0] - 1) // r
        tau = tuple([img - target * r for img in block])
        if min(tau) < 1 or max(tau) > r:
            raise ValueError(f"{cycle_string(g)} does not map block {s + 1} into a single block")
        sigma_images.append(target + 1)
        taus.append(tau)
    sigma = tuple(sigma_images)
    if sigma not in W.image_index:
        raise ValueError(f"block permutation {cycle_string(sigma)} not in the top group")
    for tau in taus:
        if tau not in V.image_index:
            raise ValueError(f"within-block map {cycle_string(tau)} not in the block group")
    return sigma, tuple(taus)


def derived_subgroup(G: PermGroup, caps: Caps = DEFAULT_CAPS) -> PermGroup:
    """Commutator subgroup [G,G], the normal closure of the commutators a^-1 b^-1 a b of
    the pairs of generators.  That closure N lies in the normal subgroup [G,G], and the
    generators commute modulo N, so G/N is abelian and N = [G,G].  It forms only these
    #gens*(#gens-1)/2 commutators and their conjugates by the generators."""
    gens = G.generators
    commutators = [compose(compose(inverse(a), inverse(b)), compose(a, b))
                   for i, a in enumerate(gens) for b in gens[i + 1:]]
    return _greedy_closure(commutators, G.degree, caps, conjugators=gens)
