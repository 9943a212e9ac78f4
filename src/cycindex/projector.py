"""Exact verification of the averaging projector on monomial modules.

The basis v_i is indexed by the codes i = sum_k p_k (n+1)^(d-1-k) of the points
p of [0,n]^d; point maps are computed on codes.  The group permutes points,
twisted by an optional cocycle family gamma, and alpha and gamma are exponents
of roots of unity, so every entry of |G| a_alpha is a sum of powers of zeta_m,
m = lcm(order of alpha, order of gamma): counting the powers gives an element
of the group ring Z[C_m] = Z[x]/(x^m - 1), which maps onto Z[zeta_m] by x -> zeta_m.

A column is supported on the orbit of its index and packs into one int
(Kronecker substitution): the count of x^k in orbit-local row t sits at bit
B (t 2m + k), B = bitlen(|G|^2) + 1.  The counts of a column of the square
sum to |G|^2, so no slot carries, and the stride 2m holds the linear
convolution of two entries; ``(S & mask) + ((S >> m B) & mask)`` then folds
x^m = 1 into every entry.  ``SparseMatrix`` holds A once, as these packed
columns and their layout.  Idempotence, annihilation and kernel membership
compare packed ints, and the trace reads each column's diagonal slot.
Equality in Z[zeta_m] is equality modulo Phi_m (1 + x + x^2 = 0 when m = 3),
so where two ints differ, and wherever a zero test or the rank reads a column,
it is reduced to the power basis of ``CyclotomicIntegers`` at that point;
values become ``Cyclotomic`` only on output (``trace``).
Rank uses division-free exact elimination (columns are rescaled by pivots,
which preserves rank over the field of fractions).  It pivots on the last
nonzero row, so the kernel family v_rep - zeta^k v_i (each column leading on
its own i > rep) and A's representative columns (on disjoint orbits) cost no
product.  A proven kernel step makes A[:, i] = zeta^-k A[:, rep], so A's rank
is eliminated over its representative columns and the unproven steps' columns.
"""

from __future__ import annotations

import random
from math import lcm
from typing import NamedTuple

from .caps import Caps, CapExceeded, DEFAULT_CAPS
from .characters import LinearCharacter, enumerate_linear_characters
from .cyclo import Cyclotomic, CyclotomicIntegers, cyclotomic_ring
from .perms import PermGroup, compose, cycle_string, inverse

Column = dict[int, object]  # row -> nonzero element of a CyclotomicIntegers ring


class MonomialModule:
    """Basis v_i over the points i of [0,n]^d with the twisted permutation action.

    ``gamma`` maps (group element index, point index) to k, meaning that
    gamma_i(g) = zeta_{gamma_order}^k; None is the trivial family.
    """

    def __init__(self, group: PermGroup, n: int,
                 gamma: dict[tuple[int, int], int] | None = None,
                 gamma_order: int = 1, caps: Caps = DEFAULT_CAPS):
        self.group = group
        self.n = n
        self.d = group.degree
        self.dim = (n + 1) ** self.d
        if self.dim > caps.projector_dim:
            raise CapExceeded(f"dimension {self.dim} exceeds cap {caps.projector_dim}")
        # point_map holds |G| * dim entries, and the cocycle check walks |G|^2 * dim
        work = self.dim * group.order
        if work > caps.orbit_work:
            raise CapExceeded(f"(n+1)^d * |G| = {work} exceeds work cap {caps.orbit_work}")
        if gamma is not None and work * group.order > caps.orbit_work:
            raise CapExceeded(f"(n+1)^d * |G|^2 = {work * group.order} exceeds work cap "
                              f"{caps.orbit_work}")
        self.gamma, self.gamma_order = gamma, gamma_order
        # point_map[g][i] = index of g . point_i: g moves coordinate k to position g(k)
        self.weights = [(n + 1) ** (self.d - 1 - k) for k in range(self.d)]
        steps = [[v * w for v in range(n + 1)] for w in self.weights]
        self.point_map = []
        for g in group.images:
            row = [0]
            for t in g:
                row = [r + s for r in row for s in steps[t - 1]]
            self.point_map.append(row)
        # gamma_exp[g][i] = exponent of gamma_i(g)
        if gamma is None:
            self.gamma_exp = [(0,) * self.dim] * group.order
        else:
            self.gamma_exp = [tuple(gamma[(gi, i)] % gamma_order for i in range(self.dim))
                              for gi in range(group.order)]
            self.validate_cocycle()
        self.validate_representation()

    def _check_law(self, a: int, b: int, ab: int) -> bool:
        """g_a g_b = g_ab on every point, with gamma_i(g_a g_b) = gamma_{g_b.i}(g_a) gamma_i(g_b)."""
        pa, pb, pab = self.point_map[a], self.point_map[b], self.point_map[ab]
        ga, gb, gab = self.gamma_exp[a], self.gamma_exp[b], self.gamma_exp[ab]
        L = self.gamma_order
        for i, j in enumerate(pb):
            if pa[j] != pab[i] or (gab[i] - ga[j] - gb[i]) % L:
                return False
        return True

    def validate_cocycle(self) -> None:
        """gamma_i(gh) = gamma_{h.i}(g) gamma_i(h) for all g, h, i (exhaustive)."""
        G = self.group
        for a, g in enumerate(G.images):
            for b, h in enumerate(G.images):
                if not self._check_law(a, b, G.image_index[compose(g, h)]):
                    raise ValueError(f"cocycle law fails at (g={cycle_string(g)}, "
                                     f"h={cycle_string(h)})")

    def validate_representation(self) -> None:
        """The monomial action of g h is that of g after h, on the group generators;
        generator k's index and that of g h are read off the right-multiplication
        table."""
        G = self.group
        gens = [row[0] for row in G.right]
        for a in gens:
            for b, row in zip(gens, G.right):
                if not self._check_law(a, b, row[a]):
                    raise ValueError("monomial action is not a representation at "
                                     f"({cycle_string(G.images[a])}, {cycle_string(G.images[b])})")

    def twist(self, alpha: LinearCharacter) -> tuple[CyclotomicIntegers, list[list[int]]]:
        """Z[zeta_m] holding alpha and gamma, and k[g][i] with alpha(g) gamma_i(g) = zeta_m^k."""
        if alpha.group != self.group:
            raise ValueError("character is defined on a different group")
        m = lcm(alpha.order_m, self.gamma_order)
        sa, sg = m // alpha.order_m, m // self.gamma_order
        weights = []
        for e, gam in zip(alpha.exponents_in(self.group), self.gamma_exp):
            e *= sa
            weights.append([(e + k * sg) % m for k in gam])
        return cyclotomic_ring(m), weights

    def qualifying_indices(self, weights: list[list[int]]) -> list[int]:
        """I(M, alpha): points whose stabilizer satisfies gamma_i = alpha^-1, read off
        ``weights``, the table of ``twist(alpha)``."""
        return [i for i in range(self.dim)
                if not any(w[i] for pm, w in zip(self.point_map, weights) if pm[i] == i)]

    def orbit_transversal(self) -> tuple[list[list[int]], dict[int, int]]:
        """The orbits, each ascending and so led by its lex-min representative, and
        a transversal element per point."""
        orbits: list[list[int]] = []
        via: dict[int, int] = {}  # point -> group element index with g . rep = point
        for i in range(self.dim):
            if i not in via:
                orbit = []
                for gi, pm in enumerate(self.point_map):
                    j = pm[i]
                    if j not in via:
                        via[j] = gi
                        orbit.append(j)
                orbits.append(sorted(orbit))
        return orbits, via


class SparseMatrix:
    """|G| a_alpha as packed group-ring columns over Z[C_m], with the denominator |G|.

    ``packed[j]`` is column j in the orbit-local layout of the module docstring;
    ``column(j)`` reduces it to the power basis of Z[zeta_m] with zeros dropped.
    """

    def __init__(self, orbits: list[list[int]], order: int, ring: CyclotomicIntegers):
        m = ring.m
        self.ring = ring
        self.denominator = order
        self.B = B = (order * order).bit_length() + 1
        self.stride = 2 * m * B
        self.entry_mask = (1 << (m * B)) - 1
        self.dim = sum(map(len, orbits))
        self.offset = [0] * self.dim  # point -> bit offset of its orbit-local row
        self.orbit_of: list[list[int]] = [[]] * self.dim
        for orbit in orbits:
            for t, i in enumerate(orbit):
                self.offset[i], self.orbit_of[i] = t * self.stride, orbit
        rows = max(map(len, orbits), default=0)
        self.fold_mask = sum(self.entry_mask << (t * self.stride) for t in range(rows))
        self.packed = [0] * self.dim
        slot = (1 << B) - 1
        seen: dict[int, object] = {}  # packed entry -> its value; equal entries share one

        def value(e):
            v = seen.get(e)
            if v is None:
                v = seen[e] = ring.combine([(e >> k * B) & slot for k in range(m)])
            return v
        self.value = value

    def fold(self, S: int) -> int:
        """Reduce every entry of S from slots 0..2m-2 to 0..m-1 with x^m = 1."""
        mask = self.fold_mask
        return (S & mask) + ((S >> (self.stride >> 1)) & mask)

    def reduce(self, P: int, orbit: list[int]) -> Column:
        """The packed column P in the power basis of Z[zeta_m], zeros dropped."""
        value, nonzero = self.value, self.ring.nonzero
        emask, stride = self.entry_mask, self.stride
        col: Column = {}
        for row in orbit:
            if not P:
                break
            v = value(P & emask)
            if nonzero(v):
                col[row] = v
            P >>= stride
        return col

    def equal(self, P: int, Q: int, orbit: list[int]) -> bool:
        """Equality in Z[zeta_m]: as ints, or else entry by entry modulo Phi_m."""
        return P == Q or self.reduce(P, orbit) == self.reduce(Q, orbit)

    def column(self, j: int) -> Column:
        return self.reduce(self.packed[j], self.orbit_of[j])

    @property
    def nnz(self) -> int:
        return sum(len(self.column(j)) for j in range(self.dim))

    def trace(self) -> Cyclotomic:
        ring, value, emask = self.ring, self.value, self.entry_mask
        total = ring.zero
        for P, off in zip(self.packed, self.offset):
            e = (P >> off) & emask
            if e:
                total = ring.add(total, value(e))
        return ring.to_cyclotomic(total, self.denominator)

    def rotated_equals(self, j: int, k: int, i: int) -> bool:
        """zeta^k A[:, j] == A[:, i] in Z[zeta_m]; j and i share an orbit."""
        return self.equal(self.fold(self.packed[j] << (k * self.B)), self.packed[i],
                          self.orbit_of[i])


def rank_of_columns(columns: list[Column], ring: CyclotomicIntegers) -> int:
    """Exact rank by division-free elimination; pivot on the last nonzero row."""
    mul, sub, nonzero = ring.mul, ring.sub, ring.nonzero
    pivots: dict[int, Column] = {}  # pivot row -> reduced column
    rank = 0
    for col in columns:
        work = col
        while work:
            lead = max(work)
            pivot = pivots.get(lead)
            if pivot is None:
                pivots[lead] = work
                rank += 1
                break
            # work <- pivot[lead] * work - work[lead] * pivot
            scale_w, scale_p = pivot[lead], work[lead]
            merged: Column = {r: mul(scale_w, v) for r, v in work.items()}
            for r, v in pivot.items():
                merged[r] = sub(merged.get(r, ring.zero), mul(scale_p, v))
            work = {r: v for r, v in merged.items() if nonzero(v)}
    return rank


def build_projector(M: MonomialModule,
                    twist: tuple[CyclotomicIntegers, list[list[int]]],
                    transversal: tuple[list[list[int]], dict[int, int]]) -> SparseMatrix:
    """a_alpha = |G|^-1 sum over g of alpha(g) g, as a matrix in the v_i basis.

    The columns hold |G| a_alpha, whose entries are sums of roots of unity.
    ``twist`` and ``transversal`` are ``M.twist(alpha)`` and ``M.orbit_transversal()``.
    """
    ring, weights = twist
    A = SparseMatrix(transversal[0], M.group.order, ring)
    B, offset, packed = A.B, A.offset, A.packed
    for pm, w in zip(M.point_map, weights):
        packed = [P + (1 << (offset[row] + k * B)) for P, row, k in zip(packed, pm, w)]
    A.packed = packed
    return A


def check_idempotent(A: SparseMatrix) -> bool:
    """A A = |G| A: column j of A A is the sum over l of column l times entry
    (l, j), one big-int product per term, folded and compared with |G| A[:, j]."""
    packed, scale = A.packed, A.denominator
    emask, stride = A.entry_mask, A.stride
    for Pj, orbit in zip(packed, A.orbit_of):
        S, rest = 0, Pj
        for l in orbit:
            if not rest:
                break
            e = rest & emask
            if e:
                S += packed[l] * e
            rest >>= stride
        if not A.equal(A.fold(S), scale * Pj, orbit):
            return False
    return True


def check_annihilation(M: MonomialModule, A: SparseMatrix,
                       twist: tuple[CyclotomicIntegers, list[list[int]]],
                       qualifying: set[int]) -> bool:
    """Columns outside I(M, alpha) vanish, and a_alpha g = alpha(g)^-1 a_alpha.

    The intertwining relation is checked on generators, which extends to the
    whole group multiplicatively; it makes every difference alpha^-1(g) z - g z
    a kernel element.  Column i of a_alpha g is gamma_i(g) times column g.i of
    a_alpha, so the relation reads alpha(g) gamma_i(g) A[:, g.i] = A[:, i],
    compared column by column.  ``A`` is the projector of alpha, ``twist`` is
    ``M.twist(alpha)`` and ``qualifying`` the set of ``M.qualifying_indices``
    of its table.
    """
    _, weights = twist
    for i in range(M.dim):
        if i not in qualifying and A.column(i):
            return False
    for row in M.group.right:
        gi = row[0]
        for i, (j, k) in enumerate(zip(M.point_map[gi], weights[gi])):
            if not A.rotated_equals(j, k, i):
                return False
    return True


class BasisReport(NamedTuple):
    group_order: int
    n: int
    d: int
    dim: int
    trace: Cyclotomic
    rank: int
    J_size: int
    idempotent: bool
    annihilation_ok: bool
    independent: bool
    kernel_ok: bool
    ok: bool

    def to_json(self):
        return {**self._asdict(), "trace": self.trace.to_json()}


def verify_basis_prop(M: MonomialModule, alpha: LinearCharacter) -> BasisReport:
    """Rank, trace, |J| and the basis statements for the projector a_alpha.

    A trace that is not rational (alpha is not a homomorphism) fails the
    trace = |J| statement like any other wrong trace.
    """
    twist = M.twist(alpha)
    ring, weights = twist
    qualifying = set(M.qualifying_indices(weights))
    transversal = M.orbit_transversal()
    orbits, via = transversal
    A = build_projector(M, twist, transversal)
    idempotent = check_idempotent(A)
    annihilation_ok = check_annihilation(M, A, twist, qualifying)

    # families (1.2.4) and (1.2.5): differences v_rep - zeta^k v_i along the
    # transversal plus the excluded representatives; they must lie in
    # ker a_alpha and span dim - |J|.  A v = 0 reads A[:, rep] = zeta^k A[:, i].
    reps = [orbit[0] for orbit in orbits]
    J = [i for i in reps if i in qualifying]
    J0 = [i for i in reps if i not in qualifying]
    def steps():
        for rep, *rest in orbits:
            for i in rest:
                yield rep, i, weights[via[i]][rep]

    rep_cols = {i: A.column(i) for i in reps}  # each column is reduced once from here on
    unproven = [i for rep, i, k in steps() if not A.rotated_equals(i, k, rep)]
    kernel_ok = not unproven and not any(rep_cols[i] for i in J0)

    trace = A.trace()
    rank = rank_of_columns(list(rep_cols.values()) + [A.column(i) for i in unproven], ring)
    independent = rank_of_columns([rep_cols[j] for j in J], ring) == len(J)
    if kernel_ok:
        kernel_cols = [{rep: ring.one, i: ring.scale(ring.root(k), -1)} for rep, i, k in steps()]
        kernel_cols += [{i: ring.one} for i in J0]
        kernel_ok = rank_of_columns(kernel_cols, ring) == M.dim - len(J)

    ok = (idempotent and annihilation_ok and independent and kernel_ok
          and rank == len(J) and trace == len(J))
    return BasisReport(group_order=M.group.order, n=M.n, d=M.d, dim=M.dim,
                       trace=trace, rank=rank, J_size=len(J), idempotent=idempotent,
                       annihilation_ok=annihilation_ok, independent=independent,
                       kernel_ok=kernel_ok, ok=ok)


def random_gamma_family(W: PermGroup, n: int, seed: int,
                        caps: Caps = DEFAULT_CAPS) -> MonomialModule:
    """A valid random cocycle family, built orbit by orbit.

    Each orbit gets arbitrary 12th roots of unity on a transversal and a
    linear character of the representative's stabilizer; transporting them
    through the orbit satisfies the cocycle law by construction (the law is
    still validated exhaustively when the module is assembled).  Values are
    emitted as exponents of zeta_L, L = lcm(12, orders of the chosen characters).
    """
    rng = random.Random(seed)
    base = MonomialModule(W, n, caps=caps)
    transversal_order = 12
    orbits, via = base.orbit_transversal()
    choices = []
    for members in orbits:
        rep = members[0]
        stab = PermGroup.from_elements(g for g, pm in zip(W.images, base.point_map)
                                       if pm[rep] == rep)
        stab_chars = enumerate_linear_characters(stab, caps=caps)
        lam = stab_chars[rng.randrange(len(stab_chars))]
        u_exp = {i: (0 if i == rep else rng.randrange(transversal_order))
                 for i in members}
        choices.append((rep, members, lam, u_exp))
    order = lcm(transversal_order, *(lam.order_m for _, _, lam, _ in choices))
    gamma: dict[tuple[int, int], int] = {}
    for rep, members, lam, u_exp in choices:
        su, sl = order // transversal_order, order // lam.order_m
        stab_index = lam.group.image_index  # the stabilizer of rep
        for i in members:
            g_i = W.images[via[i]]
            for gj, g in enumerate(W.images):
                target = base.point_map[gj][i]
                inner = compose(compose(inverse(W.images[via[target]]), g), g_i)
                k = stab_index.get(inner)
                if k is None:
                    raise AssertionError("transversal transport left the stabilizer")
                gamma[(gj, i)] = ((u_exp[target] - u_exp[i]) * su
                                  + lam.exponents[k] * sl) % order
    return MonomialModule(W, n, gamma=gamma, gamma_order=order, caps=caps)
