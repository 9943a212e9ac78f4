"""Exact verification of the averaging projector on monomial modules.

The module basis is indexed by the points of [0,n]^d; the group acts by
permuting points, twisted by an optional cocycle family gamma.  The character
alpha and gamma are carried as exponents of roots of unity, so every entry of
|G| a_alpha is a sum of powers of zeta_m with m = lcm(order of alpha, order of
gamma): an element of Z[zeta_m].  Matrices are kept as sparse columns of such
integer entries (``CyclotomicIntegers``) over the common denominator |G|, and
all checks run on integer additions and multiplications; values become
``Cyclotomic`` only when they leave the module (``entry``, ``trace``).  Rank
uses division-free exact elimination (columns are rescaled by pivots, which
preserves rank over the field of fractions).
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from itertools import product as iter_product
from math import lcm

from .caps import Caps, CapExceeded, DEFAULT_CAPS
from .characters import LinearCharacter, enumerate_linear_characters
from .cyclo import Cyclotomic, CyclotomicIntegers
from .orbits import action_table
from .perms import PermGroup, compose

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
        self.points = list(iter_product(range(n + 1), repeat=self.d))
        self._point_index = {p: i for i, p in enumerate(self.points)}
        self.gamma = gamma
        self.gamma_order = gamma_order
        # point_map[g][i] = index of g . point_i
        index = self._point_index
        self.point_map = [[index[tuple(map(p.__getitem__, src))] for p in self.points]
                          for src in action_table(group)]
        # gamma_exp[g][i] = exponent of gamma_i(g)
        if gamma is None:
            self.gamma_exp = [(0,) * self.dim] * group.order
        else:
            self.gamma_exp = [tuple(gamma[(gi, i)] % gamma_order for i in range(self.dim))
                              for gi in range(group.order)]
            self.validate_cocycle()
        self.validate_representation()

    def index(self, point) -> int:
        return self._point_index[tuple(point)]

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
        for a, g in enumerate(G.elements):
            for b, h in enumerate(G.elements):
                if not self._check_law(a, b, G.index(compose(g, h))):
                    raise ValueError(f"cocycle law fails at (g={g!r}, h={h!r})")

    def validate_representation(self) -> None:
        """The monomial action of g h is that of g after h, on the group generators."""
        G = self.group
        for g in G.generators:
            for h in G.generators:
                if not self._check_law(G.index(g), G.index(h), G.index(compose(g, h))):
                    raise ValueError(
                        f"monomial action is not a representation at ({g!r}, {h!r})")

    def twist(self, alpha: LinearCharacter) -> tuple[CyclotomicIntegers, list[list[int]]]:
        """Z[zeta_m] holding alpha and gamma, and k[g][i] with alpha(g) gamma_i(g) = zeta_m^k."""
        m = lcm(alpha.order_m, self.gamma_order)
        sa, sg = m // alpha.order_m, m // self.gamma_order
        weights = []
        for g, gam in zip(self.group.elements, self.gamma_exp):
            e = alpha.exponent(g) * sa
            weights.append([(e + k * sg) % m for k in gam])
        return CyclotomicIntegers(m), weights

    def qualifying_indices(self, alpha: LinearCharacter,
                           weights: list[list[int]] | None = None) -> list[int]:
        """I(M, alpha): points whose stabilizer satisfies gamma_i = alpha^-1.

        ``weights`` is the table of ``twist(alpha)`` when the caller has it.
        """
        if weights is None:
            _, weights = self.twist(alpha)
        return [i for i in range(self.dim)
                if not any(w[i] for pm, w in zip(self.point_map, weights) if pm[i] == i)]

    def orbit_transversal(self) -> tuple[list[int], dict[int, int], dict[int, int]]:
        """Lex-min orbit reps, a rep index per point, and a transversal element per point."""
        reps: list[int] = []
        rep_of: dict[int, int] = {}
        via: dict[int, int] = {}  # point -> group element index with g . rep = point
        for i in range(self.dim):
            if i in rep_of:
                continue
            reps.append(i)
            for gi in range(self.group.order):
                j = self.point_map[gi][i]
                if j not in rep_of:
                    rep_of[j] = i
                    via[j] = gi
        return reps, rep_of, via


class SparseMatrix:
    """Square matrix over Q(zeta_m): sparse columns over Z[zeta_m] and one denominator.

    Column entries are elements of ``ring``; the matrix is cols / denominator.
    Matrices that are multiplied or compared share the same ring.
    """

    def __init__(self, dim: int, ring: CyclotomicIntegers, cols: list[Column],
                 denominator: int = 1):
        self.dim = dim
        self.ring = ring
        self.denominator = denominator
        nonzero = ring.nonzero
        self.cols = [{r: v for r, v in col.items() if nonzero(v)} for col in cols]

    @property
    def nnz(self) -> int:
        return sum(len(c) for c in self.cols)

    def entry(self, row: int, col: int) -> Cyclotomic:
        ring = self.ring
        return ring.to_cyclotomic(self.cols[col].get(row, ring.zero), self.denominator)

    def trace(self) -> Cyclotomic:
        ring = self.ring
        total = ring.zero
        for i, col in enumerate(self.cols):
            v = col.get(i)
            if v is not None:
                total = ring.add(total, v)
        return ring.to_cyclotomic(total, self.denominator)

    def apply(self, vector: Column) -> Column:
        """cols times the vector, without the denominator."""
        add, mul = self.ring.add, self.ring.mul
        out: Column = {}
        for col_idx, coeff in vector.items():
            for row, value in self.cols[col_idx].items():
                prev = out.get(row)
                term = mul(coeff, value)
                out[row] = term if prev is None else add(prev, term)
        nonzero = self.ring.nonzero
        return {r: v for r, v in out.items() if nonzero(v)}

    def matmul(self, other: "SparseMatrix") -> "SparseMatrix":
        return SparseMatrix(self.dim, self.ring, [self.apply(col) for col in other.cols],
                            self.denominator * other.denominator)

    def __eq__(self, other):
        if not isinstance(other, SparseMatrix):
            return NotImplemented
        if self.dim != other.dim:
            return False
        # a / s = b / t  <=>  a t = b s
        scale, s, t = self.ring.scale, self.denominator, other.denominator
        for a, b in zip(self.cols, other.cols):
            if a.keys() != b.keys():
                return False
            if any(scale(a[r], t) != scale(b[r], s) for r in a):
                return False
        return True

    __hash__ = None

    def rank(self) -> int:
        return rank_of_columns(self.cols, self.ring)


def rank_of_columns(columns: list[Column], ring: CyclotomicIntegers) -> int:
    """Exact rank by division-free elimination; pivot on the first nonzero row."""
    mul, sub, nonzero = ring.mul, ring.sub, ring.nonzero
    pivots: dict[int, Column] = {}  # pivot row -> reduced column
    rank = 0
    for col in columns:
        work = col
        while work:
            lead = min(work)
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


def build_projector(M: MonomialModule, alpha: LinearCharacter,
                    twist: tuple[CyclotomicIntegers, list[list[int]]] | None = None
                    ) -> SparseMatrix:
    """a_alpha = |G|^-1 sum over g of alpha(g) g, as a matrix in the v_i basis.

    The columns hold |G| a_alpha, whose entries are sums of roots of unity.
    ``twist`` is ``M.twist(alpha)`` when the caller has it.
    """
    ring, weights = twist or M.twist(alpha)
    add, roots = ring.add, ring.powers
    cols: list[Column] = [{} for _ in range(M.dim)]
    for pm, w in zip(M.point_map, weights):
        for col, row, k in zip(cols, pm, w):
            prev = col.get(row)
            col[row] = roots[k] if prev is None else add(prev, roots[k])
    return SparseMatrix(M.dim, ring, cols, M.group.order)


def check_idempotent(A: SparseMatrix) -> bool:
    return A.matmul(A) == A


def check_annihilation(M: MonomialModule, alpha: LinearCharacter,
                       A: SparseMatrix | None = None,
                       twist: tuple[CyclotomicIntegers, list[list[int]]] | None = None,
                       qualifying: set[int] | None = None) -> bool:
    """Columns outside I(M, alpha) vanish, and a_alpha g = alpha(g)^-1 a_alpha.

    The intertwining relation is checked on generators, which extends to the
    whole group multiplicatively; it makes every difference alpha^-1(g) z - g z
    a kernel element.  Column i of a_alpha g is gamma_i(g) times column g.i of
    a_alpha, so the relation reads alpha(g) gamma_i(g) A[:, g.i] = A[:, i],
    compared entry by entry.  ``twist`` and ``qualifying`` are ``M.twist(alpha)``
    and the set of ``M.qualifying_indices(alpha)`` when the caller has them.
    """
    twist = twist or M.twist(alpha)
    ring, weights = twist
    if A is None:
        A = build_projector(M, alpha, twist)
    if qualifying is None:
        qualifying = set(M.qualifying_indices(alpha, weights))
    for i in range(M.dim):
        if i not in qualifying and A.cols[i]:
            return False
    mul = ring.mul
    for g in M.group.generators:
        gi = M.group.index(g)
        for i, (j, k) in enumerate(zip(M.point_map[gi], weights[gi])):
            root = ring.root(k)
            if {r: mul(root, v) for r, v in A.cols[j].items()} != A.cols[i]:
                return False
    return True


@dataclass(frozen=True)
class BasisReport:
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
        return {
            "group_order": self.group_order,
            "n": self.n,
            "d": self.d,
            "dim": self.dim,
            "trace": self.trace.to_json(),
            "rank": self.rank,
            "J_size": self.J_size,
            "idempotent": self.idempotent,
            "annihilation_ok": self.annihilation_ok,
            "independent": self.independent,
            "kernel_ok": self.kernel_ok,
            "ok": self.ok,
        }


def verify_basis_prop(M: MonomialModule, alpha: LinearCharacter) -> BasisReport:
    """Rank, trace, |J| and the basis statements for the projector a_alpha.

    A trace that is not rational (alpha is not a homomorphism) fails the
    trace = |J| statement like any other wrong trace.
    """
    twist = M.twist(alpha)
    ring, weights = twist
    qualifying = set(M.qualifying_indices(alpha, weights))
    A = build_projector(M, alpha, twist)
    idempotent = check_idempotent(A)
    annihilation_ok = check_annihilation(M, alpha, A, twist, qualifying)
    trace = A.trace()
    rank = A.rank()

    reps, rep_of, via = M.orbit_transversal()
    J = [i for i in reps if i in qualifying]
    J0 = [i for i in reps if i not in qualifying]

    image_cols = [A.cols[j] for j in J]
    independent = rank_of_columns(image_cols, ring) == len(J)

    # families (1.2.4) and (1.2.5): differences along the transversal plus the
    # excluded representatives; they must lie in ker a_alpha and span dim - |J|
    kernel_cols: list[Column] = []
    kernel_ok = True
    for i in range(M.dim):
        rep = rep_of[i]
        if i == rep:
            continue
        factor = ring.root(weights[via[i]][rep])
        kernel_cols.append({rep: ring.one, i: ring.scale(factor, -1)})
    for i in J0:
        kernel_cols.append({i: ring.one})
    for vec in kernel_cols:
        if A.apply(vec):
            kernel_ok = False
            break
    if kernel_ok:
        kernel_ok = rank_of_columns(kernel_cols, ring) == M.dim - len(J)

    ok = (idempotent and annihilation_ok and independent and kernel_ok
          and rank == len(J) and trace == len(J))
    return BasisReport(
        group_order=M.group.order, n=M.n, d=M.d, dim=M.dim,
        trace=trace, rank=rank, J_size=len(J),
        idempotent=idempotent, annihilation_ok=annihilation_ok,
        independent=independent, kernel_ok=kernel_ok, ok=ok,
    )


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
    reps, rep_of, via = base.orbit_transversal()
    choices = []
    for rep in reps:
        members = [i for i in range(base.dim) if rep_of[i] == rep]
        stab_elems = [g for gi, g in enumerate(W.elements)
                      if base.point_map[gi][rep] == rep]
        stab = PermGroup.from_elements(stab_elems)
        stab_chars = enumerate_linear_characters(stab, caps=caps)
        lam = stab_chars[rng.randrange(len(stab_chars))]
        u_exp = {i: (0 if i == rep else rng.randrange(transversal_order))
                 for i in members}
        choices.append((rep, members, lam, u_exp))
    order = lcm(transversal_order, *(lam.order_m for _, _, lam, _ in choices))
    gamma: dict[tuple[int, int], int] = {}
    for rep, members, lam, u_exp in choices:
        su, sl = order // transversal_order, order // lam.order_m
        for i in members:
            g_i = W.elements[via[i]]
            for gj, g in enumerate(W.elements):
                target = base.point_map[gj][i]
                g_t = W.elements[via[target]]
                inner = compose(compose(g_t.inverse(), g), g_i)
                if base.point_map[W.index(inner)][rep] != rep:
                    raise AssertionError("transversal transport left the stabilizer")
                gamma[(gj, i)] = ((u_exp[target] - u_exp[i]) * su
                                  + lam.exponent(inner) * sl) % order
    return MonomialModule(W, n, gamma=gamma, gamma_order=order, caps=caps)
