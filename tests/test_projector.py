from fractions import Fraction
from itertools import product as iter_product
from math import comb

import pytest
from hypothesis import given, settings, strategies as st

from cycindex import (Cyclotomic, MonomialModule, PermGroup, Permutation, build_projector,
                      check_annihilation, enumerate_linear_characters,
                      index_set_J, named_group, random_gamma_family,
                      sign_character, unit_character, verify_basis_prop)
from cycindex import projector
from cycindex.caps import CapExceeded, Caps
from cycindex.cli import _tampered
from cycindex.cyclo import CyclotomicIntegers
from cycindex.grammar import parse_character, parse_group
from cycindex.projector import (SparseMatrix, _Packing, check_idempotent,
                                rank_of_columns)
from oracles import (apply_perm, entry, module_index, module_points, multiplication_matrix,
                     rank_over_cyclotomic_field, value)


def projector_of(M, alpha):
    """build_projector given the twist and transversal of alpha, as verify_basis_prop builds it."""
    return build_projector(M, M.twist(alpha), M.orbit_transversal())


def qualifying_set(M, alpha):
    """I(M, alpha) as a set, read off the table of M.twist(alpha)."""
    return set(M.qualifying_indices(M.twist(alpha)[1]))


def entrywise_product(A, B):
    """Columns of A B over Z[zeta_m], entry by entry in the power basis (denominators apart)."""
    add, mul, nonzero = A.ring.add, A.ring.mul, A.ring.nonzero
    product = []
    for vector in B.cols:
        out = {}
        for col_idx, coeff in vector.items():
            for row, value in A.cols[col_idx].items():
                prev = out.get(row)
                term = mul(coeff, value)
                out[row] = term if prev is None else add(prev, term)
        product.append({r: v for r, v in out.items() if nonzero(v)})
    return product


def entrywise_idempotent(A):
    """Oracle for check_idempotent: (cols / s)^2 == cols / s, i.e. cols^2 == s cols."""
    scale, s = A.ring.scale, A.denominator
    for a, b in zip(entrywise_product(A, A), A.cols):
        if a.keys() != b.keys() or any(a[r] != scale(b[r], s) for r in a):
            return False
    return True


class TestProjectorMatrix:
    def test_trivial_one_dimensional_case(self):
        s2 = named_group("symmetric", 2)
        M = MonomialModule(s2, 0)
        A = projector_of(M, unit_character(s2))
        assert A.dim == 1 and entry(A, 0, 0) == 1

    def test_s2_sign_projects_onto_antisymmetric_line(self):
        # basis 00, 01, 10, 11: the sign projector is (v01 - v10)/2 on the middle block
        s2 = named_group("symmetric", 2)
        M = MonomialModule(s2, 1)
        A = projector_of(M, sign_character(s2))
        half = Cyclotomic.from_rational(Fraction(1, 2))
        i01, i10 = module_index(M, (0, 1)), module_index(M, (1, 0))
        assert not A.cols[module_index(M, (0, 0))] and not A.cols[module_index(M, (1, 1))]
        assert entry(A, i01, i01) == half and entry(A, i10, i01) == -half
        assert entry(A, i01, i10) == -half and entry(A, i10, i10) == half
        assert rank_of_columns(A.cols, A.ring) == 1 and A.trace() == 1

    def test_trivial_group_gives_identity(self):
        t = named_group("cyclic", 1)
        M = MonomialModule(t, 2)
        A = projector_of(M, unit_character(t))
        assert rank_of_columns(A.cols, A.ring) == 3 and A.trace() == 3

    def test_idempotence(self, S3):
        M = MonomialModule(S3, 1)
        for chi in enumerate_linear_characters(S3):
            A = projector_of(M, chi)
            assert entrywise_idempotent(A) and check_idempotent(A)

    def test_dimension_cap(self, S4):
        with pytest.raises(CapExceeded):
            MonomialModule(S4, 3, caps=Caps(projector_dim=100))

    def test_work_cap_bounds_the_point_map_and_the_cocycle_check(self, S3):
        # S(3) at n=1: |G| * dim = 6 * 8 = 48, |G|^2 * dim = 288
        with pytest.raises(CapExceeded, match=r"\(n\+1\)\^d \* \|G\| = 48 exceeds work cap 47"):
            MonomialModule(S3, 1, caps=Caps(orbit_work=47))
        family = random_gamma_family(S3, 1, seed=0)
        gamma, order = family.gamma, family.gamma_order
        with pytest.raises(CapExceeded, match=r"\|G\|\^2 = 288 exceeds work cap 287"):
            MonomialModule(S3, 1, gamma, order, caps=Caps(orbit_work=287))
        assert MonomialModule(S3, 1, gamma, order, caps=Caps(orbit_work=288)).dim == 8


class TestPointMap:
    """point_map rows, built on point codes, against apply_perm on point tuples."""

    EXPRESSIONS = ("S(4)", "D(5)", "A(5)", "wreath(S(2),S(3))")

    @staticmethod
    def _check(G, n):
        M = MonomialModule(G, n)
        points = list(iter_product(range(n + 1), repeat=G.degree))
        lex = {p: i for i, p in enumerate(points)}
        assert module_points(M) == points and len(M.point_map) == G.order
        for g, row in zip(map(Permutation, G.images), M.point_map):
            images = [apply_perm(g, p) for p in points]
            assert row == [lex[q] for q in images], g
            assert [module_index(M, q) for q in images] == row, g

    @pytest.mark.parametrize("reordered", [False, True])
    @pytest.mark.parametrize("n", [0, 1, 2])
    @pytest.mark.parametrize("expr", EXPRESSIONS)
    def test_rows_match_the_point_action(self, expr, n, reordered):
        G = parse_group(expr).group
        if reordered:
            G = PermGroup.from_elements(reversed(G.images))
        self._check(G, n)

    @pytest.mark.parametrize("expr, n", [("C(1)", 0), ("gen[3]{}", 0), ("gen[3]{}", 2)])
    def test_trivial_groups(self, expr, n):
        self._check(parse_group(expr).group, n)

    @pytest.mark.parametrize("point", [(0, 2), (1,), (0, 0, 0), (0, -1), ()])
    def test_index_rejects_a_point_outside_the_cube(self, point):
        # a bare weighted sum would read (0, 2) and (1,) as 2, the code of (1, 0)
        M = MonomialModule(named_group("symmetric", 2), 1)
        with pytest.raises(ValueError, match=r"is not a point of \[0,1\]\^2"):
            module_index(M, point)
        assert module_index(M, (1, 0)) == 2


class TestDefinitionOracle:
    """build_projector against (1/|G|) sum over g of alpha(g) gamma_i(g), in Cyclotomic."""

    @staticmethod
    def _definition(M, alpha):
        G = M.group
        expected = {}
        for gi, g in enumerate(map(Permutation, G.images)):
            for c, point in enumerate(module_points(M)):
                r = module_index(M, apply_perm(g, point))
                gamma = (Cyclotomic.one() if M.gamma is None else
                         Cyclotomic.root_of_unity(M.gamma_order, M.gamma[(gi, c)]))
                term = value(alpha, g) * gamma * Fraction(1, G.order)
                expected[(r, c)] = expected.get((r, c), Cyclotomic.zero()) + term
        return expected

    def _modules(self):
        s3, c4 = named_group("symmetric", 3), named_group("cyclic", 4)
        yield s3, MonomialModule(s3, 1)
        yield c4, MonomialModule(c4, 1)
        for seed in (3, 11):
            yield s3, random_gamma_family(s3, 1, seed=seed)

    def test_entries_match_the_definition(self):
        for G, M in self._modules():
            for alpha in enumerate_linear_characters(G):
                A = projector_of(M, alpha)
                expected = self._definition(M, alpha)
                for r in range(M.dim):
                    for c in range(M.dim):
                        want = expected.get((r, c), Cyclotomic.zero())
                        assert entry(A, r, c) == want, (G, alpha, r, c)


class TestPackedArithmetic:
    """Packed Z[C_m] columns: equality is modulo Phi_m, not equality of the ints."""

    @staticmethod
    def _packing(m, rows=1, order=4):
        return _Packing({i: 0 for i in range(rows)}, rows, order, CyclotomicIntegers(m))

    @staticmethod
    def _pack(pk, *rows):
        """Column with entry sum c_k x^k in row t, given as count lists."""
        return sum(c << (t * pk.stride + k * pk.B)
                   for t, counts in enumerate(rows) for k, c in enumerate(counts))

    @pytest.mark.parametrize("m,counts", [(3, [1, 1, 1]), (4, [1, 0, 1]), (2, [1, 1])])
    def test_zero_of_the_field_compares_equal_to_zero(self, m, counts):
        pk = self._packing(m)
        packed = self._pack(pk, counts)
        assert packed != 0 and pk.equal(packed, 0, [0]) and pk.equal(0, packed, [0])
        assert pk.reduce(packed, [0]) == {}

    @pytest.mark.parametrize("m,left,right", [
        (3, [1, 1, 0], [0, 0, 0]), (4, [1, 1, 0, 0], [0, 0, 0, 0]), (2, [1, 0], [0, 1]),
        (3, [2, 1, 1], [0, 0, 0]),
    ])
    def test_unequal_values_compare_unequal(self, m, left, right):
        pk = self._packing(m)
        assert not pk.equal(self._pack(pk, left), self._pack(pk, right), [0])

    def test_rows_are_compared_separately(self):
        pk = self._packing(3, rows=2)
        one_x = self._pack(pk, [1, 1, 1], [0, 1, 0])   # (0, zeta)
        assert pk.equal(one_x, self._pack(pk, [0, 0, 0], [0, 1, 0]), [0, 1])
        assert not pk.equal(one_x, self._pack(pk, [0, 1, 0], [0, 0, 0]), [0, 1])

    def test_fold_applies_x_to_the_m_equals_one(self):
        pk = self._packing(3, rows=2)
        # x^3 + 2 x^4 in row 0 and x^2 in row 1 fold to 1 + 2x and x^2
        S = (1 << 3 * pk.B) + (2 << 4 * pk.B) + (1 << pk.stride + 2 * pk.B)
        assert pk.fold(S) == self._pack(pk, [1, 2, 0], [0, 0, 1])

    def test_idempotence_falls_back_to_the_field(self):
        # 1 + x + x^2 is 0 in Z[zeta_3]: its square 3(1 + x + x^2) differs as an
        # int but is 0 too, so the 1x1 matrix is idempotent; 1 + x is not
        pk = self._packing(3, order=3)
        zero = SparseMatrix(1, pk, [self._pack(pk, [1, 1, 1])], 1)
        assert zero.cols == [{}] and check_idempotent(zero)
        pk = self._packing(3, order=3)
        assert not check_idempotent(SparseMatrix(1, pk, [self._pack(pk, [1, 1, 0])], 1))

    def test_check_idempotent_matches_the_entrywise_oracle(self):
        groups = [named_group("symmetric", 3), named_group("cyclic", 4),
                  named_group("dihedral", 4), named_group("alternating", 4)]
        modules = [(G, MonomialModule(G, n)) for G in groups for n in (0, 1, 2)]
        modules += [(groups[0], random_gamma_family(groups[0], n, seed=seed))
                    for n in (1, 2) for seed in (3, 11)]
        verdicts = []
        for G, M in modules:
            for chi in enumerate_linear_characters(G):
                for alpha in (chi, _tampered(chi)):
                    A = projector_of(M, alpha)
                    verdict = check_idempotent(A)
                    assert verdict == entrywise_idempotent(A), (G, M.n, alpha)
                    if alpha is chi:
                        assert verdict, (G, M.n, chi)
                    verdicts.append(verdict)
        assert not all(verdicts)  # the tampered copies do fail


class TestNegativeControl:
    def test_tampered_characters_fail_without_raising(self):
        s3, c4 = named_group("symmetric", 3), named_group("cyclic", 4)
        for G, ns in ((s3, (1, 2)), (c4, (1,))):
            for chi in enumerate_linear_characters(G):
                for n in ns:
                    rep = verify_basis_prop(MonomialModule(G, n), _tampered(chi))
                    assert not rep.ok and not rep.idempotent, (G, chi, n)

    def test_non_rational_trace_is_reported(self, C4):
        chi = enumerate_linear_characters(C4)[1]
        rep = verify_basis_prop(MonomialModule(C4, 1), _tampered(chi))
        assert not rep.trace.is_rational()
        assert "conductor" in rep.to_json()["trace"]


class TestAnnihilation:
    def test_sign_on_two_values_kills_everything(self, S3):
        # d=3 points over 2 values: every tuple repeats a coordinate
        M = MonomialModule(S3, 1)
        eps = sign_character(S3)
        A = projector_of(M, eps)
        assert all(not col for col in A.cols)
        assert rank_of_columns(A.cols, A.ring) == 0
        assert index_set_J(S3, eps, 1) == []
        assert check_annihilation(M, A, M.twist(eps), qualifying_set(M, eps))

    def test_c4_kills_constant_tuples(self, C4):
        chi = enumerate_linear_characters(C4)[1]
        M = MonomialModule(C4, 1)
        A = projector_of(M, chi)
        assert not A.cols[module_index(M, (0, 0, 0, 0))]
        assert not A.cols[module_index(M, (1, 1, 1, 1))]
        assert check_annihilation(M, A, M.twist(chi), qualifying_set(M, chi))

    def test_unit_character_excludes_nothing(self, S3):
        M = MonomialModule(S3, 1)
        assert M.qualifying_indices(M.twist(unit_character(S3))[1]) == list(range(M.dim))


class TestBasisReport:
    def test_exterior_power_dimensions(self):
        for d in (2, 3):
            S = named_group("symmetric", d)
            for n in range(3):
                if (n + 1) ** d > 256:
                    continue
                rep = verify_basis_prop(MonomialModule(S, n), sign_character(S))
                assert rep.ok and rep.rank == comb(n + 1, d)

    def test_symmetric_power_dimensions(self):
        for d in (2, 3):
            S = named_group("symmetric", d)
            for n in range(3):
                rep = verify_basis_prop(MonomialModule(S, n), unit_character(S))
                assert rep.ok and rep.rank == comb(n + d, d)

    def test_c4_faithful_rank_three(self, C4):
        chi = enumerate_linear_characters(C4)[1]
        rep = verify_basis_prop(MonomialModule(C4, 1), chi)
        assert rep.ok
        assert rep.rank == rep.J_size == rep.trace == 3
        assert rep.J_size == len(index_set_J(C4, chi, 1))

    def test_rank_matches_orbit_count_for_unit(self, V4):
        from cycindex import enumerate_orbits
        rep = verify_basis_prop(MonomialModule(V4, 1), unit_character(V4))
        assert rep.ok
        assert rep.rank == len(enumerate_orbits(V4, 1).records)

    def test_report_json(self, S3):
        rep = verify_basis_prop(MonomialModule(S3, 1), sign_character(S3))
        data = rep.to_json()
        assert data["ok"] is True and data["rank"] == 0
        assert data["trace"] == {"num": "0", "den": "1"}

    def test_character_of_the_supergroup_is_rejected(self, S3, A3):
        # it reported ok=True: only A3's elements were looked up in S3's table
        with pytest.raises(ValueError, match="different group"):
            verify_basis_prop(MonomialModule(A3, 1), sign_character(S3))

    def test_character_of_a_subgroup_is_rejected(self, S3, A3):
        # it raised a bare KeyError at the first element of S3 outside A3
        alpha = enumerate_linear_characters(A3)[1]
        with pytest.raises(ValueError, match="different group"):
            MonomialModule(S3, 1).twist(alpha)
        with pytest.raises(ValueError, match="different group"):
            verify_basis_prop(MonomialModule(S3, 1), alpha)


class _CountingRing:
    """Stands in for a ring in ``rank_of_columns``: counts ``mul``, delegates the rest."""

    def __init__(self, ring):
        self.ring, self.products = ring, 0
        self.sub, self.nonzero, self.zero = ring.sub, ring.nonzero, ring.zero

    def mul(self, a, b):
        self.products += 1
        return self.ring.mul(a, b)


class TestRank:
    def test_rank_of_columns_small_cases(self):
        Z = CyclotomicIntegers(1)
        one = Z.one
        assert rank_of_columns([], Z) == 0
        assert rank_of_columns([{0: one}, {0: one + one}], Z) == 1
        assert rank_of_columns([{0: one, 1: one}, {1: one}, {0: one}], Z) == 2

    def test_rank_with_cyclotomic_entries(self):
        R = CyclotomicIntegers(3)
        z = R.root(1)
        cols = [{0: R.one, 1: z}, {0: R.mul(z, z), 1: R.one}]
        # second column = zeta^2 * first, since zeta^3 = 1
        assert rank_of_columns(cols, R) == 1
        assert rank_over_cyclotomic_field(cols, 3) == 1

    def test_field_oracle_small_cases(self):
        R = CyclotomicIntegers(5)
        z = R.root(1)
        assert rank_over_cyclotomic_field([], 5) == 0
        assert rank_over_cyclotomic_field([{0: R.one}, {1: z}], 5) == 2
        # 1 + zeta_4 and 1 - zeta_4 differ by the unit zeta_4: (1 - i) i = 1 + i
        assert rank_over_cyclotomic_field([{0: (1, 1)}, {0: (1, -1)}], 4) == 1
        assert multiplication_matrix(z, 5) == [[0, 0, 0, -1], [1, 0, 0, -1],
                                               [0, 1, 0, -1], [0, 0, 1, -1]]

    @settings(max_examples=150, deadline=None)
    @given(st.data())
    def test_rank_matches_the_field_oracle(self, data):
        """Random columns plus columns that depend on them through root-of-unity
        multiples and sums, in a random order, at most 6 x 6."""
        m = data.draw(st.sampled_from([1, 2, 3, 4, 5, 12]), label="m")
        R = CyclotomicIntegers(m)
        rows = data.draw(st.integers(1, 6), label="rows")
        width = data.draw(st.integers(0, 6), label="columns")
        free = data.draw(st.integers(0, width), label="free columns")
        entry = st.lists(st.integers(-2, 2), min_size=R.degree, max_size=R.degree).map(
            lambda cs: cs[0] if R.degree == 1 else tuple(cs))
        cols = [{r: v for r in range(rows) if R.nonzero(v := data.draw(entry))}
                for _ in range(free)]
        for _ in range(width - free):
            picks = data.draw(st.lists(st.tuples(st.integers(0, max(len(cols) - 1, 0)),
                                                 st.integers(0, m - 1)),
                                       min_size=1, max_size=3))
            total = {}  # the zero column while there is nothing to combine
            for j, k in (picks if cols else []):
                for r, v in cols[j].items():
                    total[r] = R.add(total.get(r, R.zero), R.mul(R.root(k), v))
            cols.append({r: v for r, v in total.items() if R.nonzero(v)})
        cols = data.draw(st.permutations(cols), label="order")
        assert rank_of_columns(cols, R) == rank_over_cyclotomic_field(cols, m)

    @pytest.mark.parametrize("expr, selector", [("S(5)", "sign"), ("D(5)", "index:1"),
                                                ("C(4)", "index:1"), ("S(4)", "unit")])
    def test_no_rank_call_of_verify_basis_makes_a_product(self, monkeypatch, expr, selector):
        """The rank calls of verify_basis_prop are A over its representative columns,
        the J columns and the kernel family (1.2.4)-(1.2.5); under the last-row pivot
        none of the three eliminations multiplies on a genuine character."""
        products = []

        def counted(columns, ring):
            stand_in = _CountingRing(ring)
            rank = rank_of_columns(columns, stand_in)
            products.append(stand_in.products)
            return rank
        monkeypatch.setattr(projector, "rank_of_columns", counted)
        spec = parse_group(expr)
        rep = verify_basis_prop(MonomialModule(spec.group, 2), parse_character(selector, spec))
        assert rep.ok
        assert products == [0, 0, 0], products


SPANNING_CASES = [("S(3)", 1), ("S(3)", 2), ("D(4)", 1), ("A(4)", 1), ("C(4)", 1),
                  ("S(4)", 1), ("C(5)", 1)]


class TestRankOverSpanningColumns:
    def test_rank_is_the_rank_of_every_column_of_a(self):
        """verify_basis_prop eliminates A over the representative columns plus those
        of the unproven kernel steps; that is A's rank for every character and its
        non-homomorphism copy ``_tampered``, untwisted and on ``random_gamma_family``
        seeds 0-2, and on small cases the field oracle agrees."""
        broken = 0
        for expr, n in SPANNING_CASES:
            G = parse_group(expr).group
            chars = enumerate_linear_characters(G)
            tables = chars + [_tampered(chi) for chi in chars]
            for M in [MonomialModule(G, n)] + [random_gamma_family(G, n, s) for s in range(3)]:
                for alpha in tables:
                    rep = verify_basis_prop(M, alpha)
                    A = projector_of(M, alpha)
                    full = rank_of_columns(A.cols, A.ring)
                    assert rep.rank == full, (expr, n, alpha.exponents)
                    if M.dim * A.ring.degree <= 32:
                        assert full == rank_over_cyclotomic_field(A.cols, A.ring.m)
                    broken += not rep.kernel_ok and rep.rank != rep.J_size
        assert broken  # some table needs the columns of its unproven steps


class TestRandomGamma:
    def test_constant_family_is_valid(self, S3):
        M = MonomialModule(S3, 1, gamma=None)
        assert M.qualifying_indices(M.twist(unit_character(S3))[1]) == list(range(M.dim))

    def test_seeded_families_pass_cocycle_validation(self):
        s2 = named_group("symmetric", 2)
        for seed in (0, 1, 7):
            M = random_gamma_family(s2, 1, seed=seed)
            M.validate_cocycle()  # exhaustive revalidation

    def test_diagonal_exclusion_under_sign_stabilizer_character(self):
        # find a seed whose family puts the sign character on a diagonal stabilizer;
        # that diagonal point then drops out of I(M, unit)
        s2 = named_group("symmetric", 2)
        for seed in range(20):
            M = random_gamma_family(s2, 1, seed=seed)
            qualifying = qualifying_set(M, unit_character(s2))
            diag = {module_index(M, (0, 0)), module_index(M, (1, 1))}
            if not diag <= qualifying:
                break
        else:
            pytest.fail("no seed produced a nontrivial stabilizer character")

    def test_basis_report_with_nontrivial_gamma(self):
        s3 = named_group("symmetric", 3)
        for seed in (3, 11):
            M = random_gamma_family(s3, 1, seed=seed)
            for chi in enumerate_linear_characters(s3):
                rep = verify_basis_prop(M, chi)
                assert rep.ok

    def test_deterministic_in_seed(self):
        s2 = named_group("symmetric", 2)
        a = random_gamma_family(s2, 1, seed=5)
        b = random_gamma_family(s2, 1, seed=5)
        assert all(a.gamma[k] == b.gamma[k] for k in a.gamma)
