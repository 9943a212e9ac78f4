from fractions import Fraction
from math import comb

import pytest
import sympy
from hypothesis import given, settings, strategies as st

from cycindex import (Cyclotomic, LinearCharacter, MonomialPoly, PowerSumPoly,
                      cycle_index, enumerate_linear_characters, is_symmetric,
                      named_group, plethysm_insert, psum_mul,
                      sign_character, specialize, unit_character, wreath_embed,
                      wreath_character)
from cycindex.caps import CapExceeded, Caps
from cycindex.cli import JobSpec, run
from cycindex import polys
from cycindex.polys import check_monomial_cap
from oracles import (coefficient, cycle_type_from_cycles, elementary_symmetric,
                     psum_sub, rational, specialize_by_substitution)


def sympy_poly(mono: MonomialPoly):
    """Convert to a sympy expression; only valid for rational coefficients."""
    xs = sympy.symbols(f"x0:{mono.size}")
    expr = sympy.Integer(0)
    for exps, coeff in mono.terms.items():
        q = rational(coeff)
        term = sympy.Rational(q.numerator, q.denominator)
        for x, e in zip(xs, exps):
            term *= x ** e
        expr += term
    return sympy.expand(expr), xs


def psum_from_dict(weight, entries):
    return PowerSumPoly(weight, {
        exps: Cyclotomic.from_rational(Fraction(*coeff))
        for exps, coeff in entries.items()})


class TestCycleIndex:
    def test_s3_unit_by_direct_summation(self, S3):
        # oracle: sum chi(sigma) p^type over the six explicit elements
        counts = {}
        for sigma in S3.images:
            t = cycle_type_from_cycles(sigma)
            counts[t] = counts.get(t, 0) + 1
        assert counts == {(3, 0, 0): 1, (1, 1, 0): 3, (0, 0, 1): 2}
        Z = cycle_index(S3, unit_character(S3))
        assert Z == psum_from_dict(3, {(3,): (1, 6), (1, 1): (1, 2), (0, 0, 1): (1, 3)})
        assert Z.render_text() == "(1/6)*p1^3 + (1/2)*p1*p2 + (1/3)*p3"

    def test_s3_sign(self, S3):
        Z = cycle_index(S3, sign_character(S3))
        assert Z == psum_from_dict(3, {(3,): (1, 6), (1, 1): (-1, 2), (0, 0, 1): (1, 3)})
        assert Z.render_text() == "(1/6)*p1^3 - (1/2)*p1*p2 + (1/3)*p3"

    def test_c4_faithful_character_cancels_p4(self, C4):
        chi = enumerate_linear_characters(C4)[1]
        Z = cycle_index(C4, chi)
        assert Z == psum_from_dict(4, {(4,): (1, 4), (0, 2): (-1, 4)})

    def test_isobaric_invariant(self):
        for kind, d in [("symmetric", 4), ("dihedral", 5), ("cyclic", 6)]:
            G = named_group(kind, d)
            for chi in enumerate_linear_characters(G):
                Z = cycle_index(G, chi)
                for exps in Z.terms:
                    assert sum(s * c for s, c in enumerate(exps, start=1)) == d

    def test_group_character_mismatch(self, S3, C4):
        with pytest.raises(ValueError):
            cycle_index(S3, unit_character(C4))


class TestSpecialize:
    def test_sign_gives_elementary_symmetric(self, S3):
        got = specialize(cycle_index(S3, sign_character(S3)), 2)
        assert got == elementary_symmetric(3, 2)
        assert got.render_text() == "x0*x1*x2"

    def test_c4_example_against_sympy_expansion(self, C4):
        chi = enumerate_linear_characters(C4)[1]
        got = specialize(cycle_index(C4, chi), 1)
        x0, x1 = sympy.symbols("x0 x1")
        oracle = sympy.expand(((x0 + x1) ** 4 - (x0**2 + x1**2) ** 2) / 4)
        assert sympy_poly(got)[0] == oracle
        assert got.render_text() == "x0^3*x1 + x0^2*x1^2 + x0*x1^3"

    def test_n0_realizes_orthogonality(self):
        for kind, d in [("symmetric", 3), ("cyclic", 4), ("dihedral", 4)]:
            G = named_group(kind, d)
            for chi in enumerate_linear_characters(G):
                got = specialize(cycle_index(G, chi), 0)
                if chi.is_unit():
                    assert coefficient(got, (d,)) == 1 and len(got.terms) == 1
                else:
                    assert not got.terms

    def test_unit_specialization_against_sympy(self, S4):
        Z = cycle_index(S4, unit_character(S4))
        got = specialize(Z, 2)
        xs = sympy.symbols("x0:3")
        p = [None] + [sum(x**s for x in xs) for s in range(1, 5)]
        oracle = sympy.expand(
            (p[1] ** 4 + 6 * p[1] ** 2 * p[2] + 3 * p[2] ** 2
             + 8 * p[1] * p[3] + 6 * p[4]) / 24)
        assert sympy_poly(got)[0] == oracle

    def test_result_is_symmetric(self, A4):
        for chi in enumerate_linear_characters(A4):
            assert is_symmetric(specialize(cycle_index(A4, chi), 2))

    def test_term_cap(self, S4):
        Z = cycle_index(S4, unit_character(S4))
        with pytest.raises(CapExceeded):
            specialize(Z, 3, caps=Caps(specialize_terms=2))

    def test_high_degree_expands_without_recursion(self):
        Z = PowerSumPoly(1200, {(1200,): Cyclotomic.one()})
        assert specialize(Z, 0) == MonomialPoly(1, {(1200,): Cyclotomic.one()})
        assert run(JobSpec(command="verify", group_expr="C(1200)", n=0)) == (0, "x0^1200\n")


SMALL_GROUPS = [named_group(kind, d) for kind, d in [
    ("symmetric", 3), ("symmetric", 4), ("dihedral", 4), ("dihedral", 5),
    ("cyclic", 6), ("alternating", 4)]]


@st.composite
def random_exponent_tables(draw):
    """A value table that need not be a homomorphism, as the tampered characters."""
    G = draw(st.sampled_from(SMALL_GROUPS))
    m = draw(st.sampled_from([3, 4, 5, 6, 12]))
    rest = draw(st.lists(st.integers(0, m - 1), min_size=G.order - 1,
                         max_size=G.order - 1))
    return LinearCharacter(G, m, (0, *rest), name="random")


def _hits_term_cap(route, Z, n, caps):
    try:
        route(Z, n, caps)
    except CapExceeded:
        return True
    return False


class TestSpecializeAgainstSubstitution:
    """``specialize`` against the MonomialPoly substitution route of
    ``oracles.specialize_by_substitution``."""

    @settings(max_examples=80, deadline=None)
    @given(random_exponent_tables(), st.integers(0, 3))
    def test_same_text_and_json_as_the_substitution_route(self, chi, n):
        Z = cycle_index(chi.group, chi)
        got, want = specialize(Z, n), specialize_by_substitution(Z, n)
        assert got.render_text() == want.render_text()
        assert got.to_json() == want.to_json()

    def test_terms_are_summed_in_sorted_order(self):
        # z12 - z12 cancels to a rational before z4 is added, so x0^3 is stored
        # at conductor 4; summed in another order it would print as z12^3
        z12, z4 = Cyclotomic.root_of_unity(12, 1), Cyclotomic.root_of_unity(4, 1)
        Z = PowerSumPoly(3, {(3,): z12, (1, 1): -z12, (0, 0, 1): z4})
        got = specialize(Z, 1)
        assert got.render_text() == ("(z4)*x0^3 + (2*z12)*x0^2*x1 + (2*z12)*x0*x1^2"
                                     " + (z4)*x1^3")
        assert got.to_json() == specialize_by_substitution(Z, 1).to_json()

    def test_term_cap_fires_where_the_substitution_route_fires(self):
        S4, S5 = named_group("symmetric", 4), named_group("symmetric", 5)
        outcomes = set()
        for Z, n in [(cycle_index(S4, unit_character(S4)), 3),
                     (cycle_index(S5, sign_character(S5)), 2)]:
            for cap in range(1, 101):
                caps = Caps(specialize_terms=cap)
                hit = _hits_term_cap(specialize, Z, n, caps)
                assert hit == _hits_term_cap(specialize_by_substitution, Z, n, caps), (n, cap)
                outcomes.add(hit)
        assert outcomes == {True, False}


class TestMonomialCap:
    @pytest.mark.parametrize("degree,n", [(3, 4), (4, 3), (0, 7), (5, 0), (1, 2000)])
    def test_fires_just_above_binomial_times_exponents(self, degree, n):
        entries = comb(n + degree, degree) * (n + 1)
        check_monomial_cap(degree, n, Caps(orbit_work=entries))
        with pytest.raises(CapExceeded, match=fr"^C\({n + degree},{degree}\) monomials of {n + 1} "):
            check_monomial_cap(degree, n, Caps(orbit_work=entries - 1))

    def test_huge_degree_and_n_are_refused_without_forming_the_binomial(self):
        with pytest.raises(CapExceeded, match="exceed work cap 100000000$"):
            check_monomial_cap(10**8, 10**12, Caps())

    def test_specialize_checks_before_expanding(self, S3):
        Z = cycle_index(S3, unit_character(S3))
        caps = Caps(orbit_work=comb(5, 3) * 3 - 1)
        with pytest.raises(CapExceeded, match="exceed work cap 29$"):
            specialize(Z, 2, caps)


class TestPowerSumAlgebra:
    def test_square_of_s2_index(self):
        s2 = named_group("symmetric", 2)
        Z = cycle_index(s2, unit_character(s2))
        assert psum_mul(Z, Z) == psum_from_dict(
            4, {(4,): (1, 4), (2, 1): (1, 2), (0, 2): (1, 4)})

    def test_zero_annihilates_and_unit_is_neutral(self, S3):
        Z = cycle_index(S3, unit_character(S3))
        assert not psum_mul(Z, PowerSumPoly.zero(2)).terms
        assert psum_mul(Z, PowerSumPoly.unit()) == Z

    def test_mul_commutes_and_associates(self, S3, C4):
        a = cycle_index(S3, unit_character(S3))
        b = cycle_index(C4, unit_character(C4))
        c = cycle_index(S3, sign_character(S3))
        assert psum_mul(a, b) == psum_mul(b, a)
        assert psum_mul(psum_mul(a, b), c) == psum_mul(a, psum_mul(b, c))

    def test_sub(self, S3, A3):
        za = cycle_index(A3, unit_character(A3))
        zs = cycle_index(S3, unit_character(S3))
        zeps = cycle_index(S3, sign_character(S3))
        assert psum_sub(za, zs) == zeps
        assert not psum_sub(za, za).terms

    def test_sub_weight_mismatch(self, S3, C4):
        with pytest.raises(ValueError):
            psum_sub(cycle_index(S3, unit_character(S3)),
                     cycle_index(C4, unit_character(C4)))

    def test_term_cap_bounds_products(self, S3):
        Z = cycle_index(S3, unit_character(S3))
        with pytest.raises(CapExceeded):
            psum_mul(Z, Z, Caps(specialize_terms=1))
        with pytest.raises(CapExceeded):
            plethysm_insert(Z, Z, Caps(specialize_terms=1))

    def test_alternating_archetype_d4(self, S4, A4):
        za = cycle_index(A4, unit_character(A4))
        zs = cycle_index(S4, unit_character(S4))
        assert psum_sub(za, zs) == cycle_index(S4, sign_character(S4))


class TestPlethysm:
    def test_flagship_wreath_s2_s2(self):
        s2 = named_group("symmetric", 2)
        Z = cycle_index(s2, unit_character(s2))
        got = plethysm_insert(Z, Z)
        assert got == psum_from_dict(4, {(4,): (1, 8), (2, 1): (1, 4),
                                         (0, 2): (3, 8), (0, 0, 0, 1): (1, 4)})
        # independent construction: cycle index of the embedded order-8 group
        W = wreath_embed(s2, s2)
        mu = wreath_character(unit_character(s2), unit_character(s2), W)
        assert got == cycle_index(W, mu)

    def test_trivial_outer_group(self):
        t = named_group("cyclic", 1)
        s3 = named_group("symmetric", 3)
        Ztriv = cycle_index(t, unit_character(t))  # = p1
        Z3 = cycle_index(s3, unit_character(s3))
        assert plethysm_insert(Ztriv, Z3) == Z3

    def test_trivial_inner_group(self, S3):
        t = named_group("cyclic", 1)
        Z3 = cycle_index(S3, unit_character(S3))
        assert plethysm_insert(Z3, cycle_index(t, unit_character(t))) == Z3

    def test_weight_multiplies(self):
        s2, c3 = named_group("symmetric", 2), named_group("cyclic", 3)
        got = plethysm_insert(cycle_index(s2, unit_character(s2)),
                              cycle_index(c3, unit_character(c3)))
        assert got.weight == 6
        for exps in got.terms:
            assert sum(s * c for s, c in enumerate(exps, start=1)) == 6

    def test_denominator_bound(self):
        # coefficients of Z(S_r) o ... have denominators dividing r!^d d!
        s2 = named_group("symmetric", 2)
        s3 = named_group("symmetric", 3)
        got = plethysm_insert(cycle_index(s2, unit_character(s2)),
                              cycle_index(s3, unit_character(s3)))
        bound = 6 ** 2 * 2
        for coeff in got.terms.values():
            assert bound % rational(coeff).denominator == 0


class TestMonomialHelpers:
    def test_elementary_symmetric(self):
        e2 = elementary_symmetric(2, 2)
        assert e2.render_text() == "x0*x1 + x0*x2 + x1*x2"
        assert not elementary_symmetric(3, 1).terms
        assert elementary_symmetric(1, 1).render_text() == "x0 + x1"

    def test_is_symmetric(self):
        assert is_symmetric(elementary_symmetric(2, 2))
        skew = MonomialPoly(2, {(2, 1): Cyclotomic.one()})
        assert not is_symmetric(skew)
        assert is_symmetric(MonomialPoly(3, {}))

    def test_specialize_checks_symmetry_on_its_own_sums(self, A4, monkeypatch):
        # Z(A4) = (p1^4 + 8 p1 p3 + 3 p2^2)/12: p1 p3 adds first to the sum at x0^4, and
        # 1 more there leaves x1^4 behind, which the check on the int pairs must see
        real, calls = polys.add_at_conductors, []

        def off_by_one_once(*args):
            calls.append(args)
            total = real(*args)
            return real(*total, 1, 1) if len(calls) == 1 else total

        Z = cycle_index(A4, unit_character(A4))
        monkeypatch.setattr(polys, "add_at_conductors", off_by_one_once)
        with pytest.raises(AssertionError, match="not symmetric"):
            specialize(Z, 2)
        monkeypatch.setattr(polys, "add_at_conductors", real)
        assert is_symmetric(specialize(Z, 2))

    def test_equality_and_coefficient_edge_cases(self, S3):
        # power-sum equality ignores the weight; monomial equality checks nvars
        assert PowerSumPoly.zero(2) == PowerSumPoly.zero(3)
        assert MonomialPoly(2, {}) != MonomialPoly(3, {})
        Z = cycle_index(S3, unit_character(S3))
        assert coefficient(Z, (3, 0, 0)) == Cyclotomic.from_rational(Fraction(1, 6))
        assert coefficient(Z, (1,)) == 0  # not isobaric of weight 3
        assert coefficient(elementary_symmetric(1, 1), (1,)) == 0  # wrong length
        with pytest.raises(ValueError):
            PowerSumPoly(3, {(1,): Cyclotomic.one()})
        with pytest.raises(ValueError):
            MonomialPoly(2, {(1,): Cyclotomic.one()})

    def test_json_round_trip_shape(self, S3):
        Z = cycle_index(S3, sign_character(S3))
        data = Z.to_json()
        assert data["weight"] == 3
        assert data["terms"][0] == {"exponents": [3], "coeff": {"num": "1", "den": "6"}}
