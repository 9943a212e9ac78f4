from fractions import Fraction
from itertools import product as iter_product

import pytest
import sympy
from hypothesis import given, strategies as st

from cycindex import Cyclotomic, cyclotomic_polynomial
from cycindex.cyclo import CyclotomicIntegers
from oracles import euler_phi, multiplicative_order, rational


def sympy_cyclotomic(m):
    """Oracle: coefficients of Phi_m from sympy, ascending."""
    poly = sympy.Poly(sympy.cyclotomic_poly(m, sympy.Symbol("x")))
    return tuple(int(c) for c in reversed(poly.all_coeffs()))


def sympy_product_mod_phi(m, a, b):
    """Oracle: (sum a_i x^i)(sum b_j x^j) rem Phi_m, ascending, padded to len(a).

    Coefficients are ints or Fractions, and come back as Fractions."""
    x = sympy.Symbol("x")
    pa, pb = (sympy.Poly([sympy.Rational(c.numerator, c.denominator) for c in reversed(cs)], x)
              for cs in (a, b))
    rem = sympy.rem(pa * pb, sympy.Poly(sympy.cyclotomic_poly(m, x), x))
    coeffs = [Fraction(int(c.p), int(c.q)) for c in reversed(rem.all_coeffs())]
    return coeffs + [0] * (len(a) - len(coeffs))


class TestCyclotomicPolynomial:
    def test_m1(self):
        assert cyclotomic_polynomial(1) == (-1, 1)

    def test_m4_by_division_oracle(self):
        # (x^4 - 1) / ((x - 1)(x + 1)) = x^2 + 1
        x = sympy.Symbol("x")
        quotient = sympy.div(x**4 - 1, (x - 1) * (x + 1), x)[0]
        assert cyclotomic_polynomial(4) == (1, 0, 1)
        assert sympy.Poly(quotient, x).all_coeffs() == [1, 0, 1]

    def test_m6_by_division_oracle(self):
        assert cyclotomic_polynomial(6) == (1, -1, 1)

    @pytest.mark.parametrize("m", range(1, 31))
    def test_against_sympy(self, m):
        assert cyclotomic_polynomial(m) == sympy_cyclotomic(m)

    def test_phi(self):
        assert [euler_phi(m) for m in (1, 2, 3, 4, 6, 12)] == [1, 1, 2, 2, 2, 4]


class TestArithmetic:
    def test_i_squared(self):
        i = Cyclotomic.root_of_unity(4, 1)
        assert i * i == Cyclotomic.from_rational(-1)

    def test_sum_of_primitive_cube_roots(self):
        z = Cyclotomic.root_of_unity(3, 1)
        assert z + z * z == Cyclotomic.from_rational(-1)

    def test_additive_identity(self):
        a = Cyclotomic.root_of_unity(5, 2)
        assert a + Cyclotomic.zero() == a
        assert a + 0 == a

    def test_mixed_conductor_equality(self):
        assert Cyclotomic.root_of_unity(6, 2) == Cyclotomic.root_of_unity(3, 1)
        assert Cyclotomic.root_of_unity(8, 4) == Cyclotomic.from_rational(-1)

    def test_rational_demotion(self):
        z = Cyclotomic.root_of_unity(4, 1)
        assert (z * z).is_rational()
        assert rational(z * z) == -1
        assert Cyclotomic.root_of_unity(12, 6).is_rational()

    def test_rational_coercion_in_operations(self):
        z = Cyclotomic.root_of_unity(3, 1)
        assert Fraction(1, 2) * z + Fraction(1, 2) * z == z
        assert 2 * z + (-1) * z == z

    def test_geometric_sum_vanishes(self):
        for m in (2, 3, 4, 5, 6, 8, 12):
            total = Cyclotomic.zero()
            for k in range(m):
                total = total + Cyclotomic.root_of_unity(m, k)
            assert total.is_zero()

    @given(st.integers(1, 24), st.integers(0, 23))
    def test_root_order_divides_conductor(self, m, k):
        z = Cyclotomic.root_of_unity(m, k)
        assert m % multiplicative_order(z) == 0

    roots = st.tuples(st.integers(1, 12), st.integers(0, 11)).map(
        lambda mk: Cyclotomic.root_of_unity(*mk))

    @given(roots, roots, roots)
    def test_field_laws(self, a, b, c):
        assert a + b == b + a
        assert a * b == b * a
        assert (a + b) + c == a + (b + c)
        assert a * (b + c) == a * b + a * c

    @given(st.integers(1, 16), st.integers(0, 15), st.integers(0, 15))
    def test_roots_multiply_by_exponent_addition(self, m, j, k):
        assert (Cyclotomic.root_of_unity(m, j) * Cyclotomic.root_of_unity(m, k)
                == Cyclotomic.root_of_unity(m, j + k))


class TestCyclotomicIntegers:
    elements = st.lists(st.integers(-3, 3), min_size=24, max_size=24)

    @given(st.integers(1, 24), elements, elements)
    def test_ring_operations_match_cyclotomic(self, m, xs, ys):
        R = CyclotomicIntegers(m)
        a, b = R.zero, R.zero
        for k in range(m):  # sum of c_k zeta^k, reduced by the ring itself
            a = R.add(a, R.scale(R.root(k), xs[k]))
            b = R.add(b, R.scale(R.root(k), ys[k]))
        ca, cb = R.to_cyclotomic(a), R.to_cyclotomic(b)
        assert ca == sum((Cyclotomic.root_of_unity(m, k) * xs[k] for k in range(m)),
                         Cyclotomic.zero())
        assert R.to_cyclotomic(R.mul(a, b)) == ca * cb
        assert R.to_cyclotomic(R.sub(a, b)) == ca + -cb
        assert R.nonzero(a) == (not ca.is_zero())
        assert R.to_cyclotomic(a, 6) == ca * Fraction(1, 6)

    @given(st.integers(1, 24), elements, elements)
    def test_mul_matches_sympy_remainder(self, m, xs, ys):
        R = CyclotomicIntegers(m)
        a, b = xs[:R.degree], ys[:R.degree]

        def element(cs):
            return cs[0] if R.degree == 1 else tuple(cs)
        assert R.mul(element(a), element(b)) == element(sympy_product_mod_phi(m, a, b))

    @pytest.mark.parametrize("m", [3, 4, 6])
    def test_degree_two_mul_matches_sympy_remainder(self, m):
        """The product at phi(m) = 2 on ints and, since it is generic, on
        Fractions, with a zero in each slot; ints stay ints."""
        R = CyclotomicIntegers(m)
        assert R.degree == 2
        values = [0, 1, -2, Fraction(1, 2), Fraction(-5, 3)]
        for a in iter_product(values, repeat=2):
            for b in iter_product(values, repeat=2):
                got = R.mul(a, b)
                assert got == tuple(sympy_product_mod_phi(m, a, b)), (m, a, b)
                if all(type(c) is int for c in a + b):
                    assert all(type(c) is int for c in got), (m, a, b)

    def test_sum_of_all_roots_is_zero(self):
        for m in range(2, 25):
            R = CyclotomicIntegers(m)
            total = R.zero
            for k in range(m):
                total = R.add(total, R.root(k))
            assert not R.nonzero(total) and total == R.zero


class TestRepresentation:
    def test_constructor_demotes_and_divides_out_the_gcd(self):
        q = Cyclotomic(3, (2, 0), 4)
        assert (q.conductor, q.num, q.den) == (1, 1, 2)
        z = Cyclotomic(4, (6, -3), 9)
        assert (z.conductor, z.num, z.den) == (4, (2, -1), 3)
        zero = Cyclotomic(5, (0, 0, 0, 0), 7)
        assert (zero.conductor, zero.num, zero.den) == (1, 0, 1) and zero.is_zero()

    def test_equality_cross_multiplies_the_denominators(self):
        assert Cyclotomic(1, 1, 2) != Cyclotomic(1, 1, 3)
        assert Cyclotomic(3, (0, 1), 2) != Cyclotomic(3, (0, 1), 3)
        assert Cyclotomic(1, 2, 4) == Fraction(1, 2)
        # zeta_3 = zeta_6^2 = zeta_6 - 1 in the power basis of Q(zeta_6)
        assert Cyclotomic(3, (0, 1), 2) == Cyclotomic(6, (-1, 1), 2)

    def test_each_coefficient_prints_reduced(self):
        value = Cyclotomic(3, (2, 1), 4)
        assert str(value) == "1/2 + 1/4*z3"
        assert value.to_json() == {"conductor": 3, "coeffs": [{"num": "1", "den": "2"},
                                                              {"num": "1", "den": "4"}]}


class TestRendering:
    def test_rational_strings(self):
        assert str(Cyclotomic.from_rational(Fraction(3, 4))) == "3/4"
        assert str(Cyclotomic.from_rational(-2)) == "-2"

    def test_json_is_exact(self):
        q = Cyclotomic.from_rational(Fraction(-7, 3))
        assert q.to_json() == {"num": "-7", "den": "3"}
        z = Cyclotomic.root_of_unity(5, 1)
        assert z.to_json()["conductor"] == 5
