"""``cycle_index``, ``specialize`` and ``Cyclotomic`` against a Fraction oracle.

``cycle_index`` and ``specialize`` sum integer (conductor, value) pairs.  Their
text must stay what summing values element by element prints, conductors
included, and no ``Cyclotomic`` addition or product may run inside them.  The
oracle of ``tests/oracles.py`` adds and multiplies Fraction coefficient tuples
read from ``to_json()`` and reduces them modulo Phi_M by long division, so it
shares no arithmetic with ``Cyclotomic`` or ``CyclotomicIntegers``.
"""

import random
from fractions import Fraction

import pytest
from hypothesis import HealthCheck, assume, given, settings, strategies as st

import cycindex.cli as cli
from cycindex import Cyclotomic, LinearCharacter, cycle_index
from cycindex.caps import CapExceeded
from cycindex.cli import EXIT_MISMATCH, JobSpec, run
from cycindex.cyclo import add_at_conductors, cyclotomic_ring, root_at_conductor
from cycindex.grammar import parse_group
from oracles import (as_cyclotomic, cycle_index_by_cyclotomic_sums, cyclotomic_product,
                     cyclotomic_sum, fraction_json, lift, reduce_mod_phi, root)
from test_random_groups import CAPS, groups


@settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(groups, st.sampled_from([2, 3, 4, 5, 6, 6, 8, 9, 10, 10, 12, 12, 15, 24, 30, 30]),
       st.integers(1, 4), st.integers(0, 2**32))
def test_same_json_as_the_cyclotomic_route_on_random_tables(group_expr, m, width, seed):
    # each table draws its exponents from a few values, so that sums at one
    # conductor often meet values of another, -1 among them
    try:
        G = parse_group(group_expr, caps=CAPS).group
    except CapExceeded:
        assume(False)
    rng = random.Random(seed)
    palette = [m // 2 if m % 2 == 0 and rng.random() < 0.5 else rng.randrange(m)
               for _ in range(width)]
    exponents = (0,) + tuple(rng.choice(palette) for _ in range(G.order - 1))
    chi = LinearCharacter(G, m, exponents, name="random")
    assert cycle_index(G, chi).to_json() == cycle_index_by_cyclotomic_sums(G, chi).to_json()


roots = st.tuples(st.sampled_from([1, 2, 3, 4, 5, 6, 8, 9, 10, 12, 15]), st.integers(0, 29))


@settings(max_examples=300, deadline=None)
@given(st.lists(roots, min_size=1, max_size=4).flatmap(
    lambda palette: st.lists(st.tuples(st.sampled_from(palette),
                                       st.sampled_from([-2, -1, 1, 2, 3])), max_size=12)))
def test_running_int_sums_keep_the_conductors_of_cyclotomic_sums(terms):
    # a sum of c * zeta_m^k, step by step: int pairs against the oracle's Fraction sums
    pair = want = None
    for (m, k), c in terms:
        r, v = root_at_conductor(m, k)
        item = r, cyclotomic_ring(r).scale(v, c)
        z = cyclotomic_product(root(m, k), (1, (Fraction(c),)))
        pair = item if pair is None else add_at_conductors(*pair, *item)
        want = z if want is None else cyclotomic_sum(want, z)
        assert Cyclotomic(*pair).to_json() == fraction_json(want)
        assert pair[0] == want[0]


@settings(max_examples=300, deadline=None)
@given(st.lists(roots, min_size=1, max_size=4).flatmap(
    lambda palette: st.lists(st.tuples(st.sampled_from(["add", "mul", "neg"]),
                                       st.sampled_from(palette), st.integers(-6, 6),
                                       st.integers(1, 6), st.sampled_from([1, 2, 3, 4])),
                             max_size=12)))
def test_cyclotomic_arithmetic_matches_the_fraction_oracle(steps):
    # a running value under + and * by (c/q) zeta_m^k and under negation, against
    # the oracle; then the same value written at t times its conductor, and twice it
    got, want = Cyclotomic.one(), (1, (Fraction(1),))
    for op, (m, k), c, q, t in steps:
        term = Cyclotomic.root_of_unity(m, k) * Fraction(c, q)
        z = cyclotomic_product(root(m, k), (1, (Fraction(c, q),)))
        assert term.to_json() == fraction_json(z)
        if op == "add":
            got, want = got + term, cyclotomic_sum(want, z)
        elif op == "mul":
            got, want = got * term, cyclotomic_product(want, z)
        else:
            got, want = -got, (want[0], tuple(-x for x in want[1]))
        assert got.to_json() == fraction_json(want)
        assert got.conductor == want[0]
        M = want[0] * t
        higher = as_cyclotomic(reduce_mod_phi(lift(want, M), M))
        assert got == higher and higher == got
        twice = as_cyclotomic(cyclotomic_product(want, (1, (Fraction(2),))))
        assert (got == twice) == got.is_zero()


def test_minus_zeta3_equals_zeta6_to_the_fifth():
    a, b = -Cyclotomic.root_of_unity(3, 1), Cyclotomic.root_of_unity(6, 5)
    assert (a.conductor, b.conductor) == (3, 6)
    assert a == b and b == a
    assert a.to_json() == fraction_json((3, (Fraction(0), Fraction(-1))))
    assert b.to_json() == fraction_json(root(6, 5))
    assert a != Cyclotomic.root_of_unity(6, 1)


def test_no_cyclotomic_arithmetic_inside_the_loops(monkeypatch):
    spec = JobSpec("verify", "C(12)", "index:1", n=2, tamper=True)
    expected = run(spec)
    assert expected[0] == EXIT_MISMATCH and "z12" in expected[1]
    inside = []

    def traced(function):
        def wrapper(*args, **kwargs):
            inside.append(function.__name__)
            try:
                return function(*args, **kwargs)
            finally:
                inside.pop()
        return wrapper

    def guarded(method):
        def wrapper(self, other):
            if inside:
                raise AssertionError(f"Cyclotomic arithmetic inside {inside[-1]}")
            return method(self, other)
        return wrapper

    for name in ("cycle_index", "specialize"):
        monkeypatch.setattr(cli, name, traced(getattr(cli, name)))
    for name in ("__add__", "__radd__", "__mul__", "__rmul__"):
        monkeypatch.setattr(Cyclotomic, name, guarded(getattr(Cyclotomic, name)))
    assert run(spec) == expected


@pytest.mark.parametrize("m,exponents", [(6, (0, 1, 2, 5, 3, 4)), (12, (0, 6, 4, 8, 6, 3))])
def test_minus_one_at_an_odd_conductor_is_a_constant(m, exponents):
    # elements 2 and 4 of C(6) have cycle type 3^2: their sum zeta_3 + (-1)
    # adds -1 = zeta_m^(m/2) to a sum stored at conductor 3, where it is the
    # constant -1, not a power of zeta_3
    G = parse_group("C(6)").group
    chi = LinearCharacter(G, m, exponents, name="table")
    assert cycle_index(G, chi).to_json() == cycle_index_by_cyclotomic_sums(G, chi).to_json()
