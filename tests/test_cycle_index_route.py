"""``cycle_index`` and ``specialize`` against the ``Cyclotomic`` route they replaced.

Both now sum integer (conductor, value) pairs.  Their text must stay what
summing ``Cyclotomic`` values element by element prints, conductors included,
and no ``Cyclotomic`` addition or product may run inside them.
"""

import random

import pytest
from hypothesis import HealthCheck, assume, given, settings, strategies as st

import cycindex.cli as cli
from cycindex import Cyclotomic, LinearCharacter, cycle_index
from cycindex.caps import CapExceeded
from cycindex.cli import EXIT_MISMATCH, JobSpec, run
from cycindex.cyclo import add_at_conductors, cyclotomic_ring, root_at_conductor
from cycindex.grammar import parse_group
from oracles import cycle_index_by_cyclotomic_sums, cyclotomic_sum
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
    # a sum of c * zeta_m^k, step by step: int pairs against the oracle's Cyclotomic
    pair = want = None
    for (m, k), c in terms:
        r, v = root_at_conductor(m, k)
        item = r, cyclotomic_ring(r).scale(v, c)
        root = Cyclotomic.root_of_unity(m, k) * c
        pair = item if pair is None else add_at_conductors(*pair, *item)
        want = root if want is None else cyclotomic_sum(want, root)
        assert Cyclotomic.over(*pair).to_json() == want.to_json()
        assert pair[0] == want.conductor


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
