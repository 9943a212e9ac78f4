import time
from itertools import product as iter_product
from math import lcm, prod

import pytest
from hypothesis import given, settings, strategies as st

from cycindex import (Cyclotomic, PermGroup, compose,
                      derived_subgroup, direct_product_embed,
                      enumerate_linear_characters, group_closure, inverse, kernel,
                      named_group, perm_from_cycles, product_character,
                      sign_character, unit_character, wreath_character, wreath_embed)
from cycindex.catalog import MAIN_GROUP_EXPRS, PAIR_EXPRS
from cycindex.characters import (LinearCharacter, _from_generators, _spanning_tree,
                                 abelianization_exponent, relator_hermite_form,
                                 validate_homomorphism)
from cycindex.cli import EXIT_CAP, EXIT_OK, JobSpec, run
from cycindex.grammar import parse_character, parse_group
from cycindex.perms import decompose_wreath_element, split_product_element
from oracles import (cycle_type_from_cycles, identity, multiplicative_order, same_character,
                     value)


def character_count_oracle(G):
    """|G / [G,G]| computed via the commutator subgroup."""
    return G.order // derived_subgroup(G).order


def assignment_search_oracle(G):
    """The sorted value tables of every linear character, by trying all m^#gens
    generator assignments and extending each along BFS words with image-tuple
    products, keeping the consistent ones."""
    m = abelianization_exponent(G, derived_subgroup(G))
    tables = set()
    for assignment in iter_product(range(m), repeat=len(G.generators)):
        values = {identity(G.degree): 0}
        frontier, consistent = [identity(G.degree)], True
        while frontier and consistent:
            nxt = []
            for x in frontier:
                for g, e in zip(G.generators, assignment):
                    y, v = compose(x, g), (values[x] + e) % m
                    if y not in values:
                        values[y] = v
                        nxt.append(y)
                    elif values[y] != v:
                        consistent = False
            frontier = nxt
        if consistent and len(values) == G.order:
            tables.add(tuple(values[g] for g in G.images))
    return m, sorted(tables)


def scaled(chi, m):
    """chi's exponent table over zeta_m, for m a multiple of chi.order_m."""
    return tuple(e * (m // chi.order_m) for e in chi.exponents)


def parity_oracle(G):
    """The sign character element by element: the parity of d minus the cycle count."""
    return tuple((G.degree - sum(cycle_type_from_cycles(g))) % 2
                 for g in G.images)


def product_oracle(chi, theta, P):
    """chi (x) theta element by element, each element of P split into its two blocks."""
    W, V = chi.group, theta.group
    m = lcm(chi.order_m, theta.order_m)
    table = []
    for g in P.images:
        sigma, tau = split_product_element(g, W.degree, V.degree)
        assert sigma in W.image_index and tau in V.image_index
        table.append((chi.exponent(sigma) * (m // chi.order_m)
                      + theta.exponent(tau) * (m // theta.order_m)) % m)
    return m, tuple(table)


def wreath_oracle(theta, chi, G):
    """theta^(x)d (x) chi element by element, each element of G decomposed."""
    V, W = theta.group, chi.group
    m = lcm(theta.order_m, chi.order_m)
    table = []
    for g in G.images:
        sigma, taus = decompose_wreath_element(g, V.degree, W.degree, V, W)
        e = chi.exponent(sigma) * (m // chi.order_m)
        e += sum(theta.exponent(tau) for tau in taus) * (m // theta.order_m)
        table.append(e % m)
    return m, tuple(table)


def assert_relator_route_matches_oracles(G):
    chars = enumerate_linear_characters(G)
    m, tables = assignment_search_oracle(G)
    assert [chi.exponents for chi in chars] == tables
    assert all(chi.order_m == m for chi in chars)
    rows = relator_hermite_form(G, m, _spanning_tree(G))
    assert all(row[:i] == [0] * i and m % row[i] == 0 for i, row in enumerate(rows))
    assert prod(row[i] for i, row in enumerate(rows)) == character_count_oracle(G)


CATALOG_GROUPS = list(dict.fromkeys([*MAIN_GROUP_EXPRS, *(expr for expr, _ in PAIR_EXPRS)]))
# the groups of the benchmark's ``groups`` workload
WORKLOAD_GROUPS = ["S(6)", "A(6)", "wreath(S(3),S(2))", "wreath(S(2),S(3))",
                   "product(S(3),D(4))", "D(8)", "C(12)", "gen[6]{(1 2),(3 4),(5 6)}"]

subgroup_generators = st.integers(5, 6).flatmap(
    lambda d: st.lists(st.permutations(list(range(1, d + 1))).map(tuple), min_size=1, max_size=3))


class TestRelatorLattice:
    @pytest.mark.parametrize("expr", CATALOG_GROUPS + WORKLOAD_GROUPS)
    def test_matches_assignment_search(self, expr):
        assert_relator_route_matches_oracles(parse_group(expr).group)

    @settings(max_examples=60, deadline=None)
    @given(subgroup_generators)
    def test_matches_assignment_search_on_random_subgroups(self, gens):
        assert_relator_route_matches_oracles(group_closure(gens, degree=len(gens[0])))

    @pytest.mark.parametrize("expr", ["S(3)", "A(4)", "D(4)", "C(6)"])
    def test_extension_keeps_exactly_the_characters(self, expr):
        # every assignment, lattice solution or not: only characters extend
        G = parse_group(expr).group
        m, tables = assignment_search_oracle(G)
        tree = _spanning_tree(G)
        extended = []
        for a in iter_product(range(m), repeat=len(G.generators)):
            try:
                extended.append(_from_generators(G, m, a, None, tree).exponents)
            except ValueError:  # does not extend
                pass
        assert sorted(extended) == tables

    def test_large_wreath_lists_its_four_characters(self, run_cli):
        # order 31,104: the m^#gens search exceeded the work cap here
        done = run_cli(["characters", "--group", "wreath(S(3),S(4))"], timeout=60)
        assert done.returncode == EXIT_OK
        assert "order 31104, 4 linear character(s)" in done.stdout
        assert done.stdout.count("\n") == 5


class TestValidateHomomorphism:
    @pytest.mark.parametrize("kind,d", [("symmetric", 3), ("cyclic", 4)])
    def test_every_corrupted_exponent_is_caught(self, kind, d):
        G = named_group(kind, d)
        for chi in enumerate_linear_characters(G):
            m = chi.order_m
            validate_homomorphism(chi)
            for i in range(1, G.order):
                table = list(chi.exponents)
                table[i] = (table[i] + 1) % m
                with pytest.raises(ValueError, match="not a homomorphism"):
                    validate_homomorphism(LinearCharacter(G, m, tuple(table)))
            with pytest.raises(ValueError, match="identity"):
                LinearCharacter(G, m, (1,) + chi.exponents[1:])

    def test_a_failure_only_in_a_later_generator_row_is_caught(self):
        # on C2 x C2 = <a, b> over zeta_3, chi(a) = 0 and chi(b) = chi(ab) = 1: every
        # edge x -> x a holds, and b -> b b = e is the first edge that breaks
        G = parse_group("gen[4]{(1 2),(3 4)}").group
        a, b = G.generators
        values = {identity(4): 0, a: 0, b: 1, compose(a, b): 1}
        chi = LinearCharacter(G, 3, tuple(values[g] for g in G.images))
        with pytest.raises(ValueError, match=r"^not a homomorphism at \(\(3 4\), \(3 4\)\)$"):
            validate_homomorphism(chi)


class TestEnumeration:
    def test_s3_has_unit_and_sign(self, S3):
        chars = enumerate_linear_characters(S3)
        assert len(chars) == character_count_oracle(S3) == 2
        assert chars[0].is_unit()
        assert same_character(chars[1], sign_character(S3))

    def test_c4_has_four_characters_over_q_zeta4(self, C4):
        chars = enumerate_linear_characters(C4)
        assert len(chars) == 4
        assert chars[0].is_unit()
        assert all(chi.order_m == 4 for chi in chars)
        g = perm_from_cycles("(1 2 3 4)", 4)
        assert sorted(chi.exponent(g) for chi in chars) == [0, 1, 2, 3]

    def test_a4_has_three_characters_over_q_zeta3(self, A4):
        chars = enumerate_linear_characters(A4)
        assert len(chars) == character_count_oracle(A4) == 3
        assert all(chi.order_m == 3 for chi in chars)

    @pytest.mark.parametrize("kind,d", [
        ("symmetric", 4), ("alternating", 4), ("cyclic", 6),
        ("dihedral", 4), ("dihedral", 5),
    ])
    def test_count_matches_abelianization(self, kind, d):
        G = named_group(kind, d)
        assert len(enumerate_linear_characters(G)) == character_count_oracle(G)

    @pytest.mark.parametrize("expr,exponent", [
        ("S(4)", 2), ("A(4)", 3), ("C(12)", 12), ("D(8)", 2),
        ("gen[4]{(1 2)(3 4),(1 3)(2 4)}", 2), ("wreath(S(2),S(2))", 2),
        ("product(S(3),D(4))", 2),
    ])
    def test_abelianization_exponent_table(self, expr, exponent):
        G = parse_group(expr).group
        assert abelianization_exponent(G, derived_subgroup(G)) == exponent

    @pytest.mark.parametrize("d", [7, 8])
    def test_large_symmetric_groups_finish_quickly(self, d):
        # the derived subgroup once formed all |G|^2 commutators: minutes for S(7)
        started = time.monotonic()
        code, out = run(JobSpec("characters", f"S({d})"))
        assert code == EXIT_OK and "2 linear character(s)" in out
        assert time.monotonic() - started < 60.0

    def test_assignment_search_is_bounded_by_the_work_cap(self, run_cli):
        # C2^12 has 2^12 generator assignments, each walking 4096 elements
        expr = "C(2)"
        for _ in range(11):
            expr = f"product(C(2),{expr})"
        # in a subprocess, so that an uncapped search fails by timing out
        done = run_cli(["characters", "--group", expr], timeout=20)
        assert done.returncode == EXIT_CAP
        assert done.stdout.startswith("cap exceeded:") and done.stdout.count("\n") == 1

    def test_tables_are_pairwise_distinct(self, V4):
        chars = enumerate_linear_characters(V4)
        tables = [chi.exponents for chi in chars]
        assert len(set(tables)) == len(tables) == 4

    def test_exhaustive_homomorphism_check(self):
        # every pair (g, h) for all enumerated characters, |G| <= 200
        for kind, d in [("symmetric", 3), ("cyclic", 4), ("dihedral", 4),
                        ("alternating", 4), ("symmetric", 4)]:
            G = named_group(kind, d)
            assert G.order <= 200
            for chi in enumerate_linear_characters(G):
                for g in G.images:
                    for h in G.images:
                        gh = compose(g, h)
                        assert value(chi, gh) == value(chi, g) * value(chi, h)

    def test_character_sum_orthogonality(self):
        # sum over the group is |G| for the unit character and 0 otherwise
        for kind, d in [("symmetric", 3), ("cyclic", 4), ("cyclic", 6),
                        ("alternating", 4), ("dihedral", 4)]:
            G = named_group(kind, d)
            for chi in enumerate_linear_characters(G):
                total = Cyclotomic.zero()
                for g in G.images:
                    total = total + value(chi, g)
                expected = G.order if chi.is_unit() else 0
                assert total == Cyclotomic.from_rational(expected)

    def test_values_are_mth_roots(self, C4):
        for chi in enumerate_linear_characters(C4):
            for g in C4.images:
                v = value(chi, g)
                assert chi.order_m % multiplicative_order(v) == 0


class TestAbelianizationExponent:
    @pytest.mark.parametrize("expr", CATALOG_GROUPS + WORKLOAD_GROUPS)
    def test_is_the_lcm_of_element_orders_in_the_quotient(self, expr):
        G = parse_group(expr).group
        derived = derived_subgroup(G)
        orders = []
        for g in G.images:
            t, power = 1, g
            while power not in derived.image_index:
                t, power = t + 1, compose(power, g)
            orders.append(t)
        assert abelianization_exponent(G, derived) == lcm(*orders)


class TestSign:
    def test_values(self, S3):
        eps = sign_character(S3)
        assert value(eps, perm_from_cycles("(1 2)", 3)) == -1
        assert value(eps, identity(3)) == 1
        assert value(eps, perm_from_cycles("(1 2 3)", 3)) == 1

    def test_restriction_to_alternating_is_trivial(self, A4):
        assert sign_character(A4).is_unit()


class TestKernel:
    def test_kernel_of_sign_is_alternating(self, S3, A3):
        assert set(kernel(sign_character(S3)).images) == set(A3.images)

    def test_kernel_of_unit_is_whole_group(self, S4):
        assert kernel(unit_character(S4)) == S4

    def test_faithful_character_has_trivial_kernel(self, C4):
        chars = enumerate_linear_characters(C4)
        faithful = [c for c in chars if c.image_order() == 4]
        assert len(faithful) == 2
        for chi in faithful:
            assert kernel(chi).order == 1

    def test_kernel_index_equals_image_order(self):
        G = named_group("dihedral", 6)
        for chi in enumerate_linear_characters(G):
            H = kernel(chi)
            assert G.order == H.order * chi.image_order()
            hset = set(H.images)
            for g in G.images:  # normality
                assert {compose(compose(g, h), inverse(g)) for h in hset} == hset


class TestProductCharacter:
    def test_values_on_s2_x_s2(self):
        s2 = named_group("symmetric", 2)
        eps, one = sign_character(s2), unit_character(s2)
        P = direct_product_embed(s2, s2)
        both = product_character(eps, eps, P)
        assert value(both, identity(P.degree)) == 1
        assert value(both, perm_from_cycles("(1 2)(3 4)", 4)) == 1
        left_only = product_character(eps, one, P)
        assert value(left_only, perm_from_cycles("(1 2)", 4)) == -1

    def test_order_is_lcm(self):
        c4, c3 = named_group("cyclic", 4), named_group("cyclic", 3)
        chi = enumerate_linear_characters(c4)[1]
        theta = enumerate_linear_characters(c3)[1]
        lam = product_character(chi, theta, direct_product_embed(c4, c3))
        assert lam.order_m == lcm(4, 3)


class TestWreathCharacter:
    def test_values_on_wreath_s2_s2(self):
        s2 = named_group("symmetric", 2)
        W = wreath_embed(s2, s2)
        eps, one = sign_character(s2), unit_character(s2)
        block1 = perm_from_cycles("(1 2)", 4)
        swap = perm_from_cycles("(1 3)(2 4)", 4)
        mu = wreath_character(eps, one, W)
        assert value(mu, identity(W.degree)) == 1
        assert value(mu, block1) == -1
        mu2 = wreath_character(one, eps, W)
        assert value(mu2, swap) == -1
        assert value(mu2, block1) == 1


# every ordered pair of PAIR_EXPRS entries, as the catalog's verify-product jobs
PAIRS = [(w, chi_sel, v, theta_sel)
         for w, chi_sel in PAIR_EXPRS for v, theta_sel in PAIR_EXPRS]
PAIR_DEGREES = {expr: parse_group(expr).group.degree for expr, _ in PAIR_EXPRS}


def pair_character(expr, sel):
    spec = parse_group(expr)
    return parse_character(sel, spec)


class TestSignOracle:
    @pytest.mark.parametrize("expr", CATALOG_GROUPS + WORKLOAD_GROUPS)
    def test_matches_the_elementwise_parity(self, expr):
        G = parse_group(expr).group
        assert scaled(sign_character(G), 2) == parity_oracle(G)

    @settings(max_examples=60, deadline=None)
    @given(subgroup_generators)
    def test_matches_the_elementwise_parity_on_random_subgroups(self, gens):
        G = group_closure(gens, degree=len(gens[0]))
        assert scaled(sign_character(G), 2) == parity_oracle(G)


class TestProductAndWreathOracles:
    @pytest.mark.parametrize("w,chi_sel,v,theta_sel", PAIRS)
    def test_product_matches_the_elementwise_split(self, w, chi_sel, v, theta_sel):
        chi, theta = pair_character(w, chi_sel), pair_character(v, theta_sel)
        P = direct_product_embed(chi.group, theta.group)
        lam = product_character(chi, theta, P)
        m, table = product_oracle(chi, theta, P)
        assert scaled(lam, m) == table

    @pytest.mark.parametrize("w,chi_sel,v,theta_sel",  # the catalog's verify-plethysm pairs
                             [p for p in PAIRS if PAIR_DEGREES[p[0]] * PAIR_DEGREES[p[2]] <= 8])
    def test_wreath_matches_the_elementwise_decomposition(self, w, chi_sel, v, theta_sel):
        chi, theta = pair_character(w, chi_sel), pair_character(v, theta_sel)
        G = wreath_embed(theta.group, chi.group)
        mu = wreath_character(theta, chi, G)
        m, table = wreath_oracle(theta, chi, G)
        assert scaled(mu, m) == table

    def test_every_compound_selector_on_wreath_s3_s2(self):
        spec = parse_group("wreath(S(3),S(2))")
        V, W = spec.parts[0].group, spec.parts[1].group
        for theta in enumerate_linear_characters(V):
            for chi in enumerate_linear_characters(W):
                mu = parse_character(f"{theta.name}(x){chi.name}", spec)
                m, table = wreath_oracle(theta, chi, spec.group)
                assert scaled(mu, m) == table

    def test_product_on_a_group_that_moves_the_blocks_raises(self):
        chi, theta = sign_character(named_group("symmetric", 3)), sign_character(
            named_group("symmetric", 2))
        with pytest.raises(ValueError, match="does not preserve the blocks"):
            product_character(chi, theta, named_group("symmetric", 5))

    def test_product_on_a_group_outside_w_x_v_raises(self):
        chi = unit_character(named_group("alternating", 3))
        theta = unit_character(named_group("symmetric", 2))
        P = direct_product_embed(named_group("symmetric", 3), theta.group)
        with pytest.raises(ValueError, match="does not decompose inside W x V"):
            product_character(chi, theta, P)


class TestEquality:
    def test_same_group_listed_in_another_order(self, S3):
        copy = PermGroup.from_elements(S3.images)
        assert copy == S3 and copy.images != S3.images
        assert same_character(sign_character(S3), sign_character(copy))
        assert same_character(sign_character(copy), sign_character(S3))
        assert not same_character(sign_character(S3), unit_character(copy))

    def test_every_character_of_a_reordered_d4_matches_exactly_one(self):
        D4 = named_group("dihedral", 4)
        copy = PermGroup.from_elements(reversed(D4.images))
        assert copy == D4 and copy.images != D4.images
        theirs = enumerate_linear_characters(copy)
        for chi in enumerate_linear_characters(D4):
            assert sum(same_character(chi, psi) for psi in theirs) == 1
            assert same_character(chi, LinearCharacter(
                copy, chi.order_m, tuple(chi.exponent(g) for g in copy.images)))
