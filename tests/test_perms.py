import pytest
from hypothesis import given, strategies as st

from cycindex import (PermGroup, compose, cycle_string, cycle_type,
                      decompose_wreath_element, derived_subgroup,
                      direct_product_embed, group_closure, inverse, named_group,
                      perm_from_cycles, wreath_embed)
from cycindex.caps import CapExceeded, Caps
from cycindex.characters import kernel, sign_character
from cycindex.cli import EXIT_OK, JobSpec, run
from cycindex.grammar import parse_group
from cycindex.perms import split_product_element
from oracles import (cycle_type_from_cycles, cycles, identity, perm_order,
                     reconstruct_wreath_element)


def naive_closure(generators, degree):
    """Oracle: repeated pairwise multiplication of image tuples to a fixpoint."""
    elems = {identity(degree), *generators}
    while True:
        new = {compose(a, b) for a in elems for b in elems} - elems
        if not new:
            return elems
        elems |= new


perms = st.integers(min_value=1, max_value=6).flatmap(
    lambda d: st.permutations(list(range(1, d + 1))).map(tuple))


class TestPermutation:
    def test_from_cycles(self):
        assert perm_from_cycles("(1 2 3)", 3) == (2, 3, 1)
        assert perm_from_cycles("", 4) == (1, 2, 3, 4)
        assert perm_from_cycles("(1 2)(3 4)", 4) == (2, 1, 4, 3)

    @pytest.mark.parametrize("text,degree", [
        ("(1 2)(2 3)", 3),      # repeated point
        ("(1 5)", 3),           # out of range
        ("1 2 3", 3),           # malformed
        ("(1 2", 3),            # malformed
    ])
    def test_from_cycles_errors(self, text, degree):
        with pytest.raises(ValueError):
            perm_from_cycles(text, degree)

    def test_compose_applies_right_factor_first(self):
        a = perm_from_cycles("(1 2)", 3)
        b = perm_from_cycles("(2 3)", 3)
        assert compose(a, b) == (2, 3, 1)

    def test_compose_degree_mismatch(self):
        with pytest.raises(ValueError):
            compose(identity(2), identity(3))

    @given(perms)
    def test_identity_and_inverse_laws(self, p):
        e = identity(len(p))
        assert compose(p, e) == p
        assert compose(e, p) == p
        assert compose(p, inverse(p)) == e

    @given(perms.flatmap(lambda p: st.tuples(
        st.just(p),
        st.permutations(list(range(1, len(p) + 1))),
        st.permutations(list(range(1, len(p) + 1))))))
    def test_compose_associative(self, triple):
        a, bi, ci = triple
        b, c = tuple(bi), tuple(ci)
        assert compose(compose(a, b), c) == compose(a, compose(b, c))

    @given(perms.flatmap(lambda p: st.tuples(
        st.just(p), st.permutations(list(range(1, len(p) + 1))))))
    def test_products_and_inverses_are_bijections_in_the_group(self, pair):
        # compose and inverse build image tuples with no bijection check
        a, bi = pair
        b = tuple(bi)
        group = group_closure([a, b], degree=len(a))
        for built in (compose(a, b), inverse(a)):
            assert sorted(built) == list(identity(len(a)))
            assert built in group.image_index
        odd = tuple(range(1, len(a) + 2))
        with pytest.raises(ValueError):
            compose(a, odd)
        with pytest.raises(ValueError):
            compose(odd, a)

    def test_cycle_type(self):
        assert cycle_type(identity(3)) == (3, 0, 0)
        assert cycle_type(perm_from_cycles("(1 2 3 4)", 4)) == (0, 0, 0, 1)
        assert cycle_type(perm_from_cycles("(1 2)(3 4)", 4)) == (0, 2, 0, 0)

    @given(perms)
    def test_cycle_type_is_a_partition(self, p):
        assert sum(s * c for s, c in enumerate(cycle_type(p), start=1)) == len(p)

    @given(perms)
    def test_cycle_type_matches_the_cycles_reference(self, p):
        assert cycle_type(p) == cycle_type_from_cycles(p)

    def test_cycle_string(self):
        assert cycle_string(perm_from_cycles("(3 1)(2 4 5)", 5)) == "(1 3)(2 4 5)"
        # the identity prints as "()", which the parser reads back; an empty cycle moves nothing
        assert cycle_string(identity(3)) == cycle_string((1,)) == "()"
        assert perm_from_cycles("", 3) == perm_from_cycles("()", 3) == identity(3)
        assert perm_from_cycles("()(1 2)()", 3) == (2, 1, 3)

    @given(st.integers(min_value=1, max_value=8).flatmap(
        lambda d: st.permutations(list(range(1, d + 1))).map(tuple)))
    def test_cycle_string_round_trips_and_matches_the_cycles_reference(self, g):
        text = cycle_string(g)
        assert text == ("".join("(" + " ".join(map(str, c)) + ")" for c in cycles(g)) or "()")
        assert perm_from_cycles(text, len(g)) == g


class TestClosure:
    def test_cyclic_order_four(self):
        g = group_closure([perm_from_cycles("(1 2 3 4)", 4)])
        assert g.order == len(naive_closure(g.generators, 4)) == 4

    def test_transposition_plus_cycle_generates_s4(self):
        gens = [perm_from_cycles("(1 2)", 4), perm_from_cycles("(1 2 3 4)", 4)]
        g = group_closure(gens)
        assert g.order == 24
        assert set(g.images) == naive_closure(gens, 4)

    def test_empty_generators(self):
        assert group_closure([], degree=3).order == 1
        with pytest.raises(ValueError):
            group_closure([])

    def test_closure_is_idempotent(self, S3):
        again = PermGroup.from_elements(S3.images)
        assert set(again.images) == set(S3.images)
        assert group_closure(S3.images).order == S3.order

    def test_group_order_cap_boundary(self):
        gens = [perm_from_cycles("(1 2)", 3), perm_from_cycles("(1 2 3)", 3)]
        assert group_closure(gens, caps=Caps(group_order=6)).order == 6
        with pytest.raises(CapExceeded, match="^group order exceeds cap 5$"):
            group_closure(gens, caps=Caps(group_order=5))

    def test_element_table_work_cap_boundary(self):
        # C(10): 10 elements of degree 10 fill a table of exactly 100 entries
        gens = [perm_from_cycles("(1 2 3 4 5 6 7 8 9 10)", 10)]
        assert group_closure(gens, caps=Caps(orbit_work=100)).order == 10
        with pytest.raises(CapExceeded, match="^group elements times degree exceed work cap 99$"):
            group_closure(gens, caps=Caps(orbit_work=99))

    def test_direct_product_is_capped_before_it_is_built(self, S3):
        assert direct_product_embed(S3, S3, Caps(group_order=36, orbit_work=216)).order == 36
        with pytest.raises(CapExceeded, match="^group order exceeds cap 35$"):
            direct_product_embed(S3, S3, Caps(group_order=35))
        with pytest.raises(CapExceeded, match="work cap 215$"):
            direct_product_embed(S3, S3, Caps(orbit_work=215))

    @pytest.mark.parametrize("cycles", [
        ["", "(1 2 3)"],  # no inverse of (1 2 3); "" is the identity
        ["(1 2)"],  # no identity
        ["", "(1 2)", "(2 3)"],  # not closed under composition
    ])
    def test_from_elements_rejects_non_groups(self, cycles):
        elements = [perm_from_cycles(c, 3) for c in cycles]
        with pytest.raises(ValueError):
            PermGroup.from_elements(elements)

    def test_from_elements_keeps_bfs_order_of_greedy_generators(self, S4):
        G = PermGroup.from_elements(reversed(S4.images))
        assert G.images == group_closure(G.generators, degree=4).images

    def test_identity_comes_first(self, S4):
        assert S4.images[0] == identity(4)

    def test_deterministic_element_order(self):
        gens = [perm_from_cycles("(1 2)", 3), perm_from_cycles("(1 2 3)", 3)]
        a = group_closure(gens)
        b = group_closure(gens)
        assert a.images == b.images


def frontier_bfs_oracle(generators, degree):
    """The element order of a breadth-first walk on image tuples, frontier by frontier."""
    start = identity(degree)
    order, seen, frontier = [start], {start}, [start]
    while frontier:
        nxt = []
        for e in frontier:
            for g in generators:
                p = compose(e, g)
                if p not in seen:
                    seen.add(p)
                    order.append(p)
                    nxt.append(p)
        frontier = nxt
    return order


TABLE_GROUPS = {
    "group_closure S(4)": lambda: named_group("symmetric", 4),
    "group_closure gen": lambda: parse_group("gen[6]{(1 2 3)(4 5),(1 4)(2 6)}").group,
    "from_elements": lambda: PermGroup.from_elements(reversed(named_group("dihedral", 5).images)),
    "derived_subgroup S(4)": lambda: derived_subgroup(named_group("symmetric", 4)),
    "derived_subgroup wreath": lambda: derived_subgroup(parse_group("wreath(S(3),S(2))").group),
    "direct_product_embed": lambda: direct_product_embed(named_group("symmetric", 3),
                                                         named_group("cyclic", 4)),
    "wreath_embed": lambda: wreath_embed(named_group("symmetric", 2), named_group("cyclic", 3)),
    "constructor": lambda: _identity_then_reversed(named_group("symmetric", 3)),
    "kernel": lambda: kernel(sign_character(parse_group("wreath(S(3),S(2))").group)),
}


def _identity_then_reversed(G):
    """G from its element list in an order no BFS gives; the constructor builds the table."""
    return PermGroup(G.degree, G.images[:1] + G.images[:0:-1], G.generators)


class TestRightTable:
    @pytest.mark.parametrize("name", sorted(TABLE_GROUPS))
    def test_entries_are_products_with_generators(self, name):
        G = TABLE_GROUPS[name]()
        assert len(G.right) == len(G.generators) > 0
        for k, row in enumerate(G.right):
            assert row[0] == G.image_index[G.generators[k]]  # column 0 indexes generator k
            assert len(row) == G.order and row.itemsize <= 8
            for i in range(G.order):
                assert row[i] == G.image_index[compose(G.images[i], G.generators[k])]

    @pytest.mark.parametrize("expr", ["S(5)", "A(5)", "D(6)", "C(7)", "wreath(S(2),S(3))",
                                      "gen[6]{(1 2 3)(4 5),(1 4)(2 6)}"])
    def test_element_order_is_the_frontier_bfs(self, expr):
        G = parse_group(expr).group
        assert list(G.images) == frontier_bfs_oracle(G.generators, G.degree)

    def test_element_list_not_closed_under_generators(self):
        with pytest.raises(ValueError, match="not closed"):
            PermGroup(3, [identity(3)], [perm_from_cycles("(1 2)", 3)])

    def test_degree_one_generator_fails_closed(self):
        # no construction route gives a degree-1 group a generator: the identity is dropped
        with pytest.raises(ValueError, match="not closed"):
            PermGroup(1, [(1,)], [(1,)])
        for expr in ("S(1)", "gen[1]{(1)}"):
            assert parse_group(expr).group.generators == ()
            assert run(JobSpec("characters", expr))[0] == EXIT_OK


class TestNamedGroups:
    @pytest.mark.parametrize("kind,d,order", [
        ("symmetric", 4, 24),
        ("alternating", 4, 12),
        ("cyclic", 1, 1),
        ("cyclic", 6, 6),
        ("dihedral", 4, 8),
        ("dihedral", 6, 12),
    ])
    def test_orders(self, kind, d, order):
        g = named_group(kind, d)
        assert g.order == order
        assert set(g.images) == naive_closure(g.generators, d)

    def test_dihedral_needs_three_points(self):
        with pytest.raises(ValueError):
            named_group("dihedral", 2)

    def test_element_orders_divide_group_order(self, A4):
        for g in A4.images:
            assert A4.order % perm_order(g) == 0


class TestEmbeddings:
    def test_s2_times_s2(self):
        s2 = named_group("symmetric", 2)
        p = direct_product_embed(s2, s2)
        assert p.degree == 4 and p.order == 4
        expected = {perm_from_cycles(t, 4) for t in ["", "(1 2)", "(3 4)", "(1 2)(3 4)"]}
        assert set(p.images) == expected

    def test_trivial_times_trivial(self):
        t = named_group("cyclic", 1)
        assert direct_product_embed(t, t).order == 1

    def test_s2_times_c3(self):
        p = direct_product_embed(named_group("symmetric", 2), named_group("cyclic", 3))
        assert p.degree == 5 and p.order == 6
        assert set(p.images) == naive_closure(p.generators, 5)

    def test_wreath_s2_s2_is_dihedral(self):
        s2 = named_group("symmetric", 2)
        w = wreath_embed(s2, s2)
        assert w.degree == 4 and w.order == 8
        d4 = named_group("dihedral", 4)
        # conjugate copies of D4 in S4: same multiset of cycle types
        assert sorted(map(cycle_type, w.images)) == sorted(map(cycle_type, d4.images))

    def test_wreath_with_trivial_top(self):
        s2 = named_group("symmetric", 2)
        w = wreath_embed(s2, named_group("cyclic", 1))
        assert w.order == 2 and w.degree == 2

    def test_wreath_with_trivial_blocks(self, S3):
        w = wreath_embed(named_group("cyclic", 1), S3)
        assert w.order == S3.order

    @pytest.mark.parametrize("v_kind,v_d,w_kind,w_d", [
        ("symmetric", 2, "symmetric", 2),
        ("cyclic", 2, "cyclic", 3),
        ("symmetric", 3, "symmetric", 2),
        ("cyclic", 3, "symmetric", 2),
        ("symmetric", 2, "cyclic", 3),
        ("cyclic", 2, "symmetric", 3),
    ])
    def test_wreath_order_formula(self, v_kind, v_d, w_kind, w_d):
        V, W = named_group(v_kind, v_d), named_group(w_kind, w_d)
        assert wreath_embed(V, W).order == V.order ** W.degree * W.order

    def test_wreath_decomposition_round_trip(self):
        s2 = named_group("symmetric", 2)
        c3 = named_group("cyclic", 3)
        w = wreath_embed(s2, c3)
        for g in w.images:
            sigma, taus = decompose_wreath_element(g, 2, 3, s2, c3)
            assert sigma in c3.image_index and all(t in s2.image_index for t in taus)
            assert reconstruct_wreath_element(sigma, taus, 2, 3) == g

    def test_wreath_generator_decompositions(self):
        s2 = named_group("symmetric", 2)
        w = wreath_embed(s2, s2)
        block1 = perm_from_cycles("(1 2)", 4)
        swap = perm_from_cycles("(1 3)(2 4)", 4)
        sigma, taus = decompose_wreath_element(block1, 2, 2, s2, s2)
        assert (sigma, taus) == ((1, 2), ((2, 1), (1, 2)))
        sigma, taus = decompose_wreath_element(swap, 2, 2, s2, s2)
        assert (sigma, taus) == ((2, 1), ((1, 2), (1, 2)))
        assert block1 in w.image_index and swap in w.image_index

    def test_decompose_rejects_block_breakers(self):
        s2 = named_group("symmetric", 2)
        with pytest.raises(ValueError):
            decompose_wreath_element(perm_from_cycles("(2 3)", 4), 2, 2, s2, s2)

    def test_decompose_rejects_maps_outside_the_factors(self):
        # three blocks of size 2 under C(3): swapping two blocks is no rotation
        s2, c3 = named_group("symmetric", 2), named_group("cyclic", 3)
        with pytest.raises(ValueError, match="not in the top group"):
            decompose_wreath_element(perm_from_cycles("(1 3)(2 4)", 6), 2, 3, s2, c3)
        with pytest.raises(ValueError, match="does not map block 2 into a single block"):
            decompose_wreath_element(perm_from_cycles("(4 5)", 6), 2, 3, s2, c3)
        # two blocks of size 3 under A(3): a transposition inside block 2 is odd
        a3 = named_group("alternating", 3)
        with pytest.raises(ValueError, match="not in the block group"):
            decompose_wreath_element(perm_from_cycles("(4 5)", 6), 3, 2, a3, s2)

    def test_factors_are_members_of_the_factor_groups(self):
        V, W = named_group("symmetric", 3), named_group("symmetric", 2)
        for g in wreath_embed(V, W).images:
            sigma, taus = decompose_wreath_element(g, 3, 2, V, W)
            assert sigma in W.image_index and all(tau in V.image_index for tau in taus)
        P = direct_product_embed(V, W)
        for g in P.images:
            sigma, tau = split_product_element(g, 3, 2)
            assert sigma in V.image_index and tau in W.image_index
            assert sigma + tuple(t + 3 for t in tau) == g

    @pytest.mark.parametrize("w_kind,w_d", [("symmetric", 3), ("cyclic", 4), ("dihedral", 4)])
    @pytest.mark.parametrize("v_kind,v_d", [("symmetric", 3), ("cyclic", 4), ("dihedral", 4)])
    def test_direct_product_generators(self, w_kind, w_d, v_kind, v_d):
        # W's generators on 1..d, then V's generators on d+1..d+r shifted by d
        W, V = named_group(w_kind, w_d), named_group(v_kind, v_d)
        d, r = W.degree, V.degree
        expected = []
        for w in W.generators:
            images = {s: w[s - 1] for s in range(1, d + 1)}
            images.update({d + t: d + t for t in range(1, r + 1)})
            expected.append(tuple(images[s] for s in range(1, d + r + 1)))
        for v in V.generators:
            images = {s: s for s in range(1, d + 1)}
            images.update({d + t: d + v[t - 1] for t in range(1, r + 1)})
            expected.append(tuple(images[s] for s in range(1, d + r + 1)))
        assert list(direct_product_embed(W, V).generators) == expected

    @pytest.mark.parametrize("w_kind,w_d", [("symmetric", 3), ("cyclic", 4)])
    @pytest.mark.parametrize("v_kind,v_d", [("symmetric", 2), ("cyclic", 3)])
    def test_wreath_generators(self, v_kind, v_d, w_kind, w_d):
        # V's generators inside block b for b = 1..d, then W's generators moving
        # the blocks: (s-1)r+t -> (w(s)-1)r+t
        V, W = named_group(v_kind, v_d), named_group(w_kind, w_d)
        r, d = V.degree, W.degree
        points = range(1, d * r + 1)
        expected = []
        for b in range(1, d + 1):
            for v in V.generators:
                images = {s: s for s in points}
                images.update({(b - 1) * r + t: (b - 1) * r + v[t - 1] for t in range(1, r + 1)})
                expected.append(tuple(images[s] for s in points))
        for w in W.generators:
            images = {(s - 1) * r + t: (w[s - 1] - 1) * r + t
                      for s in range(1, d + 1) for t in range(1, r + 1)}
            expected.append(tuple(images[s] for s in points))
        assert list(wreath_embed(V, W).generators) == expected

    def test_split_rejects_block_breakers_and_wrong_degrees(self):
        with pytest.raises(ValueError, match="does not preserve the blocks"):
            split_product_element(perm_from_cycles("(3 4)", 5), 3, 2)
        with pytest.raises(ValueError, match="degree"):
            split_product_element(perm_from_cycles("(1 2)", 6), 3, 2)


class TestDerivedSubgroup:
    def commutator_oracle(self, G):
        comms = {compose(compose(inverse(g), inverse(h)), compose(g, h))
                 for g in G.images for h in G.images}
        return naive_closure(comms, G.degree)

    def test_s3(self, S3, A3):
        derived = derived_subgroup(S3)
        assert derived.order == 3
        assert set(derived.images) == set(A3.images) == self.commutator_oracle(S3)

    def test_abelian_group_has_trivial_derived(self, C4):
        assert derived_subgroup(C4).order == 1

    def test_s4(self, S4, A4):
        derived = derived_subgroup(S4)
        assert derived.order == 12
        assert set(derived.images) == set(A4.images)

    @pytest.mark.parametrize("expr", [
        "S(5)", "A(5)", "D(6)", "wreath(S(3),S(2))", "product(S(3),D(4))",
        "wreath(S(2),S(3))", "D(8)", "C(12)", "gen[6]{(1 2),(3 4),(5 6)}",
        "gen[5]{(1 2),(2 3),(3 4),(4 5)}",
    ])
    def test_equals_closure_of_all_commutators(self, expr):
        G = parse_group(expr).group
        assert set(derived_subgroup(G).images) == self.commutator_oracle(G)

    @pytest.mark.parametrize("expr", ["S(4)", "S(5)", "wreath(S(3),S(2))", "product(S(3),D(4))"])
    def test_derived_subgroup_is_normal(self, expr):
        G = parse_group(expr).group
        dset = set(derived_subgroup(G).images)
        for g in G.images:
            assert {compose(compose(g, h), inverse(g)) for h in dset} == dset
