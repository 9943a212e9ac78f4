from itertools import product

import pytest

from cycindex import (cycle_index, cycle_type, enumerate_linear_characters,
                      enumerate_orbits, full_census, index_set_J, kernel,
                      named_group, sign_character, specialize, unit_character,
                      weighted_sum_g)
from cycindex import orbits
from cycindex.caps import CapExceeded, Caps
from cycindex.cli import EXIT_CAP, JobSpec, run
from cycindex.orbits import OrbitRecord, action_table, census_json, census_tsv
from cycindex.perms import PermGroup
from oracles import (apply_perm, census_by_apply_perm, evaluate_all_ones, rational,
                     same_character)


def burnside_orbit_count(W, n):
    """Oracle: average number of fixed hypercube points, (n+1)^(number of cycles)."""
    total = sum((n + 1) ** sum(cycle_type(g)) for g in W.images)
    assert total % W.order == 0
    return total // W.order


def orbit_count_by_canonical_forms(W, n):
    """Second oracle: count distinct lex-min forms over all points."""
    reps = set()
    for p in product(range(n + 1), repeat=W.degree):
        reps.add(min(apply_perm(g, p) for g in W.images))
    return len(reps)


class TestEnumerateOrbits:
    def test_c4_on_binary_words(self, C4):
        table = enumerate_orbits(C4, 1)
        assert [r.rep for r in table.records] == [
            (0, 0, 0, 0), (0, 0, 0, 1), (0, 0, 1, 1),
            (0, 1, 0, 1), (0, 1, 1, 1), (1, 1, 1, 1)]
        assert burnside_orbit_count(C4, 1) == 6

    def test_trivial_group(self):
        t = named_group("cyclic", 1)
        assert len(enumerate_orbits(t, 3).records) == 4

    def test_full_symmetric_single_orbit_at_n0(self, S4):
        table = enumerate_orbits(S4, 0)
        assert len(table.records) == 1 and table.records[0].rep == (0, 0, 0, 0)

    @pytest.mark.parametrize("kind,d,n", [
        ("symmetric", 3, 2), ("cyclic", 4, 2), ("dihedral", 4, 1),
        ("alternating", 4, 1), ("dihedral", 5, 2),
    ])
    def test_count_against_both_oracles(self, kind, d, n):
        W = named_group(kind, d)
        table = enumerate_orbits(W, n)
        assert len(table.records) == burnside_orbit_count(W, n)
        assert len(table.records) == orbit_count_by_canonical_forms(W, n)

    def test_partition_and_orbit_stabilizer(self, S4):
        table = enumerate_orbits(S4, 2)
        assert sum(r.size for r in table.records) == 3 ** 4
        for r in table.records:
            assert r.size * r.stabilizer_order == S4.order

    def test_reps_are_lex_minimal(self, V4):
        for r in enumerate_orbits(V4, 2).records:
            assert r.rep == min(apply_perm(g, r.rep) for g in V4.images)

    def test_work_cap(self, S4):
        with pytest.raises(CapExceeded):
            enumerate_orbits(S4, 2, caps=Caps(orbit_work=10))

    # S(4) at n=2: 81 points, 15 orbits, so 15 * 24 = 360 row applications;
    # the estimate (n+1)^d * |W| = 1944 would refuse a cap of 1000
    @pytest.mark.parametrize("cap", [1000, 360])
    def test_work_cap_counts_row_applications_done(self, S4, cap):
        assert len(enumerate_orbits(S4, 2, caps=Caps(orbit_work=cap)).records) == 15

    @pytest.mark.parametrize("cap", [359, 300])
    def test_work_cap_stops_row_applications(self, S4, cap):
        with pytest.raises(CapExceeded, match=f"^row applications #orbits \\* \\|W\\| "
                                              f"exceed work cap {cap}$"):
            enumerate_orbits(S4, 2, caps=Caps(orbit_work=cap))

    def test_work_cap_bounds_the_points(self, S4):
        with pytest.raises(CapExceeded, match=r"^\(n\+1\)\^d = 81 exceeds work cap 80$"):
            enumerate_orbits(S4, 2, caps=Caps(orbit_work=80))


class TestChiOrbits:
    def test_c4_faithful_character(self, C4):
        chi = enumerate_linear_characters(C4)[1]
        table = full_census(C4, chi, 1)
        passing = [r.rep for r in table.records if r.is_chi_orbit]
        assert passing == [(0, 0, 0, 1), (0, 0, 1, 1), (0, 1, 1, 1)]

    def test_unit_character_passes_everything(self, S3):
        table = full_census(S3, unit_character(S3), 2)
        assert all(r.is_chi_orbit for r in table.records)

    def test_s3_sign_needs_distinct_coordinates(self, S3):
        J = index_set_J(S3, sign_character(S3), 2)
        assert J == [(0, 1, 2)]

    def test_chi_orbit_flag_is_representative_independent(self, C4):
        chi = enumerate_linear_characters(C4)[1]
        for rec in full_census(C4, chi, 1).records:
            flags = set()
            for g in C4.images:
                point = apply_perm(g, rec.rep)
                stab = [h for h in C4.images if apply_perm(h, point) == point]
                flags.add(all(chi.exponent(h) == 0 for h in stab))
            assert flags == {rec.is_chi_orbit}

    def test_index_set_sign_counts_binomials(self):
        from math import comb
        for d in (2, 3, 4):
            S = named_group("symmetric", d)
            for n in range(4):
                J = index_set_J(S, sign_character(S), n)
                assert len(J) == comb(n + 1, d)
                assert all(list(j) == sorted(set(j)) for j in J)

    def test_index_set_at_n0(self, S4):
        assert index_set_J(S4, unit_character(S4), 0) == [(0, 0, 0, 0)]


class TestWeightedSum:
    def test_c4_faithful(self, C4):
        chi = enumerate_linear_characters(C4)[1]
        assert weighted_sum_g(C4, chi, 1).render_text() == \
            "x0^3*x1 + x0^2*x1^2 + x0*x1^3"

    def test_c4_unit(self, C4):
        got = weighted_sum_g(C4, unit_character(C4), 1)
        assert got.render_text() == "x0^4 + x0^3*x1 + 2*x0^2*x1^2 + x0*x1^3 + x1^4"

    def test_nonunit_vanishes_at_n0(self):
        for kind, d in [("symmetric", 3), ("cyclic", 4), ("dihedral", 4)]:
            G = named_group(kind, d)
            for chi in enumerate_linear_characters(G):
                if not chi.is_unit():
                    assert not weighted_sum_g(G, chi, 0).terms


class TestDegreeOne:
    """C(1) acts on [0,n]^1 through the ``tuple`` row, which returns the point itself."""

    @pytest.mark.parametrize("n", [0, 1, 2, 3])
    def test_records_and_census_match_apply_perm(self, n):
        W = named_group("cyclic", 1)
        assert W.degree == 1 and W.order == 1
        table = enumerate_orbits(W, n)
        assert [(r.rep, r.size, r.stabilizer) for r in table.records] == \
            [((j,), 1, tuple(k for k, g in enumerate(W.images)
                             if apply_perm(g, (j,)) == (j,)))
             for j in range(n + 1)]
        chi = unit_character(W)
        got = [(r.rep, r.tau_H, r.h_orbit_length, r.stabilizer_order, r.is_chi_orbit)
               for r in full_census(W, chi, n).records]
        assert got == [(rep, tau, h_len, stab, flag) for rep, tau, h_len, _, stab, flag
                       in census_by_apply_perm(table, chi, kernel(chi))]


class TestCensus:
    @pytest.mark.parametrize("expr,sel", [
        ("S(3)", "sign"), ("A(4)", "unit"), ("C(4)", "index:1"),
        ("D(4)", "index:1"), ("D(4)", "index:3"), ("product(S(2),S(2))", "index:2"),
    ])
    @pytest.mark.parametrize("n", [1, 2])
    def test_matches_apply_perm_census(self, expr, sel, n):
        from cycindex.grammar import parse_character, parse_group
        spec = parse_group(expr)
        chi = parse_character(sel, spec)
        if sel == "index:1" and expr == "C(4)":
            assert chi.image_order() == 4  # faithful
        W = spec.group
        table = full_census(W, chi, n)
        expected = census_by_apply_perm(enumerate_orbits(W, n), chi, kernel(chi))
        got = [(r.rep, r.tau_H, r.h_orbit_length, r.stabilizer_order, r.is_chi_orbit)
               for r in table.records]
        assert got == [(rep, tau, h_len, stab, flag)
                       for rep, tau, h_len, _, stab, flag in expected]

    def test_s3_split_orbit(self, S3, A3):
        chi = sign_character(S3)
        assert kernel(chi) == A3
        table = full_census(S3, chi, 2)
        by_rep = {r.rep: r for r in table.records}
        free = by_rep[(0, 1, 2)]
        assert free.size == 6 and free.tau_H == 2 and free.h_orbit_length == 3
        pinned = by_rep[(0, 0, 1)]
        assert pinned.size == 3 and pinned.tau_H == 1 and pinned.h_orbit_length == 3

    def test_h_equals_w_gives_tau_one(self, S4):
        table = full_census(S4, unit_character(S4), 2)
        assert all(r.tau_H == 1 for r in table.records)

    def test_tau_divides_index_and_saturation_equivalence(self):
        for kind, d in [("symmetric", 3), ("cyclic", 4), ("dihedral", 4),
                        ("alternating", 4)]:
            W = named_group(kind, d)
            for chi in enumerate_linear_characters(W):
                H = kernel(chi)
                index = W.order // H.order
                table = full_census(W, chi, 2)
                for rec in table.records:
                    assert index % rec.tau_H == 0
                    assert (rec.tau_H == index) == rec.is_chi_orbit

    @pytest.mark.parametrize("kind,d", [("symmetric", 4), ("dihedral", 5)])
    @pytest.mark.parametrize("n", [1, 2])
    def test_reordered_group_matches_apply_perm_census(self, kind, d, n):
        W = named_group(kind, d)
        G = PermGroup.from_elements(reversed(W.images))
        assert G == W and G.images != W.images
        for chi in enumerate_linear_characters(G):
            table = full_census(G, chi, n)
            got = [(r.rep, r.tau_H, r.h_orbit_length, r.stabilizer_order)
                   for r in table.records]
            assert got == [(rep, tau, h_len, stab) for rep, tau, h_len, _, stab, _
                           in census_by_apply_perm(table, chi, kernel(chi))]

    @pytest.mark.parametrize("cap", [100, 255])
    def test_point_cap_stops_the_census_before_the_kernel_and_any_row(
            self, S4, monkeypatch, cap):
        """S(4) at n=3 has 256 points: the cap refuses the job before ker chi or a row."""
        def no_kernel(chi):
            raise AssertionError("kernel ran before the point cap was checked")

        applied = _count_rows(monkeypatch)
        monkeypatch.setattr(orbits, "kernel", no_kernel)
        message = f"(n+1)^d = 256 exceeds work cap {cap}"
        with pytest.raises(CapExceeded) as exc:
            full_census(S4, sign_character(S4), 3, caps=Caps(orbit_work=cap))
        assert str(exc.value) == message
        code, out = run(JobSpec("orbits", "S(4)", "sign", n=3, caps=Caps(orbit_work=cap)))
        assert (code, out) == (EXIT_CAP, f"cap exceeded: {message}\n")
        assert applied == [0]

    def test_work_cap_stops_the_census_before_the_kernel(self, S4, monkeypatch):
        """S(4) at n=2 has 15 orbits, 360 row applications: the cap of 300 stops the
        scan, and ker chi is never built."""
        def no_kernel(chi):
            raise AssertionError("kernel ran before the scan finished")

        monkeypatch.setattr(orbits, "kernel", no_kernel)
        with pytest.raises(CapExceeded, match="row applications"):
            full_census(S4, sign_character(S4), 2, caps=Caps(orbit_work=300))

    def test_rows_applied_are_one_scan_and_the_h_orbits(self, S4, monkeypatch):
        """#orbits * |W| rows form the W-orbits, and tau_H * |H| more split each of
        them; no row of W is applied a second time."""
        applied = _count_rows(monkeypatch)
        chi = sign_character(S4)
        table = full_census(S4, chi, 2)
        H = kernel(chi)
        assert len(table.records) == 15 and H.order == 12
        assert applied == [len(table.records) * S4.order
                           + sum(r.tau_H for r in table.records) * H.order]


def _count_rows(monkeypatch):
    """Wrap each callable that ``orbits._row_getters`` returns with a counter;
    the returned one-item list holds the number of rows applied so far."""
    applied = [0]
    row_getters = orbits._row_getters

    def counted(getter):
        def apply(point):
            applied[0] += 1
            return getter(point)
        return apply

    monkeypatch.setattr(orbits, "_row_getters",
                        lambda W: [counted(g) for g in row_getters(W)])
    return applied


class TestOrbitIdentity:
    def test_c4_faithful_n1(self, C4):
        chi = enumerate_linear_characters(C4)[1]
        lhs = weighted_sum_g(C4, chi, 1)
        assert lhs == specialize(cycle_index(C4, chi), 1)
        assert lhs.render_text() == "x0^3*x1 + x0^2*x1^2 + x0*x1^3"

    def test_s3_sign_n2(self, S3):
        chi = sign_character(S3)
        lhs = weighted_sum_g(S3, chi, 2)
        assert lhs == specialize(cycle_index(S3, chi), 2)
        assert lhs.render_text() == "x0*x1*x2"

    def test_polya_special_case_with_burnside(self):
        for kind, d in [("symmetric", 4), ("dihedral", 5), ("cyclic", 6)]:
            W = named_group(kind, d)
            chi = unit_character(W)
            rhs = specialize(cycle_index(W, chi), 2)
            assert weighted_sum_g(W, chi, 2) == rhs
            ones = rational(evaluate_all_ones(rhs))
            assert ones == burnside_orbit_count(W, 2)

    def test_truncation_coherence(self, C4):
        chi = enumerate_linear_characters(C4)[1]
        for n in (0, 1, 2):
            J_small = index_set_J(C4, chi, n)
            J_big = index_set_J(C4, chi, n + 1)
            assert J_small == [j for j in J_big if max(j) <= n]


def census_fields(table):
    """The group, n and every field of every record, in order."""
    return (table.group, table.n,
            [tuple(getattr(r, name) for name in OrbitRecord.__slots__) for r in table.records])


class TestReorderedGroup:
    """A character on a copy of W listed in another order keeps its values in that order."""

    @pytest.mark.parametrize("kind,d", [("symmetric", 3), ("dihedral", 4)])
    @pytest.mark.parametrize("n", [1, 2])
    def test_same_results_as_on_w(self, kind, d, n):
        W = named_group(kind, d)
        copy = PermGroup.from_elements(W.images)
        assert copy == W and copy.images != W.images
        on_w = enumerate_linear_characters(W)
        on_copy = enumerate_linear_characters(copy)
        assert len(on_copy) == len(on_w)
        reordered = 0
        for theta in on_copy:
            [chi] = [c for c in on_w if same_character(c, theta)]
            reordered += theta.exponents != chi.exponents
            assert cycle_index(W, theta).render_text() == cycle_index(W, chi).render_text()
            assert weighted_sum_g(W, theta, n) == weighted_sum_g(W, chi, n)
            assert census_fields(full_census(W, theta, n)) == \
                census_fields(full_census(W, chi, n))
        assert reordered


@pytest.mark.parametrize("kind,d", [("symmetric", 4), ("dihedral", 5), ("alternating", 5)])
class TestActionTable:
    def test_rows_are_the_coordinate_action_on_a_reordered_group(self, kind, d):
        W = named_group(kind, d)
        G = PermGroup.from_elements(reversed(W.images))
        assert G == W and G.images != W.images
        point = tuple(range(10, 10 + d))  # distinct coordinates pin every row entry
        rows = action_table(G)
        assert len(rows) == G.order
        for row, g in zip(rows, G.images):
            assert tuple([point[i] for i in row]) == apply_perm(g, point)

    @pytest.mark.parametrize("reordered", [False, True])
    @pytest.mark.parametrize("n", [1, 2])
    def test_recorded_stabilizer_is_every_fixing_element(self, kind, d, n, reordered):
        W = named_group(kind, d)
        if reordered:
            W = PermGroup.from_elements(reversed(W.images))
        for rec in enumerate_orbits(W, n).records:
            assert rec.stabilizer == tuple(k for k, g in enumerate(W.images)
                                           if apply_perm(g, rec.rep) == rec.rep)


class TestExports:
    def test_tsv_shape(self, S3):
        table = full_census(S3, sign_character(S3), 1)
        text = census_tsv(table)
        lines = text.strip().split("\n")
        assert lines[0] == "rep\tsize\tstab_order\ttau_H\th_len\tchi_orbit"
        assert len(lines) == len(table.records) + 1
        assert lines[1].split("\t")[0] == "0,0,0"

    def test_json_mirror(self, S3):
        import json
        table = full_census(S3, sign_character(S3), 1)
        data = json.loads(census_json(table))
        assert data["n"] == 1 and len(data["orbits"]) == len(table.records)
        assert data["orbits"][0]["rep"] == [0, 0, 0]

    def test_deterministic_output(self, C4):
        chi = enumerate_linear_characters(C4)[1]
        assert census_tsv(full_census(C4, chi, 1)) == census_tsv(full_census(C4, chi, 1))
