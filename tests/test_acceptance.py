"""End-to-end acceptance checks.

Each test covers one headline guarantee of the package over the default
catalog of groups and characters, prints a single pass/fail line, and uses
exact arithmetic throughout (no tolerances anywhere).
"""

import time
from fractions import Fraction
from itertools import product as iproduct

from cycindex import (Cyclotomic, PowerSumPoly, cycle_index,
                      direct_product_embed, enumerate_linear_characters, full_census, index_set_J,
                      named_group, plethysm_insert, product_character,
                      psum_mul, sign_character, specialize,
                      unit_character, weighted_sum_g, wreath_character,
                      wreath_embed)
from cycindex.caps import caps_from_env
from cycindex.catalog import (BASIS_DIM_CAP, MAIN_GROUP_EXPRS, MAIN_NS,
                              MAIN_POINT_CAP, PAIR_EXPRS, default_catalog)
from cycindex.cli import EXIT_OK, run_suite
from cycindex.grammar import parse_character, parse_group
from cycindex.perms import cycle_type
from cycindex.projector import MonomialModule, verify_basis_prop
from oracles import (coefficient, elementary_symmetric, evaluate_all_ones,
                     psum_sub, rational, value)

CAPS = caps_from_env()

_GROUPS = [parse_group(expr, caps=CAPS) for expr in MAIN_GROUP_EXPRS]
_PAIRS = [(parse_group(expr, caps=CAPS), parse_character(sel, parse_group(expr)))
          for expr, sel in PAIR_EXPRS]


def catalog_cases(point_cap):
    for spec in _GROUPS:
        d = spec.group.degree
        for chi in enumerate_linear_characters(spec.group, caps=CAPS):
            for n in MAIN_NS:
                if (n + 1) ** d <= point_cap:
                    yield spec, chi, n


def _report(capsys, label, ok):
    with capsys.disabled():
        print(f"\n[acceptance] {label}: {'PASS' if ok else 'FAIL'}", flush=True)
    assert ok, label


def test_01_orbit_sum_matches_specialized_cycle_index(capsys):
    started = time.monotonic()
    ok = True
    checked = 0
    for spec, chi, n in catalog_cases(MAIN_POINT_CAP):
        lhs = weighted_sum_g(spec.group, chi, n, caps=CAPS)
        rhs = specialize(cycle_index(spec.group, chi), n, caps=CAPS)
        ok = ok and lhs == rhs
        checked += 1
    elapsed = time.monotonic() - started
    ok = ok and checked > 200 and elapsed < 60.0
    _report(capsys, f"1 orbit census equals specialized cycle index "
                    f"({checked} triples, {elapsed:.1f}s)", ok)


def test_02_trivial_character_reduces_to_orbit_counting(capsys):
    ok = True
    checked = 0
    for spec, chi, n in catalog_cases(MAIN_POINT_CAP):
        if not chi.is_unit():
            continue
        W = spec.group
        lhs = weighted_sum_g(W, chi, n, caps=CAPS)
        rhs = specialize(cycle_index(W, chi), n, caps=CAPS)
        fixed = sum((n + 1) ** sum(cycle_type(g)) for g in W.images)
        ok = ok and lhs == rhs
        ok = ok and fixed % W.order == 0
        ok = ok and rational(evaluate_all_ones(rhs)) == fixed // W.order
        checked += 1
    _report(capsys, f"2 trivial character gives plain orbit counts "
                    f"({checked} cases)", ok and checked > 50)


def test_03_nonunit_characters_vanish_at_single_value(capsys):
    ok = True
    for spec in _GROUPS:
        d = spec.group.degree
        for chi in enumerate_linear_characters(spec.group, caps=CAPS):
            at0 = specialize(cycle_index(spec.group, chi), 0, caps=CAPS)
            total = Cyclotomic.zero()
            for g in spec.group.images:
                total = total + value(chi, g)
            if chi.is_unit():
                ok = ok and len(at0.terms) == 1 and coefficient(at0, (d,)) == 1
                ok = ok and total == Cyclotomic.from_rational(spec.group.order)
            else:
                ok = ok and not at0.terms and total.is_zero()
    _report(capsys, "3 character sums realize the orthogonality split", ok)


def test_04_sign_index_is_difference_and_gives_elementary_symmetric(capsys):
    ok = True
    for d in range(3, 7):
        S = named_group("symmetric", d, caps=CAPS)
        A = named_group("alternating", d, caps=CAPS)
        z_eps = cycle_index(S, sign_character(S))
        ok = ok and z_eps == psum_sub(cycle_index(A, unit_character(A)),
                                      cycle_index(S, unit_character(S)))
        if d <= 5:
            for n in range(6):
                got = specialize(z_eps, n, caps=CAPS)
                ok = ok and got == elementary_symmetric(d, n)
    _report(capsys, "4 alternating-sum index specializes to e_d", ok)


def test_05_product_of_indices_matches_embedded_product_group(capsys):
    ok = True
    checked = 0
    for (wspec, chi), (vspec, theta) in iproduct(_PAIRS, _PAIRS):
        if wspec.group.degree + vspec.group.degree > 7:
            continue
        embedded = direct_product_embed(wspec.group, vspec.group)
        lam = product_character(chi, theta, embedded)
        lhs = cycle_index(embedded, lam)
        rhs = psum_mul(cycle_index(wspec.group, chi),
                       cycle_index(vspec.group, theta))
        ok = ok and lhs == rhs
        for n in range(3):
            ok = ok and (specialize(lhs, n, caps=CAPS)
                         == weighted_sum_g(embedded, lam, n, caps=CAPS))
        checked += 1
    _report(capsys, f"5 product rule against brute force ({checked} pairs)",
            ok and checked == len(_PAIRS) ** 2)


def test_06_plethysm_matches_embedded_wreath_group(capsys):
    ok = True
    checked = 0
    for (wspec, chi), (vspec, theta) in iproduct(_PAIRS, _PAIRS):
        if wspec.group.degree * vspec.group.degree > 8:
            continue
        wreath = wreath_embed(vspec.group, wspec.group, caps=CAPS)
        mu = wreath_character(theta, chi, wreath)
        lhs = cycle_index(wreath, mu)
        rhs = plethysm_insert(cycle_index(wspec.group, chi),
                              cycle_index(vspec.group, theta))
        ok = ok and lhs == rhs
        checked += 1
    s2 = named_group("symmetric", 2)
    Z2 = cycle_index(s2, unit_character(s2))
    flagship = PowerSumPoly(4, {
        (4,): Cyclotomic.from_rational(Fraction(1, 8)),
        (2, 1): Cyclotomic.from_rational(Fraction(1, 4)),
        (0, 2): Cyclotomic.from_rational(Fraction(3, 8)),
        (0, 0, 0, 1): Cyclotomic.from_rational(Fraction(1, 4))})
    ok = ok and plethysm_insert(Z2, Z2) == flagship
    _report(capsys, f"6 insertion rule against embedded wreath groups "
                    f"({checked} pairs)", ok and checked > 20)


def test_07_projector_rank_trace_and_annihilation(capsys):
    ok = True
    checked = 0
    for spec, chi, n in catalog_cases(BASIS_DIM_CAP):
        module = MonomialModule(spec.group, n, caps=CAPS)
        report = verify_basis_prop(module, chi)
        ok = ok and report.ok
        ok = ok and report.J_size == len(index_set_J(spec.group, chi, n, caps=CAPS))
        checked += 1
    _report(capsys, f"7 projector idempotence, trace=rank=|J|, annihilation "
                    f"({checked} cases)", ok and checked > 200)


def test_08_suborbit_census_identities(capsys):
    ok = True
    checked = 0
    for spec, chi, n in catalog_cases(MAIN_POINT_CAP):
        W = spec.group
        index = chi.image_order()  # equals |W : ker chi|
        table = full_census(W, chi, n, caps=CAPS)
        for rec in table.records:
            ok = ok and rec.tau_H * rec.h_orbit_length == rec.size
            ok = ok and index % rec.tau_H == 0
            ok = ok and (rec.tau_H == index) == rec.is_chi_orbit
            checked += 1
    _report(capsys, f"8 suborbit counts divide the kernel index and "
                    f"saturate exactly on qualifying orbits ({checked} orbits)", ok)


def test_09_index_sets_are_truncation_coherent(capsys):
    ok = True
    for spec in _GROUPS:
        d = spec.group.degree
        if 4 ** d > MAIN_POINT_CAP:
            continue
        for chi in enumerate_linear_characters(spec.group, caps=CAPS):
            for n in (0, 1, 2):
                J_small = index_set_J(spec.group, chi, n, caps=CAPS)
                J_big = index_set_J(spec.group, chi, n + 1, caps=CAPS)
                ok = ok and J_small == [j for j in J_big if max(j) <= n]
    _report(capsys, "9 index sets agree under truncation", ok)


def test_10_suite_output_is_deterministic(capsys):
    jobs = default_catalog(caps=CAPS)
    first = run_suite(jobs, CAPS)
    second = run_suite(jobs, CAPS)
    ok = first == second and first[0] == EXIT_OK
    total = len(jobs)
    _report(capsys, f"10 two full suite runs byte-identical "
                    f"({total} jobs, exit {first[0]})", ok)
