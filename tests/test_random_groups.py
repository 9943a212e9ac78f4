"""Check the character enumeration and the Polya-side identity on random groups.

Random well-formed groups (named groups and ``gen[d]{...}`` of degree at most
5, or one level of ``product``/``wreath`` over two of them) go through
``cli.run``: ``characters`` first, then ``verify --n 1`` with ``unit``,
``sign`` or ``index:k``, where k is taken modulo the character count that
``characters`` printed.  Every job must exit 0, or 3 when a cap stops it; an
exit of 1 is a failed identity or an internal error.  The caps keep each
group at most 2,000 elements.  The same groups, with a random linear
character, check every field of the ``full_census`` records (the stabilizer,
the chi flag and the H-orbit census, H = ker chi) against brute force with
``apply_perm``.
"""

import json

from hypothesis import HealthCheck, given, settings, strategies as st

from cycindex import enumerate_linear_characters, full_census, index_set_J, kernel
from cycindex.caps import CapExceeded, Caps
from cycindex.cli import EXIT_CAP, EXIT_OK, JobSpec, run
from cycindex.grammar import parse_group
from cycindex.perms import cycle_string
from oracles import apply_perm, census_by_apply_perm

CAPS = Caps(group_order=2_000, orbit_work=400_000, projector_dim=256, specialize_terms=100_000)

named = st.one_of(
    st.builds("{}({})".format, st.sampled_from("SAC"), st.integers(1, 5)),
    st.builds("D({})".format, st.integers(3, 5)))


def _generated(d: int):
    """``gen[d]{...}`` with up to four random generators, each in disjoint cycle notation."""
    cycles = st.permutations(range(1, d + 1)).map(cycle_string)
    return st.lists(cycles, max_size=4).map(
        lambda gens: f"gen[{d}]{{{','.join(g for g in gens if g != '()')}}}")


leaves = named | st.integers(1, 5).flatmap(_generated)
groups = leaves | st.builds("{}({},{})".format, st.sampled_from(["product", "wreath"]),
                            leaves, leaves)
selectors = st.sampled_from(["unit", "sign"]) | st.integers(0, 30)


@settings(max_examples=120, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(groups, selectors)
def test_no_well_formed_job_exits_one(group_expr, selector):
    code, out = run(JobSpec("characters", group_expr, fmt="json", caps=CAPS))
    assert code in (EXIT_OK, EXIT_CAP), out
    if isinstance(selector, int):
        # index:0 when capped: verify's enumeration then hits the same cap
        count = len(json.loads(out)["characters"]) if code == EXIT_OK else 1
        selector = f"index:{selector % count}"
    code, out = run(JobSpec("verify", group_expr, selector, n=1, caps=CAPS))
    assert code in (EXIT_OK, EXIT_CAP), out


@settings(max_examples=100, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(groups, st.integers(0, 30), st.integers(0, 2))
def test_chi_orbits_are_read_off_the_recorded_stabilizers(group_expr, k, n):
    """index_set_J and the census's chi flags agree; each census record's
    stabilizer and chi flag match the elements that fix its representative under
    ``apply_perm``, and its tau_H, H-orbit length and stabilizer order match
    ``census_by_apply_perm``."""
    caps = Caps(group_order=2_000, orbit_work=20_000)
    try:
        G = parse_group(group_expr, caps=caps).group
        chi = enumerate_linear_characters(G, caps=caps)
        chi = chi[k % len(chi)]
        table = full_census(G, chi, n, caps=caps)
    except CapExceeded:
        return
    records = table.records
    assert index_set_J(G, chi, n, caps=caps) == [rec.rep for rec in records if rec.is_chi_orbit]
    for rec in records:
        fixing = [i for i, g in enumerate(G.images) if apply_perm(g, rec.rep) == rec.rep]
        assert rec.stabilizer == tuple(fixing)
        assert rec.is_chi_orbit == all(chi.exponent(G.images[i]) == 0 for i in fixing)
    assert [(r.rep, r.tau_H, r.h_orbit_length, r.stabilizer_order) for r in records] == \
        [(rep, tau, h_len, stab) for rep, tau, h_len, _, stab, _
         in census_by_apply_perm(table, chi, kernel(chi))]
