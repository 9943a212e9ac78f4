"""Fuzz the group and character grammar through ``cli.run``.

Random group expressions (degrees 0-8, nested ``product``/``wreath``, cycle
lists with out-of-range and repeated points, malformed brackets) and random
character selectors (``unit``, ``sign``, ``index:k``, ``vals{...}``, compound
``(x)`` selectors, junk) must end in exit code 0, 1, 2 or 3, never in an
exception or an internal error, and every nonzero exit must be one line.  Small caps keep every
group and module tiny, so nothing large is built in process.
"""

from hypothesis import HealthCheck, given, settings, strategies as st

from cycindex.caps import Caps
from cycindex.cli import JobSpec, run

CAPS = Caps(group_order=120, orbit_work=5_000, projector_dim=64, specialize_terms=2_000)

degrees = st.integers(0, 8)


def _cycles(top: int):
    """Products of up to two cycles on the points 1..top, in cycle notation."""
    cycle = st.lists(st.integers(1, max(top, 2)), min_size=2, max_size=4, unique=True).map(
        lambda points: "(" + " ".join(map(str, points)) + ")")
    return st.lists(cycle, max_size=2).map("".join)


# cycle lists with points out of range, repeated or missing
junk_cycles = st.lists(st.integers(0, 9), max_size=4).map(
    lambda points: "(" + " ".join(map(str, points)) + ")")
named = st.builds("{}({})".format, st.sampled_from("SACD"), degrees)
generated = degrees.flatmap(lambda d: st.lists(
    st.one_of(_cycles(d), _cycles(d), _cycles(d), junk_cycles), max_size=3).map(
    lambda gens: f"gen[{d}]{{{','.join(gens)}}}"))
well_formed = st.recursive(
    named | generated,
    lambda inner: st.builds("{}({},{})".format,
                            st.sampled_from(["product", "wreath"]), inner, inner),
    max_leaves=4)


def _mangle(text: str, at: int, char: str, insert: bool) -> str:
    """Insert a bracket or comma at a position, or delete the character there."""
    return text[:at] + char + text[at:] if insert else text[:at] + text[at + 1:]


malformed = well_formed.flatmap(lambda text: st.builds(
    _mangle, st.just(text), st.integers(0, len(text)), st.sampled_from("()[]{},"),
    st.booleans()))
group_exprs = st.one_of(well_formed, well_formed, well_formed, malformed)

vals = st.lists(st.tuples(_cycles(8) | junk_cycles, st.integers(-3, 5)), max_size=3).map(
    lambda pairs: "vals{" + ",".join(f"{p}:{e}" for p, e in pairs) + "}")
simple = st.sampled_from(["unit", "sign"]) | st.integers(0, 12).map("index:{}".format) | vals
selectors = st.one_of(simple, simple, simple, st.builds("{}(x){}".format, simple, simple),
                      st.text(alphabet="()[]{},:x0123456789agilnstuv", max_size=12))

commands = st.sampled_from(["characters", "cycle-index", "gn", "orbits", "verify",
                            "verify-basis"])


@settings(max_examples=400, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(commands, group_exprs, selectors, st.one_of(st.integers(0, 2), st.integers(0, 2), st.none()))
def test_every_input_ends_in_an_exit_code(command, group_expr, char_sel, n):
    spec = JobSpec(command, group_expr, char_sel, n=n, caps=CAPS)
    code, out = run(spec)
    assert code in (0, 1, 2, 3)
    assert not out.startswith("internal error:"), out
    if code:
        assert out.endswith("\n") and out.count("\n") == 1, out
