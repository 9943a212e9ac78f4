"""Brute-force enumeration of W-orbits on the hypercube [0,n]^d.

Hypercube coordinates are 0-based.  The coordinate action is the left action
sigma . (j_1,...,j_d) = (j_{sigma^-1(1)}, ..., j_{sigma^-1(d)}).  Points are
scanned in lexicographic order and orbits flood-filled, so the first point of
each orbit is automatically its lexicographically minimal representative.
Every point action in this module is a row of ``action_table``: each element
of W acts on a point by one row of source indices, the inverse of its image
tuple, in the group's own element order.  A row is applied to a point p by
its ``operator.itemgetter``, or by ``tuple`` for a group of degree <= 1, which
is trivial.  ``enumerate_orbits`` applies every row to each representative
once, and counts those #orbits * |W| row applications against the work cap;
that one scan counts the orbit, checks orbit-stabilizer and keeps the indices
of the rows that fix the representative as ``OrbitRecord.stabilizer``, one
record per orbit.  The chi flag is read from those indices, by ``index_set_J``
straight off the scan, and the H-orbit census reads W_i and H_i from them.
``full_census`` (the ``orbits`` command) copies each record twice more, in
``chi_orbit_filter`` and in ``h_orbit_census``.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from itertools import compress, count, product
from operator import itemgetter

from .caps import Caps, CapExceeded, DEFAULT_CAPS
from .characters import LinearCharacter, kernel
from .cyclo import Cyclotomic
from .perms import PermGroup, inverse
from .polys import MonomialPoly, check_monomial_cap

Point = tuple[int, ...]


def action_table(W: PermGroup) -> list[tuple[int, ...]]:
    """For each group element g, the 0-based source position for each target
    position: the image tuple of g^-1, less one."""
    return [tuple([s - 1 for s in inverse(g)]) for g in W.images]


def _row_getters(W: PermGroup) -> list:
    """Each row of ``action_table(W)`` as a callable from a point to its image."""
    return [itemgetter(*row) if len(row) > 1 else tuple for row in action_table(W)]


@dataclass(slots=True)
class OrbitRecord:
    rep: Point
    size: int
    stabilizer: tuple[int, ...]  # indices, in W's element order, of the elements fixing rep
    is_chi_orbit: bool | None = None
    tau_H: int | None = None
    h_orbit_length: int | None = None

    @property
    def stabilizer_order(self) -> int:
        return len(self.stabilizer)


@dataclass(frozen=True)
class OrbitTable:
    group: PermGroup
    n: int
    records: tuple[OrbitRecord, ...]

    @property
    def degree(self) -> int:
        return self.group.degree


def enumerate_orbits(W: PermGroup, n: int, caps: Caps = DEFAULT_CAPS) -> OrbitTable:
    d = W.degree
    npoints = (n + 1) ** d
    if npoints > caps.orbit_work:
        raise CapExceeded(f"(n+1)^d = {npoints} exceeds work cap {caps.orbit_work}")
    getters = _row_getters(W)
    order = W.order
    radix = n + 1
    visited = bytearray(npoints)
    records = []
    work = 0
    for code, p in enumerate(product(range(radix), repeat=d)):
        if not visited[code]:
            work += order
            if work > caps.orbit_work:
                raise CapExceeded(
                    f"row applications #orbits * |W| exceed work cap {caps.orbit_work}")
            images = [g(p) for g in getters]
            stab = tuple(compress(count(), map(p.__eq__, images)))
            orbit = set(images)
            for q in orbit:
                qcode = 0
                for v in q:
                    qcode = qcode * radix + v
                visited[qcode] = 1
            size = len(orbit)
            if size * len(stab) != order:
                raise AssertionError("orbit-stabilizer identity violated")
            records.append(OrbitRecord(p, size, stab))
    total = sum(r.size for r in records)
    if total != npoints:
        raise AssertionError("orbit sizes do not partition the hypercube")
    return OrbitTable(group=W, n=n, records=tuple(records))


def _chi_flag(group: PermGroup, chi: LinearCharacter):
    """Whether a record of ``group``'s orbits is a chi-orbit: chi's exponent, read
    in ``group``'s element order, is 0 at every index of its stabilizer."""
    if chi.group != group:
        raise ValueError("character is defined on a different group")
    exponents = chi.exponents_in(group)
    return lambda rec: not any(map(exponents.__getitem__, rec.stabilizer))


def chi_orbit_filter(table: OrbitTable, chi: LinearCharacter) -> OrbitTable:
    """Mark each orbit whose stabilizers lie in the kernel of chi."""
    is_chi_orbit = _chi_flag(table.group, chi)
    return OrbitTable(table.group, table.n, tuple([
        OrbitRecord(rec.rep, rec.size, rec.stabilizer, is_chi_orbit(rec),
                    rec.tau_H, rec.h_orbit_length)
        for rec in table.records]))


def index_set_J(W: PermGroup, chi: LinearCharacter, n: int,
                caps: Caps = DEFAULT_CAPS) -> list[Point]:
    """Lex-sorted representatives of the chi-orbits on [0,n]^d."""
    records = enumerate_orbits(W, n, caps=caps).records
    is_chi_orbit = _chi_flag(W, chi)
    return [rec.rep for rec in records if is_chi_orbit(rec)]


def weighted_sum_g(W: PermGroup, chi: LinearCharacter, n: int,
                   caps: Caps = DEFAULT_CAPS) -> MonomialPoly:
    """g_n = sum of x_{j_1}...x_{j_d} over J(n, d, chi)."""
    check_monomial_cap(W.degree, n, caps)
    nvars = n + 1
    counts: dict[tuple[int, ...], int] = {}
    for rep in index_set_J(W, chi, n, caps=caps):
        exps = [0] * nvars
        for j in rep:
            exps[j] += 1
        key = tuple(exps)
        counts[key] = counts.get(key, 0) + 1
    return MonomialPoly(nvars, {key: Cyclotomic.from_rational(count)
                                for key, count in counts.items()})


def h_orbit_census(table: OrbitTable, H: PermGroup) -> OrbitTable:
    """Count H-orbits inside each W-orbit and check the index identity at the rep.

    Every element of W and of H acts through its row of ``action_table(W)``.
    W_i is the representative's recorded stabilizer and H_i its elements in H.
    """
    W = table.group
    if not H.is_subgroup_of(W):
        raise ValueError("H is not a subgroup of W")
    index_WH = W.order // H.order
    rows = _row_getters(W)
    in_H = [g in H.image_index for g in W.images]
    h_rows = [g for g, inside in zip(rows, in_H) if inside]
    records = []
    for rec in table.records:
        rep = rec.rep
        remaining = {g(rep) for g in rows}
        lengths = []
        while remaining:
            seed = min(remaining)
            h_orbit = {g(seed) for g in h_rows}
            lengths.append(len(h_orbit))
            remaining -= h_orbit
        if len(set(lengths)) != 1:
            raise AssertionError(f"H-orbit lengths differ inside the orbit of {rec.rep}")
        tau, h_len = len(lengths), lengths[0]
        if tau * h_len != rec.size:
            raise AssertionError("H-orbits do not partition the W-orbit")
        # |G:H| |H:H_i| = |G:G_i| |G_i:H_i| at the representative
        h_stab_order = sum([in_H[k] for k in rec.stabilizer])
        lhs = index_WH * (H.order // h_stab_order)
        rhs = rec.size * (rec.stabilizer_order // h_stab_order)
        if lhs != rhs:
            raise AssertionError(f"index identity fails at {rec.rep}")
        records.append(OrbitRecord(rec.rep, rec.size, rec.stabilizer,
                                   rec.is_chi_orbit, tau, h_len))
    return OrbitTable(W, table.n, tuple(records))


def full_census(W: PermGroup, chi: LinearCharacter, n: int,
                caps: Caps = DEFAULT_CAPS) -> OrbitTable:
    """Orbit table annotated with both the chi-orbit flag and the kernel census."""
    table = chi_orbit_filter(enumerate_orbits(W, n, caps=caps), chi)
    return h_orbit_census(table, kernel(chi))


TSV_COLUMNS = ("rep", "size", "stab_order", "tau_H", "h_len", "chi_orbit")


def census_tsv(table: OrbitTable) -> str:
    lines = ["\t".join(TSV_COLUMNS)]
    for rec in table.records:
        lines.append("\t".join([
            ",".join(str(v) for v in rec.rep),
            str(rec.size),
            str(rec.stabilizer_order),
            "" if rec.tau_H is None else str(rec.tau_H),
            "" if rec.h_orbit_length is None else str(rec.h_orbit_length),
            "" if rec.is_chi_orbit is None else str(rec.is_chi_orbit).lower(),
        ]))
    return "\n".join(lines) + "\n"


def census_json(table: OrbitTable) -> str:
    payload = {
        "degree": table.degree,
        "n": table.n,
        "group_order": table.group.order,
        "orbits": [
            {
                "rep": list(rec.rep),
                "size": rec.size,
                "stab_order": rec.stabilizer_order,
                "tau_H": rec.tau_H,
                "h_len": rec.h_orbit_length,
                "chi_orbit": rec.is_chi_orbit,
            }
            for rec in table.records
        ],
    }
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"
