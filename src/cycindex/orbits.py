"""Brute-force enumeration of W-orbits on the hypercube [0,n]^d.

Hypercube coordinates are 0-based.  The coordinate action is the left action
sigma . (j_1,...,j_d) = (j_{sigma^-1(1)}, ..., j_{sigma^-1(d)}).  Points are
scanned in lexicographic order and orbits flood-filled, so the first point of
each orbit is automatically its lexicographically minimal representative.
Every point action in this module is a row of ``action_table``: each element
of W acts on a point by one row of source indices, the inverse of its image
tuple, in the group's own element order.  A row is applied to a point p by
its ``operator.itemgetter``, or by ``tuple`` for a group of degree <= 1, which
is trivial.  One scan, ``_scan``, applies every row to each representative
once and counts those #orbits * |W| row applications against the work cap;
it forms the orbit, checks orbit-stabilizer and keeps the indices of the rows
that fix the representative.  ``enumerate_orbits`` turns that into one
``OrbitRecord`` per orbit, and ``index_set_J`` reads the chi flag straight off
those stabilizer indices.  ``full_census`` (the ``orbits`` command) consumes
the same scan: it splits each orbit it forms into H-orbits with H's rows and
builds one record per orbit with every field set.
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


@dataclass
class OrbitTable:
    group: PermGroup
    n: int
    records: tuple[OrbitRecord, ...]

    @property
    def degree(self) -> int:
        return self.group.degree


def _scan(W: PermGroup, n: int, caps: Caps):
    """The row getters of W, and a generator of (rep, orbit, stabilizer) for each
    W-orbit on [0,n]^d, in scan order.

    The point cap is checked at once, before any row is applied.  The generator
    applies every row to each representative and counts those row applications
    against the work cap as it goes; ``orbit`` is the set of the images and is
    the caller's to consume, ``stabilizer`` the indices of the rows that fix rep.
    """
    d = W.degree
    npoints = (n + 1) ** d
    if npoints > caps.orbit_work:
        raise CapExceeded(f"(n+1)^d = {npoints} exceeds work cap {caps.orbit_work}")
    getters = _row_getters(W)

    def orbits():
        order = W.order
        radix = n + 1
        visited = bytearray(npoints)
        work = total = 0
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
                total += size
                yield p, orbit, stab
        if total != npoints:
            raise AssertionError("orbit sizes do not partition the hypercube")

    return getters, orbits()


def enumerate_orbits(W: PermGroup, n: int, caps: Caps = DEFAULT_CAPS) -> OrbitTable:
    _, orbits = _scan(W, n, caps)
    return OrbitTable(W, n, tuple([OrbitRecord(rep, len(orbit), stab)
                                   for rep, orbit, stab in orbits]))


def _chi_flag(group: PermGroup, chi: LinearCharacter):
    """Whether an orbit with the given stabilizer indices, in ``group``'s element
    order, is a chi-orbit: chi's exponent is 0 at every one of them."""
    if chi.group != group:
        raise ValueError("character is defined on a different group")
    exponents = chi.exponents_in(group)
    return lambda stabilizer: not any(map(exponents.__getitem__, stabilizer))


def index_set_J(W: PermGroup, chi: LinearCharacter, n: int,
                caps: Caps = DEFAULT_CAPS) -> list[Point]:
    """Lex-sorted representatives of the chi-orbits on [0,n]^d."""
    records = enumerate_orbits(W, n, caps=caps).records
    is_chi_orbit = _chi_flag(W, chi)
    return [rec.rep for rec in records if is_chi_orbit(rec.stabilizer)]


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
    return MonomialPoly(nvars, {key: Cyclotomic(1, count) for key, count in counts.items()})


def full_census(W: PermGroup, chi: LinearCharacter, n: int,
                caps: Caps = DEFAULT_CAPS) -> OrbitTable:
    """The orbit table with the chi flag and the H-orbit census, H = ker chi.

    Each W-orbit of the scan is split into H-orbits: the least point left seeds
    the next H-orbit, formed by applying H's rows to it.  The H-orbits must have
    equal lengths and partition the W-orbit, and |W:H| |H:H_i| = |W:W_i| |W_i:H_i|
    must hold at the representative, where W_i is its recorded stabilizer and
    H_i the elements of W_i in H, those where chi's exponent is 0.
    """
    is_chi_orbit = _chi_flag(W, chi)
    getters, orbits = _scan(W, n, caps)
    in_H = [e == 0 for e in chi.exponents_in(W)]
    h_rows = list(compress(getters, in_H))
    H_order = sum(in_H)
    index_WH = W.order // H_order
    records = []
    for rep, remaining, stab in orbits:
        size = len(remaining)
        lengths = []
        while remaining:
            seed = min(remaining)
            h_orbit = {g(seed) for g in h_rows}
            lengths.append(len(h_orbit))
            remaining -= h_orbit
        if len(set(lengths)) != 1:
            raise AssertionError(f"H-orbit lengths differ inside the orbit of {rep}")
        tau, h_len = len(lengths), lengths[0]
        if tau * h_len != size:
            raise AssertionError("H-orbits do not partition the W-orbit")
        h_stab_order = sum([in_H[k] for k in stab])
        if index_WH * (H_order // h_stab_order) != size * (len(stab) // h_stab_order):
            raise AssertionError(f"index identity fails at {rep}")
        records.append(OrbitRecord(rep, size, stab, is_chi_orbit(stab), tau, h_len))
    kernel(chi)  # H is a group of index image_order: built last, so a capped scan builds none
    return OrbitTable(W, n, tuple(records))


TSV_COLUMNS = ("rep", "size", "stab_order", "tau_H", "h_len", "chi_orbit")


def census_tsv(table: OrbitTable) -> str:
    lines = ["\t".join(TSV_COLUMNS)]
    for rec in table.records:
        lines.append("\t".join([
            ",".join(str(v) for v in rec.rep),
            str(rec.size),
            str(rec.stabilizer_order),
            str(rec.tau_H),
            str(rec.h_orbit_length),
            str(rec.is_chi_orbit).lower(),
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
