"""Job lists of the benchmark workloads, each job a ``cli.JobSpec``.

``basis`` holds the projector jobs of the default catalog, ``verify`` the
catalog jobs that use no projector, and ``groups`` four subcommands on
groups large enough to stress closure and character enumeration.
"""

from __future__ import annotations

import random

from cycindex import cli
from cycindex.caps import Caps
from cycindex.catalog import default_catalog
from cycindex.grammar import parse_group

# Fixed default caps: the CYCINDEX_* environment variables do not apply.
CAPS = Caps()

# One run measures a few dozen seconds, so the basis workload keeps the
# verify-basis jobs of dimension (n+1)^d <= 3^5. That drops the 45 jobs of
# dimension 256..1024 (about 50 s of the 65 s the full set takes) but keeps
# every degree-5 group at n = 2, so the projector tail is still measured.
BASIS_MAX_DIM = 3 ** 5

GROUP_EXPRS = ("S(6)", "A(6)", "wreath(S(3),S(2))", "wreath(S(2),S(3))",
               "product(S(3),D(4))", "D(8)", "C(12)", "gen[6]{(1 2),(3 4),(5 6)}")

# |G/[G,G]| from group theory, written by hand and independent of the program.
LINEAR_CHARACTERS = {
    "S(6)": 2,                          # S_n/A_n for n >= 2
    "A(6)": 1,                          # A_n is perfect for n >= 5
    "wreath(S(3),S(2))": 4,             # V wr W has abelianization V_ab x W_ab: C2 x C2
    "wreath(S(2),S(3))": 4,             # C2 x C2
    "product(S(3),D(4))": 8,            # C2 x (C2 x C2)
    "D(8)": 4,                          # D_n with n even: C2 x C2
    "C(12)": 12,                        # abelian
    "gen[6]{(1 2),(3 4),(5 6)}": 8,     # C2^3, abelian
}


def spec_from_job(job: dict, caps: Caps = CAPS) -> cli.JobSpec:
    """The JobSpec that ``cli.run_suite`` builds for a catalog entry."""
    return cli.JobSpec(command=job["command"], group_expr=job.get("group", ""),
                       char_sel=job.get("char", "unit"), n=job.get("n"),
                       group2_expr=job.get("group2"), char2_sel=job.get("char2"),
                       caps=caps, tamper=bool(job.get("tamper_character", False)))


def _basis_jobs() -> list[dict]:
    degrees: dict[str, int] = {}
    jobs = []
    for job in default_catalog(caps=CAPS):
        if job["command"] != "verify-basis":
            continue
        expr = job["group"]
        if expr not in degrees:
            degrees[expr] = parse_group(expr, caps=CAPS).group.degree
        if (job["n"] + 1) ** degrees[expr] <= BASIS_MAX_DIM:
            jobs.append(job)
    return jobs


def _groups_jobs() -> list[dict]:
    jobs = []
    for expr in GROUP_EXPRS:
        jobs += [{"command": "characters", "group": expr},
                 {"command": "cycle-index", "group": expr, "char": "sign"},
                 {"command": "orbits", "group": expr, "char": "sign", "n": 1},
                 {"command": "verify", "group": expr, "char": "sign", "n": 1}]
    return jobs


def build(name: str) -> list[cli.JobSpec]:
    """The workload's jobs in catalog order."""
    if name == "basis":
        jobs = _basis_jobs()
    elif name == "verify":
        jobs = [job for job in default_catalog(caps=CAPS)
                if job["command"] != "verify-basis"]
    elif name == "groups":
        jobs = _groups_jobs()
    else:
        raise ValueError(f"unknown workload {name!r}")
    return [spec_from_job(job) for job in jobs]


def ordered(specs: list, seed: int, rng: random.Random) -> list:
    """Seed 0 keeps catalog order; any other seed gives a shuffled copy."""
    if seed == 0:
        return list(specs)
    out = list(specs)
    rng.shuffle(out)
    return out
