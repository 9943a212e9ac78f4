"""Full outputs of the ``orbits`` census, pinned.

The default catalog has no ``orbits`` jobs, so the census is pinned here.
``reference_outputs.json`` holds, under ``orbits_census``, the SHA-256 of the
exit code and stdout of one ``orbits`` job per group, character and n, each
job as ``f"{code}\\n{stdout}"``, in text and then in JSON.  The groups are
those of ``MAIN_GROUP_EXPRS`` and the eight larger groups of the benchmark's
``groups`` workload, each with every selector ``index:k``; n runs over
0, 1, 2, keeping the jobs with (n+1)^d <= ``MAIN_POINT_CAP``.
"""

import hashlib
import json
from pathlib import Path

from cycindex.catalog import MAIN_GROUP_EXPRS, MAIN_POINT_CAP
from cycindex.characters import enumerate_linear_characters
from cycindex.cli import JobSpec, run
from cycindex.grammar import parse_group

PIN = json.loads((Path(__file__).parent / "reference_outputs.json")
                 .read_text(encoding="utf-8"))["orbits_census"]

LARGER_GROUP_EXPRS = ("S(6)", "A(6)", "wreath(S(3),S(2))", "wreath(S(2),S(3))",
                      "product(S(3),D(4))", "D(8)", "C(12)", "gen[6]{(1 2),(3 4),(5 6)}")


def _jobs():
    for expr in [*MAIN_GROUP_EXPRS, *LARGER_GROUP_EXPRS]:
        G = parse_group(expr).group
        for k in range(len(enumerate_linear_characters(G))):
            for n in (0, 1, 2):
                if (n + 1) ** G.degree <= MAIN_POINT_CAP:
                    for fmt in ("text", "json"):
                        yield JobSpec("orbits", expr, f"index:{k}", n=n, fmt=fmt)


def test_orbits_census_outputs_are_unchanged():
    jobs = list(_jobs())
    assert len(jobs) == PIN["jobs"]
    text = "".join(f"{code}\n{out}" for code, out in map(run, jobs))
    assert hashlib.sha256(text.encode("utf-8")).hexdigest() == PIN["sha256"]
