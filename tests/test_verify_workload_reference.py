"""Full text outputs of the catalog jobs that use no projector, pinned.

The suite prints one status line per job, so what ``verify``,
``verify-product`` and ``verify-plethysm`` print is pinned here.
``reference_outputs.json`` holds, under ``verify_workload``, the SHA-256 of
the exit code and stdout of every default-catalog job other than
``verify-basis``, each job as ``f"{code}\\n{stdout}"`` in catalog order, with
the ``JobSpec`` that ``cli.run_suite`` builds for it.
"""

import hashlib
import json
from pathlib import Path

from cycindex.catalog import default_catalog
from cycindex.cli import JobSpec, run

PIN = json.loads((Path(__file__).parent / "reference_outputs.json")
                 .read_text(encoding="utf-8"))["verify_workload"]


def _output(job):
    return run(JobSpec(command=job["command"], group_expr=job["group"], char_sel=job["char"],
                       n=job.get("n"), group2_expr=job.get("group2"),
                       char2_sel=job.get("char2"),
                       tamper=job.get("tamper_character", False)))


def test_verify_workload_outputs_are_unchanged():
    jobs = [job for job in default_catalog() if job["command"] != "verify-basis"]
    assert len(jobs) == PIN["jobs"]
    text = "".join(f"{code}\n{out}" for code, out in map(_output, jobs))
    assert hashlib.sha256(text.encode("utf-8")).hexdigest() == PIN["sha256"]
