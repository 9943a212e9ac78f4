"""Full ``verify-basis`` reports pinned against stored output.

The suite prints one status line per job, so rank, trace and |J| are pinned
here.  ``reference_outputs.json`` holds, under ``verify_basis``, the SHA-256
of the exit code and stdout of every ``verify-basis`` job of the default
catalog, each job as ``f"{code}\\n{stdout}"`` in catalog order.
"""

import hashlib
import json
from pathlib import Path

from cycindex.catalog import default_catalog
from cycindex.cli import JobSpec, run

PIN = json.loads((Path(__file__).parent / "reference_outputs.json")
                 .read_text(encoding="utf-8"))["verify_basis"]


def _report(job):
    return run(JobSpec(command="verify-basis", group_expr=job["group"], char_sel=job["char"],
                       n=job["n"]))


def test_verify_basis_reports_are_unchanged():
    jobs = [job for job in default_catalog() if job["command"] == "verify-basis"]
    assert len(jobs) == PIN["jobs"]
    text = "".join(f"{code}\n{out}" for code, out in map(_report, jobs))
    assert hashlib.sha256(text.encode("utf-8")).hexdigest() == PIN["sha256"]
