"""Full text outputs of the catalog jobs that use no projector, pinned.

The suite prints one status line per job, so what ``verify``,
``verify-product`` and ``verify-plethysm`` print is pinned here.
``reference_outputs.json`` holds, under ``verify_workload``, the SHA-256 of
the exit code and stdout of every default-catalog job other than
``verify-basis``, each job as ``f"{code}\\n{stdout}"`` in catalog order, with
the ``JobSpec`` that ``cli.run_suite`` builds for it.

Under ``verify_json`` it holds the SHA-256 of what ``verify --format json``
prints for the default catalog's ``verify`` jobs, each job as
``f"{code}\\n{stdout}"`` in catalog order, first as listed and then again
with ``tamper=True``: the JSON form of every coefficient, rational or not.
"""

import hashlib
import json
from pathlib import Path

from cycindex.catalog import default_catalog
from cycindex.cli import JobSpec, run

REFERENCE = json.loads((Path(__file__).parent / "reference_outputs.json")
                       .read_text(encoding="utf-8"))
PIN = REFERENCE["verify_workload"]


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


def test_verify_json_outputs_are_unchanged():
    pin = REFERENCE["verify_json"]
    jobs = [job for job in default_catalog() if job["command"] == "verify"]
    assert len(jobs) == pin["jobs"]
    outputs = [run(JobSpec(command="verify", group_expr=job["group"], char_sel=job["char"],
                           n=job["n"], fmt="json", tamper=tamper))
               for tamper in (False, True) for job in jobs]
    assert any('"conductor"' in out for _, out in outputs)
    text = "".join(f"{code}\n{out}" for code, out in outputs)
    assert hashlib.sha256(text.encode("utf-8")).hexdigest() == pin["sha256"]
