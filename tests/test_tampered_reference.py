"""Fault-injection output pinned against stored output.

A tampered character is not a homomorphism, so its cycle index has
non-rational coefficients, and the MISMATCH text of ``verify`` prints them.
``reference_outputs.json`` holds, under ``tampered_verify``, the SHA-256 of
the exit code and stdout of every ``verify`` job of the default catalog run
with ``tamper=True``, each job as ``f"{code}\\n{stdout}"`` in catalog order,
and the exact output of one job whose character has order 6.
"""

import hashlib
import json
from pathlib import Path

from cycindex.catalog import default_catalog
from cycindex.cli import JobSpec, run

PIN = json.loads((Path(__file__).parent / "reference_outputs.json")
                 .read_text(encoding="utf-8"))["tampered_verify"]


def _tampered(job):
    return run(JobSpec(command="verify", group_expr=job["group"], char_sel=job["char"],
                       n=job["n"], tamper=True))


def test_tampered_verify_outputs_are_unchanged():
    jobs = [job for job in default_catalog() if job["command"] == "verify"]
    assert len(jobs) == PIN["jobs"]
    text = "".join(f"{code}\n{out}" for code, out in map(_tampered, jobs))
    assert hashlib.sha256(text.encode("utf-8")).hexdigest() == PIN["sha256"]


def test_tampered_order_six_character_prints_its_z3_coefficients():
    sample = PIN["sample"]
    assert "z3" in sample["stdout"]
    assert _tampered(sample) == (sample["exit"], sample["stdout"])
