"""Behaviour pinned against stored output.

``reference_outputs.json`` holds the SHA-256 of ``cycindex suite`` stdout on
the default catalog, the SHA-256 of the catalog itself as JSON, and the exact
stdout and exit code of a few single jobs in text and JSON form.  Any refactor
must leave all of them byte-identical.
"""

import hashlib
import json
from pathlib import Path

import pytest

from cycindex.catalog import default_catalog
from cycindex.cli import main

REFERENCE = json.loads((Path(__file__).parent / "reference_outputs.json")
                       .read_text(encoding="utf-8"))


def _clear_cap_variables(monkeypatch):
    for name in ("CYCINDEX_GROUP_CAP", "CYCINDEX_WORK_CAP",
                 "CYCINDEX_DIM_CAP", "CYCINDEX_TERM_CAP"):
        monkeypatch.delenv(name, raising=False)


@pytest.mark.parametrize("case", REFERENCE["jobs"], ids=lambda c: " ".join(c["argv"][:3]))
def test_job_output_is_unchanged(case, capsys, monkeypatch):
    _clear_cap_variables(monkeypatch)
    code = main(case["argv"])
    assert (code, capsys.readouterr().out) == (case["exit"], case["stdout"])


def test_suite_output_hash_is_unchanged(capsys, monkeypatch):
    _clear_cap_variables(monkeypatch)
    assert main(["suite"]) == 0
    digest = hashlib.sha256(capsys.readouterr().out.encode("utf-8")).hexdigest()
    assert digest == REFERENCE["suite_sha256"]


def test_default_catalog_is_unchanged():
    jobs = default_catalog()
    assert len(jobs) == REFERENCE["catalog_jobs"]
    digest = hashlib.sha256(json.dumps(jobs).encode("utf-8")).hexdigest()
    assert digest == REFERENCE["catalog_sha256"]
