"""Full ``verify-basis`` reports pinned against stored output.

The suite prints one status line per job, so rank, trace and |J| are pinned
here.  ``reference_outputs.json`` holds, under ``verify_basis``, the SHA-256
of the exit code and stdout of every ``verify-basis`` job of the default
catalog, each job as ``f"{code}\\n{stdout}"`` in catalog order.  Under
``cocycle_basis`` it holds the SHA-256 of the reports on cocycle-twisted
modules, which no catalog job builds: for each (group, n) case and seed, the
``random_gamma_family`` module and every linear character of the group, one
``json.dumps(report.to_json(), sort_keys=True)`` per line.  A family's
transversal roots change it by a coboundary, which leaves every report as it
is, so ``gamma_sha256`` pins the families themselves, one
``json.dumps([gamma_order, sorted(gamma.items())])`` per line: that fixes the
order in which ``random_gamma_family`` draws from its seeded generator.
"""

import hashlib
import json
from pathlib import Path

from cycindex import enumerate_linear_characters, random_gamma_family, verify_basis_prop
from cycindex.catalog import default_catalog
from cycindex.cli import JobSpec, run
from cycindex.grammar import parse_group

REFERENCE = json.loads((Path(__file__).parent / "reference_outputs.json")
                       .read_text(encoding="utf-8"))
PIN, COCYCLE_PIN = REFERENCE["verify_basis"], REFERENCE["cocycle_basis"]


def _report(job):
    return run(JobSpec(command="verify-basis", group_expr=job["group"], char_sel=job["char"],
                       n=job["n"]))


def test_verify_basis_reports_are_unchanged():
    jobs = [job for job in default_catalog() if job["command"] == "verify-basis"]
    assert len(jobs) == PIN["jobs"]
    text = "".join(f"{code}\n{out}" for code, out in map(_report, jobs))
    assert hashlib.sha256(text.encode("utf-8")).hexdigest() == PIN["sha256"]


def _digest(lines):
    return hashlib.sha256("\n".join(lines).encode("utf-8")).hexdigest()


def test_cocycle_twisted_reports_are_unchanged():
    families, reports = [], []
    for expr, n in COCYCLE_PIN["cases"]:
        G = parse_group(expr).group
        for seed in COCYCLE_PIN["seeds"]:
            M = random_gamma_family(G, n, seed)
            families.append(json.dumps([M.gamma_order, sorted(M.gamma.items())]))
            reports += [json.dumps(verify_basis_prop(M, chi).to_json(), sort_keys=True)
                        for chi in enumerate_linear_characters(G)]
    assert len(reports) == COCYCLE_PIN["reports"]
    assert _digest(families) == COCYCLE_PIN["gamma_sha256"]
    assert _digest(reports) == COCYCLE_PIN["sha256"]
