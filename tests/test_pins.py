"""Every stored reference output, recomputed from one table.

``reference_outputs.json`` holds what the program printed at a commit whose
output is known to be right.  ``PINS`` maps each top-level key of the file to
the code that recomputes its stored value: the function takes the stored value,
reads the inputs it names (a list of groups, cases, seeds) and returns the
value as this tree computes it, inputs passed through and outputs recomputed.
Each stored value is one test item, and a key whose value is a list (``jobs``)
is one item per element.  A key that no entry reads, or an entry whose key is
gone, fails ``test_every_stored_key_has_a_pin``.

Many jobs are pinned as the SHA-256 of their exit codes and stdouts, each job
as ``f"{code}\\n{stdout}"``, joined in order, with the number of jobs.  A job
of the default catalog runs as ``cli.run(cli.job_spec(job))``, the spec
``cli.run_suite`` builds for it, with ``dataclasses.replace`` for ``tamper``
and ``fmt``.  A command line runs ``cli.main`` as ``tests/pin_output.py``
records it, with the ``CYCINDEX_*_CAP`` variables removed.

To add a pin, add a key to the file and its row here.  Record the stored value
from the parent commit, never from the change under test, and never re-record
a pin to make a test pass.
"""

import hashlib
import json
import random
from dataclasses import replace
from pathlib import Path

import pytest
from pin_output import CAP_VARIABLES, pin

from cycindex import (Cyclotomic, enumerate_linear_characters, random_gamma_family,
                      verify_basis_prop)
from cycindex.catalog import MAIN_GROUP_EXPRS, MAIN_POINT_CAP, default_catalog
from cycindex.characters import LinearCharacter
from cycindex.cli import _tampered, job_spec, run
from cycindex.grammar import parse_character, parse_group
from cycindex.polys import cycle_index, specialize

REFERENCE = json.loads((Path(__file__).parent / "reference_outputs.json")
                       .read_text(encoding="utf-8"))


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def joined(results) -> str:
    """(exit code, stdout) pairs as one text, each as ``f"{code}\\n{stdout}"``."""
    return "".join(f"{code}\n{out}" for code, out in results)


def catalog_specs(keep) -> list:
    """The specs of the default catalog's jobs whose command ``keep`` accepts."""
    return [job_spec(job) for job in default_catalog() if keep(job["command"])]


def counted(specs: list) -> dict:
    return {"jobs": len(specs), "sha256": sha256(joined(map(run, specs)))}


def argv_job(case: dict) -> dict:
    """Exact exit code and stdout of one command line (one case of ``jobs``)."""
    return pin(case["argv"])


def suite_sha256(_stored: str) -> str:
    """SHA-256 of ``cycindex suite`` stdout on the default catalog, which exits 0."""
    case = pin(["suite"])
    assert case["exit"] == 0
    return sha256(case["stdout"])


def catalog_jobs(_stored: int) -> int:
    return len(default_catalog())


def catalog_sha256(_stored: str) -> str:
    """SHA-256 of the default catalog as JSON."""
    return sha256(json.dumps(default_catalog()))


def verify_workload(_stored: dict) -> dict:
    """Every default-catalog job other than ``verify-basis``, in text: the suite
    prints one status line per job, so what ``verify``, ``verify-product`` and
    ``verify-plethysm`` print is pinned here."""
    return counted(catalog_specs(lambda command: command != "verify-basis"))


def verify_basis(_stored: dict) -> dict:
    """Every ``verify-basis`` job of the default catalog: rank, trace and |J|."""
    return counted(catalog_specs(lambda command: command == "verify-basis"))


def tampered_verify(stored: dict) -> dict:
    """Every ``verify`` job of the default catalog with ``tamper=True``, and the
    exact output of ``sample``, whose character has order 6.

    A tampered character is not a homomorphism, so its cycle index has
    non-rational coefficients, and the MISMATCH text of ``verify`` prints them.
    """
    sample = stored["sample"]
    job = {"command": "verify", **{key: sample[key] for key in ("group", "char", "n")}}
    code, out = run(replace(job_spec(job), tamper=True))
    assert "z3" in out
    specs = [replace(spec, tamper=True)
             for spec in catalog_specs(lambda command: command == "verify")]
    return {**counted(specs), "sample": {**sample, "exit": code, "stdout": out}}


def verify_json(_stored: dict) -> dict:
    """``verify --format json`` for the default catalog's ``verify`` jobs, first as
    listed and then with ``tamper=True``: the JSON form of every coefficient,
    rational or not (some output carries a ``"conductor"`` key)."""
    specs = catalog_specs(lambda command: command == "verify")
    results = [run(replace(spec, fmt="json", tamper=tamper))
               for tamper in (False, True) for spec in specs]
    assert any('"conductor"' in out for _, out in results)
    return {"jobs": len(specs), "sha256": sha256(joined(results))}


def characters(stored: dict) -> dict:
    """``characters --group G`` in text and then in JSON for each of ``groups``: the
    ``groups`` benchmark workload, S(7), S(8) and two groups whose exponent m = 12
    needs both of their generators."""
    cases = [pin(["characters", "--group", expr, "--format", fmt])
             for expr in stored["groups"] for fmt in ("text", "json")]
    return {**stored, "sha256": sha256(joined((c["exit"], c["stdout"]) for c in cases))}


LARGER_GROUP_EXPRS = ("S(6)", "A(6)", "wreath(S(3),S(2))", "wreath(S(2),S(3))",
                      "product(S(3),D(4))", "D(8)", "C(12)", "gen[6]{(1 2),(3 4),(5 6)}")


def orbits_census(_stored: dict) -> dict:
    """One ``orbits`` job per group, character ``index:k`` and n in 0, 1, 2 with
    (n+1)^d <= ``MAIN_POINT_CAP``, in text and then in JSON, for the groups of
    ``MAIN_GROUP_EXPRS`` and the eight larger groups of the benchmark's ``groups``
    workload.  The default catalog has no ``orbits`` jobs."""
    specs = []
    for expr in [*MAIN_GROUP_EXPRS, *LARGER_GROUP_EXPRS]:
        G = parse_group(expr).group
        for k in range(len(enumerate_linear_characters(G))):
            for n in (0, 1, 2):
                if (n + 1) ** G.degree <= MAIN_POINT_CAP:
                    spec = job_spec({"command": "orbits", "group": expr,
                                     "char": f"index:{k}", "n": n})
                    specs += [replace(spec, fmt=fmt) for fmt in ("text", "json")]
    return counted(specs)


def cocycle_basis(stored: dict) -> dict:
    """The reports on cocycle-twisted modules, which no catalog job builds.

    For each (group, n) of ``cases``, each of ``seeds``, the ``random_gamma_family``
    module and every linear character of the group, ``sha256`` digests one
    ``json.dumps(report.to_json(), sort_keys=True)`` per line.  A family's
    transversal roots change it by a coboundary, which leaves every report as it
    is, so ``gamma_sha256`` digests the families themselves, one
    ``json.dumps([gamma_order, sorted(gamma.items())])`` per line: that fixes the
    order in which ``random_gamma_family`` draws from its seeded generator.
    """
    families, reports = [], []
    for expr, n in stored["cases"]:
        G = parse_group(expr).group
        for seed in stored["seeds"]:
            M = random_gamma_family(G, n, seed)
            families.append(json.dumps([M.gamma_order, sorted(M.gamma.items())]))
            reports += [json.dumps(verify_basis_prop(M, chi).to_json(), sort_keys=True)
                        for chi in enumerate_linear_characters(G)]
    return {**stored, "reports": len(reports), "sha256": sha256("\n".join(reports)),
            "gamma_sha256": sha256("\n".join(families))}


ALGEBRA_GROUPS = ["C(6)", "C(12)", "D(6)", "S(4)", "product(C(3),C(4))"]
ALGEBRA_ORDERS = [3, 4, 5, 6, 8, 12]


def algebra_characters():
    """Three random exponent tables (identity exponent 0) for every m in
    ``ALGEBRA_ORDERS`` on every group in ``ALGEBRA_GROUPS``, drawn from
    ``random.Random(18)`` in that loop order; then ``cli._tampered`` of the
    character of every distinct (group, char) pair of the default catalog's
    ``verify`` jobs on groups of order >= 2, in first-seen order."""
    rng = random.Random(18)
    for expr in ALGEBRA_GROUPS:
        G = parse_group(expr).group
        for m in ALGEBRA_ORDERS:
            for _ in range(3):
                exponents = (0,) + tuple(rng.randrange(m) for _ in range(G.order - 1))
                yield LinearCharacter(G, m, exponents, name="random")
    pairs = dict.fromkeys((job["group"], job["char"]) for job in default_catalog()
                          if job["command"] == "verify")
    for expr, sel in pairs:
        spec = parse_group(expr)
        if spec.group.order > 1:
            yield _tampered(parse_character(sel, spec))


def algebra_side(_stored: dict) -> dict:
    """The algebra side on exponent tables that are not homomorphisms:
    ``cycle_index(G, chi).to_json()`` and then ``specialize(Z, n).to_json()`` for
    n = 0, 1, 2, one JSON line each, for every character of
    ``algebra_characters``.  Their coefficients are not rational, and the
    conductor each one prints at depends on the order its values were summed in."""
    lines = []
    for chi in algebra_characters():
        Z = cycle_index(chi.group, chi)
        lines.append(json.dumps(Z.to_json()))
        lines.extend(json.dumps(specialize(Z, n).to_json()) for n in range(3))
    return {"sha256": sha256("\n".join(lines) + "\n")}


# z6 + z6^5 and z12 + z12^7 are rational, so the two orders demote at different steps
RUNNING = [(6, 1), (6, 5), (3, 1), (4, 1), (4, 3), (12, 1), (12, 7)]


def running_sums(pairs) -> list[Cyclotomic]:
    total = Cyclotomic.zero()
    sums = []
    for m, k in pairs:
        total = total + Cyclotomic.root_of_unity(m, k)
        sums.append(total)
    return sums


def cyclotomic_text(_stored: dict) -> dict:
    """``str()`` and ``to_json()`` of ``root_of_unity(m, k)`` for every m <= 24 and
    0 <= k < m; of the sum and the product of every ordered pair of roots with
    m <= 12; and of the running sums of ``RUNNING`` in list order and then in
    reverse order, one line ``f"{v}\\t{json.dumps(v.to_json())}\\n"`` per value.
    The two running sums end at different conductors, so the pin also holds the
    rule that a sum stays at the conductor its summation order reached."""
    values = [Cyclotomic.root_of_unity(m, k) for m in range(1, 25) for k in range(m)]
    roots = [Cyclotomic.root_of_unity(m, k) for m in range(1, 13) for k in range(m)]
    for a in roots:
        for b in roots:
            values += [a + b, a * b]
    values += running_sums(RUNNING) + running_sums(RUNNING[::-1])
    return {"sha256": sha256("".join(f"{v}\t{json.dumps(v.to_json())}\n" for v in values))}


# top-level key of reference_outputs.json -> stored value (or list element) -> recomputed
PINS = {
    "jobs": argv_job,
    "suite_sha256": suite_sha256,
    "catalog_jobs": catalog_jobs,
    "catalog_sha256": catalog_sha256,
    "verify_workload": verify_workload,
    "verify_basis": verify_basis,
    "tampered_verify": tampered_verify,
    "verify_json": verify_json,
    "characters": characters,
    "orbits_census": orbits_census,
    "cocycle_basis": cocycle_basis,
    "algebra_side": algebra_side,
    "cyclotomic_text": cyclotomic_text,
}


def _items():
    for key, stored in REFERENCE.items():
        if isinstance(stored, list):
            for case in stored:
                yield pytest.param(key, case, id=f"{key}: {' '.join(case['argv'])}")
        else:
            yield pytest.param(key, stored, id=key)


@pytest.fixture
def no_cap_variables(monkeypatch):
    for name in CAP_VARIABLES:
        monkeypatch.delenv(name, raising=False)


@pytest.mark.usefixtures("no_cap_variables")
@pytest.mark.parametrize("key, stored", _items())
def test_stored_output_is_reproduced(key, stored):
    assert PINS[key](stored) == stored


def test_every_stored_key_has_a_pin():
    assert set(PINS) == set(REFERENCE)


def test_running_sums_end_at_different_conductors():
    forward, backward = running_sums(RUNNING), running_sums(RUNNING[::-1])
    assert forward[-1] == backward[-1]
    assert forward[-1].conductor != backward[-1].conductor
