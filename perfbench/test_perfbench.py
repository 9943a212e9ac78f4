"""Tests of the benchmark itself: python3 -m pytest -q perfbench"""

import random
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

import run  # noqa: E402
import workloads  # noqa: E402
from cycindex import cli, grammar  # noqa: E402
from cycindex.caps import Caps  # noqa: E402
from tracer import LAYER_METRICS, Tracer  # noqa: E402

S3_SIGN = {"command": "verify", "group": "S(3)", "char": "index:1", "n": 2}


def test_negative_control_counts_failures():
    """A tampered character (exit 1) and a cap hit (exit 3) both count as failed."""
    good = workloads.spec_from_job(S3_SIGN)
    tampered = workloads.spec_from_job(dict(S3_SIGN, tamper_character=True))
    capped = workloads.spec_from_job(S3_SIGN, caps=Caps(orbit_work=10))
    assert cli.run(tampered)[0] == cli.EXIT_MISMATCH
    assert cli.run(capped)[0] == cli.EXIT_CAP

    done = run.run_pass([good, tampered, capped], run.load_reference())
    assert done.attempted == 3
    assert len(done.failures) == 2
    assert "exit code 1" in done.failures[0]
    assert "exit code 3" in done.failures[1]


def test_wrong_character_count_fails_even_with_matching_digest():
    spec = workloads.spec_from_job({"command": "characters", "group": "S(6)"})
    output = "group S(6): order 720, 3 linear character(s), values in Q(zeta_2)\n"
    reference = {spec.describe(): {"exit": 0, "sha256": run.digest(output)}}
    problem = run.check_job(spec, 0, output, reference)
    assert problem == "expected 2 linear characters"


def test_reference_covers_every_job():
    reference = run.load_reference()
    for name in run.WORKLOADS:
        for spec in workloads.build(name):
            assert spec.describe() in reference


def test_seed_zero_keeps_catalog_order_and_other_seeds_permute():
    specs = workloads.build("verify")
    assert workloads.ordered(specs, 0, random.Random(0)) == specs
    shuffled = workloads.ordered(specs, 7, random.Random(7))
    assert shuffled != specs
    assert sorted(map(id, shuffled)) == sorted(map(id, specs))
    assert workloads.ordered(specs, 7, random.Random(7)) == shuffled


def test_tracer_wraps_import_copies_and_restores_them():
    originals = (cli.parse_group, grammar.parse_group, cli.run)
    tracer = Tracer()
    tracer.install()
    try:
        assert cli.parse_group is grammar.parse_group
        assert cli.parse_group is not originals[0]
        spec = workloads.spec_from_job(
            {"command": "verify-basis", "group": "C(3)", "char": "index:1", "n": 1})
        assert cli.run(spec)[0] == cli.EXIT_OK
    finally:
        tracer.uninstall()
    assert (cli.parse_group, grammar.parse_group, cli.run) == originals
    report = tracer.report()
    assert set(report) == {name for name, _, _ in LAYER_METRICS} - {"trace.overhead_s"}
    assert report["cli.run_calls"] == 1
    assert report["projector.dim_total"] == 8
    assert report["projector.rank_total"] > 0
    assert report["cyclo.mul_calls"] > 0
    total_self = sum(v for k, v in report.items() if k.endswith("_s"))
    start, end = min(s[4] for s in tracer.spans), max(s[5] for s in tracer.spans)
    assert 0 < total_self <= end - start + 1e-9


def test_job_quantile_weighs_each_job_once_whatever_its_sample_count():
    samples = {"cheap": [0.001] * 30, "mid": [0.002, 0.004], "slow": [0.010]}
    assert run.job_quantile(samples, 1) == 0.001
    assert run.job_quantile(samples, 1.5) == 0.002
    assert run.job_quantile(samples, 2) == 0.004
    assert run.job_quantile(samples, 3) == 0.010
