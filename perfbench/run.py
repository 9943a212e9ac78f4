"""Closed-loop benchmark of cycindex: one client, one thread, one job at a time.

    python3 perfbench/run.py --workload basis|verify|groups|all \
        --seed N --seconds S --trace 0|1

Run it from the root of a source checkout; it imports the package from
``src``. Each job is a ``cli.JobSpec`` sent through ``cli.run``, and the next
job is sent only after the previous one returned. The first sweep runs every
job of the workload once; later sweeps run a slow job only every few sweeps
(see ``measure``). Jobs run in catalog order for seed 0 and shuffled by the
seed otherwise. Sweeps repeat until the next one would end after ``--seconds``.

Every output is checked: the exit code and the SHA-256 of stdout must match
``reference.json``, and ``characters`` jobs must report the number of linear
characters that group theory gives. A job that fails any check, exits non-zero
or raises counts as failed.

With ``--trace 1`` every sweep is a full pass, followed by the same pass under
the layer tracer, and the per-layer metrics are printed instead of the end-to-end ones.
The last line of stdout is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import random
import re
import resource
import subprocess
import sys
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from statistics import median
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
if not (SRC / "cycindex" / "__init__.py").is_file():
    sys.exit(f"error: no cycindex package under {SRC}")
sys.path.insert(0, str(SRC))

import speed  # noqa: E402
import workloads  # noqa: E402
from cycindex import cli  # noqa: E402
from tracer import COMPUTED, LAYER_METRICS, Tracer  # noqa: E402

WORKLOADS = ("basis", "verify", "groups")
SETUP_PROBES = 7   # fresh interpreters per run; setup_s is their median
TAIL_BEYOND = 10   # job_tail_ms is the latency with this many jobs beyond it
PERIOD_S = 0.25   # a job taking k times this runs in every k-th sweep only

END_TO_END = (("wall_s", "s"), ("job_p50_ms", "ms"), ("job_tail_ms", "ms"),
              ("setup_s", "s"), ("peak_rss_mib", "MiB"))

_CHARACTER_COUNT = re.compile(r"(\d+) linear character\(s\)")


@dataclass
class Pass:
    wall: float  # sum of the job latencies as timed
    attempted: int
    latencies: dict[str, float]  # job description -> seconds at the reference speed
    failures: list[str]
    probes: list[float]  # speed probe times: before the first job, during and after each


def digest(output: str) -> str:
    return hashlib.sha256(output.encode("utf-8")).hexdigest()


def load_reference() -> dict:
    with open(HERE / "reference.json", encoding="utf-8") as fh:
        return json.load(fh)["jobs"]


def check_job(spec, code, output: str, reference: dict) -> str | None:
    """Why the job's result is wrong, or None when it is right."""
    want = reference.get(spec.describe())
    if want is None:
        return "no reference result"
    if code != want["exit"]:
        return f"exit code {code}, reference {want['exit']}"
    if digest(output) != want["sha256"]:
        return "stdout differs from the reference"
    expected = workloads.LINEAR_CHARACTERS.get(spec.group_expr)
    if spec.command == "characters" and expected is not None:
        found = _CHARACTER_COUNT.search(output)
        if found is None or int(found.group(1)) != expected:
            return f"expected {expected} linear characters"
    return None


def run_pass(specs, reference, tracer=None) -> Pass:
    latencies: dict[str, float] = {}
    failures: list[str] = []
    probes = [speed.probe()]
    wall = 0.0
    for i, spec in enumerate(specs):
        if tracer is not None:
            tracer.job = i
        gc.collect()
        before = probes[-1]
        with speed.During() as during:
            t0 = perf_counter()
            try:
                code, output = cli.run(spec)
            except Exception as exc:  # an exception escaping run() fails the job, not the run
                code, output = None, f"{type(exc).__name__}: {exc}"
            elapsed = perf_counter() - t0 - sum(during.probes)
        after = speed.probe()
        probes += [*during.probes, after]
        wall += elapsed
        latencies[spec.describe()] = speed.at_reference(elapsed, [before, *during.probes, after])
        problem = check_job(spec, code, output, reference)
        if problem is not None:
            failures.append(f"{spec.describe()}: {problem}")
    return Pass(wall, len(specs), latencies, failures, probes)


def setup_seconds(workload: str) -> float:
    """Median time of a fresh interpreter to import cycindex and build the job list,
    at the reference speed."""
    times = []
    for _ in range(SETUP_PROBES):
        done = subprocess.run([sys.executable, str(HERE / "setup_probe.py"), workload],
                              cwd=ROOT, capture_output=True, text=True,
                              timeout=120, check=True)
        times.append(float(done.stdout.split()[-1]))
    return median(times)


def sweep_order(specs, seed: int, rng, periods: dict[str, int] | None, sweep: int):
    """The jobs of one sweep: every job in the first, then each job whose period divides it."""
    order = workloads.ordered(specs, seed, rng)
    if periods is None:
        return order
    return [spec for spec in order if sweep % periods[spec.describe()] == 0]


def measure(specs, seed: int, seconds: float, trace: bool):
    """Closed-loop sweeps; with trace, each sweep is a full pass repeated under the tracer.

    Without trace, the first sweep times every job once and fixes each job's
    period from that time, so a job that takes several PERIOD_S runs only in
    every period-th sweep after it. The cheap jobs, which set job_p50_ms and
    job_tail_ms, then get many samples spread over the whole run instead of one
    per pass of the slowest job.
    """
    reference = load_reference()
    rng = random.Random(seed)
    # The collector runs before every job, outside the timed region, so each
    # job starts from the same collector state whatever ran before it; a job
    # still pays for the collections its own allocations trigger. Freezing
    # keeps the harness's own objects out of those collections.
    gc.collect()
    gc.freeze()
    plain: list[Pass] = []
    traced: list[tuple[Pass, dict]] = []
    periods = None
    start = perf_counter()
    while True:
        order = sweep_order(specs, seed, rng, periods, len(plain))
        plain.append(run_pass(order, reference))
        if trace:
            tracer = Tracer()
            tracer.install()
            try:
                done = run_pass(order, reference, tracer)
            finally:
                tracer.uninstall()
            traced.append((done, tracer.report()))
        elif periods is None:
            periods = {key: max(1, round(t / PERIOD_S)) for key, t in plain[0].latencies.items()}
        elapsed = perf_counter() - start
        # the next sweep is predicted from the first one's job times, scaled by
        # the elapsed time per second of job time so far
        scale = elapsed / sum(sum(p.latencies.values()) for p in plain)
        upcoming = sweep_order(specs, 0, None, periods, len(plain))
        ahead = scale * sum(plain[0].latencies[spec.describe()] for spec in upcoming)
        if elapsed + ahead > seconds:
            return plain, traced


def job_quantile(samples: dict[str, list[float]], jobs_below: float) -> float:
    """The latency with ``jobs_below`` jobs' worth of samples at or below it.

    Each job weighs the same and shares its weight among its samples, so a
    job sampled more often does not count more.
    """
    weighted = sorted((t, Fraction(1, len(times))) for times in samples.values() for t in times)
    total = Fraction(0)
    for t, weight in weighted:
        total += weight
        if total >= jobs_below:
            return t
    return weighted[-1][0]


def end_to_end(passes: list[Pass], setup_s: float) -> tuple[dict, str]:
    samples: dict[str, list[float]] = {}
    for p in passes:
        for key, t in p.latencies.items():
            samples.setdefault(key, []).append(t)
    count = len(samples)
    sizes = [len(times) for times in samples.values()]
    rank = max(count - TAIL_BEYOND, 1)
    values = {
        # a job's own median over its samples, summed: one run of every job
        "wall_s": sum(median(times) for times in samples.values()),
        "job_p50_ms": job_quantile(samples, count / 2) * 1000,
        "job_tail_ms": job_quantile(samples, rank) * 1000,
        "setup_s": setup_s,
        "peak_rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    notes = {
        "wall_s": f"sum over {count} jobs of each job's median; {min(sizes)} to "
                  f"{max(sizes)} samples a job in {len(passes)} sweeps",
        "job_p50_ms": f"median of {sum(sizes)} timed jobs, each of the {count} jobs weighted equally",
        "job_tail_ms": f"p{100 * rank / count:.1f} of {sum(sizes)} timed jobs, "
                       f"{count - rank} jobs' worth of samples beyond it",
        "setup_s": f"median of {SETUP_PROBES} fresh interpreters",
        "peak_rss_mib": "peak resident set of the measuring process",
    }
    lines = [f"  {name:<14} {values[name]:>12.4f} {unit:<4} {notes[name]}"
             for name, unit in END_TO_END]
    probes = [t for p in passes for t in p.probes]
    lines.append(f"  times are at the reference speed: the speed probe took a median "
                 f"{median(probes) * 1000:.3f} ms in this run against "
                 f"{speed.REFERENCE_S * 1000:.3f} ms; the sweeps took "
                 f"{sum(p.wall for p in passes):.2f} s as timed")
    return values, "\n".join(lines)


def per_layer(plain: list[Pass], traced: list[tuple[Pass, dict]]) -> tuple[dict, str]:
    values = {name: median(report[name] for _, report in traced)
              for name, _, _ in LAYER_METRICS if name != "trace.overhead_s"}
    # each traced pass repeats the plain pass before it, so pairing them
    # cancels most of the machine's drift
    values["trace.overhead_s"] = median(t.wall - p.wall
                                        for p, (t, _) in zip(plain, traced))
    lines = []
    for name, unit, _ in LAYER_METRICS:
        note = f"computed: {COMPUTED[name]}" if name in COMPUTED else ""
        lines.append(f"  {name:<28} {values[name]:>16.4f} {unit:<5} {note}".rstrip())
    return values, "\n".join(lines)


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> dict:
    setup_s = setup_seconds(name)
    specs = workloads.build(name)
    plain, traced = measure(specs, seed, seconds, trace)
    runs = plain + [p for p, _ in traced]
    attempted = sum(p.attempted for p in runs)
    failures = [f for p in runs for f in p.failures]
    print(f"workload {name}: {len(specs)} jobs, {len(plain)} sweeps, seed {seed}, "
          f"closed loop with one client")
    for failure in failures[:20]:
        print(f"  FAILED {failure}")
    e2e_values, e2e_text = end_to_end(plain, setup_s)
    print(e2e_text)
    print(f"  {'fail_ratio':<14} {len(failures) / attempted:>12.4f} "
          f"     {len(failures)} of {attempted} jobs failed")
    if trace:
        metrics, layer_text = per_layer(plain, traced)
        print(f"per-layer metrics, median of {len(traced)} traced passes:")
        print(layer_text)
        units = {metric: unit for metric, unit, _ in LAYER_METRICS}
    else:
        metrics, units = e2e_values, dict(END_TO_END)
    return {"correct": not failures, "attempted": attempted, "failed": len(failures),
            "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()}}


def run_all(args) -> dict:
    """Every workload in its own interpreter, so peak RSS stays per workload."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOADS:
        done = subprocess.run([sys.executable, str(Path(__file__).resolve()),
                               "--workload", name, "--seed", str(args.seed),
                               "--seconds", str(args.seconds), "--trace", str(args.trace)],
                              cwd=ROOT, capture_output=True, text=True, timeout=900)
        lines = done.stdout.rstrip("\n").splitlines()
        if done.returncode != 0 or not lines:
            sys.stderr.write(done.stderr)
            raise SystemExit(f"workload {name} exited with code {done.returncode}")
        print("\n".join(lines[:-1]), flush=True)
        result = json.loads(lines[-1])
        combined["correct"] = combined["correct"] and result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for metric, value in result["metrics"].items():
            combined["metrics"][f"{name}.{metric}"] = value
    print(f"all workloads: fail_ratio {combined['failed'] / combined['attempted']:.4f} "
          f"({combined['failed']} of {combined['attempted']} jobs failed)")
    return combined


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.workload == "all":
        result = run_all(args)
    else:
        result = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
