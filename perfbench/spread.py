"""Run the benchmark on several seeds and report the spread of each metric.

    python3 perfbench/spread.py --workload groups --seeds 1-5
    python3 perfbench/spread.py --workload all --seeds 1-10 --out perfbench/baseline.json

Runs execute one after another. A metric's spread is the distance between
the first and third quartile of its values (``statistics.quantiles`` with
n=4) as a share of their median; the bounds come from BENCHMARK.json.
"""

import argparse
import json
import subprocess
import sys
from pathlib import Path
from statistics import median, quantiles

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def seed_range(text: str) -> list[int]:
    first, _, last = text.partition("-")
    return list(range(int(first), int(last or first) + 1))


def main() -> int:
    config = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", type=seed_range, default=seed_range("1-10"))
    parser.add_argument("--out", help="write every value and median to this JSON file")
    args = parser.parse_args()
    names = ([w["name"] for w in config["workloads"]] if args.workload == "all"
             else [args.workload])
    bounds = {m["name"]: m["bound"] for m in config["end_to_end"]}
    summary = {}
    for name in names:
        values: dict[str, list[float]] = {metric: [] for metric in bounds}
        for seed in args.seeds:
            done = subprocess.run(
                [sys.executable, str(HERE / "run.py"), "--workload", name,
                 "--seed", str(seed), "--seconds", str(config["run_seconds"]), "--trace", "0"],
                cwd=ROOT, capture_output=True, text=True, timeout=900, check=True)
            result = json.loads(done.stdout.splitlines()[-1])
            if not result["correct"]:
                raise SystemExit(f"{name} seed {seed}: {result['failed']} jobs failed")
            for metric in bounds:
                values[metric].append(result["metrics"][metric]["value"])
            print(f"{name} seed {seed}: " + ", ".join(
                f"{m}={v[-1]:.4f}" for m, v in values.items()), flush=True)
        summary[name] = {}
        for metric, vals in values.items():
            q1, mid, q3 = quantiles(vals, n=4)
            spread = (q3 - q1) / mid
            summary[name][metric] = {"median": mid, "spread": spread, "values": vals}
            print(f"  {name:<7} {metric:<13} median {mid:10.4f}  spread {spread:6.4f}  "
                  f"bound {bounds[metric]:.2f}  spread/bound {spread / bounds[metric]:.2f}")
    if args.out:
        Path(args.out).write_text(json.dumps(summary, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
