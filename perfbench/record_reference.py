"""Record reference.json: exit code and stdout SHA-256 of every workload job.

    python3 perfbench/record_reference.py

Run it once, on the commit whose behaviour is the reference; later commits
must reproduce these outputs byte for byte.
"""

import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import workloads  # noqa: E402
from cycindex import cli  # noqa: E402
from run import WORKLOADS, check_job, digest  # noqa: E402


def main() -> int:
    jobs: dict[str, dict] = {}
    for name in WORKLOADS:
        for spec in workloads.build(name):
            key = spec.describe()
            if key in jobs:
                raise SystemExit(f"duplicate job description {key!r}")
            code, output = cli.run(spec)
            jobs[key] = {"exit": code, "sha256": digest(output)}
            problem = check_job(spec, code, output, jobs)
            if problem is not None:
                raise SystemExit(f"{key}: {problem}")
    path = Path(__file__).resolve().parent / "reference.json"
    with open(path, "w", encoding="utf-8") as fh:
        json.dump({"jobs": jobs}, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print(f"recorded {len(jobs)} jobs in {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
