"""Print the seconds a fresh interpreter needs to import cycindex and build
one workload's job list, at the reference speed of ``speed.py``:
``python3 perfbench/setup_probe.py basis``."""

import sys
from pathlib import Path
from statistics import median
from time import perf_counter

import speed

before = median(speed.probe() for _ in range(5))
start = perf_counter()
sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
import workloads  # noqa: E402  (imports cycindex inside the timed region)

workloads.build(sys.argv[1])
elapsed = perf_counter() - start
print(speed.at_reference(elapsed, [before, median(speed.probe() for _ in range(5))]))
