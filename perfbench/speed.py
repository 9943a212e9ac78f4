"""Machine-speed probe: a fixed pure-Python workload timed around every job.

The shared host the benchmark was defined on runs the same code up to 1.5
times slower from one minute to the next, because other tenants load the
core it runs on. Raw times then spread by about a quarter between runs of the
same code, more than a regression the benchmark must catch. The probe times
the host's current speed with work of the kind cycindex does (permutation
tuples, hashing), but with code of the benchmark's own, so a change to the
package does not change the probe. A job's time is divided by the mean of the
probe times just before and just after it, and during it for a job long
enough to outlast the host's changes of speed, and multiplied by REFERENCE_S:
the result is the job's time on the host when the probe takes REFERENCE_S.
"""

import signal
from time import perf_counter

# The probe's median in the runs on the host the benchmark was defined on
# (2-vCPU Xeon VM at 2.1 GHz, Python 3.11.7).
REFERENCE_S = 0.65e-3

_PERM = tuple((i * 7 + 3) % 61 for i in range(61))


def probe() -> float:
    """Seconds taken to compose a fixed permutation of 61 points 150 times."""
    start = perf_counter()
    power, seen = _PERM, set()
    for _ in range(150):
        power = tuple(_PERM[i] for i in power)
        seen.add(power)
    return perf_counter() - start


class During:
    """Runs the probe every INTERVAL_S seconds of wall time while the block runs.

    The probes run from a SIGALRM handler between the job's bytecodes, and
    their own time is kept apart so that it can be taken out of the job's.
    """

    INTERVAL_S = 0.2  # the host keeps one speed for about a second

    def __enter__(self) -> "During":
        self.probes: list[float] = []
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, self.INTERVAL_S, self.INTERVAL_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)

    def _tick(self, signum, frame) -> None:
        self.probes.append(probe())


def at_reference(seconds: float, probes: list[float]) -> float:
    """``seconds`` of work timed while the host ran ``probes``, at the reference speed."""
    return seconds * REFERENCE_S * len(probes) / sum(probes)
