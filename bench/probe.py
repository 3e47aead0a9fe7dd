"""Core-speed probe, pinned to one core for the length of a benchmark run.

    python3 bench/probe.py <core>

Every 20 ms it times about half a millisecond of the small-array numpy
calls the solver's RK4 step is made of.  Other tenants of a shared machine
slow a core down by up to 2x for spells of 0.1 s to minutes; the probe's
duration tracks that slowdown, and run.py divides it out of the pass
times.  Prints ``ready`` once sampling starts; on SIGTERM prints its samples
as one JSON list of ``[start, seconds]`` pairs and exits.
"""

from __future__ import annotations

import json
import os
import signal
import sys
import time

import numpy as np

PERIOD_S = 0.02


def work(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    for _ in range(60):
        d = a[1:] - a[:-1]
        x = np.zeros(a.size)
        x[:-1] = d
        x[1:] -= d
        x -= np.sin(b)
        a = a + 1e-9 * x
    return a


def main() -> int:
    os.sched_setaffinity(0, {int(sys.argv[1])})
    stop = []
    signal.signal(signal.SIGTERM, lambda *_: stop.append(True))
    a, b = np.zeros(5), np.ones(5)
    samples = []
    print("ready", flush=True)
    while not stop:
        t = time.perf_counter()
        a = work(a, b)
        samples.append((t, time.perf_counter() - t))
        time.sleep(PERIOD_S)
    json.dump(samples, sys.stdout)
    return 0


if __name__ == "__main__":
    sys.exit(main())
