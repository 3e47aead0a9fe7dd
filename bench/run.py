#!/usr/bin/env python3
"""Benchmark of jtlpulse, driven the way users drive it: ``jtlpulse run``.

    python3 bench/run.py --workload table1 --seconds 25 --trace 0
    python3 bench/run.py                  # every workload, one after another

Each pass of a workload runs in a fresh interpreter (worker.py), which
imports jtlpulse from ``src/`` of this checkout, calls
``jtlpulse.cli.main(["run", ...])`` on a generated config and checks the
summary JSON it writes.  Passes repeat until ``--seconds`` is used up.

Times are taken on a shared machine whose cores other tenants slow down by
up to 2x.  A probe pinned to each core (probe.py) measures that slowdown
every 20 ms, this script notes which core the worker runs on every 10 ms,
and each time is reported as the seconds it would have taken on an
unslowed core (see README.md).

With ``--trace 0`` the result is the end-to-end metrics: ``wall_s``
(median over passes), ``setup_s`` (median over nine set-up-only fresh
interpreters and those of the passes) and ``peak_rss_mb`` (median over
passes of the largest resident set of the worker or its pool processes).
With ``--trace 1`` untraced and traced passes alternate and the result is
the per-layer metrics, with the tracing overhead.  The last line printed is
one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``.  The workloads are fully deterministic; ``--seed`` is accepted
and changes nothing.
"""

from __future__ import annotations

import argparse
import bisect
import json
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

from spans import layer_metrics
from workloads import WORKLOADS

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
RUNS = BENCH / "runs"
SETUP_SAMPLES = 9
SAMPLE_PERIOD_S = 0.01
MAX_PROBED_CORES = 8
# The probe's duration on an unslowed core of the 2-core Xeon machine the
# reference figures come from (fastest of ~2000 samples per run: 0.25-0.28
# ms).  A constant rather than each run's own fastest sample, which varies
# by +-5% from run to run; on other hardware it rescales every time alike.
PROBE_UNSLOWED_S = 0.26e-3
WORKER_TIMEOUT_S = 150.0
# Single-threaded BLAS/OpenMP: the solver works on 4-13 cell arrays, and
# idle library thread pools only add jitter on a small shared machine.
THREADS_ENV = {k: "1" for k in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")}

END_TO_END_UNITS = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}
LAYER_UNITS = {
    "pulses.sample_s": "s", "pulses.samples": "count",
    "solver.simulate_calls": "count", "solver.simulate_s": "s",
    "solver.rk4_steps": "count", "solver.cell_steps_per_s": "1/s",
    "solver.trajectory_mb": "MB",
    "experiments.points": "count", "experiments.settle_extensions": "count",
    "experiments.useful_step_frac": "ratio", "experiments.self_s": "s",
    "analysis.psd_s": "s", "analysis.band_power_s": "s",
    "analysis.fft_points": "count", "analysis.breather_fit_s": "s",
    "analysis.forward_energy_s": "s",
    "cli.write_s": "s", "cli.rows_written": "count", "cli.bytes_written": "bytes",
    "cli.rows_per_s": "1/s",
    "trace.overhead_s": "s",
}


def nproc() -> int:
    return len(os.sched_getaffinity(0))


def python(*args: str) -> subprocess.Popen:
    return subprocess.Popen([sys.executable, *args], stdout=subprocess.PIPE, text=True,
                            env={**os.environ, **THREADS_ENV})


class CoreSpeed:
    """One probe.py per core for the length of a run.  After ``stop``,
    ``slowdown(core, t)`` is the probe's duration near time t over
    PROBE_UNSLOWED_S."""

    def __init__(self) -> None:
        self.cores = sorted(os.sched_getaffinity(0))[:MAX_PROBED_CORES]
        self.procs = [python(str(BENCH / "probe.py"), str(c)) for c in self.cores]
        for proc in self.procs:
            proc.stdout.readline()
        self.series: dict[int, tuple[list[float], list[float]]] = {}

    def stop(self) -> None:
        samples = {}
        for core, proc in zip(self.cores, self.procs):
            proc.terminate()
            samples[core] = json.loads(proc.stdout.read() or "[]")
            proc.wait()
        self.procs = []
        self.series = {c: ([t for t, _ in s], [d / PROBE_UNSLOWED_S for _, d in s])
                       for c, s in samples.items() if s}
        factors = [f for _, fs in self.series.values() for f in fs]
        print(f"core slowdown during the run: median {statistics.median(factors):.2f},"
              f" fastest {min(factors):.2f}", file=sys.stderr)

    def slowdown(self, core: int | None, t: float) -> float:
        if core not in self.series:
            return statistics.mean(self.slowdown(c, t) for c in self.series)
        times, factors = self.series[core]
        i = bisect.bisect(times, t)
        return statistics.median(factors[max(0, i - 2):i + 1])


class Run:
    """Worker processes of one workload, sharing one scratch directory, and
    the record of which core each worker was running on."""

    def __init__(self, name: str) -> None:
        self.workload = WORKLOADS[name]
        self.dir = RUNS / f"{name}-{os.getpid()}"
        self.dir.mkdir(parents=True, exist_ok=True)
        (self.dir / "workload.ini").write_text(self.workload.ini)
        self.setups: list[tuple[float, float]] = []        # (spawned, ready)
        self.passes: list[dict] = []
        self.on_core: list[tuple[float, int | None]] = []  # (time, core or None)
        self.speed = CoreSpeed()

    def worker(self, *, jobs: int | None = None, traced: bool = False,
               setup_only: bool = False) -> None:
        """Start one worker, follow it to the end and keep its pass."""
        name = self.workload.name
        args = [str(BENCH / "worker.py"), "--root", str(ROOT), "--workload", name,
                "--dir", str(self.dir)]
        if jobs is not None:
            args += ["--jobs", str(jobs)]
        if traced:
            args += ["--trace", str(RUNS / f"{name}.trace.json")]
        if setup_only:
            args.append("--setup-only")
        message = None
        spawned = time.perf_counter()
        with python(*args) as proc:
            done = threading.Event()
            follower = threading.Thread(target=self._follow, args=(proc.pid, done))
            follower.start()
            try:
                for line in proc.stdout:
                    event = json.loads(line).get("event") if line.startswith("{") else None
                    if event == "ready":
                        self.setups.append((spawned, time.perf_counter()))
                    elif event == "pass":
                        message = json.loads(line)
                proc.wait(timeout=WORKER_TIMEOUT_S)
            finally:
                done.set()
                follower.join()
                if proc.poll() is None:
                    proc.kill()
                    proc.wait()
        if proc.returncode != 0:
            raise RuntimeError(f"{name} worker exited with {proc.returncode}")
        if not setup_only:
            if message is None:
                raise RuntimeError(f"{name} worker reported no pass")
            message["traced"] = traced
            self.passes.append(message)

    def _follow(self, pid: int, done: threading.Event) -> None:
        """Every 10 ms, note the core the worker is running on (None while
        it sleeps, e.g. waiting for its pool processes)."""
        while not done.is_set():
            try:
                with open(f"/proc/{pid}/stat") as fh:
                    fields = fh.read().rsplit(")", 1)[1].split()
            except OSError:
                break
            core = int(fields[36]) if fields[0] == "R" else None
            self.on_core.append((time.perf_counter(), core))
            done.wait(SAMPLE_PERIOD_S)

    def seconds(self, start: float, end: float) -> float:
        """Time from start to end on an unslowed core: each 10 ms slice over
        the slowdown of the core the worker was on, or of the mean core
        while it was not running."""
        marks = [t for t, _ in self.on_core]
        i = bisect.bisect(marks, start) - 1
        total, t = 0.0, start
        while t < end:
            core = self.on_core[i][1] if i >= 0 else None
            stop = min(marks[i + 1], end) if i + 1 < len(marks) else end
            total += (stop - t) / self.speed.slowdown(core, t)
            t, i = stop, i + 1
        return total

    def close(self) -> None:
        if self.speed.procs:
            self.speed.stop()
        shutil.rmtree(self.dir, ignore_errors=True)

    def report(self, trace: bool) -> dict[str, float]:
        self.speed.stop()
        for p in self.passes:
            p["wall_s"] = self.seconds(p["start"], p["end"])
            print(f"{self.workload.name} pass{' traced' if p['traced'] else ''}:"
                  f" {p['end'] - p['start']:.3f} s measured, {p['wall_s']:.3f} s unslowed",
                  file=sys.stderr)
        return self.layer_metrics() if trace else self.end_to_end()

    def end_to_end(self) -> dict[str, float]:
        return {
            "wall_s": statistics.median(p["wall_s"] for p in self.passes),
            "setup_s": statistics.median(self.seconds(a, b) for a, b in self.setups),
            "peak_rss_mb": statistics.median(p["peak_rss_mb"] for p in self.passes),
        }

    def layer_metrics(self) -> dict[str, float]:
        traced = [p for p in self.passes if p["traced"]]
        plain = statistics.median(p["wall_s"] for p in self.passes if not p["traced"])
        with_spans = statistics.median(p["wall_s"] for p in traced)
        per_pass = [layer_metrics(p["spans"], p["attempted"], self.seconds) for p in traced]
        layers = {key: statistics.median_low(m[key] for m in per_pass) for key in per_pass[0]}
        layers["trace.overhead_s"] = with_spans - plain
        return layers

    def counts(self) -> tuple[bool, int, int]:
        correct = all(p["wellformed"] for p in self.passes)
        return (correct, sum(p["attempted"] for p in self.passes),
                sum(p["failed"] for p in self.passes))


def measure(run: Run, seconds: float, trace: bool) -> None:
    """Untraced runs start with nine set-up-only workers, then repeat passes;
    traced runs alternate untraced and traced passes, one process each (pool
    workers are not traced).  No pass starts that would end after
    ``seconds`` if it took as long as the shortest so far."""
    jobs = (1 if trace else nproc()) if run.workload.parallel else None
    deadline = time.perf_counter() + seconds
    for _ in range(0 if trace else SETUP_SAMPLES):
        run.worker(setup_only=True)
    shortest = float("inf")
    while True:
        t0 = time.perf_counter()
        run.worker(jobs=jobs)
        if trace:
            run.worker(jobs=jobs, traced=True)
        shortest = min(shortest, time.perf_counter() - t0)
        if time.perf_counter() + shortest > deadline:
            break


def run_workload(name: str, seconds: float, trace: bool) -> dict:
    run = Run(name)
    try:
        measure(run, seconds, trace)
        metrics = run.report(trace)
    finally:
        run.close()
    correct, attempted, failed = run.counts()
    units = LAYER_UNITS if trace else END_TO_END_UNITS
    return {
        "correct": correct, "attempted": attempted, "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", default="all", choices=["all", *WORKLOADS])
    parser.add_argument("--seed", type=int, default=0,
                        help="accepted and ignored: the workloads use no randomness")
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "jtlpulse" / "cli.py").is_file():
        print(f"no jtlpulse sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    results = {}
    for name in names:
        result = results[name] = run_workload(name, args.seconds, bool(args.trace))
        print(f"{name}: attempted {result['attempted']} failed {result['failed']}"
              f" correct {result['correct']}")
        for key, m in result["metrics"].items():
            print(f"  {key} = {m['value']:.6g} {m['unit']}")
    if len(results) == 1:
        final = results[names[0]]
    else:
        final = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{n}.{k}": m for n, r in results.items()
                        for k, m in r["metrics"].items()},
        }
    print(json.dumps(final))
    return 0


if __name__ == "__main__":
    sys.exit(main())
