"""One benchmark pass in a fresh interpreter; started by run.py.

Prints JSON lines on stdout.  ``{"event": "ready"}`` comes once jtlpulse is
imported from ``<root>/src``, the workload config is parsed and a small
first simulation has run: set-up ends there.  Then, unless
``--setup-only``, one pass of ``jtlpulse run`` runs in-process and
``{"event": "pass", ...}`` reports when it started and ended (on the
monotonic clock all processes share), its peak memory and the verdict of
the workload's checks on the summary JSON it wrote.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import math
import os
import resource
import sys
import time
import warnings
from pathlib import Path

from spans import Tracer
from workloads import WORKLOADS


def emit(**message) -> None:
    print(json.dumps(message), flush=True)


def import_jtlpulse(root: Path):
    src = (root / "src").resolve()
    sys.path.insert(0, str(src))
    import jtlpulse
    import jtlpulse.cli

    if not Path(jtlpulse.__file__).resolve().is_relative_to(src):
        raise ImportError(f"jtlpulse was imported from {jtlpulse.__file__}, not {src}")
    return jtlpulse


def warm_up(jtlpulse) -> None:
    """Pay first-call costs (lazy imports, caches, any compilation) inside
    set-up: a 300-step single-fluxon simulation and its spectrum."""
    circuit = jtlpulse.solve_geometry(4e-6, 3.3, 2.0 * math.pi * 20e9, 5.0, 0.2, 13)
    dt = 1.0 / 20e9 / 100.0
    width = 5.0 * dt
    pulse = jtlpulse.sech_pulse(jtlpulse.PHI0, width, 6.0 * width)
    train = jtlpulse.PulseTrain(pulses=(pulse,), duration=11.0 * width)
    traj = jtlpulse.simulate(circuit, train, 300 * dt, dt)
    jtlpulse.psd(traj.v[-1], traj.dt)


def peak_rss_mb() -> float:
    """Largest resident set of this process or of any child it reaped."""
    kib = max(resource.getrusage(who).ru_maxrss
              for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN))
    return kib / 1024.0


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--root", required=True, type=Path)
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--dir", required=True, type=Path)
    parser.add_argument("--jobs", type=int)
    parser.add_argument("--trace", type=Path, help="write the spans here")
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args()
    workload = WORKLOADS[args.workload]
    config = args.dir / "workload.ini"

    jtlpulse = import_jtlpulse(args.root)
    jtlpulse.cli.load_config(str(config))
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        warm_up(jtlpulse)
    emit(event="ready")
    if args.setup_only:
        return 0

    out = args.dir / f"out-{os.getpid()}"
    argv = ["run", "--config", str(config), "--out", str(out)]
    if args.jobs is not None:
        argv += ["--jobs", str(args.jobs)]
    tracer = Tracer() if args.trace else None
    cli_main = jtlpulse.cli.main
    if tracer:
        tracer.install(jtlpulse)
        cli_main = tracer.span("cli", cli_main)
    with open(os.devnull, "w") as null, contextlib.redirect_stdout(null):
        t0 = time.perf_counter()
        rc = cli_main(argv)
        t1 = time.perf_counter()
    rss = peak_rss_mb()

    expected = len(workload.check({"runs": []}))
    verdicts, wellformed = None, True
    if rc == 0:
        try:
            summary = json.loads((out / f"{args.workload}_summary.json").read_text())
            wellformed = len(summary["runs"]) == expected
            verdicts = workload.check(summary)
        except (OSError, ValueError, KeyError, TypeError) as exc:
            print(f"{args.workload}: unreadable summary: {exc}", file=sys.stderr)
            wellformed = False
    if verdicts is None:
        verdicts = [("every point", f"no usable summary (exit code {rc})")] * expected
    failures = [f"{label}: {why}" for label, why in verdicts if why]
    for line in failures:
        print(f"{args.workload}: FAILED {line}", file=sys.stderr)

    message = {"event": "pass", "start": t0, "end": t1, "peak_rss_mb": rss,
               "attempted": len(verdicts), "failed": len(failures),
               "wellformed": wellformed}
    if tracer:
        tracer.uninstall()
        message["spans"] = tracer.records()
        args.trace.write_text(json.dumps(message["spans"]))
    emit(**message)
    return 0


if __name__ == "__main__":
    sys.exit(main())
