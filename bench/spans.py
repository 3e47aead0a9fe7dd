"""In-memory spans around the calls the CLI makes into each jtlpulse layer.

``Tracer.install`` replaces the public names the layers are called through
with wrappers that record one span per call (name, start, end, parent) plus
a few sizes read from the arguments and results.  ``layer_metrics`` turns
the spans of one pass into the per-layer metrics listed in BENCHMARK.json.
The wrappers run only in traced passes; untraced passes call jtlpulse as is.
Spans are only recorded in the calling process: pool workers are not
traced, so traced passes run with ``--jobs 1``.
"""

from __future__ import annotations

import functools
import inspect
import time
from dataclasses import dataclass, field


@dataclass
class Span:
    name: str
    start: float
    end: float = 0.0
    parent: int = -1
    size: dict = field(default_factory=dict)


class Tracer:
    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self._restore: list[tuple[object, str, object]] = []

    def span(self, name: str, fn, sizer=None):
        """Wrap ``fn`` so each call records a span; ``sizer(bound_args,
        result)`` returns the sizes to keep, computed after the span ends."""
        sig = inspect.signature(fn) if sizer else None

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = Span(name, 0.0, parent=self._stack[-1] if self._stack else -1)
            self.spans.append(span)
            self._stack.append(len(self.spans) - 1)
            span.start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                self._stack.pop()
            if sizer:
                bound = sig.bind(*args, **kwargs)
                bound.apply_defaults()
                span.size = sizer(bound.arguments, result)
            return result

        return wrapper

    def patch(self, owner, attr: str, name: str, sizer=None) -> None:
        original = getattr(owner, attr)
        self._restore.append((owner, attr, original))
        setattr(owner, attr, self.span(name, original, sizer))

    def install(self, jtlpulse) -> None:
        """Wrap the names experiments.py and cli.py call each layer through."""
        ex, cli = jtlpulse.experiments, jtlpulse.cli
        self.patch(cli, "load_config", "cli.load_config")
        self.patch(cli, "run_scenario", "experiments")
        if hasattr(ex, "_simulate_settled"):
            self.patch(ex, "_simulate_settled", "experiments.settle")
        self.patch(ex, "compile_envelope", "pulses.compile")
        self.patch(jtlpulse.pulses.PulseTrain, "sample", "pulses.sample",
                   lambda a, r: {"samples": int(r.size)})
        self.patch(ex, "simulate", "solver.simulate", lambda a, r: {
            "steps": int(r.times.size - 1),
            "cell_steps": int((r.times.size - 1) * r.phi.shape[0]),
            "bytes": int(r.phi.nbytes + r.v.nbytes),
        })
        fft = lambda a, r: {"fft_points": int(a["pad_factor"]) * len(a[next(iter(a))])}
        self.patch(ex, "psd", "analysis.psd", fft)
        self.patch(ex, "band_power_dbm", "analysis.band_power", fft)
        self.patch(ex, "breather_fit", "analysis.breather_fit")
        self.patch(ex, "forward_energy", "analysis.forward_energy")
        self.patch(ex.ScenarioReport, "write_outputs", "cli.write", _output_sizes)

    def uninstall(self) -> None:
        while self._restore:
            owner, attr, original = self._restore.pop()
            setattr(owner, attr, original)

    def records(self) -> list[dict]:
        return [vars(s) for s in self.spans]


def _output_sizes(args, paths) -> dict:
    rows = nbytes = 0
    for p in paths:
        with open(p, "rb") as fh:
            data = fh.read()
        nbytes += len(data)
        if p.endswith(".csv"):
            rows += data.count(b"\n") - 1  # header line
    return {"rows": rows, "bytes": nbytes}


def layer_metrics(spans: list[dict], points: int, seconds=lambda a, b: b - a) -> dict:
    """Per-layer metrics of one traced pass (see README.md for each).

    ``spans`` are ``Span`` fields as dicts; ``seconds(start, end)`` turns a
    span's interval into a duration.  A span's self time is its duration
    minus that of its children.
    """
    own = [seconds(s["start"], s["end"]) for s in spans]
    for s, d in zip(spans, list(own)):
        if s["parent"] >= 0:
            own[s["parent"]] -= d

    def self_s(*names):
        return sum(t for s, t in zip(spans, own) if s["name"] in names)

    def total(name, key):
        return sum(s["size"].get(key, 0) for s in spans if s["name"] == name)

    sims = [i for i, s in enumerate(spans) if s["name"] == "solver.simulate"]
    # a settled point returns only its last simulate call's trajectory
    last_in_settle = {
        spans[i]["parent"]: i for i in sims
        if spans[i]["parent"] >= 0
        and spans[spans[i]["parent"]]["name"] == "experiments.settle"
    }
    useful = sum(
        spans[i]["size"]["steps"] for i in sims
        if last_in_settle.get(spans[i]["parent"], i) == i
    )
    steps = total("solver.simulate", "steps")
    sim_s = self_s("solver.simulate")
    write_s = self_s("cli.write")
    rows = total("cli.write", "rows")
    return {
        "pulses.sample_s": self_s("pulses.sample"),
        "pulses.samples": total("pulses.sample", "samples"),
        "solver.simulate_calls": len(sims),
        "solver.simulate_s": sim_s,
        "solver.rk4_steps": steps,
        "solver.cell_steps_per_s": total("solver.simulate", "cell_steps") / sim_s,
        "solver.trajectory_mb": total("solver.simulate", "bytes") / 1e6,
        "experiments.points": points,
        "experiments.settle_extensions": len(sims) - points,
        "experiments.useful_step_frac": useful / steps,
        "experiments.self_s": self_s("experiments", "experiments.settle"),
        "analysis.psd_s": self_s("analysis.psd"),
        "analysis.band_power_s": self_s("analysis.band_power"),
        "analysis.fft_points": total("analysis.psd", "fft_points")
        + total("analysis.band_power", "fft_points"),
        "analysis.breather_fit_s": self_s("analysis.breather_fit"),
        "analysis.forward_energy_s": self_s("analysis.forward_energy"),
        "cli.write_s": write_s,
        "cli.rows_written": rows,
        "cli.bytes_written": total("cli.write", "bytes"),
        "cli.rows_per_s": rows / write_s,
    }
