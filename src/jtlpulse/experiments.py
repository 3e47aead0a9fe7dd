"""Canned scenarios reproducing the reference figures and the performance table.

Wires circuit + pulses + solver + analysis into reproducible runs.  Two port
conventions appear here, reflecting how the drive reaches the line:

* ``drive_model="incident"`` -- the pulses travel down the input transmission
  line toward the JTL (single fluxons, efficiency maps); the solver applies
  the line's Thevenin equivalent (open-circuit voltage twice the incident
  wave).
* ``drive_model="source"`` -- the pulse generator at the input port sets the
  port EMF (the performance-table trains).  An EMF V behind z_in is the
  incident wave V/2, so these run as the incident train compiled at half
  the peak phase, which halves every pulse area exactly.

Junction damping also follows the physical architecture: the pulse-train
width anchor is the shunted generator junction (R_SFQ, making the
full pulse width Phi0/(i_c R_SFQ) = 30.71 ps at 3 uA), while the line's own
junctions may be left unshunted (damping set as a multiple of the junction
characteristic impedance sqrt(l_j/c_j)).
"""

from __future__ import annotations

import inspect
import json
import math
import os
import pickle
import sys
import warnings
from collections.abc import Sequence
from dataclasses import asdict, dataclass, replace
from pathlib import Path

import numpy as np

from .circuit import (
    DEFAULT_R_N,
    PHI0,
    CircuitParams,
    DerivedParams,
    derive,
    solve_geometry,
)
from .pulses import (
    PhaseEnvelope,
    PulseTrain,
    compile_envelope,
    schedule_spacing,
    sech_pulse,
    single_fluxon_width,
)
from .solver import DEFAULT_DT_DIVISOR, MIN_DT_DIVISOR, Trajectory, simulate
from .analysis import (
    AnalysisError,
    BreatherFit,
    InsufficientDataError,
    PowerReport,
    SpectrumResult,
    _band_dbm,
    band_power_dbm,  # unused: bench/spans.py patches this name to trace it
    breather_fit,
    forward_energy,
    psd,
)

# Shunt resistance of the SFQ pulse generator junction: pins the full drive
# pulse width Phi0/(i_c R) to 30.71 ps at i_c = 3 uA.  Equals 2 pi times the
# line-junction default, so the sech time constant is l_j / R_SFQ.
R_SFQ = 2.0 * math.pi * DEFAULT_R_N


class ScenarioError(ValueError):
    """Bad scenario identifier or scenario parameters."""


@dataclass(frozen=True)
class RunResult:
    """One simulation run with its resolved configuration and observables."""

    config: dict
    f0: float | None = None
    fwhm: float | None = None
    eta: float | None = None
    power: PowerReport | None = None
    fit: BreatherFit | None = None
    regime: str | None = None
    spectrum: SpectrumResult | None = None
    passed: bool | None = None
    notes: str = ""

    def summary(self) -> dict:
        return asdict(self, dict_factory=_summary_fields)


def _summary_fields(items: list[tuple[str, object]]) -> dict:
    """asdict factory for summaries: spectra go to their own CSV files."""
    return {key: value for key, value in items if key != "spectrum"}


@dataclass(frozen=True)
class ScenarioReport:
    """All runs of one scenario plus full provenance."""

    scenario: str
    runs: tuple[RunResult, ...]
    provenance: dict

    def to_json(self) -> str:
        return json.dumps(asdict(self, dict_factory=_summary_fields), indent=2)

    def write_outputs(self, outdir) -> list[str]:
        """Write summary JSON plus per-run spectrum CSVs; returns paths."""
        outdir = Path(outdir)
        outdir.mkdir(parents=True, exist_ok=True)
        paths = []
        summary = outdir / f"{self.scenario}_summary.json"
        summary.write_text(self.to_json())
        paths.append(str(summary))
        for i, run in enumerate(self.runs):
            if run.spectrum is not None:
                p = outdir / f"{self.scenario}_run{i:03d}_spectrum.csv"
                run.spectrum.to_csv(p)
                paths.append(str(p))
        return paths


# Reference performance table: (i_c, l, c_j, n_pairs, f0 GHz, FWHM MHz,
# avg input power nW, band power dBm) for the flat-top and Gaussian rows.
TABLE1_FLAT_TOP = (
    (3e-6, 10.903e-12, 800e-15, 50, 16.991, 418.0, 1.860, -77.213),
    (4e-6, 8.177e-12, 800e-15, 50, 19.609, 482.0, 3.893, -74.472),
    (5e-6, 6.542e-12, 800e-15, 50, 21.918, 536.0, 6.475, -73.056),
    (6e-6, 5.453e-12, 800e-15, 50, 24.018, 582.0, 10.135, -71.448),
)
TABLE1_GAUSSIAN = (
    (3e-6, 17.542e-12, 1000e-15, 41, 15.191, 836.0, 36.207, -65.446),
    (4e-6, 13.159e-12, 1000e-15, 41, 17.536, 964.0, 56.605, -63.957),
    (5e-6, 10.527e-12, 1000e-15, 41, 19.609, 1073.0, 72.096, -63.308),
    (6e-6, 8.773e-12, 1000e-15, 41, 21.482, 1164.0, 97.012, -62.402),
)
TABLE1_TOLERANCES = {"f0": 0.05, "fwhm": 0.40, "p_in": 0.25, "p_band_db": 6.0}


def _require_positive(name: str, *values: float) -> None:
    """Refuse scenario input ``name`` unless every value is finite and > 0."""
    for value in values:
        if not 0.0 < value < math.inf:
            raise ScenarioError(f"{name} must be finite and positive, got {value!r}")


def _damping_r_n(i_c: float, omega_p: float, quality: float) -> float:
    """Line-junction damping resistance: ``quality`` times sqrt(l_j/c_j) of
    the junction with critical current i_c and plasma frequency omega_p."""
    l_j = PHI0 / (2.0 * math.pi * i_c)
    c_j = 1.0 / (omega_p**2 * l_j)
    return quality * math.sqrt(l_j / c_j)


def _jtl_length(lambda_j: float) -> int:
    """Line length minimizing the input impedance seen past the input port."""
    return int(min(5, max(4, round(1.66 * lambda_j))))


def _band_stride(derived: DerivedParams, dt: float, n_samples: int) -> int:
    """Stride q at which the spectrum of a record of ``n_samples`` steps of
    ``dt`` is taken.

    q is the largest stride whose Nyquist 1/(2 q dt) is at least twice the
    lattice band top f_top = f_p sqrt(1 + 4 lambda_J^2), so
    q = floor(1 / (4 f_top dt)).  It is capped at n_samples // 256 so that
    psd's 256-sample floor still holds, and is at least 1.

    Linear waves on the lattice lie below f_top, and the scenarios' tones
    near f_p.  Taking every q-th sample is plain subsampling: whatever lies
    above the new Nyquist folds back into the band.  At the default step
    (q = 7 at lambda_J = 3.17 and 3.3, q = 9 at 2.5) that is at most 1e-16 of
    a flat-top record's energy, up to 2e-6 of a Gaussian one's (its
    multi-quantum pulses reach above f_top) and ~1e-11 of a single fluxon's
    at the last cell.
    """
    f_top = derived.omega_p / (2.0 * math.pi) * math.sqrt(
        1.0 + 4.0 * derived.lambda_j**2
    )
    q = math.floor(1.0 / (4.0 * f_top * dt))
    return max(1, min(q, n_samples // 256))


def _simulate_settled(
    circuit: CircuitParams,
    train: PulseTrain,
    t_tail0: float,
    *,
    dt_divisor: int,
    max_extensions: int = 6,
) -> tuple[Trajectory, float]:
    """Run until the stored energy residual is below 1e-3 of the injected
    forward energy, doubling the tail; returns (trajectory, e_in)."""
    derived = derive(circuit)
    t_plasma = 2.0 * math.pi / derived.omega_p
    dt = t_plasma / dt_divisor
    t_end = train.duration + t_tail0
    for _ in range(max_extensions + 1):
        traj = simulate(circuit, train, t_end, dt)
        e_in = forward_energy(traj.v_node1, traj.i_in, circuit.z_in, traj.times)
        residual = traj.final_stored_energy()
        if e_in <= 0.0 or residual <= 1e-3 * e_in:
            return traj, e_in
        t_end = train.duration + (t_end - train.duration) * 2.0
    warnings.warn(
        f"stored energy residual {residual / e_in:.2e} of injected after "
        f"{max_extensions} horizon extensions",
        stacklevel=2,
    )
    return traj, e_in


def _measure_train_run(
    traj: Trajectory, e_in: float, seq_duration: float
) -> tuple[SpectrumResult, PowerReport]:
    """Spectrum and power bookkeeping for a pulse-train run injecting e_in;
    the one spectrum is taken at the signal band (``_band_stride``)."""
    if e_in <= 0.0:
        raise AnalysisError("zero input energy; efficiency undefined")
    c = traj.circuit
    q = _band_stride(traj.derived, traj.dt, traj.times.size)
    spectrum = psd(traj.v_nodeN[::q] / math.sqrt(c.z_out), traj.dt * q)
    e_out = forward_energy(traj.v_nodeN, traj.i_out, c.z_out, traj.times)
    report = PowerReport(
        e_in_fwd=e_in,
        e_out_fwd=e_out,
        eta=e_out / e_in,
        avg_input_power=e_in / seq_duration,
        band_power_dbm=None if spectrum.fwhm is None
        else _band_dbm(spectrum.band_energy, seq_duration),
    )
    return spectrum, report


def run_fluxoid_train(
    i_c: float,
    omega_p: float,
    n_pairs: int,
    shape: str = "flat_top",
    *,
    lambda_j: float = 3.17,
    theta_peak: float = math.pi,
    sigma: float | None = None,
    alpha_in: float = 5.0,
    alpha_out: float = 0.25,
    r_n: float = DEFAULT_R_N,
    width: float | None = None,
    spacing_multiple: int = 1,
    drive_model: str = "source",
    n_jtl: int | None = None,
    l: float | None = None,
    c_j: float | None = None,
    dt_divisor: int = DEFAULT_DT_DIVISOR,
) -> RunResult:
    """One fluxoid-pair-train run: build, settle, measure.

    ``n_pairs`` pulse pairs means 2 n_pairs alternating pulses compiled from
    2 n_pairs - 1 phase extrema, so the train is balanced.  The sech time
    constant of the drive pulses defaults to l_j / R_SFQ, the generator
    junction's, whatever the line's r_n: a full width Phi0/(i_c R_SFQ) of
    30.71 ps at 3 uA, since the sech extent above a tenth of its peak spans
    ~2 pi time constants.
    """
    if n_pairs < 1:
        raise ScenarioError(f"n_pairs must be >= 1, got {n_pairs}")
    if drive_model not in ("source", "incident"):
        raise ScenarioError(f"unknown drive_model {drive_model!r}")
    _require_positive("theta_peak", theta_peak)
    _require_positive("lambda_j", lambda_j)
    if n_jtl is None:
        n_jtl = _jtl_length(lambda_j)
    circuit = solve_geometry(
        i_c, lambda_j, omega_p, alpha_in, alpha_out, n_jtl, r_n, l=l, c_j=c_j
    )
    derived = derive(circuit)
    if width is None:
        width = derived.l_j / R_SFQ
    spacing = schedule_spacing(derived, spacing_multiple)
    m = 2 * n_pairs - 1
    # halving the phase halves every pulse area exactly, so the solver's
    # Thevenin doubling of a source-model train samples the source EMF
    theta = 0.5 * theta_peak if drive_model == "source" else theta_peak
    if shape == "flat_top":
        envelope = PhaseEnvelope.flat_top(m, theta)
    elif shape == "gaussian":
        envelope = PhaseEnvelope.gaussian(m, peak=theta, sigma=sigma)
    else:
        raise ScenarioError(f"unknown train shape {shape!r}")
    train = compile_envelope(envelope, spacing, width, t_start=5.0 * width)
    seq_duration = (m + 1) * spacing
    t_tail0 = 30.0 * 2.0 * math.pi / derived.omega_p
    traj, e_in = _simulate_settled(circuit, train, t_tail0, dt_divisor=dt_divisor)
    spectrum, power = _measure_train_run(traj, e_in, seq_duration)
    config = {
        "shape": shape, "i_c": i_c, "omega_p": derived.omega_p,
        "lambda_j": derived.lambda_j, "n_pairs": n_pairs,
        "theta_peak": theta_peak, "sigma": sigma, "alpha_in": alpha_in,
        "alpha_out": alpha_out, "r_n": circuit.r_n, "l": circuit.l,
        "c_j": circuit.c_j, "n_jtl": n_jtl, "width": width,
        "spacing": spacing, "spacing_multiple": spacing_multiple,
        "drive_model": drive_model, "dt_divisor": dt_divisor,
        "seq_duration": seq_duration,
    }
    return RunResult(
        config=config,
        f0=spectrum.f0,
        fwhm=spectrum.fwhm,
        eta=power.eta,
        power=power,
        spectrum=spectrum,
    )


def run_flat_top(
    i_c: float = 4e-6,
    omega_p: float = 2.0 * math.pi * 19.617e9,
    n_pairs: int = 50,
    shape: str = "flat_top",
    **kwargs,
) -> RunResult:
    """Flat-top train: uniform pi extrema, half-area end pulses."""
    return run_fluxoid_train(i_c, omega_p, n_pairs, shape, **kwargs)


# Gaussian drive conventions.  The reference states neither the envelope's
# peak flux nor the Gaussian device's input termination; the performance
# table pins only the product alpha_in * theta_peak^2 (through the input
# powers), and the band-power column then fixes the split.  Peak extrema of
# ~6.8 pi mean multi-quantum fluxoids (central pulses carry ~7 flux quanta),
# consistent with drive currents far above i_c.
GAUSSIAN_ALPHA_IN = 7.0
GAUSSIAN_PEAK_THETA = 8.0 * math.pi * math.sqrt(5.0 / GAUSSIAN_ALPHA_IN)


def run_gaussian(
    i_c: float = 4e-6,
    omega_p: float = 2.0 * math.pi * 17.546e9,
    n_pairs: int = 41,
    shape: str = "gaussian",
    **kwargs,
) -> RunResult:
    """Gaussian train: fluxoid amplitudes tracing a Gaussian envelope."""
    kwargs.setdefault("lambda_j", 2.50)
    kwargs.setdefault("alpha_in", GAUSSIAN_ALPHA_IN)
    kwargs.setdefault("theta_peak", GAUSSIAN_PEAK_THETA)
    return run_fluxoid_train(i_c, omega_p, n_pairs, shape, **kwargs)


def run_single_fluxon(
    alpha_out: Sequence[float] = (0.15, 0.2, 0.25, 0.3, 0.35),
    *,
    i_c: float = 4e-6,
    f_plasma: float = 20e9,
    lambda_j: float = 3.3,
    v_tilde: float = 0.75,
    alpha_in: float = 5.0,
    damping_quality: float = 20.0,
    n_jtl: int | None = None,
    n_tail_periods: float = 60.0,
    dt_divisor: int = DEFAULT_DT_DIVISOR,
) -> ScenarioReport:
    """Inject one fluxon and classify the boundary outcome per alpha_out.

    The line junctions are unshunted; their residual damping is modeled as
    ``damping_quality`` times the junction characteristic impedance
    sqrt(l_j/c_j).  Regimes, from the net phase winding left at the final
    cell: two windings mean the fluxon reflected as an antifluxon (boundary
    phase increased by an extra 2 pi), one winding with a near-plasma
    ring-down is a trapped breather, one winding without it is absorption,
    and zero windings mean fluxon-preserving reflection.
    """
    alphas = [float(a) for a in np.atleast_1d(alpha_out)]
    if any(not 0.05 < a <= 1.0 for a in alphas):
        raise ScenarioError("alpha_out grid must lie within (0.05, 1.0]")
    _require_positive("i_c", i_c)
    _require_positive("f_plasma", f_plasma)
    _require_positive("n_tail_periods", n_tail_periods)
    _require_positive("lambda_j", lambda_j)
    if n_jtl is None:
        n_jtl = int(round(4 * lambda_j))
    omega_p = 2.0 * math.pi * f_plasma
    r_n = _damping_r_n(i_c, omega_p, damping_quality)
    runs = []
    for a in alphas:
        circuit = solve_geometry(i_c, lambda_j, omega_p, alpha_in, a, n_jtl, r_n)
        derived = derive(circuit)
        width = single_fluxon_width(derived, v_tilde)
        pulse = sech_pulse(PHI0, width, t_center=6.0 * width)
        train = PulseTrain(pulses=(pulse,), duration=11.0 * width)
        t_end = train.duration + n_tail_periods * 2.0 * math.pi / derived.omega_p
        traj = simulate(circuit, train, t_end, 2.0 * math.pi / omega_p / dt_divisor)
        fit = None
        fit_note = ""
        try:
            fit = breather_fit(traj, -1)
        except (InsufficientDataError, AnalysisError) as exc:
            fit_note = str(exc)
        ring_down = traj.v[-1][traj.times >= traj.drive_end]
        q = _band_stride(traj.derived, traj.dt, ring_down.size)
        spectrum = psd(ring_down[::q], traj.dt * q)
        regime = _classify_regime(traj, fit, derived)
        config = {
            "alpha_out": a, "alpha_in": alpha_in, "i_c": i_c,
            "f_plasma": f_plasma, "lambda_j": lambda_j, "v_tilde": v_tilde,
            "n_jtl": n_jtl, "r_n": r_n, "width": width,
            "damping_quality": damping_quality, "dt_divisor": dt_divisor,
        }
        runs.append(
            RunResult(
                config=config, f0=spectrum.f0, fwhm=spectrum.fwhm, fit=fit,
                regime=regime, spectrum=spectrum, notes=fit_note,
            )
        )
    provenance = {"scenario": "single_fluxon", "alpha_out_grid": alphas,
                  "config": runs[0].config if runs else {}}
    return ScenarioReport(scenario="single_fluxon", runs=tuple(runs),
                          provenance=provenance)


def _classify_regime(
    traj: Trajectory, fit: BreatherFit | None, derived: DerivedParams
) -> str:
    net_windings = traj.phi[-1, -1] / (2.0 * math.pi)
    f_p = derived.omega_p / (2.0 * math.pi)
    ringing = (
        fit is not None
        and fit.n_peaks >= 4
        and 0.5 * f_p <= fit.f_osc <= 1.5 * f_p
    )
    if net_windings >= 1.5:
        return "antifluxon_reflection"
    if net_windings >= 0.5:
        return "breather" if ringing else "absorption"
    return "fluxon_reflection"


def run_bandwidth_sweep(
    n_pairs_list: Sequence[float] = (50, 100, 200, 500),
    *,
    i_c: float = 3e-6,
    f_plasma: float = 15e9,
    lambda_j: float = 3.17,
    **kwargs,
) -> ScenarioReport:
    """Flat-top FWHM vs pulse-pair count at the fixed 15 GHz circuit."""
    for n in n_pairs_list:
        if not float(n).is_integer():
            raise ScenarioError(f"n_pairs_list value {n!r} is not a whole number")
    n_list = [int(n) for n in n_pairs_list]
    if not n_list or any(b <= a for a, b in zip(n_list, n_list[1:])):
        raise ScenarioError("n_pairs_list must be non-empty and ascending")
    omega_p = 2.0 * math.pi * f_plasma
    runs = [
        replace(run_flat_top(i_c, omega_p, n_pairs, lambda_j=lambda_j, **kwargs),
                spectrum=None)
        for n_pairs in n_list
    ]
    provenance = {"scenario": "bandwidth_sweep", "n_pairs_list": n_list,
                  "config": runs[0].config}
    return ScenarioReport(scenario="bandwidth_sweep", runs=tuple(runs),
                          provenance=provenance)


# Efficiency-map conventions: incident fluxon trains on the input line with
# the input termination near the quarter-wave match of the loaded line
# (alpha_in alpha_out ~ 1), unshunted line junctions, and the drive width
# pinned by the generator junction R_SFQ.
MAP_ALPHA_IN = 3.5
MAP_DAMPING_QUALITY = 400.0


def _pool_map(fn, tasks: list[tuple], jobs: int | None) -> list:
    """``[fn(*task) for task in tasks]`` computed by up to ``jobs`` processes,
    this one included (default: one per usable core).

    With j = min(jobs, len(tasks)), this process forks j - 1 children.  Child
    k computes ``tasks[k::j]`` and sends its results back pickled through a
    pipe while this process computes ``tasks[0::j]``, so the results are the
    serial loop's, bit for bit.  An exception raised in a child re-raises
    here with its type and message, or as a RuntimeError naming both if it
    cannot be pickled; a child that ends without a result (killed by a
    signal, say) raises ChildProcessError.  On any error the children still
    running are killed; every child is reaped before this returns.  Serial
    when j <= 1 or where ``os.fork`` is missing.
    """
    if jobs is None:
        jobs = (len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
                else os.cpu_count() or 1)
    jobs = min(jobs, len(tasks))
    if jobs <= 1 or not hasattr(os, "fork"):
        return [fn(*task) for task in tasks]
    results = [None] * len(tasks)
    children = []  # (pid, read end of its pipe), in share order
    reaped = 0
    sys.stdout.flush()
    sys.stderr.flush()
    try:
        for k in range(1, jobs):
            children.append(_fork_share(fn, tasks[k::jobs], children))
        results[0::jobs] = [fn(*task) for task in tasks[0::jobs]]
        for k, (pid, fd) in enumerate(children, 1):
            with open(fd, "rb", closefd=False) as pipe:
                payload = pipe.read()
            code = os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
            reaped += 1
            if code < 0:
                import signal  # only a killed child needs it

                raise ChildProcessError(f"worker process {pid} was killed by "
                                        f"{signal.Signals(-code).name}")
            if code or not payload:
                raise ChildProcessError(f"worker process {pid} exited with "
                                        f"status {code} without a result")
            ok, value = pickle.loads(payload)
            if not ok:
                raise value
            results[k::jobs] = value
    finally:
        if reaped < len(children):
            import signal  # only an error gets here

            for pid, _ in children[reaped:]:
                os.kill(pid, signal.SIGKILL)
                os.waitpid(pid, 0)
        for _, fd in children:
            os.close(fd)
    return results


def _fork_share(
    fn, share: list[tuple], siblings: list[tuple[int, int]]
) -> tuple[int, int]:
    """Fork a child computing ``[fn(*task) for task in share]``; returns
    (pid, read end of the pipe carrying its pickled ``(ok, value)``).

    The child closes the read ends it inherits, its own and those of
    ``siblings`` (the (pid, fd) of earlier children).  It leaves by
    ``os._exit`` whatever happens, so it never returns into the caller's
    stack, and exits 0 only once its payload is written.
    """
    read_fd, write_fd = os.pipe()
    try:
        pid = os.fork()
    except OSError:
        os.close(read_fd)
        os.close(write_fd)
        raise
    if pid:
        os.close(write_fd)
        return pid, read_fd
    code = 1
    try:
        os.close(read_fd)
        for _, fd in siblings:
            os.close(fd)
        try:
            payload = pickle.dumps((True, [fn(*task) for task in share]))
        except Exception as exc:
            # the caller must be able to load whatever is sent
            try:
                payload = pickle.dumps((False, exc))
                pickle.loads(payload)
            except Exception:
                error = RuntimeError(f"{type(exc).__name__}: {exc}")
                payload = pickle.dumps((False, error))
        with open(write_fd, "wb") as pipe:
            pipe.write(payload)
        code = 0
    finally:
        try:
            sys.stdout.flush()
            sys.stderr.flush()
        finally:
            os._exit(code)


def _map_point(
    i_c: float, omega_p: float, protocol: str, alpha_in: float, quality: float,
    dt_divisor: int,
) -> float:
    # each protocol's runner defaults give its pair count and lambda_j
    return SCENARIOS[protocol](
        i_c, omega_p, alpha_in=alpha_in, r_n=_damping_r_n(i_c, omega_p, quality),
        drive_model="incident", dt_divisor=dt_divisor,
    ).eta


def run_efficiency_map(
    i_c_grid: Sequence[float] = (2e-6, 3e-6),
    omega_p_grid: Sequence[float] = (
        2.0 * math.pi * 22e9, 2.0 * math.pi * 26e9, 2.0 * math.pi * 30e9
    ),
    protocol: str = "flat_top",
    *,
    alpha_in: float = MAP_ALPHA_IN,
    damping_quality: float = MAP_DAMPING_QUALITY,
    jobs: int | None = None,
    dt_divisor: int = DEFAULT_DT_DIVISOR,
) -> ScenarioReport:
    """Energy-efficiency matrix over (i_c, omega_p) for one protocol."""
    i_c_grid = [float(x) for x in i_c_grid]
    omega_p_grid = [float(x) for x in omega_p_grid]
    if not i_c_grid or not omega_p_grid:
        raise ScenarioError("efficiency map grids must be non-empty")
    _require_positive("i_c_grid", *i_c_grid)
    _require_positive("omega_p_grid", *omega_p_grid)
    if protocol not in ("flat_top", "gaussian"):
        raise ScenarioError(f"unknown protocol {protocol!r}")
    points = [(i_c, omega_p) for omega_p in omega_p_grid for i_c in i_c_grid]
    etas = _pool_map(
        _map_point,
        [(i_c, omega_p, protocol, alpha_in, damping_quality, dt_divisor)
         for i_c, omega_p in points],
        jobs,
    )
    runs = []
    for (i_c, omega_p), value in zip(points, etas):
        config = {
            "protocol": protocol, "i_c": i_c, "omega_p": omega_p,
            "alpha_in": alpha_in, "damping_quality": damping_quality,
        }
        runs.append(RunResult(config=config, eta=value))
    eta = np.array(etas).reshape(len(omega_p_grid), len(i_c_grid)).T
    provenance = {
        "scenario": "efficiency_map", "protocol": protocol,
        "i_c_grid": i_c_grid, "omega_p_grid": omega_p_grid,
        "alpha_in": alpha_in, "damping_quality": damping_quality,
        "eta_max": float(np.nanmax(eta)),
        "eta_matrix": eta.tolist(),
    }
    return ScenarioReport(scenario="efficiency_map", runs=tuple(runs),
                          provenance=provenance)


def _table1_row(row, protocol: str, dt_divisor: int) -> RunResult:
    i_c, l, c_j, n_pairs, f0_ghz, fwhm_mhz, p_in_nw, p_band_dbm = row
    l_j = PHI0 / (2.0 * math.pi * i_c)
    omega_p = 1.0 / math.sqrt(l_j * c_j)
    run = SCENARIOS[protocol](i_c, omega_p, n_pairs, l=l, c_j=c_j,
                              dt_divisor=dt_divisor)
    tol = TABLE1_TOLERANCES
    checks = {
        "f0": abs(run.f0 / 1e9 - f0_ghz) <= tol["f0"] * f0_ghz,
        "fwhm": abs(run.fwhm / 1e6 - fwhm_mhz) <= tol["fwhm"] * fwhm_mhz,
        "p_in": abs(run.power.avg_input_power * 1e9 - p_in_nw)
        <= tol["p_in"] * p_in_nw,
        "p_band": abs(run.power.band_power_dbm - p_band_dbm)
        <= tol["p_band_db"],
    }
    targets = {"f0_ghz": f0_ghz, "fwhm_mhz": fwhm_mhz, "p_in_nw": p_in_nw,
               "p_band_dbm": p_band_dbm}
    config = {**run.config, "protocol": protocol, "targets": targets, "checks": checks}
    return replace(
        run, config=config, spectrum=None, passed=all(checks.values()),
        notes=", ".join(k for k, ok in checks.items() if not ok),
    )


def run_table1(
    jobs: int | None = None, dt_divisor: int = DEFAULT_DT_DIVISOR
) -> ScenarioReport:
    """All eight performance-table rows with per-row pass/fail, computed on
    up to ``jobs`` processes."""
    tasks = [(row, "flat_top", dt_divisor) for row in TABLE1_FLAT_TOP]
    tasks += [(row, "gaussian", dt_divisor) for row in TABLE1_GAUSSIAN]
    runs = tuple(_pool_map(_table1_row, tasks, jobs))
    provenance = {"scenario": "table1", "tolerances": TABLE1_TOLERANCES,
                  "n_rows": len(runs)}
    return ScenarioReport(scenario="table1", runs=runs, provenance=provenance)


# The one description of each scenario: id -> runner.  A runner's signature
# is the scenario's parameter list (names, types, defaults), and the CLI
# reads its config keys from it; alpha_sweep is an alias of single_fluxon.
SCENARIOS = {
    "single_fluxon": run_single_fluxon,
    "alpha_sweep": run_single_fluxon,
    "gaussian": run_gaussian,
    "flat_top": run_flat_top,
    "bandwidth_sweep": run_bandwidth_sweep,
    "efficiency_map": run_efficiency_map,
    "table1": run_table1,
}
SCENARIO_IDS = tuple(SCENARIOS)


def scenario_parameters(scenario: str) -> dict[str, object]:
    """Parameter name -> type annotation of a scenario's runner.

    A runner taking ``**kwargs`` hands them on to run_fluxoid_train, so it
    also takes that function's keyword-only parameters.
    """
    sig = inspect.signature(SCENARIOS[scenario], eval_str=True)
    params = {}
    if any(p.kind is p.VAR_KEYWORD for p in sig.parameters.values()):
        train = inspect.signature(run_fluxoid_train, eval_str=True)
        params = {name: p.annotation for name, p in train.parameters.items()
                  if p.kind is p.KEYWORD_ONLY}
    params.update({name: p.annotation for name, p in sig.parameters.items()
                   if p.kind is not p.VAR_KEYWORD})
    return params


def check_overrides(overrides: dict, jobs: int | None = None) -> None:
    """Refuse a dt_divisor below MIN_DT_DIVISOR or a jobs count below 1."""
    divisor = overrides.get("dt_divisor", MIN_DT_DIVISOR)
    if divisor < MIN_DT_DIVISOR:
        raise ScenarioError(f"dt_divisor must be >= {MIN_DT_DIVISOR}, got {divisor!r}")
    for count in (jobs, overrides.get("jobs")):
        if count is not None and count < 1:
            raise ScenarioError(f"jobs must be >= 1, got {count!r}")


def run_scenario(
    scenario: str, overrides: dict, jobs: int | None = None
) -> ScenarioReport:
    """Call the scenario's runner with ``overrides`` as keyword arguments,
    once ``check_overrides`` passes; ``jobs`` reaches the runners that take it."""
    if scenario not in SCENARIOS:
        raise ScenarioError(
            f"unknown scenario {scenario!r}; valid ids: " + ", ".join(SCENARIO_IDS)
        )
    check_overrides(overrides, jobs)
    if jobs is not None and "jobs" in scenario_parameters(scenario):
        overrides = {**overrides, "jobs": jobs}
    result = SCENARIOS[scenario](**overrides)
    if isinstance(result, RunResult):
        result = ScenarioReport(scenario, (result,), {"scenario": scenario})
    return result
