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

import functools
import inspect
import json
import logging
import math
import operator
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
    require_positive,
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
    MIN_PSD_SAMPLES,
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

_log = logging.getLogger(__name__)


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
    q = floor(1 / (4 f_top dt)).  It is capped at n_samples //
    MIN_PSD_SAMPLES so that psd's sample floor still holds, and is at least 1.

    Linear waves on the lattice lie below f_top, and the scenarios' tones
    near f_p.  Taking every q-th sample is plain subsampling: whatever lies
    above the new Nyquist folds back into the band.  At the default step
    (q = 5 at lambda_J = 3.17 and 3.3, q = 6 at 2.5) that is at most 1e-16 of
    a flat-top record's energy, up to 2e-6 of a Gaussian one's (its
    multi-quantum pulses reach above f_top) and ~2e-11 of a single fluxon's
    at the last cell.
    """
    f_top = derived.omega_p / (2.0 * math.pi) * math.sqrt(
        1.0 + 4.0 * derived.lambda_j**2
    )
    q = math.floor(1.0 / (4.0 * f_top * dt))
    return max(1, min(q, n_samples // MIN_PSD_SAMPLES))


# A train run first integrates TAIL_PERIODS plasma periods past its drive,
# and _simulate_settled doubles that tail up to MAX_EXTENSIONS times (to
# 2048 periods) until the energy left stored in the line is at most SETTLED
# of the injected forward energy.  Every benchmark workload point meets that
# at the first tail (the worst residual there is 1.3e-13, on the efficiency
# map), and its observables stay within TestSettleBudget's bounds
# (tests/test_acceptance.py) of those of a first tail as long as the window.
TAIL_PERIODS = 16.0
MAX_EXTENSIONS = 7
SETTLED = 1e-12
# A train's spectrum is read over exactly its drive plus WINDOW_PERIODS
# plasma periods, however far its record settled: a record shorter than
# that is zero-extended to it.  A shorter window widens the FWHM's spread
# over the integration step past criterion 8g's 1e-5: 2.3e-5 on the
# Table-1 flat-top 3 uA row at 20 periods.
WINDOW_PERIODS = 30.0
# The longest record a scenario point may ask simulate for, in integrator
# steps: phi and v of an n = 5 line take ~8 GB at this length.
MAX_RECORD_STEPS = 10**8


def _require_record(t_end: float, t_plasma: float, dt_divisor: int) -> float:
    """Refuse a point whose longest horizon t_end, integrated at
    t_plasma / dt_divisor a step, would exceed MAX_RECORD_STEPS; returns
    the horizon's step count."""
    steps = t_end / t_plasma * dt_divisor
    if steps > MAX_RECORD_STEPS:
        raise ScenarioError(
            f"the run's record could reach {steps:.3g} integrator steps, "
            f"above the limit of {MAX_RECORD_STEPS:.0e}")
    return steps


def _simulate_settled(
    circuit: CircuitParams, train: PulseTrain, t_end: float, dt: float
) -> tuple[Trajectory, float]:
    """``simulate(circuit, train, t_end, dt)``, its tail past the drive
    doubled until the line has settled (see TAIL_PERIODS); returns
    (trajectory, e_in > 0), e_in the injected forward energy.  Each extension
    integrates only its added tail (``simulate`` resumes its last run), and
    each horizon's t_end and residual / e_in are logged at DEBUG."""
    for extension in range(MAX_EXTENSIONS + 1):
        traj = simulate(circuit, train, t_end, dt)
        e_in = forward_energy(traj.v_node1, traj.i_in, circuit.z_in, traj.times)
        if e_in <= 0.0:
            raise AnalysisError("zero input energy; efficiency undefined")
        residual = traj.final_stored_energy()
        _log.debug("settle horizon %d: t_end %.6g s, residual %.3g of e_in",
                   extension, t_end, residual / e_in,
                   extra={"settle_extension": extension, "settle_t_end": t_end,
                          "settle_residual": residual / e_in})
        if residual <= SETTLED * e_in:
            return traj, e_in
        t_end = train.duration + (t_end - train.duration) * 2.0
    warnings.warn(
        f"stored energy residual {residual / e_in:.2e} of injected after "
        f"{MAX_EXTENSIONS} horizon extensions",
        stacklevel=2,
    )
    return traj, e_in


def _band_window(traj: Trajectory) -> tuple[np.ndarray, float]:
    """The load voltage over z_out^(1/2) that a train's spectrum is read
    from, taken every ``_band_stride`` steps, and its sample interval.  It
    spans exactly the samples ``simulate`` records to WINDOW_PERIODS plasma
    periods past the drive: the settled record's first samples, followed by
    zeros where the record stops short of the window."""
    t_window = traj.drive_end + WINDOW_PERIODS * 2.0 * math.pi / traj.derived.omega_p
    size = math.ceil(t_window / traj.dt) + 1
    q = _band_stride(traj.derived, traj.dt, size)
    band = traj.v_nodeN[:size:q] / math.sqrt(traj.circuit.z_out)
    return np.concatenate((band, np.zeros(-(-size // q) - band.size))), traj.dt * q


_signature = functools.cache(inspect.signature)


def _arguments(fn, *args, **kwargs) -> dict:
    """The arguments of the call ``fn(*args, **kwargs)`` by name, with
    ``fn``'s defaults applied."""
    bound = _signature(fn).bind(*args, **kwargs)
    bound.apply_defaults()
    return bound.arguments


def _checked_by(check):
    """Decorator: ``check`` is the runner's input check, applied to its
    arguments before anything else runs: by the runner itself, ``locals()``
    as its first statement, or by run_fluxoid_train for the train runners
    that hand it theirs.  ``runner.check(*args, **kwargs)`` applies it alone
    to a call's ``_arguments``, as validate does."""

    def register(runner):
        runner.check = lambda *args, **kw: check(_arguments(runner, *args, **kw))
        return runner

    return register


def _check_train(a: dict) -> tuple:
    """Refuse the arguments ``a`` of a train runner, the ``kwargs`` that
    run_flat_top and run_gaussian hand on to run_fluxoid_train included;
    returns the point (config, circuit, train, t_end, dt) every train
    measurement takes: the run's config, then the arguments of its first
    ``simulate`` call, which runs TAIL_PERIODS plasma periods past the drive."""
    own = {k: v for k, v in a.items() if k != "kwargs"}
    t = _arguments(run_fluxoid_train, **own, **a.get("kwargs", {}))
    check_overrides(t)
    try:
        if operator.index(t["n_pairs"]) < 1:
            raise ScenarioError(f"n_pairs must be >= 1, got {t['n_pairs']}")
    except TypeError:
        raise ScenarioError(f"n_pairs must be an integer, got {t['n_pairs']!r}") from None
    if t["drive_model"] not in ("source", "incident"):
        raise ScenarioError(f"unknown drive_model {t['drive_model']!r}")
    if t["shape"] not in ("flat_top", "gaussian"):
        raise ScenarioError(f"unknown train shape {t['shape']!r}")
    if t["sigma"] is not None and t["shape"] == "flat_top":
        raise ScenarioError("sigma applies to the gaussian shape only")
    require_positive("theta_peak", t["theta_peak"])
    # the default line length is computed from it before any circuit exists
    require_positive("lambda_j", t["lambda_j"])
    n_jtl = _jtl_length(t["lambda_j"]) if t["n_jtl"] is None else t["n_jtl"]
    circuit = solve_geometry(
        t["i_c"], t["lambda_j"], t["omega_p"], t["alpha_in"], t["alpha_out"],
        n_jtl, t["r_n"], l=t["l"], c_j=t["c_j"],
    )
    derived = derive(circuit)
    width = derived.l_j / R_SFQ if t["width"] is None else t["width"]
    sech_pulse(PHI0, width)  # refuses a width no drive pulse can have
    spacing = schedule_spacing(derived, t["spacing_multiple"])
    pulses = 2 * t["n_pairs"]
    t_plasma = 2.0 * math.pi / derived.omega_p
    # Python compares this integer count with a float exactly, so a count
    # too large for a float is refused here, before the float arithmetic
    # below; past this threshold one of the two bounds there fails anyway
    spacing_steps = spacing / t_plasma * t["dt_divisor"]
    if pulses > MAX_RECORD_STEPS * max(1.0, spacing_steps):
        raise ScenarioError(
            "n_pairs makes more pulses than a record of at most "
            f"{MAX_RECORD_STEPS:.0e} integrator steps can hold")
    # the train lasts pulses - 1 spacings plus 5 widths each side, then the
    # longer of the last settle horizon's tail and the spectrum window's
    t_tail = max(2**MAX_EXTENSIONS * TAIL_PERIODS, WINDOW_PERIODS) * t_plasma
    steps = _require_record((pulses - 1) * spacing + 10.0 * width + t_tail,
                            t_plasma, t["dt_divisor"])
    if pulses > steps:
        raise ScenarioError(
            f"the train's {pulses} pulses outnumber the {steps:.3g} integrator "
            "steps of its record")
    m = pulses - 1
    # halving the phase halves every pulse area exactly, so the solver's
    # Thevenin doubling of a source-model train samples the source EMF
    theta = 0.5 * t["theta_peak"] if t["drive_model"] == "source" else t["theta_peak"]
    if t["shape"] == "gaussian":
        envelope = PhaseEnvelope.gaussian(m, peak=theta, sigma=t["sigma"])
    else:
        envelope = PhaseEnvelope.flat_top(m, theta)
    train = compile_envelope(envelope, spacing, width, t_start=5.0 * width)
    t_end = train.duration + TAIL_PERIODS * 2.0 * math.pi / derived.omega_p
    dt = 2.0 * math.pi / derived.omega_p / t["dt_divisor"]
    config = {
        "shape": t["shape"], "i_c": t["i_c"], "omega_p": derived.omega_p,
        "lambda_j": derived.lambda_j, "n_pairs": t["n_pairs"],
        "theta_peak": t["theta_peak"], "sigma": t["sigma"],
        "alpha_in": t["alpha_in"], "alpha_out": t["alpha_out"],
        "r_n": circuit.r_n, "l": circuit.l, "c_j": circuit.c_j,
        "n_jtl": circuit.n_jtl, "width": width, "spacing": spacing,
        "spacing_multiple": t["spacing_multiple"],
        "drive_model": t["drive_model"], "dt_divisor": t["dt_divisor"],
        "seq_duration": (len(envelope.theta) + 1) * spacing,
    }
    return config, circuit, train, t_end, dt


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
    spacing_multiple: float = 1,
    drive_model: str = "source",
    n_jtl: int | None = None,
    l: float | None = None,
    c_j: float | None = None,
    dt_divisor: int = DEFAULT_DT_DIVISOR,
) -> RunResult:
    """One fluxoid-pair-train run: check, build and settle, then measure
    spectrum and power, the one spectrum at the signal band (``_band_stride``).

    ``n_pairs`` pulse pairs means 2 n_pairs alternating pulses compiled from
    2 n_pairs - 1 phase extrema, so the train is balanced.  The sech time
    constant of the drive pulses defaults to l_j / R_SFQ, the generator
    junction's, whatever the line's r_n: a full width Phi0/(i_c R_SFQ) of
    30.71 ps at 3 uA, since the sech extent above a tenth of its peak spans
    ~2 pi time constants.
    """
    return _measure_train(*_check_train(locals()))


def _measure_train(config: dict, *run) -> RunResult:
    """Settle the checked point (config, *run), ``_check_train``'s return,
    and measure spectrum and power; the run's config is the point's."""
    traj, e_in = _simulate_settled(*run)
    seq_duration = config["seq_duration"]
    spectrum = psd(*_band_window(traj))
    e_out = forward_energy(traj.v_nodeN, traj.i_out, traj.circuit.z_out, traj.times)
    power = PowerReport(
        e_in_fwd=e_in, e_out_fwd=e_out, eta=e_out / e_in,
        avg_input_power=e_in / seq_duration,
        band_power_dbm=None if spectrum.fwhm is None
        else _band_dbm(spectrum.band_energy, seq_duration),
    )
    return RunResult(config=config, f0=spectrum.f0, fwhm=spectrum.fwhm, eta=power.eta,
                     power=power, spectrum=spectrum)


@_checked_by(_check_train)
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


@_checked_by(_check_train)
def run_gaussian(
    i_c: float = 4e-6,
    omega_p: float = 2.0 * math.pi * 17.546e9,
    n_pairs: int = 41,
    shape: str = "gaussian",
    *,
    lambda_j: float = 2.50,
    alpha_in: float = GAUSSIAN_ALPHA_IN,
    theta_peak: float = GAUSSIAN_PEAK_THETA,
    **kwargs,
) -> RunResult:
    """Gaussian train: fluxoid amplitudes tracing a Gaussian envelope."""
    return run_fluxoid_train(i_c, omega_p, n_pairs, shape, lambda_j=lambda_j,
                             alpha_in=alpha_in, theta_peak=theta_peak, **kwargs)


def _check_single_fluxon(a: dict) -> list[tuple]:
    """Refuse the arguments ``a`` of run_single_fluxon; returns each point as
    (config, circuit, train, t_end, dt): the run's config, then the point's
    arguments to ``simulate``."""
    check_overrides(a)
    alphas = [float(x) for x in np.atleast_1d(a["alpha_out"])]
    if not alphas or any(not 0.05 < x <= 1.0 for x in alphas):
        raise ScenarioError(
            "alpha_out grid must be non-empty and lie within (0.05, 1.0]")
    require_positive("n_tail_periods", a["n_tail_periods"])
    # the line length and the damping resistance are computed from these
    # before any circuit exists
    for name in ("i_c", "f_plasma", "lambda_j"):
        require_positive(name, a[name])
    require_positive("damping_quality", a["damping_quality"], finite=False)
    omega_p = 2.0 * math.pi * a["f_plasma"]
    n_jtl = int(round(4 * a["lambda_j"])) if a["n_jtl"] is None else a["n_jtl"]
    r_n = _damping_r_n(a["i_c"], omega_p, a["damping_quality"])
    points = []
    for alpha in alphas:
        circuit = solve_geometry(
            a["i_c"], a["lambda_j"], omega_p, a["alpha_in"], alpha, n_jtl, r_n
        )
        derived = derive(circuit)
        width = single_fluxon_width(derived, a["v_tilde"])
        pulse = sech_pulse(PHI0, width, t_center=6.0 * width)
        train = PulseTrain(pulses=(pulse,), duration=11.0 * width)
        t_end = train.duration + a["n_tail_periods"] * 2.0 * math.pi / derived.omega_p
        dt = 2.0 * math.pi / omega_p / a["dt_divisor"]
        _require_record(t_end, 2.0 * math.pi / omega_p, a["dt_divisor"])
        # simulate records the samples dt * k, k = 0 .. max(1, ceil(t_end / dt));
        # the ring-down's first k is a rounded quotient's ceiling, corrected
        first = math.ceil(train.duration / dt)
        first += (dt * first < train.duration) - (dt * (first - 1) >= train.duration)
        ring_down = max(1, math.ceil(t_end / dt)) + 1 - first
        if ring_down < MIN_PSD_SAMPLES:
            raise ScenarioError(
                f"n_tail_periods = {a['n_tail_periods']!r} leaves {ring_down} ring-down "
                f"samples at alpha_out {alpha!r}, fewer than the {MIN_PSD_SAMPLES} "
                "a spectrum needs")
        config = {
            "alpha_out": alpha, "alpha_in": a["alpha_in"], "i_c": a["i_c"],
            "f_plasma": a["f_plasma"], "lambda_j": a["lambda_j"], "v_tilde": a["v_tilde"],
            "n_jtl": circuit.n_jtl, "r_n": circuit.r_n, "width": width,
            "damping_quality": a["damping_quality"], "dt_divisor": a["dt_divisor"],
        }
        points.append((config, circuit, train, t_end, dt))
    return points


@_checked_by(_check_single_fluxon)
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
    points = _check_single_fluxon(locals())
    runs = []
    for config, *point in points:
        traj = simulate(*point)
        fit = None
        fit_note = ""
        try:
            fit = breather_fit(traj, -1)
        except (InsufficientDataError, AnalysisError) as exc:
            fit_note = str(exc)
        ring_down = traj.v[-1][traj.times >= traj.drive_end]
        q = _band_stride(traj.derived, traj.dt, ring_down.size)
        spectrum = psd(ring_down[::q], traj.dt * q)
        runs.append(RunResult(
            config=config, f0=spectrum.f0, fwhm=spectrum.fwhm, fit=fit,
            regime=_classify_regime(traj, fit), spectrum=spectrum, notes=fit_note))
    provenance = {"scenario": "single_fluxon",
                  "alpha_out_grid": [run.config["alpha_out"] for run in runs],
                  "config": runs[0].config}
    return ScenarioReport(scenario="single_fluxon", runs=tuple(runs),
                          provenance=provenance)


def _classify_regime(traj: Trajectory, fit: BreatherFit | None) -> str:
    net_windings = traj.phi[-1, -1] / (2.0 * math.pi)
    f_p = traj.derived.omega_p / (2.0 * math.pi)
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


def _check_bandwidth_sweep(a: dict) -> list[tuple]:
    """Refuse the arguments ``a`` of run_bandwidth_sweep, each point's
    run_flat_top call included; returns each point's ``_check_train``
    result, in sweep order."""
    for n in a["n_pairs_list"]:
        if not float(n).is_integer():
            raise ScenarioError(f"n_pairs_list value {n!r} is not a whole number")
    n_list = [int(n) for n in a["n_pairs_list"]]
    if not n_list or any(y <= x for x, y in zip(n_list, n_list[1:])):
        raise ScenarioError("n_pairs_list must be non-empty and ascending")
    require_positive("f_plasma", a["f_plasma"])
    omega_p = 2.0 * math.pi * a["f_plasma"]
    return [
        _check_train(_arguments(run_flat_top, a["i_c"], omega_p, n_pairs,
                                lambda_j=a["lambda_j"], **a["kwargs"]))
        for n_pairs in n_list
    ]


@_checked_by(_check_bandwidth_sweep)
def run_bandwidth_sweep(
    n_pairs_list: Sequence[float] = (50, 100, 200, 500),
    *,
    i_c: float = 3e-6,
    f_plasma: float = 15e9,
    lambda_j: float = 3.17,
    **kwargs,
) -> ScenarioReport:
    """Flat-top FWHM vs pulse-pair count at the fixed 15 GHz circuit, each
    point the run_flat_top run of its pair count."""
    points = _check_bandwidth_sweep(locals())
    runs = [replace(_measure_train(*point), spectrum=None) for point in points]
    provenance = {"scenario": "bandwidth_sweep",
                  "n_pairs_list": [run.config["n_pairs"] for run in runs],
                  "config": runs[0].config}
    return ScenarioReport(scenario="bandwidth_sweep", runs=tuple(runs),
                          provenance=provenance)


# Efficiency-map conventions: incident fluxon trains on the input line with
# the input termination near the quarter-wave match of the loaded line
# (alpha_in alpha_out ~ 1), unshunted line junctions, and the drive width
# pinned by the generator junction R_SFQ.
MAP_ALPHA_IN = 3.5
MAP_DAMPING_QUALITY = 400.0


def _map_run(
    i_c: float, omega_p: float, alpha_in: float, quality: float, dt_divisor: int
) -> dict:
    """Keyword arguments of the protocol runner's call at map point
    (i_c, omega_p); the runner's defaults give its pair count and lambda_j."""
    return {"i_c": i_c, "omega_p": omega_p, "alpha_in": alpha_in,
            "r_n": _damping_r_n(i_c, omega_p, quality),
            "drive_model": "incident", "dt_divisor": dt_divisor}


def _map_point(config: dict, *run) -> float:
    """eta = e_out / e_in of the checked map point (config, *run), by
    run_fluxoid_train's calls, so bit for bit its ``.eta``.  The map keeps
    nothing else of a point, so it takes no spectrum."""
    traj, e_in = _simulate_settled(*run)
    return forward_energy(traj.v_nodeN, traj.i_out, traj.circuit.z_out,
                          traj.times) / e_in


def _check_efficiency_map(a: dict) -> list[tuple]:
    """Refuse the arguments ``a`` of run_efficiency_map, each grid point's
    runner call included; returns each point's ``_check_train`` result with
    the map's config of the point in place of the runner's, omega_p the
    outer loop."""
    i_c_grid = [float(x) for x in a["i_c_grid"]]
    omega_p_grid = [float(x) for x in a["omega_p_grid"]]
    if not i_c_grid or not omega_p_grid:
        raise ScenarioError("efficiency map grids must be non-empty")
    if a["protocol"] not in ("flat_top", "gaussian"):
        raise ScenarioError(f"unknown protocol {a['protocol']!r}")
    # a point's damping resistance is computed from these before its
    # runner call can be checked
    for name, grid in (("i_c_grid", i_c_grid), ("omega_p_grid", omega_p_grid)):
        for value in grid:
            require_positive(name, value)
    require_positive("damping_quality", a["damping_quality"], finite=False)
    runner = SCENARIOS[a["protocol"]]
    return [
        ({"protocol": a["protocol"], "i_c": i_c, "omega_p": omega_p,
          "alpha_in": a["alpha_in"], "damping_quality": a["damping_quality"]},
         *_check_train(_arguments(runner, **_map_run(
             i_c, omega_p, a["alpha_in"], a["damping_quality"], a["dt_divisor"])))[1:])
        for omega_p in omega_p_grid for i_c in i_c_grid
    ]


@_checked_by(_check_efficiency_map)
def run_efficiency_map(
    i_c_grid: Sequence[float] = (2e-6, 3e-6),
    omega_p_grid: Sequence[float] = (
        2.0 * math.pi * 22e9, 2.0 * math.pi * 26e9, 2.0 * math.pi * 30e9
    ),
    protocol: str = "flat_top",
    *,
    alpha_in: float = MAP_ALPHA_IN,
    damping_quality: float = MAP_DAMPING_QUALITY,
    dt_divisor: int = DEFAULT_DT_DIVISOR,
) -> ScenarioReport:
    """Energy-efficiency matrix over (i_c, omega_p) for one protocol."""
    points = _check_efficiency_map(locals())
    i_c_grid = [float(x) for x in i_c_grid]
    omega_p_grid = [float(x) for x in omega_p_grid]
    runs = tuple(RunResult(config=point[0], eta=_map_point(*point)) for point in points)
    eta = np.array([run.eta for run in runs]).reshape(
        len(omega_p_grid), len(i_c_grid)).T
    provenance = {
        "scenario": "efficiency_map", "protocol": protocol,
        "i_c_grid": i_c_grid, "omega_p_grid": omega_p_grid,
        "alpha_in": alpha_in, "damping_quality": damping_quality,
        "eta_max": float(np.nanmax(eta)),
        "eta_matrix": eta.tolist(),
    }
    return ScenarioReport(scenario="efficiency_map", runs=runs,
                          provenance=provenance)


def _check_table1(a: dict) -> list[tuple]:
    """Refuse the arguments ``a`` of run_table1, each row's runner call
    included; returns each row's ``_check_train`` result, flat-top rows
    first.  A row's omega_p is that of its junction, 1 / sqrt(l_j c_j)."""
    return [
        _check_train(_arguments(
            SCENARIOS[protocol], i_c,
            1.0 / math.sqrt(PHI0 / (2.0 * math.pi * i_c) * c_j), n_pairs,
            l=l, c_j=c_j, dt_divisor=a["dt_divisor"]))
        for protocol, rows in (("flat_top", TABLE1_FLAT_TOP),
                               ("gaussian", TABLE1_GAUSSIAN))
        for i_c, l, c_j, n_pairs, *_ in rows
    ]


def _table1_row(row, *point) -> RunResult:
    """Measure the checked ``point`` of the Table-1 ``row`` and hold it to
    the row's targets."""
    *_, f0_ghz, fwhm_mhz, p_in_nw, p_band_dbm = row
    run = _measure_train(*point)
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
    config = {**run.config, "protocol": run.config["shape"], "targets": targets,
              "checks": checks}
    return replace(
        run, config=config, spectrum=None, passed=all(checks.values()),
        notes=", ".join(k for k, ok in checks.items() if not ok),
    )


@_checked_by(_check_table1)
def run_table1(dt_divisor: int = DEFAULT_DT_DIVISOR) -> ScenarioReport:
    """All eight performance-table rows with per-row pass/fail."""
    points = _check_table1(locals())
    runs = tuple(_table1_row(row, *point) for row, point in zip(
        TABLE1_FLAT_TOP + TABLE1_GAUSSIAN, points, strict=True))
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
    sig = _signature(SCENARIOS[scenario], eval_str=True)
    params = {}
    if any(p.kind is p.VAR_KEYWORD for p in sig.parameters.values()):
        train = _signature(run_fluxoid_train, eval_str=True)
        params = {name: p.annotation for name, p in train.parameters.items()
                  if p.kind is p.KEYWORD_ONLY}
    params.update({name: p.annotation for name, p in sig.parameters.items()
                   if p.kind is not p.VAR_KEYWORD})
    return params


def check_overrides(overrides: dict) -> None:
    """Refuse the run setting every scenario shares: a dt_divisor below
    MIN_DT_DIVISOR or above MAX_RECORD_STEPS (a single plasma period would
    take more steps than a record may hold).  The divisor is compared as
    given, before any float arithmetic on it, so an integer no float can
    hold is refused here too."""
    divisor = overrides.get("dt_divisor", MIN_DT_DIVISOR)
    if divisor < MIN_DT_DIVISOR:
        raise ScenarioError(f"dt_divisor must be >= {MIN_DT_DIVISOR}, got {divisor!r}")
    if divisor > MAX_RECORD_STEPS:
        raise ScenarioError(f"dt_divisor must be <= {MAX_RECORD_STEPS}, got {divisor!r}")


def _checked_runner(scenario: str, overrides: dict):
    """The runner of ``scenario``, once the scenario id, the run setting
    (``check_overrides``) and the keys of ``overrides`` are known good: a
    key the runner takes no parameter for is refused by name, the same way
    for every scenario."""
    if scenario not in SCENARIOS:
        raise ScenarioError(
            f"unknown scenario {scenario!r}; valid ids: " + ", ".join(SCENARIO_IDS)
        )
    check_overrides(overrides)
    params = scenario_parameters(scenario)
    for key in overrides:
        if key not in params:
            raise ScenarioError(f"scenario {scenario!r} takes no parameter {key!r}")
    return SCENARIOS[scenario]


def check_scenario(scenario: str, overrides: dict) -> None:
    """Refuse, without running anything, every input that
    ``run_scenario(scenario, overrides)`` refuses before any point
    integrates, with the same exception and message."""
    _checked_runner(scenario, overrides).check(**overrides)


def run_scenario(scenario: str, overrides: dict) -> ScenarioReport:
    """Call the scenario's runner with ``overrides`` as keyword arguments.
    ``_checked_runner`` refuses the scenario id, the run setting and any
    key the runner does not take before the runner is called, and the
    runner refuses the rest of its input itself before it integrates."""
    result = _checked_runner(scenario, overrides)(**overrides)
    if isinstance(result, RunResult):
        result = ScenarioReport(scenario, (result,), {"scenario": scenario})
    return result
