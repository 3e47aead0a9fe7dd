"""Acceptance suite: every headline result at its stated tolerance.

Each test prints one [PASS]/[FAIL] line (run with -s to see them) and then
asserts, so the suite doubles as a human-readable scorecard.
"""

import math

import numpy as np
import pytest

from jtlpulse import experiments, solver
from jtlpulse.analysis import energy_audit, esd, psd
from jtlpulse.circuit import PHI0, CircuitParams, derive, solve_geometry
from jtlpulse.experiments import (
    MAP_ALPHA_IN,
    MAP_DAMPING_QUALITY,
    SCENARIOS,
    TABLE1_FLAT_TOP,
    TABLE1_GAUSSIAN,
    run_bandwidth_sweep,
    run_efficiency_map,
    run_flat_top,
    run_single_fluxon,
    run_table1,
    _band_stride,
    _map_point,
    _map_run,
    _table1_row,
)
from jtlpulse.pulses import sech_pulse
from jtlpulse.solver import DEFAULT_DT_DIVISOR, simulate


def _report(criterion: str, ok: bool, detail: str) -> None:
    print(f"[{'PASS' if ok else 'FAIL'}] {criterion}: {detail}")


def test_criterion_1_parameter_derivation():
    """Derived lambda_J and plasma frequency match every table row to 1%."""
    rows = [(r, 3.17) for r in TABLE1_FLAT_TOP] + [
        (r, 2.50) for r in TABLE1_GAUSSIAN
    ]
    worst = 0.0
    for (i_c, l, c_j, _n, f0_ghz, *_), lam_target in rows:
        params = CircuitParams(i_c=i_c, c_j=c_j, l=l, z_in=1.0, z_out=10.0)
        d = derive(params)
        lam_err = abs(d.lambda_j - lam_target) / lam_target
        f_err = abs(d.omega_p / (2 * math.pi) / 1e9 - f0_ghz) / f0_ghz
        worst = max(worst, lam_err, f_err)
    ok = worst < 0.01
    _report("criterion 1 (parameter derivation)", ok,
            f"worst relative error {worst:.2e} (tolerance 1e-2)")
    assert ok


def test_criterion_2_breather_formation():
    """Reference single-fluxon config rings >= 4 peaks near 20 GHz; a
    matched load absorbs without ring-down."""
    breather = run_single_fluxon(0.2).runs[0]
    matched = run_single_fluxon(1.0).runs[0]
    ok = (
        breather.regime == "breather"
        and breather.fit is not None
        and breather.fit.n_peaks >= 4
        and abs(breather.fit.f_osc - 20e9) / 20e9 <= 0.15
        and matched.regime == "absorption"
    )
    detail = (
        f"alpha 0.2: {breather.fit.n_peaks} peaks, "
        f"f_osc = {breather.fit.f_osc / 1e9:.2f} GHz (within 15% of 20); "
        f"alpha 1.0 regime = {matched.regime}"
    )
    _report("criterion 2 (breather formation)", ok, detail)
    assert ok


def test_criterion_3_resonance_shift():
    """Spectral peak rises strictly with alpha_out at 15 GHz."""
    alphas = [0.15, 0.2, 0.25, 0.3, 0.35]
    report = run_single_fluxon(alphas, f_plasma=15e9)
    f0s = [r.f0 for r in report.runs]
    ok = all(f0 is not None for f0 in f0s) and all(
        b > a for a, b in zip(f0s, f0s[1:])
    )
    _report("criterion 3 (resonance shift)", ok,
            "f0 = " + ", ".join(f"{f / 1e9:.3f}" for f in f0s) + " GHz")
    assert ok


def _check_table_rows(runs):
    lines = []
    all_ok = True
    for run in runs:
        t = run.config["targets"]
        checks = run.config["checks"]
        all_ok &= run.passed
        lines.append(
            f"{run.config['protocol']} {run.config['i_c'] * 1e6:.0f} uA: "
            f"f0 {run.f0 / 1e9:.3f}/{t['f0_ghz']:.3f} GHz "
            f"fwhm {run.fwhm / 1e6:.0f}/{t['fwhm_mhz']:.0f} MHz "
            f"Pin {run.power.avg_input_power * 1e9:.3f}/{t['p_in_nw']:.3f} nW "
            f"Pband {run.power.band_power_dbm:.2f}/{t['p_band_dbm']:.2f} dBm "
            + ("ok" if run.passed else f"FAIL({run.notes})")
        )
    return all_ok, lines


@pytest.fixture(scope="module")
def table1_report():
    return run_table1()


def test_criterion_4_flat_top_table(table1_report):
    """Flat-top rows: f0 +-5%, FWHM +-40%, input power +-25%, band +-6 dB."""
    runs = [r for r in table1_report.runs if r.config["protocol"] == "flat_top"]
    ok, lines = _check_table_rows(runs)
    _report("criterion 4 (flat-top table)", ok, "")
    for line in lines:
        print("    " + line)
    assert ok


def test_criterion_5_gaussian_table(table1_report):
    """Gaussian rows at the same tolerances as the flat-top rows."""
    runs = [r for r in table1_report.runs if r.config["protocol"] == "gaussian"]
    ok, lines = _check_table_rows(runs)
    _report("criterion 5 (gaussian table)", ok, "")
    for line in lines:
        print("    " + line)
    assert ok


def test_criterion_6_bandwidth_narrowing():
    """FWHM falls strictly with pair count; 500 pairs <= 100 MHz; 50 pairs
    within +-40% of 365 MHz."""
    report = run_bandwidth_sweep([50, 100, 200, 500])
    fwhm = [r.fwhm for r in report.runs]
    decreasing = all(b < a for a, b in zip(fwhm, fwhm[1:]))
    ok = (
        decreasing
        and fwhm[-1] <= 100e6
        and abs(fwhm[0] - 365e6) <= 0.40 * 365e6
    )
    _report(
        "criterion 6 (bandwidth narrowing)", ok,
        "FWHM = " + ", ".join(f"{f / 1e6:.1f}" for f in fwhm)
        + " MHz for 50/100/200/500 pairs",
    )
    assert ok


def test_criterion_7_efficiency_maps():
    """Max eta >= 0.90 for both protocols; flat-top eta non-decreasing in
    i_c at fixed omega_p over the tested grid."""
    omega_grid = [2 * math.pi * f for f in (22e9, 26e9, 30e9)]
    flat = run_efficiency_map([2e-6, 3e-6], omega_grid, "flat_top")
    gauss = run_efficiency_map([2e-6, 3e-6, 4e-6], omega_grid, "gaussian")
    eta_flat = np.array(flat.provenance["eta_matrix"])
    eta_gauss = np.array(gauss.provenance["eta_matrix"])
    rows_monotone = bool(np.all(np.diff(eta_flat, axis=0) >= 0.0))
    smallest_ic_ok = bool(np.all(eta_gauss[0] >= 0.85))
    ok = (
        eta_flat.max() >= 0.90
        and eta_gauss.max() >= 0.90
        and rows_monotone
        and smallest_ic_ok
    )
    _report(
        "criterion 7 (efficiency maps)", ok,
        f"flat-top max {eta_flat.max():.3f}, gaussian max {eta_gauss.max():.3f}, "
        f"rows non-decreasing in i_c: {rows_monotone}",
    )
    assert ok


class TestCriterion8Properties:
    """Model-independent property suite at tight tolerances."""

    def test_lossless_energy_conservation(self):
        c = CircuitParams(i_c=4e-6, c_j=770e-15, l=7.56e-12, z_in=math.inf,
                          z_out=math.inf, r_n=math.inf, n_jtl=13)
        bump = 0.3 * np.exp(-0.5 * (np.arange(13) - 6.0) ** 2 / 2.0**2)
        traj = simulate(c, None, 5e-9, initial_phi=bump)
        e = traj.stored_energy()
        drift = float(np.max(np.abs(e - e[0])) / e[0])
        ok = drift < 1e-3
        _report("criterion 8a (lossless conservation)", ok,
                f"max drift {drift:.2e} over 5 ns (tolerance 1e-3)")
        assert ok

    def test_dispersion_relation(self):
        from jtlpulse.solver import dispersion_check

        c = solve_geometry(4e-6, 3.17, 2 * math.pi * 15e9, 5.0, 0.25, 12)
        worst = 0.0
        # modes of the 12-cell open chain, up to its top one, 11 pi / 12
        for mode in (2, 4, 6, 8, 11):
            k = math.pi * mode / 12
            d = derive(c)
            predicted = d.omega_p * math.sqrt(
                1 + 4 * d.lambda_j**2 * math.sin(k / 2) ** 2
            ) / (2 * math.pi)
            measured = dispersion_check(c, k)
            worst = max(worst, abs(measured - predicted) / predicted)
        ok = worst < 5e-3
        _report("criterion 8b (dispersion relation)", ok,
                f"worst relative error {worst:.2e} at 5 wavenumbers")
        assert ok

    def test_sech_flux_quantization(self):
        p = sech_pulse(PHI0, 30.71e-12)
        t = p.width * np.linspace(-26, 26, 26 * 2 * 400 + 1)
        flux = np.trapezoid(p.voltage(t), t)
        err = abs(flux - PHI0) / PHI0
        ok = err < 1e-6
        _report("criterion 8c (flux quantization)", ok,
                f"quadrature error {err:.2e}")
        assert ok

    def test_dt_halving_convergence(self):
        base = run_flat_top(3e-6, 2 * math.pi * 15e9, 200, dt_divisor=200)
        fine = run_flat_top(3e-6, 2 * math.pi * 15e9, 200, dt_divisor=400)
        df0 = abs(base.f0 - fine.f0) / fine.f0
        deta = abs(base.eta - fine.eta) / fine.eta
        ok = df0 < 1e-5 and deta < 1e-3
        _report("criterion 8d (dt-halving convergence)", ok,
                f"df0 {df0:.2e} (tolerance 1e-5), deta {deta:.2e} (tolerance 1e-3)")
        assert ok

    @pytest.mark.parametrize(
        "protocol, row",
        [("flat_top", TABLE1_FLAT_TOP[0]), ("gaussian", TABLE1_GAUSSIAN[3])],
        ids=["flat_top_3uA", "gaussian_6uA"],
    )
    def test_spectral_observables_converge_in_dt(self, protocol, row):
        # f0, FWHM and band power are read off the padded bin grid by
        # interpolation, so they follow the record, not where the grid falls
        runs = []
        for divisor in (100, 200, 400, 800):
            solver.forget_last_run()
            runs.append(_table1_row(row, protocol, divisor))
        f0s = [r.f0 for r in runs]
        fwhms = [r.fwhm for r in runs]
        bands = [r.power.band_power_dbm for r in runs]
        df0 = (max(f0s) - min(f0s)) / min(f0s)
        dfwhm = (max(fwhms) - min(fwhms)) / min(fwhms)
        dband = max(bands) - min(bands)
        ok = df0 < 1e-5 and dfwhm < 1e-5 and dband < 1e-3
        _report(f"criterion 8g (spectral convergence, {protocol} {row[0] * 1e6:g} uA)",
                ok, f"dt_divisor 100-800: f0 spread {df0:.1e}, FWHM {dfwhm:.1e} "
                f"(tolerance 1e-5), band power {dband:.1e} dB (tolerance 1e-3)")
        assert ok

    def test_parseval(self):
        rng = np.random.default_rng(11)
        x = rng.normal(size=4096)
        dt = 1.0e-12
        freqs, density = esd(x, dt, pad_factor=8)
        spectral = float(np.sum(density) * (freqs[1] - freqs[0]))
        time_domain = float(np.sum(x**2) * dt)
        err = abs(spectral - time_domain) / time_domain
        ok = err < 5e-3
        _report("criterion 8e (Parseval)", ok, f"relative error {err:.2e}")
        assert ok

    def test_energy_audit_closure(self):
        c = solve_geometry(4e-6, 3.3, 2 * math.pi * 20e9, 5.0, 0.2, 13,
                           r_n=200.0)
        d = derive(c)
        from jtlpulse.pulses import PulseTrain, single_fluxon_width

        width = single_fluxon_width(d, 0.75)
        train = PulseTrain(
            pulses=(sech_pulse(PHI0, width, 6 * width),), duration=11 * width
        )
        traj = simulate(c, train, train.duration + 60 * 2 * math.pi / d.omega_p)
        audit = energy_audit(traj)
        ok = audit["closure_rel"] < 0.01
        _report("criterion 8f (energy audit)", ok,
                f"closure error {audit['closure_rel']:.2e} (tolerance 1e-2)")
        assert ok


# The integration step's error budget: the largest error each observable
# may have at DEFAULT_DT_DIVISOR against STEP_REFERENCE, relative unless
# marked.  The bounds were fixed before the default step was chosen, and
# the default is the coarsest step that meets all of them; any step change
# must pass them.  Bounds may be tightened, never widened.
STEP_REFERENCE = 800
STEP_BUDGET = {
    "f0": 1e-5,                # criterion 8g's tolerance
    "fwhm": 1e-5,
    "sweep_fwhm": 1e-4,        # the 50-pair point sits on its grid floor
    "eta": 1e-4,               # absolute; the abstract resolves 1e-2
    "p_in": 1e-6,
    "band_power_db": 1e-3,     # absolute, dB
    "closure_rel": 2.5e-4,     # the default run's own; 4x under 1e-3
    "f_osc": 1e-4,
    # single_fluxon's ring-down spectrum: its drift is the grid's, not the
    # integrator's (test_single_fluxon_spectral_drift_is_the_grid), and
    # over every dt_divisor from 100 to 400 it reaches 8.6e-4 and 3.0e-3
    "fluxon_f0": 1e-3,
    "fluxon_fwhm": 4e-3,
}


def _rel(value, reference):
    return abs(value - reference) / abs(reference)


class TestStepBudget:
    """Every headline observable at the default step against dt_divisor
    800, on criterion 8g's Table-1 rows and on the points of the other
    workloads where the errors are largest; the bounds are STEP_BUDGET's."""

    @staticmethod
    def _train_errors(point, monkeypatch) -> dict:
        trajs = []
        simulate = experiments.simulate

        def recording(*args, **kwargs):
            trajs.append(simulate(*args, **kwargs))
            return trajs[-1]

        monkeypatch.setattr(experiments, "simulate", recording)
        runs = []
        for divisor in (DEFAULT_DT_DIVISOR, STEP_REFERENCE):
            solver.forget_last_run()
            runs.append(point(divisor))
        run, ref = runs
        return {
            "f0": _rel(run.f0, ref.f0),
            "fwhm": _rel(run.fwhm, ref.fwhm),
            "eta": abs(run.eta - ref.eta),
            "p_in": _rel(run.power.avg_input_power, ref.power.avg_input_power),
            "band_power_db": abs(run.power.band_power_dbm - ref.power.band_power_dbm),
            "closure_rel": energy_audit(trajs[0])["closure_rel"],
        }

    @staticmethod
    def _check(label, errors, bounds, same=True):
        ok = same and all(errors[k] <= bounds[k] for k in errors)
        _report(f"step budget ({label}, dt_divisor {DEFAULT_DT_DIVISOR} vs "
                f"{STEP_REFERENCE})", ok,
                ", ".join(f"{k} {errors[k]:.1e}/{bounds[k]:g}" for k in errors))
        assert ok

    @pytest.mark.parametrize(
        "protocol, row",
        [("flat_top", TABLE1_FLAT_TOP[0]), ("gaussian", TABLE1_GAUSSIAN[3])],
        ids=["flat_top_3uA", "gaussian_6uA"],
    )
    def test_table1_row(self, monkeypatch, protocol, row):
        errors = self._train_errors(
            lambda divisor: _table1_row(row, protocol, divisor), monkeypatch)
        self._check(f"table1 {protocol} {row[0] * 1e6:g} uA", errors, STEP_BUDGET)

    def test_bandwidth_sweep_50_pairs(self, monkeypatch):
        errors = self._train_errors(
            lambda divisor: run_bandwidth_sweep([50], dt_divisor=divisor).runs[0],
            monkeypatch)
        self._check("bandwidth_sweep 50 pairs", errors,
                    {**STEP_BUDGET, "fwhm": STEP_BUDGET["sweep_fwhm"]})

    def test_gaussian_map_point(self):
        # the workload's map point with the largest eta error
        def eta(divisor):
            solver.forget_last_run()
            kwargs = _map_run(4e-6, 2 * math.pi * 10e9, MAP_ALPHA_IN,
                              MAP_DAMPING_QUALITY, divisor)
            return _map_point(SCENARIOS["gaussian"].check(**kwargs), divisor)

        errors = {"eta": abs(eta(DEFAULT_DT_DIVISOR) - eta(STEP_REFERENCE))}
        self._check("gaussian map 4 uA, 10 GHz", errors, STEP_BUDGET)

    @pytest.fixture(scope="class")
    def single_fluxon_runs(self):
        reports = []
        for divisor in (DEFAULT_DT_DIVISOR, STEP_REFERENCE):
            solver.forget_last_run()
            reports.append(run_single_fluxon(dt_divisor=divisor).runs)
        return list(zip(*reports))

    @pytest.mark.parametrize(
        "k", range(5), ids=[f"alpha_out_{a}" for a in (0.15, 0.2, 0.25, 0.3, 0.35)])
    def test_single_fluxon(self, single_fluxon_runs, k):
        run, ref = single_fluxon_runs[k]
        errors = {
            "f_osc": _rel(run.fit.f_osc, ref.fit.f_osc),
            "fluxon_f0": _rel(run.f0, ref.f0),
            "fluxon_fwhm": _rel(run.fwhm, ref.fwhm),
        }
        self._check(
            f"single_fluxon alpha_out {run.config['alpha_out']}: {run.regime} "
            f"with {run.fit.n_peaks} peaks, {ref.regime} with {ref.fit.n_peaks}",
            errors, STEP_BUDGET,
            same=(run.regime, run.fit.n_peaks) == (ref.regime, ref.fit.n_peaks))


SETTLE_BUDGET = {
    "f0": 1e-9,
    "fwhm": 1e-8,
    "band_power_db": 1e-8,     # absolute, dB
    "eta": 1e-12,              # absolute
    "p_in": 1e-12,
}


class TestSettleBudget:
    """Every headline observable of the default settle, a first tail of
    TAIL_PERIODS doubled until the line holds at most SETTLED of the
    injected energy, against a first tail of the whole spectrum window
    (WINDOW_PERIODS), on TestStepBudget's train and map points; the bounds
    are SETTLE_BUDGET's."""

    @staticmethod
    def _both(point, monkeypatch) -> list:
        runs = []
        for periods in (experiments.TAIL_PERIODS, experiments.WINDOW_PERIODS):
            monkeypatch.setattr(experiments, "TAIL_PERIODS", periods)
            solver.forget_last_run()
            runs.append(point())
        return runs

    @staticmethod
    def _check(label, errors):
        ok = all(errors[k] <= SETTLE_BUDGET[k] for k in errors)
        _report(f"settle budget ({label}, default settle vs a first tail of "
                "the spectrum window)", ok,
                ", ".join(f"{k} {errors[k]:.1e}/{SETTLE_BUDGET[k]:g}" for k in errors))
        assert ok

    def _check_train(self, label, point, monkeypatch):
        run, ref = self._both(point, monkeypatch)
        self._check(label, {
            "f0": _rel(run.f0, ref.f0),
            "fwhm": _rel(run.fwhm, ref.fwhm),
            "band_power_db": abs(run.power.band_power_dbm - ref.power.band_power_dbm),
            "eta": abs(run.eta - ref.eta),
            "p_in": _rel(run.power.avg_input_power, ref.power.avg_input_power),
        })

    @pytest.mark.parametrize(
        "protocol, row",
        [("flat_top", TABLE1_FLAT_TOP[0]), ("gaussian", TABLE1_GAUSSIAN[3])],
        ids=["flat_top_3uA", "gaussian_6uA"],
    )
    def test_table1_row(self, monkeypatch, protocol, row):
        self._check_train(
            f"table1 {protocol} {row[0] * 1e6:g} uA",
            lambda: _table1_row(row, protocol, DEFAULT_DT_DIVISOR), monkeypatch)

    def test_bandwidth_sweep_50_pairs(self, monkeypatch):
        self._check_train("bandwidth_sweep 50 pairs",
                          lambda: run_bandwidth_sweep([50]).runs[0], monkeypatch)

    def test_gaussian_map_point(self, monkeypatch):
        kwargs = _map_run(4e-6, 2 * math.pi * 10e9, MAP_ALPHA_IN,
                          MAP_DAMPING_QUALITY, DEFAULT_DT_DIVISOR)
        line = SCENARIOS["gaussian"].check(**kwargs)
        run, ref = self._both(lambda: _map_point(line, DEFAULT_DT_DIVISOR),
                              monkeypatch)
        self._check("gaussian map 4 uA, 10 GHz", {"eta": abs(run - ref)})


def test_single_fluxon_spectral_drift_is_the_grid(monkeypatch):
    """At the default step, single_fluxon's f0 and FWHM are those of an
    integrator k times finer sampled on the default step's grid, to within
    criterion 8g's 1e-5: what moves them against dt_divisor 800 is where
    the grid puts the ring-down's first sample and the band stride, not
    the integrator."""
    k = -(-STEP_REFERENCE // DEFAULT_DT_DIVISOR)
    pairs = []
    simulate = experiments.simulate

    def both(circuit, train, t_end, dt):
        coarse = simulate(circuit, train, t_end, dt)
        fine = simulate(circuit, train, coarse.times[-1] + dt, dt / k)
        pairs.append((coarse, fine.v[-1][:k * (coarse.times.size - 1) + 1:k]))
        return coarse

    monkeypatch.setattr(experiments, "simulate", both)
    report = run_single_fluxon()
    worst = 0.0
    for run, (coarse, v_fine) in zip(report.runs, pairs, strict=True):
        ring_down = coarse.times >= coarse.drive_end
        q = _band_stride(coarse.derived, coarse.dt, int(ring_down.sum()))
        fine = psd(v_fine[ring_down][::q], coarse.dt * q)
        worst = max(worst, _rel(run.f0, fine.f0), _rel(run.fwhm, fine.fwhm))
    ok = worst <= STEP_BUDGET["f0"]
    _report("single_fluxon drift is the grid", ok,
            f"integrator's share of f0/FWHM {worst:.1e} (tolerance 1e-5)")
    assert ok


def test_criterion_9_drive_rate_above_plasma_frequency():
    """At the map conventions, eta depends on f_p/i_c alone at drive rates
    f_p/0.9, f_p and f_p/1.1, and a drive rate of f_p/0.9 beats f_p.  The
    eta at f_p/0.9 is reported against the abstract's 97%, not gated on
    it."""
    points = [(2e-6, 2 * math.pi * 20e9), (3e-6, 2 * math.pi * 30e9)]
    etas, worst = {}, 0.0
    for protocol in ("flat_top", "gaussian"):
        for m in (0.9, 1, 1.1):
            a, b = (
                SCENARIOS[protocol](
                    **_map_run(i_c, omega_p, MAP_ALPHA_IN, MAP_DAMPING_QUALITY,
                               DEFAULT_DT_DIVISOR),
                    spacing_multiple=m,
                ).eta
                for i_c, omega_p in points
            )
            etas[protocol, m] = a
            worst = max(worst, abs(a - b))
    ok = worst <= 1e-9 and all(
        etas[p, 0.9] > etas[p, 1] for p in ("flat_top", "gaussian")
    )
    _report(
        "criterion 9 (drive rate above f_p)", ok,
        f"eta at rate f_p/0.9 vs f_p: flat-top {etas['flat_top', 0.9]:.3f} vs "
        f"{etas['flat_top', 1]:.3f}, gaussian {etas['gaussian', 0.9]:.3f} vs "
        f"{etas['gaussian', 1]:.3f} (abstract: 97% maximum); equal f_p/i_c "
        f"points agree to {worst:.1e} (tolerance 1e-9)",
    )
    assert ok
