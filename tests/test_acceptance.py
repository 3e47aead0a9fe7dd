"""Acceptance suite: every headline result at its stated tolerance.

Each test prints one [PASS]/[FAIL] line (run with -s to see them) and then
asserts, so the suite doubles as a human-readable scorecard.
"""

import math
import os

import numpy as np
import pytest

from jtlpulse.analysis import energy_audit, esd
from jtlpulse.circuit import PHI0, CircuitParams, derive, solve_geometry
from jtlpulse.experiments import (
    TABLE1_FLAT_TOP,
    TABLE1_GAUSSIAN,
    run_bandwidth_sweep,
    run_efficiency_map,
    run_flat_top,
    run_single_fluxon,
    run_table1,
)
from jtlpulse.pulses import sech_pulse
from jtlpulse.solver import simulate

JOBS = min(2, os.cpu_count() or 1)


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
    return run_table1(jobs=JOBS)


def test_table1_parallel_matches_serial(table1_report):
    assert table1_report.to_json() == run_table1(jobs=1).to_json()


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
    flat = run_efficiency_map([2e-6, 3e-6], omega_grid, "flat_top", jobs=JOBS)
    gauss = run_efficiency_map(
        [2e-6, 3e-6, 4e-6], omega_grid, "gaussian", jobs=JOBS
    )
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
        ok = df0 < 1e-3 and deta < 1e-3
        _report("criterion 8d (dt-halving convergence)", ok,
                f"df0 {df0:.2e}, deta {deta:.2e} (tolerance 1e-3)")
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
