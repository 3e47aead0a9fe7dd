"""Spectra, power waves, band power, ring-down fits, audits."""

import math

import numpy as np
import pytest

from jtlpulse import analysis
from jtlpulse.analysis import (
    AnalysisError,
    InsufficientDataError,
    band_power_dbm,
    breather_fit,
    energy_audit,
    esd,
    forward_energy,
    power_waves,
    psd,
)
from jtlpulse.circuit import PHI0, CircuitParams, derive, solve_geometry
from jtlpulse.pulses import PulseTrain, sech_pulse
from jtlpulse.solver import Trajectory, simulate


def _tone(f0=20e9, fs=400e9, n=4096, amp=1.0):
    t = np.arange(n) / fs
    return t, amp * np.sin(2 * math.pi * f0 * t)


class TestPsd:
    def test_pure_tone_peak(self):
        # integer number of periods on the grid: f0 exact to the bin
        t, x = _tone(f0=20e9, fs=400e9, n=4000)  # 200 periods
        sp = psd(x, 1.0 / 400e9, pad_factor=1)
        assert sp.f0 == pytest.approx(20e9, abs=400e9 / 4000)

    def test_gaussian_envelope_fwhm_analytic_pair(self):
        # |FT|^2 of exp(-t^2/(2 s^2)) cos(2 pi f0 t) has half-power full
        # width sqrt(ln 2)/(pi s); verified against dense-FFT numerics
        s = 0.5e-9
        fs = 400e9
        t = np.arange(-4e-9, 4e-9, 1.0 / fs)
        x = np.exp(-(t**2) / (2 * s**2)) * np.cos(2 * math.pi * 15e9 * t)
        sp = psd(x, 1.0 / fs)
        expected = math.sqrt(math.log(2)) / (math.pi * s)
        assert sp.fwhm == pytest.approx(expected, rel=0.03)
        assert sp.f0 == pytest.approx(15e9, rel=1e-3)

    def test_parseval(self):
        rng = np.random.default_rng(3)
        x = rng.normal(size=2048)
        dt = 2.5e-12
        freqs, density = esd(x, dt, pad_factor=8)
        spectral = np.sum(density) * (freqs[1] - freqs[0])
        time_domain = np.sum(x**2) * dt
        assert spectral == pytest.approx(time_domain, rel=1e-9)

    def test_short_record_rejected(self):
        with pytest.raises(AnalysisError, match="256"):
            psd(np.zeros(100), 1e-12)

    def test_dc_record_has_no_peak(self):
        sp = psd(np.ones(512), 1e-12, pad_factor=1)
        assert sp.f0 is None


class TestPowerWaves:
    def test_matched_load_no_backward_wave(self):
        rng = np.random.default_rng(1)
        i = rng.normal(size=256)
        z0 = 12.8
        v = z0 * i
        p_fwd, p_bwd = power_waves(v, i, z0)
        assert np.all(p_bwd == 0.0)
        assert np.allclose(p_fwd, v * i, rtol=1e-12)

    def test_open_circuit_splits_evenly(self):
        v = np.array([1.0, -2.0, 0.5])
        p_fwd, p_bwd = power_waves(v, np.zeros(3), 4.0)
        assert np.allclose(p_fwd, v**2 / 16.0)
        assert np.array_equal(p_fwd, p_bwd)

    def test_z0_domain(self):
        # an open end (z0 = inf) has no power waves either
        for z0 in (-1.0, 0.0, math.inf, math.nan):
            with pytest.raises(ValueError, match="z0 must be finite and positive"):
                power_waves(np.ones(4), np.ones(4), z0)


class TestBandPower:
    def test_sinusoid_average_power_definition(self):
        # 1 uW forward sine entirely inside the band reads -30 dBm
        fs = 200e9
        n = 8192
        t = np.arange(n) / fs
        a = math.sqrt(2e-6) * np.sin(2 * math.pi * 10e9 * t)  # mean a^2 = 1 uW
        duration = n / fs
        value = band_power_dbm(a, 1 / fs, 10e9, 4e9, duration)
        assert value == pytest.approx(-30.0, abs=0.05)

    def test_requires_peak(self):
        with pytest.raises(AnalysisError):
            band_power_dbm(np.zeros(512), 1e-12, None, None, 1e-9)


def _synthetic_ringdown(f=18e9, tau=0.5e-9, fs=None, t_end=3e-9):
    if fs is None:
        fs = 200 * f
    t = np.arange(0.0, t_end, 1.0 / fs)
    v = 1e-5 * np.exp(-t / tau) * np.cos(2 * math.pi * f * t)
    circuit = CircuitParams(i_c=4e-6, c_j=8e-13, l=8e-12, z_in=0.6, z_out=12.0,
                            n_jtl=2)
    return Trajectory(
        times=t,
        phi=np.zeros((2, t.size)),
        v=np.vstack([v, v]),
        v_source=np.zeros(t.size),
        circuit=circuit,
        derived=derive(circuit),
        drive_end=0.0,
    )


class TestBreatherFit:
    def test_recovers_synthetic_damped_cosine(self):
        traj = _synthetic_ringdown(f=18e9, tau=0.5e-9)
        fit = breather_fit(traj, 0)
        assert fit.f_osc == pytest.approx(18e9, rel=0.02)
        assert fit.decay_time == pytest.approx(0.5e-9, rel=0.05)
        assert fit.n_peaks >= 4

    def test_insufficient_peaks(self):
        traj = _synthetic_ringdown(f=18e9, tau=5e-12)  # dies within a period
        with pytest.raises(InsufficientDataError):
            breather_fit(traj, 0)

    def test_ripple_adds_no_peaks(self):
        # a third harmonic at -0.15 splits each half-cycle's |v| maximum in
        # two; one peak per half-cycle keeps f_osc at the fundamental
        traj = _synthetic_ringdown(f=18e9, tau=0.5e-9)
        t = traj.times
        w = 2 * math.pi * 18e9
        v = 1e-5 * np.exp(-t / 0.5e-9) * (np.cos(w * t) - 0.15 * np.cos(3 * w * t))
        rippled = Trajectory(
            times=t, phi=traj.phi, v=np.vstack([v, v]), v_source=traj.v_source,
            circuit=traj.circuit, derived=traj.derived, drive_end=0.0,
        )
        fit = breather_fit(rippled, 0)
        assert fit.f_osc == pytest.approx(18e9, rel=0.02)
        assert fit.decay_time == pytest.approx(0.5e-9, rel=0.05)

    def test_spectrum_csv_round_trip(self, tmp_path, monkeypatch):
        # blocks shorter than the spectrum exercise the block boundaries
        monkeypatch.setattr(analysis, "_CSV_BLOCK_ROWS", 7)
        t, x = _tone(n=1024)
        sp = psd(x, t[1] - t[0])
        path = tmp_path / "spectrum.csv"
        sp.to_csv(path)
        assert path.read_text().splitlines()[0] == "freq,psd"
        back = np.loadtxt(path, delimiter=",", skiprows=1)
        assert np.array_equal(back[:, 0], sp.freqs)
        assert np.array_equal(back[:, 1], sp.psd)

    def test_growing_envelope_rejected(self):
        traj = _synthetic_ringdown(tau=0.5e-9)
        grown = Trajectory(
            times=traj.times, phi=traj.phi, v=traj.v[:, ::-1].copy(),
            v_source=traj.v_source, circuit=traj.circuit,
            derived=traj.derived, drive_end=0.0,
        )
        with pytest.raises(AnalysisError):
            breather_fit(grown, 0)


class TestEnergyAudit:
    def test_closure_on_driven_run(self):
        # in = reflected + transmitted + dissipated + residual stored, to 1%
        c = solve_geometry(4e-6, 3.3, 2 * math.pi * 20e9, 5.0, 0.25, 13,
                           r_n=100.0)
        d = derive(c)
        train = PulseTrain(pulses=(sech_pulse(PHI0, 18.5e-12, 1.2e-10),),
                          duration=3e-10)
        traj = simulate(c, train, 4e-9)
        audit = energy_audit(traj)
        assert audit["closure_rel"] < 0.01
        assert audit["e_in_fwd"] > 0
        assert audit["e_dissipated"] >= 0

    def test_open_line_has_no_port_energy(self):
        # a lossless line with both ends open: its port currents are exactly
        # zero, and the audit refuses the ports instead of inventing energy
        # reflected through them
        c = CircuitParams(i_c=4e-6, c_j=770e-15, l=7.56e-12, z_in=math.inf,
                          z_out=math.inf, r_n=math.inf, n_jtl=13)
        bump = 0.3 * np.exp(-0.5 * (np.arange(13) - 6.0) ** 2 / 2.0**2)
        traj = simulate(c, None, 5e-9, initial_phi=bump)
        assert np.all(traj.i_in == 0.0) and np.all(traj.i_out == 0.0)
        with pytest.raises(ValueError, match="z0 must be finite and positive, got inf"):
            energy_audit(traj)
        with pytest.raises(ValueError, match="z0 must be finite and positive, got inf"):
            forward_energy(traj.v_node1, traj.i_in, c.z_in, traj.times)
