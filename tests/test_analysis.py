"""Spectra, power waves, band power, ring-down fits, audits."""

import math

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from jtlpulse import analysis, experiments
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
        assert sp.band_energy is None

    def test_band_energy_is_the_band_integral_of_the_esd(self):
        t, x = _tone(f0=20e9, fs=400e9, n=4000)
        sp = psd(x, 1.0 / 400e9)
        freqs, density = esd(x, 1.0 / 400e9, pad_factor=8)
        band = (freqs >= sp.f0 - sp.fwhm / 2.0) & (freqs <= sp.f0 + sp.fwhm / 2.0)
        assert sp.band_energy == np.trapezoid(density[band], freqs[band])
        # most of the tone's energy sum(x^2) dt lies within its half-power band
        assert 0.5 < sp.band_energy / (np.sum(x**2) / 400e9) < 1.0

    def test_band_energy_none_below_two_bins(self):
        # a whole number of periods, unpadded: one bin above half maximum,
        # crossings half a bin either side, so the band holds that bin alone
        t, x = _tone(f0=20e9, fs=400e9, n=4000)
        sp = psd(x, 1.0 / 400e9, pad_factor=1)
        assert sp.fwhm == pytest.approx(400e9 / 4000)
        assert sp.band_energy is None


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


def _forward_energy_loop(v, i, z0, times):
    """The reference: integrate the forward wave of ``power_waves``."""
    return float(np.trapezoid(power_waves(v, i, z0)[0], times))


class TestForwardEnergy:
    def test_table1_ports_match_power_waves(self, monkeypatch):
        energies = []

        def both(v, i, z0, times):
            fast = forward_energy(v, i, z0, times)
            energies.append((fast, _forward_energy_loop(v, i, z0, times)))
            return fast

        monkeypatch.setattr(experiments, "forward_energy", both)
        experiments.run_table1(jobs=1)
        # the input port while settling and the output port, on all 8 rows
        assert len(energies) >= 16
        for fast, loop in energies:
            assert fast.hex() == loop.hex()

    @settings(max_examples=200, deadline=None)
    @given(
        pairs=st.lists(st.tuples(st.floats(width=64), st.floats(width=64)),
                       min_size=0, max_size=200),
        z0=st.floats(1e-3, 1e4),
        dt=st.floats(1e-15, 1e-9),
    )
    def test_arrays_match_power_waves(self, pairs, z0, dt):
        v = np.array([p[0] for p in pairs], dtype=float)
        i = np.array([p[1] for p in pairs], dtype=float)
        times = dt * np.arange(v.size)
        # overflow to inf and nan is compared too; the backward wave the
        # reference also builds may overflow where the forward one does not
        with np.errstate(all="ignore"):
            fast = forward_energy(v, i, z0, times)
            loop = _forward_energy_loop(v, i, z0, times)
        assert fast.hex() == loop.hex()

    @pytest.mark.parametrize("z0", [0.0, -1.0, math.inf, math.nan])
    def test_z0_domain_as_power_waves(self, z0):
        with pytest.raises(ValueError) as expected:
            power_waves(np.ones(4), np.ones(4), z0)
        with pytest.raises(ValueError) as raised:
            forward_energy(np.ones(4), np.ones(4), z0, np.arange(4.0))
        assert str(raised.value) == str(expected.value)


def _esd_out_of_place(x, dt, pad_factor):
    """The reference ``esd``: the density built out of place."""
    n_fft = pad_factor * x.size
    density = np.abs(np.fft.rfft(x, n=n_fft)) ** 2 * dt**2
    density[1:] *= 2.0
    if n_fft % 2 == 0:
        density[-1] /= 2.0
    return np.fft.rfftfreq(n_fft, d=dt), density


def _band_power_two_fft(a_out, dt, f0, fwhm, duration, pad_factor=8):
    """The reference band power: a transform of its own, the band picked
    by a boolean mask."""
    freqs, density = _esd_out_of_place(np.asarray(a_out, dtype=float), dt, pad_factor)
    mask = (freqs >= f0 - fwhm / 2.0) & (freqs <= f0 + fwhm / 2.0)
    if mask.sum() < 2:
        raise AnalysisError("band narrower than the frequency resolution")
    power = float(np.trapezoid(density[mask], freqs[mask])) / duration
    if power <= 0.0:
        raise AnalysisError("non-positive band power")
    return 10.0 * math.log10(power / 1e-3)


def _outcome(fn, *args):
    """``fn(*args)`` as float.hex, or the message of its AnalysisError."""
    try:
        return fn(*args).hex()
    except AnalysisError as exc:
        return f"AnalysisError: {exc}"


def _damped_tone(n, cycles, decay, phase, amp, noise, seed):
    t = np.arange(n) / n
    rng = np.random.default_rng(seed)
    wave = np.exp(-decay * t) * np.sin(2 * math.pi * cycles * t + phase)
    return amp * (wave + noise * rng.normal(size=n))


def _records(amp):
    """Records of 256-2048 samples: a decaying tone of 2-100 periods in
    noise, scaled by ``amp`` (0 gives the all-zero record)."""
    return st.builds(
        _damped_tone,
        n=st.integers(256, 2048),
        cycles=st.floats(2.0, 100.0),
        decay=st.floats(0.0, 5.0),
        phase=st.floats(0.0, 2 * math.pi),
        amp=amp,
        noise=st.floats(0.0, 0.5),
        seed=st.integers(0, 2**32 - 1),
    )


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

    def test_band_narrower_than_resolution(self):
        t, x = _tone(f0=20e9, fs=400e9, n=4000)
        bin_width = 400e9 / (8 * 4000)
        with pytest.raises(AnalysisError,
                           match="^band narrower than the frequency resolution$"):
            band_power_dbm(x, 1 / 400e9, 20e9 + 0.3 * bin_width, 0.5 * bin_width, 1e-8)
        with pytest.raises(AnalysisError,
                           match="^band narrower than the frequency resolution$"):
            analysis._band_dbm(None, 1e-8)

    def test_non_positive_band_power(self):
        with pytest.raises(AnalysisError, match="^non-positive band power$"):
            band_power_dbm(np.zeros(512), 1e-12, 100e9, 20e9, 1e-9)
        with pytest.raises(AnalysisError, match="^non-positive band power$"):
            analysis._band_dbm(0.0, 1e-9)

    @settings(max_examples=150, deadline=None)
    @given(record=_records(st.floats(1e-6, 1e3)), dt=st.floats(1e-13, 1e-10),
           scale=st.floats(0.5, 4.0))
    def test_psd_band_energy_matches_two_fft(self, record, dt, scale):
        # a train run: f0, fwhm and band energy from psd's one transform
        sp = psd(record, dt)
        assume(sp.fwhm is not None)
        freqs, density = _esd_out_of_place(record, dt, 8)
        assert np.array_equal(sp.freqs, freqs)
        assert np.array_equal(sp.psd, density / (record.size * dt))
        duration = scale * record.size * dt
        assert _outcome(analysis._band_dbm, sp.band_energy, duration) == _outcome(
            _band_power_two_fft, record, dt, sp.f0, sp.fwhm, duration
        )

    @settings(max_examples=150, deadline=None)
    @given(record=_records(st.floats(0.0, 1e3)), dt=st.floats(1e-13, 1e-10),
           f0_bins=st.floats(1.0, 500.0), fwhm_bins=st.floats(0.05, 40.0))
    def test_record_level_matches_two_fft(self, record, dt, f0_bins, fwhm_bins):
        # bands below two bins and all-zero records raise, with the same message
        bin_width = 1.0 / (8 * record.size * dt)
        f0, fwhm = f0_bins * bin_width, fwhm_bins * bin_width
        duration = record.size * dt
        assert _outcome(band_power_dbm, record, dt, f0, fwhm, duration) == _outcome(
            _band_power_two_fft, record, dt, f0, fwhm, duration
        )


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


def _breather_fit_loop(trajectory, cell=-1):
    """``breather_fit`` as a loop over the sign-change segments and the
    peaks, the reference for the array form."""
    times = trajectory.times
    sel = times >= trajectory.drive_end
    if sel.sum() < 8:
        raise InsufficientDataError("ring-down segment too short")
    t = times[sel]
    v = trajectory.v[cell][sel]
    x = np.abs(v)
    scale = float(np.max(x))
    if scale <= 0.0:
        raise InsufficientDataError("ring-down record is identically zero")
    flips = np.nonzero(np.signbit(v[1:]) != np.signbit(v[:-1]))[0] + 1
    idx = np.array(
        [a + int(np.argmax(x[a:b])) for a, b in zip(flips, flips[1:])], dtype=int
    )
    idx = idx[x[idx] > 1e-3 * scale]
    if idx.size < 4:
        raise InsufficientDataError(
            f"only {idx.size} envelope peaks above threshold; need >= 4"
        )
    tp = np.empty(idx.size)
    ap = np.empty(idx.size)
    dt = trajectory.dt
    for j, k in enumerate(idx):
        y0, y1, y2 = x[k - 1], x[k], x[k + 1]
        denom = y0 - 2.0 * y1 + y2
        shift = 0.0 if denom == 0.0 else 0.5 * (y0 - y2) / denom
        shift = float(np.clip(shift, -0.5, 0.5))
        tp[j] = t[k] + shift * dt
        ap[j] = y1 - 0.25 * (y0 - y2) * shift
    f_osc = 1.0 / (2.0 * float(np.mean(np.diff(tp))))
    slope, intercept = np.polyfit(tp, np.log(ap), 1)
    if slope >= 0.0:
        raise AnalysisError("ring-down envelope is not decaying")
    resid = np.log(ap) - (slope * tp + intercept)
    return analysis.BreatherFit(
        f_osc=float(f_osc),
        decay_time=float(-1.0 / slope),
        fit_residual=float(np.sqrt(np.mean(resid**2))),
        n_peaks=int(idx.size),
    )


def _fit_outcome(fit, trajectory, cell):
    """The fit's fields by repr (which tells every double apart), or the
    exception it raised."""
    try:
        return repr(fit(trajectory, cell))
    except Exception as exc:  # both forms must fail alike
        return f"{type(exc).__name__}: {exc}"


def _ringdown_of(v):
    base = _synthetic_ringdown(t_end=v.size / (200 * 18e9))
    return Trajectory(
        times=base.times[:v.size], phi=base.phi[:, :v.size], v=np.vstack([v, v]),
        v_source=base.v_source[:v.size], circuit=base.circuit,
        derived=base.derived, drive_end=0.0,
    )


# half-cycles of a decaying ring-down, each a run of small integer levels:
# repeated levels make ties and flat tops, zeros make signed-zero flips
_half_cycles = st.lists(
    st.lists(st.integers(0, 4), min_size=1, max_size=6), min_size=8, max_size=40
)


class TestBreatherFitArrays:
    def test_single_fluxon_sweep_matches_loop(self, monkeypatch):
        fits = []

        def both(traj, cell=-1):
            fits.append((_fit_outcome(breather_fit, traj, cell),
                         _fit_outcome(_breather_fit_loop, traj, cell)))
            return breather_fit(traj, cell)

        monkeypatch.setattr(experiments, "breather_fit", both)
        experiments.run_single_fluxon((0.15, 0.2, 0.25, 0.3, 0.35))
        assert len(fits) == 5
        for fast, loop in fits:
            assert fast == loop
            assert fast.startswith("BreatherFit(")

    @settings(max_examples=300, deadline=None)
    @given(_half_cycles, st.floats(0.8, 1.0))
    def test_plateaus_and_ties_match_loop(self, cycles, decay):
        v = np.concatenate([
            (-1.0) ** k * decay**k * np.array(levels, dtype=float)
            for k, levels in enumerate(cycles)
        ])
        if v.size < 8 or not np.any(v):
            return
        traj = _ringdown_of(v)
        assert _fit_outcome(breather_fit, traj, 0) == _fit_outcome(
            _breather_fit_loop, traj, 0
        )

    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.integers(-3, 3), min_size=8, max_size=300))
    def test_integer_signals_match_loop(self, levels):
        traj = _ringdown_of(np.array(levels, dtype=float))
        assert _fit_outcome(breather_fit, traj, 0) == _fit_outcome(
            _breather_fit_loop, traj, 0
        )


@pytest.fixture(scope="module")
def formatter():
    """The compiled CSV formatter; a test of it fails if it did not load."""
    loaded = analysis._csv_rows()
    assert loaded is not analysis._repr_rows, "the compiled CSV formatter did not load"
    return loaded


def _repr_lines(values):
    return "".join(f"{v!r}\n" for v in values).encode()


def _with_neighbours(values):
    x = np.array(values)
    with np.errstate(over="ignore"):  # the largest double's neighbour is inf
        up = np.nextafter(x, np.inf)
    return np.concatenate([x, np.nextafter(x, -np.inf), up])


class TestCsvFormatter:
    @settings(max_examples=500, deadline=None)
    @given(st.lists(st.floats(allow_subnormal=True), min_size=1, max_size=60))
    def test_floats_print_as_repr(self, formatter, values):
        block = np.array(values).reshape(-1, 1)
        assert formatter(block) == _repr_lines(block[:, 0].tolist())

    @settings(max_examples=100, deadline=None)
    @given(st.lists(st.tuples(st.floats(), st.floats()), min_size=1, max_size=30))
    def test_rows_print_as_repr_rows(self, formatter, rows):
        block = np.array(rows).reshape(-1, 2)
        assert formatter(block) == analysis._repr_rows(block)
        assert formatter(block) == "".join(
            f"{a!r},{b!r}\n" for a, b in block.tolist()
        ).encode()

    @pytest.mark.parametrize("values", [
        pytest.param([2.0**k for k in range(-1074, 1024)], id="powers_of_2"),
        pytest.param([10.0**k for k in range(-323, 309)], id="powers_of_10"),
        pytest.param([5e-324, 2.2250738585072014e-308, 1.7976931348623157e308,
                      9.999999999999999e-05, 0.0001, 9999999999999998.0, 1e16],
                     id="limits_and_thresholds"),
    ])
    def test_exhaustive_lists_print_as_repr(self, formatter, values):
        x = _with_neighbours(values)
        x = np.concatenate([x, -x])
        assert formatter(x.reshape(-1, 1)) == _repr_lines(x.tolist())

    def test_special_values(self, formatter):
        x = [0.0, -0.0, math.inf, -math.inf, math.nan, -math.nan, 1.0, 1e22, 1e23]
        assert formatter(np.array(x).reshape(-1, 1)) == (
            b"0.0\n-0.0\ninf\n-inf\nnan\nnan\n1.0\n1e+22\n1e+23\n"
        )


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
