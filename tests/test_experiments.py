"""Scenario harness: regimes, determinism, provenance, table structure."""

import dataclasses
import functools
import json
import logging
import math
import warnings

import pytest

from jtlpulse import analysis, experiments, solver
from jtlpulse.analysis import (
    AnalysisError,
    band_power_dbm,
    esd,
    forward_energy,
    psd,
)
from jtlpulse.circuit import derive, solve_geometry
from jtlpulse.pulses import PhaseEnvelope, compile_envelope, schedule_spacing
from jtlpulse.experiments import (
    GAUSSIAN_PEAK_THETA,
    R_SFQ,
    TABLE1_FLAT_TOP,
    TABLE1_GAUSSIAN,
    ScenarioError,
    check_scenario,
    run_bandwidth_sweep,
    run_efficiency_map,
    run_flat_top,
    run_gaussian,
    run_scenario,
    run_single_fluxon,
    run_table1,
    _jtl_length,
)
from jtlpulse.circuit import PHI0
from jtlpulse.solver import DEFAULT_DT_DIVISOR, MIN_DT_DIVISOR


class TestSingleFluxon:
    def test_breather_regime_at_02(self):
        report = run_single_fluxon(0.2)
        run = report.runs[0]
        assert run.regime == "breather"
        assert run.fit is not None and run.fit.n_peaks >= 4
        # oscillates near the plasma frequency (20 GHz configuration)
        assert run.fit.f_osc == pytest.approx(20e9, rel=0.15)

    def test_matched_load_absorbs(self):
        report = run_single_fluxon(1.0)
        run = report.runs[0]
        assert run.regime == "absorption"

    def test_antifluxon_reflection_below_alpha0(self):
        # near-open load (alpha ~ alpha_0): reflection leaves an extra 2 pi
        # of winding at the boundary cell
        report = run_single_fluxon(0.075)
        assert report.runs[0].regime == "antifluxon_reflection"

    def test_decay_time_falls_with_alpha(self):
        # heavier load coupling drains the breather faster
        report = run_single_fluxon([0.15, 0.25, 0.35], f_plasma=15e9)
        taus = [r.fit.decay_time for r in report.runs]
        assert all(b < a for a, b in zip(taus, taus[1:]))

    def test_ring_down_tone_matches_spectrum(self):
        # one fit peak per half-cycle: the ring-down frequency is the PSD
        # tone, not a ripple-inflated multiple of it
        run = run_single_fluxon(0.35).runs[0]
        assert run.regime == "breather"
        assert run.fit.f_osc == pytest.approx(run.f0, rel=0.03)

    def test_grid_and_provenance(self):
        report = run_single_fluxon([0.15, 0.25])
        assert len(report.runs) == 2
        payload = json.loads(report.to_json())
        assert payload["provenance"]["alpha_out_grid"] == [0.15, 0.25]
        assert payload["runs"][0]["config"]["alpha_out"] == 0.15

    def test_alpha_domain(self):
        with pytest.raises(ScenarioError):
            run_single_fluxon(1.5)

    def test_short_ring_down_keeps_its_spectrum(self):
        # ~400 ring-down samples: a stride of 7 would leave 58, below psd's
        # 256-sample floor, so the spectrum is taken at the full rate; the
        # peak's vertex lies 0.4 of a 1.25 GHz padded bin below its grid
        # bin at 22.44 GHz
        run = run_single_fluxon((0.25,), n_tail_periods=2).runs[0]
        assert run.f0 == pytest.approx(21.94e9, rel=1e-3)

    def test_shortest_ring_down_with_a_spectrum_runs(self):
        # at the defaults 1.82 plasma periods of tail leave psd's 256
        # ring-down samples, and 1.81 is refused before anything integrates
        run = run_single_fluxon((0.2,), n_tail_periods=1.82).runs[0]
        assert run.spectrum is not None
        with pytest.raises(ScenarioError, match="fewer than the 256"):
            run_single_fluxon.check((0.2,), n_tail_periods=1.81)

    def test_runner_integrates_each_checked_point(self, monkeypatch):
        # the check resolves each point to (config, simulate's arguments),
        # and the runner integrates exactly those, in order
        points = run_single_fluxon.check((0.2, 0.3), n_tail_periods=5)
        calls = []
        simulate = experiments.simulate

        def spying(*args):
            calls.append(args)
            return simulate(*args)

        monkeypatch.setattr(experiments, "simulate", spying)
        report = run_single_fluxon((0.2, 0.3), n_tail_periods=5)
        assert calls == [tuple(point[1:]) for point in points]
        assert [run.config for run in report.runs] == [point[0] for point in points]


class TestTrainScenarios:
    def test_geometry_rules(self):
        assert _jtl_length(3.17) == 5
        assert _jtl_length(2.50) == 4
        assert _jtl_length(10.0) == 5   # clamped
        assert _jtl_length(1.0) == 4    # clamped

    @pytest.mark.parametrize("n_pairs", [2.5, 2.0])
    def test_non_integer_pair_count_is_refused(self, n_pairs):
        # refused by the check, not by a TypeError from the envelope
        message = f"^n_pairs must be an integer, got {n_pairs}$"
        with pytest.raises(ScenarioError, match=message):
            run_flat_top.check(n_pairs=n_pairs)

    def test_flat_top_run_is_deterministic(self):
        a = run_flat_top(4e-6, 2 * math.pi * 19.6e9, 10)
        solver.forget_last_run()  # else b copies a's record
        b = run_flat_top(4e-6, 2 * math.pi * 19.6e9, 10)
        assert a.summary() == b.summary()

    def test_config_embeds_resolved_parameters(self):
        run = run_flat_top(4e-6, 2 * math.pi * 19.6e9, 8)
        for key in ("i_c", "l", "c_j", "r_n", "n_jtl", "width", "spacing",
                    "alpha_in", "alpha_out", "seq_duration", "drive_model"):
            assert key in run.config

    def test_eta_bounded_on_passive_run(self):
        run = run_flat_top(4e-6, 2 * math.pi * 19.6e9, 8)
        assert 0.0 < run.eta < 1.0
        assert run.eta == run.power.e_out_fwd / run.power.e_in_fwd

    def test_gaussian_defaults(self):
        run = run_gaussian(4e-6, 2 * math.pi * 17.5e9, 6)
        assert run.config["lambda_j"] == pytest.approx(2.50)
        assert run.config["n_jtl"] == 4
        assert run.config["theta_peak"] == GAUSSIAN_PEAK_THETA

    def test_n_pairs_validation(self):
        with pytest.raises(ScenarioError):
            run_flat_top(4e-6, 2 * math.pi * 19.6e9, 0)

    @pytest.mark.parametrize("r_n", [None, 20.0], ids=["default_r_n", "r_n_20"])
    def test_drive_width_anchor(self, r_n):
        # the generator junction sets the width whatever the line's r_n:
        # full pulse width 2 pi tau_sech = Phi0/(i_c R_SFQ) = 30.71 ps at 3 uA
        kwargs = {} if r_n is None else {"r_n": r_n}
        run = run_flat_top(3e-6, 2 * math.pi * 17e9, 5, **kwargs)
        assert 2 * math.pi * run.config["width"] == pytest.approx(
            30.71e-12, rel=1e-3
        )
        assert run.config["width"] == pytest.approx(
            PHI0 / (2 * math.pi * 3e-6) / R_SFQ, rel=1e-12
        )


class TestSpacingMultiple:
    # (f0, fwhm, eta, band power) of run_flat_top(n_pairs=6,
    # spacing_multiple=m), recorded when only odd integers were accepted,
    # re-recorded once, eta unchanged, when psd moved to 7-smooth lengths
    # and interpolated observables, once more when the default step went
    # from a 200th to a 140th of the plasma period, and once more when the
    # first settle tail went from 30 plasma periods to 16 (the spectrum
    # window zero-extended past it)
    GOLDEN = {
        1: (19467088982.227364, 3124691698.6601562, 0.012322469402995227,
            -75.57253447152462),
        3: (6545456040.678778, 1049819431.1813669, 0.014998652854242553,
            -80.95448538675794),
    }

    @pytest.mark.parametrize("m", [1, 3, 1.0, 3.0])
    def test_integer_multiples_are_bit_identical(self, m):
        solver.forget_last_run()
        run = run_flat_top(n_pairs=6, spacing_multiple=m)
        observed = (run.f0, run.fwhm, run.eta, run.power.band_power_dbm)
        assert observed == self.GOLDEN[int(m)]

    @pytest.mark.parametrize("m", [0.625, 0.9, 1.1, 1.6, 2.0])
    @pytest.mark.parametrize("runner", [run_flat_top, run_gaussian])
    def test_tone_is_the_drive_rate(self, runner, m):
        # alternating polarity at spacing m pi/omega_p: one drive period
        # spans two pulses, so the fundamental is f_p/m
        run = runner(spacing_multiple=m)
        rate = run.config["omega_p"] / (2 * math.pi) / m
        assert run.f0 == pytest.approx(rate, rel=2e-3)


def _derived(lambda_j, f_p=15e9):
    return derive(solve_geometry(3e-6, lambda_j, 2 * math.pi * f_p, 5.0, 0.25, 5))


def _table1_run(row, dt_divisor=DEFAULT_DT_DIVISOR):
    """The run_table1 run of ``row``, measured from run_table1's own check."""
    point = run_table1.check(dt_divisor)[(TABLE1_FLAT_TOP + TABLE1_GAUSSIAN).index(row)]
    return experiments._table1_row(row, *point)


class TestBandStride:
    @pytest.mark.parametrize(
        "lambda_j, dt_divisor, q",
        [(3.17, 200, 7), (3.3, 200, 7), (2.5, 200, 9),
         (3.17, DEFAULT_DT_DIVISOR, 5), (3.3, DEFAULT_DT_DIVISOR, 5),
         (2.5, DEFAULT_DT_DIVISOR, 6), (3.17, MIN_DT_DIVISOR, 3)],
    )
    def test_nyquist_covers_twice_the_band_top(self, lambda_j, dt_divisor, q):
        d = _derived(lambda_j)
        dt = 2 * math.pi / d.omega_p / dt_divisor
        assert experiments._band_stride(d, dt, 10**6) == q
        f_top = d.omega_p / (2 * math.pi) * math.sqrt(1 + 4 * lambda_j**2)
        assert 1 / (2 * q * dt) >= 2 * f_top > 1 / (2 * (q + 1) * dt)

    def test_no_stride_at_or_above_a_quarter_band_period(self):
        d = _derived(3.17)
        f_top = d.omega_p / (2 * math.pi) * math.sqrt(1 + 4 * 3.17**2)
        for dt in (1 / (4 * f_top), 1.5 / (4 * f_top)):
            assert experiments._band_stride(d, dt, 10**6) == 1

    @pytest.mark.parametrize("n_samples, q", [(255, 1), (400, 1), (768, 3),
                                              (1791, 6), (1792, 7)])
    def test_leaves_256_samples(self, n_samples, q):
        # at a two-hundredth of the plasma period the widest stride is 7
        d = _derived(3.17)
        dt = 2 * math.pi / d.omega_p / 200
        assert experiments._band_stride(d, dt, n_samples) == q
        assert n_samples < 256 or math.ceil(n_samples / q) >= 256


class TestSignalBand:
    """Spectra at the signal band against the full-rate ones, which keep
    every frequency up to the integrator's own Nyquist."""

    @pytest.fixture
    def trajectories(self, monkeypatch):
        trajs = []
        simulate = experiments.simulate

        def recording(*args, **kwargs):
            trajs.append(simulate(*args, **kwargs))
            return trajs[-1]

        monkeypatch.setattr(experiments, "simulate", recording)
        return trajs

    @staticmethod
    def _above_band_fraction(x, traj):
        q = experiments._band_stride(traj.derived, traj.dt, x.size)
        assert q > 1
        freqs, density = esd(x, traj.dt)
        return density[freqs > 1 / (2 * q * traj.dt)].sum() / density.sum()

    @staticmethod
    def _assert_peak_matches(run, full):
        assert abs(run.f0 - full.f0) <= full.freqs[1]
        assert run.fwhm == pytest.approx(full.fwhm, rel=0.01)

    @pytest.mark.parametrize(
        "protocol, row",
        [("flat_top", TABLE1_FLAT_TOP[0]), ("gaussian", TABLE1_GAUSSIAN[3])],
        ids=["flat_top_3uA", "gaussian_6uA"],
    )
    def test_table1_row(self, trajectories, protocol, row):
        run = _table1_run(row)
        traj = trajectories[-1]
        a_out = traj.v_nodeN / math.sqrt(traj.circuit.z_out)
        # the Gaussian rows' multi-quantum pulses reach above the band top
        assert self._above_band_fraction(a_out, traj) < 1e-5
        full = psd(a_out, traj.dt)
        self._assert_peak_matches(run, full)
        band = band_power_dbm(
            a_out, traj.dt, full.f0, full.fwhm, run.config["seq_duration"]
        )
        assert run.power.band_power_dbm == pytest.approx(band, abs=0.01)

    def test_single_fluxon_ring_down(self, trajectories):
        report = run_single_fluxon()
        for run, traj in zip(report.runs, trajectories, strict=True):
            # the band bound holds for the signal at the last cell; the
            # ring-down record starts mid-oscillation, and the 1/f^2 tail of
            # that edge step lies above the band at either rate
            assert self._above_band_fraction(traj.v[-1], traj) < 1e-5
            ring_down = traj.v[-1][traj.times >= traj.drive_end]
            self._assert_peak_matches(run, psd(ring_down, traj.dt))


class TestOneTransform:
    """A train point builds one ESD; its band power is the record-level
    ``band_power_dbm`` of the band-strided record, bit for bit."""

    @pytest.fixture
    def esd_calls(self, monkeypatch):
        calls = []

        def counting(*args, **kwargs):
            calls.append(args)
            return esd(*args, **kwargs)

        monkeypatch.setattr(analysis, "esd", counting)
        return calls

    @pytest.fixture
    def band_records(self, monkeypatch):
        records = []

        def recording(signal, dt, **kwargs):
            records.append((signal, dt))
            return psd(signal, dt, **kwargs)

        monkeypatch.setattr(experiments, "psd", recording)
        return records

    @pytest.mark.parametrize("point", [
        pytest.param(lambda: run_flat_top(), id="run_flat_top"),
        pytest.param(lambda: _table1_run(TABLE1_FLAT_TOP[0]), id="table1_flat_top"),
        pytest.param(lambda: _table1_run(TABLE1_GAUSSIAN[0]), id="table1_gaussian"),
        pytest.param(lambda: run_single_fluxon(0.25), id="single_fluxon"),
    ])
    def test_one_esd_per_point(self, esd_calls, point):
        point()
        assert len(esd_calls) == 1

    @staticmethod
    def _assert_record_level(run, a_band, dt_band):
        expected = band_power_dbm(a_band, dt_band, run.f0, run.fwhm,
                                  run.config["seq_duration"])
        assert run.power.band_power_dbm.hex() == expected.hex()

    @pytest.mark.parametrize(
        "protocol, row",
        [("flat_top", TABLE1_FLAT_TOP[0]), ("gaussian", TABLE1_GAUSSIAN[3])],
        ids=["flat_top_3uA", "gaussian_6uA"],
    )
    def test_table1_row_band_power(self, band_records, protocol, row):
        run = _table1_run(row)
        ((a_band, dt_band),) = band_records
        self._assert_record_level(run, a_band, dt_band)

    def test_bandwidth_sweep_band_power(self, band_records):
        report = run_bandwidth_sweep()
        assert len(report.runs) == 4
        for run, (a_band, dt_band) in zip(report.runs, band_records, strict=True):
            self._assert_record_level(run, a_band, dt_band)

    @pytest.mark.parametrize("band_energy, message", [
        (None, "band narrower than the frequency resolution"),
        (0.0, "non-positive band power"),
    ])
    def test_band_errors_raise_from_the_run(self, monkeypatch, band_energy, message):
        def spectrum(signal, dt):
            return dataclasses.replace(psd(signal, dt), band_energy=band_energy)

        monkeypatch.setattr(experiments, "psd", spectrum)
        with pytest.raises(AnalysisError, match=f"^{message}$"):
            run_flat_top(n_pairs=5)


class TestSpectrumWindow:
    """A train's spectrum is read over exactly its drive plus WINDOW_PERIODS
    plasma periods whatever horizon its record settled at: the record
    zero-extended to the window, or cut at its end if it ran longer."""

    @pytest.fixture
    def records(self, monkeypatch):
        """(settled record, psd's input) of every train point run."""
        records, trajs = [], []
        settle = experiments._simulate_settled

        def settling(*args):
            traj, e_in = settle(*args)
            trajs.append(traj)
            return traj, e_in

        def recording(signal, dt, **kwargs):
            records.append((trajs[-1], signal))
            return psd(signal, dt, **kwargs)

        monkeypatch.setattr(experiments, "_simulate_settled", settling)
        monkeypatch.setattr(experiments, "psd", recording)
        return records

    @pytest.mark.parametrize("runner", [
        pytest.param(run_flat_top, id="flat_top"),
        pytest.param(run_gaussian, id="gaussian"),
        pytest.param(lambda: run_bandwidth_sweep([50]).runs[0], id="bandwidth_sweep"),
    ])
    def test_window_is_that_of_a_whole_first_tail(self, monkeypatch, records, runner):
        runner()
        monkeypatch.setattr(experiments, "TAIL_PERIODS", experiments.WINDOW_PERIODS)
        runner()
        (traj, settled), (whole_traj, whole) = records
        assert settled.size == whole.size
        # the settled record stops short of the window; zeros make up the rest
        q = experiments._band_stride(traj.derived, traj.dt, whole_traj.times.size)
        kept = -(-traj.times.size // q)
        assert kept < settled.size
        assert not settled[kept:].any()
        assert settled[:kept].tobytes() == (
            traj.v_nodeN[::q] / math.sqrt(traj.circuit.z_out)).tobytes()

    def test_a_record_past_the_window_is_cut_at_the_window(self, monkeypatch, records):
        # a lightly damped line settles past the window from the default
        # first tail and from one of the whole window, at different horizons;
        # both spectra read the same samples, those up to the window's end
        for periods in (experiments.TAIL_PERIODS, experiments.WINDOW_PERIODS):
            monkeypatch.setattr(experiments, "TAIL_PERIODS", periods)
            run_flat_top(3e-6, 2 * math.pi * 15e9, 3, r_n=1e3)
        (traj, signal), (other, other_signal) = records
        t_window = traj.drive_end + experiments.WINDOW_PERIODS * (
            2 * math.pi / traj.derived.omega_p)
        size = math.ceil(t_window / traj.dt) + 1
        assert size < traj.times.size != other.times.size > size
        q = experiments._band_stride(traj.derived, traj.dt, size)
        assert signal.tobytes() == other_signal.tobytes() == (
            traj.v_nodeN[:size:q] / math.sqrt(traj.circuit.z_out)).tobytes()


class TestBandwidthSweep:
    def test_list_validation(self):
        with pytest.raises(ScenarioError):
            run_bandwidth_sweep([100, 50])
        with pytest.raises(ScenarioError):
            run_bandwidth_sweep([])

    def test_non_integer_pair_count_rejected(self, monkeypatch):
        def no_simulate(*args, **kwargs):
            raise AssertionError("simulate called for a non-integer pair count")

        monkeypatch.setattr(experiments, "simulate", no_simulate)
        with pytest.raises(ScenarioError, match="5.7"):
            run_bandwidth_sweep([5.7, 10])

    def test_small_sweep_narrows(self):
        report = run_bandwidth_sweep([5, 10])
        widths = [r.fwhm for r in report.runs]
        assert widths[1] < widths[0]

    def test_each_point_is_checked_once(self, monkeypatch):
        # the sweep's check hands each point's checked train to the run;
        # nothing checks or builds a point's line a second time
        calls = {"_check_train": 0, "solve_geometry": 0}

        def counting(name):
            fn = getattr(experiments, name)

            def wrapper(*args, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)

            monkeypatch.setattr(experiments, name, wrapper)

        for name in calls:
            counting(name)
        report = run_bandwidth_sweep([3, 6])
        assert calls == {"_check_train": 2, "solve_geometry": 2}
        # each point is the run_flat_top run of its pair count
        omega_p = 2 * math.pi * 15e9
        for run, n in zip(report.runs, (3, 6), strict=True):
            solver.forget_last_run()
            single = run_flat_top(3e-6, omega_p, n, lambda_j=3.17)
            assert run == dataclasses.replace(single, spectrum=None)


class TestEfficiencyMap:
    def test_single_point_smoke(self):
        report = run_efficiency_map([4e-6], [2 * math.pi * 20e9], "flat_top")
        assert len(report.runs) == 1
        assert 0.0 < report.runs[0].eta <= 1.0
        assert report.provenance["eta_max"] == report.runs[0].eta

    def test_grid_validation(self):
        with pytest.raises(ScenarioError):
            run_efficiency_map([], [1.0], "flat_top")
        with pytest.raises(ScenarioError):
            run_efficiency_map([1e-6], [1.0], "bogus")

    @staticmethod
    def _map_call(i_c, f_p):
        return experiments._map_run(
            i_c, 2 * math.pi * f_p, experiments.MAP_ALPHA_IN,
            experiments.MAP_DAMPING_QUALITY, DEFAULT_DT_DIVISOR,
        )

    @pytest.mark.parametrize("protocol", ["flat_top", "gaussian"])
    @pytest.mark.parametrize("i_c, f_p", [(2e-6, 22e9), (3e-6, 30e9)])
    def test_map_point_eta_is_the_runners(self, protocol, i_c, f_p):
        runner = experiments.SCENARIOS[protocol]
        kwargs = self._map_call(i_c, f_p)
        eta = experiments._map_point(*runner.check(**kwargs))
        solver.forget_last_run()
        assert eta == runner(**kwargs).eta

    def test_map_point_carries_a_spacing_multiple(self):
        kwargs = {**self._map_call(3e-6, 26e9), "spacing_multiple": 0.9}
        point = run_flat_top.check(**kwargs)
        assert point[0]["spacing"] == schedule_spacing(derive(point[1]), 0.9)
        eta = experiments._map_point(*point)
        solver.forget_last_run()
        assert eta == run_flat_top(**kwargs).eta
        default = run_flat_top.check(**self._map_call(3e-6, 26e9))
        assert eta != experiments._map_point(*default)

    def test_map_checks_each_point_once_and_builds_no_spectrum(self, monkeypatch):
        calls = {"psd": 0, "esd": 0, "_check_train": 0}

        def counting(owner, name):
            fn = getattr(owner, name)

            def counted(*args, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)

            monkeypatch.setattr(owner, name, counted)

        counting(experiments, "psd")
        counting(analysis, "esd")
        counting(experiments, "_check_train")
        grid = ([2e-6, 3e-6], [2 * math.pi * f for f in (22e9, 26e9)])
        report = run_efficiency_map(*grid, "gaussian")
        assert len(report.runs) == 4
        assert calls == {"psd": 0, "esd": 0, "_check_train": 4}


class TestGridChecks:
    """Every grid checks each of its points once, all of them before the
    first point integrates, and hands the checked points to its measurement."""

    @pytest.mark.parametrize("run, points", [
        pytest.param(lambda: run_table1(), 8, id="table1"),
        pytest.param(lambda: run_bandwidth_sweep([3, 6]), 2, id="bandwidth_sweep"),
        pytest.param(lambda: run_efficiency_map(
            [2e-6, 3e-6], [2 * math.pi * f for f in (22e9, 26e9)]), 4,
            id="efficiency_map"),
    ])
    def test_every_point_is_checked_before_the_first_settles(
        self, monkeypatch, run, points
    ):
        checks = []
        check = experiments._check_train

        def counting(a):
            checks.append(a)
            return check(a)

        class Settled(Exception):
            pass

        def first_settle(*args):
            raise Settled(len(checks))

        monkeypatch.setattr(experiments, "_check_train", counting)
        monkeypatch.setattr(experiments, "_simulate_settled", first_settle)
        with pytest.raises(Settled) as settled:
            run()
        assert settled.value.args == (points,)

    @pytest.mark.parametrize("runner, args", [
        pytest.param(run_bandwidth_sweep, ([2, 3],), id="bandwidth_sweep"),
        pytest.param(run_efficiency_map, ([2e-6, 3e-6], [2 * math.pi * 22e9], "gaussian"),
                     id="efficiency_map"),
    ])
    def test_runner_settles_each_checked_point(self, monkeypatch, runner, args):
        # the check resolves each point to (config, simulate's arguments),
        # and the runner settles exactly those, in order, under that config
        points = runner.check(*args)
        calls = []
        settle = experiments._simulate_settled

        def spying(*point):
            calls.append(point)
            return settle(*point)

        monkeypatch.setattr(experiments, "_simulate_settled", spying)
        report = runner(*args)
        assert calls == [tuple(point[1:]) for point in points]
        assert [run.config for run in report.runs] == [point[0] for point in points]

    def test_every_scenario_has_a_check(self):
        for scenario, runner in experiments.SCENARIOS.items():
            assert callable(getattr(runner, "check", None)), scenario

    @pytest.mark.parametrize("divisor", [50, 10**400], ids=["50", "400_digits"])
    @pytest.mark.parametrize("run", [
        pytest.param(lambda d: experiments.run_fluxoid_train(
            4e-6, 2 * math.pi * 20e9, 2, dt_divisor=d), id="run_fluxoid_train"),
        pytest.param(lambda d: run_flat_top(n_pairs=2, dt_divisor=d), id="run_flat_top"),
        pytest.param(lambda d: run_gaussian(n_pairs=2, dt_divisor=d), id="run_gaussian"),
        pytest.param(lambda d: run_bandwidth_sweep([2], dt_divisor=d),
                     id="run_bandwidth_sweep"),
        pytest.param(lambda d: run_efficiency_map(
            [2e-6], [2 * math.pi * 22e9], dt_divisor=d), id="run_efficiency_map"),
        pytest.param(lambda d: run_single_fluxon((0.2,), dt_divisor=d),
                     id="run_single_fluxon"),
        pytest.param(lambda d: run_table1(d), id="run_table1"),
    ])
    def test_library_calls_refuse_a_bad_step(self, monkeypatch, run, divisor):
        # the run setting is refused as the CLI refuses it, before any
        # float arithmetic on it and before anything integrates
        def no_simulate(*args, **kwargs):
            raise AssertionError("simulate called with a bad dt_divisor")

        monkeypatch.setattr(experiments, "simulate", no_simulate)
        with pytest.raises(ScenarioError, match="^dt_divisor must be [<>]= "):
            run(divisor)


class TestScenarioDispatch:
    def test_unknown_id_rejected_with_listing(self):
        with pytest.raises(ScenarioError, match="single_fluxon"):
            run_scenario("nope", {})

    def test_dispatch_flat_top(self):
        report = run_scenario("flat_top", {"n_pairs": 6})
        assert report.scenario == "flat_top"
        assert report.runs[0].f0 is not None

    def test_coarse_dt_divisor_rejected_before_running(self, monkeypatch):
        def no_runner(**kwargs):
            raise AssertionError("runner called with a too coarse dt_divisor")

        monkeypatch.setitem(experiments.SCENARIOS, "flat_top", no_runner)
        with pytest.raises(ScenarioError, match="dt_divisor"):
            run_scenario("flat_top", {"dt_divisor": 99})

    @pytest.mark.parametrize("scenario", ["table1", "flat_top"])
    @pytest.mark.parametrize("entry", [check_scenario, run_scenario])
    def test_unknown_key_is_refused_by_name(self, monkeypatch, entry, scenario):
        # the same message from both entries, for a grid runner and a
        # single-point runner, before anything integrates
        monkeypatch.setattr(experiments, "simulate", None)
        with pytest.raises(
            ScenarioError, match=f"^scenario '{scenario}' takes no parameter 'bogus'$"
        ):
            entry(scenario, {"bogus": 1})

    def test_table_constants_shape(self):
        assert len(TABLE1_FLAT_TOP) == 4
        assert len(TABLE1_GAUSSIAN) == 4
        for row in TABLE1_FLAT_TOP + TABLE1_GAUSSIAN:
            assert len(row) == 8


class TestOutputs:
    def test_write_outputs(self, tmp_path):
        report = run_single_fluxon(0.2)
        paths = report.write_outputs(tmp_path)
        summary = tmp_path / "single_fluxon_summary.json"
        assert str(summary) in paths
        payload = json.loads(summary.read_text())
        assert payload["scenario"] == "single_fluxon"
        spectrum_files = [p for p in paths if p.endswith("spectrum.csv")]
        assert spectrum_files
        with open(spectrum_files[0]) as fh:
            assert fh.readline().strip() == "freq,psd"


class TestDriveModels:
    @pytest.mark.parametrize(
        "runner, theta_peak",
        [(run_flat_top, math.pi), (run_gaussian, GAUSSIAN_PEAK_THETA)],
    )
    def test_source_is_incident_train_at_half_area(self, runner, theta_peak):
        # an EMF V behind z_in is the incident wave V/2 on the input line
        source = runner(n_pairs=5, drive_model="source")
        incident = runner(n_pairs=5, drive_model="incident",
                          theta_peak=theta_peak / 2)
        for name in ("f0", "fwhm", "eta", "power"):
            assert getattr(source, name) == getattr(incident, name), name

    def test_unknown_drive_model_rejected_before_simulating(self, monkeypatch):
        def no_simulate(*args, **kwargs):
            raise AssertionError("simulate called for an invalid drive_model")

        monkeypatch.setattr(experiments, "simulate", no_simulate)
        with pytest.raises(ScenarioError, match="'bogus'"):
            run_flat_top(n_pairs=5, drive_model="bogus")


class TestSigma:
    @pytest.mark.parametrize("runner", [
        run_flat_top, functools.partial(run_gaussian, shape="flat_top"),
        run_bandwidth_sweep,
    ])
    def test_flat_top_sigma_rejected_before_simulating(self, monkeypatch, runner):
        def no_simulate(*args, **kwargs):
            raise AssertionError("simulate called for a flat-top train with sigma")

        monkeypatch.setattr(experiments, "simulate", no_simulate)
        with pytest.raises(ScenarioError, match="sigma"):
            runner(sigma=1.5)

    def test_gaussian_sigma_shapes_the_train(self):
        narrow = run_flat_top(n_pairs=3, shape="gaussian", sigma=1.0)
        wide = run_flat_top(n_pairs=3, shape="gaussian", sigma=4.0)
        assert (narrow.config["sigma"], wide.config["sigma"]) == (1.0, 4.0)
        assert narrow.power != wide.power


class TestSettle:
    """A 19-extremum train on a nearly lossless 15 GHz line whose first tail,
    half a plasma period, leaves too much energy stored in the line."""

    @pytest.fixture
    def case(self):
        """The line and the train it settles."""
        i_c, omega_p = 3e-6, 2 * math.pi * 15e9
        l_j = PHI0 / (2 * math.pi * i_c)
        c_j = 1 / (omega_p**2 * l_j)
        r_n = 400 * math.sqrt(l_j / c_j)
        circuit = solve_geometry(i_c, 3.17, omega_p, 3.5, 0.25, 5, r_n)
        derived = derive(circuit)
        width = l_j / R_SFQ
        spacing, envelope = schedule_spacing(derived), PhaseEnvelope.flat_top(19)
        train = compile_envelope(envelope, spacing, width, t_start=5 * width)
        return circuit, train

    @staticmethod
    def _run(case, tail, dt_divisor):
        """simulate's arguments for ``case``: a first tail of ``tail``
        seconds, a step of a ``dt_divisor``-th of the plasma period."""
        circuit, train = case
        t_plasma = 2 * math.pi / derive(circuit).omega_p
        return circuit, train, train.duration + tail, t_plasma / dt_divisor

    @pytest.fixture
    def t_tail0(self, case):
        """A first tail of half a plasma period."""
        return 0.5 * 2 * math.pi / derive(case[0]).omega_p

    def test_tail_doubles_until_settled(self, case, t_tail0, monkeypatch):
        circuit, train = case
        horizons = []
        simulate = experiments.simulate

        def recording(circuit, drive, t_end, dt):
            horizons.append(t_end)
            return simulate(circuit, drive, t_end, dt)

        monkeypatch.setattr(experiments, "simulate", recording)
        traj, e_in = experiments._simulate_settled(*self._run(case, t_tail0, 200))
        assert horizons == pytest.approx(
            [train.duration + 2**k * t_tail0 for k in range(8)], rel=1e-12
        )
        assert traj.times[-1] >= horizons[-1]
        assert traj.stored_energy()[-1] <= experiments.SETTLED * e_in
        assert e_in == forward_energy(
            traj.v_node1, traj.i_in, circuit.z_in, traj.times
        )

    def test_warns_when_extensions_run_out(self, case, t_tail0, monkeypatch):
        monkeypatch.setattr(experiments, "MAX_EXTENSIONS", 0)
        with pytest.warns(UserWarning, match="stored energy residual"):
            experiments._simulate_settled(*self._run(case, t_tail0, 200))

    @staticmethod
    def _default_tail(circuit):
        return experiments.TAIL_PERIODS * 2 * math.pi / derive(circuit).omega_p

    def test_slow_line_settles_from_the_default_tail(self, case):
        # the default first tail on this slowly ringing line settles under
        # SETTLED within MAX_EXTENSIONS, and so without a warning
        tail = self._default_tail(case[0])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            traj, e_in = experiments._simulate_settled(
                *self._run(case, tail, DEFAULT_DT_DIVISOR))
        assert traj.final_stored_energy() <= experiments.SETTLED * e_in

    def test_each_horizon_is_logged(self, case, caplog):
        circuit, train = case
        tail = self._default_tail(circuit)
        caplog.set_level(logging.DEBUG, logger="jtlpulse.experiments")
        traj, e_in = experiments._simulate_settled(
            *self._run(case, tail, DEFAULT_DT_DIVISOR))
        logged = [(r.settle_extension, r.settle_t_end, r.settle_residual)
                  for r in caplog.records if r.name == "jtlpulse.experiments"]
        assert [k for k, _, _ in logged] == list(range(len(logged)))
        assert len(logged) > 1
        assert [t for _, t, _ in logged] == pytest.approx(
            [train.duration + 2**k * tail for k, _, _ in logged], rel=1e-12)
        assert all(r > experiments.SETTLED for _, _, r in logged[:-1])
        assert logged[-1][2] == traj.final_stored_energy() / e_in


class TestRecordBound:
    """The record bound counts the steps of the longest horizon a point can
    reach: a train's last settle extension, a single fluxon's whole run."""

    @pytest.fixture
    def estimates(self, monkeypatch):
        estimates = []
        require = experiments._require_record

        def recording(t_end, t_plasma, dt_divisor):
            estimates.append(t_end / t_plasma * dt_divisor)
            return require(t_end, t_plasma, dt_divisor)

        monkeypatch.setattr(experiments, "_require_record", recording)
        return estimates

    @pytest.fixture
    def steps(self, monkeypatch):
        steps = []
        simulate = experiments.simulate

        def recording(circuit, drive, t_end, dt):
            steps.append(t_end / dt)
            return simulate(circuit, drive, t_end, dt)

        monkeypatch.setattr(experiments, "simulate", recording)
        return steps

    def test_train_bound_is_the_last_extension(self, monkeypatch, estimates, steps):
        # a line that never settles spends every extension
        monkeypatch.setattr(solver.Trajectory, "final_stored_energy",
                            lambda self: math.inf)
        with pytest.warns(UserWarning, match="stored energy residual"):
            run_flat_top(n_pairs=2)
        assert len(steps) == experiments.MAX_EXTENSIONS + 1
        assert estimates == [pytest.approx(steps[-1], rel=1e-12)]

    def test_single_fluxon_bound_is_its_run(self, estimates, steps):
        run_single_fluxon([0.2, 0.3], n_tail_periods=5)
        assert estimates == pytest.approx(steps, rel=1e-12)

    def test_bound_refuses_above_the_limit(self, monkeypatch, estimates):
        run_flat_top.check(n_pairs=2)
        monkeypatch.setattr(experiments, "MAX_RECORD_STEPS", estimates[0] * 0.999)
        with pytest.raises(ScenarioError, match="above the limit"):
            run_flat_top.check(n_pairs=2)
