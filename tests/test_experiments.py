"""Scenario harness: regimes, determinism, provenance, table structure."""

import dataclasses
import functools
import json
import math
import os
import signal
import time

import numpy as np
import pytest

from jtlpulse import analysis, experiments
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
    run_bandwidth_sweep,
    run_efficiency_map,
    run_flat_top,
    run_gaussian,
    run_scenario,
    run_single_fluxon,
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
        # 256-sample floor, so the spectrum is taken at the full rate
        run = run_single_fluxon((0.25,), n_tail_periods=2).runs[0]
        assert run.f0 == pytest.approx(22.44e9, rel=1e-3)


class TestTrainScenarios:
    def test_geometry_rules(self):
        assert _jtl_length(3.17) == 5
        assert _jtl_length(2.50) == 4
        assert _jtl_length(10.0) == 5   # clamped
        assert _jtl_length(1.0) == 4    # clamped

    def test_flat_top_run_is_deterministic(self):
        a = run_flat_top(4e-6, 2 * math.pi * 19.6e9, 10)
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


def _derived(lambda_j, f_p=15e9):
    return derive(solve_geometry(3e-6, lambda_j, 2 * math.pi * f_p, 5.0, 0.25, 5))


class TestBandStride:
    @pytest.mark.parametrize(
        "lambda_j, dt_divisor, q",
        [(3.17, DEFAULT_DT_DIVISOR, 7), (3.3, DEFAULT_DT_DIVISOR, 7),
         (2.5, DEFAULT_DT_DIVISOR, 9), (3.17, MIN_DT_DIVISOR, 3)],
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
        d = _derived(3.17)
        dt = 2 * math.pi / d.omega_p / DEFAULT_DT_DIVISOR
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
        run = experiments._table1_row(row, protocol, DEFAULT_DT_DIVISOR)
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
        pytest.param(lambda: experiments._table1_row(
            TABLE1_FLAT_TOP[0], "flat_top", DEFAULT_DT_DIVISOR), id="table1_flat_top"),
        pytest.param(lambda: experiments._table1_row(
            TABLE1_GAUSSIAN[0], "gaussian", DEFAULT_DT_DIVISOR), id="table1_gaussian"),
        pytest.param(lambda: run_efficiency_map(
            [3e-6], [2 * math.pi * 26e9], "gaussian", jobs=1), id="efficiency_map"),
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
        run = experiments._table1_row(row, protocol, DEFAULT_DT_DIVISOR)
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


class TestEfficiencyMap:
    def test_single_point_smoke(self):
        report = run_efficiency_map(
            [4e-6], [2 * math.pi * 20e9], "flat_top", jobs=1
        )
        assert len(report.runs) == 1
        assert 0.0 < report.runs[0].eta <= 1.0
        assert report.provenance["eta_max"] == report.runs[0].eta

    def test_grid_validation(self):
        with pytest.raises(ScenarioError):
            run_efficiency_map([], [1.0], "flat_top")
        with pytest.raises(ScenarioError):
            run_efficiency_map([1e-6], [1.0], "bogus")

    def test_parallel_reduction_is_deterministic(self):
        # two jobs split the nine points 5/4; three split them 3/3/3, two
        # of the shares in children
        grid = ([2e-6, 3e-6, 4e-6], [2 * math.pi * f for f in (10e9, 15e9, 20e9)])
        serial = run_efficiency_map(*grid, "gaussian", jobs=1).to_json()
        for jobs in (2, 3):
            assert run_efficiency_map(*grid, "gaussian", jobs=jobs).to_json() == serial


def _raise_on(bad, exc_type=ScenarioError):
    def point(x):
        if x == bad:
            raise exc_type(f"bad point {x}")
        return x

    return point


class _KeywordError(Exception):
    """Pickles by its args, which leave out the keyword it requires."""

    def __init__(self, message, *, point):
        super().__init__(message)
        self.point = point


class TestPoolMap:
    @pytest.fixture(autouse=True)
    def no_child_left(self):
        yield
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)

    def test_default_counts_usable_cores(self, monkeypatch):
        # confined to one core, the default is serial: no process is
        # forked, whatever the machine's core count
        def no_fork():
            raise AssertionError("a process was forked on one usable core")

        monkeypatch.setattr(experiments.os, "sched_getaffinity", lambda pid: {0},
                            raising=False)
        monkeypatch.setattr(experiments.os, "cpu_count", lambda: 64)
        monkeypatch.setattr(experiments.os, "fork", no_fork)
        assert experiments._pool_map(pow, [(2, 3), (3, 2)], None) == [8, 9]

    @pytest.mark.parametrize("bad", [0, 1], ids=["caller", "child"])
    def test_error_reraises_with_type_and_message(self, bad):
        # at jobs=2 the caller computes the even tasks, the child the odd
        with pytest.raises(ScenarioError, match=f"^bad point {bad}$"):
            experiments._pool_map(_raise_on(bad), [(0,), (1,), (2,)], 2)

    @pytest.mark.parametrize("step", ["dumps", "loads"])
    def test_unpicklable_error_arrives_as_runtime_error(self, step):
        class LocalError(Exception):
            """A local class: pickle cannot find it by name."""

        exc_type = (LocalError if step == "dumps"
                    else functools.partial(_KeywordError, point=1))
        name = "LocalError" if step == "dumps" else "_KeywordError"
        with pytest.raises(RuntimeError, match=f"^{name}: bad point 1$"):
            experiments._pool_map(_raise_on(1, exc_type), [(0,), (1,)], 2)

    def test_killed_child_names_signal_and_others_are_killed(self):
        def point(x):
            if x == 1:
                os.kill(os.getpid(), signal.SIGKILL)
            if x == 2:
                time.sleep(60)  # the caller has to kill this child
            return x

        start = time.monotonic()
        with pytest.raises(ChildProcessError, match="SIGKILL"):
            experiments._pool_map(point, [(0,), (1,), (2,)], 3)
        assert time.monotonic() - start < 30

    def test_results_beyond_pipe_buffer_arrive_in_order(self):
        # 1 MB per result, far beyond a 64 KiB pipe buffer
        results = experiments._pool_map(
            lambda x: np.full(125_000, float(x)), [(x,) for x in range(5)], 2
        )
        assert [a.shape for a in results] == [(125_000,)] * 5
        for x, a in enumerate(results):
            assert np.all(a == x)


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


class TestSettle:
    """A 19-extremum train on a nearly lossless 15 GHz line whose first tail,
    half a plasma period, leaves too much energy stored in the line."""

    @pytest.fixture
    def case(self):
        i_c, omega_p = 3e-6, 2 * math.pi * 15e9
        l_j = PHI0 / (2 * math.pi * i_c)
        c_j = 1 / (omega_p**2 * l_j)
        r_n = 400 * math.sqrt(l_j / c_j)
        circuit = solve_geometry(i_c, 3.17, omega_p, 3.5, 0.25, 5, r_n)
        derived = derive(circuit)
        width = l_j / R_SFQ
        train = compile_envelope(
            PhaseEnvelope.flat_top(19), schedule_spacing(derived), width,
            t_start=5 * width,
        )
        t_tail0 = 0.5 * 2 * math.pi / derived.omega_p
        return circuit, train, t_tail0

    def test_tail_doubles_until_settled(self, case, monkeypatch):
        circuit, train, t_tail0 = case
        horizons = []
        simulate = experiments.simulate

        def recording(circuit, drive, t_end, dt):
            horizons.append(t_end)
            return simulate(circuit, drive, t_end, dt)

        monkeypatch.setattr(experiments, "simulate", recording)
        traj, e_in = experiments._simulate_settled(
            circuit, train, t_tail0, dt_divisor=200
        )
        assert horizons == pytest.approx(
            [train.duration + k * t_tail0 for k in (1, 2, 4)], rel=1e-12
        )
        assert traj.times[-1] >= horizons[-1]
        assert traj.stored_energy()[-1] <= 1e-3 * e_in
        assert e_in == forward_energy(
            traj.v_node1, traj.i_in, circuit.z_in, traj.times
        )

    def test_warns_when_extensions_run_out(self, case):
        circuit, train, t_tail0 = case
        with pytest.warns(UserWarning, match="stored energy residual"):
            experiments._simulate_settled(
                circuit, train, t_tail0, dt_divisor=200, max_extensions=0
            )
