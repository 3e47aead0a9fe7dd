"""Lattice dynamics: equilibria, conservation, dispersion, determinism."""

import logging
import math
import os
import re
import subprocess
import sysconfig
import time
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from jtlpulse.circuit import PHI0, CircuitParams, derive, solve_geometry
from jtlpulse import analysis, solver
from jtlpulse.pulses import PulseTrain, sech_pulse
from jtlpulse.solver import (
    SolverError,
    dispersion_check,
    simulate,
    _deriv,
    _lattice,
    _zero_crossing_frequency,
)


def _circuit(n_jtl=13, r_n=None, f_p=15e9, lam=3.17, i_c=4e-6):
    kwargs = {} if r_n is None else {"r_n": r_n}
    return solve_geometry(i_c, lam, 2 * math.pi * f_p, 5.0, 0.25, n_jtl, **kwargs)


# Three plasma periods of _circuit(): psd's 256 samples at any admissible
# step (MIN_DT_DIVISOR and finer)
_THREE_PERIODS = 3 / 15e9


def _open(c):
    """``c`` with both ends left open (infinite terminations)."""
    return replace(c, z_in=math.inf, z_out=math.inf)


@pytest.fixture(scope="module")
def kernel():
    """The compiled RK4 loop; a test of the C path fails if it did not load."""
    loaded = solver._rk4_loop()
    assert loaded is not solver._rk4_numpy, "the compiled RK4 kernel did not load"
    return loaded


def _on_both_loops(monkeypatch, kernel):
    """Yield once with the compiled loop in place, once with the numpy loop,
    each time with no run remembered, so each loop integrates every step."""
    for loop in (kernel, solver._rk4_numpy):
        monkeypatch.setattr(solver, "_rk4_loop", lambda: loop)
        solver.forget_last_run()
        yield


def _assert_loops_identical(monkeypatch, kernel, *args, **kwargs):
    """simulate(*args, **kwargs) gives the same bits on both loops."""
    compiled, reference = [
        simulate(*args, **kwargs) for _ in _on_both_loops(monkeypatch, kernel)
    ]
    for name in ("phi", "v", "v_source"):
        a, b = getattr(compiled, name), getattr(reference, name)
        assert np.array_equal(a, b), name
        # and the same signed zeros, which the CSV outputs spell out
        assert a.tobytes() == b.tobytes(), name


class TestRhs:
    def test_vacuum_equilibrium(self):
        c = _circuit()
        dphi, dv = _deriv(np.zeros(13), np.zeros(13), 0.0, _lattice(c))
        assert np.all(dphi == 0.0)
        assert np.all(dv == 0.0)

    def test_shifted_equilibrium(self):
        # uniform 2 pi with open ends is an equilibrium up to the floating
        # point residue of sin(2 pi)
        c = _open(_circuit())
        phi = np.full(13, 2 * math.pi)
        dphi, dv = _deriv(phi, np.zeros(13), 0.0, _lattice(c))
        scale = c.i_c / c.c_j
        assert np.all(dphi == 0.0)
        assert np.max(np.abs(dv)) < 1e-12 * scale

    def test_port_terms(self):
        c = _circuit()
        v = np.zeros(13)
        v[0], v[-1] = 2e-6, 3e-6
        dphi, dv = _deriv(np.zeros(13), v, 10e-6, _lattice(c))
        # left: (V_drive - v1)/z_in ; right: -vN/z_out (minus damping terms)
        expect_left = ((10e-6 - 2e-6) / c.z_in - 2e-6 / c.r_n) / c.c_j
        expect_right = (-3e-6 / c.z_out - 3e-6 / c.r_n) / c.c_j
        assert dv[0] == pytest.approx(expect_left, rel=1e-12)
        assert dv[-1] == pytest.approx(expect_right, rel=1e-12)
        assert dphi[0] == pytest.approx(2 * math.pi / PHI0 * 2e-6, rel=1e-12)

    def test_mirror_symmetry_without_drive(self):
        # reversing the lattice and swapping the terminations mirrors the
        # derivative exactly
        rng = np.random.default_rng(7)
        c = _circuit()
        mirrored = CircuitParams(
            i_c=c.i_c, c_j=c.c_j, l=c.l, z_in=c.z_out, z_out=c.z_in,
            r_n=c.r_n, n_jtl=c.n_jtl,
        )
        phi = rng.normal(0, 1, 13)
        v = rng.normal(0, 1e-5, 13)
        d1 = _deriv(phi, v, 0.0, _lattice(c))
        d2 = _deriv(
            phi[::-1].copy(), v[::-1].copy(), 0.0, _lattice(mirrored)
        )
        assert np.allclose(d1[0][::-1], d2[0], rtol=1e-13, atol=0)
        assert np.allclose(d1[1][::-1], d2[1], rtol=1e-13, atol=1e-20)

    def test_boundaries_are_conductances(self):
        c = _circuit()
        g_l = PHI0 / (2 * math.pi) / c.l
        # (g_l, g_in, g_out): an infinite termination is an open end
        assert _lattice(c)[:3] == (g_l, 1.0 / c.z_in, 1.0 / c.z_out)
        assert _lattice(_open(c))[:3] == (g_l, 0.0, 0.0)
        assert _lattice(replace(c, z_out=math.inf))[1:3] == (1.0 / c.z_in, 0.0)

    def test_lossless_junction_is_zero_conductance(self):
        assert _lattice(_circuit(r_n=50.0))[3] == 1.0 / 50.0
        assert _lattice(_circuit(r_n=math.inf))[3] == 0.0


class TestSimulate:
    def test_zero_drive_zero_trajectory(self):
        c = _circuit()
        traj = simulate(c, None, 2e-10)
        assert np.all(traj.phi == 0.0)
        assert np.all(traj.v == 0.0)

    def test_single_cell_plasma_oscillation(self):
        # uniform seeding of a lossless open pair leaves each junction an
        # isolated small pendulum at omega_p
        c = CircuitParams(
            i_c=4e-6, c_j=770e-15, l=7.56e-12, z_in=math.inf, z_out=math.inf,
            r_n=math.inf, n_jtl=2,
        )
        d = derive(c)
        t_end = 12 * 2 * math.pi / d.omega_p
        traj = simulate(
            c, None, t_end, dt=2 * math.pi / d.omega_p / 400,
            initial_phi=np.array([1e-3, 1e-3]),
        )
        f = _zero_crossing_frequency(traj.times, traj.phi[0])
        assert f == pytest.approx(d.omega_p / (2 * math.pi), rel=1e-3)

    def test_lossless_energy_conservation(self):
        c = CircuitParams(
            i_c=4e-6, c_j=770e-15, l=7.56e-12, z_in=math.inf, z_out=math.inf,
            r_n=math.inf, n_jtl=13,
        )
        bump = 0.3 * np.exp(-0.5 * (np.arange(13) - 6.0) ** 2 / 2.0**2)
        traj = simulate(c, None, 5e-9, initial_phi=bump)
        e = traj.stored_energy()
        assert np.max(np.abs(e - e[0])) / e[0] < 1e-3

    def test_lossless_line_dissipates_nothing(self):
        c = _circuit(r_n=math.inf)
        train = PulseTrain(pulses=(sech_pulse(PHI0, 20e-12, 1e-10),), duration=2e-10)
        traj = simulate(c, train, 1e-9)
        assert np.any(traj.v != 0.0)
        assert traj.dissipated_energy() == 0.0
        assert analysis.energy_audit(traj)["e_dissipated"] == 0.0

    def test_gauge_invariance(self):
        # shifting all phases by 2 pi m produces no dynamics
        c = _open(_circuit())
        traj = simulate(c, None, 1e-9, initial_phi=np.full(13, 4 * math.pi))
        assert np.max(np.abs(traj.phi - 4 * math.pi)) < 1e-6
        assert np.max(np.abs(traj.v)) < 1e-12

    @pytest.mark.parametrize("n_jtl", [4, 5, 13])
    def test_final_stored_energy_is_last_sample(self, n_jtl):
        # the record cut after every step in turn, while the fluxon enters
        # the line: bit-identical to the whole record's series each time
        c = _circuit(n_jtl=n_jtl)
        pulse = sech_pulse(PHI0, 20e-12, 1e-10)
        traj = simulate(c, PulseTrain(pulses=(pulse,), duration=2e-10), 2.5e-10)
        series = traj.stored_energy()
        assert series[-1] > 0.0
        for k in range(2, traj.times.size + 1):
            cut = replace(traj, times=traj.times[:k], phi=traj.phi[:, :k],
                          v=traj.v[:, :k], v_source=traj.v_source[:k])
            assert cut.final_stored_energy() == series[k - 1], k

    def test_passivity(self):
        # no drive, finite damping and terminations: energy never grows
        c = _circuit(r_n=50.0)
        bump = 0.5 * np.exp(-0.5 * (np.arange(13) - 6.0) ** 2)
        traj = simulate(c, None, 3e-9, initial_phi=bump)
        e = traj.stored_energy()
        assert np.all(np.diff(e) <= 1e-9 * e[0])

    def test_determinism(self):
        c = _circuit()
        d = derive(c)
        pulse = sech_pulse(PHI0, 20e-12, 1e-10)
        train = PulseTrain(pulses=(pulse,), duration=2e-10)
        a = simulate(c, train, 1e-9)
        solver.forget_last_run()  # else b copies a
        b = simulate(c, train, 1e-9)
        assert np.array_equal(a.phi, b.phi)
        assert np.array_equal(a.v, b.v)

    def test_dt_validation(self, kernel, monkeypatch):
        c = _circuit()
        d = derive(c)
        for _ in _on_both_loops(monkeypatch, kernel):
            with pytest.raises(SolverError, match="dt"):
                simulate(c, None, 1e-9, dt=(2 * math.pi / d.omega_p) / 50)

    @pytest.mark.parametrize("dt", [0.0, -2.5e-13, math.nan])
    def test_dt_must_be_positive(self, dt, kernel, monkeypatch):
        for _ in _on_both_loops(monkeypatch, kernel):
            with pytest.raises(SolverError, match="dt"):
                simulate(_circuit(), None, 1e-9, dt=dt)

    def test_t_end_must_cover_drive(self):
        c = _circuit()
        train = PulseTrain(pulses=(sech_pulse(PHI0, 20e-12, 1e-10),), duration=2e-10)
        with pytest.raises(SolverError, match="t_end"):
            simulate(c, train, 1e-10)

    def test_nonfinite_state_aborts_with_step(self, kernel, monkeypatch):
        c = _circuit()
        bad = np.zeros(13)
        bad[0] = np.nan
        for _ in _on_both_loops(monkeypatch, kernel):
            with pytest.raises(SolverError, match="step"):
                simulate(c, None, 1e-9, initial_phi=bad)

    def test_nonfinite_voltage_on_last_step_aborts_with_step(
        self, kernel, monkeypatch
    ):
        # only the last drive sample is NaN: v turns non-finite on the
        # final step while phi stays finite, so the last column of the
        # record is the first non-finite one
        c = CircuitParams(
            i_c=4e-6, c_j=770e-15, l=7.56e-12, z_in=0.63, z_out=12.6, n_jtl=13
        )
        dt = 2 * math.pi / derive(c).omega_p / 200

        def sample(self, t):
            out = np.zeros_like(t)
            out[-1] = np.nan
            return out

        monkeypatch.setattr(PulseTrain, "sample", sample)
        drive = PulseTrain(pulses=(), duration=0.0)
        for _ in _on_both_loops(monkeypatch, kernel):
            with pytest.raises(SolverError, match=r"non-finite state at step 1001 "):
                simulate(c, drive, 1000 * dt, dt)

    def test_nonfinite_state_reports_first_bad_step(self, kernel, monkeypatch):
        # drive sample 20 is the end-of-step EMF of step 10 (and the start
        # of step 11): column 10 of the record is the first non-finite one
        c = CircuitParams(
            i_c=4e-6, c_j=770e-15, l=7.56e-12, z_in=0.63, z_out=12.6, n_jtl=13
        )
        dt = 2 * math.pi / derive(c).omega_p / 200

        def sample(self, t):
            out = np.zeros_like(t)
            out[20] = np.nan
            return out

        monkeypatch.setattr(PulseTrain, "sample", sample)
        drive = PulseTrain(pulses=(), duration=0.0)
        expected = f"non-finite state at step 10 (t = {10 * dt:.3e} s), "
        for _ in _on_both_loops(monkeypatch, kernel):
            with pytest.raises(SolverError, match=re.escape(expected)):
                simulate(c, drive, 1000 * dt, dt)

    def test_port_records(self):
        c = _circuit()
        train = PulseTrain(pulses=(sech_pulse(PHI0, 20e-12, 1e-10),), duration=2e-10)
        traj = simulate(c, train, 5e-10)
        # incident-wave convention: source EMF is twice the train waveform
        assert np.max(traj.v_source) == pytest.approx(
            2 * train.sample(np.array([1e-10]))[0], rel=1e-2
        )
        assert np.allclose(
            traj.i_in, (traj.v_source - traj.v[0]) / c.z_in, rtol=1e-12
        )
        assert np.allclose(traj.i_out, traj.v[-1] / c.z_out, rtol=1e-12)
        # the in-place port current, bit for bit
        assert traj.i_in.tobytes() == ((traj.v_source - traj.v[0]) / c.z_in).tobytes()


def _train(triples):
    """A PulseTrain from (t_center, area in Phi0, width) triples."""
    pulses = tuple(
        sech_pulse(area * PHI0, width, t) for t, area, width in sorted(triples)
    )
    tail = max((t + 5 * w for t, _, w in triples), default=0.0)
    return PulseTrain(pulses=pulses, duration=tail)


class TestCompiledKernel:
    @pytest.mark.parametrize("r_n", [None, math.inf], ids=["r_n", "lossless"])
    @pytest.mark.parametrize("open_ends", [False, True], ids=["ports", "open"])
    @pytest.mark.parametrize("n_jtl", [4, 5, 12, 13])
    def test_matches_numpy_loop(self, kernel, monkeypatch, n_jtl, open_ends, r_n):
        c = _circuit(n_jtl=n_jtl, r_n=r_n)
        if open_ends:
            c = _open(c)
        train = _train([(1e-10, 1.0, 20e-12), (2e-10, -1.0, 20e-12),
                        (3e-10, 0.5, 10e-12)])
        phi0 = np.random.default_rng(n_jtl).normal(0.0, 1.0, n_jtl)
        _assert_loops_identical(
            monkeypatch, kernel, c, train, 1e-9, initial_phi=phi0
        )

    @settings(max_examples=30, deadline=None)
    @given(
        n_jtl=st.integers(2, 16),
        i_c=st.floats(1e-6, 1e-5),
        lam=st.floats(1.0, 5.0),
        f_p=st.floats(5e9, 30e9),
        alpha_in=st.floats(0.1, 5.0),
        alpha_out=st.floats(0.05, 5.0),
        r_n=st.one_of(st.none(), st.just(math.inf), st.floats(10.0, 1e3)),
        open_ends=st.booleans(),
        pulses=st.lists(
            st.tuples(st.floats(0.0, 2e-10), st.floats(-2.0, 2.0),
                      st.floats(2e-12, 30e-12)),
            max_size=4,
        ),
        seed=st.integers(0, 2**32 - 1),
        n_steps=st.integers(1, 600),
    )
    def test_matches_numpy_loop_on_random_circuits(
        self, kernel, n_jtl, i_c, lam, f_p, alpha_in, alpha_out, r_n, open_ends,
        pulses, seed, n_steps,
    ):
        kwargs = {} if r_n is None else {"r_n": r_n}
        c = solve_geometry(i_c, lam, 2 * math.pi * f_p, alpha_in, alpha_out,
                           n_jtl, **kwargs)
        if open_ends:
            c = _open(c)
        train = _train(pulses)
        dt = 2 * math.pi / derive(c).omega_p / 200
        phi0 = np.random.default_rng(seed).normal(0.0, 2.0, n_jtl)
        t_end = max(n_steps * dt, 1.01 * train.duration)
        with pytest.MonkeyPatch.context() as mp:
            _assert_loops_identical(
                mp, kernel, c, train, t_end, dt, initial_phi=phi0
            )

    def test_nonfinite_message_matches_numpy_loop(self, kernel, monkeypatch):
        bad = np.zeros(13)
        bad[3] = np.nan
        messages = []
        for _ in _on_both_loops(monkeypatch, kernel):
            with pytest.raises(SolverError) as err:
                simulate(_circuit(), None, 1e-9, initial_phi=bad)
            messages.append(str(err.value))
        assert messages[0] == messages[1]
        assert "at step 1 " in messages[0]


def _window_args(rows=3, columns=6):
    """Records, drive and lattice for one kernel call on a fresh window."""
    rng = np.random.default_rng(rows * columns)
    phi, v = np.zeros((rows, columns)), np.zeros((rows, columns))
    phi[:, 0] = rng.normal(0.0, 1.0, rows)
    drive = rng.normal(0.0, 1e-6, 2 * columns - 1)
    c = _circuit(n_jtl=rows)
    return phi, v, drive, 2 * math.pi / derive(c).omega_p / 200, _lattice(c)


class TestKernelWindow:
    """The kernel steps a window of trailing columns, and is refused any
    window it would address outside the arrays it is given."""

    def test_steps_a_window_like_the_numpy_loop(self, kernel):
        _, _, drive, dt, lattice = _window_args(columns=7)
        records = []
        for loop in (kernel, solver._rk4_numpy):
            phi, v = np.full((3, 10), 7.0), np.full((3, 10), 7.0)
            phi[:, 3] = [0.1, -0.2, 0.3]
            v[:, 3] = 0.0
            loop(phi[:, 3:], v[:, 3:], drive, dt, lattice)
            records.append((phi, v))
        (phi_c, v_c), (phi_n, v_n) = records
        assert phi_c.tobytes() == phi_n.tobytes()
        assert v_c.tobytes() == v_n.tobytes()
        assert (phi_c[:, :3] == 7.0).all() and (v_c[:, :3] == 7.0).all()

    def test_refuses_unequal_shapes(self, kernel):
        phi, v, drive, dt, lattice = _window_args()
        with pytest.raises(ValueError, match="equal shapes and row strides"):
            kernel(phi, np.zeros((3, 5)), drive, dt, lattice)

    def test_refuses_unequal_row_strides(self, kernel):
        phi, _, drive, dt, lattice = _window_args()
        v = np.zeros((3, 9))[:, 3:]
        with pytest.raises(ValueError, match="equal shapes and row strides"):
            kernel(phi, v, drive, dt, lattice)

    def test_refuses_columns_not_contiguous(self, kernel):
        _, _, drive, dt, lattice = _window_args()
        phi, v = np.zeros((3, 12))[:, ::2], np.zeros((3, 12))[:, ::2]
        with pytest.raises(ValueError, match="contiguous columns"):
            kernel(phi, v, drive, dt, lattice)

    @pytest.mark.parametrize("extra", [-1, 1])
    def test_refuses_wrong_drive_length(self, kernel, extra):
        phi, v, drive, dt, lattice = _window_args()
        drive = np.zeros(drive.size + extra)
        with pytest.raises(ValueError, match=r"2 \(columns - 1\) \+ 1 = 11 samples"):
            kernel(phi, v, drive, dt, lattice)


@pytest.fixture(scope="module")
def warm_cache(tmp_path_factory):
    """A cache directory holding the library built from the shipped source."""
    cache = tmp_path_factory.mktemp("cache")
    with pytest.MonkeyPatch.context() as mp:
        mp.setenv("XDG_CACHE_HOME", str(cache))
        assert solver._load_kernel() is not solver._rk4_numpy
    return cache


@pytest.fixture
def uncached_loop():
    """No RK4 loop chosen yet; the loop a test leaves cached is dropped
    afterwards, so a forced fallback never reaches later tests."""
    solver._rk4_loop.cache_clear()
    yield
    solver._rk4_loop.cache_clear()


def _kernel_notices(caplog):
    return [r for r in caplog.records if r.name == "jtlpulse.solver"]


class TestKernelCache:
    def test_warm_cache_starts_no_process(self, warm_cache, monkeypatch, caplog):
        def no_process(*args, **kwargs):
            raise AssertionError("a cache hit started a process")

        monkeypatch.setenv("XDG_CACHE_HOME", str(warm_cache))
        monkeypatch.setattr(subprocess, "run", no_process)
        caplog.set_level(logging.WARNING, logger="jtlpulse.solver")
        assert solver._load_kernel() is not solver._rk4_numpy
        assert _kernel_notices(caplog) == []

    @pytest.mark.parametrize("edit", ["source", "repr_source", "flags"])
    def test_library_of_other_source_never_loaded(
        self, warm_cache, monkeypatch, caplog, tmp_path, edit
    ):
        # the warm cache holds a good library, but for another key: the
        # loader has to build, and building is made to fail
        if edit == "flags":
            monkeypatch.setattr(solver, "_CFLAGS", (*solver._CFLAGS, "-g"))
        else:
            name = "_RK4_SOURCE" if edit == "source" else "_REPR_SOURCE"
            source = getattr(solver, name)
            edited = tmp_path / source.name
            edited.write_bytes(source.read_bytes() + b"/* edited */\n")
            monkeypatch.setattr(solver, name, edited)
        monkeypatch.setenv("XDG_CACHE_HOME", str(warm_cache))
        monkeypatch.setattr(
            sysconfig, "get_config_var", lambda name: str(tmp_path / "no-cc")
        )
        caplog.set_level(logging.WARNING, logger="jtlpulse.solver")
        assert solver._load_kernel() is solver._rk4_numpy
        assert len(_kernel_notices(caplog)) == 1

    def test_sin_mismatch_refuses_kernel(self, warm_cache, monkeypatch, caplog):
        monkeypatch.setenv("XDG_CACHE_HOME", str(warm_cache))
        monkeypatch.setattr(np, "sin", np.cos)
        caplog.set_level(logging.WARNING, logger="jtlpulse.solver")
        assert solver._load_kernel() is solver._rk4_numpy
        assert len(_kernel_notices(caplog)) == 1

    @pytest.mark.parametrize("failure", ["no compiler", "cache not writable"])
    def test_failure_falls_back_to_numpy(
        self, monkeypatch, caplog, tmp_path, failure, uncached_loop
    ):
        c = _circuit(n_jtl=5)
        train = _train([(1e-10, 1.0, 20e-12)])
        with monkeypatch.context() as mp:
            mp.setattr(solver, "_rk4_loop", lambda: solver._rk4_numpy)
            reference = simulate(c, train, 5e-10)

        monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path / "cache"))
        if failure == "no compiler":
            monkeypatch.setattr(
                sysconfig, "get_config_var", lambda name: str(tmp_path / "no-cc")
            )
        else:
            # a file where the cache directory goes (root ignores mode bits)
            (tmp_path / "cache").write_text("")
        caplog.set_level(logging.WARNING, logger="jtlpulse.solver")
        # each run integrates: none copies the numpy loop's reference
        solver.forget_last_run()
        first = simulate(c, train, 5e-10)
        solver.forget_last_run()
        second = simulate(c, train, 5e-10)
        assert solver._rk4_loop() is solver._rk4_numpy
        assert len(_kernel_notices(caplog)) == 1
        for traj in (first, second):
            assert np.array_equal(traj.phi, reference.phi)
            assert np.array_equal(traj.v, reference.v)


class TestSharedCache:
    def test_build_keeps_other_versions_builds(self, monkeypatch, tmp_path):
        # a cache shared with other versions: their builds must outlive ours
        monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path))
        cache = tmp_path / "jtlpulse"
        cache.mkdir()
        others = [cache / "lib-00000001.so", cache / "rk4-47561ee6.so"]
        hour_ago = time.time() - 3600.0
        for f in others:
            f.write_bytes(b"")
            os.utime(f, (hour_ago, hour_ago))

        built = Path(solver._open_library()._name)
        assert built.parent == cache and built not in others
        assert all(f.exists() for f in [*others, built])
        assert Path(solver._open_library()._name) == built


@pytest.fixture
def uncached_formatter():
    """No CSV formatter chosen yet, and none left cached afterwards."""
    analysis._csv_rows.cache_clear()
    yield
    analysis._csv_rows.cache_clear()


def _jtlpulse_notices(caplog):
    return [r for r in caplog.records if r.name.startswith("jtlpulse")]


def _misprinting_tables(monkeypatch):
    """Make the compiled formatter print wrong digits: every power of five
    in its tables is off by one place."""
    tables = analysis._ryu_tables
    monkeypatch.setattr(
        analysis, "_ryu_tables", lambda: tuple(np.roll(t, 2) for t in tables())
    )


def _awkward_spectrum():
    """A spectrum whose values span every layout repr uses."""
    psd = np.array([0.0, -0.0, 5e-324, 2.2250738585072014e-308, 9.999999999999999e-05,
                    1e-4, 0.1, 1.0 / 3.0, 123.0, 9999999999999998.0, 1e16,
                    1.7976931348623157e308, math.inf, -math.inf, math.nan,
                    -2.5e-17, 4.2e21])
    return analysis.SpectrumResult(freqs=np.arange(psd.size) * 1.25e8 / 3.0,
                                   psd=psd, f0=None, fwhm=None)


class TestCsvFormatterCache:
    def test_formatter_loads_from_the_kernel_build(
        self, warm_cache, monkeypatch, caplog
    ):
        def no_process(*args, **kwargs):
            raise AssertionError("a cache hit started a process")

        monkeypatch.setenv("XDG_CACHE_HOME", str(warm_cache))
        monkeypatch.setattr(subprocess, "run", no_process)
        caplog.set_level(logging.WARNING, logger="jtlpulse")
        assert analysis._load_formatter() is not analysis._repr_rows
        assert _jtlpulse_notices(caplog) == []

    def test_probe_mismatch_refuses_only_the_formatter(
        self, warm_cache, monkeypatch, caplog, tmp_path, uncached_loop,
        uncached_formatter,
    ):
        monkeypatch.setenv("XDG_CACHE_HOME", str(warm_cache))
        _misprinting_tables(monkeypatch)
        caplog.set_level(logging.WARNING, logger="jtlpulse")
        traj = simulate(_circuit(n_jtl=3), None, _THREE_PERIODS,
                        initial_phi=np.array([0.1, -0.2, 0.0]))
        analysis.psd(traj.v[0], traj.dt).to_csv(tmp_path / "spectrum.csv")
        analysis.psd(traj.v[1], traj.dt).to_csv(tmp_path / "spectrum.csv")
        assert solver._rk4_loop() is not solver._rk4_numpy
        assert analysis._csv_rows() is analysis._repr_rows
        notices = _jtlpulse_notices(caplog)
        assert len(notices) == 1
        assert "CSV formatter" in notices[0].getMessage()

    @pytest.mark.parametrize("failure", ["probe mismatch", "no compiler"])
    def test_fallback_writes_the_same_bytes(
        self, warm_cache, monkeypatch, caplog, tmp_path, failure,
        uncached_formatter,
    ):
        # blocks shorter than the spectrum exercise the block boundaries
        monkeypatch.setattr(analysis, "_CSV_BLOCK_ROWS", 7)
        monkeypatch.setenv("XDG_CACHE_HOME", str(warm_cache))
        spectrum = _awkward_spectrum()
        spectrum.to_csv(tmp_path / "compiled.csv")
        assert analysis._csv_rows() is not analysis._repr_rows

        analysis._csv_rows.cache_clear()
        if failure == "probe mismatch":
            _misprinting_tables(monkeypatch)
        else:
            monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path / "cache"))
            monkeypatch.setattr(
                sysconfig, "get_config_var", lambda name: str(tmp_path / "no-cc")
            )
        caplog.set_level(logging.WARNING, logger="jtlpulse")
        spectrum.to_csv(tmp_path / "fallback.csv")
        assert analysis._csv_rows() is analysis._repr_rows
        assert len(_jtlpulse_notices(caplog)) == 1
        compiled = (tmp_path / "compiled.csv").read_bytes()
        assert compiled == (tmp_path / "fallback.csv").read_bytes()
        assert compiled.splitlines()[1:] == [
            f"{f!r},{p!r}".encode() for f, p in zip(spectrum.freqs.tolist(),
                                                    spectrum.psd.tolist())
        ]


class TestDispersion:
    @pytest.mark.parametrize("mode", [1, 2, 3, 4])
    def test_matches_lattice_relation(self, mode):
        # omega(k) = omega_p sqrt(1 + 4 lambda^2 sin^2(k/2)) to 0.5%
        c = _circuit(n_jtl=12, lam=3.17)
        d = derive(c)
        k = 2 * math.pi * mode / 12
        predicted = d.omega_p * math.sqrt(
            1 + 4 * d.lambda_j**2 * math.sin(k / 2) ** 2
        )
        measured = dispersion_check(c, k)
        assert measured == pytest.approx(predicted / (2 * math.pi), rel=5e-3)

    def test_band_edge_value(self):
        # top mode of the 12-cell open chain, k = 11 pi / 12, at
        # lambda = 3.17: omega = 6.365 omega_p (hand evaluation)
        c = _circuit(n_jtl=12, lam=3.17)
        d = derive(c)
        measured = dispersion_check(c, 11 * math.pi / 12)
        assert measured == pytest.approx(
            6.365 * d.omega_p / (2 * math.pi), rel=5e-3
        )

    def test_monotone_in_k(self):
        c = _circuit(n_jtl=12, lam=3.17)
        freqs = [dispersion_check(c, math.pi * m / 12) for m in range(1, 12)]
        assert all(b > a for a, b in zip(freqs, freqs[1:]))

    def test_non_ring_mode_rejected(self):
        # the open chain of 12 cells holds k = pi m / 12 for 0 <= m < 12 only
        c = _circuit(n_jtl=12)
        for k in (0.1234, math.pi, -math.pi / 12):
            with pytest.raises(ValueError, match="not a mode of the open chain"):
                dispersion_check(c, k)


class TestExports:
    def test_csv_round_trip(self, tmp_path, monkeypatch):
        # the spectrum of a simulated record is the run's CSV export; blocks
        # shorter than the spectrum exercise the block boundaries
        monkeypatch.setattr(analysis, "_CSV_BLOCK_ROWS", 7)
        c = _circuit(n_jtl=3)
        traj = simulate(c, None, _THREE_PERIODS, initial_phi=np.array([0.1, -0.2, 0.0]))
        sp = analysis.psd(traj.v[0], traj.dt)
        path = tmp_path / "spectrum.csv"
        sp.to_csv(path)
        assert path.read_text().splitlines()[0] == "freq,psd"
        back = np.loadtxt(path, delimiter=",", skiprows=1)
        assert np.array_equal(back[:, 0], sp.freqs)
        assert np.array_equal(back[:, 1], sp.psd)


class TestConvergence:
    def test_dt_halving_changes_little(self):
        # the acceptance suite checks the full observable set; here the
        # raw state convergence
        c = _circuit(n_jtl=5)
        d = derive(c)
        train = PulseTrain(pulses=(sech_pulse(PHI0, 20e-12, 1e-10),), duration=2e-10)
        t_end = 1.5e-9
        base = 2 * math.pi / d.omega_p / 200
        a = simulate(c, train, t_end, dt=base)
        b = simulate(c, train, t_end, dt=base / 2)
        peak_a = np.max(np.abs(a.phi))
        peak_b = np.max(np.abs(b.phi))
        assert peak_a == pytest.approx(peak_b, rel=1e-3)
