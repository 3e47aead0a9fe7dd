"""simulate's reuse of its last run: what it copies is what it would compute.

A run on the circuit, dt and loop of the last unseeded run copies the
columns whose drive samples agree and integrates only the rest.  Every
record here is checked by bytes against a cold run (the memo cleared), on
the compiled loop and on the numpy loop.
"""

import math
import sys
import threading
import weakref
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from jtlpulse import experiments, solver
from jtlpulse.circuit import PHI0, derive, solve_geometry
from jtlpulse.cli import main
from jtlpulse.pulses import PulseTrain, sech_pulse
from jtlpulse.solver import simulate

RECORDS = ("times", "phi", "v", "v_source")


class Spy:
    """Stands in for the RK4 loop: notes the column each run starts
    stepping at, the steps it takes, and whether the record of the run
    before it was still alive when it started."""

    def __init__(self, loop):
        self.loop = loop
        self.starts = []
        self.steps = 0
        self.previous_alive = []
        self._previous = None

    def __call__(self, phi_out, v_out, v_drive, dt, lattice):
        record = phi_out.base
        self.starts.append((phi_out.ctypes.data - record.ctypes.data) // 8)
        self.steps += phi_out.shape[1] - 1
        self.previous_alive.append(
            self._previous is not None and self._previous() is not None
        )
        self._previous = weakref.ref(record)
        self.loop(phi_out, v_out, v_drive, dt, lattice)


def _real_loop(name):
    if name == "numpy":
        return solver._rk4_numpy
    loop = solver._rk4_loop()
    assert loop is not solver._rk4_numpy, "the compiled RK4 kernel did not load"
    return loop


@pytest.fixture(params=["compiled", "numpy"])
def spy(request, monkeypatch):
    spy = Spy(_real_loop(request.param))
    monkeypatch.setattr(solver, "_rk4_loop", lambda: spy)
    spy.name = request.param
    return spy


def _assert_same_records(traj, cold):
    for name in RECORDS:
        assert getattr(traj, name).tobytes() == getattr(cold, name).tobytes(), name


def _cold(*args, **kwargs):
    solver.forget_last_run()
    return simulate(*args, **kwargs)


def _circuit(n_jtl=4):
    return solve_geometry(3e-6, 3.17, 2 * math.pi * 15e9, 5.0, 0.25, n_jtl)


def _dt(c):
    return 2.0 * math.pi / derive(c).omega_p / solver.DEFAULT_DT_DIVISOR


def _train(triples):
    """A PulseTrain from (t_center, area in Phi0, width) triples."""
    pulses = tuple(sech_pulse(a * PHI0, w, t) for t, a, w in triples)
    return PulseTrain(pulses=pulses, duration=max(t + 5 * w for t, _, w in triples))


@pytest.fixture
def recorded(monkeypatch):
    """Every simulate call the scenarios make: (args, kwargs, trajectory)."""
    calls = []
    simulate_ = experiments.simulate

    def recording(*args, **kwargs):
        calls.append((args, kwargs, simulate_(*args, **kwargs)))
        return calls[-1][-1]

    monkeypatch.setattr(experiments, "simulate", recording)
    return calls


class TestBandwidthSweep:
    # the default sweep on the compiled loop; a (3, 6)-pair sweep on the
    # numpy loop, whose pace would make the default one the suite's slowest;
    # columns and steps at a two-hundredth of the plasma period a step
    CASES = {"compiled": ((50, 100, 200, 500), [0, 9592, 19592, 39592], 114_212),
             "numpy": ((3, 6), [0, 192], 3_847 + 4_255)}

    def test_points_resume_where_the_trains_part(self, spy, recorded):
        n_pairs, starts, steps = self.CASES[spy.name]
        experiments.run_bandwidth_sweep(n_pairs, dt_divisor=200)
        assert spy.starts == starts
        assert spy.steps == steps
        assert len(recorded) == len(n_pairs)
        for args, kwargs, traj in recorded:
            cold = _cold(*args, **kwargs)
            assert spy.starts[-1] == 0
            _assert_same_records(traj, cold)


class TestSettleExtension:
    def test_extension_integrates_only_its_tail(self, spy, recorded, monkeypatch):
        # a short first tail on a lightly damped line forces extensions
        monkeypatch.setattr(experiments, "TAIL_PERIODS", experiments.TAIL_PERIODS / 2)
        experiments.run_flat_top(3e-6, 2 * math.pi * 15e9, 3, r_n=1e3)
        ends = [traj.times.size - 1 for _, _, traj in recorded]
        assert len(ends) == 4
        assert spy.starts == [0, *ends[:-1]]
        assert spy.steps == ends[-1]
        args, kwargs, traj = recorded[-1]
        _assert_same_records(traj, _cold(*args, **kwargs))


class TestHitsAndMisses:
    T_END = 4e-10

    @pytest.fixture
    def base(self):
        c = _circuit()
        return c, _train([(6e-11, 1.0, 3e-12), (1.6e-10, -1.0, 3e-12)])

    def test_same_inputs_copy_the_whole_record(self, spy, base):
        c, train = base
        first = simulate(c, train, self.T_END)
        again = simulate(c, train, self.T_END)
        assert spy.starts == [0, first.times.size - 1]
        _assert_same_records(again, first)

    def test_shorter_run_is_a_prefix(self, spy, base):
        c, train = base
        simulate(c, train, self.T_END)
        short = simulate(c, train, self.T_END / 2)
        assert spy.starts[-1] == short.times.size - 1
        _assert_same_records(short, _cold(c, train, self.T_END / 2))

    @pytest.mark.parametrize("change", ["circuit", "dt", "loop", "undriven",
                                        "driven", "seeded"])
    def test_miss(self, spy, base, change, monkeypatch):
        c, train = base
        first, second = (c, train, self.T_END), (c, train, self.T_END)
        kwargs = {}
        if change == "circuit":
            second = (replace(c, z_out=c.z_out * 1.5), train, self.T_END)
        elif change == "dt":
            kwargs = {"dt": _dt(c) * 0.75}
        elif change == "undriven":
            second = (c, None, self.T_END)
        elif change == "driven":
            first = (c, None, self.T_END)
        elif change == "seeded":
            kwargs = {"initial_phi": np.zeros(c.n_jtl)}
        simulate(*first)
        if change == "loop":
            # another loop object, stepping the same way
            other = Spy(spy.loop)
            monkeypatch.setattr(solver, "_rk4_loop", lambda: other)
            traj = simulate(*second)
            assert other.starts == [0]
        else:
            traj = simulate(*second, **kwargs)
            assert spy.starts == [0, 0]
        _assert_same_records(traj, _cold(*second, **kwargs))

    def test_seeded_run_is_not_remembered(self, spy, base):
        c, train = base
        simulate(c, train, self.T_END)
        simulate(c, None, self.T_END, initial_phi=np.full(c.n_jtl, 0.1))
        assert solver._last is None
        simulate(c, train, self.T_END)
        assert spy.starts == [0, 0, 0]

    @pytest.mark.parametrize("hit", [False, True], ids=["miss", "hit"])
    def test_remembered_record_dropped_before_stepping(self, spy, base, hit):
        c, train = base
        simulate(c, train, self.T_END)  # the record is referenced by the memo only
        simulate(c if hit else replace(c, l=c.l * 1.1), train, 2 * self.T_END)
        assert (spy.starts[-1] > 0) == hit
        assert spy.previous_alive == [False, False]

    def test_failed_run_leaves_no_record(self, spy, base):
        c, train = base
        simulate(c, train, self.T_END)
        # the run resumes, then a NaN drive sample makes the state non-finite
        blowup = _train([(6e-11, 1.0, 3e-12), (1.6e-10, math.nan, 3e-12)])
        with pytest.raises(solver.SolverError, match="non-finite state"):
            simulate(c, blowup, self.T_END)
        assert spy.starts[-1] > 0
        assert solver._last is None

    def test_records_are_read_only(self, base):
        traj = simulate(*base, self.T_END)
        for name in RECORDS:
            with pytest.raises(ValueError, match="read-only"):
                getattr(traj, name)[..., 0] = 1.0


class TestRecordLifetime:
    """A scenario holds at most one record while it integrates: no
    trajectory it got from simulate is alive when the next run samples its
    drive, which happens after a resumed run has copied its prefix."""

    @pytest.fixture
    def alive(self, monkeypatch):
        """(trajectories simulate returned, how many of them were alive at
        each PulseTrain.sample call)."""
        refs, counts = [], []
        simulate_, sample = experiments.simulate, PulseTrain.sample

        def recording(*args, **kwargs):
            traj = simulate_(*args, **kwargs)
            refs.append(weakref.ref(traj))
            return traj

        def counting(train, t):
            counts.append(sum(ref() is not None for ref in refs))
            return sample(train, t)

        monkeypatch.setattr(experiments, "simulate", recording)
        monkeypatch.setattr(PulseTrain, "sample", counting)
        return refs, counts

    # each case with its simulate calls: the sweep's second point resumes
    # from its first, the Gaussian map points settle at their first tails,
    # and the detuned map point (flat-top, 2 uA, 20 GHz, at 1.087 f_p)
    # extends its tail once, resuming from its first horizon
    CASES = {
        "single_fluxon": (lambda: experiments.run_single_fluxon(
            (0.2, 0.3), n_tail_periods=20), 2),
        "bandwidth_sweep": (lambda: experiments.run_bandwidth_sweep((3, 6)), 2),
        "efficiency_map": (lambda: experiments.run_efficiency_map(
            (2e-6, 3e-6), (2 * math.pi * 20e9,), "gaussian"), 2),
        "settle_extension": (lambda: experiments.run_flat_top(
            **experiments._map_run(2e-6, 2 * math.pi * 20e9, experiments.MAP_ALPHA_IN,
                                   experiments.MAP_DAMPING_QUALITY,
                                   solver.DEFAULT_DT_DIVISOR),
            spacing_multiple=1 / 1.087), 2),
    }

    @pytest.mark.parametrize("case", CASES)
    def test_no_record_alive_while_the_next_run_samples(self, alive, case):
        run, calls = self.CASES[case]
        run()
        refs, counts = alive
        assert len(refs) == calls
        assert counts == [0] * calls

    def test_cli_run_drops_the_record_before_writing(self, tmp_path, monkeypatch):
        remembered = []
        write = experiments.ScenarioReport.write_outputs

        def writing(report, outdir):
            remembered.append(solver._last)
            return write(report, outdir)

        monkeypatch.setattr(experiments.ScenarioReport, "write_outputs", writing)
        config = tmp_path / "fluxon.ini"
        config.write_text("[scenario]\nid = single_fluxon\nalpha_out_grid = 0.2\n"
                          "n_tail_periods = 20\n")
        assert main(["run", "--config", str(config), "--out", str(tmp_path / "out")]) == 0
        assert remembered == [None]

    def test_library_calls_keep_resuming(self, spy, recorded):
        experiments.run_flat_top(n_pairs=3)
        experiments.run_flat_top(n_pairs=6)
        ends = [traj.times.size - 1 for _, _, traj in recorded]
        assert len(ends) == 2
        assert 0 < spy.starts[1] < ends[0]
        assert spy.starts[0] == 0
        assert spy.steps == ends[0] + ends[1] - spy.starts[1]


def test_threads_racing_on_the_memo_get_cold_results():
    # four threads alternate between runs that share a prefix and runs that
    # miss, with the interpreter switching threads as often as it can
    c = _circuit()
    trains = [_train([(6e-11, 1.0, 3e-12), (1.6e-10, area, 3e-12)])
              for area in (-1.0, -0.5)]
    cases = [(c, trains[0], 4e-10), (c, trains[1], 4.2e-10),
             (replace(c, z_out=2 * c.z_out), trains[0], 3e-10)]
    cold = [_cold(*case) for case in cases]
    mismatches, done = [], []

    def work(k):
        for j in range(12):
            case = (j + k) % len(cases)
            traj = simulate(*cases[case])
            if any(getattr(traj, n).tobytes() != getattr(cold[case], n).tobytes()
                   for n in RECORDS):
                mismatches.append((k, j))
        done.append(k)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=work, args=(k,)) for k in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert sorted(done) == [0, 1, 2, 3]
    assert mismatches == []


# Pulse widths and times in steps of dt, so the windows (26 widths either
# side) cover a few hundred of the run's steps.
_pulse = st.tuples(st.floats(0.0, 40.0), st.floats(-1.5, 1.5), st.floats(1.0, 4.0))


@settings(max_examples=40, deadline=None)
@given(
    loop=st.sampled_from(["compiled", "numpy"]),
    shared=st.lists(_pulse, max_size=3),
    first=_pulse,
    b_area=st.floats(-1.5, 1.5),
    wider=st.floats(1.0, 2.5),
    lead=st.floats(0.0, 1.0),
    holder=st.sampled_from(["a", "b", "both"]),
    tails=st.tuples(st.integers(1, 200), st.integers(1, 200)),
)
def test_shared_columns_never_over_claim(
    loop, shared, first, b_area, wider, lead, holder, tails
):
    """Trains A and B share their leading pulses, part at the next, and a
    later pulse wider than the parting one starts its window earlier.  B
    resumed from A copies only columns whose drive samples agree."""
    c = _circuit(n_jtl=3)
    dt = _dt(c)
    t, triples = 150.0, []
    for gap, area, width in shared:
        t += gap
        triples.append((t, area, width))
    gap, a_area, width = first
    t += gap
    if b_area == a_area:
        b_area = -a_area if a_area else 1.0
    wide = width * wider
    # the later pulse's window starts up to 26 (wide - width) steps earlier
    later = (t + 26.0 * (wide - width) * lead, 0.5, wide)
    a = triples + [(t, a_area, width)] + ([later] if holder != "b" else [])
    b = triples + [(t, b_area, width)] + ([later] if holder != "a" else [])
    train_a, train_b = (_train([(tc * dt, ar, w * dt) for tc, ar, w in p]) for p in (a, b))
    ends = [train.duration + n * dt for train, n in zip((train_a, train_b), tails)]

    spy = Spy(_real_loop(loop))
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(solver, "_rk4_loop", lambda: spy)
        solver.forget_last_run()
        simulate(c, train_a, ends[0], dt)
        resumed = simulate(c, train_b, ends[1], dt)
        cold = _cold(c, train_b, ends[1], dt)
    # a resumed run claims drive samples 0..2 s; a cold one (s = 0) none
    s = spy.starts[1]
    grid = 0.5 * dt * np.arange(2 * s + 1 if s else 0)
    assert train_a.sample(grid).tobytes() == train_b.sample(grid).tobytes()
    _assert_same_records(resumed, cold)
