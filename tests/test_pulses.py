"""Pulse shapes, width rules, envelope compilation."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from jtlpulse.circuit import PHI0, solve_geometry, derive
from jtlpulse.experiments import R_SFQ
from jtlpulse.pulses import (
    PhaseEnvelope,
    Pulse,
    PulseTrain,
    compile_envelope,
    schedule_spacing,
    sech_pulse,
    single_fluxon_width,
)


def _derived(f_p=15e9, i_c=4e-6, lam=3.17):
    return derive(solve_geometry(i_c, lam, 2 * math.pi * f_p, 5.0, 0.25, 5))


class TestSechPulse:
    def test_zero_area_is_identically_zero(self):
        p = sech_pulse(0.0, 10e-12)
        t = np.linspace(-1e-10, 1e-10, 101)
        assert np.all(p.voltage(t) == 0.0)

    def test_peak_voltage_hand_value(self):
        # Phi0 / (pi * 24.6 ps) = 26.8 uV
        p = sech_pulse(PHI0, 24.6e-12)
        assert p.peak == pytest.approx(26.8e-6, rel=5e-3)
        assert p.voltage(p.t_center) == pytest.approx(p.peak)

    def test_flux_quantization_quadrature_oracle(self):
        # independent quadrature: dense trapezoid over +-26 widths, where the
        # analytic sech tail is below 1e-11 of the total
        p = sech_pulse(PHI0, 24.6e-12, t_center=3e-10)
        t = p.t_center + p.width * np.linspace(-26, 26, 26 * 2 * 400 + 1)
        flux = np.trapezoid(p.voltage(t), t)
        assert abs(flux - PHI0) / PHI0 < 1e-6

    def test_negative_area_negates_waveform(self):
        t = np.linspace(-5e-11, 5e-11, 64)
        up = sech_pulse(PHI0, 1e-11).voltage(t)
        down = sech_pulse(-PHI0, 1e-11).voltage(t)
        assert np.array_equal(up, -down)

    @pytest.mark.parametrize("width", [0.0, -1e-12])
    def test_width_domain(self, width):
        with pytest.raises(ValueError):
            sech_pulse(PHI0, width)


class TestWidthRules:
    def test_single_fluxon_width_hand_value(self):
        # 2 sqrt(1-v^2) arcsech(1/2) / (v omega_p) = 24.6 ps at 15 GHz, v=0.75
        d = _derived(f_p=15e9)
        assert single_fluxon_width(d, 0.75) == pytest.approx(24.6e-12, rel=3e-3)

    def test_lorentz_contraction_limit(self):
        d = _derived()
        assert single_fluxon_width(d, 0.999999) < 1e-2 * single_fluxon_width(d, 0.5)

    def test_independent_of_lambda_j(self):
        a = derive(solve_geometry(4e-6, 2.0, 2 * math.pi * 15e9, 5.0, 0.25, 5))
        b = derive(solve_geometry(4e-6, 4.0, 2 * math.pi * 15e9, 5.0, 0.25, 5))
        assert single_fluxon_width(a, 0.75) == pytest.approx(
            single_fluxon_width(b, 0.75), rel=1e-12
        )

    @pytest.mark.parametrize("bad", [0.0, 1.0, -0.2])
    def test_velocity_domain(self, bad):
        with pytest.raises(ValueError):
            single_fluxon_width(_derived(), bad)


class TestScheduleSpacing:
    def test_half_period_values(self):
        assert schedule_spacing(_derived(f_p=10e9), 1) == pytest.approx(50e-12)
        assert schedule_spacing(_derived(f_p=15e9), 3) == pytest.approx(100e-12)

    def test_nonpositive_or_nonfinite_multiple_rejected(self):
        for bad in (0, -1, math.nan, math.inf):
            with pytest.raises(ValueError, match="spacing_multiple"):
                schedule_spacing(_derived(), bad)

    def test_any_positive_multiple_accepted(self):
        d = _derived()
        for m in (2, 0.9):
            assert schedule_spacing(d, m) == m * math.pi / d.omega_p

    def test_sequence_durations_match_captions(self):
        # 100 pulses at 10 GHz half-period spacing span ~5.0 ns (caption
        # 5.138 ns); 82 pulses span ~4.05 ns (caption 4.045 ns)
        spacing = schedule_spacing(_derived(f_p=10e9), 1)
        assert 99 * spacing == pytest.approx(5.0e-9, rel=0.02)
        assert 81 * spacing == pytest.approx(4.045e-9, rel=0.02)


class TestCompileEnvelope:
    def test_flat_top_three_extrema(self):
        train = compile_envelope(
            PhaseEnvelope.flat_top(3, math.pi), 50e-12, 5e-12
        )
        areas = [p.area for p in train.pulses]
        expect = [PHI0 / 2, -PHI0, PHI0, -PHI0 / 2]
        assert areas == pytest.approx(expect, rel=1e-12)

    def test_single_excursion(self):
        train = compile_envelope(PhaseEnvelope.flat_top(1, math.pi), 50e-12, 5e-12)
        assert [p.area for p in train.pulses] == pytest.approx(
            [PHI0 / 2, -PHI0 / 2], rel=1e-12
        )

    def test_gaussian_envelope_shape(self):
        env = PhaseEnvelope.gaussian(82, peak=math.pi)
        train = compile_envelope(env, 50e-12, 5e-12)
        areas = np.array([p.area for p in train.pulses])
        assert len(areas) == 83
        assert np.all(np.sign(areas) == [(-1.0) ** k for k in range(83)])
        mags = np.abs(areas)[1:-1]
        peak_at = int(np.argmax(mags))
        assert np.all(np.diff(mags[: peak_at + 1]) >= -1e-30)
        assert np.all(np.diff(mags[peak_at:]) <= 1e-30)
        assert sum(p.area for p in train.pulses) == 0.0

    def test_zero_net_area_exact(self):
        env = PhaseEnvelope.gaussian(41, peak=8 * math.pi, sigma=6.0)
        train = compile_envelope(env, 30e-12, 4e-12)
        assert sum(p.area for p in train.pulses) == 0.0

    def test_superposition_linearity(self):
        train = compile_envelope(PhaseEnvelope.flat_top(5, math.pi), 50e-12, 5e-12)
        t = np.linspace(0.0, train.duration, 4096)
        total = sum(p.voltage(t) for p in train.pulses)
        # sample() windows each pulse at +-26 widths where sech < 1e-11 of peak
        assert np.allclose(train.sample(t), total, rtol=0, atol=1e-9 * np.max(np.abs(total)))

    def test_empty_envelope_rejected(self):
        with pytest.raises(ValueError):
            compile_envelope(PhaseEnvelope(theta=()), 50e-12, 5e-12)

    @given(
        m=st.integers(1, 40),
        peak=st.floats(0.1, 30.0),
        spacing_ps=st.floats(20.0, 200.0),
    )
    @settings(max_examples=40, deadline=None)
    def test_balanced_property(self, m, peak, spacing_ps):
        env = PhaseEnvelope.gaussian(m, peak=peak)
        train = compile_envelope(env, spacing_ps * 1e-12, 4e-12)
        assert sum(p.area for p in train.pulses) == 0.0
        assert len(train.pulses) == m + 1
        centers = [p.t_center for p in train.pulses]
        assert all(b > a for a, b in zip(centers, centers[1:]))


def _sample_loop(train, t):
    """The reference sampler: each pulse's ``voltage`` added on its window."""
    t = np.asarray(t, dtype=float)
    out = np.zeros_like(t)
    for p in train.pulses:
        lo = np.searchsorted(t, p.t_center - 26.0 * p.width)
        hi = np.searchsorted(t, p.t_center + 26.0 * p.width)
        if hi > lo:
            out[lo:hi] += p.voltage(t[lo:hi])
    return out


def _assert_sample_matches_loop(train, t):
    assert train.sample(t).tobytes() == _sample_loop(train, t).tobytes()


def _drive_train(envelope):
    """A train as the protocols compile it at 15 GHz and 3 uA."""
    d = _derived(f_p=15e9, i_c=3e-6)
    width = d.l_j / R_SFQ
    return compile_envelope(envelope, schedule_spacing(d), width, t_start=5 * width)


class TestSample:
    @pytest.mark.parametrize("envelope", [
        PhaseEnvelope.flat_top(39),
        PhaseEnvelope.gaussian(39),
        # a source-model train: the phase, and so every area, halved
        PhaseEnvelope.flat_top(39, 0.5 * math.pi),
    ], ids=["flat_top", "gaussian", "source_halved"])
    def test_matches_loop_on_drive_grids(self, envelope):
        train = _drive_train(envelope)
        dt = train.pulses[0].width / 20.0
        # the solver's half-step grid past the drive
        full = 0.5 * dt * np.arange(2 * int(1.2 * train.duration / dt) + 1)
        _assert_sample_matches_loop(train, full)
        # begins inside the third pulse's window, ends inside the last one's
        mid = train.pulses[2].t_center
        end = train.pulses[-1].t_center + 10.0 * train.pulses[-1].width
        _assert_sample_matches_loop(train, full[(full > mid) & (full < end)])

    def test_windows_between_grid_points_add_nothing(self):
        # every +-26-width window falls between two grid points (hi == lo)
        pulses = tuple(sech_pulse((-1.0) ** k * PHI0, 1e-12, (k + 0.5) * 1e-10)
                       for k in range(6))
        train = PulseTrain(pulses=pulses, duration=1e-9)
        t = 1e-10 * np.arange(11)
        assert np.all(train.sample(t) == 0.0)
        _assert_sample_matches_loop(train, t)
        # a finer grid reaches some windows and misses others
        _assert_sample_matches_loop(train, 0.3e-10 * np.arange(34))

    def test_empty_train_is_zero(self):
        train = PulseTrain(pulses=(), duration=1e-9)
        t = np.linspace(0.0, 1e-9, 101)
        assert train.sample(t).tobytes() == np.zeros(101).tobytes()
        _assert_sample_matches_loop(train, t)

    @given(
        centers=st.lists(st.floats(0.0, 1e-9), min_size=1, max_size=12).map(sorted),
        shapes=st.lists(
            st.tuples(st.floats(1e-13, 5e-11), st.floats(-3.0, 3.0)),
            min_size=12, max_size=12,
        ),
        start=st.floats(-2e-10, 1e-9),
        step=st.floats(1e-14, 5e-12),
        count=st.integers(0, 2000),
    )
    @settings(max_examples=200, deadline=None)
    def test_matches_loop_property(self, centers, shapes, start, step, count):
        pulses = tuple(
            sech_pulse(area * PHI0, width, c)
            for c, (width, area) in zip(centers, shapes)
        )
        tail = pulses[-1].t_center + 5.0 * pulses[-1].width
        train = PulseTrain(pulses=pulses, duration=tail)
        _assert_sample_matches_loop(train, start + step * np.arange(count))


def _pulse_train(triples):
    """A PulseTrain from (t_center, area in Phi0, width) triples, sorted."""
    pulses = tuple(sech_pulse(a * PHI0, w, c) for c, a, w in sorted(triples))
    tail = max((c + 5.0 * w for c, _, w in triples), default=0.0)
    return PulseTrain(pulses=pulses, duration=tail)


class TestSharedSamples:
    def test_flat_top_trains_part_at_the_closing_pulse(self):
        short, long = (_drive_train(PhaseEnvelope.flat_top(2 * n - 1)) for n in (3, 6))
        dt = short.pulses[0].width / 20.0
        t = 0.5 * dt * np.arange(2 * int(long.duration / dt) + 1)
        m = short.shared_samples(long, t)
        closing = short.pulses[-1]
        assert m == np.searchsorted(t, closing.t_center - 26.0 * closing.width)
        a, b = short.sample(t), long.sample(t)
        assert a[:m].tobytes() == b[:m].tobytes()
        assert a[m] != b[m]
        assert long.shared_samples(short, t) == m

    def test_equal_trains_share_every_sample(self):
        train = _drive_train(PhaseEnvelope.gaussian(9))
        t = np.linspace(0.0, train.duration, 500)
        assert train.shared_samples(_drive_train(PhaseEnvelope.gaussian(9)), t) == 500

    @given(
        shared=st.lists(st.tuples(st.floats(0.0, 1e-9), st.floats(-3.0, 3.0),
                                  st.floats(1e-13, 5e-11)), max_size=4),
        rests=st.lists(
            st.lists(st.tuples(st.floats(0.0, 1e-9), st.floats(-3.0, 3.0),
                               st.floats(1e-13, 5e-11)), max_size=3),
            min_size=2, max_size=2,
        ),
        step=st.floats(1e-14, 5e-12),
        count=st.integers(0, 2000),
    )
    @settings(max_examples=200, deadline=None)
    def test_shared_samples_are_equal(self, shared, rests, step, count):
        # the trains share their leading pulses, then go on as they please
        shared = sorted(shared)
        last = shared[-1][0] if shared else 0.0
        a, b = ([(last + c, area, w) for c, area, w in rest] for rest in rests)
        train_a, train_b = _pulse_train(shared + a), _pulse_train(shared + b)
        t = step * np.arange(count)
        m = train_a.shared_samples(train_b, t)
        assert m == train_b.shared_samples(train_a, t)
        assert train_a.sample(t)[:m].tobytes() == train_b.sample(t)[:m].tobytes()
        # sampling the prefix alone gives the same values
        assert train_a.sample(t[:m]).tobytes() == train_b.sample(t)[:m].tobytes()


class TestSerialization:
    def test_duration_invariant_enforced(self):
        p = sech_pulse(PHI0, 10e-12, t_center=1e-10)
        with pytest.raises(ValueError, match="duration"):
            PulseTrain(pulses=(p,), duration=1e-10)
