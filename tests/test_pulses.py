"""Pulse shapes, width rules, envelope compilation."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from jtlpulse.circuit import PHI0, solve_geometry, derive
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

    def test_even_multiple_rejected(self):
        with pytest.raises(ValueError, match="odd"):
            schedule_spacing(_derived(), 2)

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

    def test_overlap_flagged(self):
        with pytest.warns(UserWarning, match="overlap"):
            compile_envelope(PhaseEnvelope.flat_top(3, math.pi), 8e-12, 5e-12)

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


class TestSerialization:
    def test_duration_invariant_enforced(self):
        p = sech_pulse(PHI0, 10e-12, t_center=1e-10)
        with pytest.raises(ValueError, match="duration"):
            PulseTrain(pulses=(p,), duration=1e-10)
