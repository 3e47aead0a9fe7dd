"""Parameter derivation, reflection thresholds, energy scales."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from jtlpulse.circuit import (
    DEFAULT_R_N,
    PHI0,
    CircuitParams,
    ParameterError,
    derive,
    reflection_thresholds,
    solve_geometry,
)


def _row2_circuit():
    # performance-table flat-top row 2: i_c = 4 uA, L = 8.177 pH, C_J = 800 fF
    return CircuitParams(
        i_c=4e-6, c_j=800e-15, l=8.177e-12, z_in=0.64, z_out=12.8, n_jtl=5
    )


class TestDerive:
    def test_junction_inductance_hand_value(self):
        # Phi0 / (2 pi I_C) at 4 uA, evaluated by hand: 82.27 pH
        d = derive(_row2_circuit())
        assert d.l_j == pytest.approx(82.27e-12, rel=1e-3)

    def test_row2_lambda_and_plasma_frequency(self):
        d = derive(_row2_circuit())
        assert d.lambda_j == pytest.approx(3.17, rel=0.01)
        assert d.omega_p / (2 * math.pi) == pytest.approx(19.62e9, rel=1e-3)

    def test_load_impedance_for_alpha_02(self):
        # lambda_j = 3.3 at 20 GHz, alpha_out = 0.2 -> R_load ~ 15.7 Ohm
        params = solve_geometry(4e-6, 3.3, 2 * math.pi * 20e9, 5.0, 0.2, 13)
        assert params.z_out == pytest.approx(15.7, rel=5e-3)

    def test_velocity_identity(self):
        d = derive(_row2_circuit())
        assert d.c_bar == d.lambda_j * d.omega_p

    def test_termination_ratio_consistency(self):
        p = _row2_circuit()
        d = derive(p)
        assert d.alpha_in * p.z_in == pytest.approx(d.z_jtl, rel=1e-12)
        assert d.alpha_out * p.z_out == pytest.approx(d.z_jtl, rel=1e-12)

    def test_round_trip_consistency(self):
        p = _row2_circuit()
        d = derive(p)
        assert 1.0 / (d.omega_p**2 * d.l_j) == pytest.approx(p.c_j, rel=1e-12)
        assert d.l_j / d.lambda_j**2 == pytest.approx(p.l, rel=1e-12)

    def test_pure_function(self):
        a = derive(_row2_circuit())
        b = derive(_row2_circuit())
        assert a == b

    @pytest.mark.filterwarnings("ignore:beta_c")
    @given(
        i_c=st.floats(5e-7, 2e-5),
        c_j=st.floats(1e-13, 5e-12),
        l=st.floats(1e-12, 5e-11),
    )
    @settings(max_examples=50, deadline=None)
    def test_roundtrip_property(self, i_c, c_j, l):
        p = CircuitParams(i_c=i_c, c_j=c_j, l=l, z_in=1.0, z_out=10.0)
        d = derive(p)
        assert 1.0 / math.sqrt(d.l_j * c_j) == pytest.approx(d.omega_p, rel=1e-12)
        assert d.e_0 > 0
        assert d.c_bar == d.lambda_j * d.omega_p


class TestValidation:
    @pytest.mark.parametrize("name", ["i_c", "c_j", "l", "z_in", "z_out", "r_n"])
    def test_nonpositive_field_names_field(self, name):
        kwargs = dict(i_c=4e-6, c_j=8e-13, l=8e-12, z_in=0.6, z_out=12.0, r_n=3.6)
        kwargs[name] = -1.0
        with pytest.raises(ParameterError, match=name):
            CircuitParams(**kwargs)

    def test_n_jtl_minimum(self):
        with pytest.raises(ParameterError, match="n_jtl"):
            CircuitParams(i_c=4e-6, c_j=8e-13, l=8e-12, z_in=0.6, z_out=12.0,
                          n_jtl=1)

    def test_underdamped_warns_not_raises(self):
        with pytest.warns(UserWarning, match="underdamped"):
            CircuitParams(i_c=4e-6, c_j=8e-13, l=8e-12, z_in=0.6, z_out=12.0,
                          r_n=300.0)

    def test_underdamped_notice_names_the_caller(self):
        with pytest.warns(UserWarning, match="underdamped") as record:
            CircuitParams(i_c=4e-6, c_j=8e-13, l=8e-12, z_in=0.6, z_out=12.0,
                          r_n=1000.0)
        assert record[0].filename == __file__


class TestReflectionThresholds:
    def test_quoted_consistent_at_075(self):
        a0, ainf = reflection_thresholds(0.75)
        assert ainf == pytest.approx(4.54, rel=2e-3)
        # alpha_0 keeps the printed form; the quoted 0.075 is not reproduced
        assert a0 == pytest.approx(0.0919, rel=2e-3)

    def test_low_velocity_limit(self):
        a0, _ = reflection_thresholds(1e-6)
        assert a0 < 1e-6

    def test_ordering_and_monotonicity(self):
        grid = np.linspace(0.01, 0.99, 197)
        a0s, ainfs = zip(*(reflection_thresholds(v) for v in grid))
        assert all(a0 < ainf for a0, ainf in zip(a0s, ainfs))
        assert all(b > a for a, b in zip(a0s, a0s[1:]))

    @pytest.mark.parametrize("bad", [0.0, 1.0, -0.5, 1.5])
    def test_domain(self, bad):
        with pytest.raises(ValueError):
            reflection_thresholds(bad)


class TestEnergyScales:
    def test_row2_rest_energy(self):
        # 8 E_J lambda_J with E_J = Phi0 I_C / 2 pi = 1.3164e-21 J at 4 uA
        d = derive(_row2_circuit())
        assert d.e_j == pytest.approx(1.3164e-21, rel=1e-3)
        assert d.e_0 == pytest.approx(3.34e-20, rel=5e-3)

    def test_linearity_in_lambda(self):
        base = solve_geometry(4e-6, 2.0, 2 * math.pi * 15e9, 5.0, 0.25, 5)
        doubled = solve_geometry(4e-6, 4.0, 2 * math.pi * 15e9, 5.0, 0.25, 5)
        assert derive(doubled).e_0 == pytest.approx(2 * derive(base).e_0, rel=1e-12)


def test_default_r_n_anchors_multi_pulse_width():
    # l_j(3 uA) / DEFAULT_R_N = 30.71 ps by construction
    l_j = PHI0 / (2 * math.pi * 3e-6)
    assert l_j / DEFAULT_R_N == pytest.approx(30.71e-12, rel=1e-12)
