"""The benchmark's output checks count a corrupted point as failed.

Run with ``python3 -m pytest bench``; imports only the standard library.
"""

import math

import pytest

import workloads as w


def failed(check, summary):
    return [label for label, why in check(summary) if why]


def table1_summary():
    runs = []
    for protocol, i_c, f0, fwhm, p_in, p_band in w.TABLE1:
        runs.append({
            "config": {"protocol": protocol, "i_c": i_c},
            "f0": f0 * 1e9, "fwhm": fwhm * 1e6,
            "power": {"avg_input_power": p_in * 1e-9, "band_power_dbm": p_band},
        })
    return {"runs": runs}


def sweep_summary():
    return {"runs": [
        {"config": {"n_pairs": n}, "f0": 15.001e9, "fwhm": 13.4e9 / n, "eta": 0.01173}
        for n in w.SWEEP_N_PAIRS
    ]}


def fluxon_summary():
    return {"runs": [
        {"config": {"alpha_out": a}, "f0": 21.5e9, "regime": "breather"}
        for a in w.FLUXON_ALPHAS
    ]}


def map_summary():
    # eta depends on f_p / i_c only, as the scaled lattice equations do
    return {"runs": [
        {"config": {"i_c": i_c, "omega_p": w.TWO_PI * f_p},
         "eta": 0.9 - 1e-17 * f_p / i_c}
        for f_p in w.MAP_F_P for i_c in w.MAP_I_C
    ]}


CASES = [
    (w.check_table1, table1_summary, 8),
    (w.check_bandwidth_sweep, sweep_summary, 4),
    (w.check_single_fluxon, fluxon_summary, 5),
    (w.check_efficiency_map, map_summary, 9),
]


@pytest.mark.parametrize("check, make, n", CASES)
def test_good_summary_passes_every_point(check, make, n):
    verdicts = check(make())
    assert len(verdicts) == n
    assert failed(check, make()) == []


@pytest.mark.parametrize("check, make, n", CASES)
def test_missing_point_fails_and_empty_summary_fails_all(check, make, n):
    summary = make()
    del summary["runs"][1]
    assert len(failed(check, summary)) == 1
    assert len(failed(check, {"runs": []})) == n


def test_table1_f0_off_by_ten_percent():
    summary = table1_summary()
    summary["runs"][2]["f0"] *= 1.10
    assert failed(w.check_table1, summary) == ["flat_top@5uA"]


def test_table1_does_not_trust_the_program_verdict():
    summary = table1_summary()
    summary["runs"][5]["power"]["band_power_dbm"] -= 7.0
    summary["runs"][5]["passed"] = True
    assert failed(w.check_table1, summary) == ["gaussian@4uA"]


def test_sweep_broken_inverse_duration_law():
    summary = sweep_summary()
    summary["runs"][3]["fwhm"] *= 1.5
    assert failed(w.check_bandwidth_sweep, summary) == ["n_pairs=500"]


def test_sweep_f0_off_plasma_frequency_and_eta_drift():
    summary = sweep_summary()
    summary["runs"][0]["f0"] *= 1.10
    summary["runs"][2]["eta"] *= 1.05
    assert failed(w.check_bandwidth_sweep, summary) == ["n_pairs=50", "n_pairs=200"]


def test_fluxon_reflection_inside_thresholds():
    summary = fluxon_summary()
    summary["runs"][2]["regime"] = "fluxon_reflection"
    summary["runs"][4]["regime"] = "antifluxon_reflection"
    assert failed(w.check_single_fluxon, summary) == ["alpha_out=0.25", "alpha_out=0.35"]


def test_fluxon_f0_outside_linear_band():
    summary = fluxon_summary()
    summary["runs"][0]["f0"] = 0.9 * w.FLUXON_F_P
    assert failed(w.check_single_fluxon, summary) == ["alpha_out=0.15"]


def test_reflection_window_closed_form():
    alpha_0, alpha_inf = w.reflection_window(0.75)
    assert math.isclose(alpha_0, 0.0919, abs_tol=1e-4)
    assert math.isclose(alpha_inf, 4.54, abs_tol=1e-2)


def test_map_similarity_broken():
    summary = map_summary()
    # (3 uA, 15 GHz) shares f_p / i_c with (2 uA, 10 GHz) and (4 uA, 20 GHz)
    run = next(r for r in summary["runs"]
               if r["config"]["i_c"] == 3e-6 and r["config"]["omega_p"] == w.TWO_PI * 15e9)
    run["eta"] += 1e-5
    assert failed(w.check_efficiency_map, summary) == ["i_c=3uA,f_p=15GHz"]


def test_map_eta_outside_unit_interval():
    summary = map_summary()
    summary["runs"][1]["eta"] = 1.2
    assert failed(w.check_efficiency_map, summary) == ["i_c=3uA,f_p=10GHz"]


def test_workload_configs_name_their_scenario():
    for name, workload in w.WORKLOADS.items():
        assert f"id = {name}\n" in workload.ini
        assert all(why for _, why in workload.check({"runs": []}))
