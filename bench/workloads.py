"""Benchmark workloads: the config each one feeds the CLI, and the checks
that decide, point by point, whether the program's outputs are right.

Everything here is plain Python (no numpy, no jtlpulse), so the checks can
be tested in milliseconds.  The checks recompute their verdicts from the
summary JSON the CLI writes and from constants kept in this file; they never
trust a pass/fail flag the program computed itself.

A check returns one ``(label, reason)`` pair per expected scenario point;
``reason`` is ``""`` when the point passes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

TWO_PI = 2.0 * math.pi


@dataclass(frozen=True)
class Workload:
    name: str
    ini: str                      # INI text handed to ``jtlpulse run --config``
    parallel: bool                # pass ``--jobs <nproc>`` (1 in traced passes)
    check: Callable[[dict], list[tuple[str, str]]]


def _ini(scenario_id: str, **keys) -> str:
    lines = ["[scenario]", f"id = {scenario_id}"]
    for key, value in keys.items():
        if isinstance(value, (list, tuple)):
            value = ", ".join(repr(float(x)) for x in value)
        lines.append(f"{key} = {value}")
    return "\n".join(lines) + "\n"


def _runs(summary: dict) -> list[dict]:
    runs = summary.get("runs")
    if not isinstance(runs, list):
        raise ValueError("summary has no 'runs' list")
    return runs


def _rel(value, target) -> float:
    return abs(value - target) / abs(target)


def _number(x) -> bool:
    return isinstance(x, (int, float)) and not isinstance(x, bool) and math.isfinite(x)


# --- table1 ---------------------------------------------------------------

# The paper's performance table: (protocol, i_c A, f0 GHz, FWHM MHz,
# average input power nW, band power dBm), with the tolerances each column
# is held to.  Kept here independently of jtlpulse.experiments.
TABLE1 = (
    ("flat_top", 3e-6, 16.991, 418.0, 1.860, -77.213),
    ("flat_top", 4e-6, 19.609, 482.0, 3.893, -74.472),
    ("flat_top", 5e-6, 21.918, 536.0, 6.475, -73.056),
    ("flat_top", 6e-6, 24.018, 582.0, 10.135, -71.448),
    ("gaussian", 3e-6, 15.191, 836.0, 36.207, -65.446),
    ("gaussian", 4e-6, 17.536, 964.0, 56.605, -63.957),
    ("gaussian", 5e-6, 19.609, 1073.0, 72.096, -63.308),
    ("gaussian", 6e-6, 21.482, 1164.0, 97.012, -62.402),
)
TABLE1_TOL = {"f0": 0.05, "fwhm": 0.40, "p_in": 0.25, "p_band_db": 6.0}


def check_table1(summary: dict) -> list[tuple[str, str]]:
    runs = _runs(summary)
    out = []
    for protocol, i_c, f0, fwhm, p_in, p_band in TABLE1:
        label = f"{protocol}@{i_c * 1e6:g}uA"
        match = [
            r for r in runs
            if r.get("config", {}).get("protocol") == protocol
            and _number(r["config"].get("i_c"))
            and _rel(r["config"]["i_c"], i_c) < 1e-9
        ]
        if len(match) != 1:
            out.append((label, f"{len(match)} runs in the summary"))
            continue
        run = match[0]
        power = run.get("power") or {}
        got = (run.get("f0"), run.get("fwhm"), power.get("avg_input_power"),
               power.get("band_power_dbm"))
        if not all(_number(x) for x in got):
            out.append((label, f"missing observable in {got}"))
            continue
        bad = []
        if _rel(got[0] / 1e9, f0) > TABLE1_TOL["f0"]:
            bad.append(f"f0 {got[0] / 1e9:.4g} GHz vs {f0}")
        if _rel(got[1] / 1e6, fwhm) > TABLE1_TOL["fwhm"]:
            bad.append(f"fwhm {got[1] / 1e6:.4g} MHz vs {fwhm}")
        if _rel(got[2] * 1e9, p_in) > TABLE1_TOL["p_in"]:
            bad.append(f"p_in {got[2] * 1e9:.4g} nW vs {p_in}")
        if abs(got[3] - p_band) > TABLE1_TOL["p_band_db"]:
            bad.append(f"p_band {got[3]:.4g} dBm vs {p_band}")
        out.append((label, "; ".join(bad)))
    return out


# --- bandwidth_sweep ------------------------------------------------------

SWEEP_F_P = 15e9
SWEEP_N_PAIRS = (50, 100, 200, 500)
SWEEP_TOL = {"fwhm_n": 0.03, "f0": 0.01, "eta": 0.01}


def _median(xs: list[float]) -> float:
    s = sorted(xs)
    k = len(s) // 2
    return s[k] if len(s) % 2 else 0.5 * (s[k - 1] + s[k])


def check_bandwidth_sweep(summary: dict) -> list[tuple[str, str]]:
    """FWHM ~ 1/duration: FWHM x n_pairs is the same at every point; the
    tone sits at the plasma frequency; efficiency does not depend on n."""
    by_n = {}
    for run in _runs(summary):
        n = run.get("config", {}).get("n_pairs")
        if n in SWEEP_N_PAIRS and all(_number(run.get(k)) for k in ("f0", "fwhm", "eta")):
            by_n.setdefault(n, []).append(run)
    good = {n: rs[0] for n, rs in by_n.items() if len(rs) == 1}
    ref_prod = _median([r["fwhm"] * n for n, r in good.items()]) if good else None
    ref_eta = _median([r["eta"] for r in good.values()]) if good else None
    out = []
    for n in SWEEP_N_PAIRS:
        label = f"n_pairs={n}"
        if n not in good:
            out.append((label, "missing, duplicated or incomplete in the summary"))
            continue
        run = good[n]
        bad = []
        if _rel(run["fwhm"] * n, ref_prod) > SWEEP_TOL["fwhm_n"]:
            bad.append(f"fwhm*n {run['fwhm'] * n:.4g} vs sweep median {ref_prod:.4g}")
        if _rel(run["f0"], SWEEP_F_P) > SWEEP_TOL["f0"]:
            bad.append(f"f0 {run['f0'] / 1e9:.4g} GHz vs f_p {SWEEP_F_P / 1e9:g}")
        if _rel(run["eta"], ref_eta) > SWEEP_TOL["eta"]:
            bad.append(f"eta {run['eta']:.4g} vs sweep median {ref_eta:.4g}")
        out.append((label, "; ".join(bad)))
    return out


# --- single_fluxon --------------------------------------------------------

FLUXON_ALPHAS = (0.15, 0.2, 0.25, 0.3, 0.35)
FLUXON_F_P = 20e9
FLUXON_LAMBDA_J = 3.3
FLUXON_V = 0.75


def reflection_window(v: float) -> tuple[float, float]:
    """Closed-form (alpha_0, alpha_inf) at scaled fluxon velocity v: below
    alpha_0 the fluxon reflects as an antifluxon, above alpha_inf as a
    fluxon.  alpha_inf = 4 v / sqrt(1 - v^2) (4.54 at v = 0.75)."""
    gamma = math.sqrt(1.0 - v * v)
    alpha_0 = abs((gamma - 1.0) / (2.0 * (math.atan(gamma / v) / gamma + v)))
    return alpha_0, 4.0 * v / gamma


def check_single_fluxon(summary: dict) -> list[tuple[str, str]]:
    """Inside the reflection window the outcome is a breather or absorption;
    the ring-down tone lies in the linear lattice band."""
    alpha_0, alpha_inf = reflection_window(FLUXON_V)
    f_lo = FLUXON_F_P
    f_hi = FLUXON_F_P * math.sqrt(1.0 + 4.0 * FLUXON_LAMBDA_J**2)
    runs = _runs(summary)
    out = []
    for a in FLUXON_ALPHAS:
        label = f"alpha_out={a:g}"
        match = [r for r in runs
                 if _number(r.get("config", {}).get("alpha_out"))
                 and abs(r["config"]["alpha_out"] - a) < 1e-12]
        if len(match) != 1:
            out.append((label, f"{len(match)} runs in the summary"))
            continue
        run = match[0]
        bad = []
        if alpha_0 < a < alpha_inf and run.get("regime") not in ("breather", "absorption"):
            bad.append(f"regime {run.get('regime')!r} inside ({alpha_0:.3g}, {alpha_inf:.3g})")
        f0 = run.get("f0")
        if not (_number(f0) and f_lo <= f0 <= f_hi):
            bad.append(f"f0 {f0!r} outside the band [{f_lo:.4g}, {f_hi:.4g}] Hz")
        out.append((label, "; ".join(bad)))
    return out


# --- efficiency_map -------------------------------------------------------

MAP_I_C = (2e-6, 3e-6, 4e-6)
MAP_F_P = (10e9, 15e9, 20e9)
MAP_SIMILAR_TOL = 1e-6


def check_efficiency_map(summary: dict) -> list[tuple[str, str]]:
    """0 < eta < 1 everywhere; points with equal f_p / i_c are the same
    lattice problem in scaled units, so their eta agree to 1e-6."""
    runs = _runs(summary)
    points = {}
    for i_c in MAP_I_C:
        for f_p in MAP_F_P:
            match = [
                r for r in runs
                if _number(r.get("config", {}).get("i_c"))
                and _number(r["config"].get("omega_p"))
                and _rel(r["config"]["i_c"], i_c) < 1e-9
                and _rel(r["config"]["omega_p"], TWO_PI * f_p) < 1e-9
            ]
            points[(i_c, f_p)] = match[0] if len(match) == 1 else None
    groups = {}
    for (i_c, f_p), run in points.items():
        if run is not None and _number(run.get("eta")):
            groups.setdefault(f"{f_p / i_c:.9g}", []).append(run["eta"])
    out = []
    for (i_c, f_p), run in points.items():
        label = f"i_c={i_c * 1e6:g}uA,f_p={f_p / 1e9:g}GHz"
        if run is None or not _number(run.get("eta")):
            out.append((label, "missing, duplicated or without eta in the summary"))
            continue
        eta = run["eta"]
        bad = []
        if not 0.0 < eta < 1.0:
            bad.append(f"eta {eta!r} outside (0, 1)")
        group = groups[f"{f_p / i_c:.9g}"]
        if len(group) > 1 and abs(eta - _median(group)) > MAP_SIMILAR_TOL:
            bad.append(f"eta {eta!r} vs {_median(group)!r} at equal f_p/i_c")
        out.append((label, "; ".join(bad)))
    return out


WORKLOADS = {
    w.name: w
    for w in (
        Workload("table1", _ini("table1"), True, check_table1),
        Workload(
            "bandwidth_sweep",
            _ini("bandwidth_sweep", n_pairs_list=SWEEP_N_PAIRS, i_c=3e-6,
                 f_plasma=SWEEP_F_P),
            False, check_bandwidth_sweep,
        ),
        Workload(
            "single_fluxon",
            _ini("single_fluxon", alpha_out_grid=FLUXON_ALPHAS, i_c=4e-6,
                 f_plasma=FLUXON_F_P, lambda_j=FLUXON_LAMBDA_J, v_tilde=FLUXON_V),
            False, check_single_fluxon,
        ),
        Workload(
            "efficiency_map",
            _ini("efficiency_map", protocol="gaussian", i_c_grid=MAP_I_C,
                 omega_p_grid=[TWO_PI * f for f in MAP_F_P]),
            True, check_efficiency_map,
        ),
    )
}
