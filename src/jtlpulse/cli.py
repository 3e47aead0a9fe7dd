"""Command line interface: parameter derivation, scenario runs, validation.

Config files are INI-style text with [circuit], [drive], [solver] and
[scenario] sections; every physical quantity is a base-SI float (A, F, H,
Ohm, s, rad/s).  Unknown sections or keys are rejected.  Exit codes:
0 success, 2 configuration error, 3 runtime/numerics error.
"""

from __future__ import annotations

import argparse
import configparser
import inspect
import math
import sys
import types
import typing
from collections.abc import Sequence
from dataclasses import replace

from .circuit import CircuitParams, ParameterError, derive
from .solver import SolverError
from .analysis import AnalysisError
from .experiments import (
    SCENARIO_IDS,
    ScenarioError,
    check_scenario,
    run_scenario,
    scenario_parameters,
)


class ConfigError(ValueError):
    """Malformed or inconsistent configuration file."""


_PREFIXES = (
    (1e24, "Y"), (1e21, "Z"), (1e18, "E"), (1e15, "P"), (1e12, "T"),
    (1e9, "G"), (1e6, "M"), (1e3, "k"), (1.0, ""), (1e-3, "m"),
    (1e-6, "u"), (1e-9, "n"), (1e-12, "p"), (1e-15, "f"), (1e-18, "a"),
    (1e-21, "z"), (1e-24, "y"),
)


def eng(value: float, unit: str = "") -> str:
    """Engineering-prefix formatting with six significant digits."""
    if value == 0.0 or not math.isfinite(value):
        return f"{value:.6g} {unit}".rstrip()
    mag = abs(value)
    for scale, prefix in _PREFIXES:
        if mag >= scale:
            return f"{value / scale:.6g} {prefix}{unit}".rstrip()
    scale, prefix = _PREFIXES[-1]
    return f"{value / scale:.6g} {prefix}{unit}".rstrip()


_SECTIONS = ("circuit", "drive", "solver", "scenario")
# [drive] and [solver] keys, each with the runner parameter it sets; a
# [scenario] key is the runner parameter of the same name.
_SECTION_PARAMS = {
    "drive": {"protocol": "shape", "n_pairs": "n_pairs",
              "spacing_multiple": "spacing_multiple", "theta_peak": "theta_peak",
              "sigma": "sigma", "width": "width"},
    "solver": {"dt_divisor": "dt_divisor"},
}
# Grid spellings of list-valued runner parameters.
_GRID_ALIASES = {"alpha_out_grid": "alpha_out"}


def _floats(raw: str) -> list[float]:
    return [float(x) for x in raw.replace(",", " ").split()]


def _reader(annotation):
    """INI reader for a parameter of this type, None if INI cannot spell it."""
    if isinstance(annotation, types.UnionType):  # X | None
        (annotation,) = set(typing.get_args(annotation)) - {type(None)}
    if typing.get_origin(annotation) is Sequence:
        return _floats
    return {float: float, int: int, str: str.strip}.get(annotation)


def _spellings(sid: str | None) -> dict:
    """Section -> {INI key: (parameter, reader)} under scenario ``sid``."""
    circuit = inspect.signature(CircuitParams, eval_str=True).parameters
    out = {"circuit": {k: (k, _reader(p.annotation)) for k, p in circuit.items()}}
    params = {k: _reader(a) for k, a in scenario_parameters(sid).items()} if sid else {}
    for section, keys in _SECTION_PARAMS.items():
        out[section] = {key: (name, params.get(name)) for key, name in keys.items()}
    out["scenario"] = {k: (k, reader) for k, reader in params.items()}
    out["scenario"]["id"] = ("id", str.strip)
    for alias, name in _GRID_ALIASES.items():
        if params.get(name) is _floats:
            out["scenario"][alias] = (name, _floats)
    return out


def load_config(path: str, scenario: str | None = None) -> dict:
    """Parse a config file into per-section dicts of typed parameters.

    [drive], [solver] and [scenario] keys must set parameters of the runner
    of ``scenario`` (default: the file's [scenario] id) and are stored under
    those parameter names; any other key is an error.
    """
    cfg = configparser.ConfigParser(inline_comment_prefixes=("#", ";"))
    try:
        read = cfg.read(path)
    except configparser.Error as exc:  # duplicate key, missing header, ...
        raise ConfigError(str(exc)) from exc
    if not read:
        raise ConfigError(f"cannot read config file {path!r}")
    unknown = set(cfg.sections()) - set(_SECTIONS)
    if unknown:
        raise ConfigError(f"unknown config sections: {sorted(unknown)}")
    sid = scenario or cfg.get("scenario", "id", fallback=None)
    if sid is not None and sid not in SCENARIO_IDS:
        raise ConfigError(
            f"unknown scenario id {sid!r}; valid ids: {', '.join(SCENARIO_IDS)}"
        )
    spellings = _spellings(sid)
    conf: dict = {section: {} for section in _SECTIONS}
    for section in cfg.sections():
        for key, raw in cfg.items(section):
            name, reader = spellings[section].get(key, (key, None))
            if reader is None:
                scope = "" if section == "circuit" else f" for scenario {sid!r}"
                raise ConfigError(f"unknown key {key!r} in section [{section}]{scope}")
            if name in conf[section]:
                raise ConfigError(f"{key!r} in [{section}] sets {name!r} twice")
            try:
                conf[section][name] = reader(raw)
            except ValueError as exc:
                raise ConfigError(
                    f"bad value for {key!r} in [{section}]: {raw!r}"
                ) from exc
    return conf


def circuit_from_config(conf: dict) -> CircuitParams:
    """Build CircuitParams from the [circuit] section.

    z_in and z_out default to the standard termination ratios
    (z_jtl/5 and z_jtl/0.25) when omitted.
    """
    section = dict(conf.get("circuit", {}))
    for key in ("i_c", "c_j", "l"):
        if key not in section:
            raise ConfigError(f"[circuit] section is missing required key {key!r}")
    # validates i_c, c_j and l before the default terminations divide by them
    params = CircuitParams(**{"z_in": math.inf, "z_out": math.inf, **section})
    z_jtl = math.sqrt(params.l / params.c_j)
    return replace(params, z_in=section.get("z_in", z_jtl / 5.0),
                   z_out=section.get("z_out", z_jtl / 0.25))


def cmd_derive(args) -> int:
    conf = load_config(args.config)
    params = circuit_from_config(conf)
    d = derive(params)
    print(f"lambda_j  = {d.lambda_j:.6g} cells")
    print(f"f_plasma  = {eng(d.omega_p / (2.0 * math.pi), 'Hz')}")
    print(f"z_jtl     = {eng(d.z_jtl, 'Ohm')}")
    print(f"beta_c    = {d.beta_c:.6g}")
    print(f"alpha_in  = {d.alpha_in:.6g}")
    print(f"alpha_out = {d.alpha_out:.6g}")
    print(f"tau_lr    = {eng(d.tau_lr, 's')}")
    print(f"e_0       = {eng(d.e_0, 'J')}")
    return 0


def _scenario_overrides(conf: dict, scenario: str | None = None) -> tuple:
    """(scenario id, runner overrides) of a loaded config; the id is None and
    the overrides empty when neither ``scenario`` nor the file names one."""
    overrides = {**conf["drive"], **conf["solver"], **conf["scenario"]}
    sid = overrides.pop("id", None)
    return scenario or sid, overrides


def cmd_validate(args) -> int:
    conf = load_config(args.config)
    if conf["circuit"]:
        circuit_from_config(conf)
    sid, overrides = _scenario_overrides(conf)
    if sid is not None:
        check_scenario(sid, overrides)
    print("configuration ok")
    return 0


def cmd_run(args) -> int:
    if args.jobs is not None and args.jobs < 1:
        raise ConfigError(f"jobs must be >= 1, got {args.jobs}")
    conf = load_config(args.config, args.scenario)
    sid, overrides = _scenario_overrides(conf, args.scenario)
    if sid is None:
        raise ConfigError("no scenario id given (use --scenario or [scenario] id)")
    if args.dt_divisor is not None:
        overrides["dt_divisor"] = args.dt_divisor
    try:
        report = run_scenario(sid, overrides)
    except (SolverError, AnalysisError) as exc:
        print(
            f"scenario {sid!r} failed with resolved overrides {overrides!r}",
            file=sys.stderr,
        )
        raise
    paths = report.write_outputs(args.out)
    for i, run in enumerate(report.runs):
        f0 = f"{run.f0 / 1e9:.6g} GHz" if run.f0 else "-"
        fwhm = f"{run.fwhm / 1e6:.6g} MHz" if run.fwhm else "-"
        eta = f"{run.eta:.6g}" if run.eta is not None else "-"
        line = f"run {i:03d}"
        if "protocol" in run.config:
            line += f" {run.config['protocol']} i_c={run.config['i_c'] * 1e6:.6g} uA"
        line += f" f0={f0} fwhm={fwhm} eta={eta}"
        if run.power is not None:
            p_band = run.power.band_power_dbm
            line += f" p_in={run.power.avg_input_power * 1e9:.6g} nW p_band="
            line += f"{p_band:.6g} dBm" if p_band is not None else "-"
        if run.regime:
            line += f" regime={run.regime}"
        if run.fit is not None:
            line += f" f_osc={run.fit.f_osc / 1e9:.6g} GHz"
        if run.passed is not None:
            line += " PASS" if run.passed else f" FAIL({run.notes})"
        print(line)
    print(f"wrote {len(paths)} files to {args.out}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="jtlpulse",
        description="Josephson transmission line microwave pulse simulator",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    p_derive = sub.add_parser("derive", help="print derived circuit scales")
    p_derive.add_argument("--config", required=True)
    p_derive.set_defaults(func=cmd_derive)
    p_run = sub.add_parser("run", help="execute a scenario")
    p_run.add_argument("--config", required=True)
    p_run.add_argument("--scenario", choices=SCENARIO_IDS)
    p_run.add_argument("--out", default=".")
    p_run.add_argument(
        "--jobs", type=int, default=None, metavar="N",
        help="accepted, with no effect, for N >= 1: every scenario computes "
             "its points in order in this process",
    )
    p_run.add_argument("--dt-divisor", type=int, default=None)
    p_run.set_defaults(func=cmd_run)
    p_val = sub.add_parser("validate", help="check a config file")
    p_val.add_argument("--config", required=True)
    p_val.set_defaults(func=cmd_validate)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ConfigError, ParameterError, ScenarioError, ValueError) as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 2
    except (SolverError, AnalysisError, ArithmeticError, OSError) as exc:
        print(f"runtime error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
