"""Command line interface: derive output, exit codes, scenario runs."""

import functools
import os
import subprocess
import sys
from pathlib import Path

import pytest

from jtlpulse import experiments
from jtlpulse.cli import eng, load_config, main
from jtlpulse.solver import DEFAULT_DT_DIVISOR


def _steps(periods: float) -> str:
    """A record of ``periods`` plasma periods in default steps, as the
    record-limit messages print it."""
    return f"{periods * DEFAULT_DT_DIVISOR:.3g}"

ROW2_CONFIG = """\
[circuit]
i_c = 4e-6
c_j = 800e-15
l = 8.177e-12

[scenario]
id = single_fluxon
alpha_out_grid = 0.2
"""


@pytest.fixture
def row2_config(tmp_path):
    path = tmp_path / "row2.ini"
    path.write_text(ROW2_CONFIG)
    return str(path)


def test_import_loads_no_process_machinery():
    # every scenario computes its points in this process and the compiler
    # runs only on a cache miss, so a cold start imports neither the
    # executor nor the process modules
    src = str(Path(experiments.__file__).parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    modules = ("concurrent.futures", "multiprocessing", "subprocess")
    code = f"import sys, jtlpulse.cli; print([m for m in {modules!r} if m in sys.modules])"
    result = subprocess.run(
        [sys.executable, "-c", code], env={**os.environ, "PYTHONPATH": path},
        capture_output=True, text=True, check=True, timeout=60,
    )
    assert result.stdout.strip() == "[]"


class TestEng:
    def test_prefixes(self):
        assert eng(19.617e9, "Hz") == "19.617 GHz"
        assert eng(30.71e-12, "s") == "30.71 ps"
        assert eng(0.0, "J") == "0 J"

    def test_six_significant_digits(self):
        assert eng(1.2345678e-9, "W") == "1.23457 nW"


class TestDerive:
    def test_prints_row2_scales(self, row2_config, capsys):
        assert main(["derive", "--config", row2_config]) == 0
        out = capsys.readouterr().out
        assert "lambda_j  = 3.17" in out
        assert "19.61" in out and "GHz" in out
        assert "tau_lr" in out and "e_0" in out

    def test_negative_current_names_field(self, tmp_path, capsys):
        path = tmp_path / "bad.ini"
        path.write_text("[circuit]\ni_c = -4e-6\nc_j = 8e-13\nl = 8e-12\n")
        assert main(["derive", "--config", str(path)]) == 2
        assert "i_c" in capsys.readouterr().err

    def test_open_output_end(self, tmp_path, capsys):
        path = tmp_path / "open.ini"
        path.write_text("[circuit]\ni_c = 4e-6\nc_j = 8e-13\nl = 8e-12\nz_out = inf\n")
        assert main(["derive", "--config", str(path)]) == 0
        assert "alpha_out = 0\n" in capsys.readouterr().out

    @pytest.mark.parametrize(
        "key, value", [("z_in", "nan"), ("z_in", "0"), ("z_in", "-1"), ("i_c", "inf")]
    )
    def test_bad_value_names_field(self, tmp_path, capsys, key, value):
        keys = {"i_c": "4e-6", "c_j": "8e-13", "l": "8e-12", key: value}
        path = tmp_path / "bad.ini"
        lines = [f"{k} = {v}" for k, v in keys.items()]
        path.write_text("\n".join(["[circuit]", *lines]) + "\n")
        assert main(["derive", "--config", str(path)]) == 2
        assert key in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["derive", "validate"])
    @pytest.mark.parametrize("key, value", [
        ("c_j", "0"), ("c_j", "-8e-13"), ("l", "-8e-12"), ("l", "0"), ("i_c", "0"),
    ])
    def test_bad_line_value_names_field(self, tmp_path, capsys, command, key, value):
        # the default terminations divide by these: checked first
        keys = {"i_c": "4e-6", "c_j": "8e-13", "l": "8e-12", key: value}
        lines = [f"{k} = {v}" for k, v in keys.items()]
        config = _write(tmp_path, "\n".join(["[circuit]", *lines]) + "\n")
        assert main([command, "--config", config]) == 2
        err = capsys.readouterr().err
        assert f"{key} must be finite and positive, got {float(value)!r}" in err

    def test_missing_file(self, capsys):
        assert main(["derive", "--config", "/nonexistent.ini"]) == 2
        assert "cannot read" in capsys.readouterr().err

    def test_unknown_key_rejected(self, tmp_path, capsys):
        path = tmp_path / "bad.ini"
        path.write_text("[circuit]\ni_c = 4e-6\nc_j = 8e-13\nl = 8e-12\nbogus = 1\n")
        assert main(["derive", "--config", str(path)]) == 2
        assert "bogus" in capsys.readouterr().err


class TestValidate:
    def test_good_config(self, row2_config, capsys):
        assert main(["validate", "--config", row2_config]) == 0
        assert "ok" in capsys.readouterr().out

    def test_unknown_scenario_lists_ids(self, tmp_path, capsys):
        path = tmp_path / "bad.ini"
        path.write_text("[scenario]\nid = frobnicate\n")
        assert main(["validate", "--config", str(path)]) == 2
        err = capsys.readouterr().err
        assert "frobnicate" in err and "single_fluxon" in err and "table1" in err


class TestRun:
    def test_single_fluxon_run(self, row2_config, tmp_path, capsys):
        out = tmp_path / "out"
        code = main(["run", "--config", row2_config, "--out", str(out)])
        captured = capsys.readouterr().out
        assert code == 0
        assert "f_osc=" in captured
        assert "regime=breather" in captured
        assert (out / "single_fluxon_summary.json").exists()

    def test_scenario_flag_selects(self, tmp_path, capsys):
        config = tmp_path / "min.ini"
        config.write_text("[drive]\nn_pairs = 6\n")
        out = tmp_path / "out"
        code = main([
            "run", "--config", str(config), "--scenario", "flat_top",
            "--out", str(out),
        ])
        assert code == 0
        assert "eta=" in capsys.readouterr().out

    def test_foreign_scenario_keys_rejected(self, row2_config, tmp_path, capsys):
        code = main([
            "run", "--config", row2_config, "--scenario", "flat_top",
            "--out", str(tmp_path / "o"),
        ])
        assert code == 2
        assert "alpha_out_grid" in capsys.readouterr().err

    def test_table1_emits_eight_rows(self, tmp_path, capsys):
        config = tmp_path / "t.ini"
        config.write_text("[scenario]\nid = table1\n")
        out = tmp_path / "out"
        code = main(["run", "--config", str(config), "--out", str(out)])
        lines = [
            l for l in capsys.readouterr().out.splitlines() if l.startswith("run")
        ]
        assert code == 0
        assert len(lines) == 8
        assert sum("flat_top" in l for l in lines) == 4
        assert sum("gaussian" in l for l in lines) == 4
        assert all("p_in=" in l and "p_band=" in l for l in lines)
        assert all(l.endswith("PASS") for l in lines)

    @pytest.mark.parametrize("divisor", ["0", "-5", "50"])
    def test_coarse_dt_divisor_is_a_config_error(self, tmp_path, capsys, divisor):
        out = tmp_path / "out"
        code = main([
            "run", "--config", _write(tmp_path, "[scenario]\n"), "--scenario",
            "flat_top", "--out", str(out), "--dt-divisor", divisor,
        ])
        assert code == 2
        assert "dt_divisor" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("scenario, line, named", [
        ("gaussian", "sigma = 0", "sigma"),
        ("gaussian", "sigma = -2", "sigma"),
        ("flat_top", "i_c = 0", "i_c"),
        ("flat_top", "theta_peak = nan", "nan"),
        ("flat_top", "theta_peak = 0", "theta_peak"),
        ("flat_top", "lambda_j = nan", "lambda_j"),
        ("flat_top", "width = inf", "width"),
        ("single_fluxon", "i_c = 0", "i_c"),
        ("single_fluxon", "f_plasma = 0", "f_plasma"),
        ("single_fluxon", "n_tail_periods = -100", "n_tail_periods"),
        ("single_fluxon", "lambda_j = nan", "lambda_j"),
        ("efficiency_map", "i_c_grid = 0, 3e-6", "i_c_grid"),
        ("efficiency_map", "omega_p_grid = 0", "omega_p_grid"),
        ("bandwidth_sweep", "n_pairs_list = 5, inf", "n_pairs_list"),
        ("single_fluxon", "alpha_out_grid =", "alpha_out grid must be non-empty"),
        ("alpha_sweep", "alpha_out_grid =", "alpha_out grid must be non-empty"),
        ("flat_top", "sigma = 1.5", "sigma applies to the gaussian shape only"),
        ("bandwidth_sweep", "sigma = 1.5", "sigma applies to the gaussian shape only"),
        ("efficiency_map", "jobs = 0",
         "unknown key 'jobs' in section [scenario] for scenario 'efficiency_map'"),
        ("table1", "jobs = -3",
         "unknown key 'jobs' in section [scenario] for scenario 'table1'"),
        ("efficiency_map", "i_c_grid =", "efficiency map grids must be non-empty"),
        ("flat_top", "spacing_multiple = 0",
         "spacing_multiple must be finite and positive, got 0.0"),
        ("flat_top", "n_pairs = 0", "n_pairs must be >= 1, got 0"),
        ("flat_top", "drive_model = bogus", "unknown drive_model 'bogus'"),
        ("flat_top", "alpha_in = -1",
         "alpha_in must be finite and positive, got -1.0"),
        ("flat_top", "n_jtl = 1", "n_jtl must be an integer >= 2, got 1"),
        ("flat_top", "shape = square", "unknown train shape 'square'"),
        ("gaussian", "sigma = -1", "sigma must be finite and positive, got -1.0"),
        ("efficiency_map", "protocol = bogus", "unknown protocol 'bogus'"),
        ("efficiency_map", "alpha_in = -1",
         "alpha_in must be finite and positive, got -1.0"),
        ("efficiency_map", "damping_quality = -1",
         "damping_quality must be strictly positive, got -1.0"),
        ("single_fluxon", "v_tilde = 1.5", "v_tilde must lie in (0, 1), got 1.5"),
        ("single_fluxon", "damping_quality = 0",
         "damping_quality must be strictly positive, got 0.0"),
        ("flat_top", "i_c = inf", "i_c must be finite and positive, got inf"),
        ("flat_top", "alpha_out = inf",
         "alpha_out must be finite and positive, got inf"),
        ("bandwidth_sweep", "f_plasma = 0",
         "f_plasma must be finite and positive, got 0.0"),
        # records of 4.95e7 and 1e9 plasma periods (~1e10 steps, ~800 GB of
        # trajectory, and a 2e9-extremum envelope)
        ("flat_top", "spacing_multiple = 1e6",
         f"the run's record could reach {_steps(4.95e7)} integrator steps, "
         "above the limit of 1e+08"),
        ("flat_top", "n_pairs = 1000000000",
         f"the run's record could reach {_steps(1e9)} integrator steps"),
        ("bandwidth_sweep", "n_pairs_list = 50, 1000000000",
         f"the run's record could reach {_steps(1e9)} integrator steps"),
        ("efficiency_map", "dt_divisor = 100000000",
         "integrator steps, above the limit of 1e+08"),
        ("single_fluxon", "n_tail_periods = 1e9",
         f"the run's record could reach {_steps(1e9)} integrator steps"),
        # short records holding more pulses than steps, refused before the
        # envelope (2e8 extrema, 2e8 Pulse objects) is built
        ("flat_top", "n_pairs = 100000000\nspacing_multiple = 1e-6",
         "n_pairs makes more pulses than a record of at most 1e+08 "
         "integrator steps can hold"),
        ("flat_top", "n_pairs = 10000000\nspacing_multiple = 1e-6",
         f"the train's 20000000 pulses outnumber the {_steps(2059)} integrator "
         "steps"),
        # a count no float can hold
        pytest.param("flat_top", "n_pairs = " + "9" * 400,
                     "n_pairs makes more pulses than a record of at most 1e+08",
                     id="flat_top-n_pairs-400-digits"),
        pytest.param("flat_top", "dt_divisor = " + "9" * 400,
                     "dt_divisor must be <= 100000000",
                     id="flat_top-dt_divisor-400-digits"),
    ])
    def test_bad_scenario_input_is_a_config_error(
        self, tmp_path, capsys, monkeypatch, scenario, line, named
    ):
        # refused before anything is integrated, and validate refuses it
        # with the same message
        monkeypatch.setattr(experiments, "simulate", _no_integration)
        out = tmp_path / "out"
        config = _write(tmp_path, f"[scenario]\nid = {scenario}\n{line}\n")
        assert main(["run", "--config", config, "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert named in err
        assert not out.exists()
        assert main(["validate", "--config", config]) == 2
        assert capsys.readouterr().err == err

    @pytest.mark.parametrize("line, message", [
        ("alpha_in = -1", "alpha_in must be finite and positive, got -1.0"),
        ("damping_quality = -1",
         "damping_quality must be strictly positive, got -1.0"),
    ])
    def test_bad_map_point_is_refused_before_forking(
        self, tmp_path, capsys, monkeypatch, line, message
    ):
        # the whole grid is checked before any point integrates, and no
        # process is forked for it at all
        def no_settle(*args):
            raise OSError("a point integrated before the grid was checked")

        def no_fork():
            raise OSError("a map run forked")

        monkeypatch.setattr(experiments, "_settle_train", no_settle)
        monkeypatch.setattr(os, "fork", no_fork)
        config = _write(tmp_path, "[scenario]\nid = efficiency_map\n"
                        f"i_c_grid = 2e-6, 3e-6\nomega_p_grid = 1.1e11\n{line}\n")
        code = main(["run", "--config", config, "--out", str(tmp_path / "o"),
                     "--jobs", "2"])
        assert code == 2
        assert message in capsys.readouterr().err

    @pytest.mark.parametrize("jobs", ["0", "-3"])
    @pytest.mark.parametrize("scenario", experiments.SCENARIO_IDS)
    def test_jobs_below_one_is_a_config_error(self, tmp_path, capsys, scenario, jobs):
        out = tmp_path / "out"
        code = main([
            "run", "--config", _write(tmp_path, f"[scenario]\nid = {scenario}\n"),
            "--out", str(out), "--jobs", jobs,
        ])
        assert code == 2
        assert f"jobs must be >= 1, got {jobs}" in capsys.readouterr().err
        assert not out.exists()

    def test_zero_input_energy_is_a_runtime_error(self, tmp_path, capsys):
        # the drive energy underflows to 0, so eta has no denominator
        config = _write(
            tmp_path, "[scenario]\nid = flat_top\nn_pairs = 2\ntheta_peak = 1e-160\n"
        )
        assert main(["run", "--config", config, "--out", str(tmp_path / "o")]) == 3
        assert "zero input energy; efficiency undefined" in capsys.readouterr().err

    def test_run_without_band_power(self, tmp_path, capsys):
        # the output underflows, so the spectrum has no peak to take a band at
        config = _write(
            tmp_path, "[scenario]\nid = flat_top\nn_pairs = 2\ntheta_peak = 1e-150\n"
        )
        assert main(["run", "--config", config, "--out", str(tmp_path / "o")]) == 0
        assert "p_band=-" in capsys.readouterr().out

    def test_stable_column_order(self, row2_config, tmp_path, capsys):
        main(["run", "--config", row2_config, "--out", str(tmp_path / "o")])
        line = [
            l for l in capsys.readouterr().out.splitlines() if l.startswith("run")
        ][0]
        assert line.index("f0=") < line.index("fwhm=")
        assert "." in line  # locale-independent decimal point


class TestConfigParsing:
    def test_sections_parsed(self, tmp_path):
        path = tmp_path / "c.ini"
        path.write_text(
            "[circuit]\ni_c = 3e-6\nc_j = 8e-13\nl = 1.09e-11\n"
            "[solver]\ndt_divisor = 250\n"
            "[scenario]\nid = bandwidth_sweep\nn_pairs_list = 10, 20\n"
        )
        conf = load_config(str(path))
        assert conf["solver"]["dt_divisor"] == 250
        assert conf["scenario"]["n_pairs_list"] == [10.0, 20.0]

    def test_unknown_section_rejected(self, tmp_path):
        path = tmp_path / "c.ini"
        path.write_text("[wat]\nx = 1\n")
        with pytest.raises(Exception, match="wat"):
            load_config(str(path))


def _write(tmp_path, text, name="c.ini"):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


def _no_integration(*args, **kwargs):
    raise AssertionError("a refused config reached the integrator")


# Keys that would set nothing: once accepted and ignored, foreign to the
# scenario, or setting a parameter twice.  Both run and validate must
# refuse each one, naming the key.
IGNORED_KEYS = [
    ("[scenario]\nid = flat_top\n[drive]\nn_pairs = 6\nspacing = 1e-3\n", "spacing"),
    ("[scenario]\nid = bandwidth_sweep\nn_pairs_list = 5\n[drive]\nn_pairs = 999\n",
     "n_pairs"),
    ("[scenario]\nid = bandwidth_sweep\nn_pairs_list = 5\n[drive]\nprotocol = gaussian\n",
     "protocol"),
    ("[scenario]\nid = flat_top\nalpha_out_grid = 0.2\n", "alpha_out_grid"),
    ("[scenario]\nid = single_fluxon\nalpha_out_grid = 0.2\njobs = 2\n", "jobs"),
    ("[scenario]\nid = table1\n[drive]\ntheta_peak = 3.0\n", "theta_peak"),
    ("[scenario]\nid = single_fluxon\nalpha_out_grid = 0.2\nalpha_out = 0.5\n",
     "alpha_out"),
]

# Configs which run refuses before any runner starts; validate must refuse
# them too, with the same message.  jobs is no scenario's key, whatever its
# value.
PRE_RUN_REFUSALS = [
    ("[scenario]\nid = table1\njobs = 0\n",
     "unknown key 'jobs' in section [scenario] for scenario 'table1'"),
    ("[scenario]\nid = flat_top\n[solver]\ndt_divisor = 50\n",
     "dt_divisor must be >= 100, got 50"),
    pytest.param("[scenario]\nid = flat_top\n[solver]\ndt_divisor = " + "9" * 400
                 + "\n", "dt_divisor must be <= 100000000",
                 id="dt_divisor-400-digits"),
]


class TestKeyResolution:
    @pytest.mark.parametrize("text,key", IGNORED_KEYS)
    def test_run_refuses_unused_key(self, tmp_path, capsys, text, key):
        code = main(["run", "--config", _write(tmp_path, text),
                     "--out", str(tmp_path / "o")])
        assert code == 2
        assert repr(key) in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("text,key", IGNORED_KEYS)
    def test_validate_matches_run(self, tmp_path, capsys, text, key):
        assert main(["validate", "--config", _write(tmp_path, text)]) == 2
        assert repr(key) in capsys.readouterr().err

    @pytest.mark.parametrize("text,message", PRE_RUN_REFUSALS)
    def test_validate_refuses_what_run_refuses(
        self, tmp_path, capsys, monkeypatch, text, message
    ):
        monkeypatch.setattr(experiments, "simulate", _no_integration)
        path = _write(tmp_path, text)
        assert main(["run", "--config", path, "--out", str(tmp_path / "o")]) == 2
        err = capsys.readouterr().err
        assert message in err
        assert not (tmp_path / "o").exists()
        assert main(["validate", "--config", path]) == 2
        assert capsys.readouterr().err == err

    def test_scenario_flag_retypes_keys(self, tmp_path):
        path = _write(tmp_path, "[scenario]\nid = single_fluxon\nalpha_out = 0.2\n")
        assert load_config(path)["scenario"]["alpha_out"] == [0.2]
        assert load_config(path, "flat_top")["scenario"]["alpha_out"] == 0.2

    @pytest.mark.parametrize("text", [
        "[scenario]\nid = table1\nid = table1\n",
        "id = table1\n",
    ])
    def test_malformed_ini_is_a_config_error(self, tmp_path, capsys, text):
        assert main(["validate", "--config", _write(tmp_path, text)]) == 2
        assert "configuration error" in capsys.readouterr().err

    def test_validate_needs_scenario_for_scenario_keys(self, tmp_path, capsys):
        path = _write(tmp_path, "[drive]\nn_pairs = 6\n")
        assert main(["validate", "--config", path]) == 2
        assert "'n_pairs'" in capsys.readouterr().err


# One config per scenario setting every key the CLI accepted before the
# scenario registry (minus the ones it ignored), and the keyword arguments
# the runner received for it then.  [scenario] beats [drive], and the
# command-line flags beat the file.
_FLUXON_INI = """\
[scenario]
id = {sid}
alpha_out_grid = 0.2, 0.3
i_c = 3e-6
f_plasma = 18e9
lambda_j = 3.0
v_tilde = 0.7
alpha_in = 4.0
damping_quality = 30.0
n_jtl = 11
[solver]
dt_divisor = 150
"""
_FLUXON_KWARGS = {
    "alpha_out": [0.2, 0.3], "i_c": 3e-06, "f_plasma": 18e9, "lambda_j": 3.0,
    "v_tilde": 0.7, "alpha_in": 4.0, "damping_quality": 30.0, "n_jtl": 11,
    "dt_divisor": 250,
}
_TRAIN_INI = """\
[scenario]
id = {sid}
i_c = 5e-6
omega_p = 1.2e11
n_pairs = 7
alpha_in = 6.0
alpha_out = 0.3
r_n = 20.0
theta_peak = 2.5
width = 2e-12
spacing_multiple = 3
lambda_j = 2.8
n_jtl = 6
drive_model = incident
shape = flat_top
[drive]
protocol = gaussian
n_pairs = 9
spacing_multiple = 5
theta_peak = 3.5
sigma = 1.5
width = 3e-12
[solver]
dt_divisor = 150
"""
_TRAIN_KWARGS = {
    "i_c": 5e-06, "omega_p": 1.2e11, "n_pairs": 7, "alpha_in": 6.0,
    "alpha_out": 0.3, "r_n": 20.0, "theta_peak": 2.5, "width": 2e-12,
    "spacing_multiple": 3.0, "lambda_j": 2.8, "n_jtl": 6, "drive_model": "incident",
    "shape": "flat_top", "sigma": 1.5, "dt_divisor": 250,
}
GOLDEN = {
    "single_fluxon": (_FLUXON_INI.format(sid="single_fluxon"), _FLUXON_KWARGS),
    "alpha_sweep": (_FLUXON_INI.format(sid="alpha_sweep"), _FLUXON_KWARGS),
    "flat_top": (_TRAIN_INI.format(sid="flat_top"), _TRAIN_KWARGS),
    "gaussian": (_TRAIN_INI.format(sid="gaussian"), _TRAIN_KWARGS),
    "bandwidth_sweep": (
        """\
[scenario]
id = bandwidth_sweep
n_pairs_list = 5, 10
i_c = 4e-6
f_plasma = 16e9
lambda_j = 3.0
alpha_in = 6.0
alpha_out = 0.3
r_n = 20.0
width = 2e-12
spacing_multiple = 3
[drive]
spacing_multiple = 5
theta_peak = 3.5
sigma = 1.5
width = 3e-12
[solver]
dt_divisor = 150
""",
        {"n_pairs_list": [5.0, 10.0], "i_c": 4e-06, "f_plasma": 16e9,
         "lambda_j": 3.0, "alpha_in": 6.0, "alpha_out": 0.3, "r_n": 20.0,
         "width": 2e-12, "spacing_multiple": 3.0, "theta_peak": 3.5, "sigma": 1.5,
         "dt_divisor": 250},
    ),
    "efficiency_map": (
        """\
[scenario]
id = efficiency_map
i_c_grid = 2e-6, 4e-6
omega_p_grid = 1.1e11, 1.3e11
protocol = gaussian
alpha_in = 3.0
damping_quality = 100.0
[solver]
dt_divisor = 150
""",
        {"i_c_grid": [2e-06, 4e-06], "omega_p_grid": [1.1e11, 1.3e11],
         "protocol": "gaussian", "alpha_in": 3.0, "damping_quality": 100.0,
         "dt_divisor": 250},
    ),
    "table1": (
        "[scenario]\nid = table1\n[solver]\ndt_divisor = 150\n",
        {"dt_divisor": 250},
    ),
}


@pytest.mark.parametrize("sid", sorted(GOLDEN))
def test_every_key_reaches_the_runner(sid, tmp_path, monkeypatch):
    assert set(GOLDEN) == set(experiments.SCENARIO_IDS)
    text, expected = GOLDEN[sid]
    calls = []

    @functools.wraps(experiments.SCENARIOS[sid])
    def stub(*args, **kwargs):
        calls.append((args, kwargs))
        return experiments.ScenarioReport(sid, (), {})

    monkeypatch.setitem(experiments.SCENARIOS, sid, stub)
    code = main(["run", "--config", _write(tmp_path, text), "--out",
                 str(tmp_path / "o"), "--jobs", "2", "--dt-divisor", "250"])
    assert code == 0
    assert calls == [((), expected)]
    assert all(type(v) is type(expected[k]) for k, v in calls[0][1].items())
