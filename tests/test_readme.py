"""The README's library example runs as printed, and its scenario-key
table lists each runner's keys."""

import re
from pathlib import Path

import pytest

from jtlpulse import cli
from jtlpulse.experiments import SCENARIO_IDS, scenario_parameters

README = Path(__file__).resolve().parents[1] / "README.md"


def test_library_example_rings_down_as_a_breather(capsys):
    section = README.read_text().split("## Library example", 1)[1]
    code = re.search(r"```python\n(.*?)```", section, re.S).group(1)
    namespace = {}
    exec(compile(code, str(README), "exec"), namespace)
    # the example's circuit has f_p = 20 GHz; its ring-down tone sits between
    # f_p and the 1.5 f_p cap of experiments._classify_regime
    f_p = 20e9
    assert f_p <= namespace["fit"].f_osc <= 1.5 * f_p
    assert capsys.readouterr().out.startswith("breather at ")


def _key_table() -> dict[str, tuple[str, str]]:
    """Scenario id -> (its `[scenario]` keys cell, its `[drive]` keys cell)."""
    header = "| scenario | `[scenario]` keys | `[drive]` keys |"
    table = README.read_text().split(header, 1)[1].split("\n\n", 1)[0]
    rows = {}
    for line in table.strip().splitlines()[1:]:
        ids, scenario_keys, drive_keys = line.strip("|").split("|")
        for sid in re.findall(r"`(\w+)`", ids):
            rows[sid] = (scenario_keys, drive_keys)
    return rows


@pytest.mark.parametrize("sid", SCENARIO_IDS)
def test_key_table_lists_the_runners_keys(sid):
    scenario_keys, drive_keys = _key_table()[sid]
    params = scenario_parameters(sid)
    spellings = cli._spellings(sid)["scenario"]
    aliases = {alias for alias in cli._GRID_ALIASES if alias in spellings}
    assert set(re.findall(r"`(\w+)`", scenario_keys)) == set(params) | aliases
    # a parenthesis says what a [drive] key sets, and is not a key
    listed = set(re.findall(r"`(\w+)`", re.sub(r"\(.*?\)", "", drive_keys)))
    assert listed == {key for key, name in cli._SECTION_PARAMS["drive"].items()
                      if name in params}
