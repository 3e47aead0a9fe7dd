"""The README's library example runs as printed."""

import re
from pathlib import Path

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
