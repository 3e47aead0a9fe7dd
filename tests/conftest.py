"""Every test starts with no run remembered by ``solver.simulate``, so no
test reuses columns another one integrated."""

import pytest

from jtlpulse import solver


@pytest.fixture(autouse=True)
def cold_simulate():
    solver.forget_last_run()
