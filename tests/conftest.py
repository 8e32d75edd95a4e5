import pathlib

import pytest

from ehrelay.config import SystemConfig, validate

REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent
BASELINE_CFG_PATH = REPO_ROOT / "configs" / "baseline.cfg"


def block_pairs(plan):
    """(block, trials in it) of each block of a run's plan, or of a share of
    one: a range of block starts, as ``simulate._blocks`` returns."""
    return [(start // plan.step, min(plan.step, plan.stop - start)) for start in plan]


@pytest.fixture(scope="session")
def baseline():
    """Validated baseline scenario shared by most tests."""
    return validate(SystemConfig())


@pytest.fixture(scope="session")
def baseline_path():
    return str(BASELINE_CFG_PATH)
