import importlib
import pathlib

import pytest

from ehrelay.config import SystemConfig, validate

REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent
BASELINE_CFG_PATH = REPO_ROOT / "configs" / "baseline.cfg"

sim_mod = importlib.import_module("ehrelay.simulate")


@pytest.fixture(autouse=True)
def empty_draw_memo():
    """Every test starts from an empty draw memo in this process, so that
    its first call draws, under whatever constant the test patches."""
    sim_mod._memo = None


@pytest.fixture(scope="session")
def baseline():
    """Validated baseline scenario shared by most tests."""
    return validate(SystemConfig())


@pytest.fixture(scope="session")
def baseline_path():
    return str(BASELINE_CFG_PATH)
