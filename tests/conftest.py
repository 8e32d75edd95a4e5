import pathlib

import pytest

from ehrelay.config import SystemConfig, validate

REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent
BASELINE_CFG_PATH = REPO_ROOT / "configs" / "baseline.cfg"


@pytest.fixture(scope="session")
def baseline():
    """Validated baseline scenario shared by most tests."""
    return validate(SystemConfig())


@pytest.fixture(scope="session")
def baseline_path():
    return str(BASELINE_CFG_PATH)
