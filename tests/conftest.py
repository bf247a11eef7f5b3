import os
import subprocess
import sys
from importlib import resources
from pathlib import Path

import pytest

from ugap.calibration import CalibrationProfile
from ugap.config import bundled_data_dir
from ugap.fitting import fit_all
from ugap.ingest import build_panel, parse_series_csv, splice_vacancy, to_quarterly
from ugap.quarters import parse_quarter
from ugap.regimes import RegimeTable, build_schedule


SRC = Path(__file__).resolve().parents[1] / "src"


def child_env(*path: Path, **env: str | None) -> dict[str, str]:
    """This process's environment for a fresh interpreter that imports ugap from src/, then from each of path.

    env is added to it; a variable given as None is left out.
    """
    search = os.pathsep.join(filter(None, [str(SRC), *map(str, path), os.environ.get("PYTHONPATH")]))
    merged = {**os.environ, "PYTHONPATH": search, **env}
    return {k: v for k, v in merged.items() if v is not None}


def run_python(code: str, timeout: float) -> subprocess.CompletedProcess:
    """Run code in a fresh interpreter that imports ugap from src/; the test fails if it is still running after timeout s.

    For code that might never return: a regression then fails the test
    instead of stalling the suite.
    """
    try:
        return subprocess.run(
            [sys.executable, "-c", code], env=child_env(), capture_output=True, text=True, timeout=timeout
        )
    except subprocess.TimeoutExpired:
        pytest.fail(f"still running after {timeout} s:\n{code}")


def bundled_text(name: str) -> str:
    return resources.files("ugap").joinpath(f"data/{name}").read_text()


@pytest.fixture(scope="session", autouse=True)
def bundled_data_left_alone():
    """Fails the session when a test leaves a file in the package's data directory, whatever the test order."""
    before = sorted(bundled_data_dir().rglob("*"))
    yield
    assert sorted(bundled_data_dir().rglob("*")) == before


@pytest.fixture(scope="session")
def panel():
    u_q, _ = to_quarterly(parse_series_csv(bundled_text("unemployment_monthly.csv"), "percent"))
    pre_q, _ = to_quarterly(parse_series_csv(bundled_text("vacancy_hwi_monthly.csv"), "percent"))
    post_q, _ = to_quarterly(parse_series_csv(bundled_text("vacancy_jolts_monthly.csv"), "percent"))
    v_q = splice_vacancy(pre_q, post_q, parse_quarter("2001Q1"))
    return build_panel(u_q, v_q)


@pytest.fixture(scope="session")
def regime_table():
    return RegimeTable.from_file(bundled_data_dir() / "regimes_default.csv")


@pytest.fixture(scope="session")
def estimates(panel, regime_table):
    fits, failures = fit_all(panel, regime_table)
    assert failures == []
    return [est for _regime, est in fits]


@pytest.fixture(scope="session")
def schedule(panel, regime_table, estimates):
    """The bundled schedule at kappa 0.72 in every regime."""
    return build_schedule(list(zip(regime_table, estimates)), panel.quarters, 0.72)


@pytest.fixture(scope="session")
def profile():
    return CalibrationProfile.from_file(bundled_data_dir() / "calibration_default.cfg")
