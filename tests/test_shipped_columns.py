"""The u* columns ugap writes for the bundled panel agree with the numerical planner.

Each quarter is its own economy: the isoelastic curve v(u) = v0 u^-epsilon
through its observed (u, v), so v0 = v u^epsilon, with the schedule's
epsilon and kappa for that quarter. All 276 quarters are searched at
once, as lanes of planner._golden_lanes over _BRACKET and _TOL, the
search the oracle grid check runs; no closed form enters the planner
side. Each check is also shown to fail against a deliberately wrong
formula.
"""

import numpy as np
import pytest

from ugap import gap
from ugap.cli import Run
from ugap.config import load_config
from ugap.planner import _BRACKET, _ORACLE_U_TOL, _TOL, _golden_lanes

SWEEP = (0.0, 0.25, 0.5, 0.96)


@pytest.fixture(scope="module")
def run():
    """The bundled panel, schedule and calibration, read as `ugap` reads them."""
    return Run(load_config(None))


def planner_u_star(run, zeta):
    """Per quarter, the u that maximizes (1 - u) + zeta u - kappa v(u) on the quarter's own curve."""
    u, v = run.panel.u, run.panel.v
    epsilon, kappa = run.schedule.epsilon, run.schedule.kappa
    v0 = v * u**epsilon
    lo, hi = (np.full(u.shape, bound) for bound in _BRACKET)
    u_star = _golden_lanes(lambda x: (1.0 - x) + zeta * x - kappa * (v0 * x**-epsilon), lo, hi, _TOL)
    assert ((u_star - lo > 10.0 * _TOL) & (hi - u_star > 10.0 * _TOL)).all(), "planner hit the bracket"
    return u_star


def worst(column, u_star) -> float:
    return float(np.abs(column - u_star).max())


def gap_errors(run) -> list[float]:
    """The u_star column of gap.csv, at the profile's zeta."""
    _kappa, zeta = run.calibration
    return [worst(gap.gap_series(run.panel, run.schedule, zeta).u_star, planner_u_star(run, zeta))]


def sensitivity_errors(run) -> list[float]:
    """Each u_star_z* column of sensitivity.csv."""
    band = gap.sensitivity(run.panel, run.schedule, SWEEP)
    return [worst(band.u_star[z], planner_u_star(run, z)) for z in SWEEP]


def implied_zeta_errors(run) -> list[float]:
    """implied_zeta.csv: at each quarter's zeta*, the planner's optimum is the observed u."""
    zeta = gap.implied_zeta_series(run.panel, run.schedule)
    return [worst(run.panel.u, planner_u_star(run, zeta))]


CHECKS = {"gap": gap_errors, "sensitivity": sensitivity_errors, "implied_zeta": implied_zeta_errors}


def wrong_u_star(u, v, epsilon, kappa, zeta, power=pow):
    return power(kappa * epsilon / (1.0 - zeta) * (v / u), 1.0 / (2.0 + epsilon)) * u


def wrong_implied_zeta(panel, schedule):
    return 1.0 - schedule.kappa * panel.theta  # epsilon left out


@pytest.mark.parametrize("check", CHECKS)
def test_column_agrees_with_the_planner(run, check):
    assert max(CHECKS[check](run)) < _ORACLE_U_TOL


@pytest.mark.parametrize(
    "check,name,wrong",
    [
        ("gap", "_u_star", wrong_u_star),
        ("sensitivity", "_u_star", wrong_u_star),
        ("implied_zeta", "implied_zeta_series", wrong_implied_zeta),
    ],
)
def test_check_fails_against_a_wrong_formula(run, monkeypatch, check, name, wrong):
    monkeypatch.setattr(gap, name, wrong)
    # every column of the check disagrees with the planner
    assert min(CHECKS[check](run)) >= _ORACLE_U_TOL
