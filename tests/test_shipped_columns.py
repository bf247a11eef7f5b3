"""The columns ugap writes for the bundled panel agree with the numerical planner.

Each quarter is its own economy: the isoelastic curve v(u) = v0 u^-epsilon
through its observed (u, v), so v0 = v u^epsilon, with the schedule's
epsilon and kappa for that quarter. All 276 quarters are solved at once,
as lanes of planner._isoelastic_lanes, the solver the oracle grid check
runs; no closed form enters the planner side. Each check gives a list of
errors, all of which must be below the oracle's bound _ORACLE_U_TOL: a
relative error for a column the planner computes, a count of quarters
for a column that must hold exactly. Each check is also shown to fail
against a deliberately wrong formula. A property over small random
panels and schedules runs the gap.csv checks the same way.
"""

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings

from test_gap import gap_inputs
from ugap import gap
from ugap.cli import Run
from ugap.config import load_config
from ugap.planner import _ORACLE_U_TOL, _isoelastic_lanes

SWEEP = (0.0, 0.25, 0.5, 0.96)


@pytest.fixture(scope="module")
def run():
    """The bundled panel, schedule and calibration, read as `ugap` reads them."""
    return Run(load_config(None))


def curve_v0(run):
    """Per quarter, the v0 of the isoelastic curve through its observed (u, v)."""
    return run.panel.v * run.panel.u**run.schedule.epsilon


def planner_u_star(run, zeta):
    """Per quarter, the u that maximizes (1 - u) + zeta u - kappa v(u) on the quarter's own curve."""
    u_star, boundary = _isoelastic_lanes(run.schedule.epsilon, zeta, run.schedule.kappa, curve_v0(run))
    assert not boundary.any(), "planner hit the bracket"
    return u_star


def worst(column, expected) -> float:
    return float((np.abs(column - expected) / expected).max())


def baseline(run):
    """gap_series at the profile's zeta, and the planner's u* there."""
    _kappa, zeta = run.calibration
    return gap.gap_series(run.panel, run.schedule, zeta), planner_u_star(run, zeta)


def gap_errors(run) -> list[float]:
    """The u_star column of gap.csv, at the profile's zeta."""
    series, u_star = baseline(run)
    return [worst(series.u_star, u_star)]


def theta_star_errors(run) -> list[float]:
    """The theta_star column of gap.csv: the planner's v(u*) / u* on each quarter's curve."""
    series, u_star = baseline(run)
    return [worst(series.theta_star, curve_v0(run) * u_star**-run.schedule.epsilon / u_star)]


def gap_column_errors(run) -> list[float]:
    """The gap column of gap.csv: the quarters where it is not u - u_star bit for bit."""
    series, _u_star = baseline(run)
    return [float((series.gap != run.panel.u - series.u_star).sum())]


def classification_errors(run) -> list[float]:
    """The classification column of gap.csv: slack quarters with u <= u*, tight ones with u >= u*, by the planner."""
    series, u_star = baseline(run)
    u, labels = run.panel.u, series.classification
    slack, tight = labels == gap.INEFFICIENTLY_SLACK, labels == gap.INEFFICIENTLY_TIGHT
    assert slack.any() and tight.any()
    return [float((slack & (u <= u_star)).sum()), float((tight & (u >= u_star)).sum())]


def sensitivity_errors(run) -> list[float]:
    """Each u_star_z* column of sensitivity.csv."""
    pairs, _ = gap.sensitivity(run.panel, run.schedule, SWEEP)
    return [worst(u_star, planner_u_star(run, z)) for z, u_star in pairs]


def implied_zeta_errors(run) -> list[float]:
    """implied_zeta.csv: at each quarter's zeta*, the planner's optimum is the observed u."""
    zeta = gap.implied_zeta_series(run.panel, run.schedule)
    return [worst(run.panel.u, planner_u_star(run, zeta))]


CHECKS = {
    "gap": gap_errors,
    "theta_star": theta_star_errors,
    "gap_column": gap_column_errors,
    "classification": classification_errors,
    "sensitivity": sensitivity_errors,
    "implied_zeta": implied_zeta_errors,
}


def wrong_u_star(u, v, epsilon, kappa, zeta, power=pow):
    return power(kappa * epsilon / (1.0 - zeta) * (v / u), 1.0 / (2.0 + epsilon)) * u


def wrong_implied_zeta(panel, schedule):
    return 1.0 - schedule.kappa * panel.theta  # epsilon left out


def wrong_column(name, formula):
    """gap_series with one column replaced by formula(panel, schedule, zeta, series)."""
    right = gap.gap_series

    def gap_series(panel, schedule, zeta, tol=0.01):
        series = right(panel, schedule, zeta, tol)
        return dataclasses.replace(series, **{name: formula(panel, schedule, zeta, series)})

    return gap_series


WRONG_THETA_STAR = wrong_column("theta_star", lambda panel, schedule, zeta, s: (1.0 - zeta) / schedule.kappa)
WRONG_GAP = wrong_column("gap", lambda panel, schedule, zeta, s: s.u_star - panel.u)
# tight and slack swapped
WRONG_CLASSIFICATION = wrong_column(
    "classification",
    lambda panel, schedule, zeta, s: np.where(
        s.classification == gap.INEFFICIENTLY_SLACK,
        gap.INEFFICIENTLY_TIGHT,
        np.where(s.classification == gap.INEFFICIENTLY_TIGHT, gap.INEFFICIENTLY_SLACK, s.classification),
    ),
)


@pytest.mark.parametrize("check", CHECKS)
def test_column_agrees_with_the_planner(run, check):
    assert max(CHECKS[check](run)) < _ORACLE_U_TOL


@pytest.mark.parametrize(
    "check,name,wrong",
    [
        ("gap", "_u_star", wrong_u_star),
        ("theta_star", "gap_series", WRONG_THETA_STAR),
        ("gap_column", "gap_series", WRONG_GAP),
        ("classification", "gap_series", WRONG_CLASSIFICATION),
        ("sensitivity", "_u_star", wrong_u_star),
        ("implied_zeta", "implied_zeta_series", wrong_implied_zeta),
    ],
)
def test_check_fails_against_a_wrong_formula(run, monkeypatch, check, name, wrong):
    monkeypatch.setattr(gap, name, wrong)
    # every column of the check disagrees with the planner
    assert min(CHECKS[check](run)) >= _ORACLE_U_TOL


@settings(derandomize=True, database=None, deadline=None)
@given(gap_inputs())
def test_random_panels_agree_with_the_planner(inputs):
    """gap_series on a random panel and schedule, each quarter whose lane is interior against its own planner."""
    panel, schedule, zeta = inputs
    series = gap.gap_series(panel, schedule, zeta)
    v0 = panel.v * panel.u**schedule.epsilon
    u_star, boundary = _isoelastic_lanes(schedule.epsilon, zeta, schedule.kappa, v0)
    theta_star = v0 * u_star**-schedule.epsilon / u_star
    checked = ~boundary
    assert (np.abs(series.u_star - u_star) < _ORACLE_U_TOL * u_star)[checked].all()
    assert (np.abs(series.theta_star - theta_star) < _ORACLE_U_TOL * theta_star)[checked].all()
    assert (series.gap == panel.u - series.u_star)[checked].all()
    slack = series.classification == gap.INEFFICIENTLY_SLACK
    tight = series.classification == gap.INEFFICIENTLY_TIGHT
    assert not (checked & ((slack & (panel.u <= u_star)) | (tight & (panel.u >= u_star)))).any()


@pytest.mark.parametrize(
    "name,wrong",
    [
        ("_u_star", wrong_u_star),
        ("gap_series", WRONG_THETA_STAR),
        ("gap_series", WRONG_GAP),
        ("gap_series", WRONG_CLASSIFICATION),
    ],
    ids=["u_star", "theta_star", "gap", "classification"],
)
def test_random_panel_property_fails_against_a_wrong_formula(monkeypatch, name, wrong):
    monkeypatch.setattr(gap, name, wrong)
    with pytest.raises(AssertionError):
        test_random_panels_agree_with_the_planner()
