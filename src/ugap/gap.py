"""Sufficient-statistic formulas for efficient tightness and unemployment.

Everything here is closed-form arithmetic on (u, v), epsilon, kappa and
zeta; the numerical planner in ``planner`` provides the independent
cross-check of these formulas. The series builders apply it to the
panel's u and v columns and the schedule's epsilon and kappa columns at
once. The schedule checks epsilon and kappa where it picks them, so each
builder checks only its zetas. _u_star is the one copy of the u* formula,
which the planner's oracle and simulate's round-trip error share.
summarize and sensitivity return their summary.json sections whole.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING, Iterable, Mapping, Sequence

import numpy as np

from .errors import InputError
from .quarters import quarter_label, write_quarter_rows

if TYPE_CHECKING:
    from .ingest import LaborMarketPanel
    from .regimes import Schedule

INEFFICIENTLY_SLACK = "inefficiently_slack"
INEFFICIENTLY_TIGHT = "inefficiently_tight"
EFFICIENT = "efficient"


def _u_star(u, v, epsilon, kappa, zeta, power=pow):
    """The u* formula on scalars or on aligned numpy columns, unvalidated.

    power raises the formula's base to 1/(1+epsilon). The built-in pow is
    numpy's power on columns; planner.libm_power gives a column the floats
    the built-in pow gives one element at a time, bit for bit.
    """
    return power(kappa * epsilon / (1.0 - zeta) * (v / u), 1.0 / (1.0 + epsilon)) * u


def _check_inputs(panel: LaborMarketPanel, schedule: Schedule, zetas: Iterable[float]) -> None:
    """Raise ValueError for a schedule not aligned with the panel, InputError for a zeta not finite and below 1."""
    if len(schedule) != len(panel):
        raise ValueError(f"schedule has {len(schedule)} quarters, the panel {len(panel)}")
    for z in zetas:
        if not -math.inf < z < 1.0:
            raise InputError(f"social value of nonwork must be finite and below 1, got {z}")


def _check_finite(panel: LaborMarketPanel, columns: Mapping[str, np.ndarray]) -> None:
    """Raise InputError naming the first quarter where any column is not finite."""
    bad = ~np.logical_and.reduce([np.isfinite(c) for c in columns.values()])
    if bad.any():
        i = int(np.argmax(bad))
        values = ", ".join(f"{name}={c[i]}" for name, c in columns.items())
        quarter = quarter_label(panel.quarters[i])
        raise InputError(f"{quarter}: efficient values must be finite, got {values}")


@dataclass(frozen=True, eq=False)
class GapSeries:
    """Per-quarter efficiency columns, aligned with the panel and schedule they were computed on."""

    u_star: np.ndarray
    theta_star: np.ndarray
    gap: np.ndarray
    classification: np.ndarray

    def __len__(self) -> int:
        return len(self.u_star)


def gap_series(panel: LaborMarketPanel, schedule: Schedule, zeta: float, tol: float = 0.01) -> GapSeries:
    """Per-quarter evaluation of the efficiency formulas over a panel.

    Each quarter's theta* is (1 - zeta) / (kappa * epsilon) and its
    classification is tight or slack when theta lies above or below theta*
    by more than the relative dead band tol, which absorbs measurement
    noise in theta. A u* or theta* that is not finite raises InputError
    naming the first quarter it occurs in.
    """
    _check_inputs(panel, schedule, (zeta,))
    epsilon, kappa = schedule.epsilon, schedule.kappa
    with np.errstate(all="ignore"):  # _check_finite names the first quarter that is not finite
        theta_star = (1.0 - zeta) / (kappa * epsilon)
        u_star = _u_star(panel.u, panel.v, epsilon, kappa, zeta)
    _check_finite(panel, {"u*": u_star, "theta*": theta_star})
    theta = panel.theta
    with np.errstate(over="ignore"):  # a dead band wider than any theta has infinite bounds: efficient
        upper, lower = theta_star * (1.0 + tol), theta_star * (1.0 - tol)
    classification = np.where(
        theta > upper, INEFFICIENTLY_TIGHT, np.where(theta < lower, INEFFICIENTLY_SLACK, EFFICIENT)
    )
    return GapSeries(u_star=u_star, theta_star=theta_star, gap=panel.u - u_star, classification=classification)


def summarize(panel: LaborMarketPanel, schedule: Schedule, series: GapSeries) -> dict:
    """The gap section of summary.json: counts, and averages over all quarters and over those the schedule does not flag."""
    return {
        "n_gap_quarters": int(schedule.is_gap_quarter.sum()),
        "n_out_of_range": int((series.u_star >= 1.0).sum()),
        "all_quarters": _averages(panel, series, np.arange(len(series))),
        "excluding_gap_quarters": _averages(panel, series, np.flatnonzero(~schedule.is_gap_quarter)),
    }


def _averages(panel: LaborMarketPanel, series: GapSeries, kept: np.ndarray) -> dict:
    """The unweighted quarterly averages and extremes over the quarters at the indices kept."""
    if not kept.size:
        raise InputError("no quarters left to summarize")
    gap = series.gap[kept]
    hi, lo = kept[np.argmax(gap)], kept[np.argmin(gap)]
    classification = series.classification[kept]
    return {
        "n_quarters": int(kept.size),
        "mean_u": float(panel.u[kept].mean()),
        "mean_u_star": float(series.u_star[kept].mean()),
        "mean_gap": float(gap.mean()),
        "max_gap": float(series.gap[hi]),
        "max_gap_quarter": quarter_label(panel.quarters[hi]),
        "min_gap": float(series.gap[lo]),
        "min_gap_quarter": quarter_label(panel.quarters[lo]),
        "n_slack": int((classification == INEFFICIENTLY_SLACK).sum()),
        "n_tight": int((classification == INEFFICIENTLY_TIGHT).sum()),
        "n_efficient": int((classification == EFFICIENT).sum()),
    }


# Mean shifts are quoted against BASELINE_ZETA and the band width between
# the WIDTH_PAIR values, whether or not those are members of the sweep.
BASELINE_ZETA = 0.25
WIDTH_PAIR = (0.0, 0.5)


def sensitivity(panel: LaborMarketPanel, schedule: Schedule, zetas: Sequence[float]) -> tuple[list, dict]:
    """Sweep the social value of nonwork over a list of values.

    Returns the sweep's (zeta, u* column) pairs, not a dict, in which -0.0
    and 0.0 would be one key, and the sensitivity section of summary.json.
    Two zetas with one zeta_tag raise InputError, as does a u* that is not
    finite in any column, naming the first quarter it occurs in.
    """
    tagged: dict[str, float] = {}
    for z in zetas:
        tag = zeta_tag(z)
        if tag in tagged:
            raise InputError(f"zeta values {tagged[tag]!r} and {z!r} share the column tag {tag}")
        tagged[tag] = z
    every = dict.fromkeys((*zetas, BASELINE_ZETA, *WIDTH_PAIR))
    _check_inputs(panel, schedule, every)
    with np.errstate(all="ignore"):
        columns = {z: _u_star(panel.u, panel.v, schedule.epsilon, schedule.kappa, z) for z in every}
    _check_finite(panel, {f"u*(zeta={z:g})": columns[z] for z in every})
    base = columns[BASELINE_ZETA]
    section = {
        "zetas": list(zetas),
        "baseline_zeta": BASELINE_ZETA,
        "mean_u_star": {tag: float(columns[z].mean()) for tag, z in tagged.items()},
        "mean_shift_vs_baseline": {tag: float((columns[z] - base).mean()) for tag, z in tagged.items()},
        "min_u_star": {tag: float(columns[z].min()) for tag, z in tagged.items()},
        "width_pair": list(WIDTH_PAIR),
        "mean_width": float((columns[WIDTH_PAIR[1]] - columns[WIDTH_PAIR[0]]).mean()),
    }
    return [(z, columns[z]) for z in zetas], section


def implied_zeta_series(panel: LaborMarketPanel, schedule: Schedule) -> np.ndarray:
    """The zeta* column: per quarter, the zeta that makes its tightness efficient."""
    _check_inputs(panel, schedule, ())
    return 1.0 - schedule.kappa * schedule.epsilon * panel.theta


def write_gap_csv(panel: LaborMarketPanel, schedule: Schedule, series: GapSeries) -> str:
    """The text of gap.csv."""
    header = "quarter,u,v,theta,epsilon,u_star,theta_star,gap,classification,is_gap_quarter"
    columns = (
        panel.u, panel.v, panel.theta, schedule.epsilon, series.u_star, series.theta_star,
        series.gap, series.classification, schedule.is_gap_quarter,
    )
    return write_quarter_rows(header, panel.quarters, "%.8g," * 7 + "%s,%d", columns)


def zeta_tag(z: float) -> str:
    return f"z{100.0 * z:g}"


def write_sensitivity_csv(pairs: Sequence[tuple[float, np.ndarray]], panel: LaborMarketPanel) -> str:
    """The text of sensitivity.csv, from sensitivity's (zeta, u* column) pairs."""
    tags = ",".join(f"u_star_{zeta_tag(z)}" for z, _ in pairs)
    template = "%.8g," + ",".join(["%.8g"] * len(pairs))
    columns = [panel.u, *(u_star for _, u_star in pairs)]
    return write_quarter_rows(f"quarter,u,{tags}", panel.quarters, template, columns)


def write_implied_zeta_csv(panel: LaborMarketPanel, schedule: Schedule, zeta_star: np.ndarray) -> str:
    """The text of implied_zeta.csv."""
    columns = (panel.theta, schedule.epsilon, zeta_star)
    return write_quarter_rows("quarter,theta,epsilon,zeta_star", panel.quarters, "%.8g,%.8g,%.8g", columns)
