"""Sufficient-statistic formulas for efficient tightness and unemployment.

Everything here is closed-form arithmetic on (u, v), epsilon, kappa and
zeta; the numerical planner in ``planner`` provides the independent
cross-check of these formulas. The series builders apply it to the
panel's u and v columns and the schedule's epsilon and kappa columns at
once. The schedule checks epsilon and kappa where it picks them, so each
builder checks only its zetas. _u_star is the one copy of the u* formula,
which the planner's oracle and simulate's round-trip error share.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Mapping, Sequence, TextIO

import numpy as np

from .errors import ConfigError, DomainError
from .ingest import LaborMarketPanel
from .quarters import quarter_label, write_quarter_rows
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
    """Raise ValueError for a schedule not aligned with the panel, DomainError for a zeta not finite and below 1."""
    if len(schedule) != len(panel):
        raise ValueError(f"schedule has {len(schedule)} quarters, the panel {len(panel)}")
    for z in zetas:
        if not -math.inf < z < 1.0:
            raise DomainError(f"social value of nonwork must be finite and below 1, got {z}")


def _check_finite(panel: LaborMarketPanel, columns: Mapping[str, np.ndarray]) -> None:
    """Raise DomainError naming the first quarter where any column is not finite."""
    bad = ~np.logical_and.reduce([np.isfinite(c) for c in columns.values()])
    if bad.any():
        i = int(np.argmax(bad))
        values = ", ".join(f"{name}={c[i]}" for name, c in columns.items())
        quarter = quarter_label(panel.quarters[i])
        raise DomainError(f"{quarter}: efficient values must be finite, got {values}")


@dataclass(frozen=True, eq=False)
class GapSeries:
    """Per-quarter efficiency columns, aligned with the panel they were computed on."""

    epsilon: np.ndarray
    u_star: np.ndarray
    theta_star: np.ndarray
    gap: np.ndarray
    classification: np.ndarray
    is_gap_quarter: np.ndarray

    def __len__(self) -> int:
        return len(self.u_star)

    @property
    def u_star_out_of_range(self) -> np.ndarray:
        return self.u_star >= 1.0


def gap_series(panel: LaborMarketPanel, schedule: Schedule, zeta: float, tol: float = 0.01) -> GapSeries:
    """Per-quarter evaluation of the efficiency formulas over a panel.

    Each quarter's theta* is (1 - zeta) / (kappa * epsilon) and its
    classification is tight or slack when theta lies above or below theta*
    by more than the relative dead band tol, which absorbs measurement
    noise in theta. A u* or theta* that is not finite raises DomainError
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
    return GapSeries(
        epsilon=epsilon,
        u_star=u_star,
        theta_star=theta_star,
        gap=panel.u - u_star,
        classification=classification,
        is_gap_quarter=schedule.is_gap_quarter,
    )


@dataclass(frozen=True)
class GapSummary:
    n_quarters: int
    mean_u: float
    mean_u_star: float
    mean_gap: float
    max_gap: float
    max_gap_quarter: str
    min_gap: float
    min_gap_quarter: str
    n_slack: int
    n_tight: int
    n_efficient: int


def summarize(
    panel: LaborMarketPanel, series: GapSeries, exclude_gap_quarters: bool = False
) -> GapSummary:
    """Unweighted quarterly averages, optionally dropping flagged quarters."""
    keep = ~series.is_gap_quarter if exclude_gap_quarters else np.ones(len(series), dtype=bool)
    kept = np.flatnonzero(keep)
    if not kept.size:
        raise DomainError("no quarters left to summarize")
    gap = series.gap[kept]
    hi, lo = kept[np.argmax(gap)], kept[np.argmin(gap)]
    classification = series.classification[kept]
    return GapSummary(
        n_quarters=int(kept.size),
        mean_u=float(panel.u[kept].mean()),
        mean_u_star=float(series.u_star[kept].mean()),
        mean_gap=float(gap.mean()),
        max_gap=float(series.gap[hi]),
        max_gap_quarter=quarter_label(panel.quarters[hi]),
        min_gap=float(series.gap[lo]),
        min_gap_quarter=quarter_label(panel.quarters[lo]),
        n_slack=int((classification == INEFFICIENTLY_SLACK).sum()),
        n_tight=int((classification == INEFFICIENTLY_TIGHT).sum()),
        n_efficient=int((classification == EFFICIENT).sum()),
    )


# Mean shifts are quoted against BASELINE_ZETA and the band width between
# the WIDTH_PAIR values, whether or not those are members of the sweep.
BASELINE_ZETA = 0.25
WIDTH_PAIR = (0.0, 0.5)


@dataclass(frozen=True, eq=False)
class SensitivityBand:
    """u* column under each zeta in a sweep, aligned with the panel, plus summary deltas."""

    zetas: tuple[float, ...]
    u_star: dict[float, np.ndarray]
    mean_shift: dict[float, float]
    mean_width: float


def sensitivity(panel: LaborMarketPanel, schedule: Schedule, zetas: Sequence[float]) -> SensitivityBand:
    """Sweep the social value of nonwork over a list of values.

    Builds a u* column for each distinct zeta of the sweep, BASELINE_ZETA
    and WIDTH_PAIR. Two zetas of the sweep with one zeta_tag, which names
    their CSV column and summary entry, raise ConfigError; a u* that is
    not finite in any column raises DomainError naming the first quarter
    it occurs in.
    """
    tagged: dict[str, float] = {}
    for z in zetas:
        tag = zeta_tag(z)
        if tag in tagged:
            raise ConfigError(f"zeta values {tagged[tag]!r} and {z!r} share the column tag {tag}")
        tagged[tag] = z
    every = dict.fromkeys((*zetas, BASELINE_ZETA, *WIDTH_PAIR))
    _check_inputs(panel, schedule, every)
    with np.errstate(all="ignore"):
        columns = {z: _u_star(panel.u, panel.v, schedule.epsilon, schedule.kappa, z) for z in every}
    _check_finite(panel, {f"u*(zeta={z:g})": columns[z] for z in every})
    base = columns[BASELINE_ZETA]
    return SensitivityBand(
        zetas=tuple(zetas),
        u_star={z: columns[z] for z in zetas},
        mean_shift={z: float((columns[z] - base).mean()) for z in zetas},
        mean_width=float((columns[WIDTH_PAIR[1]] - columns[WIDTH_PAIR[0]]).mean()),
    )


def implied_zeta_series(panel: LaborMarketPanel, schedule: Schedule) -> np.ndarray:
    """The zeta* column: per quarter, the zeta that makes its tightness efficient."""
    _check_inputs(panel, schedule, ())
    return 1.0 - schedule.kappa * schedule.epsilon * panel.theta


def write_gap_csv(panel: LaborMarketPanel, series: GapSeries, stream: TextIO) -> None:
    header = "quarter,u,v,theta,epsilon,u_star,theta_star,gap,classification,is_gap_quarter"
    columns = (
        panel.u, panel.v, panel.theta, series.epsilon, series.u_star, series.theta_star,
        series.gap, series.classification, series.is_gap_quarter,
    )
    write_quarter_rows(stream, header, panel.quarters, "%.8g," * 7 + "%s,%d", columns)


def zeta_tag(z: float) -> str:
    return f"z{100.0 * z:g}"


def write_sensitivity_csv(band: SensitivityBand, panel: LaborMarketPanel, stream: TextIO) -> None:
    tags = ",".join(f"u_star_{zeta_tag(z)}" for z in band.zetas)
    template = "%.8g," + ",".join(["%.8g"] * len(band.zetas))
    columns = [panel.u, *(band.u_star[z] for z in band.zetas)]
    write_quarter_rows(stream, f"quarter,u,{tags}", panel.quarters, template, columns)


def write_implied_zeta_csv(
    panel: LaborMarketPanel,
    schedule: Schedule,
    zeta_star: np.ndarray,
    stream: TextIO,
) -> None:
    columns = (panel.theta, schedule.epsilon, zeta_star)
    write_quarter_rows(stream, "quarter,theta,epsilon,zeta_star", panel.quarters, "%.8g,%.8g,%.8g", columns)
