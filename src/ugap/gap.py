"""Sufficient-statistic formulas for efficient tightness and unemployment.

Everything here is closed-form arithmetic on (u, v) and the statistics
triple; the numerical planner in ``planner`` provides the independent
cross-check of these formulas. The series builders walk the panel and
its aligned schedule through one generator, _quarter_stats, which is
the only place that decides each quarter's (epsilon, kappa, zeta).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Mapping, Sequence, TextIO

from .calibration import SufficientStats
from .errors import DomainError
from .ingest import LaborMarketPanel, PanelRow
from .quarters import Quarter
from .regimes import ScheduleEntry

INEFFICIENTLY_SLACK = "inefficiently_slack"
INEFFICIENTLY_TIGHT = "inefficiently_tight"
EFFICIENT = "efficient"


def efficient_tightness(stats: SufficientStats) -> float:
    """theta* = (1 - zeta) / (kappa * epsilon)."""
    return (1.0 - stats.zeta) / (stats.kappa * stats.epsilon)


def classify(theta: float, theta_star: float, tol: float = 0.01) -> str:
    """Efficiency of observed tightness, with a relative dead band.

    The theory treats efficiency as a knife edge; the tolerance absorbs
    measurement noise in theta.
    """
    if theta <= 0.0 or theta_star <= 0.0:
        raise DomainError("tightness must be positive to classify")
    if theta > theta_star * (1.0 + tol):
        return INEFFICIENTLY_TIGHT
    if theta < theta_star * (1.0 - tol):
        return INEFFICIENTLY_SLACK
    return EFFICIENT


def efficient_unemployment(u: float, v: float, stats: SufficientStats) -> float:
    """u* = [kappa * epsilon / (1 - zeta) * v/u] ** (1/(1+epsilon)) * u.

    The value is returned unclamped even when it reaches 1 or more, which
    can happen under extreme zeta; series builders flag that case.
    """
    if u <= 0.0 or v <= 0.0:
        raise DomainError(f"rates must be positive, got u={u}, v={v}")
    ratio = stats.kappa * stats.epsilon / (1.0 - stats.zeta) * (v / u)
    return ratio ** (1.0 / (1.0 + stats.epsilon)) * u


def unemployment_gap(u: float, u_star: float) -> float:
    return u - u_star


def implied_zeta(theta: float, kappa: float, epsilon: float) -> float:
    """Social value of nonwork that would make observed tightness efficient."""
    if theta <= 0.0 or kappa <= 0.0 or epsilon <= 0.0:
        raise DomainError("theta, kappa, epsilon must all be positive")
    return 1.0 - kappa * epsilon * theta


@dataclass(frozen=True)
class GapPoint:
    quarter: Quarter
    u: float
    v: float
    theta: float
    epsilon: float
    u_star: float
    theta_star: float
    gap: float
    classification: str
    is_gap_quarter: bool
    u_star_out_of_range: bool


def _quarter_stats(
    panel: LaborMarketPanel,
    schedule: Sequence[ScheduleEntry],
    kappa: float,
    kappa_by_regime: Mapping[str, float] | None,
    zetas: Sequence[float],
) -> Iterator[tuple[PanelRow, ScheduleEntry, list[SufficientStats]]]:
    """Each panel row, its schedule entry and its statistics under each zeta.

    A quarter gets its regime's kappa from kappa_by_regime where that
    names the regime, else the global kappa. The schedule must be aligned
    with the panel rows; a length mismatch raises ValueError.
    """
    overrides = kappa_by_regime or {}
    for row, entry in zip(panel, schedule, strict=True):
        k = overrides.get(entry.regime_label, kappa)
        try:
            stats = [SufficientStats(entry.epsilon, k, z) for z in zetas]
        except DomainError as exc:
            raise DomainError(f"{row.quarter}: {exc}") from None
        yield row, entry, stats


def gap_series(
    panel: LaborMarketPanel,
    schedule: Sequence[ScheduleEntry],
    kappa: float,
    zeta: float,
    tol: float = 0.01,
    kappa_by_regime: Mapping[str, float] | None = None,
) -> list[GapPoint]:
    """Per-quarter evaluation of the efficiency formulas over a panel.

    kappa_by_regime optionally overrides the recruiting cost for selected
    regime labels (robustness runs); other quarters keep the global kappa.
    """
    points = []
    for row, entry, (stats,) in _quarter_stats(panel, schedule, kappa, kappa_by_regime, (zeta,)):
        theta_star = efficient_tightness(stats)
        u_star = efficient_unemployment(row.u, row.v, stats)
        points.append(
            GapPoint(
                quarter=row.quarter,
                u=row.u,
                v=row.v,
                theta=row.theta,
                epsilon=entry.epsilon,
                u_star=u_star,
                theta_star=theta_star,
                gap=unemployment_gap(row.u, u_star),
                classification=classify(row.theta, theta_star, tol),
                is_gap_quarter=entry.is_gap_quarter,
                u_star_out_of_range=u_star >= 1.0,
            )
        )
    return points


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


def summarize(points: Sequence[GapPoint], exclude_gap_quarters: bool = False) -> GapSummary:
    """Unweighted quarterly averages, optionally dropping flagged quarters."""
    kept = [p for p in points if not (exclude_gap_quarters and p.is_gap_quarter)]
    if not kept:
        raise DomainError("no quarters left to summarize")
    n = len(kept)
    hi = max(kept, key=lambda p: p.gap)
    lo = min(kept, key=lambda p: p.gap)
    return GapSummary(
        n_quarters=n,
        mean_u=sum(p.u for p in kept) / n,
        mean_u_star=sum(p.u_star for p in kept) / n,
        mean_gap=sum(p.gap for p in kept) / n,
        max_gap=hi.gap,
        max_gap_quarter=str(hi.quarter),
        min_gap=lo.gap,
        min_gap_quarter=str(lo.quarter),
        n_slack=sum(p.classification == INEFFICIENTLY_SLACK for p in kept),
        n_tight=sum(p.classification == INEFFICIENTLY_TIGHT for p in kept),
        n_efficient=sum(p.classification == EFFICIENT for p in kept),
    )


# Mean shifts are quoted against BASELINE_ZETA and the band width between
# the WIDTH_PAIR values, whether or not those are members of the sweep.
BASELINE_ZETA = 0.25
WIDTH_PAIR = (0.0, 0.5)


@dataclass(frozen=True)
class SensitivityBand:
    """u* series under each zeta in a sweep, aligned with the panel rows, plus summary deltas."""

    zetas: tuple[float, ...]
    u_star: dict[float, list[float]]
    mean_shift: dict[float, float]
    mean_width: float


def sensitivity(
    panel: LaborMarketPanel,
    schedule: Sequence[ScheduleEntry],
    kappa: float,
    zetas: Sequence[float],
    kappa_by_regime: Mapping[str, float] | None = None,
) -> SensitivityBand:
    """Sweep the social value of nonwork over a list of values.

    One pass over the panel builds a u* column for each distinct zeta of
    the sweep, BASELINE_ZETA and WIDTH_PAIR.
    """
    columns: dict[float, list[float]] = {z: [] for z in (*zetas, BASELINE_ZETA, *WIDTH_PAIR)}
    for row, _entry, stats in _quarter_stats(panel, schedule, kappa, kappa_by_regime, list(columns)):
        for column, s in zip(columns.values(), stats):
            column.append(efficient_unemployment(row.u, row.v, s))
    base = columns[BASELINE_ZETA]
    lo_col, hi_col = columns[WIDTH_PAIR[0]], columns[WIDTH_PAIR[1]]
    n = len(panel)
    return SensitivityBand(
        zetas=tuple(zetas),
        u_star={z: columns[z] for z in zetas},
        mean_shift={z: sum(c - b for c, b in zip(columns[z], base)) / n for z in zetas},
        mean_width=sum(h - l for h, l in zip(hi_col, lo_col)) / n,
    )


def implied_zeta_series(
    panel: LaborMarketPanel,
    schedule: Sequence[ScheduleEntry],
    kappa: float,
    kappa_by_regime: Mapping[str, float] | None = None,
) -> list[tuple[Quarter, float, float, float]]:
    """(quarter, theta, epsilon, zeta*) rows for the implied-zeta export."""
    # zeta* does not depend on zeta, so the statistics are resolved at 0
    return [
        (row.quarter, row.theta, s.epsilon, implied_zeta(row.theta, s.kappa, s.epsilon))
        for row, _entry, (s,) in _quarter_stats(panel, schedule, kappa, kappa_by_regime, (0.0,))
    ]


def write_gap_csv(points: Sequence[GapPoint], stream: TextIO) -> None:
    stream.write("quarter,u,v,theta,epsilon,u_star,theta_star,gap,classification,is_gap_quarter\n")
    for p in points:
        stream.write(
            f"{p.quarter},{p.u:.8g},{p.v:.8g},{p.theta:.8g},{p.epsilon:.8g},"
            f"{p.u_star:.8g},{p.theta_star:.8g},{p.gap:.8g},{p.classification},"
            f"{int(p.is_gap_quarter)}\n"
        )


def zeta_tag(z: float) -> str:
    return f"z{100.0 * z:g}"


def write_sensitivity_csv(band: SensitivityBand, panel: LaborMarketPanel, stream: TextIO) -> None:
    tags = ",".join(f"u_star_{zeta_tag(z)}" for z in band.zetas)
    stream.write(f"quarter,u,{tags}\n")
    for i, row in enumerate(panel):
        cols = ",".join(f"{band.u_star[z][i]:.8g}" for z in band.zetas)
        stream.write(f"{row.quarter},{row.u:.8g},{cols}\n")


def write_implied_zeta_csv(
    rows: Sequence[tuple[Quarter, float, float, float]], stream: TextIO
) -> None:
    stream.write("quarter,theta,epsilon,zeta_star\n")
    for q, theta, eps, zs in rows:
        stream.write(f"{q},{theta:.8g},{eps:.8g},{zs:.8g}\n")
