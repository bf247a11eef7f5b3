"""Sufficient-statistic formulas for efficient tightness and unemployment.

Everything here is closed-form arithmetic on (u, v) and the statistics
triple; the numerical planner in ``planner`` provides the independent
cross-check of these formulas.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Sequence, TextIO

from .calibration import SufficientStats
from .errors import DomainError
from .ingest import LaborMarketPanel
from .quarters import Quarter
from .regimes import ElasticitySchedule

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


def gap_series(
    panel: LaborMarketPanel,
    schedule: ElasticitySchedule,
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
    for row in panel:
        entry = schedule[row.quarter]
        k = kappa if kappa_by_regime is None else kappa_by_regime.get(entry.regime_label, kappa)
        try:
            stats = SufficientStats(entry.epsilon, k, zeta)
            theta_star = efficient_tightness(stats)
            u_star = efficient_unemployment(row.u, row.v, stats)
        except DomainError as exc:
            raise DomainError(f"{row.quarter}: {exc}") from None
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

    def to_dict(self) -> dict:
        return {
            "n_quarters": self.n_quarters,
            "mean_u": self.mean_u,
            "mean_u_star": self.mean_u_star,
            "mean_gap": self.mean_gap,
            "max_gap": self.max_gap,
            "max_gap_quarter": self.max_gap_quarter,
            "min_gap": self.min_gap,
            "min_gap_quarter": self.min_gap_quarter,
            "n_slack": self.n_slack,
            "n_tight": self.n_tight,
            "n_efficient": self.n_efficient,
        }


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


@dataclass(frozen=True)
class SensitivityBand:
    """u* series under each zeta in a sweep, plus summary deltas."""

    zetas: tuple[float, ...]
    quarters: tuple[Quarter, ...]
    u: tuple[float, ...]
    u_star: dict[float, tuple[float, ...]]
    baseline_zeta: float
    mean_shift: dict[float, float]
    width_pair: tuple[float, float]
    mean_width: float


def sensitivity(
    panel: LaborMarketPanel,
    schedule: ElasticitySchedule,
    kappa: float,
    zetas: Sequence[float],
    baseline_zeta: float = 0.25,
    width_pair: tuple[float, float] = (0.0, 0.5),
) -> SensitivityBand:
    """Sweep the social value of nonwork over a list of values.

    Mean shifts are quoted against the baseline zeta and the band width
    against the given (low, high) pair, whether or not those values are
    members of the sweep list.
    """
    for z in zetas:
        if not z < 1.0:
            raise DomainError(f"zeta must be below 1, got {z}")

    # one gap pass per distinct zeta, shared by the sweep, baseline and width pair
    columns = {
        z: tuple(p.u_star for p in gap_series(panel, schedule, kappa, z))
        for z in dict.fromkeys((*zetas, baseline_zeta, *width_pair))
    }
    base = columns[baseline_zeta]
    lo_col, hi_col = columns[width_pair[0]], columns[width_pair[1]]
    n = len(panel)
    return SensitivityBand(
        zetas=tuple(zetas),
        quarters=tuple(panel.quarters()),
        u=tuple(r.u for r in panel),
        u_star={z: columns[z] for z in zetas},
        baseline_zeta=baseline_zeta,
        mean_shift={z: sum(c - b for c, b in zip(columns[z], base)) / n for z in zetas},
        width_pair=width_pair,
        mean_width=sum(h - l for h, l in zip(hi_col, lo_col)) / n,
    )


def implied_zeta_series(
    panel: LaborMarketPanel, schedule: ElasticitySchedule, kappa: float
) -> list[tuple[Quarter, float, float, float]]:
    """(quarter, theta, epsilon, zeta*) rows for the implied-zeta export."""
    out = []
    for row in panel:
        entry = schedule[row.quarter]
        out.append((row.quarter, row.theta, entry.epsilon, implied_zeta(row.theta, kappa, entry.epsilon)))
    return out


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


def write_sensitivity_csv(band: SensitivityBand, stream: TextIO) -> None:
    tags = ",".join(f"u_star_{zeta_tag(z)}" for z in band.zetas)
    stream.write(f"quarter,u,{tags}\n")
    for i, q in enumerate(band.quarters):
        cols = ",".join(f"{band.u_star[z][i]:.8g}" for z in band.zetas)
        stream.write(f"{q},{band.u[i]:.8g},{cols}\n")


def write_implied_zeta_csv(
    rows: Sequence[tuple[Quarter, float, float, float]], stream: TextIO
) -> None:
    stream.write("quarter,theta,epsilon,zeta_star\n")
    for q, theta, eps, zs in rows:
        stream.write(f"{q},{theta:.8g},{eps:.8g},{zs:.8g}\n")
