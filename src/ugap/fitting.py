"""Beveridge-curve estimation: log-log OLS per regime.

The regression is of log vacancy rate on log unemployment rate, with an
intercept and natural logs throughout. The elasticity is minus the
slope. Standard errors are classical homoskedastic OLS errors; serial
correlation leaves the point estimate unchanged and inference is not
used downstream, so no HAC correction is applied.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Sequence

import numpy as np

from .errors import InputError
from .quarters import quarter_label

if TYPE_CHECKING:
    from .ingest import LaborMarketPanel
    from .regimes import Regime, RegimeTable


@dataclass(frozen=True)
class ElasticityEstimate:
    """Per-regime isoelastic fit: v = exp(log_v0) * u ** (-epsilon)."""

    label: str
    epsilon: float
    log_v0: float
    se_epsilon: float
    r_squared: float
    n_obs: int

    def __post_init__(self):
        if not self.epsilon > 0.0:
            raise InputError(
                f"estimated elasticity must be positive, got {self.epsilon} ({self.label!r})"
            )
        if self.se_epsilon < 0.0 or not 0.0 <= self.r_squared <= 1.0 or self.n_obs < 2:
            raise InputError(f"malformed estimate for {self.label!r}")


def fit_elasticity(u: Sequence[float], v: Sequence[float], label: str = "") -> ElasticityEstimate:
    """OLS of ln v on ln u over aligned u and v columns.

    Requires at least 3 rows of positive finite rates and variation in u.
    Returns the elasticity (minus the slope), the log intercept, the
    classical standard error of the slope and the coefficient of
    determination. The sums are numpy's pairwise sums, whose order, unlike
    a BLAS dot product's, does not depend on the CPU.
    """
    n = len(u)
    if n < 3:
        raise InputError(f"need at least 3 rows to fit a curve, got {n} ({label!r})")
    x, y = np.asarray(u, dtype=float), np.asarray(v, dtype=float)
    for name, rates in (("unemployment", x), ("vacancy", y)):
        bad = rates[~((0.0 < rates) & (rates < np.inf))]
        if len(bad):
            raise InputError(f"{name} rate {bad[0]} is not positive and finite ({label!r})")
    x, y = np.log(x), np.log(y)
    x_mean, y_mean = x.mean(), y.mean()
    dx = x - x_mean
    sxx = float((dx * dx).sum())
    if sxx <= 0.0:
        raise InputError(f"log unemployment has zero variance ({label!r})")
    dy = y - y_mean
    slope = float((dx * dy).sum()) / sxx
    intercept = float(y_mean - slope * x_mean)
    resid = y - (intercept + slope * x)
    ssr = float((resid * resid).sum())
    sst = float((dy * dy).sum())
    r_squared = 1.0 if sst == 0.0 else 1.0 - ssr / sst
    r_squared = min(max(r_squared, 0.0), 1.0)
    se = float(np.sqrt(max(ssr, 0.0) / (n - 2) / sxx))
    return ElasticityEstimate(label, -slope, intercept, se, r_squared, n)


def fit_all(
    panel: "LaborMarketPanel", table: "RegimeTable"
) -> tuple[list[tuple["Regime", ElasticityEstimate]], list[tuple[str, InputError]]]:
    """Fit each regime on its own, so one bad regime does not hide the rest.

    Returns a (regime, estimate) pair for every fitted regime, in regime
    order, and a (regime label, error) pair for every regime that failed
    to fit.
    """
    fits, failures = [], []
    for regime in table:
        sub = panel.between(regime.start, regime.end)
        try:
            fits.append((regime, fit_elasticity(sub.u, sub.v, label=regime.label)))
        except InputError as exc:
            failures.append((regime.label, exc))
    return fits, failures


def dmp_elasticity(alpha: float, u: float) -> float:
    """Beveridge elasticity implied by a Cobb-Douglas matching function.

    With matching elasticity alpha and unemployment rate u the implied
    curve elasticity is (alpha + u/(1-u)) / (1-alpha).
    """
    if not 0.0 < alpha < 1.0:
        raise InputError(f"matching elasticity must be in (0,1), got {alpha}")
    if not 0.0 < u < 1.0:
        raise InputError(f"unemployment rate must be in (0,1), got {u}")
    return (alpha + u / (1.0 - u)) / (1.0 - alpha)


def write_estimates_csv(fits: Sequence[tuple["Regime", ElasticityEstimate]]) -> str:
    """The text of estimates.csv: one row per (regime, estimate) pair of fit_all."""
    rows = ["regime,start,end,epsilon,se,log_v0,r2,n_obs\n"]
    for regime, e in fits:
        rows.append(
            f"{regime.label},{quarter_label(regime.start)},{quarter_label(regime.end)},"
            f"{e.epsilon:.8g},{e.se_epsilon:.8g},{e.log_v0:.8g},{e.r_squared:.8g},{e.n_obs}\n"
        )
    return "".join(rows)
