"""The efficiency formulas one point at a time, as references for the column code.

gap_series, sensitivity, implied_zeta_series, the oracle's formula side
and simulate's round-trip error evaluate these formulas on whole columns.
The per-point forms they replaced are kept here so that tests can check
the columns quarter by quarter against plain scalar arithmetic.
"""

import math
from dataclasses import dataclass

from ugap.errors import DomainError
from ugap.gap import EFFICIENT, INEFFICIENTLY_SLACK, INEFFICIENTLY_TIGHT, _u_star


@dataclass(frozen=True)
class SufficientStats:
    """The (epsilon, kappa, zeta) triple feeding the gap formulas."""

    epsilon: float
    kappa: float
    zeta: float

    def __post_init__(self):
        if not self.epsilon > 0.0:
            raise DomainError(f"elasticity must be positive, got {self.epsilon}")
        if not 0.0 < self.kappa < math.inf:
            raise DomainError(f"recruiting cost must be positive and finite, got {self.kappa}")
        if not -math.inf < self.zeta < 1.0:
            raise DomainError(f"social value of nonwork must be finite and below 1, got {self.zeta}")


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
    return _u_star(u, v, stats.epsilon, stats.kappa, stats.zeta)


def implied_zeta(theta: float, kappa: float, epsilon: float) -> float:
    """Social value of nonwork that would make observed tightness efficient."""
    if theta <= 0.0 or kappa <= 0.0 or epsilon <= 0.0:
        raise DomainError("theta, kappa, epsilon must all be positive")
    return 1.0 - kappa * epsilon * theta
