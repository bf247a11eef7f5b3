"""Recruiting-cost and social-value-of-nonwork calibration.

The recruiting cost comes from an employer survey identity: if firms
spend a share sigma of labor costs on recruiting, then kappa * v =
sigma * (1 - u). The social value of nonwork is assembled from study
estimates of earnings replacement, adjusted to marginal-product units
and net of public benefits.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields

from . import config
from .errors import ConfigError, DomainError


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


@dataclass(frozen=True)
class RecruitingSurvey:
    recruiting_share: float
    u: float
    v: float

    def __post_init__(self):
        for name in ("recruiting_share", "u", "v"):
            x = getattr(self, name)
            if not 0.0 < x < 1.0:
                raise DomainError(f"survey {name} must be in (0,1), got {x}")


@dataclass(frozen=True)
class MplAdjustment:
    """Multiplicative factors lifting earnings to marginal-product units."""

    recruiting_wedge: float
    payroll_tax_factor: float
    recency_discount_undo: float = 1.0

    def __post_init__(self):
        for name in ("recruiting_wedge", "payroll_tax_factor", "recency_discount_undo"):
            if getattr(self, name) < 1.0:
                raise DomainError(f"{name} must be >= 1")


@dataclass(frozen=True)
class BenefitOffset:
    """Public-benefit value to subtract, as fractions of the marginal product."""

    ui_replacement: float
    takeup: float
    tax_factor: float
    filing_disutility_factor: float
    expiry_factor: float
    other_benefits: float

    def __post_init__(self):
        for f in fields(self):
            x = getattr(self, f.name)
            if not 0.0 <= x <= 1.0:
                raise DomainError(f"{f.name} must be in [0,1], got {x}")


def kappa_from_survey(s: RecruitingSurvey) -> float:
    """kappa = share * (1 - u) / v."""
    if s.v <= 0.0:
        raise DomainError("vacancy rate must be positive")
    return s.recruiting_share * (1.0 - s.u) / s.v


def mpl_factor(adj: MplAdjustment) -> float:
    """Product of the earnings-to-marginal-product factors."""
    return adj.recruiting_wedge * adj.payroll_tax_factor * adj.recency_discount_undo


def benefit_offset_value(b: BenefitOffset) -> float:
    """Average benefit value: UI chain product plus other public benefits."""
    ui = (
        b.ui_replacement
        * b.takeup
        * b.tax_factor
        * b.filing_disutility_factor
        * b.expiry_factor
    )
    return ui + b.other_benefits


def zeta_from_study(raw_replacement: float, factor: float, offset: float) -> float:
    """Replacement rate of earnings -> social value of nonwork.

    Divides by the earnings-to-marginal-product factor, then subtracts the
    public-benefit offset (zero for studies that already exclude benefits).
    """
    if factor < 1.0:
        raise DomainError(f"adjustment factor must be >= 1, got {factor}")
    return raw_replacement / factor - offset


def zeta_midrange(lo: float, hi: float) -> float:
    if hi < lo:
        raise DomainError(f"inverted zeta range ({lo}, {hi})")
    return 0.5 * (lo + hi)


@dataclass(frozen=True)
class CalibrationProfile:
    """Named scalars backing the default kappa and zeta calibration.

    benefit_offset is the rounded headline offset actually subtracted in
    the study pipeline; the unrounded chain product remains available via
    exact_benefit_offset for sensitivity work.
    """

    recruiting_share: float
    u_survey: float
    v_survey: float
    zeta: float
    zeta_lo: float
    zeta_hi: float
    mpl_wedge_lo: float
    mpl_wedge_hi: float
    payroll_tax: float
    recency_undo: float
    benefit_replacement_lo: float
    benefit_replacement_hi: float
    wage_replacement: float
    ui_replacement: float
    ui_takeup: float
    ui_tax: float
    ui_filing: float
    ui_expiry: float
    other_benefits: float
    benefit_offset: float

    def kappa(self) -> float:
        return kappa_from_survey(
            RecruitingSurvey(self.recruiting_share, self.u_survey, self.v_survey)
        )

    def exact_benefit_offset(self) -> float:
        return benefit_offset_value(
            BenefitOffset(
                self.ui_replacement,
                self.ui_takeup,
                self.ui_tax,
                self.ui_filing,
                self.ui_expiry,
                self.other_benefits,
            )
        )

    def study_bounds(self) -> dict[str, float]:
        """The four zeta bounds implied by the two study families.

        Keys: benefit-inclusive study low/high (offset subtracted), and
        wage-bundle study low/high (no offset). High MPL factors pair with
        low bounds because dividing by a larger factor shrinks the value.
        """
        factor_lo = mpl_factor(MplAdjustment(self.mpl_wedge_lo, self.payroll_tax))
        factor_hi = mpl_factor(MplAdjustment(self.mpl_wedge_hi, self.payroll_tax))
        wage_factor_lo = mpl_factor(
            MplAdjustment(self.mpl_wedge_lo, self.payroll_tax, self.recency_undo)
        )
        wage_factor_hi = mpl_factor(
            MplAdjustment(self.mpl_wedge_hi, self.payroll_tax, self.recency_undo)
        )
        return {
            "benefit_study_lo": zeta_from_study(
                self.benefit_replacement_lo, factor_hi, self.benefit_offset
            ),
            "benefit_study_hi": zeta_from_study(
                self.benefit_replacement_hi, factor_lo, self.benefit_offset
            ),
            "wage_study_lo": zeta_from_study(self.wage_replacement, wage_factor_hi, 0.0),
            "wage_study_hi": zeta_from_study(self.wage_replacement, wage_factor_lo, 0.0),
        }

    def zeta_from_midrange(self) -> float:
        return zeta_midrange(self.zeta_lo, self.zeta_hi)

    @classmethod
    def from_mapping(cls, values: dict[str, str]) -> CalibrationProfile:
        names = [f.name for f in fields(cls)]
        missing = set(names) - set(values)
        if missing:
            raise ConfigError(f"calibration profile missing keys: {sorted(missing)}")
        try:
            numbers = {k: float(values[k]) for k in names}
        except ValueError as exc:
            raise ConfigError(f"calibration profile has a non-numeric value: {exc}") from None
        return cls(**numbers)

    @classmethod
    def from_file(cls, path) -> CalibrationProfile:
        flat = config.parse_kv_text(config.read_text(path))
        # profile files are flat; tolerate a [calibration] section prefix
        values = {k.split(".", 1)[-1]: v for k, v in flat.items()}
        return cls.from_mapping(values)
