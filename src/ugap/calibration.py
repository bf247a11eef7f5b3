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
from .errors import InputError


@dataclass(frozen=True)
class CalibrationProfile:
    """Named scalars backing the default kappa and zeta calibration.

    benefit_offset is the rounded headline offset actually subtracted in
    the study pipeline; the unrounded chain product remains available via
    exact_benefit_offset for sensitivity work. Each method checks the keys
    it reads, so a profile is only as valid as the values a caller uses.
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

    @classmethod
    def from_file(cls, path) -> CalibrationProfile:
        """The flat `key = value` profile at path; InputError naming the first key missing or not a number."""
        kv = config.KeyValues(path, "calibration profile")
        return cls(**{f.name: kv.number(f.name, required=True) for f in fields(cls)})

    def _reject(self, names: tuple[str, ...], bad, rule: str) -> None:
        """InputError naming the first key in names whose value is bad."""
        for name in names:
            x = getattr(self, name)
            if bad(x):
                raise InputError(f"calibration profile key {name!r} must be {rule}, got {x}")

    def kappa(self) -> float:
        """The survey identity: kappa = recruiting_share * (1 - u_survey) / v_survey."""
        self._reject(("recruiting_share", "u_survey", "v_survey"), lambda x: not 0.0 < x < 1.0, "in (0,1)")
        return self.recruiting_share * (1.0 - self.u_survey) / self.v_survey

    def exact_benefit_offset(self) -> float:
        """Average benefit value: the UI chain product plus other public benefits."""
        chain = ("ui_replacement", "ui_takeup", "ui_tax", "ui_filing", "ui_expiry", "other_benefits")
        self._reject(chain, lambda x: not 0.0 <= x <= 1.0, "in [0,1]")
        ui = self.ui_replacement * self.ui_takeup * self.ui_tax * self.ui_filing * self.ui_expiry
        return ui + self.other_benefits

    def study_bounds(self) -> dict[str, float]:
        """The four zeta bounds implied by the two study families.

        Each study's replacement rate of earnings is divided by the
        earnings-to-marginal-product factor, the product of the recruiting
        wedge, the payroll tax and, for the wage-bundle study, the recency
        undo. The benefit-inclusive study then subtracts the benefit
        offset. High factors pair with low bounds because dividing by a
        larger factor shrinks the value.
        """
        self._reject(("mpl_wedge_lo", "payroll_tax", "mpl_wedge_hi", "recency_undo"), lambda x: not x >= 1.0, ">= 1")
        rates = ("benefit_replacement_lo", "benefit_replacement_hi", "wage_replacement", "benefit_offset")
        self._reject(rates, lambda x: not 0.0 <= x <= 1.0, "in [0,1]")
        factor_lo = self.mpl_wedge_lo * self.payroll_tax
        factor_hi = self.mpl_wedge_hi * self.payroll_tax
        return {
            "benefit_study_lo": self.benefit_replacement_lo / factor_hi - self.benefit_offset,
            "benefit_study_hi": self.benefit_replacement_hi / factor_lo - self.benefit_offset,
            "wage_study_lo": self.wage_replacement / (factor_hi * self.recency_undo),
            "wage_study_hi": self.wage_replacement / (factor_lo * self.recency_undo),
        }

    def zeta_from_midrange(self) -> float:
        self._reject(("zeta_lo", "zeta_hi"), lambda x: not math.isfinite(x), "finite")
        if self.zeta_hi < self.zeta_lo:
            raise InputError(f"calibration profile zeta_lo {self.zeta_lo} is above zeta_hi {self.zeta_hi}")
        return 0.5 * (self.zeta_lo + self.zeta_hi)
