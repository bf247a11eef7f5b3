"""The calibration chain through the profile's own methods, on the bundled profile with some keys replaced."""

import math
from dataclasses import replace

import pytest

from scalar_formulas import SufficientStats
from ugap.errors import InputError


# the keys study_bounds reads: the earnings-to-marginal-product factors and the rates they divide
FACTORS = ["mpl_wedge_lo", "payroll_tax", "mpl_wedge_hi", "recency_undo"]
RATES = ["benefit_replacement_lo", "benefit_replacement_hi", "wage_replacement", "benefit_offset"]


def survey_kappa(profile, share, u, v):
    return replace(profile, recruiting_share=share, u_survey=u, v_survey=v).kappa()


def mpl_factors(profile, **keys):
    """The wage study's low-wedge and high-wedge factors, read back as 1 / bound at a replacement rate of 1."""
    bounds = replace(profile, wage_replacement=1.0, **keys).study_bounds()
    return 1.0 / bounds["wage_study_hi"], 1.0 / bounds["wage_study_lo"]


def offset(profile, *chain):
    keys = ("ui_replacement", "ui_takeup", "ui_tax", "ui_filing", "ui_expiry", "other_benefits")
    return replace(profile, **dict(zip(keys, chain))).exact_benefit_offset()


def study_zeta(profile, raw, factor, offset):
    """raw / factor - offset: the benefit study's low bound with the whole factor in the high wedge."""
    p = replace(profile, benefit_replacement_lo=raw, mpl_wedge_hi=factor, payroll_tax=1.0, benefit_offset=offset)
    return p.study_bounds()["benefit_study_lo"]


def midrange(profile, lo, hi):
    return replace(profile, zeta_lo=lo, zeta_hi=hi).zeta_from_midrange()


class TestKappa:
    def test_survey_calibration(self, profile):
        kappa = survey_kappa(profile, 0.025, 0.049, 0.033)
        assert kappa == pytest.approx(0.72, abs=0.005)

    def test_fixed_point(self, profile):
        u, v = 0.05, 0.04
        share = v / (1.0 - u)
        assert survey_kappa(profile, share, u, v) == pytest.approx(1.0)

    def test_hand_arithmetic(self, profile):
        assert survey_kappa(profile, 0.03, 0.05, 0.03) == pytest.approx(0.95)

    def test_homogeneity(self, profile):
        base = survey_kappa(profile, 0.02, 0.05, 0.03)
        for c in (1.5, 2.0):
            assert survey_kappa(profile, 0.02, 0.05, 0.03 * c) == pytest.approx(base / c)
            assert survey_kappa(profile, 0.02 * c, 0.05, 0.03) == pytest.approx(base * c)

    def test_survey_validation(self, profile):
        with pytest.raises(InputError, match="'v_survey' must be in"):
            survey_kappa(profile, 0.025, 0.049, 0.0)


class TestMplFactor:
    def test_low_and_high_products(self, profile):
        low, _ = mpl_factors(profile, mpl_wedge_lo=1.03, payroll_tax=1.077, recency_undo=1.0)
        assert low == pytest.approx(1.11, abs=0.005)
        _, high = mpl_factors(profile, mpl_wedge_hi=1.25, payroll_tax=1.077, recency_undo=1.06)
        assert high == pytest.approx(1.43, abs=0.005)

    def test_identity(self, profile):
        assert mpl_factors(profile, mpl_wedge_lo=1.0, mpl_wedge_hi=1.0, payroll_tax=1.0, recency_undo=1.0) == (1.0, 1.0)

    def test_factors_below_one_rejected(self, profile):
        with pytest.raises(InputError, match="'mpl_wedge_lo' must be >= 1"):
            mpl_factors(profile, mpl_wedge_lo=0.9, payroll_tax=1.077)

    @pytest.mark.parametrize("key", FACTORS + RATES)
    def test_nan_factor_rejected(self, profile, key):
        rule = ">= 1" if key in FACTORS else r"in \[0,1\]"
        with pytest.raises(InputError, match=f"^calibration profile key '{key}' must be {rule}, got nan$"):
            replace(profile, **{key: math.nan}).study_bounds()


class TestBenefitOffset:
    def test_chain_product(self, profile):
        # unrounded UI piece is 0.0452, quoted rounded as 0.05 and summed to 0.07
        assert offset(profile, 0.215, 0.65, 0.83, 0.47, 0.83, 0.02) == pytest.approx(0.0652, abs=5e-4)

    def test_all_zero(self, profile):
        assert offset(profile, 0, 0, 0, 0, 0, 0) == 0.0

    def test_passthrough(self, profile):
        assert offset(profile, 0.2, 1, 1, 1, 1, 0) == pytest.approx(0.2)

    def test_chain_outside_unit_interval_rejected(self, profile):
        with pytest.raises(InputError, match="'ui_tax' must be in"):
            offset(profile, 0.2, 1, 1.5, 1, 1, 0)


class TestZetaFromStudy:
    def test_wage_study_bounds(self, profile):
        assert study_zeta(profile, 0.58, 1.43, 0.0) == pytest.approx(0.41, abs=0.005)
        assert study_zeta(profile, 0.58, 1.18, 0.0) == pytest.approx(0.49, abs=0.005)

    def test_benefit_study_bounds(self, profile):
        assert study_zeta(profile, 0.13, 1.35, 0.07) == pytest.approx(0.03, abs=0.005)
        assert study_zeta(profile, 0.35, 1.11, 0.07) == pytest.approx(0.25, abs=0.005)

    def test_zero(self, profile):
        assert study_zeta(profile, 0.0, 1.0, 0.0) == 0.0

    def test_monotone_in_arguments(self, profile):
        base = study_zeta(profile, 0.3, 1.2, 0.05)
        assert study_zeta(profile, 0.35, 1.2, 0.05) > base
        assert study_zeta(profile, 0.3, 1.3, 0.05) < base
        assert study_zeta(profile, 0.3, 1.2, 0.07) < base


class TestZetaMidrange:
    def test_plausible_range(self, profile):
        assert midrange(profile, 0.0, 0.5) == 0.25

    def test_degenerate(self, profile):
        assert midrange(profile, 0.3, 0.3) == 0.3

    def test_combined_study_bounds(self, profile):
        assert midrange(profile, 0.03, 0.49) == pytest.approx(0.26)

    def test_inverted_rejected(self, profile):
        with pytest.raises(InputError, match="zeta_lo 0.5 is above zeta_hi 0.0"):
            midrange(profile, 0.5, 0.0)

    @pytest.mark.parametrize("key", ["zeta_lo", "zeta_hi"])
    def test_nan_bound_rejected(self, profile, key):
        with pytest.raises(InputError, match=f"^calibration profile key '{key}' must be finite, got nan$"):
            replace(profile, **{key: math.nan}).zeta_from_midrange()


class TestProfile:
    def test_default_values(self, profile):
        assert profile.zeta == 0.25
        assert profile.kappa() == pytest.approx(0.72, abs=0.005)
        assert profile.zeta_from_midrange() == pytest.approx(0.25)

    def test_study_bounds_reproduce_published_numbers(self, profile):
        bounds = profile.study_bounds()
        assert bounds["benefit_study_lo"] == pytest.approx(0.03, abs=0.005)
        assert bounds["benefit_study_hi"] == pytest.approx(0.25, abs=0.005)
        assert bounds["wage_study_lo"] == pytest.approx(0.41, abs=0.005)
        assert bounds["wage_study_hi"] == pytest.approx(0.49, abs=0.005)

    def test_bundled_chain_values_are_exact(self, profile):
        # pinned bit for bit: a change to the chain's arithmetic that moves a last digit fails here
        assert profile.kappa() == 0.7204545454545455
        assert profile.study_bounds() == {
            "benefit_study_lo": 0.026564531104921074,
            "benefit_study_hi": 0.24551144405080633,
            "wage_study_lo": 0.4064399712688986,
            "wage_study_hi": 0.49325239231662443,
        }
        assert profile.exact_benefit_offset() == 0.06524867425
        assert profile.zeta_from_midrange() == 0.25

    def test_exact_offset_available(self, profile):
        assert profile.exact_benefit_offset() == pytest.approx(0.0652, abs=5e-4)
        assert profile.benefit_offset == 0.07


class TestSufficientStats:
    def test_validation(self):
        SufficientStats(1.0, 0.72, 0.25)
        with pytest.raises(InputError, match="^elasticity must be positive, got 0.0$"):
            SufficientStats(0.0, 0.72, 0.25)
        with pytest.raises(InputError, match="^recruiting cost must be positive and finite, got 0.0$"):
            SufficientStats(1.0, 0.0, 0.25)
        with pytest.raises(InputError, match="^social value of nonwork must be finite and below 1, got 1.0$"):
            SufficientStats(1.0, 0.72, 1.0)
        with pytest.raises(InputError, match="finite"):
            SufficientStats(1.0, 0.72, -math.inf)
