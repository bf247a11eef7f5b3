import math
from dataclasses import asdict

import pytest

from ugap.calibration import (
    BenefitOffset,
    CalibrationProfile,
    MplAdjustment,
    RecruitingSurvey,
    SufficientStats,
    benefit_offset_value,
    kappa_from_survey,
    mpl_factor,
    zeta_from_study,
    zeta_midrange,
)
from ugap.errors import ConfigError, DomainError


class TestKappa:
    def test_survey_calibration(self):
        kappa = kappa_from_survey(RecruitingSurvey(0.025, 0.049, 0.033))
        assert kappa == pytest.approx(0.72, abs=0.005)

    def test_fixed_point(self):
        u, v = 0.05, 0.04
        share = v / (1.0 - u)
        assert kappa_from_survey(RecruitingSurvey(share, u, v)) == pytest.approx(1.0)

    def test_hand_arithmetic(self):
        assert kappa_from_survey(RecruitingSurvey(0.03, 0.05, 0.03)) == pytest.approx(0.95)

    def test_homogeneity(self):
        base = kappa_from_survey(RecruitingSurvey(0.02, 0.05, 0.03))
        for c in (1.5, 2.0):
            assert kappa_from_survey(RecruitingSurvey(0.02, 0.05, 0.03 * c)) == pytest.approx(
                base / c
            )
            assert kappa_from_survey(RecruitingSurvey(0.02 * c, 0.05, 0.03)) == pytest.approx(
                base * c
            )

    def test_survey_validation(self):
        with pytest.raises(DomainError):
            RecruitingSurvey(0.025, 0.049, 0.0)


class TestMplFactor:
    def test_low_and_high_products(self):
        assert mpl_factor(MplAdjustment(1.03, 1.077)) == pytest.approx(1.11, abs=0.005)
        assert mpl_factor(MplAdjustment(1.25, 1.077, 1.06)) == pytest.approx(1.43, abs=0.005)

    def test_identity(self):
        assert mpl_factor(MplAdjustment(1.0, 1.0, 1.0)) == 1.0

    def test_factors_below_one_rejected(self):
        with pytest.raises(DomainError):
            MplAdjustment(0.9, 1.077)


class TestBenefitOffset:
    def test_chain_product(self):
        offset = BenefitOffset(0.215, 0.65, 0.83, 0.47, 0.83, 0.02)
        # unrounded UI piece is 0.0452, quoted rounded as 0.05 and summed to 0.07
        assert benefit_offset_value(offset) == pytest.approx(0.0652, abs=5e-4)

    def test_all_zero(self):
        assert benefit_offset_value(BenefitOffset(0, 0, 0, 0, 0, 0)) == 0.0

    def test_passthrough(self):
        assert benefit_offset_value(BenefitOffset(0.2, 1, 1, 1, 1, 0)) == pytest.approx(0.2)


class TestZetaFromStudy:
    def test_wage_study_bounds(self):
        assert zeta_from_study(0.58, 1.43, 0.0) == pytest.approx(0.41, abs=0.005)
        assert zeta_from_study(0.58, 1.18, 0.0) == pytest.approx(0.49, abs=0.005)

    def test_benefit_study_bounds(self):
        assert zeta_from_study(0.13, 1.35, 0.07) == pytest.approx(0.03, abs=0.005)
        assert zeta_from_study(0.35, 1.11, 0.07) == pytest.approx(0.25, abs=0.005)

    def test_zero(self):
        assert zeta_from_study(0.0, 1.0, 0.0) == 0.0

    def test_monotone_in_arguments(self):
        base = zeta_from_study(0.3, 1.2, 0.05)
        assert zeta_from_study(0.35, 1.2, 0.05) > base
        assert zeta_from_study(0.3, 1.3, 0.05) < base
        assert zeta_from_study(0.3, 1.2, 0.07) < base


class TestZetaMidrange:
    def test_plausible_range(self):
        assert zeta_midrange(0.0, 0.5) == 0.25

    def test_degenerate(self):
        assert zeta_midrange(0.3, 0.3) == 0.3

    def test_combined_study_bounds(self):
        assert zeta_midrange(0.03, 0.49) == pytest.approx(0.26)

    def test_inverted_rejected(self):
        with pytest.raises(DomainError):
            zeta_midrange(0.5, 0.0)


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

    def test_mapping_errors(self, profile):
        values = {k: str(x) for k, x in asdict(profile).items()}
        del values["ui_tax"], values["zeta"]
        with pytest.raises(ConfigError, match=r"missing keys: \['ui_tax', 'zeta'\]"):
            CalibrationProfile.from_mapping(values)
        values.update(ui_tax="abc", zeta="0.25")
        with pytest.raises(ConfigError, match="non-numeric value: .* float: 'abc'"):
            CalibrationProfile.from_mapping(values)

    def test_exact_offset_available(self, profile):
        assert profile.exact_benefit_offset() == pytest.approx(0.0652, abs=5e-4)
        assert profile.benefit_offset == 0.07


class TestSufficientStats:
    def test_validation(self):
        SufficientStats(1.0, 0.72, 0.25)
        with pytest.raises(DomainError):
            SufficientStats(0.0, 0.72, 0.25)
        with pytest.raises(DomainError):
            SufficientStats(1.0, 0.0, 0.25)
        with pytest.raises(DomainError):
            SufficientStats(1.0, 0.72, 1.0)
        with pytest.raises(DomainError, match="finite"):
            SufficientStats(1.0, 0.72, -math.inf)
