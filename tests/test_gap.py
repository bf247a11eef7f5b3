import numpy as np
import pytest

from ugap.calibration import SufficientStats
from ugap.errors import DomainError
from ugap.gap import (
    EFFICIENT,
    INEFFICIENTLY_SLACK,
    INEFFICIENTLY_TIGHT,
    classify,
    efficient_tightness,
    efficient_unemployment,
    gap_series,
    implied_zeta,
    implied_zeta_series,
    sensitivity,
    summarize,
    unemployment_gap,
)
from ugap.ingest import LaborMarketPanel, PanelRow
from ugap.quarters import Quarter
from ugap.regimes import ScheduleEntry

BASELINE = SufficientStats(epsilon=1.0, kappa=0.72, zeta=0.25)


def single_quarter_panel(u, v):
    return LaborMarketPanel((PanelRow(Quarter(2000, 1), u, v, v / u, 1.0 - u),))


def constant_schedule(panel, epsilon, is_gap=False):
    return (ScheduleEntry(epsilon, "test", is_gap),) * len(panel)


class TestEfficientTightness:
    def test_baseline_statistics(self):
        stats = SufficientStats(1.03, 0.72, 0.25)
        assert efficient_tightness(stats) == pytest.approx(0.75 / 0.7416, rel=1e-9)

    def test_zeta_near_one_sends_theta_star_to_zero(self):
        assert efficient_tightness(SufficientStats(1.0, 1.0, 0.999)) == pytest.approx(0.001)

    def test_unit_case(self):
        assert efficient_tightness(SufficientStats(1.0, 1.0, 0.0)) == 1.0


class TestClassify:
    def test_boom(self):
        assert classify(1.5, 1.0, 0.01) == INEFFICIENTLY_TIGHT

    def test_slump(self):
        assert classify(0.2, 1.0, 0.01) == INEFFICIENTLY_SLACK

    def test_knife_edge(self):
        assert classify(1.0, 1.0, 0.01) == EFFICIENT

    def test_dead_band_edges(self):
        assert classify(1.0099, 1.0, 0.01) == EFFICIENT
        assert classify(1.0101, 1.0, 0.01) == INEFFICIENTLY_TIGHT
        assert classify(0.9899, 1.0, 0.01) == INEFFICIENTLY_SLACK

    def test_positivity_required(self):
        with pytest.raises(DomainError):
            classify(0.0, 1.0)


class TestEfficientUnemployment:
    def test_hand_arithmetic(self):
        u_star = efficient_unemployment(0.05, 0.03, BASELINE)
        assert u_star == pytest.approx(0.0379473, abs=1e-6)

    def test_fixed_point_of_the_formula(self):
        for u in (0.02, 0.05, 0.09):
            for stats in (BASELINE, SufficientStats(1.2, 0.9, 0.1)):
                v = efficient_tightness(stats) * u
                assert efficient_unemployment(u, v, stats) == pytest.approx(u, rel=1e-12)

    def test_extreme_zeta_band(self):
        stats = SufficientStats(1.0, 0.72, 0.96)
        assert efficient_unemployment(0.05, 0.03, stats) == pytest.approx(0.1643, abs=5e-4)

    def test_positivity_required(self):
        with pytest.raises(DomainError):
            efficient_unemployment(0.0, 0.03, BASELINE)

    def test_monotone_in_kappa_zeta_and_v(self):
        u, v = 0.06, 0.03
        for kappa in (0.4, 0.72, 1.0):
            for zeta in (0.0, 0.25, 0.5):
                for eps in (0.8, 1.0, 1.25):
                    base = efficient_unemployment(u, v, SufficientStats(eps, kappa, zeta))
                    assert (
                        efficient_unemployment(u, v, SufficientStats(eps, kappa * 1.1, zeta))
                        > base
                    )
                    assert (
                        efficient_unemployment(u, v, SufficientStats(eps, kappa, zeta + 0.1))
                        > base
                    )
                    assert (
                        efficient_unemployment(u, v * 1.1, SufficientStats(eps, kappa, zeta))
                        > base
                    )
                    theta_star = efficient_tightness(SufficientStats(eps, kappa, zeta))
                    assert (
                        efficient_tightness(SufficientStats(eps, kappa * 1.1, zeta)) < theta_star
                    )
                    assert (
                        efficient_tightness(SufficientStats(eps, kappa, zeta + 0.1)) < theta_star
                    )

    def test_homogeneity_in_rates(self):
        for c in (0.5, 2.0):
            base = efficient_unemployment(0.05, 0.03, BASELINE)
            assert efficient_unemployment(0.05 * c, 0.03 * c, BASELINE) == pytest.approx(
                c * base, rel=1e-12
            )


class TestGapAndImpliedZeta:
    def test_gap_values(self):
        assert unemployment_gap(0.058, 0.042) == pytest.approx(0.016)
        assert unemployment_gap(0.04, 0.04) == 0.0
        assert unemployment_gap(0.10, 0.035) == pytest.approx(0.065)

    def test_implied_zeta_hand_value(self):
        assert implied_zeta(0.6, 0.72, 1.0) == pytest.approx(0.568)

    def test_implied_zeta_boundary(self):
        assert implied_zeta(1e-12, 0.72, 1.0) == pytest.approx(1.0, abs=1e-9)

    def test_implied_zeta_inverts_efficiency(self):
        for u in (0.03, 0.06, 0.09):
            for v in (0.02, 0.04):
                for eps in (0.8, 1.0, 1.25):
                    for kappa in (0.5, 0.72):
                        z_star = implied_zeta(v / u, kappa, eps)
                        if not z_star < 1.0:
                            continue
                        stats = SufficientStats(eps, kappa, z_star)
                        assert efficient_unemployment(u, v, stats) == pytest.approx(
                            u, rel=1e-12
                        )

    def test_domain(self):
        with pytest.raises(DomainError):
            implied_zeta(0.0, 0.72, 1.0)


def test_sign_agreement_on_curve():
    """On the fitted curve, theta above theta* must mean u below u*."""
    stats = SufficientStats(1.1, 0.72, 0.25)
    theta_star = efficient_tightness(stats)
    v0 = 0.002
    for u in np.linspace(0.015, 0.12, 25):
        v = v0 * u ** (-stats.epsilon)
        theta = v / u
        if abs(theta / theta_star - 1.0) < 0.02:
            continue
        u_star = efficient_unemployment(u, v, stats)
        label = classify(theta, theta_star, tol=0.01)
        if theta > theta_star:
            assert label == INEFFICIENTLY_TIGHT and u < u_star
        else:
            assert label == INEFFICIENTLY_SLACK and u > u_star
        assert (unemployment_gap(u, u_star) < 0) == (theta > theta_star)


class TestGapSeries:
    def test_single_quarter_at_fixed_point(self):
        theta_star = efficient_tightness(BASELINE)
        u = 0.05
        panel = single_quarter_panel(u, theta_star * u)
        schedule = constant_schedule(panel, BASELINE.epsilon)
        (point,) = gap_series(panel, schedule, BASELINE.kappa, BASELINE.zeta)
        assert point.gap == pytest.approx(0.0, abs=1e-15)
        assert point.classification == EFFICIENT
        assert not point.u_star_out_of_range

    def test_out_of_range_flagged_not_fatal(self):
        panel = single_quarter_panel(0.4, 0.39)
        schedule = constant_schedule(panel, 1.0)
        (point,) = gap_series(panel, schedule, 0.72, 0.99)
        assert point.u_star >= 1.0
        assert point.u_star_out_of_range

    def test_quarter_label_on_domain_error(self):
        panel = single_quarter_panel(0.05, 0.03)
        schedule = constant_schedule(panel, 1.0)
        with pytest.raises(DomainError, match="2000Q1"):
            gap_series(panel, schedule, kappa=-1.0, zeta=0.25)

    def test_bundled_series_consistency(self, panel, schedule):
        points = gap_series(panel, schedule, 0.72, 0.25)
        assert len(points) == len(panel)
        for p in points:
            assert p.gap == pytest.approx(p.u - p.u_star, abs=1e-15)
            assert 0.0 < p.u_star < 1.0


class TestSummaries:
    def test_exclude_gap_quarters(self, panel, schedule):
        points = gap_series(panel, schedule, 0.72, 0.25)
        full = summarize(points)
        core = summarize(points, exclude_gap_quarters=True)
        flagged = sum(p.is_gap_quarter for p in points)
        assert full.n_quarters - core.n_quarters == flagged
        assert full.n_slack + full.n_tight + full.n_efficient == full.n_quarters

    def test_empty_rejected(self):
        with pytest.raises(DomainError):
            summarize([])


class TestSensitivity:
    def test_u_star_strictly_increasing_in_zeta(self, panel, schedule):
        band = sensitivity(panel, schedule, 0.72, (0.0, 0.25, 0.5, 0.96))
        for i in range(len(panel)):
            column = [band.u_star[z][i] for z in band.zetas]
            assert all(a < b for a, b in zip(column, column[1:]))

    def test_singleton_matches_gap_series(self, panel, schedule):
        band = sensitivity(panel, schedule, 0.72, (0.25,))
        points = gap_series(panel, schedule, 0.72, 0.25)
        assert band.u_star[0.25] == pytest.approx(tuple(p.u_star for p in points))

    def test_zeta_must_be_below_one(self, panel, schedule):
        with pytest.raises(DomainError):
            sensitivity(panel, schedule, 0.72, (0.25, 1.0))

    def test_kappa_overrides_match_gap_series(self, panel, schedule):
        overrides = {"2010Q1-2019Q4": 2.0}
        band = sensitivity(panel, schedule, 0.72, (0.25,), kappa_by_regime=overrides)
        points = gap_series(panel, schedule, 0.72, 0.25, kappa_by_regime=overrides)
        assert band.u_star[0.25] == [p.u_star for p in points]
        assert band.u_star[0.25] != sensitivity(panel, schedule, 0.72, (0.25,)).u_star[0.25]

    def test_mean_shift_signs(self, panel, schedule):
        band = sensitivity(panel, schedule, 0.72, (0.0, 0.5))
        assert band.mean_shift[0.0] < 0.0 < band.mean_shift[0.5]
        assert band.mean_width > 0.0


def test_implied_zeta_series_matches_pointwise(panel, schedule):
    rows = implied_zeta_series(panel, schedule, 0.72)
    assert len(rows) == len(panel)
    for (q, theta, eps, z_star), row in zip(rows, panel):
        assert q == row.quarter
        assert z_star == pytest.approx(1.0 - 0.72 * eps * theta, abs=1e-12)


def test_implied_zeta_series_takes_regime_kappa(panel, schedule):
    rows = implied_zeta_series(panel, schedule, 0.72, kappa_by_regime={"2010Q1-2019Q4": 2.0})
    for (_q, theta, eps, z_star), entry in zip(rows, schedule):
        kappa = 2.0 if entry.regime_label == "2010Q1-2019Q4" else 0.72
        assert z_star == 1.0 - kappa * eps * theta
