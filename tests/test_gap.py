import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from scalar_formulas import SufficientStats, classify, efficient_tightness, efficient_unemployment, implied_zeta
from ugap.errors import InputError
from ugap.gap import (
    EFFICIENT,
    INEFFICIENTLY_SLACK,
    INEFFICIENTLY_TIGHT,
    gap_series,
    implied_zeta_series,
    sensitivity,
    summarize,
    zeta_tag,
)
from ugap.ingest import LaborMarketPanel
from ugap.quarters import parse_quarter
from ugap.regimes import Schedule, build_schedule

BASELINE = SufficientStats(epsilon=1.0, kappa=0.72, zeta=0.25)


def panel_from(u, v, first="2000Q1"):
    """A panel of consecutive quarters from the given u and v columns."""
    start = parse_quarter(first)
    return LaborMarketPanel(range(start, start + len(u)), u, v)


def single_quarter_panel(u, v):
    return panel_from([u], [v])


def constant_schedule(panel, epsilon, kappa, is_gap=False):
    n = len(panel)
    return Schedule(np.full(n, epsilon), np.full(n, kappa), np.full(n, is_gap))


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
        with pytest.raises(InputError, match="^tightness must be positive to classify$"):
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
        with pytest.raises(InputError, match="^rates must be positive, got u=0.0, v=0.03$"):
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
        u, v = [0.058, 0.04, 0.10], [0.03, 0.04, 0.01]
        panel = panel_from(u, v)
        series = gap_series(panel, constant_schedule(panel, BASELINE.epsilon, 0.72), 0.25)
        assert series.gap.tolist() == (panel.u - series.u_star).tolist()
        for gap, u_i, v_i in zip(series.gap.tolist(), u, v):
            assert gap == pytest.approx(u_i - efficient_unemployment(u_i, v_i, BASELINE), abs=1e-15)

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
        with pytest.raises(InputError, match="^theta, kappa, epsilon must all be positive$"):
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
        assert (u - u_star < 0) == (theta > theta_star)


class TestGapSeries:
    def test_single_quarter_at_fixed_point(self):
        theta_star = efficient_tightness(BASELINE)
        u = 0.05
        panel = single_quarter_panel(u, theta_star * u)
        schedule = constant_schedule(panel, BASELINE.epsilon, BASELINE.kappa)
        series = gap_series(panel, schedule, BASELINE.zeta)
        assert series.gap[0] == pytest.approx(0.0, abs=1e-15)
        assert series.classification[0] == EFFICIENT
        assert summarize(panel, schedule, series)["n_out_of_range"] == 0

    def test_out_of_range_flagged_not_fatal(self):
        panel = single_quarter_panel(0.4, 0.39)
        schedule = constant_schedule(panel, 1.0, 0.72)
        series = gap_series(panel, schedule, 0.99)
        assert series.u_star[0] >= 1.0
        assert summarize(panel, schedule, series)["n_out_of_range"] == 1

    def test_quarter_label_on_domain_error(self):
        panel = single_quarter_panel(0.05, 0.03)
        # build_schedule rejects such a kappa; a hand-built column ends in a non-finite u*
        schedule = constant_schedule(panel, 1.0, -1.0)
        with pytest.raises(InputError, match="2000Q1"):
            gap_series(panel, schedule, zeta=0.25)

    def test_bundled_series_consistency(self, panel, schedule):
        series = gap_series(panel, schedule, 0.25)
        assert len(series) == len(panel)
        for gap, u, u_star in zip(series.gap, panel.u, series.u_star):
            assert gap == pytest.approx(u - u_star, abs=1e-15)
            assert 0.0 < u_star < 1.0


class TestSummaries:
    def test_exclude_gap_quarters(self, panel, schedule):
        series = gap_series(panel, schedule, 0.25)
        summary = summarize(panel, schedule, series)
        full, core = summary["all_quarters"], summary["excluding_gap_quarters"]
        flagged = sum(schedule.is_gap_quarter)
        assert full["n_quarters"] - core["n_quarters"] == flagged
        assert full["n_slack"] + full["n_tight"] + full["n_efficient"] == full["n_quarters"]

    def test_empty_rejected(self):
        panel = single_quarter_panel(0.05, 0.03)
        schedule = constant_schedule(panel, 1.0, 0.72, is_gap=True)
        series = gap_series(panel, schedule, 0.25)
        with pytest.raises(InputError, match="^no quarters left to summarize$"):
            summarize(panel, schedule, series)


class TestSensitivity:
    def test_u_star_strictly_increasing_in_zeta(self, panel, schedule):
        pairs, _ = sensitivity(panel, schedule, (0.0, 0.25, 0.5, 0.96))
        for i in range(len(panel)):
            column = [u_star[i] for _, u_star in pairs]
            assert all(a < b for a, b in zip(column, column[1:]))

    def test_singleton_matches_gap_series(self, panel, schedule):
        [(_, u_star)], _ = sensitivity(panel, schedule, (0.25,))
        series = gap_series(panel, schedule, 0.25)
        assert u_star == pytest.approx(series.u_star)

    def test_zeta_must_be_below_one(self, panel, schedule):
        with pytest.raises(InputError, match="^social value of nonwork must be finite and below 1, got 1.0$"):
            sensitivity(panel, schedule, (0.25, 1.0))

    def test_kappa_overrides_match_gap_series(self, panel, regime_table, estimates, schedule):
        overrides = {"2010Q1-2019Q4": 2.0}
        robust = build_schedule(list(zip(regime_table, estimates)), panel.quarters, 0.72, overrides)
        [(_, u_star)], _ = sensitivity(panel, robust, (0.25,))
        series = gap_series(panel, robust, 0.25)
        assert u_star.tolist() == series.u_star.tolist()
        [(_, plain)], _ = sensitivity(panel, schedule, (0.25,))
        assert u_star.tolist() != plain.tolist()

    def test_mean_shift_signs(self, panel, schedule):
        _, section = sensitivity(panel, schedule, (0.0, 0.5))
        shift = section["mean_shift_vs_baseline"]
        assert shift["z0"] < 0.0 < shift["z50"]
        assert section["mean_width"] > 0.0


def test_implied_zeta_series_matches_pointwise(panel, schedule):
    zeta_star = implied_zeta_series(panel, schedule)
    assert len(zeta_star) == len(panel)
    for z_star, theta, epsilon in zip(zeta_star, panel.theta, schedule.epsilon):
        assert z_star == pytest.approx(1.0 - 0.72 * epsilon * theta, abs=1e-12)


def test_implied_zeta_series_takes_regime_kappa(panel, regime_table, estimates):
    schedule = build_schedule(list(zip(regime_table, estimates)), panel.quarters, 0.72, {"2010Q1-2019Q4": 2.0})
    zeta_star = implied_zeta_series(panel, schedule)
    # the last regime takes every quarter from its start on
    in_last = panel.quarters >= parse_quarter("2010Q1")
    columns = (zeta_star, panel.theta, schedule.epsilon, in_last)
    for z_star, theta, epsilon, last in zip(*(c.tolist() for c in columns)):
        kappa = 2.0 if last else 0.72
        assert z_star == 1.0 - kappa * epsilon * theta


rates = st.floats(0.005, 0.3, exclude_min=True, exclude_max=True)
positive = st.floats(0.05, 5.0)
zetas = st.floats(-10.0, 1.0, exclude_max=True)


@st.composite
def gap_inputs(draw):
    """A random panel, a schedule of per-quarter epsilon and kappa columns, and zeta.

    Half the draws pick zeta so that one quarter sits within 20% of its
    efficient tightness, where the classification dead band matters.
    """
    n = draw(st.integers(1, 16))

    def column(elements):
        return draw(st.lists(elements, min_size=n, max_size=n))

    u, v = column(rates), column(rates)
    epsilon, kappa, flags = column(st.floats(0.2, 4.0)), column(positive), column(st.booleans())
    panel = panel_from(u, v)
    schedule = Schedule(np.array(epsilon), np.array(kappa), np.array(flags))
    zeta = draw(zetas)
    if draw(st.booleans()):
        i = draw(st.integers(0, n - 1))
        zeta = 1.0 - kappa[i] * epsilon[i] * (v[i] / u[i]) * draw(st.floats(0.8, 1.2))
    return panel, schedule, zeta


def scalar_stats(schedule, i, zeta):
    """The statistics of quarter i, read one scalar at a time."""
    return SufficientStats(schedule.epsilon.tolist()[i], schedule.kappa.tolist()[i], zeta)


class TestColumnsMatchScalars:
    """The array expressions give the scalar formulas' values quarter by quarter."""

    @settings(derandomize=True, database=None, deadline=None)
    @given(gap_inputs(), st.floats(0.0, 0.3))
    def test_gap_series_and_implied_zeta(self, inputs, tol):
        panel, schedule, zeta = inputs
        series = gap_series(panel, schedule, zeta, tol=tol)
        zeta_star = implied_zeta_series(panel, schedule)
        for i in range(len(schedule)):
            u, v, theta = float(panel.u[i]), float(panel.v[i]), float(panel.theta[i])
            stats = scalar_stats(schedule, i, zeta)
            theta_star = efficient_tightness(stats)
            u_star = efficient_unemployment(u, v, stats)
            assert abs(series.u_star[i] - u_star) <= 1e-15 * u_star
            assert series.theta_star[i] == theta_star
            assert series.classification[i] == classify(theta, theta_star, tol)
            assert zeta_star[i] == implied_zeta(theta, stats.kappa, stats.epsilon)

    @settings(derandomize=True, database=None, deadline=None)
    @given(gap_inputs(), st.lists(zetas, max_size=4))
    def test_sensitivity(self, inputs, sweep):
        panel, schedule, zeta = inputs
        # zetas that share a column tag are rejected, so keep one of each tag
        sweep = list({zeta_tag(z): z for z in [zeta, *sweep]}.values())
        pairs, _ = sensitivity(panel, schedule, sweep)
        assert [z for z, _ in pairs] == sweep
        for z, column in pairs:
            for i in range(len(schedule)):
                stats = scalar_stats(schedule, i, z)
                u_star = efficient_unemployment(float(panel.u[i]), float(panel.v[i]), stats)
                assert abs(column[i] - u_star) <= 1e-15 * u_star
