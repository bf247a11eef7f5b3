import inspect
import itertools
import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import run_python
from scalar_formulas import SufficientStats, _golden_max, efficient_unemployment
from ugap import planner
from ugap.errors import InputError, PropertyViolation
from ugap.fitting import dmp_elasticity, fit_elasticity
from ugap.planner import (
    DmpEconomy,
    IsoelasticCurve,
    _BRACKET,
    comparative_statics_check,
    dmp_stats,
    oracle_grid_check,
    solve_planner_numeric,
    synth_panel,
)
from ugap.quarters import parse_quarter

BASE_ECON = DmpEconomy(alpha=0.5, mu=2.055, s=0.105, p=1.0, z=0.25, c=0.72)


def sine_shocks(n=40, amplitude=0.10):
    """Quarter, s_multiplier and mu_multiplier columns of a sine wave in separations."""
    s_mult = [1.0 + amplitude * math.sin(2.0 * math.pi * i / 16.0) for i in range(n)]
    return parse_quarter("2000Q1") + np.arange(n), np.array(s_mult), np.ones(n)


def search(curve, zeta, kappa):
    """The derivative-free welfare maximum on the planner's bracket, to within 1e-9 in u."""
    return _golden_max(lambda u: (1.0 - u) + zeta * u - kappa * curve.value(u), *_BRACKET, 1e-9)


class CountedCurve:
    """A curve that counts the calls made to its value and slope."""

    def __init__(self, curve):
        self.curve = curve
        self.calls = 0

    def value(self, u):
        self.calls += 1
        return self.curve.value(u)

    def slope(self, u):
        self.calls += 1
        return self.curve.slope(u)


def flat_shocks(first, last):
    quarters = np.arange(parse_quarter(first), parse_quarter(last) + 1)
    return quarters, np.ones(len(quarters)), np.ones(len(quarters))


class TestDmpBeveridge:
    def test_symmetric_matching_point(self):
        # with m(u,u) = mu * u, flow balance at v = u needs s(1-u) = mu * u
        u = 0.05
        econ = DmpEconomy(alpha=0.5, mu=1.0, s=1.0 * u / (1.0 - u), p=1.0, z=0.25, c=0.7)
        assert econ.value(u) == pytest.approx(u, rel=1e-12)

    def test_hand_evaluation(self):
        econ = DmpEconomy(alpha=0.5, mu=1.2, s=0.035, p=1.0, z=0.25, c=0.7)
        assert econ.value(0.058) == pytest.approx(0.01302, abs=2e-5)

    def test_strictly_decreasing(self):
        grid = np.linspace(0.01, 0.4, 30)
        values = [BASE_ECON.value(u) for u in grid]
        assert all(a > b for a, b in zip(values, values[1:]))

    def test_domain(self):
        with pytest.raises(InputError, match=r"^unemployment rate must be in \(0,1\), got 0.0$"):
            BASE_ECON.value(0.0)
        with pytest.raises(InputError, match=r"^unemployment rate must be in \(0,1\), got 1.0$"):
            BASE_ECON.value(1.0)

    def test_curve_slope_matches_finite_differences(self):
        curve = BASE_ECON
        for u in (0.02, 0.05, 0.2):
            h = 1e-7 * u
            fd = (curve.value(u + h) - curve.value(u - h)) / (2.0 * h)
            assert curve.slope(u) == pytest.approx(fd, rel=1e-6)

    def test_isoelastic_slope_matches_finite_differences(self):
        curve = IsoelasticCurve(0.002, 1.1)
        for u in (0.02, 0.05, 0.2):
            h = 1e-7 * u
            fd = (curve.value(u + h) - curve.value(u - h)) / (2.0 * h)
            assert curve.slope(u) == pytest.approx(fd, rel=1e-6)


class TestDmpStats:
    def test_unit_productivity(self):
        assert dmp_stats(DmpEconomy(0.5, 1.0, 0.03, 1.0, 0.25, 0.72)) == (0.25, 0.72)

    def test_homogeneity_in_p_and_z(self):
        zeta, kappa = dmp_stats(DmpEconomy(0.5, 1.0, 0.03, 2.0, 0.5, 0.72))
        assert zeta == pytest.approx(0.25) and kappa == 0.72

    def test_hand_values(self):
        zeta, kappa = dmp_stats(DmpEconomy(0.5, 1.0, 0.03, 1.5, 0.6, 0.9))
        assert zeta == pytest.approx(0.4) and kappa == 0.9


class TestPlanner:
    def test_matches_closed_form_on_isoelastic_curve(self):
        curve = IsoelasticCurve(0.0016, 1.0)
        u_star = search(curve, 0.25, 0.72)
        closed = (0.72 * 1.0 * 0.0016 / 0.75) ** 0.5
        assert closed == pytest.approx(0.039192, abs=1e-6)
        assert u_star == pytest.approx(closed, abs=1e-6)

    def test_tangency_at_optimum(self):
        curve = IsoelasticCurve(0.0016, 1.0)
        slope = curve.slope(search(curve, 0.25, 0.72))
        iso_slope = -(1.0 - 0.25) / 0.72
        assert abs(slope - iso_slope) / abs(iso_slope) < 1e-6

    def test_theta_star_formula(self):
        curve = IsoelasticCurve(0.0016, 1.0)
        sol = solve_planner_numeric(curve, 0.25, 0.72)
        assert sol.theta_star == pytest.approx(0.75 / 0.72, rel=1e-6)

    def test_welfare_second_order_condition(self):
        curve = IsoelasticCurve(0.0016, 1.0)
        sol = solve_planner_numeric(curve, 0.25, 0.72)

        def welfare(u):
            return (1.0 - u) + 0.25 * u - 0.72 * curve.value(u)

        assert welfare(sol.u_star) > welfare(sol.u_star - 1e-3)
        assert welfare(sol.u_star) > welfare(sol.u_star + 1e-3)

    def test_polish_agrees_with_search(self):
        curve = IsoelasticCurve(0.0016, 1.0)
        rough = search(curve, 0.25, 0.72)
        sharp = solve_planner_numeric(curve, 0.25, 0.72)
        assert sharp.u_star == pytest.approx(rough, abs=1e-7)

    def test_boundary_warning(self):
        sol = solve_planner_numeric(IsoelasticCurve(10.0, 1.0), 0.25, 0.72)
        assert sol.boundary_warning

    def test_overflowing_curve_is_infinite_vacancies(self):
        # u ** -1000 overflows everywhere below u ~ 0.49, so welfare peaks at the bracket's upper edge
        sol = solve_planner_numeric(IsoelasticCurve(1.0, 1000.0), 0.25, 0.72)
        assert sol.boundary_warning
        assert sol.u_star == pytest.approx(_BRACKET[1], abs=1e-8)

    def test_invalid_inputs(self):
        curve = IsoelasticCurve(0.0016, 1.0)
        with pytest.raises(InputError, match="^zeta must be finite and below 1, got 1.0$"):
            solve_planner_numeric(curve, 1.0, 0.72)
        with pytest.raises(InputError, match="^kappa must be positive and finite, got 0.0$"):
            solve_planner_numeric(curve, 0.25, 0.0)

    @pytest.mark.parametrize("curve", [BASE_ECON, IsoelasticCurve(0.0016, 1.0)], ids=["dmp", "isoelastic"])
    def test_a_solve_takes_at_most_64_curve_evaluations(self, curve):
        # two residuals at the bracket ends, ~56 halvings to adjacent floats and one value at the optimum
        counted = CountedCurve(curve)
        solve_planner_numeric(counted, 0.25, 0.72)
        assert counted.calls <= 64

    def test_dmp_curve_optimum_consistent_with_local_elasticity(self):
        # at the DMP optimum, theta* must equal (1-zeta)/(kappa*eps(u*))
        zeta, kappa = dmp_stats(BASE_ECON)
        sol = solve_planner_numeric(BASE_ECON, zeta, kappa)
        eps_local = dmp_elasticity(BASE_ECON.alpha, sol.u_star)
        expected = (1.0 - zeta) / (kappa * eps_local)
        assert sol.theta_star == pytest.approx(expected, rel=1e-9)


def test_verification_entry_points_take_only_their_inputs():
    entry_points = (solve_planner_numeric, comparative_statics_check, oracle_grid_check)
    assert [list(inspect.signature(f).parameters) for f in entry_points] == [
        ["curve", "zeta", "kappa"],
        ["curve", "zeta", "kappa"],
        ["epsilons", "zetas", "kappas", "v0s"],
    ]


def test_oracle_grid_agrees_with_formula():
    records = oracle_grid_check()
    assert len(records) == 81
    assert max(r["u_error"] / r["u_star_formula"] for r in records) < 1e-12
    assert max(r["tangency_residual"] for r in records) < 1e-12


ORACLE_KEYS = [
    "epsilon", "zeta", "kappa", "v0", "u_star_numeric", "u_star_formula",
    "u_error", "tangency_residual", "boundary_warning",
]


def random_oracle_axes(seed=2019, n=5):
    rng = np.random.default_rng(seed)
    return (
        sorted(rng.uniform(0.8, 1.25, n).tolist()),
        sorted(rng.uniform(0.0, 0.5, n).tolist()),
        sorted(rng.uniform(0.3, 1.0, n).tolist()),
        sorted(np.exp(rng.uniform(math.log(3e-4), math.log(3e-2), n)).tolist()),
    )


# unit-elasticity curves whose tangency roots, sqrt(kappa v0 / (1 - zeta)), sit just inside either end of the bracket
EDGE_ROOTS = (_BRACKET[0] * (1.0 + 1e-6), _BRACKET[1] * (1.0 - 1e-9))
EDGE_AXES = ((1.0,), (0.25,), (0.72,), tuple(root * root * 0.75 / 0.72 for root in EDGE_ROOTS))


class TestOracleLockstep:
    """The lockstep oracle against one scalar solve per grid point."""

    @pytest.mark.parametrize(
        "axes",
        [
            ((0.8, 1.0, 1.25), (0.0, 0.25, 0.5), (0.3, 0.72, 1.0), (3e-4, 3e-3, 3e-2)),
            random_oracle_axes(),
            EDGE_AXES,
        ],
        ids=["default", "random", "bracket-edges"],
    )
    def test_matches_scalar_search(self, axes):
        records = oracle_grid_check(*axes)
        points = list(itertools.product(*axes))
        assert [(r["epsilon"], r["zeta"], r["kappa"], r["v0"]) for r in records] == points
        for rec, (eps, zeta, kappa, v0) in zip(records, points):
            assert list(rec) == ORACLE_KEYS
            solved = solve_planner_numeric(IsoelasticCurve(v0, eps), zeta, kappa)
            assert abs(rec["u_star_numeric"] - solved.u_star) < 1e-13 * solved.u_star
            assert rec["boundary_warning"] is solved.boundary_warning

    @pytest.mark.parametrize(
        "axes",
        [((0.8, 1.0, 1.25), (0.0, 0.25, 0.5), (0.3, 0.72, 1.0), (3e-4, 3e-3, 3e-2)), random_oracle_axes()],
        ids=["default", "random"],
    )
    def test_formula_column_matches_scalar_formula(self, axes):
        u_pt = 0.08
        records = oracle_grid_check(*axes)
        for rec, (eps, zeta, kappa, v0) in zip(records, itertools.product(*axes), strict=True):
            u_star = efficient_unemployment(u_pt, v0 * u_pt ** (-eps), SufficientStats(eps, kappa, zeta))
            assert abs(rec["u_star_formula"] - u_star) <= 1e-15 * u_star
            assert rec["u_error"] == abs(rec["u_star_numeric"] - rec["u_star_formula"])

    def test_first_failing_point_reports_its_first_failed_check(self, monkeypatch):
        # a u* tolerance of 0 fails every point; the first point in product order
        # is reported, and on one point a boundary hit comes before a disagreement
        monkeypatch.setattr(planner, "_ORACLE_U_TOL", 0.0)
        first = "{'epsilon': 0.8, 'zeta': 0.0, 'kappa': 0.3, 'v0': "
        with pytest.raises(PropertyViolation, match=re.escape(f"oracle disagreement at {first}0.003,")):
            oracle_grid_check(v0s=(3e-3, 10.0))
        with pytest.raises(PropertyViolation, match=re.escape(f"planner hit bracket boundary at {first}10.0,")):
            oracle_grid_check(v0s=(10.0, 3e-3))

    @settings(derandomize=True, database=None, deadline=None, max_examples=30)
    @given(
        st.lists(st.floats(0.8, 1.25), min_size=1, max_size=2),
        st.lists(st.floats(0.0, 0.5), min_size=1, max_size=2),
        st.lists(st.floats(0.3, 1.0), min_size=1, max_size=2),
        st.lists(st.floats(math.log(3e-4), math.log(3e-2)).map(math.exp), min_size=1, max_size=2),
    )
    def test_random_axes_meet_the_bounds_and_flag_as_the_scalar_solve(self, epsilons, zetas, kappas, v0s):
        records = oracle_grid_check(epsilons, zetas, kappas, v0s)
        for rec, (eps, zeta, kappa, v0) in zip(records, itertools.product(epsilons, zetas, kappas, v0s), strict=True):
            assert rec["u_error"] < 1e-12 * rec["u_star_formula"]
            assert rec["tangency_residual"] < 1e-12
            solved = solve_planner_numeric(IsoelasticCurve(v0, eps), zeta, kappa)
            assert rec["boundary_warning"] is solved.boundary_warning

    def test_empty_axis(self):
        assert oracle_grid_check(zetas=()) == []

    def test_boundary_hit_raises(self):
        with pytest.raises(PropertyViolation, match="planner hit bracket boundary"):
            oracle_grid_check(v0s=(10.0,))

    @pytest.mark.parametrize(
        "grid,message",
        [
            ({"v0s": (math.nan,)}, "isoelastic curve"),
            ({"v0s": (math.inf,)}, "isoelastic curve"),
            ({"epsilons": (math.nan,)}, "isoelastic curve"),
            ({"epsilons": (math.inf,)}, "isoelastic curve"),
            ({"zetas": (0.25, 1.0)}, "zeta must be finite and below 1"),
            ({"zetas": (-math.inf,)}, "zeta must be finite and below 1"),
            ({"kappas": (0.0,)}, "kappa must be positive and finite"),
            ({"kappas": (math.nan,)}, "kappa must be positive and finite"),
            ({"kappas": (math.inf,)}, "kappa must be positive and finite"),
            ({"epsilons": (1e300,)}, r"formula overflows at epsilon=1e\+300, zeta=0.0"),
        ],
    )
    def test_bad_parameters_are_input_errors(self, grid, message):
        with pytest.raises(InputError, match=message):
            oracle_grid_check(**grid)


class TestComparativeStatics:
    def test_all_four_sign_patterns(self):
        checks = comparative_statics_check(IsoelasticCurve(0.0016, 1.0), 0.25, 0.72)
        assert all(c["passed"] for c in checks), checks
        names = [c["name"] for c in checks]
        assert len(names) == 4 and len(set(names)) == 4

    def test_theta_star_invariance_is_tight(self):
        checks = comparative_statics_check(IsoelasticCurve(0.0016, 1.0), 0.25, 0.72)
        v0_check = next(c for c in checks if c["name"].startswith("v0_up"))
        assert v0_check["passed"]

    def test_bad_perturbations_rejected(self):
        with pytest.raises(InputError, match="zeta_shift pushes zeta to 1 or above"):
            comparative_statics_check(IsoelasticCurve(0.0016, 1.0), 0.8, 0.72)

    @settings(derandomize=True, database=None, deadline=None, max_examples=50)
    @given(
        st.floats(0.1, 10.0),
        st.floats(0.0, 0.9),
        st.floats(math.log(1e-3), math.log(10.0)).map(math.exp),
        st.floats(math.log(1e-6), math.log(10.0)).map(math.exp),
    )
    def test_the_steeper_curve_peaks_no_higher_at_the_same_v0(self, epsilon, zeta, kappa, v0):
        # the compensated search takes the base v0 as the upper end of its bracket on this
        base = solve_planner_numeric(IsoelasticCurve(v0, epsilon), zeta, kappa)
        steeper = solve_planner_numeric(IsoelasticCurve(v0, epsilon * planner._EPSILON_FACTOR), zeta, kappa)
        assert steeper.welfare <= base.welfare

    def test_returns_for_a_large_v0(self):
        # beyond v0 ~ 5e5 adjacent floats are more than the compensated-v0
        # bisection's 1e-10 width apart, so only a midpoint that stops moving can end it
        done = run_python(
            "from ugap.planner import IsoelasticCurve, comparative_statics_check\n"
            "for v0, kappa in ((1e6, 1e-8), (1e8, 1e-10)):\n"
            "    checks = comparative_statics_check(IsoelasticCurve(v0, 1.0), 0.0, kappa)\n"
            "    print(checks[-1]['name'], checks[-1]['passed'])\n",
            timeout=20,
        )
        assert done.returncode == 0, done.stderr
        assert done.stdout.splitlines() == ["compensated_epsilon_up_raises_u_star_lowers_theta_star True"] * 2

    @pytest.mark.parametrize(("v0", "kappa"), [(1e6, 1e-8), (1e8, 1e-10)])
    def test_theta_star_invariance_is_judged_relative_to_theta_star(self, v0, kappa):
        # theta* is 1e8 and 1e10 here, so a drift of a few ulps exceeds 1e-8 in absolute terms
        checks = comparative_statics_check(IsoelasticCurve(v0, 1.0), 0.0, kappa)
        v0_check = next(c for c in checks if c["name"].startswith("v0_up"))
        assert v0_check["passed"], v0_check["details"]
        assert all(c["passed"] for c in checks), checks


class TestSynthPanel:
    def test_constant_shocks_give_identical_points(self):
        panel, _optimum = synth_panel(BASE_ECON, *flat_shocks("2000Q1", "2001Q4"))
        us = {round(u, 15) for u in panel.u.tolist()}
        vs = {round(v, 15) for v in panel.v.tolist()}
        assert len(us) == 1 and len(vs) == 1

    def test_baseline_sits_at_efficiency(self):
        panel, optimum = synth_panel(BASE_ECON, *flat_shocks("2000Q1", "2000Q1"))
        sol = solve_planner_numeric(BASE_ECON, *dmp_stats(BASE_ECON))
        assert optimum == sol
        assert panel.u[0] == pytest.approx(sol.u_star, rel=1e-9)

    def test_fit_recovers_matching_implied_elasticity(self):
        panel, _optimum = synth_panel(BASE_ECON, *sine_shocks())
        est = fit_elasticity(panel.u, panel.v)
        u_bar = sum(panel.u.tolist()) / len(panel)
        assert est.epsilon == pytest.approx(dmp_elasticity(BASE_ECON.alpha, u_bar), abs=0.05)

    def test_seeded_runs_are_byte_identical(self):
        a, _optimum = synth_panel(BASE_ECON, *sine_shocks(), noise_scale=0.03, seed=7)
        b, _optimum = synth_panel(BASE_ECON, *sine_shocks(), noise_scale=0.03, seed=7)
        c, _optimum = synth_panel(BASE_ECON, *sine_shocks(), noise_scale=0.03, seed=8)
        assert a.to_csv() == b.to_csv()
        assert a.to_csv() != c.to_csv()

    def test_bad_multiplier_rejected(self):
        with pytest.raises(InputError, match="2000Q1: shock multipliers must be positive"):
            synth_panel(BASE_ECON, np.array([parse_quarter("2000Q1")]), np.array([0.0]), np.array([1.0]))
        with pytest.raises(InputError, match="^shock path is empty$"):
            synth_panel(BASE_ECON, *flat_shocks("2000Q1", "1999Q4"))


def test_round_trip_reproduces_planner_everywhere():
    """Noiseless panel -> estimator -> formula must match the planner."""
    panel, _optimum = synth_panel(BASE_ECON, *sine_shocks())
    zeta, kappa = dmp_stats(BASE_ECON)
    est = fit_elasticity(panel.u, panel.v)
    planner = solve_planner_numeric(BASE_ECON, zeta, kappa)
    for u, v in zip(panel.u.tolist(), panel.v.tolist()):
        u_star = efficient_unemployment(
            u, v, SufficientStats(est.epsilon, kappa, zeta)
        )
        assert abs(u_star - planner.u_star) / planner.u_star < 1e-3
