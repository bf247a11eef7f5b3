"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines. Criteria evaluated on the bundled series carry tolerances that
absorb reconstruction differences; the property criteria are data
independent.
"""

import math
from dataclasses import replace

import numpy as np
import pytest

from ugap.cli import _round_trip_error, main as cli_main
from ugap.fitting import dmp_elasticity, fit_elasticity
from ugap.gap import gap_series, implied_zeta_series, sensitivity, summarize
from ugap.planner import (
    DmpEconomy,
    IsoelasticCurve,
    comparative_statics_check,
    dmp_stats,
    oracle_grid_check,
    solve_planner_numeric,
    synth_panel,
)
from ugap.quarters import parse_quarter, quarter_label
from ugap.regimes import build_schedule


def check(name: str, ok: bool, detail: str) -> None:
    print(f"[{name}] {'PASS' if ok else 'FAIL'}: {detail}")
    assert ok, f"{name}: {detail}"


@pytest.fixture(scope="module")
def schedule(panel, regime_table, estimates, profile):
    """The bundled schedule at the calibration profile's kappa."""
    return build_schedule(list(zip(regime_table, estimates)), panel.quarters, profile.kappa())


@pytest.fixture(scope="module")
def baseline_points(panel, schedule, profile):
    return gap_series(panel, schedule, profile.zeta)


def test_criterion_01_elasticity_range(estimates):
    eps = [e.epsilon for e in estimates]
    mean = sum(eps) / len(eps)
    last = next(e.epsilon for e in estimates if e.label.startswith("2010Q1"))
    ok = (
        all(0.76 <= x <= 1.30 for x in eps)
        and abs(last - 0.81) <= 0.05
        and abs(mean - 1.03) <= 0.05
    )
    check(
        "A01 elasticity-range",
        ok,
        f"eps in [{min(eps):.3f}, {max(eps):.3f}], 2010 regime {last:.3f}, mean {mean:.3f}",
    )


def test_criterion_02_fit_quality(estimates):
    worst_r2 = min(e.r_squared for e in estimates)
    worst_se = max(e.se_epsilon for e in estimates)
    ok = worst_r2 >= 0.88 and worst_se <= 0.12
    check("A02 fit-quality", ok, f"min R2 {worst_r2:.3f}, max se {worst_se:.3f}")


def test_criterion_03_kappa_calibration(profile):
    kappa = replace(profile, recruiting_share=0.025, u_survey=0.049, v_survey=0.033).kappa()
    ok = abs(kappa - 0.72) <= 0.005
    check("A03 kappa", ok, f"kappa = {kappa:.4f}")


def test_criterion_04_zeta_pipeline(profile):
    bounds = profile.study_bounds()
    targets = {
        "benefit_study_lo": 0.03,
        "benefit_study_hi": 0.25,
        "wage_study_lo": 0.41,
        "wage_study_hi": 0.49,
    }
    drift = {k: abs(bounds[k] - t) for k, t in targets.items()}
    ok = all(d <= 0.005 for d in drift.values())
    detail = ", ".join(f"{k}={bounds[k]:.4f}" for k in sorted(bounds))
    check("A04 zeta-pipeline", ok, detail)


def test_criterion_05_dmp_elasticity():
    value = dmp_elasticity(0.5, 0.058)
    ok = abs(value - 1.12) <= 0.005
    check("A05 dmp-elasticity", ok, f"epsilon = {value:.4f}")


def test_criterion_06_gap_magnitudes(panel, schedule, baseline_points):
    s = summarize(panel, schedule, baseline_points)["all_quarters"]
    gaps = baseline_points.gap.tolist()
    peak_gap = max(gaps)
    peak_quarter = int(panel.quarters[gaps.index(peak_gap)])
    trough_1982 = max(g for q, g in zip(panel.quarters.tolist(), gaps) if q // 4 == 1982)
    ok = (
        abs(100 * s["mean_u"] - 5.8) <= 0.2
        and abs(100 * s["mean_u_star"] - 4.2) <= 0.3
        and abs(100 * s["mean_gap"] - 1.6) <= 0.3
        and abs(100 * peak_gap - 6.5) <= 0.7
        and peak_quarter // 4 in (2009, 2010)
        and abs(100 * trough_1982 - 5.0) <= 0.7
    )
    check(
        "A06 gap-magnitudes",
        ok,
        f"mean u {100 * s['mean_u']:.2f}%, mean u* {100 * s['mean_u_star']:.2f}%, "
        f"mean gap {100 * s['mean_gap']:.2f}pp, max {100 * peak_gap:.2f}pp at {quarter_label(peak_quarter)}, "
        f"1982 trough {100 * trough_1982:.2f}pp",
    )


def test_criterion_07_sensitivity(panel, schedule, profile):
    pairs, section = sensitivity(panel, schedule, (0.0, 0.5, 0.96))
    shift_lo = 100 * section["mean_shift_vs_baseline"]["z0"]
    shift_hi = 100 * section["mean_shift_vs_baseline"]["z50"]
    col96 = dict(pairs)[0.96].tolist()
    mean96 = 100 * sum(col96) / len(col96)
    min96 = 100 * min(col96)
    ok = (
        abs(shift_lo + 0.6) <= 0.2
        and abs(shift_hi - 0.9) <= 0.3
        and abs(mean96 - 17.5) <= 1.5
        and min96 > 13.0
    )
    check(
        "A07 sensitivity",
        ok,
        f"shift(z=0) {shift_lo:+.2f}pp, shift(z=0.5) {shift_hi:+.2f}pp, "
        f"mean u*(z=0.96) {mean96:.2f}%, min {min96:.2f}%",
    )


def test_criterion_08_implied_zeta_extremes(panel, schedule, profile):
    z = implied_zeta_series(panel, schedule).tolist()
    ok = min(z) <= -0.05 and max(z) >= 0.80
    check("A08 implied-zeta", ok, f"min {min(z):.3f}, max {max(z):.3f}")


def test_criterion_09_oracle_equivalence():
    records = oracle_grid_check()
    worst_u = max(r["u_error"] / r["u_star_formula"] for r in records)
    worst_t = max(r["tangency_residual"] for r in records)
    ok = len(records) == 81 and worst_u < 1e-12 and worst_t < 1e-12
    check(
        "A09 oracle-equivalence",
        ok,
        f"81 grid points, max relative u* error {worst_u:.2e}, max tangency residual {worst_t:.2e}",
    )


def test_criterion_10_comparative_statics():
    checks = comparative_statics_check(IsoelasticCurve(0.0016, 1.0), 0.25, 0.72)
    ok = all(c["passed"] for c in checks) and len(checks) == 4
    detail = "; ".join(f"{c['name']}: {'ok' if c['passed'] else 'FAIL'}" for c in checks)
    check("A10 comparative-statics", ok, detail)


def test_criterion_11_round_trip():
    econ = DmpEconomy(alpha=0.5, mu=2.055, s=0.105, p=1.0, z=0.25, c=0.72)
    quarters = np.arange(parse_quarter("2000Q1"), parse_quarter("2009Q4") + 1)
    s_mult = 1.0 + 0.10 * np.array([math.sin(2.0 * math.pi * i / 16.0) for i in range(len(quarters))])
    synthetic, _optimum = synth_panel(econ, quarters, s_mult, np.ones(len(quarters)))
    zeta, kappa = dmp_stats(econ)
    est = fit_elasticity(synthetic.u, synthetic.v)
    planner = solve_planner_numeric(econ, zeta, kappa)
    # the round-trip error ugap simulate reports
    worst = _round_trip_error(synthetic, est.epsilon, kappa, zeta, planner.u_star)
    ok = worst < 1e-3
    check("A11 round-trip", ok, f"max relative u* error {worst:.2e} over {len(synthetic)} quarters")


def test_criterion_12_determinism(tmp_path):
    outputs = {}
    for tag in ("a", "b"):
        out = tmp_path / tag
        for cmd in ("ingest", "fit", "gap", "sensitivity", "simulate"):
            assert cli_main([cmd, "--out", str(out)]) == 0
        outputs[tag] = {
            name: (out / name).read_bytes()
            for name in (
                "panel.csv",
                "estimates.csv",
                "gap.csv",
                "sensitivity.csv",
                "summary.json",
                "synthetic_panel.csv",
                "simulation_report.json",
            )
        }
    ok = outputs["a"] == outputs["b"]
    check("A12 determinism", ok, "repeated seeded runs produced byte-identical CSV/JSON")
