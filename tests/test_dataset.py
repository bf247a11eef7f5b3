"""Provenance checks for the bundled reconstruction.

Every file in the package's data directory is either derived, written by
build_dataset from the design tables, or hand-maintained data that has
no second copy anywhere.
"""

import pytest

from conftest import bundled_text
from ugap.calibration import CalibrationProfile
from ugap.cli import _load_scenario, _recession_bands
from ugap.config import bundled_data_dir, load_config
from reconstruction import (
    QUARTERLY_U,
    REGIME_DESIGN,
    build_dataset,
    quarterly_unemployment,
    quarterly_vacancy,
    sample_quarters,
)

DERIVED = [
    "unemployment_monthly.csv",
    "vacancy_hwi_monthly.csv",
    "vacancy_jolts_monthly.csv",
    "regimes_default.csv",
    "shocks_default.csv",
]
HAND_MAINTAINED = [
    "default.cfg",
    "calibration_default.cfg",
    "scenario_default.cfg",
    "recessions_nber.csv",
]


def test_regeneration_matches_bundled_files_byte_for_byte(tmp_path):
    written = build_dataset(tmp_path)
    assert [path.name for path in written] == DERIVED
    assert sorted(path.name for path in tmp_path.iterdir()) == sorted(DERIVED)
    for name in DERIVED:
        assert (tmp_path / name).read_bytes() == (bundled_data_dir() / name).read_bytes(), name


def test_every_bundled_file_is_derived_or_hand_maintained():
    names = sorted(path.name for path in bundled_data_dir().iterdir())
    assert names == sorted(DERIVED + HAND_MAINTAINED)


def test_hand_maintained_files_load_through_the_tools_readers(panel, monkeypatch):
    monkeypatch.delenv("TOOLKIT_SEED", raising=False)
    data = bundled_data_dir()
    cfg = load_config(None)
    assert cfg.calibration == data / "calibration_default.cfg"
    assert cfg.scenario == data / "scenario_default.cfg"
    assert cfg.recessions == data / "recessions_nber.csv"

    profile = CalibrationProfile.from_file(cfg.calibration)
    assert 0.0 < profile.kappa() < 1.0 and 0.0 <= profile.zeta < 1.0

    _econ, (quarters, s_mult, mu_mult), noise, seed = _load_scenario(cfg)
    shock_lines = bundled_text("shocks_default.csv").splitlines()
    assert len(quarters) == len(s_mult) == len(mu_mult) == len(shock_lines) - 1
    assert noise == 0.0 and seed >= 0

    bands = _recession_bands(cfg.recessions, panel.quarters)
    assert len(bands) == len(bundled_text("recessions_nber.csv").splitlines()) - 1
    assert all(0 <= first <= last < len(panel) for first, last in bands)


def test_monthly_files_aggregate_back_to_the_quarterly_design():
    from ugap.ingest import parse_series_csv, to_quarterly

    u_design = quarterly_unemployment()
    v_design = quarterly_vacancy(u_design)

    quarterly, dropped = to_quarterly(
        parse_series_csv(bundled_text("unemployment_monthly.csv"), "percent")
    )
    assert dropped == [] and len(quarterly) == len(u_design)
    assert quarterly.index.tolist() == list(sample_quarters())
    for value, target in zip(quarterly.values.tolist(), u_design):
        assert value == pytest.approx(target, abs=2e-6)

    pre, _ = to_quarterly(parse_series_csv(bundled_text("vacancy_hwi_monthly.csv"), "percent"))
    post, _ = to_quarterly(parse_series_csv(bundled_text("vacancy_jolts_monthly.csv"), "percent"))
    rebuilt = pre.values.tolist() + post.values.tolist()
    assert len(rebuilt) == len(v_design)
    for value, target in zip(rebuilt, v_design):
        assert value == pytest.approx(target, abs=2e-6)


def test_vacancy_files_cover_the_splice():
    pre = bundled_text("vacancy_hwi_monthly.csv").strip().splitlines()
    post = bundled_text("vacancy_jolts_monthly.csv").strip().splitlines()
    assert pre[1].startswith("1951-01") and pre[-1].startswith("2000-12")
    assert post[1].startswith("2001-01") and post[-1].startswith("2019-12")
    assert len(pre) - 1 == 50 * 12
    assert len(post) - 1 == 19 * 12


def test_refitting_recovers_the_design_parameters(panel, regime_table, estimates):
    """The scatter is residualized, so fits reproduce the design exactly."""
    design = {f"{s}-{e}": (eps, r2) for s, e, eps, _us, r2 in REGIME_DESIGN}
    assert len(estimates) == len(design)
    for est in estimates:
        eps, r2 = design[est.label]
        assert est.epsilon == pytest.approx(eps, abs=1e-3)
        assert est.r_squared == pytest.approx(r2, abs=1e-3)


def test_design_tables_are_consistent():
    quarters = sample_quarters()
    assert len(quarters) == 276
    assert set(QUARTERLY_U) == set(range(1951, 2020))
    u = quarterly_unemployment()
    v = quarterly_vacancy(u)
    assert (u > 0).all() and (v > 0).all()
    assert (u < 0.12).all() and (v < 0.08).all()
    epsilons = [eps for (_s, _e, eps, _us, _r2) in REGIME_DESIGN]
    assert sum(epsilons) / len(epsilons) == pytest.approx(1.03, abs=1e-12)
