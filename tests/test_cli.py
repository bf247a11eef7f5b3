import codecs
import gc
import json
import os
import re
import shutil
import subprocess
import sys
import tracemalloc
import warnings
from pathlib import Path
from typing import NamedTuple

import pytest

from conftest import bundled_text, child_env
from ugap.cli import Run, main
from ugap.config import bundled_data_dir, parse_table
from ugap.errors import InputError
from ugap.quarters import parse_quarters
from ugap.regimes import RegimeTable


def run(*args) -> int:
    return main([str(a) for a in args])


def percent_to_fraction(text: str) -> str:
    lines = text.strip().splitlines()
    out = [lines[0]]
    for line in lines[1:]:
        date, value = line.split(",")
        out.append(f"{date},{float(value) / 100.0:.6f}")
    return "\n".join(out) + "\n"


class TestIngest:
    def test_covers_full_sample(self, tmp_path, capsys):
        assert run("ingest", "--out", tmp_path) == 0
        printed = capsys.readouterr().out
        assert "splice audit at 2001Q1" in printed
        panel = (tmp_path / "panel.csv").read_text().strip().splitlines()
        assert len(panel) == 277
        assert panel[1].startswith("1951Q1,") and panel[-1].startswith("2019Q4,")
        assert (tmp_path / "figures" / "rates_timeseries.svg").is_file()

    def test_missing_vacancy_file_exits_2(self, tmp_path, capsys):
        assert run("ingest", "--out", tmp_path, "--v-post", tmp_path / "nope.csv") == 2
        assert "error" in capsys.readouterr().err

    def test_overflowing_tightness_exits_2(self, tmp_path, capsys):
        # percent months that reach the panel as a denormal u, whose v/u overflows
        lines = bundled_text("unemployment_monthly.csv").splitlines()
        lines = [f"{line[:7]},5e-322" if line[:7] in ("1960-01", "1960-02", "1960-03") else line for line in lines]
        series = tmp_path / "u.csv"
        series.write_text("\n".join(lines) + "\n")
        out = tmp_path / "out"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert run("ingest", "--u-series", series, "--out", out) == 2
        captured = capsys.readouterr()
        assert captured.err.count("\n") == 1
        assert captured.err.startswith("error: tightness v/u at 1960Q1 overflows: u=5e-324")
        assert captured.out == ""
        assert [p for p in out.rglob("*") if p.is_file()] == []

    def test_zero_rate_before_the_cutover_exits_2(self, tmp_path, capsys):
        lines = bundled_text("vacancy_hwi_monthly.csv").splitlines()
        lines = [f"{line[:7]},0.0" if line[:7] in ("2000-10", "2000-11", "2000-12") else line for line in lines]
        series = tmp_path / "v_pre.csv"
        series.write_text("\n".join(lines) + "\n")
        out = tmp_path / "out"
        assert run("ingest", "--v-pre", series, "--out", out) == 2
        captured = capsys.readouterr()
        assert captured.err == "error: cannot audit splice at 2001Q1: last pre value 0.0 at 2000Q4 gives no finite jump\n"
        assert captured.out == ""
        assert not out.exists()

    @pytest.mark.parametrize("flag", ["--u-series", "--v-pre", "--v-post"])
    def test_series_parse_error_names_its_file(self, tmp_path, capsys, flag):
        series = tmp_path / "series.csv"
        series.write_text("date,value\n2001-01,3.8\n2001-02,3.7\n2001-03,3.6\n2001-04,abc\n")
        assert run("ingest", flag, series, "--out", tmp_path / "out") == 2
        assert capsys.readouterr().err == f"error: {series}: series line 5: bad value 'abc'\n"

    @pytest.mark.parametrize("rows", ["", "2001-01,3.8\n"], ids=["header-only", "one-month"])
    @pytest.mark.parametrize("flag", ["--u-series", "--v-pre", "--v-post"])
    def test_series_with_no_complete_quarter_names_its_file(self, tmp_path, capsys, flag, rows):
        series = tmp_path / "series.csv"
        series.write_text("date,value\n" + rows)
        out = tmp_path / "out"
        assert run("ingest", flag, series, "--out", out) == 2
        assert capsys.readouterr().err == f"error: {series}: series has no complete quarter\n"
        assert not out.exists()

    def test_a_huge_field_is_clipped_in_its_error(self, tmp_path, capsys):
        series = tmp_path / "u.csv"
        series.write_text("date,value\n2001-01," + "1" * 131073 + "\n")
        assert run("ingest", "--u-series", series, "--out", tmp_path / "out") == 2
        err = capsys.readouterr().err
        assert err == f"error: {series}: series line 2: non-finite value '{'1' * 40}'... (131073 characters)\n"
        assert len(err) < 200

    def test_series_ending_mid_quarter_reports_the_dropped_quarter(self, tmp_path, capsys):
        series = tmp_path / "u.csv"
        series.write_text(bundled_text("unemployment_monthly.csv").rstrip("\n") + "\n2020-01,3.6\n2020-02,3.5\n")
        assert run("ingest", "--u-series", series, "--out", tmp_path / "out") == 0
        assert "dropped incomplete quarter in u: 2020Q1 (2 months)\n" in capsys.readouterr().out

    def test_a_year_below_1000_reads_back_from_panel_csv(self, tmp_path, capsys):
        rows = "".join(f"0999-{m:02d},{4 + m / 10}\n" for m in range(1, 13))
        for name in ("u", "v_pre", "v_post"):
            (tmp_path / f"{name}.csv").write_text("date,value\n" + rows)
        series = ("--u-series", tmp_path / "u.csv", "--v-pre", tmp_path / "v_pre.csv", "--v-post", tmp_path / "v_post.csv")
        out = tmp_path / "out"
        assert run("ingest", *series, "--cutover", "0999Q3", "--out", out) == 0
        assert "panel: 4 quarters 0999Q1..0999Q4" in capsys.readouterr().out
        (labels, *_), faults = parse_table((out / "panel.csv").read_text(), ("quarter", "u", "v", "theta", "n"), "panel")
        quarters = parse_quarters(labels, faults)
        faults.raise_first()
        assert labels == ["0999Q1", "0999Q2", "0999Q3", "0999Q4"]
        assert quarters.tolist() == [4 * 999 + q for q in range(4)]

    def test_percent_flag_equivalent_to_prescaled_fractions(self, tmp_path):
        frac = tmp_path / "fraction_inputs"
        frac.mkdir()
        for name in (
            "unemployment_monthly.csv",
            "vacancy_hwi_monthly.csv",
            "vacancy_jolts_monthly.csv",
        ):
            (frac / name).write_text(percent_to_fraction(bundled_text(name)))
        out_pct = tmp_path / "pct"
        out_frac = tmp_path / "frac"
        assert run("gap", "--out", out_pct) == 0
        assert (
            run(
                "gap",
                "--out",
                out_frac,
                "--unit",
                "fraction",
                "--u-series",
                frac / "unemployment_monthly.csv",
                "--v-pre",
                frac / "vacancy_hwi_monthly.csv",
                "--v-post",
                frac / "vacancy_jolts_monthly.csv",
            )
            == 0
        )
        pct = (out_pct / "gap.csv").read_text()
        fra = (out_frac / "gap.csv").read_text()
        # identical up to the 6-decimal rounding of the prescaled inputs
        for a, b in zip(pct.splitlines()[1:], fra.splitlines()[1:]):
            fa, fb = a.split(","), b.split(",")
            assert fa[0] == fb[0] and fa[8] == fb[8]
            assert float(fa[5]) == pytest.approx(float(fb[5]), rel=1e-3)

    def test_empty_panel_exits_2(self, tmp_path, capsys):
        empty = tmp_path / "empty.csv"
        empty.write_text("date,value\n")
        assert run("gap", "--out", tmp_path, "--u-series", empty) == 2


class TestFit:
    def test_estimates_and_figures(self, tmp_path):
        assert run("fit", "--out", tmp_path) == 0
        lines = (tmp_path / "estimates.csv").read_text().strip().splitlines()
        assert len(lines) == 8
        header = lines[0].split(",")
        assert header == ["regime", "start", "end", "epsilon", "se", "log_v0", "r2", "n_obs"]
        for line in lines[1:]:
            fields = line.split(",")
            n_obs = int(fields[7])
            svg = (tmp_path / "figures" / f"fit_{fields[0]}.svg").read_text()
            assert svg.count("<circle") == n_obs

    def test_single_regime_table(self, tmp_path):
        regimes = tmp_path / "one.csv"
        regimes.write_text("modern,2010Q1,2019Q4\n")
        assert run("fit", "--out", tmp_path, "--regimes", regimes) == 0
        lines = (tmp_path / "estimates.csv").read_text().strip().splitlines()
        assert len(lines) == 2 and lines[1].startswith("modern,")

    def test_failing_regime_reported_others_still_emitted(self, tmp_path, capsys):
        regimes = tmp_path / "mixed.csv"
        regimes.write_text("modern,2010Q1,2019Q4\nfuture,2040Q1,2049Q4\n")
        assert run("fit", "--out", tmp_path, "--regimes", regimes) == 2
        assert "future" in capsys.readouterr().err
        lines = (tmp_path / "estimates.csv").read_text().strip().splitlines()
        assert len(lines) == 2 and lines[1].startswith("modern,")

    @pytest.mark.parametrize("label", ["70s/../../../escaped", "a\x00b"])
    def test_label_that_is_not_a_file_name_exits_2(self, tmp_path, capsys, label):
        regimes = tmp_path / "regimes.csv"
        regimes.write_text(bundled_text("regimes_default.csv").replace("1951Q1-1959Q2,", f"{label},"))
        out = tmp_path / "a" / "b" / "out"
        assert run("fit", "--out", out, "--regimes", regimes) == 2
        err = capsys.readouterr().err
        assert err == f"error: regime {label!r}: a figure file name cannot hold a path separator or NUL\n"
        assert sorted(p.name for p in tmp_path.rglob("*")) == ["regimes.csv"]

    def test_repeated_label_exits_2(self, tmp_path, capsys):
        regimes = tmp_path / "regimes.csv"
        regimes.write_text(bundled_text("regimes_default.csv").replace("1959Q4-1971Q1,", "1951Q1-1959Q2,"))
        assert run("fit", "--out", tmp_path / "out", "--regimes", regimes) == 2
        assert capsys.readouterr().err == "error: regime '1951Q1-1959Q2' is listed twice\n"
        assert not (tmp_path / "out").exists()


class TestGapCommand:
    def test_baseline_summary(self, tmp_path):
        assert run("gap", "--out", tmp_path) == 0
        summary = json.loads((tmp_path / "summary.json").read_text())["gap"]
        assert summary["all_quarters"]["mean_gap"] * 100 == pytest.approx(1.6, abs=0.3)
        assert summary["kappa"] == pytest.approx(0.72, abs=0.005)
        assert (tmp_path / "figures" / "gap_unemployment.svg").is_file()

    def test_dead_band_wider_than_any_theta_is_all_efficient(self, tmp_path):
        # a fresh interpreter prints any warning, as a user would see it
        done = run_child("gap", "--out", tmp_path, "--tol", "1e308", "--kappa", "0.1")
        assert (done.returncode, done.stderr) == (0, "")
        rows = (tmp_path / "gap.csv").read_text().splitlines()
        column = rows[0].split(",").index("classification")
        assert len(rows) > 1 and {row.split(",")[column] for row in rows[1:]} == {"efficient"}

    def test_high_zeta_profile(self, tmp_path):
        assert run("gap", "--out", tmp_path, "--zeta", "0.96") == 0
        summary = json.loads((tmp_path / "summary.json").read_text())["gap"]
        assert summary["all_quarters"]["mean_u_star"] * 100 == pytest.approx(17.5, abs=1.5)

    def test_per_regime_kappa_override_file(self, tmp_path):
        kfile = tmp_path / "kappa.csv"
        kfile.write_text("regime,kappa\n2010Q1-2019Q4,0.9\n")
        base = tmp_path / "base"
        robust = tmp_path / "robust"
        assert run("gap", "--out", base) == 0
        assert run("gap", "--out", robust, "--kappa-file", kfile) == 0
        base_rows = (base / "gap.csv").read_text().splitlines()[1:]
        robust_rows = (robust / "gap.csv").read_text().splitlines()[1:]
        for b, r in zip(base_rows, robust_rows):
            fb, fr = b.split(","), r.split(",")
            if fb[0].startswith("201"):
                assert float(fr[5]) > float(fb[5])  # higher kappa raises u*
            elif fb[0].startswith("198"):
                assert fr[5] == fb[5]

    def test_kappa_file_unknown_regime_exits_2(self, tmp_path):
        kfile = tmp_path / "kappa.csv"
        kfile.write_text("regime,kappa\nnot-a-regime,0.9\n")
        assert run("gap", "--out", tmp_path, "--kappa-file", kfile) == 2

    @pytest.mark.parametrize("value", ["inf", "nan", "0"])
    def test_kappa_file_non_finite_exits_2(self, tmp_path, capsys, value):
        kfile = tmp_path / "kappa.csv"
        kfile.write_text(f"regime,kappa\n1951Q1-1959Q2,0.8\n2010Q1-2019Q4,{value}\n")
        assert run("gap", "--out", tmp_path, "--kappa-file", kfile) == 2
        assert "kappa file line 3: kappa must be positive and finite" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "rows,message",
        [
            ("1951Q1-1959Q2,0.5\n1951Q1-1959Q2,2.0\n", "line 3: regime '1951Q1-1959Q2' is listed twice"),
            # on one row the repeat is checked before the value, after the label
            ("1951Q1-1959Q2,0.5\n1951Q1-1959Q2,0\n", "line 3: regime '1951Q1-1959Q2' is listed twice"),
            ("1959Q4-1971Q1,0\n1951Q1-1959Q2,0.5\n1951Q1-1959Q2,2.0\n", "line 2: kappa must be positive and finite"),
        ],
    )
    def test_kappa_file_repeated_regime_exits_2(self, tmp_path, capsys, rows, message):
        kfile = tmp_path / "kappa.csv"
        kfile.write_text("regime,kappa\n" + rows)
        assert run("gap", "--out", tmp_path / "out", "--kappa-file", kfile) == 2
        assert capsys.readouterr().err == f"error: kappa file {message}\n"
        assert not (tmp_path / "out").exists()

    def test_minus_infinite_zeta_exits_2(self, tmp_path, capsys):
        assert run("gap", "--out", tmp_path, "--zeta=-inf") == 2
        err = capsys.readouterr().err
        assert err.count("error:") == 1 and "must be finite and below 1" in err
        assert not (tmp_path / "gap.csv").exists()

    @pytest.mark.parametrize("command,artifact", [("gap", "gap.csv"), ("sensitivity", "sensitivity.csv")])
    def test_overflowing_u_star_exits_2(self, tmp_path, capsys, command, artifact):
        # kappa * epsilon / (1 - zeta) * theta overflows to inf wherever
        # theta is high enough: from 1953Q1 at zeta 0.25, and for the
        # sensitivity sweep's zeta 0.5 and 0.96 from 1951Q1
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert run(command, "--out", tmp_path, "--kappa", "1e308") == 2
        err = capsys.readouterr().err
        assert err.count("error:") == 1
        assert re.search(r"error: \d{4}Q\d: efficient values must be finite, got u\*.*=inf", err)
        assert not (tmp_path / artifact).exists()


class TestSensitivity:
    def test_minus_infinite_zeta_in_list_exits_2(self, tmp_path, capsys):
        assert run("sensitivity", "--out", tmp_path, "--zeta-list=-inf,0.25") == 2
        err = capsys.readouterr().err
        assert err.count("error:") == 1 and "must be finite and below 1" in err
        assert not (tmp_path / "sensitivity.csv").exists()

    def test_unparsable_zeta_list_flag_exits_2(self, tmp_path, capsys):
        assert run("sensitivity", "--out", tmp_path / "out", "--zeta-list", "abc") == 2
        assert capsys.readouterr().err == "error: bad zeta list 'abc'\n"
        assert not (tmp_path / "out").exists()

    def test_default_band(self, tmp_path):
        assert run("sensitivity", "--out", tmp_path) == 0
        header = (tmp_path / "sensitivity.csv").read_text().splitlines()[0]
        assert header == "quarter,u,u_star_z0,u_star_z25,u_star_z50,u_star_z96"
        summary = json.loads((tmp_path / "summary.json").read_text())["sensitivity"]
        assert summary["mean_width"] * 100 < 1.5

    def test_minus_zero_and_zero_keep_their_own_columns(self, tmp_path):
        # -0.0 == 0.0, so a sweep keyed by zeta would merge the two tags into one column
        assert run("sensitivity", "--out", tmp_path, "--zeta-list=-0,0,0.5") == 0
        rows = [line.split(",") for line in (tmp_path / "sensitivity.csv").read_text().splitlines()]
        assert rows[0] == ["quarter", "u", "u_star_z-0", "u_star_z0", "u_star_z50"]
        assert all(row[2] == row[3] for row in rows[1:])
        summary = json.loads((tmp_path / "summary.json").read_text())["sensitivity"]
        assert list(summary["mean_u_star"]) == ["z-0", "z0", "z50"]

    def test_singleton_list_matches_gap_column(self, tmp_path):
        assert run("gap", "--out", tmp_path) == 0
        assert run("sensitivity", "--out", tmp_path, "--zeta-list", "0.25") == 0
        gap_col = [
            line.split(",")[5] for line in (tmp_path / "gap.csv").read_text().splitlines()[1:]
        ]
        band_col = [
            line.split(",")[2]
            for line in (tmp_path / "sensitivity.csv").read_text().splitlines()[1:]
        ]
        assert gap_col == band_col

    def test_implied_zeta_flag(self, tmp_path):
        assert run("sensitivity", "--out", tmp_path, "--implied-zeta") == 0
        rows = (tmp_path / "implied_zeta.csv").read_text().splitlines()
        assert rows[0] == "quarter,theta,epsilon,zeta_star"
        assert len(rows) == 277
        summary = json.loads((tmp_path / "summary.json").read_text())["sensitivity"]
        assert summary["implied_zeta"]["min"] < 0.0 < summary["implied_zeta"]["max"]

    def test_kappa_file_reaches_band_and_implied_zeta(self, tmp_path):
        kfile = tmp_path / "kappa.csv"
        kfile.write_text("regime,kappa\n2010Q1-2019Q4,2.0\n")
        base, robust = tmp_path / "base", tmp_path / "robust"
        args = ["--implied-zeta", "--zeta-list", "0.25"]
        assert run("sensitivity", "--out", base, *args) == 0
        assert run("gap", "--out", robust, "--kappa-file", kfile) == 0
        assert run("sensitivity", "--out", robust, *args, "--kappa-file", kfile) == 0
        gap_col = [line.split(",")[5] for line in (robust / "gap.csv").read_text().splitlines()[1:]]
        band_col = [
            line.split(",")[2] for line in (robust / "sensitivity.csv").read_text().splitlines()[1:]
        ]
        assert band_col == gap_col
        base_rows = (base / "implied_zeta.csv").read_text().splitlines()[1:]
        robust_rows = (robust / "implied_zeta.csv").read_text().splitlines()[1:]
        assert len(base_rows) == len(robust_rows) == 276
        for b, r in zip(base_rows, robust_rows):
            fb, fr = b.split(","), r.split(",")
            assert fr[:3] == fb[:3]
            if fb[0].startswith("201"):
                assert float(fr[3]) < float(fb[3])  # higher kappa lowers zeta*
            else:
                assert fr[3] == fb[3]


def edited_scenario(tmp_path, **economy) -> Path:
    """A copy of the bundled scenario with the given economy values replaced."""
    text = (bundled_data_dir() / "scenario_default.cfg").read_text()
    for key, value in economy.items():
        text = re.sub(rf"^{key} = .*$", f"{key} = {value}", text, flags=re.M)
    scenario = tmp_path / "edited.cfg"
    scenario.write_text(text.replace("shocks_default.csv", str(bundled_data_dir() / "shocks_default.csv")))
    return scenario


class TestSimulate:
    def test_runs_and_validates(self, tmp_path):
        assert run("simulate", "--out", tmp_path) == 0
        report = json.loads((tmp_path / "simulation_report.json").read_text())
        assert report["all_passed"]
        assert report["round_trip"]["checked"] and report["round_trip"]["passed"]
        assert len(report["comparative_statics"]) == 4

    def test_seeded_repeats_identical(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        assert run("simulate", "--out", a, "--noise-scale", "0.02", "--seed", "11") == 0
        assert run("simulate", "--out", b, "--noise-scale", "0.02", "--seed", "11") == 0
        assert (a / "synthetic_panel.csv").read_bytes() == (b / "synthetic_panel.csv").read_bytes()
        assert (a / "simulation_report.json").read_bytes() == (
            b / "simulation_report.json"
        ).read_bytes()

    def test_env_seed_override(self, tmp_path, monkeypatch):
        monkeypatch.setenv("TOOLKIT_SEED", "99")
        assert run("simulate", "--out", tmp_path) == 0
        report = json.loads((tmp_path / "simulation_report.json").read_text())
        assert report["seed"] == 99

    def test_flag_beats_env(self, tmp_path, monkeypatch):
        monkeypatch.setenv("TOOLKIT_SEED", "99")
        assert run("simulate", "--out", tmp_path, "--seed", "3") == 0
        report = json.loads((tmp_path / "simulation_report.json").read_text())
        assert report["seed"] == 3

    def test_optimum_on_bracket_edge_exits_2(self, tmp_path, capsys):
        # the planner's u* for this economy pins at the bracket's upper edge,
        # so no property can be verified around it
        scenario = edited_scenario(tmp_path, mu="0.05", s="0.5", z="0.7", c="0.01")
        assert run("simulate", "--scenario", scenario, "--out", tmp_path / "out") == 2
        captured = capsys.readouterr()
        assert captured.err.count("error:") == 1 and "bracket (0.0001, 0.5)" in captured.err
        assert "FAIL" not in captured.out

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    def test_non_finite_noise_exits_2(self, tmp_path, capsys, value):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert run("simulate", "--out", tmp_path, f"--noise-scale={value}") == 2
        err = capsys.readouterr().err
        assert err.count("error:") == 1 and "noise_scale must be" in err
        assert not (tmp_path / "simulation_report.json").exists()

    def test_overflowing_noise_exits_2(self, tmp_path, capsys):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert run("simulate", "--out", tmp_path, "--noise-scale", "1e308") == 2
        err = capsys.readouterr().err
        assert err.count("error:") == 1
        assert re.search(r"error: 20\d\dQ\d: the noisy vacancy rate is not finite", err)
        assert not (tmp_path / "simulation_report.json").exists()

    @staticmethod
    def simulate_with_2000q3_row(tmp_path, row) -> int:
        """Simulate the bundled scenario into tmp_path/out with its 2000Q3 shock row replaced by row."""
        lines = bundled_text("shocks_default.csv").splitlines()
        lines = [row if line.startswith("2000Q3") else line for line in lines]
        shocks = tmp_path / "shocks.csv"
        shocks.write_text("\n".join(lines) + "\n")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            return run(*shock_scenario(tmp_path, shocks), "--out", tmp_path / "out")

    def test_overflowing_tightness_exits_2(self, tmp_path, capsys):
        # a tiny separation multiplier drives u toward 0 while v on the curve stays finite
        assert self.simulate_with_2000q3_row(tmp_path, "2000Q3,1e-300,1.1") == 2
        captured = capsys.readouterr()
        assert captured.err.count("\n") == 1
        assert captured.err.startswith("error: 2000Q3: the tightness v/u overflows at u=")
        assert captured.out == ""
        assert [p for p in (tmp_path / "out").rglob("*") if p.is_file()] == []

    def test_vacancy_rate_of_one_or_more_exits_2(self, tmp_path, capsys):
        # a small separation multiplier puts v on the curve far above 1 while v/u stays finite
        assert self.simulate_with_2000q3_row(tmp_path, "2000Q3,1e-100,1.0") == 2
        captured = capsys.readouterr()
        assert captured.err == "error: 2000Q3: the vacancy rate 4.96031e+98 is not a fraction\n"
        assert captured.out == ""
        assert [p for p in (tmp_path / "out").rglob("*") if p.is_file()] == []

    def test_input_error_after_the_panel_writes_nothing(self, tmp_path, capsys):
        # the panel builds, then the comparative-statics check rejects zeta + 0.25 >= 1
        scenario = edited_scenario(tmp_path, z="0.76")
        assert run("simulate", "--scenario", scenario, "--out", tmp_path / "out") == 2
        captured = capsys.readouterr()
        assert captured.err == "error: zeta_shift pushes zeta to 1 or above\n"
        assert captured.out == ""
        assert not (tmp_path / "out").exists()

    def test_failed_check_exits_1_with_both_files_written(self, tmp_path, capsys):
        # a matching-efficiency shock moves the economy off one curve, so the round trip fails
        assert self.simulate_with_2000q3_row(tmp_path, "2000Q3,1.0,1.3") == 1
        assert capsys.readouterr().err == "property violation: simulation checks failed: round_trip\n"
        out = tmp_path / "out"
        assert sorted(p.name for p in out.iterdir()) == ["simulation_report.json", "synthetic_panel.csv"]
        assert not json.loads((out / "simulation_report.json").read_text())["round_trip"]["passed"]

    @pytest.mark.parametrize("source", ["flag", "env", "scenario"])
    def test_negative_seed_exits_2(self, tmp_path, capsys, monkeypatch, source):
        argv = ["simulate", "--out", tmp_path / "out"]
        if source == "flag":
            argv += ["--seed", "-1"]
        elif source == "env":
            monkeypatch.setenv("TOOLKIT_SEED", "-3")
        else:
            argv += ["--scenario", edited_scenario(tmp_path, seed="-1")]
        assert run(*argv) == 2
        err = capsys.readouterr().err
        assert err.count("error:") == 1 and "seed must be nonnegative" in err
        assert not (tmp_path / "out" / "simulation_report.json").exists()

    @pytest.mark.parametrize(
        "key,value",
        [("mu", "nan"), ("s", "nan"), ("p", "inf"), ("labor_force", "nan"),
         ("labor_force", "inf"), ("c", "nan"), ("z", "inf")],
    )
    def test_non_finite_economy_exits_2(self, tmp_path, capsys, key, value):
        scenario = edited_scenario(tmp_path, **{key: value})
        assert run("simulate", "--scenario", scenario, "--out", tmp_path / "out") == 2
        assert f"error: {key} must be" in capsys.readouterr().err
        assert not (tmp_path / "out" / "simulation_report.json").exists()


    def test_matching_elasticity_of_one_exits_2(self, tmp_path, capsys):
        scenario = edited_scenario(tmp_path, alpha=1)
        assert run("simulate", "--scenario", scenario, "--out", tmp_path / "out") == 2
        assert capsys.readouterr().err == "error: matching elasticity must be in (0,1), got 1.0\n"
        assert not (tmp_path / "out").exists()

    def test_steep_economy_ends_in_an_exit_code(self, tmp_path, capsys):
        # the fitted curve is so steep (epsilon ~ 76, v0 ~ 1e-253) that the compensated
        # statics check raises u to a power that overflows, then halves its v0 toward 0;
        # a raw exception would leave main and fail the test
        scenario = edited_scenario(tmp_path, alpha="0.987", mu="200")
        rc = run("simulate", "--scenario", scenario, "--out", tmp_path / "out")
        lines = capsys.readouterr().err.splitlines()
        assert rc in (0, 1, 2) and len(lines) == (rc != 0), lines
        assert all(line.startswith(("error: ", "property violation: ")) for line in lines), lines

    @pytest.mark.parametrize("economy", [{"s": "1e308", "c": "1e308"}, {"mu": "5e-324"}])
    def test_overflowing_curve_exits_2(self, tmp_path, capsys, economy):
        # the curve value overflows (or divides by an underflowed 0) inside the planner's search
        scenario = edited_scenario(tmp_path, **economy)
        assert run("simulate", "--scenario", scenario, "--out", tmp_path / "out") == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and err.startswith("error: ")
        assert not (tmp_path / "out" / "simulation_report.json").exists()


class TestReport:
    def test_missing_artifacts_exit_2(self, tmp_path, capsys):
        assert run("report", "--out", tmp_path) == 2
        assert "missing artifacts" in capsys.readouterr().err

    def test_recompute_builds_everything(self, tmp_path):
        assert run("report", "--out", tmp_path, "--recompute") == 0
        report = (tmp_path / "report.md").read_text()
        table_rows = [l for l in report.splitlines() if l.startswith("| 19") or l.startswith("| 20")]
        assert len(table_rows) == 7  # one row per regime
        assert report.count("![") == 4
        assert "Gap summary" in report

    def test_recompute_writes_summary_once_and_makes_each_directory_once(self, tmp_path, monkeypatch):
        dumped, written, made = [], [], []
        dumps, write, mkdir = json.dumps, Run.write, Path.mkdir
        monkeypatch.setattr(json, "dumps", lambda obj, **kw: dumped.append(sorted(obj)) or dumps(obj, **kw))
        monkeypatch.setattr(Run, "write", lambda r, name, text: written.append(name) or write(r, name, text))
        monkeypatch.setattr(Path, "mkdir", lambda p, *a, **kw: made.append(p) or mkdir(p, *a, **kw))
        out = tmp_path / "out"
        assert run("report", "--recompute", "--out", out) == 0
        assert dumped == [["gap", "ingest", "sensitivity"]]
        assert written.count("summary.json") == 1
        assert len(made) == len(set(made)) and set(made) == {out, out / "figures"}

    def test_failed_step_leaves_the_summary_of_the_steps_before_it(self, tmp_path, capsys):
        # the zeta list fails in the sensitivity step, after gap has run
        assert run("report", "--recompute", "--zeta-list", "0.1,0.1000001", "--out", tmp_path) == 2
        assert capsys.readouterr().err == "error: zeta values 0.1 and 0.1000001 share the column tag z10\n"
        assert sorted(json.loads((tmp_path / "summary.json").read_text())) == ["gap", "ingest"]
        assert all((tmp_path / name).is_file() for name in ("panel.csv", "estimates.csv", "gap.csv"))
        assert not (tmp_path / "sensitivity.csv").exists()

    def test_a_regime_label_with_a_bar_keeps_the_estimates_table_8_columns_wide(self, tmp_path):
        regimes = tmp_path / "regimes.csv"
        regimes.write_text(bundled_text("regimes_default.csv").replace("1951Q1-1959Q2,", "a|b,"))
        assert run("report", "--out", tmp_path / "out", "--regimes", regimes, "--recompute") == 0
        table = [line for line in (tmp_path / "out" / "report.md").read_text().splitlines() if line.startswith("|")]
        assert len(table) == 9  # the header, its rule and one row per regime
        assert [len(re.split(r"(?<!\\)\|", line)) - 2 for line in table] == [8] * 9
        assert table[2].startswith("| a\\|b | 1951Q1 | 1959Q2 |")

    def test_regeneration_is_byte_identical(self, tmp_path):
        assert run("report", "--out", tmp_path, "--recompute") == 0
        first = (tmp_path / "report.md").read_bytes()
        assert run("report", "--out", tmp_path) == 0
        assert (tmp_path / "report.md").read_bytes() == first

    def test_recompute_reads_an_existing_summary_once(self, tmp_path, monkeypatch):
        from ugap import cli

        out = tmp_path / "out"
        out.mkdir()
        (out / "summary.json").write_text("{}")
        reads, read_text = [], cli.read_text
        monkeypatch.setattr(cli, "read_text", lambda path: reads.append(path) or read_text(path))
        assert run("report", "--recompute", "--out", out) == 0
        assert reads.count(out / "summary.json") == 1

    def test_plain_report_reads_no_regimes_file(self, config_copy, tmp_path):
        # the fit figure it links is named by the last regime in estimates.csv
        out = tmp_path / "out"
        assert run("report", "--recompute", "--config", config_copy, "--out", out) == 0
        first = (out / "report.md").read_bytes()
        (out / "report.md").unlink()
        (config_copy.parent / "regimes_default.csv").unlink()
        assert run("report", "--config", config_copy, "--out", out) == 0
        assert (out / "report.md").read_bytes() == first


def test_repeated_runs_are_deterministic(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    for out in (a, b):
        assert run("ingest", "--out", out) == 0
        assert run("fit", "--out", out) == 0
        assert run("gap", "--out", out) == 0
        assert run("sensitivity", "--out", out) == 0
    for name in ("panel.csv", "estimates.csv", "gap.csv", "sensitivity.csv", "summary.json"):
        assert (a / name).read_bytes() == (b / name).read_bytes(), name
    for svg in sorted(p.name for p in (a / "figures").glob("*.svg")):
        assert (a / "figures" / svg).read_bytes() == (b / "figures" / svg).read_bytes(), svg


@pytest.mark.parametrize(
    "argv", [["gap"], ["sensitivity", "--implied-zeta"], ["report", "--recompute"]], ids=" ".join
)
def test_a_section_ugap_does_not_write_is_written_back_as_read(tmp_path, argv):
    out = tmp_path / "out"
    out.mkdir()
    (out / "summary.json").write_text('{"notes": {"x": 0.12345678901234567, "n": [1, 2.5e-300]}}')
    assert run(*argv, "--out", out) == 0
    summary = json.loads((out / "summary.json").read_text())
    assert summary["notes"] == {"x": 0.12345678901234567, "n": [1, 2.5e-300]}


def test_default_output_directory_is_out_in_the_working_directory(tmp_path, monkeypatch):
    data = bundled_data_dir()
    before = sorted(data.rglob("*"))
    monkeypatch.chdir(tmp_path)
    try:
        assert main(["ingest"]) == 0
        assert (tmp_path / "out" / "panel.csv").is_file()
    finally:
        stray = sorted(set(data.rglob("*")) - set(before))
        for path in reversed(stray):  # files before the directories that hold them
            path.rmdir() if path.is_dir() else path.unlink()
    assert stray == []


def tree_bytes(root: Path) -> dict[str, bytes]:
    return {p.relative_to(root).as_posix(): p.read_bytes() for p in sorted(root.rglob("*")) if p.is_file()}


class TestRewriteInPlace:
    """An output that exists is overwritten in place and cut to its new length."""

    @pytest.mark.parametrize("extra", [5000, -100], ids=["longer", "shorter"])
    def test_old_contents_leave_no_trace(self, recomputed, tmp_path, extra):
        out = tmp_path / "out"
        (out / "figures").mkdir(parents=True)
        expected = tree_bytes(recomputed)
        for name in ("gap.csv", "figures/gap_unemployment.svg"):
            (out / name).write_bytes(b"#" * (len(expected[name]) + extra))
        # summary.json is read back before it is written, so its junk is JSON: the same object, padded or cut short
        summary = json.dumps(json.loads(expected["summary.json"]), indent=None if extra < 0 else 40)
        assert (len(summary) > len(expected["summary.json"])) is (extra > 0)
        (out / "summary.json").write_text(summary)
        assert run("report", "--recompute", "--out", out) == 0
        assert tree_bytes(out) == expected

    def test_existing_output_keeps_its_inode_and_mode_and_a_new_one_gets_the_umask(self, tmp_path):
        out = tmp_path / "out"
        umask = os.umask(0o027)
        try:
            assert run("ingest", "--out", out) == 0
        finally:
            os.umask(umask)
        panel = out / "panel.csv"
        assert panel.stat().st_mode & 0o777 == 0o640
        panel.chmod(0o604)
        inode, first = panel.stat().st_ino, panel.read_bytes()
        assert run("ingest", "--out", out) == 0
        assert (panel.stat().st_ino, panel.stat().st_mode & 0o777) == (inode, 0o604)
        assert panel.read_bytes() == first

    def test_no_descriptor_is_left_open(self, recomputed, tmp_path):
        # a raw descriptor has no finalizer to warn when it leaks, so count them
        if not os.path.isdir("/proc/self/fd"):
            pytest.skip("no /proc/self/fd to count descriptors in")
        shutil.copytree(recomputed, tmp_path / "out")
        before = sorted(os.listdir("/proc/self/fd"))
        assert run("report", "--recompute", "--out", tmp_path / "out") == 0
        assert sorted(os.listdir("/proc/self/fd")) == before

    def test_an_output_linked_to_dev_null_is_written_there(self, tmp_path):
        if not os.path.exists("/dev/null"):
            pytest.skip("no /dev/null to link to")
        out = tmp_path / "out"
        out.mkdir()
        (out / "panel.csv").symlink_to("/dev/null")
        assert run("ingest", "--out", out) == 0
        assert (out / "panel.csv").is_symlink() and (out / "figures" / "rates_timeseries.svg").is_file()


@pytest.mark.parametrize(
    ("command", "flag"),
    [("sensitivity", "--zeta-list"), ("ingest", "--cutover"), ("ingest", "--out"), ("ingest", "--config")]
    + [("ingest", flag) for flag in ("--u-series", "--v-pre", "--v-post", "--regimes", "--recessions")]
    + [("gap", "--calibration"), ("gap", "--kappa-file"), ("simulate", "--scenario")],
)
def test_empty_flag_value_is_a_usage_error(tmp_path, monkeypatch, capsys, command, flag):
    # an empty value would read as no flag (--zeta-list, --cutover) or as the directory "." (the paths)
    monkeypatch.chdir(tmp_path)
    with pytest.raises(SystemExit) as exc:
        main([command, flag, ""])
    assert exc.value.code == 2
    assert capsys.readouterr().err.endswith(f"error: argument {flag}: expected a value, got an empty string\n")
    assert list(tmp_path.iterdir()) == []


@pytest.fixture
def config_copy(tmp_path):
    """A writable copy of the bundled config, next to a copy of its data."""
    data = tmp_path / "data"
    shutil.copytree(bundled_data_dir(), data)
    return data / "default.cfg"


class TestBadConfigExits2:
    @pytest.mark.parametrize(
        "section,key",
        [
            ("gap", "kappa"),
            ("gap", "zeta"),
            ("gap", "tolerance"),
            ("simulate", "seed"),
            ("simulate", "noise_scale"),
        ],
    )
    def test_non_numeric_config_number(self, config_copy, tmp_path, capsys, section, key):
        with open(config_copy, "a", encoding="utf-8") as fh:
            fh.write(f"\n[{section}]\n{key} = abc\n")
        assert run("gap", "--config", config_copy, "--out", tmp_path / "out") == 2
        assert f"{section}.{key}" in capsys.readouterr().err

    def test_non_numeric_env_seed(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setenv("TOOLKIT_SEED", "abc")
        assert run("simulate", "--out", tmp_path) == 2
        assert "TOOLKIT_SEED" in capsys.readouterr().err

    def test_negative_tolerance_flag(self, tmp_path, capsys):
        assert run("gap", "--out", tmp_path, "--tol", "-0.1") == 2
        assert "tolerance" in capsys.readouterr().err

    def test_negative_tolerance_in_config(self, config_copy, tmp_path):
        with open(config_copy, "a", encoding="utf-8") as fh:
            fh.write("\n[gap]\ntolerance = -0.1\n")
        assert run("gap", "--config", config_copy, "--out", tmp_path / "out") == 2

    def test_empty_zeta_list_in_config(self, config_copy, tmp_path, capsys):
        text = re.sub(r"^zeta_list = .*$", "zeta_list =", config_copy.read_text(), flags=re.M)
        config_copy.write_text(text)
        assert run("sensitivity", "--config", config_copy, "--out", tmp_path / "out") == 2
        assert capsys.readouterr().err == "error: zeta list is empty\n"

    @pytest.mark.parametrize("value", ["", "a\x00b.csv"])
    def test_unusable_series_path_in_config(self, config_copy, tmp_path, capsys, value):
        with open(config_copy, "a", encoding="utf-8") as fh:
            fh.write(f"\n[data]\nu_series = {value}\n")
        assert run("ingest", "--config", config_copy, "--out", tmp_path / "out") == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and "u_series" in err

    @pytest.mark.parametrize(
        "edit,key",
        [
            pytest.param(lambda text: re.sub(r"(?m)^ui_tax = .*$", "", text), "ui_tax", id="missing"),
            pytest.param(lambda text: text.replace("ui_tax = 0.83", "ui_tax = abc"), "ui_tax", id="non-numeric"),
            pytest.param(lambda text: "[calibration]\n" + text, "recruiting_share", id="section"),
        ],
    )
    def test_bad_calibration_profile(self, tmp_path, capsys, edit, key):
        profile = tmp_path / "profile.cfg"
        profile.write_text(edit(bundled_text("calibration_default.cfg")), encoding="utf-8")
        assert run("gap", "--calibration", profile, "--out", tmp_path / "out") == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and err.startswith("error: calibration profile") and repr(key) in err

    def test_missing_recessions_file(self, tmp_path, capsys):
        assert run("ingest", "--out", tmp_path, "--recessions", tmp_path / "nope.csv") == 2
        assert "nope.csv" in capsys.readouterr().err

    @pytest.mark.parametrize("argv", [["ingest"], ["gap"], ["sensitivity"], ["report", "--recompute"]])
    def test_bad_recessions_file_writes_nothing(self, tmp_path, capsys, argv):
        recessions = tmp_path / "recessions.csv"
        recessions.write_text("start,end\n1953Q2,1954Q9\n")
        out = tmp_path / "out"
        assert run(*argv, "--out", out, "--recessions", recessions) == 2
        captured = capsys.readouterr()
        assert captured.err.count("error:") == 1 and "'1954Q9'" in captured.err
        assert captured.out == ""
        assert not out.exists()

    @pytest.mark.parametrize(
        "argv",
        [
            ["ingest", "--u-series", "missing.csv"],
            ["gap", "--kappa", "-1"],
            ["sensitivity", "--kappa", "-1"],
            ["report"],
        ],
    )
    def test_input_error_creates_no_output_directory(self, tmp_path, capsys, argv):
        out = tmp_path / "out"
        argv = [str(tmp_path / a) if a.endswith(".csv") else a for a in argv]
        assert run(*argv, "--out", out) == 2
        assert capsys.readouterr().err.count("error:") == 1
        assert not out.exists()

    @pytest.mark.parametrize("argv", [["ingest"], ["gap"], ["sensitivity"], ["report", "--recompute"]])
    def test_truncated_summary_writes_nothing(self, tmp_path, capsys, argv):
        out = tmp_path / "out"
        out.mkdir()
        (out / "summary.json").write_text('{"gap": ')
        assert run(*argv, "--out", out) == 2
        captured = capsys.readouterr()
        assert captured.err.count("\n") == 1
        assert captured.err.startswith(f"error: {out / 'summary.json'} is not valid JSON")
        assert captured.out == ""
        written = sorted(p.relative_to(out).as_posix() for p in out.rglob("*") if p.is_file())
        assert written == ["summary.json"]
        assert (out / "summary.json").read_text() == '{"gap": '

    def test_recession_ending_before_it_starts_exits_2(self, tmp_path, capsys):
        recessions = tmp_path / "recessions.csv"
        recessions.write_text("start,end\n1953Q2,1954Q2\n1960Q1,1950Q1\n")
        assert run("ingest", "--out", tmp_path / "out", "--recessions", recessions) == 2
        err = capsys.readouterr().err
        assert err.count("error:") == 1
        assert "error: recessions line 3: ends before it starts" in err
        assert not (tmp_path / "out" / "panel.csv").exists()

    def test_recessions_outside_the_panel_draw_no_band(self, tmp_path):
        recessions = tmp_path / "recessions.csv"
        recessions.write_text("start,end\n1900Q1,1901Q4\n1953Q2,1954Q2\n2030Q1,2031Q1\n")
        assert run("ingest", "--out", tmp_path, "--recessions", recessions) == 0
        svg = (tmp_path / "figures" / "rates_timeseries.svg").read_text()
        assert svg.count('fill="#d9d9d9"') == 1

    def test_failing_regime_stops_gap_with_its_label(self, tmp_path, capsys):
        regimes = tmp_path / "mixed.csv"
        regimes.write_text("modern,2010Q1,2019Q4\nfuture,2040Q1,2049Q4\n")
        assert run("gap", "--out", tmp_path, "--regimes", regimes) == 2
        assert "regime 'future': need at least 3 rows" in capsys.readouterr().err


def shock_scenario(tmp_path, shocks_path) -> list:
    """argv simulating the bundled scenario with its shock path read from shocks_path."""
    text = (bundled_data_dir() / "scenario_default.cfg").read_text()
    scenario = tmp_path / "scenario.cfg"
    scenario.write_text(text.replace("shocks_default.csv", str(shocks_path)))
    return ["simulate", "--scenario", scenario]


# table: (file text with a short row on line 3, CLI argv reading that file)
SHORT_ROWS = {
    "kappa file": (
        "regime,kappa\n1951Q1-1959Q2,0.8\n2010Q1-2019Q4\n",
        lambda tmp, path: ["gap", "--kappa-file", path],
    ),
    "recessions": (
        "start,end\n1953Q2,1954Q2\n1957Q3\n",
        lambda tmp, path: ["ingest", "--recessions", path],
    ),
    "shock": (
        "quarter,s_multiplier,mu_multiplier\n2000Q1,1.0,1.0\n2000Q2,1.0\n",
        shock_scenario,
    ),
    "regime": (
        "# label,start,end\nmodern,2010Q1,2019Q4\nfuture,2040Q1\n",
        lambda tmp, path: ["fit", "--regimes", path],
    ),
}


@pytest.mark.parametrize("what", sorted(SHORT_ROWS))
def test_wrong_column_count_names_the_line(tmp_path, capsys, what):
    text, argv = SHORT_ROWS[what]
    message = f"{what} line 3: expected"
    if what == "regime":
        with pytest.raises(InputError, match=message):
            RegimeTable.from_text(text)
    path = tmp_path / "table.csv"
    path.write_text(text)
    assert run(*argv(tmp_path, path), "--out", tmp_path / "out") == 2
    assert message in capsys.readouterr().err


@pytest.mark.parametrize(
    "rows,line,message",
    [
        ("2000Q1,1.0,1.0\n2000Q1,1.1,1.0\n", 3, "quarters must increase, 2000Q1 follows 2000Q1"),
        ("2000Q2,1.0,1.0\n2000Q1,1.1,1.0\n", 3, "quarters must increase, 2000Q1 follows 2000Q2"),
        ("2000Q1,1.0,1.0\n2000Q2,1.1,1.0\n# c\n2000Q2,1.0,1.0\n", 5, "quarters must increase, 2000Q2 follows 2000Q2"),
        ("2000Q1,1.0,1.0\n2000Q5,1.1,1.0\n", 3, "bad quarter label '2000Q5'"),
    ],
)
def test_shock_quarters_must_increase(tmp_path, capsys, rows, line, message):
    shocks = tmp_path / "shocks.csv"
    shocks.write_text("quarter,s_multiplier,mu_multiplier\n" + rows)
    assert run(*shock_scenario(tmp_path, shocks), "--out", tmp_path / "out") == 2
    err = capsys.readouterr().err
    assert err.count("error:") == 1 and f"error: shock line {line}: {message}" in err
    assert not (tmp_path / "out" / "synthetic_panel.csv").exists()


@pytest.mark.parametrize(
    "what,text,argv",
    [
        ("recessions", "start,end\n1953Q2,1954Q2\n1957Q3,1958q9\n", lambda path: ["ingest", "--recessions", path]),
        ("regime", "# label,start,end\nold,1951Q1,1959Q2\nnew,196OQ1,2019Q4\n", lambda path: ["fit", "--regimes", path]),
    ],
)
def test_bad_quarter_label_names_its_line(tmp_path, capsys, what, text, argv):
    path = tmp_path / "table.csv"
    path.write_text(text)
    assert run(*argv(path), "--out", tmp_path / "out") == 2
    err = capsys.readouterr().err
    assert err.count("error:") == 1 and f"error: {what} line 3: bad quarter label" in err


# valid JSON nested deeper than the decoder can recurse
DEEP_JSON = "[" * 200000 + "]" * 200000


class TestUnreadableArtifacts:
    @pytest.mark.parametrize("command", ["ingest", "gap", "sensitivity"])
    @pytest.mark.parametrize("text", ['{"gap": ', "[]", "\xff", pytest.param(DEEP_JSON, id="deep")])
    def test_unreadable_summary_exits_2(self, tmp_path, capsys, command, text):
        out = tmp_path / "out"
        out.mkdir()
        (out / "summary.json").write_text(text, encoding="latin-1")
        assert run(command, "--out", out) == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and err.startswith(f"error: {out / 'summary.json'} is not")

    def test_deep_summary_fails_report_with_2(self, tmp_path, capsys):
        assert run("report", "--recompute", "--out", tmp_path) == 0
        (tmp_path / "summary.json").write_text(DEEP_JSON)
        capsys.readouterr()
        assert run("report", "--out", tmp_path) == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and err.startswith(f"error: {tmp_path / 'summary.json'} is not valid JSON")

    @pytest.mark.parametrize(
        ("key", "value", "error"),
        [("mean_u", 10**400, "OverflowError"), ("max_gap_quarter", "\ud800", "UnicodeEncodeError")],
        ids=["integer-too-large-for-a-float", "lone-surrogate"],
    )
    def test_summary_value_report_cannot_render_fails_report_with_2(self, tmp_path, capsys, key, value, error):
        assert run("report", "--recompute", "--out", tmp_path) == 0
        path = tmp_path / "summary.json"
        summary = json.loads(path.read_text())
        summary["gap"]["all_quarters"][key] = value
        path.write_text(json.dumps(summary))
        capsys.readouterr()
        assert run("report", "--out", tmp_path) == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1
        assert err.startswith(f"error: {path} does not hold the gap and sensitivity results ({error}: ")

    def test_summary_string_is_not_multiplied_before_it_is_rejected(self, tmp_path, capsys):
        assert run("report", "--recompute", "--out", tmp_path) == 0
        path = tmp_path / "summary.json"
        summary = json.loads(path.read_text())
        summary["gap"]["all_quarters"]["mean_u"] = "x" * 1_000_000
        path.write_text(json.dumps(summary))
        capsys.readouterr()
        tracemalloc.start()
        try:
            assert run("report", "--out", tmp_path) == 2
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert capsys.readouterr().err.startswith(f"error: {path} does not hold the gap and sensitivity results")
        assert peak < 20_000_000  # a 100-fold copy of the string is 100 MB

    def test_summary_error_clips_a_long_key(self, tmp_path, capsys):
        assert run("report", "--recompute", "--out", tmp_path) == 0
        path = tmp_path / "summary.json"
        summary = json.loads(path.read_text())
        summary["sensitivity"]["mean_u_star"]["k" * 5000] = 0.05
        path.write_text(json.dumps(summary))
        capsys.readouterr()
        assert run("report", "--out", tmp_path) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {path} does not hold the gap and sensitivity results (KeyError: ")
        assert err.count("\n") == 1 and len(err) < len(str(path)) + 200 and "(5002 characters)" in err

    @pytest.mark.parametrize("command", ["ingest", "gap", "sensitivity"])
    @pytest.mark.parametrize("depth", [600, 900])
    def test_summary_nested_too_deep_to_write_back_writes_nothing(self, tmp_path, capsys, command, depth):
        # the decoder returns it; writing it back would recurse deeper than the interpreter allows
        out = tmp_path / "out"
        out.mkdir()
        text = '{"extra": ' + "[" * depth + "]" * depth + "}"
        (out / "summary.json").write_text(text)
        assert run(command, "--out", out) == 2
        captured = capsys.readouterr()
        assert captured.err == f"error: {out / 'summary.json'} nests deeper than 100 levels\n"
        assert captured.out == ""
        assert [p.name for p in out.rglob("*")] == ["summary.json"]
        assert (out / "summary.json").read_text() == text

    @pytest.mark.parametrize("text", ["", "\n\n", "\xff", "regime,start,end,epsilon,se,log_v0,r2,n_obs\n"])
    def test_unreadable_estimates_fail_report_with_2(self, tmp_path, capsys, text):
        assert run("report", "--recompute", "--out", tmp_path) == 0
        (tmp_path / "estimates.csv").write_text(text, encoding="latin-1")
        capsys.readouterr()
        assert run("report", "--out", tmp_path) == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and err.startswith(f"error: {tmp_path / 'estimates.csv'} is ")

    def test_estimates_row_with_a_missing_field_names_its_line(self, tmp_path, capsys):
        assert run("report", "--recompute", "--out", tmp_path) == 0
        path = tmp_path / "estimates.csv"
        lines = path.read_text().splitlines(keepends=True)
        lines[2] = lines[2].rpartition(",")[0] + "\n"
        path.write_text("".join(lines))
        capsys.readouterr()
        assert run("report", "--out", tmp_path) == 2
        assert capsys.readouterr().err == (
            f"error: {path} line 3: expected 'regime,start,end,epsilon,se,log_v0,r2,n_obs'\n"
        )

    @pytest.mark.parametrize("drop", ["gap", "sensitivity"])
    def test_summary_without_a_section_fails_report_with_2(self, tmp_path, capsys, drop):
        assert run("report", "--recompute", "--out", tmp_path) == 0
        path = tmp_path / "summary.json"
        summary = json.loads(path.read_text())
        del summary[drop]
        path.write_text(json.dumps(summary))
        capsys.readouterr()
        assert run("report", "--out", tmp_path) == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1
        assert err.startswith(f"error: {path} does not hold the gap and sensitivity results")
        assert f"'{drop}'" in err


# input: (the file of a copy of the bundled data that gets a 0xe9 byte, the command that reads it)
NON_UTF8_INPUTS = {
    "--u-series": ("unemployment_monthly.csv", "gap"),
    "--v-pre": ("vacancy_hwi_monthly.csv", "gap"),
    "--v-post": ("vacancy_jolts_monthly.csv", "gap"),
    "--regimes": ("regimes_default.csv", "gap"),
    "--recessions": ("recessions_nber.csv", "gap"),
    "--kappa-file": ("kappa.csv", "gap"),
    "--calibration": ("calibration_default.cfg", "gap"),
    "--config": ("default.cfg", "gap"),
    "--scenario": ("scenario_default.cfg", "simulate"),
    "shocks": ("shocks_default.csv", "simulate"),
}


@pytest.mark.parametrize("flag", sorted(NON_UTF8_INPUTS))
def test_non_utf8_input_exits_2(config_copy, tmp_path, capsys, flag):
    name, command = NON_UTF8_INPUTS[flag]
    data = config_copy.parent
    (data / "kappa.csv").write_text("regime,kappa\n1951Q1-1959Q2,0.8\n")
    path = data / name
    path.write_bytes(b"# caf\xe9\n" + path.read_bytes())
    argv = [command, "--config", config_copy, "--kappa-file", data / "kappa.csv"]
    if flag.startswith("--"):
        argv += [flag, path]
    out = tmp_path / "out"
    assert run(*argv, "--out", out) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and err.startswith(f"error: {path} is not UTF-8 text: ")
    assert not out.exists()


def output_files(out: Path) -> dict[str, bytes]:
    return {str(path.relative_to(out)): path.read_bytes() for path in sorted(out.rglob("*")) if path.is_file()}


@pytest.mark.parametrize("flag", sorted(NON_UTF8_INPUTS))
def test_byte_order_mark_is_accepted(config_copy, tmp_path, capsys, flag):
    name, command = NON_UTF8_INPUTS[flag]
    data = config_copy.parent
    (data / "kappa.csv").write_text("regime,kappa\n1951Q1-1959Q2,0.8\n")
    path = data / name
    argv = [command, "--config", config_copy, "--kappa-file", data / "kappa.csv"]
    if flag.startswith("--"):
        argv += [flag, path]
    plain, marked = tmp_path / "plain", tmp_path / "marked"
    assert run(*argv, "--out", plain) == 0
    printed = capsys.readouterr()
    path.write_bytes(codecs.BOM_UTF8 + path.read_bytes())
    assert run(*argv, "--out", marked) == 0
    assert capsys.readouterr() == (printed.out.replace(str(plain), str(marked)), printed.err)
    assert output_files(marked) == output_files(plain)


@pytest.mark.parametrize("zetas,values", [("0.1,0.1000001", "0.1 and 0.1000001"), ("0.25,0.5,0.25", "0.25 and 0.25")])
def test_zetas_sharing_a_tag_exit_2(tmp_path, capsys, zetas, values):
    assert run("sensitivity", "--zeta-list", zetas, "--out", tmp_path) == 2
    err = capsys.readouterr().err
    assert err.count("error:") == 1 and f"error: zeta values {values} share the column tag" in err
    assert not (tmp_path / "sensitivity.csv").exists() and not (tmp_path / "summary.json").exists()


def run_child(*args, **env) -> subprocess.CompletedProcess:
    """ugap in a fresh interpreter, with env added to this process's environment."""
    argv = [sys.executable, "-m", "ugap.cli", *map(str, args)]
    return subprocess.run(argv, env=child_env(**{"PYTHONIOENCODING": None, **env}), capture_output=True, text=True)


class TestTextEncoding:
    """Text files are UTF-8 whatever the locale, and file names are checked against it.

    The ASCII child turns off both ways Python would otherwise switch a C
    locale to UTF-8: locale coercion and UTF-8 mode.
    """

    UTF8 = {"PYTHONUTF8": "1"}
    ASCII = {"LC_ALL": "C", "PYTHONCOERCECLOCALE": "0", "PYTHONUTF8": "0"}

    @staticmethod
    def accented_regimes(tmp_path) -> Path:
        text = bundled_text("regimes_default.csv").replace("1951Q1-1959Q2,", "Régime-1951,")
        table = tmp_path / "regimes.csv"
        table.write_text(text, encoding="utf-8")
        return table

    def test_report_reads_and_writes_utf8_in_an_ascii_locale(self, tmp_path):
        table = self.accented_regimes(tmp_path)
        out = tmp_path / "out"
        done = run_child("report", "--recompute", "--regimes", table, "--out", out, **self.UTF8)
        assert done.returncode == 0, done.stderr
        assert (out / "figures" / "fit_Régime-1951.svg").is_file()
        written = (out / "report.md").read_bytes()
        assert "Régime-1951".encode() in written
        (out / "report.md").unlink()
        done = run_child("report", "--regimes", table, "--out", out, **self.ASCII)
        assert done.returncode == 0, done.stderr
        assert (out / "report.md").read_bytes() == written

    def test_report_rejects_a_last_label_the_file_system_cannot_name(self, tmp_path):
        # report names the last regime's figure; the UTF-8 run wrote it, an ASCII run cannot name it
        text = bundled_text("regimes_default.csv").replace("2010Q1-2019Q4,", "Régime-2010,")
        table = tmp_path / "regimes.csv"
        table.write_text(text, encoding="utf-8")
        out = tmp_path / "out"
        done = run_child("report", "--recompute", "--regimes", table, "--out", out, **self.UTF8)
        assert done.returncode == 0, done.stderr
        (out / "report.md").unlink()
        done = run_child("report", "--regimes", table, "--out", out, **self.ASCII)
        assert done.returncode == 2
        assert done.stderr.count("\n") == 1
        assert done.stderr.startswith("error: regime 'R\\xe9gime-2010': the file system encoding ")
        assert done.stderr.endswith(" cannot name its figure\n")
        assert not (out / "report.md").exists()

    def test_config_path_the_file_system_cannot_hold_exits_2(self, config_copy, tmp_path):
        with open(config_copy, "a", encoding="utf-8") as fh:
            fh.write("\n[output]\nout_dir = outé\n")
        done = run_child("ingest", "--config", config_copy, **self.ASCII)
        assert done.returncode == 2
        assert done.stderr.count("\n") == 1
        assert done.stderr.startswith("error: out_dir: the file system encoding ")
        assert done.stdout == ""

    def test_fit_rejects_a_label_the_file_system_cannot_name(self, tmp_path):
        table = self.accented_regimes(tmp_path)
        out = tmp_path / "out"
        done = run_child("fit", "--regimes", table, "--out", out, **self.ASCII)
        assert done.returncode == 2
        assert done.stderr.count("\n") == 1
        assert done.stderr.startswith("error: regime 'R\\xe9gime-1951': the file system encoding ")
        assert done.stdout == ""
        assert not out.exists()


def test_import_loads_no_network_modules():
    """Importing the CLI must not pull in the network and mail stacks (slow to import).

    urllib.parse is left out: the interpreter loads it at start-up.
    """
    code = (
        "import sys, ugap.cli; "
        "print(sorted(m for m in ('urllib.request', 'http', 'ssl', 'email', 'xml.sax') if m in sys.modules))"
    )
    out = subprocess.run([sys.executable, "-c", code], env=child_env(), capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "[]"


def test_the_default_config_loads_without_importlib_resources():
    """Under -S no site hook loads importlib.resources, so only ugap itself could."""
    code = "import sys; from ugap.config import load_config; load_config(None); print('importlib.resources' in sys.modules)"
    out = subprocess.run([sys.executable, "-S", "-c", code], env=child_env(), capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "False"


class Fresh(NamedTuple):
    """What a fresh `ugap` process reports as its main() returns."""

    rc: int
    modules: set[str]  # the modules loaded by then
    threads: int | None  # from /proc/self/status, or None where that file is missing
    collections: int  # the passes the cyclic collector made during main()
    collector_on: bool
    frozen: int  # gc.get_freeze_count()


def run_fresh(*args, **env) -> Fresh:
    """ugap with args in a fresh interpreter, called as the console script calls it, env added to its environment.

    A None value in env leaves that variable out.
    """
    code = "\n".join([
        "import gc, sys",
        "from ugap.cli import main",
        "passes = []",
        "gc.callbacks.append(lambda phase, info: phase == 'start' and passes.append(info['generation']))",
        "try:",
        "    sys.exit(main())",
        "finally:",
        "    try:",
        "        threads = [line.split()[1] for line in open('/proc/self/status') if line.startswith('Threads:')]",
        "    except OSError:",
        "        threads = []",
        "    print(len(passes), int(gc.isenabled()), gc.get_freeze_count(), *threads, file=sys.stderr)",
        "    print(*sorted(sys.modules), file=sys.stderr)",
    ])
    argv = [sys.executable, "-c", code, *map(str, args)]
    done = subprocess.run(argv, env=child_env(**env), capture_output=True, text=True)
    *_, facts, modules = done.stderr.splitlines()
    collections, on, frozen, *threads = map(int, facts.split())
    return Fresh(done.returncode, set(modules.split()), threads[0] if threads else None, collections, bool(on), frozen)


@pytest.fixture(scope="module")
def recomputed(tmp_path_factory):
    out = tmp_path_factory.mktemp("recomputed")
    assert run("report", "--recompute", "--out", out) == 0
    return out


@pytest.mark.parametrize(
    ("args", "code"),
    [(("report", "--out", "{recomputed}"), 0), (("--help",), 0), (("fit", "--zeta-list", "abc"), 2)],
    ids=["report", "help", "usage-error"],
)
def test_light_commands_start_without_numpy(recomputed, args, code):
    fresh = run_fresh(*(arg.format(recomputed=recomputed) for arg in args))
    assert fresh.rc == code
    assert "ugap.cli" in fresh.modules and "numpy" not in fresh.modules


@pytest.mark.parametrize("command", ["ingest", "fit", "gap", "sensitivity"])
def test_only_simulate_loads_the_planner(command, tmp_path):
    fresh = run_fresh(command, "--out", tmp_path)
    assert fresh.rc == 0
    assert "numpy" in fresh.modules and "ugap.planner" not in fresh.modules
    assert "csv" not in fresh.modules


def threads_at_exit(*args, **env) -> int:
    """The thread count at the end of a fresh, successful ugap run; skips where it cannot be read."""
    fresh = run_fresh(*args, **env)
    assert fresh.rc == 0
    if fresh.threads is None:
        pytest.skip("no /proc/self/status to count threads in")
    return fresh.threads


@pytest.mark.parametrize("command", ["gap", "simulate"])
def test_fresh_commands_start_openblas_with_one_thread(command, tmp_path):
    # OpenBLAS would start a worker for each CPU beyond the first
    assert threads_at_exit(command, "--out", tmp_path, OPENBLAS_NUM_THREADS=None) == 1


def test_a_set_openblas_thread_count_is_kept(tmp_path):
    if (os.cpu_count() or 1) < 2:
        pytest.skip("OpenBLAS starts no worker thread on one CPU")
    assert threads_at_exit("gap", "--out", tmp_path, OPENBLAS_NUM_THREADS="2") == 2


def test_in_process_main_leaves_the_environment_alone(tmp_path, monkeypatch):
    monkeypatch.delenv("OPENBLAS_NUM_THREADS", raising=False)
    before = dict(os.environ)
    assert run("gap", "--out", tmp_path) == 0
    assert dict(os.environ) == before


@pytest.mark.parametrize(
    ("args", "code"),
    [(("gap", "--out", "{tmp}"), 0), (("simulate", "--out", "{tmp}"), 0), (("report", "--out", "{tmp}"), 2),
     (("--help",), 0)],
    ids=["gap", "simulate", "input-error", "help"],
)
def test_the_program_runs_without_the_collector_and_exits_frozen(tmp_path, args, code):
    fresh = run_fresh(*(arg.format(tmp=tmp_path) for arg in args))
    assert fresh.rc == code
    assert fresh.collections == 0 and not fresh.collector_on
    assert fresh.frozen > 0


@pytest.mark.parametrize("collector_on", [True, False])
@pytest.mark.parametrize(("args", "code"), [(("gap",), 0), (("gap", "--kappa", "-1"), 2)], ids=["ok", "input-error"])
def test_in_process_main_leaves_the_collector_alone(tmp_path, collector_on, args, code):
    was_on, frozen, thresholds = gc.isenabled(), gc.get_freeze_count(), gc.get_threshold()
    (gc.enable if collector_on else gc.disable)()
    try:
        assert run(*args, "--out", tmp_path) == code
        assert (gc.isenabled(), gc.get_freeze_count(), gc.get_threshold()) == (collector_on, frozen, thresholds)
    finally:
        (gc.enable if was_on else gc.disable)()


def test_no_reference_cycle_grows_with_the_input(tmp_path, monkeypatch):
    """The premise of running without the collector: the garbage in cycles is the same for 40 and 8000 quarters."""
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1] / "bench"))
    monkeypatch.delenv("TOOLKIT_SEED", raising=False)
    import inputs

    inputs.verify_inputs(7, 8, 8000, bundled_data_dir(), tmp_path / "verify")
    bundled = ("simulate", "--out", tmp_path / "bundled")
    long_path = ("simulate", "--scenario", tmp_path / "verify" / "scenario.cfg", "--out", tmp_path / "long")
    was_on = gc.isenabled()
    gc.disable()
    try:
        assert run(*bundled) == 0  # warm-up: first-use caches
        gc.collect()
        assert run(*bundled) == 0
        in_cycles = gc.collect()
        assert run(*long_path) == 0
        assert gc.collect() == in_cycles
    finally:
        if was_on:
            gc.enable()


def test_simulate_loads_no_figure_regime_or_calibration_layer(tmp_path):
    fresh = run_fresh("simulate", "--out", tmp_path)
    assert fresh.rc == 0
    assert "ugap.planner" in fresh.modules
    assert fresh.modules & {"ugap.svgfig", "ugap.regimes", "ugap.calibration", "csv"} == set()
