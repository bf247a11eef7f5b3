"""Command-line entry point.

Subcommands: ingest, fit, gap, sensitivity, simulate, report. Each
invocation builds one lazy `Run`, and every command renders from it, so
`report --recompute` parses the series, fits the regimes, builds the
schedule and reads the kappa file once for all four steps. `simulate`
keeps the shock table as columns from the reader through synth_panel to
the round-trip error, which takes its powers through libm, so the
reported digits are those of a quarter-by-quarter loop. Exit codes
are a stable contract for scripting: 0 success, 1 a verified property
failed, 2 bad input or configuration. All outputs are deterministic
given the config and inputs, so repeated runs are byte-identical.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from dataclasses import asdict, fields
from functools import cached_property
from pathlib import Path

import numpy as np

from . import gap as gap_mod
from .calibration import CalibrationProfile
from .config import (  # parse_kv_text stays bound here for tools that trace the CLI by name
    KeyValues,
    RunConfig,
    check_path,
    load_config,
    parse_floats,
    parse_kv_text,
    parse_table,
    parse_zeta_list,
    read_text,
)
from .errors import ConfigError, FirstFault, InputError, ParseError, PropertyViolation
from .fitting import ElasticityEstimate, fit_all, fit_elasticity, write_estimates_csv
from .ingest import (
    LaborMarketPanel,
    build_panel,
    parse_series_csv,
    splice_jump,
    splice_vacancy,
    to_quarterly,
)
from .planner import (
    DmpCurve,
    DmpEconomy,
    IsoelasticCurve,
    comparative_statics_check,
    dmp_stats,
    libm_power,
    solve_planner_numeric,
    synth_panel,
)
from .quarters import parse_quarter, parse_quarters, quarter_label
from .regimes import RegimeTable, Schedule, build_schedule
from .svgfig import scatter_fit_svg, timeseries_svg


def _round_floats(obj):
    if isinstance(obj, float):
        return float(f"{obj:.10g}")
    if isinstance(obj, dict):
        return {k: _round_floats(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_round_floats(v) for v in obj]
    return obj


def _made(path: Path) -> Path:
    """path, once its directory exists: a command makes no directory before it writes its first file."""
    path.parent.mkdir(parents=True, exist_ok=True)
    return path


def _write_json(path: Path, payload: dict) -> None:
    _made(path).write_text(json.dumps(_round_floats(payload), sort_keys=True, indent=2) + "\n", encoding="utf-8")


def _fit_figure(label: str) -> str:
    """The file name of a regime's fit figure; ConfigError when a file name cannot hold the label."""
    if set(label) & {"\x00", "/", os.sep}:
        raise ConfigError(f"regime {label!r}: a figure file name cannot hold a path separator or NUL")
    try:
        os.fsencode(label)
    except UnicodeEncodeError:
        encoding = sys.getfilesystemencoding()
        raise ConfigError(f"regime {label!r}: the file system encoding {encoding} cannot name its figure") from None
    return f"fit_{label}.svg"


def _read_summary(path: Path) -> dict:
    """The sections of an existing summary.json, or none when there is no such file."""
    if not path.is_file():
        return {}
    try:
        summary = json.loads(read_text(path))
    except ValueError as exc:
        raise ConfigError(f"{path} is not valid JSON: {exc}") from None
    if not isinstance(summary, dict):
        raise ConfigError(f"{path} is not a JSON object")
    return summary


def _update_summary(out_dir: Path, summary: dict, section: str, payload: dict) -> None:
    summary[section] = payload
    _write_json(out_dir / "summary.json", summary)


def _recession_bands(path: Path | None, quarters: np.ndarray) -> list[tuple[int, int]]:
    """(first, last) panel indices covered by each recession, for figure shading."""
    if path is None:
        return []
    faults = FirstFault()
    linenos, (first, last) = parse_table(read_text(path), ("start", "end"), "recessions", faults)
    starts = parse_quarters(first, linenos, "recessions", faults)
    ends = parse_quarters(last, linenos, "recessions", faults)
    faults.check(ends < starts, lambda i: ConfigError(f"recessions line {linenos[i]}: ends before it starts"))
    faults.raise_first()
    lo = np.searchsorted(quarters, starts, side="left")
    hi = np.searchsorted(quarters, ends, side="right")
    shown = lo < hi
    return sorted(zip(lo[shown].tolist(), (hi[shown] - 1).tolist()))


class Run:
    """The artifacts of one invocation, each built on first use and then kept."""

    def __init__(self, cfg: RunConfig):
        self.cfg = cfg

    @cached_property
    def ingested(self) -> tuple[LaborMarketPanel, dict]:
        """The aligned panel and the audit of dropped quarters and the splice."""
        cfg = self.cfg
        series = {}
        for name, path in (("u", cfg.u_series), ("v_pre", cfg.v_pre), ("v_post", cfg.v_post)):
            series[name] = to_quarterly(parse_series_csv(read_text(path), cfg.unit))
        (u_q, _), (pre_q, _), (post_q, _) = series.values()
        v_q = splice_vacancy(pre_q, post_q, cfg.cutover)
        pre_val, post_val = splice_jump(pre_q, post_q, cfg.cutover)
        audit = {
            "dropped": {
                name: [f"{quarter_label(q)} ({n} months)" for q, n in dropped]
                for name, (_, dropped) in series.items()
            },
            "splice": {
                "cutover": quarter_label(cfg.cutover),
                "last_pre_value": pre_val,
                "first_post_value": post_val,
                "relative_jump": post_val / pre_val - 1.0,
            },
        }
        return build_panel(u_q, v_q), audit

    @property
    def panel(self) -> LaborMarketPanel:
        return self.ingested[0]

    @cached_property
    def summary(self) -> dict:
        """The sections of the output directory's summary.json, which ingest, gap and sensitivity add to.

        Each of them reads it before it writes anything, so a bad file
        stops the command with no artifact written.
        """
        return _read_summary(Path(self.cfg.out_dir) / "summary.json")

    @cached_property
    def table(self) -> RegimeTable:
        return RegimeTable.from_file(self.cfg.regimes)

    @cached_property
    def fits(self) -> tuple[list[ElasticityEstimate], list[tuple[str, InputError]]]:
        return fit_all(self.panel, self.table)

    @cached_property
    def schedule(self) -> Schedule:
        estimates, failures = self.fits
        if failures:
            label, exc = failures[0]
            raise type(exc)(f"regime {label!r}: {exc}")
        kappa, _zeta = self.calibration
        return build_schedule(self.table, estimates, self.panel.quarters, kappa, self.kappa_overrides)

    @cached_property
    def calibration(self) -> tuple[float, float]:
        """(kappa, zeta): config values where set, else the calibration profile's."""
        profile = CalibrationProfile.from_file(self.cfg.calibration)
        kappa = self.cfg.kappa if self.cfg.kappa is not None else profile.kappa()
        zeta = self.cfg.zeta if self.cfg.zeta is not None else profile.zeta
        return kappa, zeta

    @cached_property
    def kappa_overrides(self) -> dict[str, float]:
        """Per-regime recruiting-cost overrides for robustness runs, from the kappa file."""
        if self.cfg.kappa_file is None:
            return {}
        faults = FirstFault()
        text = read_text(self.cfg.kappa_file)
        linenos, (labels, raw) = parse_table(text, ("regime", "kappa"), "kappa file", faults)
        values = parse_floats(
            raw, faults, lambda i: ParseError(f"kappa file line {linenos[i]}: bad kappa {raw[i]!r}")
        )
        known = {regime.label for regime in self.table}
        faults.check(
            [label not in known for label in labels],
            lambda i: ConfigError(f"kappa file line {linenos[i]}: unknown regime {labels[i]!r}"),
        )
        first: dict[str, int] = {}
        faults.check(
            [first.setdefault(label, i) != i for i, label in enumerate(labels)],
            lambda i: ConfigError(f"kappa file line {linenos[i]}: regime {labels[i]!r} is listed twice"),
        )
        faults.check(
            ~((0.0 < values) & (values < math.inf)),
            lambda i: ConfigError(f"kappa file line {linenos[i]}: kappa must be positive and finite"),
        )
        faults.raise_first()
        return dict(zip(labels, values.tolist()))

    @cached_property
    def axis(self) -> tuple[list[int], list[str], list[tuple[int, int]]]:
        """Decade tick positions, their labels and the recession bands of the panel."""
        quarters = self.panel.quarters
        # the first quarter of each decade: 4 * year with year a multiple of 10
        ticks = np.flatnonzero(quarters % 40 == 0)
        labels = [str(q // 4) for q in quarters[ticks].tolist()]
        return ticks.tolist(), labels, _recession_bands(self.cfg.recessions, quarters)

    def timeseries(self, title: str, series: list) -> str:
        """A time-series figure over the panel quarters, of rates given as fractions."""
        ticks, labels, bands = self.axis
        percent = [(label, 100.0 * rates) for label, rates in series]
        return timeseries_svg(title, ticks, labels, len(self.panel), percent, bands=bands)


def cmd_ingest(run: Run) -> int:
    out = Path(run.cfg.out_dir)
    summary = run.summary
    panel, audit = run.ingested
    svg = run.timeseries(  # first: it reads the recessions file, which must fail before any output
        "Unemployment and vacancy rates",
        [("unemployment", panel.u), ("vacancies", panel.v)],
    )
    with open(_made(out / "panel.csv"), "w", encoding="utf-8") as fh:
        panel.to_csv(fh)
    for series, dropped in audit["dropped"].items():
        for item in dropped:
            print(f"dropped incomplete quarter in {series}: {item}")
    splice = audit["splice"]
    print(
        "splice audit at {cut}: last pre={pre:.6g}, first post={post:.6g}, jump={jump:+.2%}".format(
            cut=splice["cutover"],
            pre=splice["last_pre_value"],
            post=splice["first_post_value"],
            jump=splice["relative_jump"],
        )
    )
    _made(out / "figures" / "rates_timeseries.svg").write_text(svg, encoding="utf-8")
    _update_summary(out, summary, "ingest", {"n_quarters": len(panel), "splice": splice})
    first, last = quarter_label(panel.quarters[0]), quarter_label(panel.quarters[-1])
    print(f"panel: {len(panel)} quarters {first}..{last} -> {out / 'panel.csv'}")
    return 0


def cmd_fit(run: Run) -> int:
    estimates, failures = run.fits
    labels = {e.label for e in estimates}
    fitted = RegimeTable(tuple(r for r in run.table if r.label in labels))
    names = [_fit_figure(regime.label) for regime in fitted]  # checked before anything is written
    out = Path(run.cfg.out_dir)
    with open(_made(out / "estimates.csv"), "w", encoding="utf-8") as fh:
        write_estimates_csv(estimates, fitted, fh)
    for regime, est, name in zip(fitted, estimates, names):
        sub = run.panel.between(regime.start, regime.end)
        svg = scatter_fit_svg(
            f"Beveridge curve {regime.label}",
            [math.log(u) for u in sub.u.tolist()],
            [math.log(v) for v in sub.v.tolist()],
            slope=-est.epsilon,
            intercept=est.log_v0,
        )
        _made(out / "figures" / name).write_text(svg, encoding="utf-8")
        print(
            f"{regime.label}: epsilon={est.epsilon:.4f} se={est.se_epsilon:.4f} "
            f"r2={est.r_squared:.4f} n={est.n_obs}"
        )
    for label, exc in failures:
        print(f"regime {label!r} failed to fit: {exc}", file=sys.stderr)
    print(f"estimates -> {out / 'estimates.csv'}")
    return 2 if failures else 0


def cmd_gap(run: Run) -> int:
    cfg = run.cfg
    out = Path(cfg.out_dir)
    summary = run.summary
    schedule = run.schedule
    kappa, zeta = run.calibration
    panel = run.panel
    series = gap_mod.gap_series(panel, schedule, zeta, tol=cfg.tolerance)
    svg = run.timeseries(
        "Actual and efficient unemployment rate",
        [("unemployment", panel.u), ("efficient rate", series.u_star)],
    )
    with open(_made(out / "gap.csv"), "w", encoding="utf-8") as fh:
        gap_mod.write_gap_csv(panel, series, fh)

    summary_all = gap_mod.summarize(panel, series, exclude_gap_quarters=False)
    summary_core = gap_mod.summarize(panel, series, exclude_gap_quarters=True)
    payload = {
        "kappa": kappa,
        "kappa_overrides": run.kappa_overrides,
        "zeta": zeta,
        "n_gap_quarters": int(series.is_gap_quarter.sum()),
        "n_out_of_range": int(series.u_star_out_of_range.sum()),
        "all_quarters": asdict(summary_all),
        "excluding_gap_quarters": asdict(summary_core),
    }
    _update_summary(out, summary, "gap", payload)
    _made(out / "figures" / "gap_unemployment.svg").write_text(svg, encoding="utf-8")

    shown = summary_core if cfg.exclude_gap_quarters else summary_all
    print(
        "gap summary ({}): mean u={:.2%} mean u*={:.2%} mean gap={:.2f}pp "
        "max gap={:.2f}pp at {}".format(
            "excluding gap quarters" if cfg.exclude_gap_quarters else "all quarters",
            shown.mean_u,
            shown.mean_u_star,
            100.0 * shown.mean_gap,
            100.0 * shown.max_gap,
            shown.max_gap_quarter,
        )
    )
    print(f"gap series -> {out / 'gap.csv'}")
    return 0


def cmd_sensitivity(run: Run) -> int:
    cfg = run.cfg
    out = Path(cfg.out_dir)
    summary = run.summary
    panel, schedule = run.panel, run.schedule
    band = gap_mod.sensitivity(panel, schedule, cfg.zeta_list)
    series = [("unemployment", panel.u)]
    series += [(f"u* (zeta={z:g})", band.u_star[z]) for z in band.zetas]
    svg = run.timeseries(
        "Efficient unemployment under alternative social values of nonwork", series
    )
    with open(_made(out / "sensitivity.csv"), "w", encoding="utf-8") as fh:
        gap_mod.write_sensitivity_csv(band, panel, fh)

    tag = gap_mod.zeta_tag
    payload = {
        "zetas": list(band.zetas),
        "baseline_zeta": gap_mod.BASELINE_ZETA,
        "mean_u_star": {tag(z): float(band.u_star[z].mean()) for z in band.zetas},
        "mean_shift_vs_baseline": {tag(z): band.mean_shift[z] for z in band.zetas},
        "min_u_star": {tag(z): float(band.u_star[z].min()) for z in band.zetas},
        "width_pair": list(gap_mod.WIDTH_PAIR),
        "mean_width": band.mean_width,
    }
    _made(out / "figures" / "sensitivity.svg").write_text(svg, encoding="utf-8")

    if cfg.implied_zeta:
        zeta_star = gap_mod.implied_zeta_series(panel, schedule)
        with open(_made(out / "implied_zeta.csv"), "w", encoding="utf-8") as fh:
            gap_mod.write_implied_zeta_csv(panel, schedule, zeta_star, fh)
        lo, hi = int(zeta_star.argmin()), int(zeta_star.argmax())
        payload["implied_zeta"] = {
            "min": float(zeta_star[lo]),
            "min_quarter": quarter_label(panel.quarters[lo]),
            "max": float(zeta_star[hi]),
            "max_quarter": quarter_label(panel.quarters[hi]),
        }
        print(f"implied zeta series -> {out / 'implied_zeta.csv'}")

    _update_summary(out, summary, "sensitivity", payload)
    print(
        "sensitivity: mean width between zeta={:g} and {:g} is {:.2f}pp".format(
            *gap_mod.WIDTH_PAIR, 100.0 * band.mean_width
        )
    )
    print(f"band -> {out / 'sensitivity.csv'}")
    return 0


def _shock_columns(text: str) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The quarter, s_multiplier and mu_multiplier columns of a shocks table; quarters must increase."""
    faults = FirstFault()
    columns = ("quarter", "s_multiplier", "mu_multiplier")
    linenos, (labels, s, mu) = parse_table(text, columns, "shock", faults)
    quarters = parse_quarters(labels, linenos, "shock", faults)

    def bad_multiplier(i: int) -> ParseError:
        row = ",".join((labels[i], s[i], mu[i]))
        return ParseError(f"shock line {linenos[i]}: bad multiplier in {row!r}")

    s_mult = parse_floats(s, faults, bad_multiplier)
    mu_mult = parse_floats(mu, faults, bad_multiplier)
    faults.check(
        np.diff(quarters, prepend=quarters[:1] - 1) <= 0,
        lambda i: ParseError(
            f"shock line {linenos[i]}: quarters must increase, {labels[i]} follows {labels[i - 1]}"
        ),
    )
    faults.raise_first()
    return quarters, s_mult, mu_mult


def _load_scenario(cfg: RunConfig) -> tuple[DmpEconomy, tuple[np.ndarray, np.ndarray, np.ndarray], float, int]:
    if cfg.scenario is None:
        raise ConfigError("simulate needs a scenario file (simulate.scenario)")
    kv = KeyValues(cfg.scenario, "scenario")
    econ = DmpEconomy(**{f.name: kv.number(f"economy.{f.name}", required=True) for f in fields(DmpEconomy)})
    shocks = _shock_columns(read_text(check_path(kv.path("shocks.path", required=True), "shocks.path")))
    noise = cfg.noise_scale
    if noise is None:
        noise = kv.number("shocks.noise_scale", default="0")
    seed = cfg.seed
    if seed is None and "TOOLKIT_SEED" in os.environ:
        try:
            seed = int(os.environ["TOOLKIT_SEED"])
        except ValueError:
            raise ConfigError(f"TOOLKIT_SEED is not a number: {os.environ['TOOLKIT_SEED']!r}") from None
    if seed is None:
        seed = kv.number("shocks.seed", int, default="0")
    return econ, shocks, noise, seed


def _round_trip_error(panel: LaborMarketPanel, epsilon: float, kappa: float, zeta: float, u_star: float) -> float:
    """The largest relative error of the u* formula over the panel's quarters against the planner's u_star.

    The error is a difference near 1e-10, whose reported digits a last-ulp
    change in the formula's power would move, so the power is libm's, as
    the built-in pow takes it for one quarter at a time.
    """
    with np.errstate(over="ignore"):  # an inf u* is an inf error
        formula = gap_mod._u_star(panel.u, panel.v, epsilon, kappa, zeta, libm_power)
    return float((np.abs(formula - u_star) / u_star).max())


def cmd_simulate(run: Run) -> int:
    econ, shocks, noise, seed = _load_scenario(run.cfg)
    panel = synth_panel(econ, *shocks, noise_scale=noise, seed=seed)
    zeta, kappa = dmp_stats(econ)
    est = fit_elasticity(panel.u, panel.v, label="synthetic")
    planner = solve_planner_numeric(DmpCurve(econ), zeta, kappa)
    max_rel = _round_trip_error(panel, est.epsilon, kappa, zeta, planner.u_star)
    round_trip_tol = 1e-3
    round_trip_checked = noise == 0.0
    round_trip_ok = (not round_trip_checked) or max_rel < round_trip_tol

    statics = comparative_statics_check(
        IsoelasticCurve(math.exp(est.log_v0), est.epsilon), zeta, kappa
    )

    report = {
        "economy": asdict(econ),
        "seed": seed,
        "noise_scale": noise,
        "n_quarters": len(panel),
        "fit": {"epsilon": est.epsilon, "r_squared": est.r_squared, "se": est.se_epsilon},
        "round_trip": {
            "planner_u_star": planner.u_star,
            "max_relative_error": max_rel,
            "tolerance": round_trip_tol,
            "checked": round_trip_checked,
            "passed": round_trip_ok,
        },
        "comparative_statics": [
            {"name": c.name, "passed": c.passed, "details": c.details} for c in statics.checks
        ],
        "all_passed": round_trip_ok and statics.all_passed,
    }
    # written only once every input error has had its chance to stop the run
    out = Path(run.cfg.out_dir)
    with open(_made(out / "synthetic_panel.csv"), "w", encoding="utf-8") as fh:
        panel.to_csv(fh)
    _write_json(out / "simulation_report.json", report)
    print(f"synthetic panel ({len(panel)} quarters) -> {out / 'synthetic_panel.csv'}")
    print(
        "round trip: max |u* error| = {:.3g} (tol {:g}, {})".format(
            max_rel, round_trip_tol, "checked" if round_trip_checked else "not checked, noisy run"
        )
    )
    for check in statics.checks:
        print(f"comparative statics {check.name}: {'pass' if check.passed else 'FAIL'}")
    if not report["all_passed"]:
        failures = [c.name for c in statics.failures()]
        if not round_trip_ok:
            failures.append("round_trip")
        raise PropertyViolation(f"simulation checks failed: {', '.join(failures)}")
    return 0


def _estimate_rows(path: Path) -> list[list[str]]:
    """The header and the regime rows of estimates.csv; ConfigError when it lists no regime."""
    rows = [line.split(",") for line in read_text(path).strip().splitlines()]
    if len(rows) < 2:
        raise ConfigError(f"{path} is {'without a regime row' if rows else 'empty'}; run fit or pass --recompute")
    return rows


def _summary_lines(summary: dict) -> list[str]:
    """The gap and sensitivity sections of the report, from summary.json."""
    gap_sum = summary["gap"]["all_quarters"]
    gap_core = summary["gap"]["excluding_gap_quarters"]
    sens = summary["sensitivity"]

    lines = ["", "## Gap summary", ""]
    lines += [
        f"- calibration: kappa = {summary['gap']['kappa']:.4g}, zeta = {summary['gap']['zeta']:.4g}",
        f"- mean unemployment rate: {100 * gap_sum['mean_u']:.2f}%",
        f"- mean efficient rate: {100 * gap_sum['mean_u_star']:.2f}%",
        f"- mean gap: {100 * gap_sum['mean_gap']:.2f}pp "
        f"({100 * gap_core['mean_gap']:.2f}pp excluding shift quarters)",
        f"- largest gap: {100 * gap_sum['max_gap']:.2f}pp in {gap_sum['max_gap_quarter']}",
        f"- most negative gap: {100 * gap_sum['min_gap']:.2f}pp in {gap_sum['min_gap_quarter']}",
        f"- quarters flagged as curve shifts: {summary['gap']['n_gap_quarters']}",
    ]
    lines += ["", "## Sensitivity to the social value of nonwork", ""]
    for tag, value in sorted(sens["mean_u_star"].items()):
        shift = sens["mean_shift_vs_baseline"][tag]
        lines.append(f"- {tag}: mean u* = {100 * value:.2f}% (shift {100 * shift:+.2f}pp)")
    lines.append(
        f"- mean band width between zeta={sens['width_pair'][0]:g} and "
        f"{sens['width_pair'][1]:g}: {100 * sens['mean_width']:.2f}pp"
    )
    if "implied_zeta" in sens:
        iz = sens["implied_zeta"]
        lines.append(
            f"- implied zeta range: {iz['min']:.2f} ({iz['min_quarter']}) to "
            f"{iz['max']:.2f} ({iz['max_quarter']})"
        )
    return lines


def cmd_report(run: Run, recompute: bool = False) -> int:
    out = Path(run.cfg.out_dir)
    if recompute:
        cmd_ingest(run)
        cmd_fit(run)
        cmd_gap(run)
        cmd_sensitivity(run)

    estimates = out / "estimates.csv"
    rows = _estimate_rows(estimates) if estimates.is_file() else []
    # the report links the fit figure of the last regime estimates.csv lists
    fit_figures = [_fit_figure(row[0]) for row in rows[-1:]]
    required = [
        estimates,
        out / "gap.csv",
        out / "sensitivity.csv",
        out / "summary.json",
        out / "figures" / "rates_timeseries.svg",
        *(out / "figures" / name for name in fit_figures),
        out / "figures" / "gap_unemployment.svg",
        out / "figures" / "sensitivity.svg",
    ]
    missing = [p for p in required if not p.is_file()]
    if missing:
        raise ConfigError(
            "missing artifacts (run ingest/fit/gap/sensitivity or pass --recompute): "
            + ", ".join(str(p) for p in missing)
        )

    path = out / "summary.json"
    try:
        summary_lines = _summary_lines(_read_summary(path))
    except (LookupError, TypeError, ValueError, AttributeError) as exc:
        raise ConfigError(
            f"{path} does not hold the gap and sensitivity results ({type(exc).__name__}: {exc}); "
            "run gap and sensitivity or pass --recompute"
        ) from None

    lines = ["# Unemployment gap report", ""]
    lines += ["## Beveridge-curve estimates", ""]
    lines += ["| " + " | ".join(rows[0]) + " |", "|" + "---|" * len(rows[0])]
    lines += ["| " + " | ".join(row) + " |" for row in rows[1:]]
    lines += summary_lines
    lines += ["", "## Figures", ""]
    lines += [
        "![rates](figures/rates_timeseries.svg)",
        f"![fit](figures/{fit_figures[0]})",
        "![gap](figures/gap_unemployment.svg)",
        "![sensitivity](figures/sensitivity.svg)",
    ]
    lines += ["", "Every figure's underlying numbers are in the CSV exports next to it.", ""]
    (out / "report.md").write_text("\n".join(lines), encoding="utf-8")  # out holds the artifacts
    print(f"report -> {out / 'report.md'}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    # the options every subcommand takes, added once and shared as a parent
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", type=Path, default=None, help="run config (default: bundled)")
    common.add_argument("--out", dest="out_dir", type=Path, default=None, help="output directory")
    common.add_argument("--u-series", type=Path, default=None)
    common.add_argument("--v-pre", type=Path, default=None)
    common.add_argument("--v-post", type=Path, default=None)
    common.add_argument("--cutover", type=str, default=None)
    common.add_argument("--unit", choices=("fraction", "percent"), default=None)
    common.add_argument("--regimes", type=Path, default=None)
    common.add_argument("--recessions", type=Path, default=None)
    common.add_argument("--calibration", type=Path, default=None)
    common.add_argument("--kappa", type=float, default=None)
    common.add_argument("--kappa-file", type=Path, default=None)
    common.add_argument("--zeta", type=float, default=None)
    common.add_argument("--zeta-list", type=str, default=None)
    common.add_argument("--tol", dest="tolerance", type=float, default=None)
    common.add_argument("--exclude-gap-quarters", action="store_true", default=None)
    common.add_argument("--implied-zeta", action="store_true", default=None)
    common.add_argument("--scenario", type=Path, default=None)
    common.add_argument("--seed", type=int, default=None)
    common.add_argument("--noise-scale", type=float, default=None)

    parser = argparse.ArgumentParser(
        prog="ugap",
        description="Beveridge-curve estimation and efficient-unemployment-gap toolkit.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name in ("ingest", "fit", "gap", "sensitivity", "simulate"):
        sub.add_parser(name, parents=[common])
    sub.add_parser("report", parents=[common]).add_argument("--recompute", action="store_true")
    return parser


def _config_from_args(args: argparse.Namespace) -> RunConfig:
    overrides = {f.name: getattr(args, f.name) for f in fields(RunConfig)}
    overrides["cutover"] = parse_quarter(args.cutover) if args.cutover else None
    overrides["zeta_list"] = parse_zeta_list(args.zeta_list) if args.zeta_list else None
    return load_config(args.config, overrides)


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    handlers = {
        "ingest": cmd_ingest,
        "fit": cmd_fit,
        "gap": cmd_gap,
        "sensitivity": cmd_sensitivity,
        "simulate": cmd_simulate,
    }
    try:
        run = Run(_config_from_args(args))
        if args.command == "report":
            return cmd_report(run, recompute=args.recompute)
        return handlers[args.command](run)
    except InputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except PropertyViolation as exc:
        print(f"property violation: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
