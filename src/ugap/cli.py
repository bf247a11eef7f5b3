"""Command-line entry point.

Subcommands: ingest, fit, gap, sensitivity, simulate, report. Each
invocation builds one lazy `Run`, and every command renders from it, so
`report --recompute` parses the series, fits the regimes, builds the
schedule and reads the kappa file once for all four steps. `simulate`
keeps the shock table as columns from the reader through synth_panel to
the round-trip error, which takes its powers through libm, so the
reported digits are those of a quarter-by-quarter loop.

Every input is read through config.read_text and every output file is
written through `Run.write`, the one place ugap writes a file: the
writers return their text, and `Run.write` makes each output directory
once, when the command writes its first file there. Each output is
written once per invocation. ingest, gap and sensitivity only record
their sections of summary.json in the Run, and `main` writes the file
once, at the end of the command, also when a later step fails, so it
holds the section of every step that finished; `report --recompute`
writes it before it reads the sections back for report.md. Exit codes
are a stable contract for scripting: 0 success, 1 a verified property
failed, 2 bad input or configuration. All outputs are deterministic
given the config and inputs, so repeated runs are byte-identical.

At module level this imports only the standard library, config, errors
and quarters; each layer is imported by the command or the Run property
that first needs it. So `report` without --recompute, --help and every
usage or config error start without numpy, and only simulate loads the
planner. Only the program changes process-wide state: `main` with no
argv, as the console script calls it, sets OPENBLAS_NUM_THREADS to 1
unless it is set, so OpenBLAS starts no worker thread that ugap would
leave idle, and turns the cyclic garbage collector off before it parses
the arguments: a run's only cycles are a few hundred objects of argparse
and the JSON encoder, however long its input. As it returns it freezes
the heap, so the collection at exit skips numpy's objects. `main(argv)`
leaves the environment and the collector as it found them.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import os
import sys
from dataclasses import asdict, fields
from functools import cached_property
from importlib import import_module
from pathlib import Path
from typing import TYPE_CHECKING

from .config import (
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
from .errors import FirstFault, InputError, PropertyViolation, quoted
from .quarters import parse_quarter, parse_quarters, quarter_label

if TYPE_CHECKING:
    import numpy as np

    from .fitting import ElasticityEstimate
    from .ingest import LaborMarketPanel
    from .planner import DmpEconomy
    from .regimes import Regime, RegimeTable, Schedule


def _forward(module: str, name: str):
    """A stand-in for ugap.module.name that imports the module on its first call and keeps the function it finds."""
    # these stay bound here for tools that trace the CLI by name, as do parse_kv_text above and
    # solve_planner_numeric, which no command calls; ROADMAP item 2's follow-up retires them
    function = None

    def forward(*args, **kwargs):
        nonlocal function
        if function is None:
            function = getattr(import_module(f".{module}", __package__), name)
        return function(*args, **kwargs)

    return forward


fit_all = _forward("fitting", "fit_all")
fit_elasticity = _forward("fitting", "fit_elasticity")
write_estimates_csv = _forward("fitting", "write_estimates_csv")
parse_series_csv = _forward("ingest", "parse_series_csv")
to_quarterly = _forward("ingest", "to_quarterly")
splice_vacancy = _forward("ingest", "splice_vacancy")
splice_jump = _forward("ingest", "splice_jump")
build_panel = _forward("ingest", "build_panel")
comparative_statics_check = _forward("planner", "comparative_statics_check")
dmp_stats = _forward("planner", "dmp_stats")
solve_planner_numeric = _forward("planner", "solve_planner_numeric")
synth_panel = _forward("planner", "synth_panel")
build_schedule = _forward("regimes", "build_schedule")
scatter_fit_svg = _forward("svgfig", "scatter_fit_svg")
timeseries_svg = _forward("svgfig", "timeseries_svg")


def _round_floats(obj):
    if isinstance(obj, float):
        return float(f"{obj:.10g}")
    if isinstance(obj, dict):
        return {k: _round_floats(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_round_floats(v) for v in obj]
    return obj


def _json_text(payload: dict) -> str:
    return json.dumps(_round_floats(payload), sort_keys=True, indent=2) + "\n"


def _fit_figure(label: str) -> str:
    """The file name of a regime's fit figure; InputError when a file name cannot hold the label."""
    if set(label) & {"\x00", "/", os.sep}:
        raise InputError(f"regime {label!r}: a figure file name cannot hold a path separator or NUL")
    try:
        os.fsencode(label)
    except UnicodeEncodeError:
        encoding = sys.getfilesystemencoding()
        raise InputError(f"regime {label!r}: the file system encoding {encoding} cannot name its figure") from None
    return f"fit_{label}.svg"


def _nesting(obj) -> int:
    """How many dicts and lists deep obj nests, counted level by level rather than by recursion."""
    depth, level = 0, [obj]
    while level := [o for o in level if isinstance(o, (dict, list))]:
        depth += 1
        level = [v for o in level for v in (o.values() if isinstance(o, dict) else o)]
    return depth


def _read_summary(path: Path) -> dict:
    """The sections of an existing summary.json, or none when there is no such file."""
    if not path.is_file():
        return {}
    try:
        summary = json.loads(read_text(path))
    except (ValueError, RecursionError) as exc:  # RecursionError: nested deeper than the decoder recurses
        raise InputError(f"{path} is not valid JSON: {exc}") from None
    if not isinstance(summary, dict):
        raise InputError(f"{path} is not a JSON object")
    if _nesting(summary) > 100:  # ugap's own sections nest 3 deep; writing it back recurses once or twice a level
        raise InputError(f"{path} nests deeper than 100 levels")
    return summary


def _recession_bands(path: Path | None, quarters: np.ndarray) -> list[tuple[int, int]]:
    """(first, last) panel indices covered by each recession, for figure shading."""
    if path is None:
        return []
    import numpy as np

    faults = FirstFault()
    linenos, (first, last) = parse_table(read_text(path), ("start", "end"), "recessions", faults)
    starts = parse_quarters(first, linenos, "recessions", faults)
    ends = parse_quarters(last, linenos, "recessions", faults)
    faults.check(ends < starts, lambda i: InputError(f"recessions line {linenos[i]}: ends before it starts"))
    faults.raise_first()
    lo = np.searchsorted(quarters, starts, side="left")
    hi = np.searchsorted(quarters, ends, side="right")
    shown = lo < hi
    return sorted(zip(lo[shown].tolist(), (hi[shown] - 1).tolist()))


class Run:
    """The artifacts of one invocation, each built on first use and then kept; `write` writes every output file."""

    def __init__(self, cfg: RunConfig):
        self.cfg = cfg
        self._made_dirs: set[Path] = set()
        self._summary_pending = False

    def write(self, name: str, text: str) -> Path:
        """Write text as UTF-8 to out_dir/name, making each directory once per run; the path written."""
        path = Path(self.cfg.out_dir) / name
        if path.parent not in self._made_dirs:
            path.parent.mkdir(parents=True, exist_ok=True)
            self._made_dirs.add(path.parent)
        path.write_text(text, encoding="utf-8")
        return path

    @cached_property
    def ingested(self) -> tuple[LaborMarketPanel, dict]:
        """The aligned panel and the audit of dropped quarters and the splice."""
        cfg = self.cfg
        series = {}
        for name, path in (("u", cfg.u_series), ("v_pre", cfg.v_pre), ("v_post", cfg.v_post)):
            text = read_text(path)  # names the path in its own error
            try:
                months = parse_series_csv(text, cfg.unit)
            except InputError as exc:
                raise InputError(f"{path}: {exc}") from None
            quarterly, _ = series[name] = to_quarterly(months)
            if not len(quarterly):
                raise InputError(f"{path}: series has no complete quarter")
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
        stops the command with no artifact written. A step only records
        its section here; the command writes the file once, at its end
        (`write_summary`), with the section of every step that finished,
        also when a later step fails.
        """
        return _read_summary(Path(self.cfg.out_dir) / "summary.json")

    def update_summary(self, section: str, payload: dict) -> None:
        self.summary[section] = payload
        self._summary_pending = True

    def write_summary(self) -> None:
        """Write summary.json if a step recorded a section since it was last written."""
        if self._summary_pending:
            self.write("summary.json", _json_text(self.summary))
            self._summary_pending = False

    @cached_property
    def table(self) -> RegimeTable:
        from .regimes import RegimeTable

        return RegimeTable.from_file(self.cfg.regimes)

    @cached_property
    def fits(self) -> tuple[list[tuple[Regime, ElasticityEstimate]], list[tuple[str, InputError]]]:
        return fit_all(self.panel, self.table)

    @cached_property
    def schedule(self) -> Schedule:
        fits, failures = self.fits
        if failures:
            label, exc = failures[0]
            raise InputError(f"regime {label!r}: {exc}")
        kappa, _zeta = self.calibration
        return build_schedule(fits, self.panel.quarters, kappa, self.kappa_overrides)

    @cached_property
    def calibration(self) -> tuple[float, float]:
        """(kappa, zeta): config values where set, else the calibration profile's."""
        from .calibration import CalibrationProfile

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
            raw, faults, lambda i: InputError(f"kappa file line {linenos[i]}: bad kappa {quoted(raw[i])}")
        )
        known = {regime.label for regime in self.table}
        faults.check(
            [label not in known for label in labels],
            lambda i: InputError(f"kappa file line {linenos[i]}: unknown regime {quoted(labels[i])}"),
        )
        first: dict[str, int] = {}
        faults.check(
            [first.setdefault(label, i) != i for i, label in enumerate(labels)],
            lambda i: InputError(f"kappa file line {linenos[i]}: regime {quoted(labels[i])} is listed twice"),
        )
        faults.check(
            ~((0.0 < values) & (values < math.inf)),
            lambda i: InputError(f"kappa file line {linenos[i]}: kappa must be positive and finite"),
        )
        faults.raise_first()
        return dict(zip(labels, values.tolist()))

    @cached_property
    def axis(self) -> tuple[list[int], list[str], list[tuple[int, int]]]:
        """Decade tick positions, their labels and the recession bands of the panel."""
        import numpy as np

        quarters = self.panel.quarters
        # the first quarter of each decade: 4 * year with year a multiple of 10
        ticks = np.flatnonzero(quarters % 40 == 0)
        labels = [str(q // 4) for q in quarters[ticks].tolist()]
        return ticks.tolist(), labels, _recession_bands(self.cfg.recessions, quarters)

    def timeseries(self, title: str, series: list) -> str:
        """A time-series figure over the panel quarters, of rates given as fractions."""
        ticks, labels, bands = self.axis
        percent = [(label, 100.0 * rates) for label, rates in series]
        return timeseries_svg(title, ticks, labels, percent, bands=bands)


def cmd_ingest(run: Run) -> int:
    run.summary  # read first: a bad summary.json stops the command before it writes
    panel, audit = run.ingested
    svg = run.timeseries(  # first: it reads the recessions file, which must fail before any output
        "Unemployment and vacancy rates",
        [("unemployment", panel.u), ("vacancies", panel.v)],
    )
    csv = run.write("panel.csv", panel.to_csv())
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
    run.write("figures/rates_timeseries.svg", svg)
    run.update_summary("ingest", {"n_quarters": len(panel), "splice": splice})
    first, last = quarter_label(panel.quarters[0]), quarter_label(panel.quarters[-1])
    print(f"panel: {len(panel)} quarters {first}..{last} -> {csv}")
    return 0


def cmd_fit(run: Run) -> int:
    fits, failures = run.fits
    names = [_fit_figure(regime.label) for regime, _est in fits]  # checked before anything is written
    csv = run.write("estimates.csv", write_estimates_csv(fits))
    for (regime, est), name in zip(fits, names):
        sub = run.panel.between(regime.start, regime.end)
        svg = scatter_fit_svg(
            f"Beveridge curve {regime.label}",
            [math.log(u) for u in sub.u.tolist()],
            [math.log(v) for v in sub.v.tolist()],
            slope=-est.epsilon,
            intercept=est.log_v0,
        )
        run.write(f"figures/{name}", svg)
        print(
            f"{regime.label}: epsilon={est.epsilon:.4f} se={est.se_epsilon:.4f} "
            f"r2={est.r_squared:.4f} n={est.n_obs}"
        )
    for label, exc in failures:
        print(f"regime {label!r} failed to fit: {exc}", file=sys.stderr)
    print(f"estimates -> {csv}")
    return 2 if failures else 0


def cmd_gap(run: Run) -> int:
    from . import gap as gap_mod

    cfg = run.cfg
    run.summary  # read first: a bad summary.json stops the command before it writes
    schedule = run.schedule
    kappa, zeta = run.calibration
    panel = run.panel
    series = gap_mod.gap_series(panel, schedule, zeta, tol=cfg.tolerance)
    svg = run.timeseries(
        "Actual and efficient unemployment rate",
        [("unemployment", panel.u), ("efficient rate", series.u_star)],
    )
    csv = run.write("gap.csv", gap_mod.write_gap_csv(panel, schedule, series))

    payload = {"kappa": kappa, "kappa_overrides": run.kappa_overrides, "zeta": zeta}
    payload.update(gap_mod.summarize(panel, schedule, series))
    run.update_summary("gap", payload)
    run.write("figures/gap_unemployment.svg", svg)

    subset = "excluding_gap_quarters" if cfg.exclude_gap_quarters else "all_quarters"
    shown = payload[subset]
    print(
        "gap summary ({}): mean u={:.2%} mean u*={:.2%} mean gap={:.2f}pp "
        "max gap={:.2f}pp at {}".format(
            subset.replace("_", " "),
            shown["mean_u"],
            shown["mean_u_star"],
            100.0 * shown["mean_gap"],
            100.0 * shown["max_gap"],
            shown["max_gap_quarter"],
        )
    )
    print(f"gap series -> {csv}")
    return 0


def cmd_sensitivity(run: Run) -> int:
    from . import gap as gap_mod

    cfg = run.cfg
    run.summary  # read first: a bad summary.json stops the command before it writes
    panel, schedule = run.panel, run.schedule
    pairs, payload = gap_mod.sensitivity(panel, schedule, cfg.zeta_list)
    series = [("unemployment", panel.u)]
    series += [(f"u* (zeta={z:g})", u_star) for z, u_star in pairs]
    svg = run.timeseries(
        "Efficient unemployment under alternative social values of nonwork", series
    )
    csv = run.write("sensitivity.csv", gap_mod.write_sensitivity_csv(pairs, panel))
    run.write("figures/sensitivity.svg", svg)

    if cfg.implied_zeta:
        zeta_star = gap_mod.implied_zeta_series(panel, schedule)
        zeta_csv = run.write("implied_zeta.csv", gap_mod.write_implied_zeta_csv(panel, schedule, zeta_star))
        lo, hi = int(zeta_star.argmin()), int(zeta_star.argmax())
        payload["implied_zeta"] = {
            "min": float(zeta_star[lo]),
            "min_quarter": quarter_label(panel.quarters[lo]),
            "max": float(zeta_star[hi]),
            "max_quarter": quarter_label(panel.quarters[hi]),
        }
        print(f"implied zeta series -> {zeta_csv}")

    run.update_summary("sensitivity", payload)
    (zeta_a, zeta_b), width = payload["width_pair"], 100.0 * payload["mean_width"]
    print(f"sensitivity: mean width between zeta={zeta_a:g} and {zeta_b:g} is {width:.2f}pp")
    print(f"band -> {csv}")
    return 0


def _shock_columns(text: str) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The quarter, s_multiplier and mu_multiplier columns of a shocks table; quarters must increase."""
    import numpy as np

    faults = FirstFault()
    columns = ("quarter", "s_multiplier", "mu_multiplier")
    linenos, (labels, s, mu) = parse_table(text, columns, "shock", faults)
    quarters = parse_quarters(labels, linenos, "shock", faults)

    def bad_multiplier(i: int) -> InputError:
        row = ",".join((labels[i], s[i], mu[i]))
        return InputError(f"shock line {linenos[i]}: bad multiplier in {quoted(row)}")

    s_mult = parse_floats(s, faults, bad_multiplier)
    mu_mult = parse_floats(mu, faults, bad_multiplier)
    faults.check(
        np.diff(quarters, prepend=quarters[:1] - 1) <= 0,
        lambda i: InputError(
            f"shock line {linenos[i]}: quarters must increase, {labels[i]} follows {labels[i - 1]}"
        ),
    )
    faults.raise_first()
    return quarters, s_mult, mu_mult


def _load_scenario(cfg: RunConfig) -> tuple[DmpEconomy, tuple[np.ndarray, np.ndarray, np.ndarray], float, int]:
    if cfg.scenario is None:
        raise InputError("simulate needs a scenario file (simulate.scenario)")
    from .planner import DmpEconomy

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
            raise InputError(f"TOOLKIT_SEED is not a number: {os.environ['TOOLKIT_SEED']!r}") from None
    if seed is None:
        seed = kv.number("shocks.seed", int, default="0")
    return econ, shocks, noise, seed


def _round_trip_error(panel: LaborMarketPanel, epsilon: float, kappa: float, zeta: float, u_star: float) -> float:
    """The largest relative error of the u* formula over the panel's quarters against the planner's u_star.

    The error is a difference near 1e-10, whose reported digits a last-ulp
    change in the formula's power would move, so the power is libm's, as
    the built-in pow takes it for one quarter at a time.
    """
    import numpy as np

    from .gap import _u_star
    from .planner import libm_power

    with np.errstate(over="ignore"):  # an inf u* is an inf error
        formula = _u_star(panel.u, panel.v, epsilon, kappa, zeta, libm_power)
    return float((np.abs(formula - u_star) / u_star).max())


def cmd_simulate(run: Run) -> int:
    from .planner import IsoelasticCurve

    econ, shocks, noise, seed = _load_scenario(run.cfg)
    panel, optimum = synth_panel(econ, *shocks, noise_scale=noise, seed=seed)
    zeta, kappa = dmp_stats(econ)
    est = fit_elasticity(panel.u, panel.v, label="synthetic")
    max_rel = _round_trip_error(panel, est.epsilon, kappa, zeta, optimum.u_star)
    round_trip_tol = 1e-3
    round_trip_checked = noise == 0.0
    round_trip_ok = (not round_trip_checked) or max_rel < round_trip_tol

    statics = comparative_statics_check(IsoelasticCurve(math.exp(est.log_v0), est.epsilon), zeta, kappa)
    failures = [c["name"] for c in statics if not c["passed"]] + ([] if round_trip_ok else ["round_trip"])

    report = {
        "economy": asdict(econ),
        "seed": seed,
        "noise_scale": noise,
        "n_quarters": len(panel),
        "fit": {"epsilon": est.epsilon, "r_squared": est.r_squared, "se": est.se_epsilon},
        "round_trip": {
            "planner_u_star": optimum.u_star,
            "max_relative_error": max_rel,
            "tolerance": round_trip_tol,
            "checked": round_trip_checked,
            "passed": round_trip_ok,
        },
        "comparative_statics": statics,
        "all_passed": not failures,
    }
    # written only once every input error has had its chance to stop the run
    csv = run.write("synthetic_panel.csv", panel.to_csv())
    run.write("simulation_report.json", _json_text(report))
    print(f"synthetic panel ({len(panel)} quarters) -> {csv}")
    print(
        "round trip: max |u* error| = {:.3g} (tol {:g}, {})".format(
            max_rel, round_trip_tol, "checked" if round_trip_checked else "not checked, noisy run"
        )
    )
    for check in statics:
        print(f"comparative statics {check['name']}: {'pass' if check['passed'] else 'FAIL'}")
    if failures:
        raise PropertyViolation(f"simulation checks failed: {', '.join(failures)}")
    return 0


def _estimate_rows(path: Path) -> list[list[str]]:
    """The header and the regime rows of estimates.csv; InputError for a malformed row or when it lists no regime."""
    header = ["regime", "start", "end", "epsilon", "se", "log_v0", "r2", "n_obs"]  # as fitting writes it
    text, faults = read_text(path), FirstFault()
    _linenos, columns = parse_table(text, header, str(path), faults)
    faults.raise_first()
    if not columns[0]:
        raise InputError(f"{path} is {'without a regime row' if text.strip() else 'empty'}; run fit or pass --recompute")
    return [header, *map(list, zip(*columns))]


def _summary_lines(summary: dict) -> list[str]:
    """The gap and sensitivity sections of the report, from summary.json."""

    def pct(value) -> float:
        if not isinstance(value, (int, float)):  # checked first: 100 times a str or list is a copy 100 times its size
            raise TypeError(f"expected a number, got {type(value).__name__}")
        return 100 * value

    gap_sum = summary["gap"]["all_quarters"]
    gap_core = summary["gap"]["excluding_gap_quarters"]
    sens = summary["sensitivity"]

    lines = ["", "## Gap summary", ""]
    lines += [
        f"- calibration: kappa = {summary['gap']['kappa']:.4g}, zeta = {summary['gap']['zeta']:.4g}",
        f"- mean unemployment rate: {pct(gap_sum['mean_u']):.2f}%",
        f"- mean efficient rate: {pct(gap_sum['mean_u_star']):.2f}%",
        f"- mean gap: {pct(gap_sum['mean_gap']):.2f}pp "
        f"({pct(gap_core['mean_gap']):.2f}pp excluding shift quarters)",
        f"- largest gap: {pct(gap_sum['max_gap']):.2f}pp in {gap_sum['max_gap_quarter']}",
        f"- most negative gap: {pct(gap_sum['min_gap']):.2f}pp in {gap_sum['min_gap_quarter']}",
        f"- quarters flagged as curve shifts: {summary['gap']['n_gap_quarters']}",
    ]
    lines += ["", "## Sensitivity to the social value of nonwork", ""]
    for tag, value in sorted(sens["mean_u_star"].items()):
        shift = sens["mean_shift_vs_baseline"][tag]
        lines.append(f"- {tag}: mean u* = {pct(value):.2f}% (shift {pct(shift):+.2f}pp)")
    lines.append(
        f"- mean band width between zeta={sens['width_pair'][0]:g} and "
        f"{sens['width_pair'][1]:g}: {pct(sens['mean_width']):.2f}pp"
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
        run.write_summary()  # the sections report.md reads back

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
        raise InputError(
            "missing artifacts (run ingest/fit/gap/sensitivity or pass --recompute): "
            + ", ".join(str(p) for p in missing)
        )

    path = out / "summary.json"
    try:
        summary_lines = _summary_lines(_read_summary(path))
        "".join(summary_lines).encode("utf-8")  # UnicodeEncodeError for a lone surrogate the JSON escapes
    except (LookupError, TypeError, ValueError, AttributeError, OverflowError) as exc:
        detail = str(exc)  # clipped as an input field is, when it is long
        raise InputError(
            f"{path} does not hold the gap and sensitivity results "
            f"({type(exc).__name__}: {detail if len(detail) <= 40 else quoted(detail)}); "
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
    report = run.write("report.md", "\n".join(lines))
    print(f"report -> {report}")
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
    """The exit code of the command in argv; with no argv, of the program's, from sys.argv (see the module docstring)."""
    if argv is None:
        # the idle OpenBLAS thread would cost a fresh process about 70 ms, the
        # collector's passes during the command and at exit about 30 ms
        os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
        gc.disable()
        try:
            return main(sys.argv[1:])
        finally:
            gc.freeze()
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
        try:
            if args.command == "report":
                return cmd_report(run, recompute=args.recompute)
            return handlers[args.command](run)
        finally:
            run.write_summary()
    except (InputError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except PropertyViolation as exc:
        print(f"property violation: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
