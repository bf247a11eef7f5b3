"""The three workloads: inputs, fresh-process commands, in-process calls, checks.

bundled       shipped 1951-2019 data. Fresh-process `ugap <cmd>` for the six
              subcommands in order, and in-process `report --recompute`.
              Import, parsing and SVG writing dominate; the quadratic scans
              and the planner do almost nothing.
long-history  a seeded synthetic history of LONG_QUARTERS quarters at the
              bundled regime and recession density: the same fresh-process
              cycle (less simulate) and in-process `report --recompute`, with
              --implied-zeta and a 12-value zeta list. The O(quarters x
              regimes) and O(quarters x bands) scans and the per-row Python
              dominate.
verify        `oracle_grid_check` over a seeded product grid plus `simulate` on
              a long seeded shock path, in-process; `ugap simulate` fresh.
              The planner dominates; ingest, regimes and svgfig are untouched.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import checker
import inputs

LONG_QUARTERS = 1200
VERIFY_AXIS = 8  # 8**4 = 4096 grid points
VERIFY_PATH = 8000
TINY = {"long": 160, "axis": 3, "path": 200}

CYCLE = ("ingest", "fit", "gap", "sensitivity", "simulate", "report")


@dataclass
class Op:
    """Outcome of one operation: wall time and the problems found."""

    kind: str
    seconds: float
    problems: list[str]
    parts: dict = field(default_factory=dict)
    label: str = ""


def _fresh(argv: list[str], env: dict) -> tuple[float, int, str]:
    """Run `ugap <argv>` as the console script would, in a fresh interpreter."""
    cmd = [sys.executable, "-c", "import sys; from ugap.cli import main; sys.exit(main())", *argv]
    t0 = time.perf_counter()
    proc = subprocess.run(cmd, env=env, capture_output=True, text=True, timeout=170)
    return time.perf_counter() - t0, proc.returncode, proc.stderr


def _inprocess(main, argv: list[str]) -> tuple[float, int, str]:
    err = io.StringIO()
    t0 = time.perf_counter()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        rc = main(argv)
    return time.perf_counter() - t0, rc, err.getvalue()


class Workload:
    """Runs and checks operations; subclasses set inputs, argv and checks."""

    def __init__(self, root: Path, work: Path, seed: int, tiny: bool):
        self.src = root / "src"
        self.bundled = self.src / "ugap" / "data"
        self.work = work
        self.seed = seed
        self.tiny = tiny
        self.env = {k: v for k, v in os.environ.items() if k != "TOOLKIT_SEED"}
        self.env["PYTHONPATH"] = str(self.src)
        self.sizes: dict = {}
        self.n_cli = 0
        self._digests: dict[str, dict[str, str]] = {}

    # -- hooks -------------------------------------------------------------
    def generate(self, inp: Path) -> dict:
        return {}

    def cli_argv(self, i: int, out: Path) -> list[str]:
        raise NotImplementedError

    def call(self, out: Path) -> Op:
        raise NotImplementedError

    def check_cli(self, i: int, out: Path) -> list[str]:
        return []

    # -- running operations --------------------------------------------------
    def setup(self, tag: str) -> None:
        self.inp = self.work / tag / "in"
        self.out_cli = self.work / tag / "out_cli"
        self.out_call = self.work / tag / "out_call"
        self.sizes = self.generate(self.inp)
        self.n_cli = 0
        self._digests = {}

    def run_cli(self) -> Op:
        i = self.n_cli
        self.n_cli += 1
        argv = self.cli_argv(i, self.out_cli)
        seconds, rc, err = _fresh(argv, self.env)
        if rc != 0:
            return Op("cli", seconds, [f"ugap {argv[0]}: exit {rc}: {err.strip()[-400:]}"], label=argv[0])
        return Op("cli", seconds, self.check_cli(i, self.out_cli), label=argv[0])

    def run_call(self) -> Op:
        t0 = time.perf_counter()
        try:
            op = self.call(self.out_call)
        except Exception as exc:  # an operation that raises is a failed operation
            return Op("call", time.perf_counter() - t0, [f"call raised {type(exc).__name__}: {exc}"])
        if not op.problems:
            op.problems += self.repeat_identical("call", self.out_call)
        return op

    def repeat_identical(self, label: str, out: Path) -> list[str]:
        """Outputs of this repeat must match the first repeat byte for byte."""
        digest = checker.digest_dir(out)
        first = self._digests.setdefault(label, digest)
        problems = checker.compare_digests(f"{label} repeat", first, digest)
        other = self._digests.get("cli" if label == "call" else "call")
        if other is not None:
            problems += checker.compare_digests("fresh vs in-process", other, digest, common_only=True)
        return problems


class Bundled(Workload):
    """Fresh-process commands cycle through `cycle`; the call is `report --recompute`."""

    name = "bundled"
    cycle = CYCLE

    def args(self) -> list[str]:
        return []

    def calibration_file(self) -> Path:
        return self.bundled / "calibration_default.cfg"

    def recompute_checks(self, out: Path) -> list[str]:
        kappa, zeta = checker.read_calibration(self.calibration_file())
        return checker.check_gap(out, kappa, zeta)

    def cli_argv(self, i, out):
        return [self.cycle[i % len(self.cycle)], *self.args(), "--out", str(out)]

    def check_cli(self, i, out):
        cmd = self.cycle[i % len(self.cycle)]
        if cmd == "simulate":
            return checker.check_simulation(out)
        if cmd == "report":
            return self.recompute_checks(out) + self.repeat_identical("cli", out)
        return []

    def call(self, out):
        from ugap import cli

        seconds, rc, err = _inprocess(cli.main, ["report", "--recompute", *self.args(), "--out", str(out)])
        if rc != 0:
            return Op("call", seconds, [f"report --recompute: exit {rc}: {err.strip()[-400:]}"])
        return Op("call", seconds, self.recompute_checks(out))


class LongHistory(Bundled):
    """The bundled cycle (less `simulate`, which needs a scenario) on a generated history."""

    name = "long-history"
    cycle = tuple(c for c in CYCLE if c != "simulate")

    def generate(self, inp):
        quarters = TINY["long"] if self.tiny else LONG_QUARTERS
        manifest = inputs.long_history(self.seed, quarters, self.bundled, inp)
        self.design = manifest.pop("design_epsilon")
        return manifest

    def calibration_file(self):
        return self.inp / "calibration.cfg"

    def args(self):
        zetas = ",".join(f"{z:g}" for z in inputs.ZETA_LIST)
        return ["--implied-zeta", "--zeta-list", zetas, "--config", str(self.inp / "run.cfg")]

    def recompute_checks(self, out):
        return super().recompute_checks(out) + checker.check_epsilon_recovery(out, self.design)


class Verify(Workload):
    name = "verify"

    def generate(self, inp):
        axis, path = (TINY["axis"], TINY["path"]) if self.tiny else (VERIFY_AXIS, VERIFY_PATH)
        manifest = inputs.verify_inputs(self.seed, axis, path, self.bundled, inp)
        self.grid = json.loads((inp / "grid.json").read_text())
        return manifest

    def cli_argv(self, i, out):
        return ["simulate", "--scenario", str(self.inp / "scenario.cfg"), "--out", str(out)]

    def check_cli(self, i, out):
        return checker.check_simulation(out, self.sizes["path_quarters"]) + self.repeat_identical("cli", out)

    def call(self, out):
        from ugap import cli, planner

        grid = self.grid
        t0 = time.perf_counter()
        problems = []
        try:
            records = planner.oracle_grid_check(
                epsilons=grid["epsilon"], zetas=grid["zeta"], kappas=grid["kappa"], v0s=grid["v0"]
            )
        except planner.PropertyViolation as exc:
            records, problems = [], [f"oracle_grid_check: {exc}"]
        oracle_s = time.perf_counter() - t0
        sim_s, rc, err = _inprocess(cli.main, self.cli_argv(0, out))
        parts = {"oracle_s": oracle_s, "simulate_s": sim_s}
        if rc != 0:
            problems.append(f"simulate: exit {rc}: {err.strip()[-400:]}")
            return Op("call", oracle_s + sim_s, problems, parts)
        if not problems:
            problems = checker.check_oracle(records, grid)
            (out / "oracle.json").write_text(json.dumps(records, sort_keys=True) + "\n")
        problems += checker.check_simulation(out, self.sizes["path_quarters"])
        return Op("call", oracle_s + sim_s, problems, parts)


WORKLOADS = {w.name: w for w in (Bundled, LongHistory, Verify)}


def instrument(recorder) -> None:
    """Wrap the public entry points of every ugap layer.

    Covers the names ugap.cli binds (its own commands and what it imports),
    plus the module globals that layers call internally: gap.gap_series,
    fitting.fit_elasticity and planner.solve_planner_numeric. Per-point
    value helpers (Quarter, SufficientStats, efficient_unemployment) are
    left unwrapped; their cost stays in the caller's self time.
    """
    from ugap import calibration, cli, config, fitting, gap, ingest, planner, regimes, svgfig

    def count(key, fn):
        return lambda result: {key: fn(result)}

    for attr in ("main", "cmd_ingest", "cmd_fit", "cmd_gap", "cmd_sensitivity", "cmd_simulate", "cmd_report"):
        recorder.wrap(cli, attr, f"cli.{attr}")
    hooks = {
        "parse_series_csv": count("ingest.months_parsed", len),
        "to_quarterly": count("ingest.dropped_quarters", lambda r: len(r[1])),
        "solve_planner_numeric": count("planner.boundary_hits", lambda r: int(r.boundary_warning)),
        "scatter_fit_svg": count("svgfig.bytes", len),
        "timeseries_svg": count("svgfig.bytes", len),
        "gap_series": count("gap.points_evaluated", len),
        "oracle_grid_check": count("planner.oracle_points", len),
    }
    bound_in_cli = {
        config: ("load_config", "parse_kv_text"),
        fitting: ("fit_all", "fit_elasticity", "write_estimates_csv"),
        ingest: ("parse_series_csv", "to_quarterly", "splice_vacancy", "splice_jump", "build_panel"),
        planner: ("comparative_statics_check", "dmp_stats", "solve_planner_numeric", "synth_panel"),
        regimes: ("build_schedule",),
        svgfig: ("scatter_fit_svg", "timeseries_svg"),
    }
    internal = {
        config: ("parse_kv_text",),
        fitting: ("fit_elasticity",),
        gap: ("gap_series", "summarize", "sensitivity", "implied_zeta_series",
              "write_gap_csv", "write_sensitivity_csv", "write_implied_zeta_csv"),
        planner: ("solve_planner_numeric", "oracle_grid_check"),
    }
    for module, attrs in bound_in_cli.items():
        layer = module.__name__.split(".")[-1]
        for attr in attrs:
            recorder.wrap(cli, attr, f"{layer}.{attr}", hooks.get(attr))
    for module, attrs in internal.items():
        layer = module.__name__.split(".")[-1]
        for attr in attrs:
            recorder.wrap(module, attr, f"{layer}.{attr}", hooks.get(attr))
    recorder.wrap(ingest.LaborMarketPanel, "to_csv", "ingest.LaborMarketPanel.to_csv")
    recorder.wrap(regimes.RegimeTable, "from_file", "regimes.RegimeTable.from_file")
    recorder.wrap(calibration.CalibrationProfile, "from_file", "calibration.CalibrationProfile.from_file")
