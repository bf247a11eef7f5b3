"""ugap benchmark: one workload, one seed, end-to-end or traced.

    python3 bench/run.py --workload bundled|long-history|verify \
        --seed N --seconds S --trace 0|1

Run from a checkout of the repository; the package is imported from its
src/ directory. --trace 0 times fresh-process `ugap` commands and
in-process calls with no instrumentation and prints the end-to-end
metrics. --trace 1 alternates untraced and traced in-process calls and
prints the per-layer metrics from the recorded spans. Every operation's
outputs are checked; the last stdout line is one JSON object with the keys
correct, attempted, failed and metrics. Inputs live under .bench_work/
and are removed at exit; a record of the run (and the spans of a traced
run) is written under .bench_out/.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import spans as spans_mod
import workloads

ROOT = Path(__file__).resolve().parent.parent
SETUP_REPEATS = 3
MIN_SAMPLES = 11  # the tail value needs ten samples beyond it
MIN_TRACED_PAIRS = 3
IMPORT_REPEATS = 5


def tail(samples: list[float]) -> tuple[float, float]:
    """Highest sample with at least ten samples beyond it, and its percentile."""
    ordered = sorted(samples)
    n = len(ordered)
    return ordered[n - MIN_SAMPLES], 100.0 * (n - MIN_SAMPLES + 1) / n


def _metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def _setup(wl: workloads.Workload, ops: list) -> float:
    """Generate inputs and warm up once per repeat; median wall time."""
    times = []
    for k in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        wl.setup(f"setup{k}")
        ops.append(wl.run_cli())
        ops.append(wl.run_call())
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def end_to_end(wl: workloads.Workload, seconds: float, import_s: float, ops: list) -> tuple[dict, dict]:
    setup_s = import_s + _setup(wl, ops)
    cli, call = [], []
    deadline = time.perf_counter() + seconds
    while time.perf_counter() < deadline or len(cli) < MIN_SAMPLES or len(call) < MIN_SAMPLES:
        for op, samples in ((wl.run_cli(), cli), (wl.run_call(), call)):
            ops.append(op)
            samples.append(op)
    cli_s = [op.seconds for op in cli]
    call_s = [op.seconds for op in call]
    cli_tail, cli_pct = tail(cli_s)
    call_tail, call_pct = tail(call_s)
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    # Mean time per op is the inverse of the throughput of a batch tool.
    # The machine's speed drifts between slow and fast spells that each last
    # many ops; the median then jumps between the two, the mean moves with
    # the share of time spent in each, so run-to-run spread is lower.
    metrics = {
        "setup_s": _metric(setup_s, "s"),
        "cli_s": _metric(statistics.fmean(cli_s), "s"),
        "call_s": _metric(statistics.fmean(call_s), "s"),
        "peak_rss_mb": _metric((own + children) / 1024.0, "MB"),
    }
    # The tail's percentile depends on how many samples a run yields, so it
    # is reported beside its percentile and sample count but not gated.
    details = {
        "cli_samples": len(cli_s),
        "cli_median_s": statistics.median(cli_s),
        "call_median_s": statistics.median(call_s),
        "cli_tail_s": cli_tail,
        "cli_tail_percentile": cli_pct,
        "call_samples": len(call_s),
        "call_tail_s": call_tail,
        "call_tail_percentile": call_pct,
        "import_s": import_s,
        "samples": {"cli_s": cli_s, "call_s": call_s},
    }
    if isinstance(wl, workloads.Bundled):
        by_cmd = {}
        for op in cli:
            by_cmd.setdefault(op.label, []).append(op.seconds)
        details["cli_median_by_command"] = {k: statistics.median(v) for k, v in by_cmd.items()}
    for part in ("oracle_s", "simulate_s"):
        values = [op.parts[part] for op in call if part in op.parts]
        if values:
            details[f"call_{part}_median"] = statistics.median(values)
    return metrics, details


def _import_seconds(env: dict) -> float:
    """Fresh-process `import ugap.cli` minus a bare interpreter, medians."""
    bare, full = [], []
    for _ in range(IMPORT_REPEATS):
        for code, samples in (("pass", bare), ("import ugap.cli", full)):
            t0 = time.perf_counter()
            subprocess.run([sys.executable, "-c", code], env=env, check=True, timeout=60)
            samples.append(time.perf_counter() - t0)
    return statistics.median(full) - statistics.median(bare)


def _per_op(totals: dict[str, float], counts: dict[str, float]) -> dict[str, float]:
    def s(*names):
        return sum(totals.get(f"{n}.self_s", 0.0) for n in names)

    def c(*names):
        return sum(totals.get(f"{n}.calls", 0.0) for n in names)

    solves = c("planner.solve_planner_numeric")
    values = {}
    for layer in spans_mod.LAYERS:
        values[f"{layer}.self_s"] = totals.get(f"{layer}.self_s", 0.0)
        values[f"{layer}.calls"] = totals.get(f"{layer}.calls", 0.0)
    values.update({
        "ingest.parse_s": s("ingest.parse_series_csv"),
        "ingest.parse_calls": c("ingest.parse_series_csv"),
        "ingest.months_parsed": counts.get("ingest.months_parsed", 0.0),
        "ingest.aggregate_s": s("ingest.to_quarterly"),
        "ingest.splice_s": s("ingest.splice_vacancy", "ingest.splice_jump"),
        "ingest.panel_s": s("ingest.build_panel"),
        "ingest.panel_builds": c("ingest.build_panel"),
        "ingest.dropped_quarters": counts.get("ingest.dropped_quarters", 0.0),
        "regimes.table_loads": c("regimes.RegimeTable.from_file"),
        "regimes.schedule_s": s("regimes.build_schedule"),
        "regimes.schedule_builds": c("regimes.build_schedule"),
        "fitting.fit_s": s("fitting.fit_all", "fitting.fit_elasticity"),
        "fitting.regime_fits": c("fitting.fit_elasticity"),
        "calibration.profile_loads": c("calibration.CalibrationProfile.from_file"),
        "gap.series_s": s("gap.gap_series"),
        "gap.series_passes": c("gap.gap_series"),
        "gap.points_evaluated": counts.get("gap.points_evaluated", 0.0),
        "gap.sensitivity_s": s("gap.sensitivity"),
        "gap.summarize_s": s("gap.summarize"),
        "gap.implied_zeta_s": s("gap.implied_zeta_series"),
        "gap.csv_write_s": s("gap.write_gap_csv", "gap.write_sensitivity_csv", "gap.write_implied_zeta_csv"),
        "planner.solve_s": s("planner.solve_planner_numeric"),
        "planner.solves": solves,
        "planner.boundary_hits": counts.get("planner.boundary_hits", 0.0),
        "planner.interior_ratio": (solves - counts.get("planner.boundary_hits", 0.0)) / solves if solves else 0.0,
        "planner.oracle_points": counts.get("planner.oracle_points", 0.0),
        "planner.oracle_s": s("planner.oracle_grid_check"),
        "planner.statics_s": s("planner.comparative_statics_check"),
        "planner.synth_s": s("planner.synth_panel"),
        "svgfig.figures": c("svgfig.scatter_fit_svg", "svgfig.timeseries_svg"),
        "svgfig.bytes": counts.get("svgfig.bytes", 0.0),
    })
    values["trace.top_s"] = totals.get("top.s", 0.0)
    values["trace.spans"] = sum(values[f"{layer}.calls"] for layer in spans_mod.LAYERS)
    return values


def traced(wl: workloads.Workload, seconds: float, ops: list, spans_path: Path) -> tuple[dict, dict]:
    _setup(wl, ops)
    import_s = _import_seconds(wl.env)
    recorder = spans_mod.SpanRecorder()
    untraced, traced_ops = [], []
    deadline = time.perf_counter() + seconds
    k = 0
    while time.perf_counter() < deadline or k < MIN_TRACED_PAIRS:
        op = wl.run_call()
        ops.append(op)
        untraced.append(op.seconds)
        recorder.op = k
        with recorder:
            workloads.instrument(recorder)
            op = wl.run_call()
        ops.append(op)
        traced_ops.append(op)
        k += 1
    recorder.write(spans_path)

    totals = spans_mod.per_op_totals(recorder.spans)
    counts: dict[int, dict[str, float]] = {}
    for (op_id, key), n in recorder.counts.items():
        counts.setdefault(op_id, {})[key] = n
    out_bytes = sum(p.stat().st_size for p in wl.out_call.rglob("*") if p.is_file())
    rows = []
    for op_id, op in enumerate(traced_ops):
        row = _per_op(totals.get(op_id, {}), counts.get(op_id, {}))
        row["trace.coverage"] = row.pop("trace.top_s") / op.seconds
        row["trace.scan_share"] = sum(row[f"{x}.self_s"] for x in ("regimes", "fitting", "cli")) / op.seconds
        rows.append(row)
    values = {key: statistics.median(r[key] for r in rows) for key in rows[0]}
    traced_s = statistics.median(op.seconds for op in traced_ops)
    untraced_s = statistics.median(untraced)
    values.update({
        "startup.import_s": import_s,
        "cli.out_bytes": float(out_bytes),
        "trace.call_s": traced_s,
        "trace.overhead_s": traced_s - untraced_s,
    })
    details = {"traced_pairs": k, "untraced_call_s": untraced_s, "spans_file": str(spans_path.relative_to(ROOT))}
    return {name: _metric(values[name], unit_of(name)) for name in sorted(values)}, details


def unit_of(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith("bytes"):
        return "bytes"
    if name.endswith(("_ratio", "coverage", "_share")):
        return "ratio"
    return "count"


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true", help="smallest inputs, for smoke tests")
    args = parser.parse_args(argv)

    src = ROOT / "src"
    if not (src / "ugap" / "cli.py").is_file():
        print(f"error: no ugap sources under {src}; run from a checkout of the repository", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    os.environ.pop("TOOLKIT_SEED", None)
    t0 = time.perf_counter()
    import ugap.cli  # timed: part of set-up

    import_s = time.perf_counter() - t0
    if not Path(ugap.cli.__file__).resolve().is_relative_to(src.resolve()):
        print(f"error: imported ugap from {ugap.cli.__file__}, not {src}", file=sys.stderr)
        return 2

    tag = f"{args.workload}-s{args.seed}-t{args.trace}"
    work = ROOT / ".bench_work" / f"{tag}-{os.getpid()}"
    out_dir = ROOT / ".bench_out"
    shutil.rmtree(work, ignore_errors=True)
    wl = workloads.WORKLOADS[args.workload](ROOT, work, args.seed, args.tiny)
    ops: list[workloads.Op] = []
    try:
        if args.trace:
            metrics, details = traced(wl, args.seconds, ops, out_dir / f"{tag}-spans.csv.gz")
        else:
            metrics, details = end_to_end(wl, args.seconds, import_s, ops)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    failed = [op for op in ops if op.problems]
    result = {"correct": not failed, "attempted": len(ops), "failed": len(failed), "metrics": metrics}
    record = {"workload": args.workload, "seed": args.seed, "trace": args.trace, "sizes": wl.sizes,
              "details": details, "failures": [op.problems for op in failed[:20]], "result": result}
    out_dir.mkdir(parents=True, exist_ok=True)
    (out_dir / f"{tag}.json").write_text(json.dumps(record, indent=1, sort_keys=True) + "\n")

    print(f"workload {args.workload} seed {args.seed} sizes {json.dumps(wl.sizes, sort_keys=True)}")
    for key, value in sorted(details.items()):
        if key != "samples":
            print(f"  {key}: {value}")
    for op in failed[:20]:
        print(f"FAILED {op.kind} operation: {'; '.join(op.problems)[:1000]}")
    print(f"  failed_frac: {len(failed) / len(ops):.6g} ({len(failed)} of {len(ops)} operations)")
    for name, m in metrics.items():
        print(f"  {name} = {m['value']!r} {m['unit']}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
