"""Output checks for the benchmark's operations.

Each check returns a list of problems; an empty list means the outputs
passed. The gap check recomputes the closed-form efficient rate with
numpy from the exported panel and estimates, independently of the
package's own per-quarter Python code.
"""

from __future__ import annotations

import csv
import hashlib
import json
from pathlib import Path

import numpy as np

# panel.csv and estimates.csv carry 8 significant digits and summary.json
# 10, so a recomputation from the exports agrees to about 1e-8.
REL_TOL = 1e-6
ABS_TOL = 1e-7
# An estimated elasticity may miss the generator's design value by at most
# this many of its own standard errors, plus a small floor.
EPSILON_SE = 6.0
EPSILON_FLOOR = 0.02


def digest_dir(path: Path) -> dict[str, str]:
    """sha256 of every file under path, keyed by relative path."""
    return {
        str(p.relative_to(path)): hashlib.sha256(p.read_bytes()).hexdigest()
        for p in sorted(path.rglob("*"))
        if p.is_file()
    }


def compare_digests(label: str, first: dict[str, str], later: dict[str, str], common_only: bool = False) -> list[str]:
    keys = set(first) & set(later) if common_only else set(first) | set(later)
    diff = sorted(k for k in keys if first.get(k) != later.get(k))
    return [f"{label}: {k} differs" for k in diff]


def _quarter_index(label: str) -> int:
    year, q = label.strip().upper().split("Q")
    return int(year) * 4 + int(q) - 1


def _read_rows(path: Path) -> list[dict[str, str]]:
    with open(path, newline="", encoding="utf-8") as fh:
        return list(csv.DictReader(line for line in fh if not line.startswith("#")))


def read_calibration(path: Path) -> tuple[float, float]:
    """(kappa, zeta) from a calibration profile, by the survey identity."""
    values = {}
    for raw in path.read_text(encoding="utf-8").splitlines():
        line = raw.split("#", 1)[0].strip()
        if "=" in line:
            key, value = line.split("=", 1)
            values[key.strip()] = float(value)
    kappa = values["recruiting_share"] * (1.0 - values["u_survey"]) / values["v_survey"]
    return kappa, values["zeta"]


def _close(a: float, b: float) -> bool:
    return abs(a - b) <= ABS_TOL + REL_TOL * abs(b)


def check_gap(out: Path, kappa: float, zeta: float) -> list[str]:
    """gap.csv and the summary means against a numpy recomputation of u*.

    Each quarter takes the epsilon of the regime containing it; a quarter
    outside every regime takes the most recent earlier regime's (the first
    regime's before it) and is flagged.
    """
    problems = []
    panel = _read_rows(out / "panel.csv")
    est = _read_rows(out / "estimates.csv")
    gap_rows = _read_rows(out / "gap.csv")
    summary = json.loads((out / "summary.json").read_text())["gap"]

    q = np.array([_quarter_index(r["quarter"]) for r in panel])
    u = np.array([float(r["u"]) for r in panel])
    v = np.array([float(r["v"]) for r in panel])
    starts = np.array([_quarter_index(r["start"]) for r in est])
    ends = np.array([_quarter_index(r["end"]) for r in est])
    eps_by_regime = np.array([float(r["epsilon"]) for r in est])

    k = np.searchsorted(starts, q, side="right") - 1
    inside = (k >= 0) & (q <= ends[np.maximum(k, 0)])
    eps = eps_by_regime[np.maximum(k, 0)]
    u_star = (kappa * eps / (1.0 - zeta) * v / u) ** (1.0 / (1.0 + eps)) * u
    gap = u - u_star

    if len(gap_rows) != len(panel):
        return [f"gap.csv has {len(gap_rows)} rows, panel.csv {len(panel)}"]
    got = np.array([float(r["u_star"]) for r in gap_rows])
    bad = np.flatnonzero(np.abs(got - u_star) > ABS_TOL + REL_TOL * np.abs(u_star))
    if bad.size:
        i = int(bad[0])
        problems.append(
            f"gap.csv u_star differs from recomputation in {bad.size} rows, "
            f"first {gap_rows[i]['quarter']}: {got[i]!r} vs {u_star[i]!r}"
        )
    flagged = np.array([r["is_gap_quarter"] == "1" for r in gap_rows])
    if not np.array_equal(flagged, ~inside):
        problems.append("gap.csv shift-quarter flags differ from the regime table")

    if not _close(summary["kappa"], kappa) or not _close(summary["zeta"], zeta):
        problems.append(f"summary kappa/zeta {summary['kappa']}/{summary['zeta']} != {kappa}/{zeta}")
    for section, keep in (("all_quarters", np.ones_like(inside)), ("excluding_gap_quarters", inside)):
        want = {"mean_u": u[keep].mean(), "mean_u_star": u_star[keep].mean(), "mean_gap": gap[keep].mean()}
        for key, value in want.items():
            if not _close(summary[section][key], float(value)):
                problems.append(f"summary {section}.{key} = {summary[section][key]!r}, recomputed {value!r}")
        if summary[section]["n_quarters"] != int(keep.sum()):
            problems.append(f"summary {section}.n_quarters = {summary[section]['n_quarters']}")
    return problems


def check_epsilon_recovery(out: Path, design: dict[str, float]) -> list[str]:
    """Every regime's estimated elasticity lies near the generator's value."""
    problems = []
    rows = _read_rows(out / "estimates.csv")
    if sorted(r["regime"] for r in rows) != sorted(design):
        return [f"estimates.csv regimes differ from the generated table ({len(rows)} vs {len(design)})"]
    for r in rows:
        eps, se = float(r["epsilon"]), float(r["se"])
        want = design[r["regime"]]
        if abs(eps - want) > EPSILON_SE * se + EPSILON_FLOOR:
            problems.append(f"regime {r['regime']}: epsilon {eps:.4f} (se {se:.4f}) vs design {want:.4f}")
    return problems


def check_simulation(out: Path, n_quarters: int | None = None) -> list[str]:
    """The round trip and every comparative-statics check passed."""
    report = json.loads((out / "simulation_report.json").read_text())
    problems = []
    if not (report["round_trip"]["checked"] and report["round_trip"]["passed"]):
        problems.append(f"round trip not passed: {report['round_trip']}")
    for check in report["comparative_statics"]:
        if not check["passed"]:
            problems.append(f"comparative statics {check['name']} failed: {check['details']}")
    if not report["all_passed"]:
        problems.append("simulation all_passed is false")
    if n_quarters is not None and report["n_quarters"] != n_quarters:
        problems.append(f"simulation has {report['n_quarters']} quarters, expected {n_quarters}")
    return problems


def check_oracle(records: list[dict], grid: dict[str, list[float]]) -> list[str]:
    """One agreeing, interior record per grid point."""
    expected = 1
    for values in grid.values():
        expected *= len(values)
    problems = []
    if len(records) != expected:
        problems.append(f"oracle returned {len(records)} records for {expected} grid points")
    worst = max((r["u_error"] for r in records), default=0.0)
    if worst >= 1e-6 or any(r["boundary_warning"] for r in records):
        problems.append(f"oracle disagreement: worst u_error {worst:.3g}")
    return problems
