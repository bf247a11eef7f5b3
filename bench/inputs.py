"""Seeded input generators for the long-history and verify workloads.

Everything here is a pure function of (seed, sizes): the same seed gives
byte-identical files, and the files land only in the directory the
caller passes, never in the package's bundled data.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

import numpy as np

# The YYYYQn and YYYY-MM formats need four-digit years, so a history
# starting in START_YEAR can hold at most (9999 - START_YEAR + 1) * 4 quarters.
START_YEAR = 1951
MAX_QUARTERS = (9999 - START_YEAR + 1) * 4

# Density of the bundled 1951-2019 data: seven regimes over 276 quarters
# with short shift spells between them, and ten recessions.
REGIME_STRIDE = 40
SHIFT_QUARTERS = 2
RECESSION_STRIDE = 28

# Ranges of the default verification grid and of shocks_default.csv.
GRID_RANGES = {"epsilon": (0.8, 1.25), "zeta": (0.0, 0.5), "kappa": (0.3, 1.0), "v0": (3e-4, 3e-2)}
ZETA_LIST = (0.0, 0.05, 0.1, 0.15, 0.2, 0.25, 0.3, 0.35, 0.4, 0.5, 0.75, 0.96)

# Log-vacancy scatter around each regime's curve.
SCATTER = 0.01


def quarter_label(i: int) -> str:
    return f"{START_YEAR + i // 4}Q{i % 4 + 1}"


def _month_label(i: int) -> str:
    return f"{START_YEAR + i // 12}-{i % 12 + 1:02d}"


def _monthly_csv(quarterly: np.ndarray, first_quarter: int, wiggle: np.ndarray, extra_months: int = 0) -> str:
    """Percent-unit monthly series whose complete quarters average to `quarterly`.

    `wiggle` holds one zero-mean triple per quarter; `extra_months` trailing
    months form an incomplete quarter that ingest must drop.
    """
    monthly = (quarterly[:, None] * (1.0 + wiggle)).ravel()
    if extra_months:
        monthly = np.concatenate([monthly, np.full(extra_months, quarterly[-1])])
    lines = ["date,value"]
    base = first_quarter * 3
    lines += [f"{_month_label(base + k)},{100.0 * x:.6f}" for k, x in enumerate(monthly)]
    return "\n".join(lines) + "\n"


def long_history(seed: int, quarters: int, bundled: Path, out_dir: Path) -> dict:
    """Write a synthetic quarterly history plus a run config under out_dir.

    `bundled` is the package's data directory; only its calibration
    profile is read, and copied next to the generated series.

    Unemployment follows a log AR(1); within each regime vacancies sit on
    an isoelastic curve v = v0 * u**-epsilon with log-normal scatter. The
    returned manifest records the sizes and each regime's design epsilon.
    """
    if not 3 * REGIME_STRIDE <= quarters <= MAX_QUARTERS:
        raise ValueError(f"quarters must be in [{3 * REGIME_STRIDE}, {MAX_QUARTERS}], got {quarters}")
    rng = np.random.default_rng([seed, 1])
    out_dir.mkdir(parents=True, exist_ok=True)

    log_u = np.empty(quarters)
    log_u[0] = 0.0
    shocks = rng.normal(0.0, 0.05, quarters)
    for t in range(1, quarters):
        log_u[t] = 0.9 * log_u[t - 1] + shocks[t]
    u = 0.06 * np.exp(np.clip(log_u, -0.6, 0.6))

    # Regime and band counts depend only on `quarters`, so every seed does
    # the same amount of scanning; the seed moves the breaks and the curves.
    n_regimes = quarters // REGIME_STRIDE
    starts = [0] + [k * REGIME_STRIDE + int(rng.integers(-8, 9)) for k in range(1, n_regimes)]
    regimes = []
    for k, start in enumerate(starts):
        end = starts[k + 1] - SHIFT_QUARTERS - 1 if k + 1 < n_regimes else quarters - 1
        epsilon = float(rng.uniform(*GRID_RANGES["epsilon"]))
        # centre each curve near tightness 0.7 at u = 6 %
        log_v0 = math.log(0.042) + epsilon * math.log(0.06) + float(rng.normal(0.0, 0.1))
        regimes.append((start, end, epsilon, log_v0))

    eps_q = np.empty(quarters)
    lv0_q = np.empty(quarters)
    for k, (a, _, eps, lv0) in enumerate(regimes):
        nxt = regimes[k + 1][0] if k + 1 < len(regimes) else quarters
        eps_q[a:nxt], lv0_q[a:nxt] = eps, lv0  # shift quarters stay on the curve just left
    v = np.exp(lv0_q - eps_q * np.log(u) + rng.normal(0.0, SCATTER, quarters))

    bands = []
    for j in range(quarters // RECESSION_STRIDE):
        start = j * RECESSION_STRIDE + int(rng.integers(0, RECESSION_STRIDE - 8))
        bands.append((start, start + int(rng.integers(1, 6))))

    wiggle_u = rng.normal(0.0, 0.01, (quarters, 3))
    wiggle_v = rng.normal(0.0, 0.01, (quarters, 3))
    wiggle_u -= wiggle_u.mean(axis=1, keepdims=True)
    wiggle_v -= wiggle_v.mean(axis=1, keepdims=True)

    cutover = regimes[len(regimes) // 2][0]
    overlap = 8  # the pre source runs two years past the cutover, as the bundled one does
    pre_end = min(cutover + overlap, quarters)
    (out_dir / "u.csv").write_text(_monthly_csv(u, 0, wiggle_u, extra_months=2))
    (out_dir / "v_pre.csv").write_text(_monthly_csv(v[:pre_end], 0, wiggle_v[:pre_end]))
    (out_dir / "v_post.csv").write_text(_monthly_csv(v[cutover:], cutover, wiggle_v[cutover:]))
    (out_dir / "regimes.csv").write_text(
        "# label,start,end\n"
        + "".join(f"R{k:04d},{quarter_label(a)},{quarter_label(b)}\n" for k, (a, b, _, _) in enumerate(regimes))
    )
    (out_dir / "recessions.csv").write_text(
        "start,end\n" + "".join(f"{quarter_label(a)},{quarter_label(b)}\n" for a, b in bands)
    )
    (out_dir / "calibration.cfg").write_text((bundled / "calibration_default.cfg").read_text())
    (out_dir / "run.cfg").write_text(
        "[data]\n"
        "u_series = u.csv\n"
        "v_pre = v_pre.csv\n"
        "v_post = v_post.csv\n"
        "unit = percent\n"
        f"cutover = {quarter_label(cutover)}\n"
        "regimes = regimes.csv\n"
        "recessions = recessions.csv\n"
        "[calibration]\n"
        "profile = calibration.cfg\n"
        "[gap]\n"
        "tolerance = 0.01\n"
    )
    manifest = {
        "quarters": quarters,
        "regimes": len(regimes),
        "bands": len(bands),
        "cutover": quarter_label(cutover),
        "design_epsilon": {f"R{k:04d}": eps for k, (_, _, eps, _) in enumerate(regimes)},
    }
    (out_dir / "manifest.json").write_text(json.dumps(manifest, sort_keys=True, indent=1) + "\n")
    return manifest


def verify_inputs(seed: int, axis_points: int, path_quarters: int, bundled: Path, out_dir: Path) -> dict:
    """Write a seeded oracle grid and a simulate scenario under out_dir.

    The grid is the product of `axis_points` seeded values per axis inside
    GRID_RANGES (v0 log-uniform). The shock path resamples separation
    multipliers uniformly inside the range of the bundled shock file, with
    matching efficiency fixed at 1.
    """
    if not 1 <= path_quarters <= MAX_QUARTERS:
        raise ValueError(f"path_quarters must be in [1, {MAX_QUARTERS}], got {path_quarters}")
    rng = np.random.default_rng([seed, 2])
    out_dir.mkdir(parents=True, exist_ok=True)
    grid = {}
    for name, (lo, hi) in GRID_RANGES.items():
        if name == "v0":
            values = np.exp(rng.uniform(math.log(lo), math.log(hi), axis_points))
        else:
            values = rng.uniform(lo, hi, axis_points)
        grid[name] = sorted(float(x) for x in values)

    shocks_text = (bundled / "shocks_default.csv").read_text()
    s_values = [float(line.split(",")[1]) for line in shocks_text.splitlines()[1:] if line.strip()]
    s_mult = rng.uniform(min(s_values), max(s_values), path_quarters)
    (out_dir / "shocks.csv").write_text(
        "quarter,s_multiplier,mu_multiplier\n"
        + "".join(f"{quarter_label(i)},{s:.6f},1.0\n" for i, s in enumerate(s_mult))
    )
    scenario = (bundled / "scenario_default.cfg").read_text()
    scenario = scenario.replace("path = shocks_default.csv", "path = shocks.csv")
    (out_dir / "scenario.cfg").write_text(scenario)
    (out_dir / "grid.json").write_text(json.dumps(grid, sort_keys=True, indent=1) + "\n")
    manifest = {
        "grid_points": axis_points**4,
        "path_quarters": path_quarters,
        "s_range": [min(s_values), max(s_values)],
    }
    (out_dir / "manifest.json").write_text(json.dumps(manifest, sort_keys=True, indent=1) + "\n")
    return manifest
