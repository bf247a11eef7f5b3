"""Generator of the derived files of the bundled 1951-2019 reconstruction.

The toolkit ships a quarterly reconstruction of the public series rather
than the raw archives. The unemployment path follows the historical
quarterly record of the national seasonally adjusted rate. The vacancy
path is synthesized: within each of the seven stable subperiods the rate
sits on an isoelastic Beveridge curve whose elasticity and location are
calibrated to published regime estimates, with seeded multiplicative
scatter matched to the published fit quality; in shift quarters the
curve parameters blend log-linearly between the flanking regimes. The
scatter is residualized against log unemployment inside each regime, so
re-estimating a regime recovers its design parameters exactly and the
fit statistics are pinned by construction, not by luck of the draw.

Monthly files are emitted by spreading each quarterly value over its
three months with a slope-following wiggle whose mean is the quarterly
value, so aggregation reproduces the design. Values are percent with
four decimals, which marks the files as a reconstruction rather than an
official vintage.

build_dataset writes the three monthly series, regimes_default.csv and
shocks_default.csv. The three .cfg files and recessions_nber.csv in the
data directory are hand-maintained and have no copy here.

Regenerate with: python tools/reconstruction.py <out_dir>, with src/ on
PYTHONPATH unless ugap is installed.
"""

from __future__ import annotations

import math
from pathlib import Path

import numpy as np

from ugap.quarters import parse_quarter, quarter_label

SEED = 19512019
KAPPA = 0.72
ZETA = 0.25

# quarterly averages of the historical unemployment rate, percent
QUARTERLY_U: dict[int, tuple[float, float, float, float]] = {
    1951: (3.5, 3.1, 3.2, 3.4),
    1952: (3.1, 3.0, 3.2, 2.8),
    1953: (2.7, 2.6, 2.7, 3.7),
    1954: (5.3, 5.8, 6.0, 5.3),
    1955: (4.7, 4.4, 4.1, 4.2),
    1956: (4.0, 4.3, 4.1, 4.1),
    1957: (3.9, 4.1, 4.2, 4.9),
    1958: (6.3, 7.4, 7.3, 6.4),
    1959: (5.8, 5.1, 5.3, 5.6),
    1960: (5.2, 5.2, 5.6, 6.3),
    1961: (6.8, 7.0, 6.8, 6.2),
    1962: (5.6, 5.5, 5.6, 5.5),
    1963: (5.8, 5.7, 5.5, 5.6),
    1964: (5.5, 5.2, 5.0, 5.0),
    1965: (4.9, 4.7, 4.4, 4.1),
    1966: (3.9, 3.8, 3.8, 3.7),
    1967: (3.8, 3.8, 3.8, 3.9),
    1968: (3.7, 3.6, 3.5, 3.4),
    1969: (3.4, 3.4, 3.6, 3.6),
    1970: (4.2, 4.7, 5.2, 5.8),
    1971: (5.9, 5.9, 6.0, 6.0),
    1972: (5.8, 5.7, 5.6, 5.3),
    1973: (4.9, 4.9, 4.8, 4.8),
    1974: (5.1, 5.2, 5.6, 6.6),
    1975: (8.2, 8.9, 8.5, 8.3),
    1976: (7.7, 7.6, 7.7, 7.8),
    1977: (7.5, 7.1, 6.9, 6.6),
    1978: (6.3, 6.0, 6.0, 5.9),
    1979: (5.9, 5.7, 5.9, 5.9),
    1980: (6.3, 7.3, 7.7, 7.4),
    1981: (7.4, 7.4, 7.4, 8.2),
    1982: (8.8, 9.4, 9.9, 10.7),
    1983: (10.4, 10.1, 9.4, 8.5),
    1984: (7.9, 7.4, 7.4, 7.3),
    1985: (7.2, 7.3, 7.2, 7.0),
    1986: (7.0, 7.2, 7.0, 6.8),
    1987: (6.6, 6.3, 6.0, 5.8),
    1988: (5.7, 5.5, 5.5, 5.3),
    1989: (5.2, 5.2, 5.3, 5.4),
    1990: (5.3, 5.3, 5.7, 6.1),
    1991: (6.6, 6.8, 6.9, 7.1),
    1992: (7.4, 7.6, 7.6, 7.4),
    1993: (7.1, 7.1, 6.8, 6.6),
    1994: (6.6, 6.2, 6.0, 5.6),
    1995: (5.5, 5.7, 5.7, 5.6),
    1996: (5.5, 5.5, 5.3, 5.3),
    1997: (5.2, 5.0, 4.9, 4.7),
    1998: (4.6, 4.4, 4.5, 4.4),
    1999: (4.3, 4.3, 4.2, 4.1),
    2000: (4.0, 4.0, 4.0, 3.9),
    2001: (4.2, 4.4, 4.8, 5.5),
    2002: (5.7, 5.8, 5.7, 5.9),
    2003: (5.9, 6.1, 6.1, 5.8),
    2004: (5.7, 5.6, 5.4, 5.4),
    2005: (5.3, 5.1, 5.0, 5.0),
    2006: (4.7, 4.6, 4.6, 4.4),
    2007: (4.5, 4.5, 4.7, 4.8),
    2008: (5.0, 5.3, 6.0, 6.9),
    2009: (8.3, 9.3, 9.6, 9.9),
    2010: (9.8, 9.6, 9.5, 9.5),
    2011: (9.0, 9.1, 9.0, 8.6),
    2012: (8.3, 8.2, 8.0, 7.8),
    2013: (7.7, 7.5, 7.2, 7.0),
    2014: (6.7, 6.2, 6.1, 5.7),
    2015: (5.5, 5.4, 5.1, 5.0),
    2016: (4.9, 4.9, 4.9, 4.7),
    2017: (4.6, 4.4, 4.3, 4.1),
    2018: (4.1, 3.9, 3.8, 3.8),
    2019: (3.9, 3.6, 3.6, 3.5),
}

# (start, end, elasticity, efficient unemployment target %, R^2 target)
REGIME_DESIGN = (
    ("1951Q1", "1959Q2", 0.92, 3.2, 0.94),
    ("1959Q4", "1971Q1", 1.16, 4.0, 0.93),
    ("1971Q3", "1975Q1", 1.20, 5.0, 0.95),
    ("1975Q3", "1987Q3", 1.24, 5.8, 0.92),
    ("1990Q1", "1999Q1", 0.91, 3.7, 0.93),
    ("2001Q1", "2009Q3", 0.97, 3.8, 0.96),
    ("2010Q1", "2019Q4", 0.81, 3.5, 0.95),
)

SPLICE_CUTOVER = parse_quarter("2001Q1")

def design_v0(epsilon: float, u_star_pct: float) -> float:
    """Curve location that puts the efficient rate at the design target."""
    return (1.0 - ZETA) * (u_star_pct / 100.0) ** (1.0 + epsilon) / (KAPPA * epsilon)


def sample_quarters() -> range:
    return range(parse_quarter("1951Q1"), parse_quarter("2019Q4") + 1)


def quarterly_unemployment() -> np.ndarray:
    """Unemployment path as fractions, aligned with sample_quarters()."""
    return np.array(
        [QUARTERLY_U[q // 4][q % 4] / 100.0 for q in sample_quarters()], dtype=float
    )


def _regime_index(q: int) -> int | None:
    for i, (start, end, *_rest) in enumerate(REGIME_DESIGN):
        if parse_quarter(start) <= q <= parse_quarter(end):
            return i
    return None


def quarterly_vacancy(u: np.ndarray) -> np.ndarray:
    """Designed vacancy path as fractions, aligned with sample_quarters()."""
    quarters = sample_quarters()
    rng = np.random.default_rng(SEED)
    log_v = np.full(len(quarters), np.nan)
    reg = [_regime_index(q) for q in quarters]
    log_v0 = [math.log(design_v0(eps, us)) for (_s, _e, eps, us, _r2) in REGIME_DESIGN]

    for i, (_s, _e, eps, _us, r2) in enumerate(REGIME_DESIGN):
        idx = np.array([j for j, r in enumerate(reg) if r == i])
        x = np.log(u[idx])
        dx = x - x.mean()
        vxx = float(dx @ dx) / len(idx)
        noise = rng.standard_normal(len(idx))
        # residualize against [1, x] so the regression recovers the design
        basis = np.column_stack([np.ones(len(idx)), x])
        coef, *_ = np.linalg.lstsq(basis, noise, rcond=None)
        resid = noise - basis @ coef
        target_var = eps * eps * vxx * (1.0 - r2) / r2
        resid *= math.sqrt(target_var * len(idx) / float(resid @ resid))
        log_v[idx] = log_v0[i] - eps * x + resid

    # shift quarters: blend curve parameters between the flanking regimes
    j = 0
    while j < len(quarters):
        if reg[j] is not None:
            j += 1
            continue
        k = j
        while k < len(quarters) and reg[k] is None:
            k += 1
        prev_i = reg[j - 1] if j > 0 else 0
        next_i = reg[k] if k < len(quarters) else prev_i
        span = k - j
        for m in range(span):
            w = (m + 1) / (span + 1)
            eps_g = (1.0 - w) * REGIME_DESIGN[prev_i][2] + w * REGIME_DESIGN[next_i][2]
            lv0_g = (1.0 - w) * log_v0[prev_i] + w * log_v0[next_i]
            log_v[j + m] = lv0_g - eps_g * math.log(u[j + m]) + rng.normal(0.0, 0.05)
        j = k

    return np.exp(log_v)


def monthly_from_quarterly(values_pct: np.ndarray) -> list[tuple[int, int, float]]:
    """Spread quarterly values over months with an exactly mean-preserving wiggle."""
    quarters = sample_quarters()
    out = []
    n = len(values_pct)
    for i, q in enumerate(quarters):
        left = values_pct[max(i - 1, 0)]
        right = values_pct[min(i + 1, n - 1)]
        d = (right - left) / 8.0
        limit = 0.2 * values_pct[i]
        d = max(-limit, min(limit, d))
        year, q_of_year = divmod(q, 4)
        for k, value in enumerate((values_pct[i] - d, values_pct[i], values_pct[i] + d)):
            out.append((year, 3 * q_of_year + k + 1, value))
    return out


def _text(lines: list[str]) -> str:
    return "\n".join(lines) + "\n"


def _series_text(monthly: list[tuple[int, int, float]]) -> str:
    return _text(["date,value"] + [f"{y:04d}-{m:02d},{v:.4f}" for y, m, v in monthly])


def _shock_rows() -> list[str]:
    rows = ["quarter,s_multiplier,mu_multiplier"]
    quarters = range(parse_quarter("2000Q1"), parse_quarter("2009Q4") + 1)
    for i, q in enumerate(quarters):
        s_mult = 1.0 + 0.10 * math.sin(2.0 * math.pi * i / 16.0)
        rows.append(f"{quarter_label(q)},{s_mult:.6f},1.0")
    return rows


def build_dataset(out_dir: Path) -> list[Path]:
    """Write the five derived data files into out_dir; returns the paths.

    The three .cfg files and recessions_nber.csv are hand-maintained data:
    they live only in the package's data directory and are not written here.
    """
    u = quarterly_unemployment()
    monthly_v = monthly_from_quarterly(100.0 * quarterly_vacancy(u))
    pre = [(y, m, x) for y, m, x in monthly_v if (12 * y + m - 1) // 3 < SPLICE_CUTOVER]
    post = [(y, m, x) for y, m, x in monthly_v if (12 * y + m - 1) // 3 >= SPLICE_CUTOVER]
    regime_lines = [f"{s}-{e},{s},{e}" for s, e, *_ in REGIME_DESIGN]
    texts = {
        "unemployment_monthly.csv": _series_text(monthly_from_quarterly(100.0 * u)),
        "vacancy_hwi_monthly.csv": _series_text(pre),
        "vacancy_jolts_monthly.csv": _series_text(post),
        "regimes_default.csv": _text(["# label,start,end"] + regime_lines),
        "shocks_default.csv": _text(_shock_rows()),
    }
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    written = []
    for name, text in texts.items():
        path = out_dir / name
        path.write_text(text, encoding="utf-8")
        written.append(path)
    return written


def main(argv: list[str] | None = None) -> int:
    import argparse

    parser = argparse.ArgumentParser(
        prog="python tools/reconstruction.py",
        description="Regenerate the derived bundled data files.",
    )
    parser.add_argument("out_dir", type=Path, help="directory to write the data files into")
    args = parser.parse_args(argv)
    for path in build_dataset(args.out_dir):
        print(f"wrote {path}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
