"""Minimal deterministic SVG charts.

Hand-rolled on purpose: figures are plain text, diff well in golden
tests, and carry no rendering dependency or embedded timestamps. Every
number a figure shows is also exported as CSV elsewhere. The series of a
time-series figure share one x text: each quarter's x coordinate is
formatted once per figure, not once per series.
"""

from __future__ import annotations

import math
from typing import Sequence

import numpy as np

from .errors import InputError

WIDTH, HEIGHT = 760.0, 480.0
MARGIN_L, MARGIN_R, MARGIN_T, MARGIN_B = 70.0, 20.0, 44.0, 52.0
# the number of axis intervals _nice_ticks aims for
_TICK_INTERVALS = 5
PALETTE = ("#1f6fb4", "#c23b22", "#2c8a4b", "#8a5ca8", "#b8860b", "#4d4d4d")


def escape(text: str) -> str:
    """xml.sax.saxutils.escape without importing it (it loads urllib, http, ssl and email)."""
    return text.replace("&", "&amp;").replace(">", "&gt;").replace("<", "&lt;")


def _nice_ticks(lo: float, hi: float) -> list[float]:
    """Multiples of 1, 2, 2.5 or 5 times a power of ten from lo to hi; InputError unless the span is finite and > 0."""
    if hi <= lo:
        hi = lo + 1.0
    raw = (hi - lo) / _TICK_INTERVALS
    if not 0.0 < raw < math.inf:
        raise InputError(f"a figure axis cannot span {lo:g} to {hi:g}")
    mag = 10.0 ** math.floor(math.log10(raw))
    step = min((s for s in (1.0, 2.0, 2.5, 5.0, 10.0) if s * mag >= raw), default=10.0) * mag
    first = math.ceil(lo / step) * step
    # a step is at least a fifth of the span, so tick k = 5 is the last that can fit
    ticks = (first + k * step for k in range(_TICK_INTERVALS + 2))
    # near 1e16 the step is a few ulps, so neighbouring ticks can round to the same float
    return list(dict.fromkeys(round(t, 10) for t in ticks if t <= hi + 1e-12 * step))


def _check_finite(what: str, values) -> None:
    if not np.isfinite(values).all():
        raise InputError(f"figure {what} holds a value that is not finite")


class _Frame:
    """Affine data-to-pixel mapping of the plot area; arrays map elementwise, bit-identical to floats."""

    def __init__(self, xlo, xhi, ylo, yhi):
        pad_y = 0.06 * (yhi - ylo or 1.0)
        self.xlo, self.xhi = xlo, xhi
        self.ylo, self.yhi = ylo - pad_y, yhi + pad_y

    def x(self, v: float) -> float:
        span = self.xhi - self.xlo or 1.0
        return MARGIN_L + (v - self.xlo) / span * (WIDTH - MARGIN_L - MARGIN_R)

    def y(self, v: float) -> float:
        span = self.yhi - self.ylo or 1.0
        return HEIGHT - MARGIN_B - (v - self.ylo) / span * (HEIGHT - MARGIN_T - MARGIN_B)


def _header(title: str) -> list[str]:
    return [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{WIDTH:g}" height="{HEIGHT:g}" '
        f'viewBox="0 0 {WIDTH:g} {HEIGHT:g}" font-family="Helvetica,Arial,sans-serif">',
        f'<rect width="{WIDTH:g}" height="{HEIGHT:g}" fill="white"/>',
        f'<text x="{WIDTH / 2:g}" y="24" text-anchor="middle" font-size="16">{escape(title)}</text>',
    ]


def _axes(frame: _Frame, xlabel: str, ylabel: str, xticks, yticks, xtick_labels=None) -> list[str]:
    out = []
    x0, x1 = MARGIN_L, WIDTH - MARGIN_R
    y0, y1 = HEIGHT - MARGIN_B, MARGIN_T
    out.append(f'<line x1="{x0:g}" y1="{y0:g}" x2="{x1:g}" y2="{y0:g}" stroke="black"/>')
    out.append(f'<line x1="{x0:g}" y1="{y0:g}" x2="{x0:g}" y2="{y1:g}" stroke="black"/>')
    labels = xtick_labels or [f"{t:g}" for t in xticks]
    for t, lab in zip(xticks, labels):
        px = frame.x(t)
        out.append(f'<line x1="{px:.2f}" y1="{y0:g}" x2="{px:.2f}" y2="{y0 + 5:g}" stroke="black"/>')
        out.append(
            f'<text x="{px:.2f}" y="{y0 + 20:g}" text-anchor="middle" font-size="11">{escape(lab)}</text>'
        )
    for t in yticks:
        py = frame.y(t)
        out.append(f'<line x1="{x0 - 5:g}" y1="{py:.2f}" x2="{x0:g}" y2="{py:.2f}" stroke="black"/>')
        out.append(
            f'<text x="{x0 - 9:g}" y="{py + 4:.2f}" text-anchor="end" font-size="11">{t:g}</text>'
        )
    out.append(
        f'<text x="{(x0 + x1) / 2:g}" y="{HEIGHT - 12:g}" text-anchor="middle" font-size="12">{escape(xlabel)}</text>'
    )
    out.append(
        f'<text x="16" y="{(y0 + y1) / 2:g}" text-anchor="middle" font-size="12" '
        f'transform="rotate(-90 16 {(y0 + y1) / 2:g})">{escape(ylabel)}</text>'
    )
    return out


def scatter_fit_svg(
    title: str,
    log_u: Sequence[float],
    log_v: Sequence[float],
    slope: float,
    intercept: float,
) -> str:
    """Log-log scatter with its fitted line; one circle per observation."""
    _check_finite(f"{title!r} log unemployment", log_u)
    _check_finite(f"{title!r} log vacancies", log_v)
    frame = _Frame(min(log_u), max(log_u), min(log_v), max(log_v))
    parts = _header(title)
    parts += _axes(
        frame,
        "log unemployment rate",
        "log vacancy rate",
        _nice_ticks(frame.xlo, frame.xhi),
        _nice_ticks(frame.ylo, frame.yhi),
    )
    xa, xb = min(log_u), max(log_u)
    parts.append(
        f'<line x1="{frame.x(xa):.2f}" y1="{frame.y(intercept + slope * xa):.2f}" '
        f'x2="{frame.x(xb):.2f}" y2="{frame.y(intercept + slope * xb):.2f}" '
        f'stroke="{PALETTE[1]}" stroke-width="2"/>'
    )
    circle = f'<circle cx="%.2f" cy="%.2f" r="3" fill="{PALETTE[0]}" fill-opacity="0.75"/>'
    cx, cy = frame.x(np.asarray(log_u, dtype=float)), frame.y(np.asarray(log_v, dtype=float))
    parts += map(circle.__mod__, zip(cx.tolist(), cy.tolist()))
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


def timeseries_svg(
    title: str,
    tick_positions: Sequence[int],
    tick_labels: Sequence[str],
    series: Sequence[tuple[str, Sequence[float]]],
    bands: Sequence[tuple[int, int]] = (),
) -> str:
    """Multi-line quarterly chart of percents of the labor force, with optional shaded bands.

    x positions are 0..n-1, for n the longest series' length; bands are
    inclusive (start, end) index pairs drawn behind the lines.
    """
    columns = [np.asarray(ys, dtype=float) for _, ys in series]
    for (label, _), ys in zip(series, columns):
        _check_finite(f"{title!r} series {label!r}", ys)
    values, longest = np.concatenate(columns), max(map(len, columns))
    frame = _Frame(0.0, float(max(longest - 1, 1)), float(values.min()), float(values.max()))
    parts = _header(title)
    for start, end in bands:
        x0, x1 = frame.x(float(start)), frame.x(float(end) + 1.0)
        parts.append(
            f'<rect x="{x0:.2f}" y="{MARGIN_T:g}" width="{x1 - x0:.2f}" '
            f'height="{HEIGHT - MARGIN_T - MARGIN_B:g}" fill="#d9d9d9"/>'
        )
    parts += _axes(
        frame,
        "",
        "percent of labor force",
        [float(p) for p in tick_positions],
        _nice_ticks(frame.ylo, frame.yhi),
        xtick_labels=list(tick_labels),
    )
    # point j of every series sits at x = j, so each x is formatted once, into
    # a "x,%.2f" template that takes the y of point j of each series
    xs = frame.x(np.arange(longest, dtype=float)).tolist()
    x_text = ["%.2f,%%.2f" % x for x in xs]
    for i, ((label, _), ys) in enumerate(zip(series, columns)):
        color = PALETTE[i % len(PALETTE)]
        pts = " ".join(x_text[: len(ys)]) % tuple(frame.y(ys).tolist())
        parts.append(f'<polyline points="{pts}" fill="none" stroke="{color}" stroke-width="1.8"/>')
        parts.append(
            f'<text x="{WIDTH - MARGIN_R - 6:g}" y="{MARGIN_T + 16 + 16 * i:g}" text-anchor="end" '
            f'font-size="12" fill="{color}">{escape(label)}</text>'
        )
    parts.append("</svg>")
    return "\n".join(parts) + "\n"
