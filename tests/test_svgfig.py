"""The figures against a scalar reference that maps and formats one point at a time.

timeseries_svg and scatter_fit_svg map whole numpy columns through _Frame
and format them with one %-template; the references below are the
per-point loops they replace, and the SVG text must be the same bytes.
"""

import json
import math

import numpy as np
import pytest

from conftest import run_python
from ugap.errors import InputError
from ugap.svgfig import PALETTE, _axes, _Frame, _header, _nice_ticks, scatter_fit_svg, timeseries_svg


def reference_timeseries(title, tick_positions, tick_labels, n_points, series, bands=()):
    values = [x for _, ys in series for x in ys]
    frame = _Frame(0.0, float(max(n_points - 1, 1)), min(values), max(values))
    parts = _header(title)
    for start, end in bands:
        x0, x1 = frame.x(float(start)), frame.x(float(end) + 1.0)
        parts.append(
            f'<rect x="{x0:.2f}" y="44" width="{x1 - x0:.2f}" height="384" fill="#d9d9d9"/>'
        )
    parts += _axes(
        frame,
        "",
        "percent of labor force",
        [float(p) for p in tick_positions],
        _nice_ticks(frame.ylo, frame.yhi),
        xtick_labels=list(tick_labels),
    )
    for i, (label, ys) in enumerate(series):
        color = PALETTE[i % len(PALETTE)]
        pts = " ".join(f"{frame.x(float(j)):.2f},{frame.y(y):.2f}" for j, y in enumerate(ys))
        parts.append(f'<polyline points="{pts}" fill="none" stroke="{color}" stroke-width="1.8"/>')
        parts.append(
            f'<text x="734" y="{60 + 16 * i}" text-anchor="end" font-size="12" fill="{color}">{label}</text>'
        )
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


def reference_scatter(title, log_u, log_v, slope, intercept):
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
    for x, y in zip(log_u, log_v):
        parts.append(
            f'<circle cx="{frame.x(x):.2f}" cy="{frame.y(y):.2f}" r="3" '
            f'fill="{PALETTE[0]}" fill-opacity="0.75"/>'
        )
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


def assert_same_text(got, want):
    """got == want; a mismatch names its first position, as a full diff of a 1200-point line is slow."""
    if got != want:
        i = next((k for k, (a, b) in enumerate(zip(got, want)) if a != b), min(len(got), len(want)))
        pytest.fail(f"texts differ at {i}: {got[max(i - 40, 0):i + 40]!r} != {want[max(i - 40, 0):i + 40]!r}")


def wiggle(n, seed, scale=1.0, level=5.0):
    """A seeded series of n percents with digits in every position."""
    rng = np.random.default_rng(seed)
    return level + scale * np.cumsum(rng.normal(0.0, 0.3, n))


# series lengths, the longest giving the axis: series as long as the axis,
# shorter than it and of one point, a one-point axis, whose x span
# max(n_points - 1, 1) is 1, and the 13 full series of a sensitivity figure
SHAPES = {
    "1200 points": [1200, 1200, 1200],
    "one point": [1],
    "one point, two series": [1, 1],
    "shorter than the axis": [40, 25, 1],
    "13 series of 1200": [1200] * 13,
}


@pytest.mark.parametrize("shape", sorted(SHAPES))
def test_timeseries_matches_scalar_reference(shape):
    lengths = SHAPES[shape]
    n_points = max(lengths)
    series = [(f"s{i}", wiggle(n, seed=i)) for i, n in enumerate(lengths)]
    ticks = list(range(0, n_points, 40))
    labels = [str(1950 + 10 * i) for i in range(len(ticks))]
    bands = [(3, 7), (min(10, n_points - 1), min(12, n_points - 1))]
    as_lists = [(label, ys.tolist()) for label, ys in series]
    expected = reference_timeseries("t", ticks, labels, n_points, as_lists, bands)
    assert_same_text(timeseries_svg("t", ticks, labels, series, bands=bands), expected)
    assert_same_text(timeseries_svg("t", ticks, labels, as_lists, bands=bands), expected)


@pytest.mark.parametrize("level", [0.0, 4.25, -3.0])
def test_constant_timeseries_matches_scalar_reference(level):
    # a zero y span: _Frame pads by 0.06 * 1.0 and maps through that span
    series = [("flat", np.full(30, level)), ("flat too", np.full(12, level))]
    expected = reference_timeseries("c", [0, 20], ["a", "b"], 30, [(s, ys.tolist()) for s, ys in series])
    assert_same_text(timeseries_svg("c", [0, 20], ["a", "b"], series), expected)


@pytest.mark.parametrize("n", [1, 2, 37, 1200])
def test_scatter_matches_scalar_reference(n):
    # one point has a zero x span, which _Frame.x maps through a span of 1.0
    rng = np.random.default_rng(n)
    log_u = [math.log(u) for u in rng.uniform(0.02, 0.11, n).tolist()]
    log_v = [math.log(v) for v in rng.uniform(0.01, 0.07, n).tolist()]
    expected = reference_scatter("b", log_u, log_v, -1.13, -7.2)
    assert_same_text(scatter_fit_svg("b", log_u, log_v, slope=-1.13, intercept=-7.2), expected)


def test_ticks_return_where_a_step_is_below_the_float_spacing():
    # at 1e16 the step of 1.0 is below the float spacing, so adding it to a tick would not move it,
    # and neighbouring ticks round to the same float: each is kept once
    code = "import json\nfrom ugap.svgfig import _nice_ticks\nprint(json.dumps(_nice_ticks(1e16, 1e16 + 4)))"
    done = run_python(code, timeout=20)
    assert done.returncode == 0, done.stderr
    assert json.loads(done.stdout) == [1e16, 1.0000000000000002e16, 1.0000000000000004e16]


@pytest.mark.parametrize("lo,hi", [(0.0, math.inf), (-math.inf, 0.0), (0.0, math.nan), (-1e308, 1e308)])
def test_ticks_over_a_span_that_is_not_finite_are_input_errors(lo, hi):
    with pytest.raises(InputError, match="a figure axis cannot span"):
        _nice_ticks(lo, hi)


@pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan])
def test_figures_name_the_series_holding_a_value_that_is_not_finite(bad):
    ok = [1.0, 2.0, 3.0]
    with pytest.raises(InputError, match=r"^figure 't' series 'u\*' holds a value that is not finite$"):
        timeseries_svg("t", [0], ["a"], [("u", ok), ("u*", [1.0, bad, 3.0])])
    with pytest.raises(InputError, match=r"^figure 'b' log vacancies holds a value that is not finite$"):
        scatter_fit_svg("b", ok, [1.0, bad, 3.0], slope=-1.0, intercept=0.0)
