"""The column writers against per-row f-string references.

write_quarter_rows formats a table with one %-template; the
references below write one f-string per row, as the writers once did.
Both must give the same bytes for any float64 value, including ties at
the eighth significant digit, signed zeros and overflowing ratios.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ugap.gap import (
    EFFICIENT,
    INEFFICIENTLY_SLACK,
    INEFFICIENTLY_TIGHT,
    GapSeries,
    write_gap_csv,
    write_implied_zeta_csv,
    write_sensitivity_csv,
    zeta_tag,
)
from ugap.ingest import LaborMarketPanel
from ugap.quarters import quarter_label, write_quarter_rows
from ugap.regimes import Schedule

# exact binary values whose ninth significant digit is a 5, so %.8g rounds a tie
eight_digits = st.integers(10**7, 10**8 - 1)
ties = st.one_of(eight_digits.map(lambda n: n + 0.5), eight_digits.map(lambda n: 10.0 * n + 5.0))
positive = st.one_of(st.floats(1e-300, 1e300), ties)
value = st.one_of(positive, positive.map(lambda x: -x), st.sampled_from([0.0, -0.0]))
quarter = st.integers(4 * 1000, 4 * 9999 + 3)


@st.composite
def tables(draw, min_rows=1, max_rows=12):
    """(quarters, u, v, columns of any value, classification labels, 0/1 flags)."""
    n = draw(st.integers(min_rows, max_rows))

    def column(elements):
        return np.array(draw(st.lists(elements, min_size=n, max_size=n)))

    labels = st.sampled_from([INEFFICIENTLY_SLACK, INEFFICIENTLY_TIGHT, EFFICIENT])
    return (
        column(quarter).astype(np.int64),
        column(positive),
        column(positive),
        [column(value) for _ in range(5)],
        column(labels),
        column(st.booleans()),
    )


def reference_panel_csv(panel):
    lines = ["quarter,u,v,theta,n\n"]
    columns = (panel.quarters, panel.u, panel.v, panel.theta, panel.n)
    for q, u, v, theta, n in zip(*(c.tolist() for c in columns)):
        lines.append(f"{quarter_label(q)},{u:.8g},{v:.8g},{theta:.8g},{n:.8g}\n")
    return "".join(lines)


def reference_gap_csv(panel, schedule, s):
    lines = ["quarter,u,v,theta,epsilon,u_star,theta_star,gap,classification,is_gap_quarter\n"]
    columns = (
        panel.quarters, panel.u, panel.v, panel.theta, schedule.epsilon, s.u_star, s.theta_star,
        s.gap, s.classification, schedule.is_gap_quarter,
    )
    for q, u, v, theta, eps, u_star, theta_star, gap, label, flag in zip(*(c.tolist() for c in columns)):
        lines.append(
            f"{quarter_label(q)},{u:.8g},{v:.8g},{theta:.8g},{eps:.8g},"
            f"{u_star:.8g},{theta_star:.8g},{gap:.8g},{label},{int(flag)}\n"
        )
    return "".join(lines)


def reference_sensitivity_csv(pairs, panel):
    tags = ",".join(f"u_star_{zeta_tag(z)}" for z, _ in pairs)
    lines = [f"quarter,u,{tags}\n"]
    columns = [u_star.tolist() for _, u_star in pairs]
    for q, u, *u_stars in zip(panel.quarters.tolist(), panel.u.tolist(), *columns):
        cols = ",".join(f"{x:.8g}" for x in u_stars)
        lines.append(f"{quarter_label(q)},{u:.8g},{cols}\n")
    return "".join(lines)


def reference_implied_zeta_csv(panel, schedule, zeta_star):
    lines = ["quarter,theta,epsilon,zeta_star\n"]
    columns = (panel.quarters, panel.theta, schedule.epsilon, zeta_star)
    for q, theta, eps, zs in zip(*(c.tolist() for c in columns)):
        lines.append(f"{quarter_label(q)},{theta:.8g},{eps:.8g},{zs:.8g}\n")
    return "".join(lines)


@settings(derandomize=True, database=None, deadline=None, max_examples=100)
@given(tables(min_rows=0), st.integers(0, 5))
def test_row_writer_matches_per_row_format(table, width):
    quarters, _u, _v, columns, labels, flags = table
    columns = columns[:width]
    template = ",".join(["%.8g"] * width + ["%s", "%d"])
    text = write_quarter_rows("h", quarters, template, [*columns, labels, flags])
    rows = zip(quarters.tolist(), *(c.tolist() for c in columns), labels.tolist(), flags.tolist())
    expected = "".join(
        f"{quarter_label(q)},{''.join(f'{x:.8g},' for x in xs)}{label},{int(flag)}\n"
        for q, *xs, label, flag in rows
    )
    assert text == "h\n" + expected


@settings(derandomize=True, database=None, deadline=None, max_examples=100)
@given(tables(), st.lists(st.floats(-1e6, 0.99), min_size=1, max_size=4))
def test_csv_writers_match_per_row_references(table, zetas):
    quarters, u, v, (epsilon, u_star, theta_star, gap, zeta_star), labels, flags = table
    panel = LaborMarketPanel(quarters, u, v)
    series = GapSeries(u_star, theta_star, gap, labels)
    # each zeta's column is a rotation of the u* column, so the columns differ
    pairs = [(z, np.roll(u_star, i)) for i, z in enumerate(zetas)]
    schedule = Schedule(epsilon, theta_star, flags)  # the writers read no kappa, so any column will do
    with np.errstate(over="ignore"):  # theta = v / u may overflow to inf, which both write alike
        assert panel.to_csv() == reference_panel_csv(panel)
        assert write_gap_csv(panel, schedule, series) == reference_gap_csv(panel, schedule, series)
        assert write_sensitivity_csv(pairs, panel) == reference_sensitivity_csv(pairs, panel)
        assert write_implied_zeta_csv(panel, schedule, zeta_star) == reference_implied_zeta_csv(
            panel, schedule, zeta_star
        )


@pytest.mark.parametrize("n", [1023, 1024, 1025, 3000])
def test_writers_match_across_row_blocks(n):
    # write_quarter_rows formats 1024 rows at a time; every block must join up
    rng = np.random.default_rng(n)
    quarters = np.arange(4 * 1951, 4 * 1951 + n)
    panel = LaborMarketPanel(quarters, rng.uniform(0.02, 0.1, n), rng.uniform(0.01, 0.07, n))
    labels = rng.choice([INEFFICIENTLY_SLACK, INEFFICIENTLY_TIGHT, EFFICIENT], n)
    epsilon, *columns = rng.normal(0.0, 1.0, (4, n))
    series = GapSeries(*columns, labels)
    schedule = Schedule(epsilon, epsilon, rng.random(n) < 0.1)  # the writer reads no kappa, so any column will do
    assert panel.to_csv() == reference_panel_csv(panel)
    assert write_gap_csv(panel, schedule, series) == reference_gap_csv(panel, schedule, series)
