from statistics import mean

import pytest

from ugap.errors import InputError
from ugap.config import parse_table
from ugap.ingest import (
    LaborMarketPanel,
    Series,
    build_panel,
    parse_series_csv,
    splice_jump,
    splice_vacancy,
    to_quarterly,
)
from ugap.quarters import parse_quarter, parse_quarters, quarter_label


def qs(*points):
    """A quarterly series from (YYYYQn, value) pairs."""
    return Series([parse_quarter(q) for q, _ in points], [v for _, v in points])


def months(year, values, first_month=1):
    """A month series of consecutive values starting at year-first_month."""
    start = 12 * year + first_month - 1
    return Series(range(start, start + len(values)), values)


def labelled(series):
    return [(quarter_label(q), v) for q, v in zip(series.index.tolist(), series.values.tolist())]


class TestParseSeries:
    def test_percent_conversion(self):
        series = parse_series_csv("date,value\n1951-01,3.7\n", "percent")
        assert series.index.tolist() == [12 * 1951]
        assert series.values[0] == pytest.approx(0.037, rel=1e-12)

    def test_fraction_passthrough(self):
        series = parse_series_csv("date,value\n1951-01,0.037\n", "fraction")
        assert series.values[0] == 0.037

    def test_duplicate_date_rejected(self):
        with pytest.raises(InputError, match="line 3: duplicate date 1951-01"):
            parse_series_csv("date,value\n1951-01,3.7\n1951-01,3.8\n", "percent")
        text = "date,value\n1951-03,1\n1951-02,1\n1951-01,1\n1951-02,1\n1951-03,1\n"
        with pytest.raises(InputError, match="line 5: duplicate date 1951-02"):
            parse_series_csv(text, "percent")
        with pytest.raises(InputError, match="^series line 3: duplicate date 0999-01$"):
            parse_series_csv("date,value\n0999-01,3.7\n0999-01,3.8\n", "percent")

    def test_rows_sorted_ascending(self):
        text = "date,value\n1951-03,3.0\n1951-01,1.0\n1951-02,2.0\n"
        series = parse_series_csv(text, "percent")
        assert series.index.tolist() == [12 * 1951, 12 * 1951 + 1, 12 * 1951 + 2]
        assert series.values.tolist() == [0.01, 0.02, 0.03]

    def test_malformed_row_reports_line_number(self):
        with pytest.raises(InputError, match="line 3"):
            parse_series_csv("date,value\n1951-01,3.7\n1951/02,3.8\n", "percent")

    def test_negative_value_rejected(self):
        with pytest.raises(InputError, match="^series line 2: negative rate -3.7 at 1951-01$"):
            parse_series_csv("date,value\n1951-01,-3.7\n", "percent")
        with pytest.raises(InputError, match="^series line 2: negative rate -3.7 at 0999-01$"):
            parse_series_csv("date,value\n0999-01,-3.7\n", "percent")

    @pytest.mark.parametrize(
        "text,expected",
        [
            pytest.param("1951-01,3.7\n", [(12 * 1951, 3.7)], id="no-header"),
            pytest.param("date,value\n# note\n1951-01,3.7\n", [(12 * 1951, 3.7)], id="comment"),
            pytest.param("", [], id="empty"),
            pytest.param("month,rate\n1951-01,3.7\n", "series line 1: bad date 'month', expected YYYY-MM", id="month-rate"),
            pytest.param('date,value\n"1951-05",3.7\n', "series line 2: bad date '\"1951-05\"', expected YYYY-MM", id="quoted-date"),
            pytest.param("date,value\n1951-01,3.7,x\n", "series line 2: expected 'date,value'", id="third-field"),
        ],
    )
    def test_series_grammar(self, text, expected):
        """A series has the grammar of every other table: a header only on its first line, comments, no quotes."""
        if isinstance(expected, str):
            with pytest.raises(InputError) as exc:
                parse_series_csv(text)
            assert str(exc.value) == expected
        else:
            series = parse_series_csv(text)
            assert list(zip(series.index.tolist(), series.values.tolist())) == expected

    def test_unknown_unit_rejected(self):
        with pytest.raises(InputError, match="^unknown value unit 'bps'$"):
            parse_series_csv("date,value\n1951-01,3.7\n", "bps")


class TestToQuarterly:
    def test_mean_of_three_months(self):
        quarterly, dropped = to_quarterly(months(1990, [0.04, 0.05, 0.06]))
        assert dropped == []
        assert labelled(quarterly) == [("1990Q1", pytest.approx(0.05))]

    def test_incomplete_quarter_dropped_and_reported(self):
        quarterly, dropped = to_quarterly(months(1990, [0.04, 0.05]))
        assert len(quarterly) == 0
        assert dropped == [(parse_quarter("1990Q1"), 2)]

    def test_year_of_synthetic_months_matches_hand_means(self):
        values = [0.030, 0.032, 0.034, 0.040, 0.044, 0.042, 0.050, 0.055, 0.045, 0.06, 0.06, 0.06]
        quarterly, dropped = to_quarterly(months(1990, values))
        expected = [mean(values[i : i + 3]) for i in range(0, 12, 3)]
        assert dropped == []
        assert quarterly.values.tolist() == pytest.approx(expected)

    def test_constant_series_roundtrip(self):
        for c in (0.013, 0.04, 0.097):
            quarterly, _ = to_quarterly(months(2000, [c] * 12))
            assert all(x == pytest.approx(c, abs=1e-15) for x in quarterly.values.tolist())


class TestSplice:
    def test_switches_source_at_cutover(self):
        pre = qs(("2000Q3", 0.040), ("2000Q4", 0.041))
        post = qs(("2001Q1", 0.037), ("2001Q2", 0.036))
        spliced = splice_vacancy(pre, post, parse_quarter("2001Q1"))
        assert labelled(spliced) == [
            ("2000Q3", 0.040),
            ("2000Q4", 0.041),
            ("2001Q1", 0.037),
            ("2001Q2", 0.036),
        ]

    def test_post_wins_on_overlap(self):
        pre = qs(("2000Q4", 0.041), ("2001Q1", 0.099))
        post = qs(("2001Q1", 0.037))
        spliced = splice_vacancy(pre, post, parse_quarter("2001Q1"))
        assert spliced.values.tolist() == [0.041, 0.037]

    def test_piecewise_identity(self):
        pre = qs(*((f"2000Q{i}", 0.04 + i / 100) for i in range(1, 5)))
        post = qs(("2001Q1", 0.03), ("2001Q2", 0.031))
        cut = parse_quarter("2001Q1")
        spliced = splice_vacancy(pre, post, cut)
        for q, value in zip(spliced.index.tolist(), spliced.values.tolist()):
            source = post if q >= cut else pre
            assert value == source.values[source.index.tolist().index(q)]

    def test_gap_at_cutover_rejected(self):
        pre = qs(("2000Q3", 0.040))
        post = qs(("2001Q1", 0.037))
        message = "spliced series has a gap: 2000Q4 missing between 2000Q3 and 2001Q1"
        with pytest.raises(InputError, match=message):
            splice_vacancy(pre, post, parse_quarter("2001Q1"))

    def test_missing_cutover_quarter_rejected(self):
        pre = qs(("2000Q4", 0.041))
        post = qs(("2001Q2", 0.036))
        with pytest.raises(InputError, match="does not cover the cutover quarter 2001Q1"):
            splice_vacancy(pre, post, parse_quarter("2001Q1"))

    def test_jump_audit(self):
        pre = qs(("2000Q4", 0.040))
        post = qs(("2001Q1", 0.037))
        assert splice_jump(pre, post, parse_quarter("2001Q1")) == (0.040, 0.037)
        with pytest.raises(InputError, match="cannot audit splice at 2001Q2"):
            splice_jump(pre, post, parse_quarter("2001Q2"))

    @pytest.mark.parametrize("last", [0.0, 5e-324])
    def test_jump_from_a_vanishing_pre_value_names_its_quarter(self, last):
        pre = qs(("2000Q3", 0.040), ("2000Q4", last))
        post = qs(("2001Q1", 0.037))
        message = f"^cannot audit splice at 2001Q1: last pre value {last} at 2000Q4 gives no finite jump$"
        with pytest.raises(InputError, match=message):
            splice_jump(pre, post, parse_quarter("2001Q1"))


class TestBuildPanel:
    def test_direct_arithmetic(self):
        panel = build_panel(qs(("1997Q1", 0.05)), qs(("1997Q1", 0.03)))
        assert panel.theta[0] == pytest.approx(0.6)
        assert panel.n[0] == pytest.approx(0.95)

    def test_annual_average_tightness(self):
        panel = build_panel(qs(("1997Q1", 0.049)), qs(("1997Q1", 0.033)))
        assert panel.theta[0] == pytest.approx(0.673, abs=5e-4)

    def test_disjoint_quarters_rejected(self):
        with pytest.raises(InputError, match="^unemployment and vacancy series share no quarters$"):
            build_panel(qs(("1997Q1", 0.05)), qs(("1998Q1", 0.03)))

    def test_zero_rate_names_quarter(self):
        with pytest.raises(InputError, match="zero rate at 1997Q1: u=0.0, v=0.03"):
            build_panel(qs(("1997Q1", 0.0)), qs(("1997Q1", 0.03)))
        u = qs(("1997Q1", 0.05), ("1997Q2", 1.5))
        with pytest.raises(InputError, match="rate at 1997Q2 is not a fraction: u=1.5"):
            build_panel(u, qs(("1997Q1", 0.03), ("1997Q2", 0.03)))

    def test_overflowing_tightness_names_quarter(self):
        u = qs(("1997Q1", 0.05), ("1997Q2", 5e-324), ("1997Q3", 0.0))
        v = qs(("1997Q1", 0.03), ("1997Q2", 0.03), ("1997Q3", 0.03))
        with pytest.raises(InputError, match="tightness v/u at 1997Q2 overflows: u=5e-324, v=0.03"):
            build_panel(u, v)

    def test_empty_series_rejected(self):
        with pytest.raises(InputError, match="^cannot build panel from an empty series$"):
            build_panel(qs(), qs(("1997Q1", 0.03)))


def test_bundled_panel_identities(panel):
    assert len(panel) == 276
    for theta, u, v, n in zip(panel.theta, panel.u, panel.v, panel.n):
        assert abs(theta * u - v) < 1e-12
        assert abs(n + u - 1.0) < 1e-15
    quarters = panel.quarters.tolist()
    assert quarters == sorted(quarters)
    assert len(set(quarters)) == len(quarters)


def test_panel_csv_roundtrip(panel):
    (quarters, u, v, _, _), faults = parse_table(panel.to_csv(), ("quarter", "u", "v", "theta", "n"), "panel")
    index = parse_quarters(quarters, faults)
    faults.raise_first()
    again = LaborMarketPanel(index, [float(x) for x in u], [float(x) for x in v])
    assert again.quarters.tolist() == panel.quarters.tolist()
    for column in ("u", "v"):
        for a, b in zip(getattr(again, column), getattr(panel, column)):
            assert a == pytest.approx(b, rel=1e-7)


@pytest.mark.parametrize(
    "start,end",
    [("1950Q1", "1951Q2"), ("1959Q3", "1959Q3"), ("2019Q1", "2030Q1"), ("1980Q1", "1979Q4")],
)
def test_between_matches_a_scan(panel, start, end):
    s, e = parse_quarter(start), parse_quarter(end)
    inside = [i for i, q in enumerate(panel.quarters) if s <= q <= e]
    sub = panel.between(s, e)
    assert sub.quarters.tolist() == [panel.quarters[i] for i in inside]
    assert sub.u.tolist() == [panel.u[i] for i in inside]
    assert sub.v.tolist() == [panel.v[i] for i in inside]
