import io
from statistics import mean

import pytest

from ugap.errors import (
    AlignmentError,
    CoverageError,
    DomainError,
    DuplicateKeyError,
    ParseError,
)
from ugap.ingest import (
    MonthlyPoint,
    QuarterlyPoint,
    build_panel,
    panel_from_csv,
    parse_series_csv,
    splice_jump,
    splice_vacancy,
    to_quarterly,
)
from ugap.quarters import Quarter


def qp(label, value):
    return QuarterlyPoint(Quarter.parse(label), value)


class TestParseSeries:
    def test_percent_conversion(self):
        points = parse_series_csv("date,value\n1951-01,3.7\n", "percent")
        assert [(p.year, p.month) for p in points] == [(1951, 1)]
        assert points[0].value == pytest.approx(0.037, rel=1e-12)

    def test_fraction_passthrough(self):
        points = parse_series_csv("date,value\n1951-01,0.037\n", "fraction")
        assert points[0].value == 0.037

    def test_duplicate_date_rejected(self):
        with pytest.raises(DuplicateKeyError):
            parse_series_csv("date,value\n1951-01,3.7\n1951-01,3.8\n", "percent")

    def test_rows_sorted_ascending(self):
        text = "date,value\n1951-03,3.0\n1951-01,1.0\n1951-02,2.0\n"
        points = parse_series_csv(text, "percent")
        hand_sorted = [(1951, 1, 0.01), (1951, 2, 0.02), (1951, 3, 0.03)]
        assert [(p.year, p.month, p.value) for p in points] == hand_sorted

    def test_malformed_row_reports_line_number(self):
        with pytest.raises(ParseError, match="line 3"):
            parse_series_csv("date,value\n1951-01,3.7\n1951/02,3.8\n", "percent")

    def test_negative_value_rejected(self):
        with pytest.raises(DomainError):
            parse_series_csv("date,value\n1951-01,-3.7\n", "percent")

    def test_header_required(self):
        with pytest.raises(ParseError):
            parse_series_csv("month,rate\n1951-01,3.7\n", "percent")

    def test_unknown_unit_rejected(self):
        with pytest.raises(ParseError):
            parse_series_csv("date,value\n1951-01,3.7\n", "bps")


class TestToQuarterly:
    def test_mean_of_three_months(self):
        points = [MonthlyPoint(1990, m, v) for m, v in ((1, 0.04), (2, 0.05), (3, 0.06))]
        quarterly, dropped = to_quarterly(points)
        assert dropped == []
        assert quarterly == [QuarterlyPoint(Quarter(1990, 1), pytest.approx(0.05))]

    def test_incomplete_quarter_dropped_and_reported(self):
        points = [MonthlyPoint(1990, 1, 0.04), MonthlyPoint(1990, 2, 0.05)]
        quarterly, dropped = to_quarterly(points)
        assert quarterly == []
        assert dropped == [(Quarter(1990, 1), 2)]

    def test_year_of_synthetic_months_matches_hand_means(self):
        values = [0.030, 0.032, 0.034, 0.040, 0.044, 0.042, 0.050, 0.055, 0.045, 0.06, 0.06, 0.06]
        points = [MonthlyPoint(1990, m + 1, v) for m, v in enumerate(values)]
        quarterly, dropped = to_quarterly(points)
        expected = [mean(values[i : i + 3]) for i in range(0, 12, 3)]
        assert dropped == []
        assert [p.value for p in quarterly] == pytest.approx(expected)

    def test_constant_series_roundtrip(self):
        for c in (0.013, 0.04, 0.097):
            points = [MonthlyPoint(2000, m, c) for m in range(1, 13)]
            quarterly, _ = to_quarterly(points)
            assert all(p.value == pytest.approx(c, abs=1e-15) for p in quarterly)


class TestSplice:
    def test_switches_source_at_cutover(self):
        pre = [qp("2000Q3", 0.040), qp("2000Q4", 0.041)]
        post = [qp("2001Q1", 0.037), qp("2001Q2", 0.036)]
        spliced = splice_vacancy(pre, post, Quarter(2001, 1))
        assert [(str(p.quarter), p.value) for p in spliced] == [
            ("2000Q3", 0.040),
            ("2000Q4", 0.041),
            ("2001Q1", 0.037),
            ("2001Q2", 0.036),
        ]

    def test_post_wins_on_overlap(self):
        pre = [qp("2000Q4", 0.041), qp("2001Q1", 0.099)]
        post = [qp("2001Q1", 0.037)]
        spliced = splice_vacancy(pre, post, Quarter(2001, 1))
        assert [p.value for p in spliced] == [0.041, 0.037]

    def test_piecewise_identity(self):
        pre = [qp(f"2000Q{i}", 0.04 + i / 100) for i in range(1, 5)]
        post = [qp("2001Q1", 0.03), qp("2001Q2", 0.031)]
        cut = Quarter(2001, 1)
        spliced = splice_vacancy(pre, post, cut)
        for p in spliced:
            source = post if p.quarter >= cut else pre
            assert p.value == next(s.value for s in source if s.quarter == p.quarter)

    def test_gap_at_cutover_rejected(self):
        pre = [qp("2000Q3", 0.040)]
        post = [qp("2001Q1", 0.037)]
        with pytest.raises(CoverageError, match="2000Q4"):
            splice_vacancy(pre, post, Quarter(2001, 1))

    def test_missing_cutover_quarter_rejected(self):
        pre = [qp("2000Q4", 0.041)]
        post = [qp("2001Q2", 0.036)]
        with pytest.raises(CoverageError):
            splice_vacancy(pre, post, Quarter(2001, 1))

    def test_jump_audit(self):
        pre = [qp("2000Q4", 0.040)]
        post = [qp("2001Q1", 0.037)]
        assert splice_jump(pre, post, Quarter(2001, 1)) == (0.040, 0.037)


class TestBuildPanel:
    def test_direct_arithmetic(self):
        panel = build_panel([qp("1997Q1", 0.05)], [qp("1997Q1", 0.03)])
        assert panel.theta[0] == pytest.approx(0.6)
        assert panel.n[0] == pytest.approx(0.95)

    def test_annual_average_tightness(self):
        panel = build_panel([qp("1997Q1", 0.049)], [qp("1997Q1", 0.033)])
        assert panel.theta[0] == pytest.approx(0.673, abs=5e-4)

    def test_disjoint_quarters_rejected(self):
        with pytest.raises(AlignmentError):
            build_panel([qp("1997Q1", 0.05)], [qp("1998Q1", 0.03)])

    def test_zero_rate_names_quarter(self):
        with pytest.raises(DomainError, match="1997Q1"):
            build_panel([qp("1997Q1", 0.0)], [qp("1997Q1", 0.03)])

    def test_empty_series_rejected(self):
        with pytest.raises(AlignmentError):
            build_panel([], [qp("1997Q1", 0.03)])


def test_bundled_panel_identities(panel):
    assert len(panel) == 276
    for theta, u, v, n in zip(panel.theta, panel.u, panel.v, panel.n):
        assert abs(theta * u - v) < 1e-12
        assert abs(n + u - 1.0) < 1e-15
    quarters = list(panel.quarters)
    assert quarters == sorted(quarters)
    assert len(set(quarters)) == len(quarters)


def test_panel_csv_roundtrip(panel):
    buf = io.StringIO()
    panel.to_csv(buf)
    again = panel_from_csv(buf.getvalue())
    assert again.quarters == panel.quarters
    for column in ("u", "v"):
        for a, b in zip(getattr(again, column), getattr(panel, column)):
            assert a == pytest.approx(b, rel=1e-7)


@pytest.mark.parametrize(
    "start,end",
    [("1950Q1", "1951Q2"), ("1959Q3", "1959Q3"), ("2019Q1", "2030Q1"), ("1980Q1", "1979Q4")],
)
def test_between_matches_a_scan(panel, start, end):
    s, e = Quarter.parse(start), Quarter.parse(end)
    inside = [i for i, q in enumerate(panel.quarters) if s <= q <= e]
    sub = panel.between(s, e)
    assert sub.quarters == tuple(panel.quarters[i] for i in inside)
    assert sub.u.tolist() == [panel.u[i] for i in inside]
    assert sub.v.tolist() == [panel.v[i] for i in inside]
