import pytest

from ugap.errors import ConfigError
from ugap.fitting import ElasticityEstimate
from ugap.gap import gap_series, implied_zeta_series, sensitivity
from ugap.ingest import LaborMarketPanel
from ugap.quarters import parse_quarter, quarter_label
from ugap.regimes import Regime, RegimeTable, build_schedule

EXPECTED_SUBPERIODS = [
    ("1951Q1", "1959Q2"),
    ("1959Q4", "1971Q1"),
    ("1971Q3", "1975Q1"),
    ("1975Q3", "1987Q3"),
    ("1990Q1", "1999Q1"),
    ("2001Q1", "2009Q3"),
    ("2010Q1", "2019Q4"),
]


def make_estimate(label, epsilon=1.0, log_v0=-6.0):
    return ElasticityEstimate(label, epsilon, log_v0, 0.05, 0.93, 40)


def regime(label, start, end):
    return Regime(label, parse_quarter(start), parse_quarter(end))


def quarters(start, end):
    return range(parse_quarter(start), parse_quarter(end) + 1)


def entries(schedule):
    """(epsilon, regime label, flag) per quarter."""
    columns = (schedule.epsilon, schedule.regime_label, schedule.is_gap_quarter)
    return list(zip(*(c.tolist() for c in columns)))


def test_default_table_matches_the_seven_subperiods(regime_table):
    spans = [(quarter_label(r.start), quarter_label(r.end)) for r in regime_table]
    assert spans == EXPECTED_SUBPERIODS
    for a, b in zip(regime_table.regimes, regime_table.regimes[1:]):
        assert a.end < b.start


def test_assign_regime(regime_table, estimates):
    probes = [parse_quarter(q) for q in ("2015Q2", "1959Q3", "1950Q4")]
    schedule = build_schedule(regime_table, estimates, probes)
    assert schedule.regime_label.tolist() == ["2010Q1-2019Q4", "1951Q1-1959Q2", "1951Q1-1959Q2"]
    assert schedule.is_gap_quarter.tolist() == [False, True, True]


def test_table_validation():
    with pytest.raises(ConfigError):
        regime("backwards", "1960Q1", "1959Q1")
    with pytest.raises(ConfigError):
        RegimeTable(
            (
                regime("a", "1951Q1", "1960Q1"),
                regime("b", "1960Q1", "1970Q1"),
            )
        )
    with pytest.raises(ConfigError):
        RegimeTable(
            (
                regime("late", "1970Q1", "1975Q1"),
                regime("early", "1951Q1", "1960Q1"),
            )
        )


def test_from_lines_parses_and_skips_comments():
    table = RegimeTable.from_lines(["# comment", "fifties,1951Q1,1959Q2", ""])
    assert table.regimes == (regime("fifties", "1951Q1", "1959Q2"),)


class TestSchedule:
    @pytest.fixture
    def table(self):
        return RegimeTable(
            (
                regime("early", "1951Q1", "1959Q2"),
                regime("late", "1959Q4", "1971Q1"),
            )
        )

    @pytest.fixture
    def estimates(self):
        return [make_estimate("early", 0.9, -6.1), make_estimate("late", 1.1, -6.5)]

    def test_one_entry_per_quarter_in_order(self, table, estimates):
        schedule = build_schedule(table, estimates, quarters("1959Q1", "1960Q1"))
        assert [(label, flag) for _, label, flag in entries(schedule)] == [
            ("early", False),  # 1959Q1
            ("early", False),  # 1959Q2
            ("early", True),  # 1959Q3, between the regimes
            ("late", False),  # 1959Q4
            ("late", False),  # 1960Q1
        ]

    def test_gap_quarter_carries_forward(self, table, estimates):
        schedule = build_schedule(table, estimates, quarters("1959Q1", "1960Q1"))
        _, last_inside, gap, _, _ = entries(schedule)
        assert gap == (0.9, "early", True)
        # carry-forward equals the last in-regime quarter's entry
        assert gap[:2] == last_inside[:2]

    def test_interior_quarter_not_flagged(self, table, estimates):
        (entry,) = entries(build_schedule(table, estimates, [parse_quarter("1960Q1")]))
        assert entry == (1.1, "late", False)

    def test_quarters_before_first_regime_borrow_and_flag(self, table, estimates):
        (entry,) = entries(build_schedule(table, estimates, [parse_quarter("1950Q1")]))
        assert entry == (0.9, "early", True)

    def test_single_regime_schedule_is_constant(self, estimates):
        table = RegimeTable((regime("early", "1951Q1", "1959Q2"),))
        run = quarters("1951Q1", "1952Q4")
        schedule = build_schedule(table, estimates[:1], run)
        assert len(schedule) == len(run)
        assert set(entries(schedule)) == {(0.9, "early", False)}

    def test_missing_estimate_rejected(self, table):
        with pytest.raises(ConfigError, match="late"):
            build_schedule(table, [make_estimate("early")], [parse_quarter("1951Q1")])

    def test_misaligned_schedule_fails(self, table, estimates):
        panel = LaborMarketPanel(quarters("1951Q1", "1951Q2"), [0.05] * 2, [0.03] * 2)
        for n_entries in (1, 3):
            schedule = build_schedule(table, estimates, quarters("1951Q1", f"1951Q{n_entries}"))
            for series in (
                lambda: gap_series(panel, schedule, 0.72, 0.25),
                lambda: sensitivity(panel, schedule, 0.72, (0.25,)),
                lambda: implied_zeta_series(panel, schedule, 0.72),
            ):
                with pytest.raises(ValueError, match=f"schedule has {n_entries} quarters"):
                    series()


def test_schedule_equals_estimate_inside_regimes(panel, regime_table, estimates, schedule):
    by_label = {e.label: e for e in estimates}
    assert len(schedule) == len(panel)
    for q, (epsilon, label, _) in zip(panel.quarters.tolist(), entries(schedule)):
        inside = [r for r in regime_table if r.start <= q <= r.end]
        if not inside:
            continue
        (containing,) = inside
        assert epsilon == by_label[containing.label].epsilon
        assert label == containing.label


def test_bundled_schedule_flags_shift_quarters(panel, schedule):
    flagged = [quarter_label(q) for q in panel.quarters[schedule.is_gap_quarter].tolist()]
    # 1959Q3, 1971Q2, 1975Q2, 1987Q4-1989Q4, 1999Q2-2000Q4, 2009Q4
    assert len(flagged) == 1 + 1 + 1 + 9 + 7 + 1
    assert "1959Q3" in flagged and "2009Q4" in flagged
    last_inside = None
    for epsilon, _, flag in entries(schedule):
        if not flag:
            last_inside = epsilon
        elif last_inside is not None:
            assert epsilon == last_inside
