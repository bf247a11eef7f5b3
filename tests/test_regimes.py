import pytest

from ugap.errors import ConfigError
from ugap.fitting import ElasticityEstimate
from ugap.gap import gap_series, implied_zeta_series, sensitivity
from ugap.ingest import LaborMarketPanel
from ugap.quarters import Quarter, quarter_range
from ugap.regimes import Regime, RegimeTable, assign_regime, build_schedule

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


def test_default_table_matches_the_seven_subperiods(regime_table):
    spans = [(str(r.start), str(r.end)) for r in regime_table]
    assert spans == EXPECTED_SUBPERIODS
    for a, b in zip(regime_table.regimes, regime_table.regimes[1:]):
        assert a.end < b.start


def test_assign_regime(regime_table):
    hit = assign_regime(Quarter(2015, 2), regime_table)
    assert hit is not None and str(hit.start) == "2010Q1"
    assert assign_regime(Quarter(1959, 3), regime_table) is None
    assert assign_regime(Quarter(1950, 4), regime_table) is None


def test_table_validation():
    with pytest.raises(ConfigError):
        Regime("backwards", Quarter(1960, 1), Quarter(1959, 1))
    with pytest.raises(ConfigError):
        RegimeTable(
            (
                Regime("a", Quarter(1951, 1), Quarter(1960, 1)),
                Regime("b", Quarter(1960, 1), Quarter(1970, 1)),
            )
        )
    with pytest.raises(ConfigError):
        RegimeTable(
            (
                Regime("late", Quarter(1970, 1), Quarter(1975, 1)),
                Regime("early", Quarter(1951, 1), Quarter(1960, 1)),
            )
        )


def test_from_lines_parses_and_skips_comments():
    table = RegimeTable.from_lines(["# comment", "fifties,1951Q1,1959Q2", ""])
    assert table.regimes[0].label == "fifties"


class TestSchedule:
    @pytest.fixture
    def table(self):
        return RegimeTable(
            (
                Regime("early", Quarter(1951, 1), Quarter(1959, 2)),
                Regime("late", Quarter(1959, 4), Quarter(1971, 1)),
            )
        )

    @pytest.fixture
    def estimates(self):
        return [make_estimate("early", 0.9, -6.1), make_estimate("late", 1.1, -6.5)]

    def test_one_entry_per_quarter_in_order(self, table, estimates):
        quarters = quarter_range(Quarter(1959, 1), Quarter(1960, 1))
        schedule = build_schedule(table, estimates, quarters)
        assert [(e.regime_label, e.is_gap_quarter) for e in schedule] == [
            ("early", False),  # 1959Q1
            ("early", False),  # 1959Q2
            ("early", True),  # 1959Q3, between the regimes
            ("late", False),  # 1959Q4
            ("late", False),  # 1960Q1
        ]

    def test_gap_quarter_carries_forward(self, table, estimates):
        quarters = quarter_range(Quarter(1959, 1), Quarter(1960, 1))
        _, last_inside, gap, _, _ = build_schedule(table, estimates, quarters)
        assert gap.is_gap_quarter
        assert gap.epsilon == 0.9 and gap.regime_label == "early"
        # carry-forward equals the last in-regime quarter's entry
        assert (gap.epsilon, gap.regime_label) == (last_inside.epsilon, last_inside.regime_label)

    def test_interior_quarter_not_flagged(self, table, estimates):
        (entry,) = build_schedule(table, estimates, [Quarter(1960, 1)])
        assert not entry.is_gap_quarter
        assert entry.epsilon == 1.1

    def test_quarters_before_first_regime_borrow_and_flag(self, table, estimates):
        (entry,) = build_schedule(table, estimates, [Quarter(1950, 1)])
        assert entry.is_gap_quarter and entry.epsilon == 0.9

    def test_single_regime_schedule_is_constant(self, estimates):
        table = RegimeTable((Regime("early", Quarter(1951, 1), Quarter(1959, 2)),))
        quarters = quarter_range(Quarter(1951, 1), Quarter(1952, 4))
        schedule = build_schedule(table, estimates[:1], quarters)
        assert len(schedule) == len(quarters)
        assert {(e.epsilon, e.regime_label) for e in schedule} == {(0.9, "early")}

    def test_missing_estimate_rejected(self, table):
        with pytest.raises(ConfigError, match="late"):
            build_schedule(table, [make_estimate("early")], [Quarter(1951, 1)])

    def test_misaligned_schedule_fails(self, table, estimates):
        quarters = [Quarter(1951, 1), Quarter(1951, 2)]
        panel = LaborMarketPanel(tuple(quarters), [0.05] * 2, [0.03] * 2)
        for n_entries in (1, 3):
            schedule = build_schedule(
                table, estimates, quarter_range(Quarter(1951, 1), Quarter(1951, n_entries))
            )
            for series in (
                lambda: gap_series(panel, schedule, 0.72, 0.25),
                lambda: sensitivity(panel, schedule, 0.72, (0.25,)),
                lambda: implied_zeta_series(panel, schedule, 0.72),
            ):
                with pytest.raises(ValueError, match="zip"):
                    series()


def test_schedule_equals_estimate_inside_regimes(panel, regime_table, estimates, schedule):
    by_label = {e.label: e for e in estimates}
    assert len(schedule) == len(panel)
    for q, entry in zip(panel.quarters, schedule):
        regime = assign_regime(q, regime_table)
        if regime is None:
            continue
        assert entry.epsilon == by_label[regime.label].epsilon
        assert entry.regime_label == regime.label


def test_bundled_schedule_flags_shift_quarters(panel, schedule):
    quarters = panel.quarters
    flagged = [q for q, entry in zip(quarters, schedule) if entry.is_gap_quarter]
    # 1959Q3, 1971Q2, 1975Q2, 1987Q4-1989Q4, 1999Q2-2000Q4, 2009Q4
    assert len(flagged) == 1 + 1 + 1 + 9 + 7 + 1
    assert Quarter(1959, 3) in flagged and Quarter(2009, 4) in flagged
    last_inside = None
    for entry in schedule:
        if not entry.is_gap_quarter:
            last_inside = entry
        elif last_inside is not None:
            assert entry.epsilon == last_inside.epsilon
