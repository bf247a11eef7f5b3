import inspect
import math

import pytest

from ugap.errors import InputError
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
    """(epsilon, kappa, flag) per quarter."""
    columns = (schedule.epsilon, schedule.kappa, schedule.is_gap_quarter)
    return list(zip(*(c.tolist() for c in columns)))


def distinct_kappas(table):
    """A kappa override for every regime, no two alike."""
    return {r.label: 0.5 + 0.1 * i for i, r in enumerate(table)}


def test_signatures_take_the_schedule_not_kappa():
    entry_points = (build_schedule, gap_series, sensitivity, implied_zeta_series)
    assert [list(inspect.signature(f).parameters) for f in entry_points] == [
        ["fits", "quarters", "kappa", "kappa_by_regime"],
        ["panel", "schedule", "zeta", "tol"],
        ["panel", "schedule", "zetas"],
        ["panel", "schedule"],
    ]


def test_default_table_matches_the_seven_subperiods(regime_table):
    spans = [(quarter_label(r.start), quarter_label(r.end)) for r in regime_table]
    assert spans == EXPECTED_SUBPERIODS
    for a, b in zip(regime_table.regimes, regime_table.regimes[1:]):
        assert a.end < b.start


def test_assign_regime(regime_table, estimates):
    probes = [parse_quarter(q) for q in ("2015Q2", "1959Q3", "1950Q4")]
    schedule = build_schedule(list(zip(regime_table, estimates)), probes, 0.72, {"2010Q1-2019Q4": 2.0})
    by_label = {e.label: e.epsilon for e in estimates}
    late, early = by_label["2010Q1-2019Q4"], by_label["1951Q1-1959Q2"]
    assert late != early
    assert schedule.epsilon.tolist() == [late, early, early]
    assert schedule.kappa.tolist() == [2.0, 0.72, 0.72]
    assert schedule.is_gap_quarter.tolist() == [False, True, True]


def test_table_validation():
    with pytest.raises(InputError, match="^regime 'backwards' ends before it starts$"):
        regime("backwards", "1960Q1", "1959Q1")
    with pytest.raises(InputError, match="^regimes 'a' and 'b' overlap$"):
        RegimeTable(
            (
                regime("a", "1951Q1", "1960Q1"),
                regime("b", "1960Q1", "1970Q1"),
            )
        )
    with pytest.raises(InputError, match="^regimes must be listed in chronological order$"):
        RegimeTable(
            (
                regime("late", "1970Q1", "1975Q1"),
                regime("early", "1951Q1", "1960Q1"),
            )
        )
    with pytest.raises(InputError, match="^regime 'a' is listed twice$"):
        RegimeTable((regime("a", "1951Q1", "1959Q2"), regime("b", "1960Q1", "1969Q4"), regime("a", "1970Q1", "1979Q4")))


def test_from_text_parses_and_skips_comments():
    table = RegimeTable.from_text("# comment\nfifties,1951Q1,1959Q2\n\n")
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

    # each regime's (epsilon, kappa): early takes the global kappa, late its override
    EARLY, LATE = (0.9, 0.72), (1.1, 2.0)

    def build(self, table, estimates, run):
        return build_schedule(list(zip(table, estimates)), run, 0.72, {"late": 2.0})

    def test_one_entry_per_quarter_in_order(self, table, estimates):
        schedule = self.build(table, estimates, quarters("1959Q1", "1960Q1"))
        assert entries(schedule) == [
            (*self.EARLY, False),  # 1959Q1
            (*self.EARLY, False),  # 1959Q2
            (*self.EARLY, True),  # 1959Q3, between the regimes
            (*self.LATE, False),  # 1959Q4
            (*self.LATE, False),  # 1960Q1
        ]

    def test_gap_quarter_carries_forward(self, table, estimates):
        schedule = self.build(table, estimates, quarters("1959Q1", "1960Q1"))
        _, last_inside, gap, _, _ = entries(schedule)
        assert gap == (*self.EARLY, True)
        # carry-forward equals the last in-regime quarter's entry
        assert gap[:2] == last_inside[:2]

    def test_interior_quarter_not_flagged(self, table, estimates):
        (entry,) = entries(self.build(table, estimates, [parse_quarter("1960Q1")]))
        assert entry == (*self.LATE, False)

    def test_quarters_before_first_regime_borrow_and_flag(self, table, estimates):
        (entry,) = entries(self.build(table, estimates, [parse_quarter("1950Q1")]))
        assert entry == (*self.EARLY, True)

    def test_kappa_override_follows_the_carried_regime(self, table, estimates):
        # 1950Q1 borrows early, 1959Q3 carries early forward, 1972Q1 carries late forward
        probes = [parse_quarter(q) for q in ("1950Q1", "1959Q3", "1972Q1")]
        schedule = build_schedule(list(zip(table, estimates)), probes, 0.72, {"early": 0.3})
        assert entries(schedule) == [(0.9, 0.3, True), (0.9, 0.3, True), (1.1, 0.72, True)]

    @pytest.mark.parametrize("bad", [-1.0, 0.0, math.inf, math.nan])
    @pytest.mark.parametrize("where", ["global", "override"])
    def test_bad_kappa_rejected(self, table, estimates, bad, where):
        kappa, overrides = (bad, None) if where == "global" else (0.72, {"late": bad})
        with pytest.raises(InputError, match="recruiting cost must be positive and finite"):
            build_schedule(list(zip(table, estimates)), quarters("1959Q1", "1960Q1"), kappa, overrides)

    def test_single_regime_schedule_is_constant(self, estimates):
        table = RegimeTable((regime("early", "1951Q1", "1959Q2"),))
        run = quarters("1951Q1", "1952Q4")
        schedule = self.build(table, estimates[:1], run)
        assert len(schedule) == len(run)
        assert set(entries(schedule)) == {(*self.EARLY, False)}

    def test_regime_missing_from_the_pairs_carries_forward_and_flags(self, estimates):
        early, _middle, late = RegimeTable(
            (regime("early", "1951Q1", "1959Q2"), regime("middle", "1959Q4", "1971Q1"), regime("late", "1971Q3", "1975Q1"))
        )
        probes = [parse_quarter(q) for q in ("1959Q2", "1959Q4", "1965Q1", "1971Q1", "1971Q3")]
        # middle has no pair, so its kappa override goes unused
        schedule = build_schedule(list(zip((early, late), estimates)), probes, 0.72, {"middle": 5.0, "late": 2.0})
        assert entries(schedule) == [
            (*self.EARLY, False),  # 1959Q2, the last quarter of early
            (*self.EARLY, True),  # 1959Q4, 1965Q1 and 1971Q1, the quarters of middle
            (*self.EARLY, True),
            (*self.EARLY, True),
            (*self.LATE, False),  # 1971Q3, the first quarter of late
        ]

    def test_no_pairs_rejected(self):
        with pytest.raises(InputError, match="^no fitted regime to build a schedule from$"):
            build_schedule([], [parse_quarter("1951Q1")], 0.72)

    def test_misaligned_schedule_fails(self, table, estimates):
        panel = LaborMarketPanel(quarters("1951Q1", "1951Q2"), [0.05] * 2, [0.03] * 2)
        for n_entries in (1, 3):
            schedule = build_schedule(list(zip(table, estimates)), quarters("1951Q1", f"1951Q{n_entries}"), 0.72)
            for series in (
                lambda: gap_series(panel, schedule, 0.25),
                lambda: sensitivity(panel, schedule, (0.25,)),
                lambda: implied_zeta_series(panel, schedule),
            ):
                with pytest.raises(ValueError, match=f"schedule has {n_entries} quarters"):
                    series()


def test_schedule_equals_estimate_inside_regimes(panel, regime_table, estimates):
    by_label = {e.label: e for e in estimates}
    kappas = distinct_kappas(regime_table)
    schedule = build_schedule(list(zip(regime_table, estimates)), panel.quarters, 0.72, kappas)
    assert len(schedule) == len(panel)
    for q, (epsilon, kappa, _) in zip(panel.quarters.tolist(), entries(schedule)):
        inside = [r for r in regime_table if r.start <= q <= r.end]
        if not inside:
            continue
        (containing,) = inside
        assert epsilon == by_label[containing.label].epsilon
        assert kappa == kappas[containing.label]


def test_bundled_schedule_flags_shift_quarters(panel, regime_table, estimates):
    kappas = distinct_kappas(regime_table)
    schedule = build_schedule(list(zip(regime_table, estimates)), panel.quarters, 0.72, kappas)
    flagged = [quarter_label(q) for q in panel.quarters[schedule.is_gap_quarter].tolist()]
    # 1959Q3, 1971Q2, 1975Q2, 1987Q4-1989Q4, 1999Q2-2000Q4, 2009Q4
    assert len(flagged) == 1 + 1 + 1 + 9 + 7 + 1
    assert "1959Q3" in flagged and "2009Q4" in flagged
    last_inside = None
    for epsilon, kappa, flag in entries(schedule):
        if not flag:
            last_inside = epsilon, kappa
        elif last_inside is not None:
            assert (epsilon, kappa) == last_inside
