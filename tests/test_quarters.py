import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from ugap.errors import InputError
from ugap.quarters import parse_quarter, quarter_label


def test_parse_and_format():
    q = parse_quarter("1951Q1")
    assert q == 4 * 1951
    assert quarter_label(q) == "1951Q1"
    assert parse_quarter(" 2010q4 ") == 4 * 2010 + 3


@pytest.mark.parametrize("bad", ["1951", "1951Q5", "Q1", "1951-01", "195Q1"])
def test_parse_rejects_bad_labels(bad):
    with pytest.raises(InputError, match="expected YYYYQn"):
        parse_quarter(bad)


def test_ordering():
    assert parse_quarter("1959Q4") < parse_quarter("1960Q1")
    assert parse_quarter("1960Q1") < parse_quarter("1960Q2")
    assert parse_quarter("1960Q2") <= parse_quarter("1960Q2")
    assert max(parse_quarter("1990Q1"), parse_quarter("1989Q4")) == parse_quarter("1990Q1")


def test_of_month_maps_quarters():
    def quarter_of(year, month):
        return (12 * year + month - 1) // 3

    assert quarter_of(2001, 1) == parse_quarter("2001Q1")
    assert quarter_of(2001, 3) == parse_quarter("2001Q1")
    assert quarter_of(2001, 4) == parse_quarter("2001Q2")
    assert quarter_of(2001, 12) == parse_quarter("2001Q4")


def test_next_prev_roundtrip():
    q = parse_quarter("1999Q4")
    assert quarter_label(q + 1) == "2000Q1"
    assert quarter_label(q - 1) == "1999Q3"


def test_quarter_range_inclusive():
    run = range(parse_quarter("1959Q3"), parse_quarter("1960Q2") + 1)
    assert [quarter_label(q) for q in run] == ["1959Q3", "1959Q4", "1960Q1", "1960Q2"]


@settings(derandomize=True, database=None)
@given(st.integers(0, 9999), st.integers(1, 4))
@example(999, 1)
def test_label_roundtrip(year, q):
    label = f"{year:04d}Q{q}"
    assert quarter_label(parse_quarter(label)) == label
