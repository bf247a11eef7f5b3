"""Properties of the text readers and of quarterly aggregation.

Every reader must turn bad text into an InputError subclass, never a raw
exception, and to_quarterly must agree exactly with a plain per-bucket
reference written here.
"""

import random

from hypothesis import given, settings
from hypothesis import strategies as st

from ugap.config import parse_table
from ugap.errors import InputError
from ugap.ingest import parse_series_csv, to_quarterly
from ugap.quarters import parse_quarter
from ugap.regimes import RegimeTable

# per column, valid fields and wrong ones; a field is junk one time in
# ten, wrong three times and valid six, and a line is junk one time in ten
DATES = (("1951-01", "1951-02", "2019-12"), ("1951-13", "1951-00", "1951-1", "date"))
VALUES = (("3.7", "0.05", "0", "-0.0"), ("-1", "nan", "inf", "1e999", "abc", "", "value"))
LABELS = (("a", "b", ""), ("label", "#"))
QUARTERS = (("1951Q1", "2019q4", "1960Q3"), ("1951Q0", "1951Q5", "1951", " ", "start"))


def pick(valid, wrong):
    return st.integers(0, 9).flatmap(
        lambda i: st.text(max_size=6) if i == 0 else st.sampled_from(wrong if i < 4 else valid)
    )


def lines_of(*columns):
    row = st.tuples(*(pick(*c) for c in columns)).map(",".join)
    line = st.integers(0, 9).flatmap(lambda i: st.text(max_size=6) if i == 0 else row)
    return st.lists(line, max_size=8).map("\n".join)


table_text = st.one_of(
    lines_of(DATES, VALUES),
    lines_of(LABELS, QUARTERS, QUARTERS),
    st.text(max_size=200),
)


def only_input_errors(read, *args):
    try:
        read(*args)
    except InputError:
        pass


@settings(derandomize=True, database=None, deadline=None, max_examples=300)
@given(table_text, st.sampled_from(["fraction", "percent"]))
def test_readers_raise_only_input_errors(text, unit):
    lines = text.splitlines()
    only_input_errors(parse_series_csv, "date,value\n" + text, unit)
    only_input_errors(parse_series_csv, text, unit)
    only_input_errors(lambda: list(parse_table(text, ("label", "start", "end"), "regime")))
    only_input_errors(RegimeTable.from_lines, lines)
    for label in [text, *(f for line in lines for f in line.split(","))]:
        only_input_errors(parse_quarter, label)


def reference_quarterly(rows):
    """Bucket month indices 12 * year + month - 1 by // 3, then average full buckets."""
    buckets = {}
    for year, month, value in sorted(rows):
        buckets.setdefault((12 * year + month - 1) // 3, []).append(value)
    means, dropped = [], []
    for q in sorted(buckets):
        values = buckets[q]
        if len(values) == 3:
            means.append((q, sum(values) / 3.0))
        else:
            dropped.append((q, len(values)))
    return means, dropped


@st.composite
def month_files(draw):
    """Distinct months over a few years with holes, each with a value, in shuffled line order."""
    first = draw(st.integers(1000, 9990))
    months = draw(st.sets(st.integers(0, 59), max_size=60))
    unit = draw(st.sampled_from(["fraction", "percent"]))
    top = 100.0 if unit == "percent" else 1.0
    rows = [
        (first + m // 12, m % 12 + 1, draw(st.floats(0.0, top, allow_nan=False)))
        for m in sorted(months)
    ]
    random.Random(draw(st.integers(0, 2**32))).shuffle(rows)
    return rows, unit


@settings(derandomize=True, database=None, deadline=None, max_examples=300)
@given(month_files())
def test_to_quarterly_matches_reference(file):
    rows, unit = file
    text = "date,value\n" + "".join(f"{y:04d}-{m:02d},{v!r}\n" for y, m, v in rows)
    scale = 100.0 if unit == "percent" else 1.0
    means, dropped = reference_quarterly([(y, m, v / scale) for y, m, v in rows])
    quarterly, got_dropped = to_quarterly(parse_series_csv(text, unit))
    assert got_dropped == dropped
    assert list(zip(quarterly.index.tolist(), quarterly.values.tolist())) == means
