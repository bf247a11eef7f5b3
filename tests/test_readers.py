"""Properties of the text readers and of quarterly aggregation.

Every reader must turn bad text into an InputError subclass, never a raw
exception. The readers check whole columns; the per-line readers they
replaced are kept here as references, and on every fuzzed file each
reader must return bit-identical columns or raise the same exception
type with the same message. The one-label parse_quarter must agree with
the column reader on every fuzzed label. to_quarterly must agree exactly
with a plain per-bucket reference written here.
"""

import math
import random
import re

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from ugap.cli import _shock_columns
from ugap.config import parse_kv_text, parse_table
from ugap.errors import FirstFault, InputError, quoted
from ugap.ingest import Series, parse_series_csv, to_quarterly
from ugap.quarters import parse_quarter, parse_quarters, quarter_label
from ugap.regimes import Regime, RegimeTable

# per column, valid fields and wrong ones; a field is junk one time in
# ten, wrong three times and valid six, and a line is junk one time in
# ten and a header, comment or blank line one time in ten. \d matches
# any Unicode decimal digit, so Arabic-Indic and full-width years are
# valid; the quarter digit must be ASCII
DATES = (
    ("1951-01", "1951-02", "2019-12", "١٩٥١-٠٣", "１９５１-０４", '"1951-05"'),
    ("1951-13", "1951-00", "1951-1", "date", "٢٠١٩-١٣", "1951/01", '"1951-01'),
)
VALUES = (
    ("3.7", "0.05", "0", "-0.0", "١.٥", '"3.7"', " 2 "),
    ("-1", "nan", "inf", "1e999", "abc", "", "value", '"1,5"', "1_0"),
)
EXTRA = (("x", "1", ""), ('"a,b"', "date"))
LABELS = (("a", "b", ""), ("label", "#", '"a'))
QUARTERS = (
    ("1951Q1", "2019q4", "1960Q3", "١٩٥١Q2", "２０１９q1", " 1970Q1 "),
    ("1951Q0", "1951Q5", "1951", " ", "start", "1951Q١", '"1951Q1"'),
)
MULTIPLIERS = (("1.0", "0.9", "1e-3", "١.٥", "nan"), ("x", "", "1.0.0", "s_multiplier"))
SPECIAL_LINES = (
    "", "   ", "# comment", "#1951Q1,1,1", "date,value", "DATE , Value", "quarter,s_multiplier,mu_multiplier",
    "Quarter ,s,mu", "label,start,end", "LABEL\t,x", "Start ,End", " start", "regime,kappa", ",",
)


def pick(valid, wrong):
    return st.integers(0, 9).flatmap(
        lambda i: st.text(max_size=6) if i == 0 else st.sampled_from(wrong if i < 4 else valid)
    )


def lines_of(*columns):
    row = st.tuples(*(pick(*c) for c in columns)).map(",".join)
    line = st.integers(0, 9).flatmap(
        lambda i: st.text(max_size=6) if i == 0 else st.sampled_from(SPECIAL_LINES) if i == 1 else row
    )
    return st.lists(line, max_size=8).map("\n".join)


# labels near YYYYQn: digits of any script and superscripts, either case
# of Q or another letter, quarters past 4, blanks, NUL and a lone surrogate
NEAR_DIGITS = st.characters(categories=["Nd", "No"]) | st.sampled_from("0123456789")
near_quarter = st.builds(
    "{}{}{}{}{}".format,
    st.sampled_from(["", "", " ", "\u3000", "\x00"]),
    st.text(NEAR_DIGITS, min_size=4, max_size=4) | st.text(NEAR_DIGITS, max_size=5),
    st.sampled_from("QqQqXＱ"),
    st.sampled_from("1234") | st.text(NEAR_DIGITS | st.sampled_from("05"), max_size=2),
    st.sampled_from(["", "", " ", "\x00", "\ud800"]),
)

table_text = st.one_of(
    lines_of(DATES, VALUES),
    lines_of(DATES, VALUES, EXTRA),
    lines_of(LABELS, QUARTERS, QUARTERS),
    lines_of(QUARTERS, MULTIPLIERS, MULTIPLIERS),
    lines_of(QUARTERS, QUARTERS),
    st.text(max_size=200),
)


ARABIC_INDIC = str.maketrans("0123456789", "٠١٢٣٤٥٦٧٨٩")


def mostly(valid, wrong):
    """A valid field nine times in ten, else a wrong or junk one."""
    return st.integers(0, 9).flatmap(lambda i: pick(valid, wrong) if i == 0 else st.sampled_from(valid))


def rarely(row, *others):
    """row nineteen times in twenty, else one of others."""
    return st.integers(0, 19).flatmap(lambda i: st.one_of(*others) if i == 0 else st.just(row))


@st.composite
def series_text(draw):
    """A header, then mostly valid rows in rough date order, with repeats, extra columns and junk lines."""
    m = draw(st.integers(12 * 1950, 12 * 2020))
    lines = ["date,value"]
    for _ in range(draw(st.integers(0, 12))):
        m += draw(st.sampled_from([1, 1, 1, 2, 0, -3]))
        date = f"{m // 12}-{m % 12 + 1:02d}"
        if draw(st.integers(0, 4)) == 0:
            date = date.translate(ARABIC_INDIC)
        extra = draw(st.lists(mostly(*EXTRA), max_size=2))
        row = ",".join([date, draw(mostly(*VALUES)), *extra])
        lines.append(draw(rarely(row, st.sampled_from(SPECIAL_LINES), lines_of(DATES, VALUES))))
    return "\n".join(lines)


@st.composite
def shock_text(draw):
    """Mostly increasing quarters with valid multipliers, with repeats, steps back and junk lines."""
    q = draw(st.integers(4 * 1990, 4 * 2010))
    lines = ["quarter,s_multiplier,mu_multiplier"] if draw(st.booleans()) else []
    for _ in range(draw(st.integers(0, 10))):
        q += draw(st.sampled_from([1, 1, 1, 1, 2, 0, -1]))
        label = quarter_label(q)
        if draw(st.booleans()):
            label = label.lower()
        row = ",".join([label, draw(mostly(*MULTIPLIERS)), draw(mostly(*MULTIPLIERS))])
        lines.append(draw(rarely(row, st.sampled_from(SPECIAL_LINES), st.text(max_size=6))))
    return "\n".join(lines)


# -- the per-line readers the column readers replaced ------------------------

_QUARTER_RE = re.compile(r"^(\d{4})[Qq]([1-4])$")
_DATE_RE = re.compile(r"^(\d{4})-(\d{2})$")
SHOCK_COLUMNS = ("quarter", "s_multiplier", "mu_multiplier")


def reference_quarter(text, what, lineno):
    m = _QUARTER_RE.match(text.strip())
    if m is None:
        # deliberate change: the per-line readers named no line here
        raise InputError(f"{what} line {lineno}: bad quarter label {quoted(text)}, expected YYYYQn")
    return 4 * int(m.group(1)) + int(m.group(2)) - 1


def reference_table(text, columns, what):
    first = True
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        fields = [f.strip() for f in line.split(",")]
        header, first = first and fields[0].lower() == columns[0], False
        if header:
            continue
        if len(fields) != len(columns):
            raise InputError(f"{what} line {lineno}: expected '{','.join(columns)}'")
        yield lineno, fields


def reference_series(text, value_unit="fraction"):
    if value_unit not in ("fraction", "percent"):
        raise InputError(f"unknown value unit {value_unit!r}")
    months, values, linenos = [], [], []
    for lineno, (date, raw) in reference_table(text, ("date", "value"), "series"):
        m = _DATE_RE.match(date)
        if m is None:
            raise InputError(f"series line {lineno}: bad date {quoted(date)}, expected YYYY-MM")
        year, month = int(m.group(1)), int(m.group(2))
        if not 1 <= month <= 12:
            raise InputError(f"series line {lineno}: month out of range in {quoted(date)}")
        try:
            value = float(raw)
        except ValueError:
            raise InputError(f"series line {lineno}: bad value {quoted(raw)}") from None
        if not math.isfinite(value):
            raise InputError(f"series line {lineno}: non-finite value {quoted(raw)}")
        if value < 0:
            raise InputError(f"series line {lineno}: negative rate {value} at {year:04d}-{month:02d}")
        months.append(12 * year + month - 1)
        values.append(value)
        linenos.append(lineno)

    index = np.array(months, dtype=np.int64)
    order = np.argsort(index, kind="stable")
    index = index[order]
    repeats = np.flatnonzero(index[1:] == index[:-1]) + 1
    if repeats.size:
        linenos_sorted = np.array(linenos)[order]
        i = repeats[np.argmin(linenos_sorted[repeats])]
        year, month = divmod(int(index[i]), 12)
        raise InputError(f"series line {linenos_sorted[i]}: duplicate date {year:04d}-{month + 1:02d}")
    column = np.array(values, dtype=np.float64)[order]
    if value_unit == "percent":
        column /= 100.0
    return Series(index, column)


def reference_shocks(text):
    path, labels = [], []
    for lineno, row in reference_table(text, SHOCK_COLUMNS, "shock"):
        quarter = reference_quarter(row[0], "shock", lineno)
        try:
            path.append((quarter, float(row[1]), float(row[2])))
        except ValueError:
            raise InputError(f"shock line {lineno}: bad multiplier in {quoted(','.join(row))}") from None
        # deliberate change: quarters must increase
        if len(path) > 1 and path[-1][0] <= path[-2][0]:
            raise InputError(f"shock line {lineno}: quarters must increase, {row[0]} follows {labels[-1]}")
        labels.append(row[0])
    return path


def reference_regimes(text):
    regimes = [
        Regime(label, reference_quarter(start, "regime", lineno), reference_quarter(end, "regime", lineno))
        for lineno, (label, start, end) in reference_table(text, ("label", "start", "end"), "regime")
    ]
    if not regimes:
        raise InputError("regime table is empty")
    return RegimeTable(tuple(regimes))


def shock_path(text):
    """The shock path _load_scenario builds from the shock columns."""
    return list(zip(*(c.tolist() for c in _shock_columns(text))))


def outcome(read, *args):
    """What a reader returns, or the type and message of the InputError it raises."""
    try:
        return read(*args)
    except InputError as exc:
        return type(exc), str(exc)


def as_bits(result):
    """A Series, table or shock path with every float as its bytes, so that == is bit-identity."""
    if isinstance(result, Series):
        return result.index.tolist(), result.values.tobytes()
    if isinstance(result, list):
        return [tuple(np.float64(x).tobytes() if isinstance(x, float) else x for x in row) for row in result]
    return result


def table_rows(text, columns, what):
    """parse_table's rows as (name, fields) pairs, each row named by its FirstFault, which is raised first."""
    columns, faults = parse_table(text, columns, what)
    faults.raise_first()
    return [(faults.where(i), list(row)) for i, row in enumerate(zip(*columns))]


# -- properties ----------------------------------------------------------------


def raising(read):
    """read, called with a FirstFault of its own that names row i "label line i + 1" and is raised before it returns."""

    def call(*args):
        faults = FirstFault(lambda i: f"label line {i + 1}")
        result = read(*args, faults)
        faults.raise_first()
        return result

    return call


def one_quarter(label):
    """parse_quarters on label alone, as parse_quarter answers: the index, or the message less its line prefix."""
    got = outcome(raising(parse_quarters), [label])
    if isinstance(got[0], type):
        return got[0], got[1].removeprefix("label line 1: ")
    return int(got[0])


def only_input_errors(read, *args):
    try:
        read(*args)
    except InputError:
        pass


@settings(derandomize=True, database=None, deadline=None, max_examples=300)
@given(table_text, st.sampled_from(["fraction", "percent"]), near_quarter)
def test_readers_raise_only_input_errors(text, unit, near):
    lines = text.splitlines()
    only_input_errors(parse_series_csv, "date,value\n" + text, unit)
    only_input_errors(parse_series_csv, text, unit)
    only_input_errors(table_rows, text, ("label", "start", "end"), "regime")
    only_input_errors(RegimeTable.from_text, text)
    only_input_errors(shock_path, text)
    only_input_errors(parse_kv_text, text)
    fields = [f for line in lines for f in line.split(",")]
    only_input_errors(raising(parse_quarters), fields)
    for label in [text, *fields, near]:
        assert outcome(parse_quarter, label) == one_quarter(label)


@settings(derandomize=True, database=None, deadline=None, max_examples=250)
@given(st.one_of(series_text(), lines_of(DATES, VALUES), lines_of(DATES, VALUES, EXTRA)), st.sampled_from(["fraction", "percent"]))
def test_series_reader_matches_per_line_reference(text, unit):
    for file in ("date,value\n" + text, text):
        assert as_bits(outcome(parse_series_csv, file, unit)) == as_bits(outcome(reference_series, file, unit))


@settings(derandomize=True, database=None, deadline=None, max_examples=250)
@given(table_text, st.sampled_from([("label", "start", "end"), SHOCK_COLUMNS, ("start", "end"), ("regime", "kappa")]))
def test_table_reader_matches_per_line_reference(text, columns):
    def reference():
        return [(f"table line {lineno}", fields) for lineno, fields in reference_table(text, columns, "table")]

    assert outcome(table_rows, text, columns, "table") == outcome(reference)


@settings(derandomize=True, database=None, deadline=None, max_examples=250)
@given(st.one_of(shock_text(), lines_of(QUARTERS, MULTIPLIERS, MULTIPLIERS)))
def test_shock_reader_matches_per_line_reference(text):
    assert as_bits(outcome(shock_path, text)) == as_bits(outcome(reference_shocks, text))


@settings(derandomize=True, database=None, deadline=None, max_examples=300)
@given(lines_of(LABELS, QUARTERS, QUARTERS))
def test_regime_reader_matches_per_line_reference(text):
    assert outcome(RegimeTable.from_text, text) == outcome(reference_regimes, text)


def test_the_first_faulty_line_wins_across_columns_and_checks():
    # line 3 has a bad value and line 2 a month out of range
    assert outcome(parse_series_csv, "date,value\n1951-13,1\n1951-01,x\n") == (
        InputError, "series line 2: month out of range in '1951-13'"
    )
    # the short row on line 4 comes after line 3's unknown quarter
    text = "quarter,s_multiplier,mu_multiplier\n2000Q1,1,1\n2000Q9,1,1\n2000Q3,1\n"
    assert outcome(shock_path, text)[1] == "shock line 3: bad quarter label '2000Q9', expected YYYYQn"
    # a header is read only from the first data line, so a second one is a bad row
    text = "quarter,s_multiplier,mu_multiplier\n2000Q1,1,1\nquarter,s_multiplier,mu_multiplier\n2000Q2,1,1\n"
    assert outcome(shock_path, text) == (InputError, "shock line 3: bad quarter label 'quarter', expected YYYYQn")
    # on one row the quarter label is checked before the multipliers
    assert outcome(shock_path, "2000Q9,x,1\n")[1].startswith("shock line 1: bad quarter label")
    # a regime that ends before it starts on line 1 beats the bad label on line 2
    text = "a,1960Q1,1950Q1\nb,1970Q1,19X0Q1\n"
    assert outcome(RegimeTable.from_text, text) == (InputError, "regime 'a' ends before it starts")


def test_fields_past_40_characters_are_clipped_in_messages():
    assert quoted("a'b") == repr("a'b")
    assert quoted("x" * 40) == repr("x" * 40)
    assert quoted("x" * 41) == f"'{'x' * 40}'... (41 characters)"
    assert outcome(parse_kv_text, "no equals sign " * 1000)[1] == (
        f"config line 1: expected 'key = value', got '{('no equals sign ' * 3)[:40]}'... (15000 characters)"
    )
    assert outcome(parse_quarter, "1" * 5000)[1] == f"bad quarter label '{'1' * 40}'... (5000 characters), expected YYYYQn"


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
