"""Monthly series parsing, quarterly aggregation, splicing, panel assembly.

Rates are dimensionless fractions of the labor force everywhere past the
parser; percent inputs are divided by 100 at exactly one place (the
parser) so unit mix-ups cannot survive into the analysis layers. A time
series is one `Series`: an int64 column of month or quarter indices (see
`ugap.quarters`) and an aligned float64 column of values. Aggregation,
the splice and the join are operations on those columns. The panel is
one set of columns, read-only int64 quarters plus read-only float64 u and
v, which the fitting and gap layers read directly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .config import parse_floats, parse_table
from .errors import InputError, quoted
from .quarters import quarter_label, write_quarter_rows, year_month


def _freeze_column(obj, name: str, dtype) -> None:
    column = np.array(getattr(obj, name), dtype=dtype)
    column.setflags(write=False)
    object.__setattr__(obj, name, column)


@dataclass(frozen=True, eq=False)
class Series:
    """A time series: read-only sorted, distinct int64 indices and float64 values."""

    index: np.ndarray
    values: np.ndarray

    def __post_init__(self):
        _freeze_column(self, "index", np.int64)
        _freeze_column(self, "values", np.float64)

    def __len__(self) -> int:
        return len(self.index)


@dataclass(frozen=True, eq=False)
class LaborMarketPanel:
    """Aligned quarterly unemployment/vacancy panel, held as columns.

    quarters is a read-only int64 column of quarter indices, and u and v
    are read-only float64 columns aligned with it; the constructor checks
    that the lengths agree and every rate is positive. build_panel also
    ensures sorted, distinct quarters, rates below 1 and a finite
    tightness. theta = v / u and n = 1 - u are computed from the columns.
    """

    quarters: np.ndarray
    u: np.ndarray
    v: np.ndarray

    def __post_init__(self):
        _freeze_column(self, "quarters", np.int64)
        _freeze_column(self, "u", np.float64)
        _freeze_column(self, "v", np.float64)
        if not len(self.quarters) == len(self.u) == len(self.v):
            raise InputError("panel quarters, u and v differ in length")
        bad = ~((self.u > 0.0) & (self.v > 0.0))
        if bad.any():
            i = int(np.argmax(bad))
            q, u, v = quarter_label(self.quarters[i]), self.u[i], self.v[i]
            raise InputError(f"rates at {q} must be positive: u={u}, v={v}")

    def __len__(self) -> int:
        return len(self.quarters)

    @property
    def theta(self) -> np.ndarray:
        return self.v / self.u

    @property
    def n(self) -> np.ndarray:
        return 1.0 - self.u

    def between(self, start: int, end: int) -> LaborMarketPanel:
        """The quarters from start to end inclusive."""
        lo = np.searchsorted(self.quarters, start, side="left")
        hi = np.searchsorted(self.quarters, end, side="right")
        return LaborMarketPanel(self.quarters[lo:hi], self.u[lo:hi], self.v[lo:hi])

    def to_csv(self) -> str:
        """The text of panel.csv."""
        columns = (self.u, self.v, self.theta, self.n)
        return write_quarter_rows("quarter,u,v,theta,n", self.quarters, "%.8g,%.8g,%.8g,%.8g", columns)


def parse_series_csv(text: str, value_unit: str = "fraction") -> Series:
    """Parse a `date,value` table with YYYY-MM dates into a month-indexed series.

    The table is read by config.parse_table, so it has that grammar:
    `#` comments, a header on the first line only, exactly two unquoted
    columns. value_unit is "fraction" or "percent"; percent values are
    divided by 100. The series comes back sorted by month. Malformed
    rows, duplicate dates and negative values are fatal, and the error
    names the first faulty line; the dates and values are checked a
    column at a time.
    """
    if value_unit not in ("fraction", "percent"):
        raise InputError(f"unknown value unit {value_unit!r}")
    (dates, raw), faults = parse_table(text, ("date", "value"), "series")
    year, month, bad_date = year_month(dates)
    faults.check(bad_date, lambda i: f"bad date {quoted(dates[i])}, expected YYYY-MM")
    faults.check((month < 1) | (month > 12), lambda i: f"month out of range in {quoted(dates[i])}")
    values = parse_floats(raw[: faults.rows], faults, lambda i: f"bad value {quoted(raw[i])}")
    faults.check(~np.isfinite(values), lambda i: f"non-finite value {quoted(raw[i])}")
    faults.check(values < 0, lambda i: f"negative rate {float(values[i])} at {year[i]:04d}-{month[i]:02d}")
    faults.raise_first()

    index = 12 * year + month - 1
    order = np.argsort(index, kind="stable")
    index = index[order]
    # the stable sort keeps the rows of one date in file order, so repeats
    # holds each row that repeats an earlier date, and the earliest is reported
    repeats = np.flatnonzero(index[1:] == index[:-1]) + 1
    if repeats.size:
        faults.at(int(order[repeats].min()), lambda i: f"duplicate date {year[i]:04d}-{month[i]:02d}")
        faults.raise_first()
    column = values[order]
    if value_unit == "percent":
        column /= 100.0
    return Series(index, column)


def to_quarterly(months: Series) -> tuple[Series, list[tuple[int, int]]]:
    """Aggregate a month-indexed series to quarterly arithmetic means.

    Quarters with fewer than 3 months are dropped, not averaged, to avoid
    seasonal bias at sample edges. Returns (quarterly series, dropped
    report) where the report lists each dropped quarter index with its
    month count.
    """
    quarter = months.index // 3
    starts = np.flatnonzero(np.diff(quarter, prepend=quarter[:1] - 1))
    counts = np.diff(starts, append=len(quarter))
    complete = counts == 3
    first = starts[complete]
    v = months.values
    means = ((v[first] + v[first + 1]) + v[first + 2]) / 3.0
    incomplete = ~complete
    dropped = list(zip(quarter[starts[incomplete]].tolist(), counts[incomplete].tolist()))
    return Series(quarter[first], means), dropped


def splice_vacancy(pre: Series, post: Series, cutover: int) -> Series:
    """Join two vacancy sources: pre strictly before cutover, post from it on.

    No level adjustment is applied at the cutover; callers audit the jump
    with splice_jump. A hole in quarterly coverage around the cutover is a
    coverage error.
    """
    before, after = pre.index < cutover, post.index >= cutover
    index = np.concatenate([pre.index[before], post.index[after]])
    if not (post.index == cutover).any():
        raise InputError(
            f"post series does not cover the cutover quarter {quarter_label(cutover)}"
        )
    holes = np.flatnonzero(np.diff(index) != 1)
    if holes.size:
        prev, cur = index[holes[0]], index[holes[0] + 1]
        raise InputError(
            f"spliced series has a gap: {quarter_label(prev + 1)} missing between "
            f"{quarter_label(prev)} and {quarter_label(cur)}"
        )
    return Series(index, np.concatenate([pre.values[before], post.values[after]]))


def splice_jump(pre: Series, post: Series, cutover: int) -> tuple[float, float]:
    """Values straddling the cutover: (last pre value, first post value).

    The jump post / pre - 1 must be finite, so a last pre value of zero, or
    one so small that the ratio overflows, is an error naming its quarter.
    """
    before = np.flatnonzero(pre.index < cutover)
    at = post.values[post.index == cutover]
    if not before.size or not at.size:
        raise InputError(f"cannot audit splice at {quarter_label(cutover)}: missing flank")
    last, first = float(pre.values[before[-1]]), float(at[0])
    if not (last > 0.0 and first / last < math.inf):
        quarter = quarter_label(pre.index[before[-1]])
        raise InputError(
            f"cannot audit splice at {quarter_label(cutover)}: last pre value {last} at {quarter} gives no finite jump"
        )
    return last, first


def build_panel(u_series: Series, v_series: Series) -> LaborMarketPanel:
    """Inner-join unemployment and vacancy series into the analysis panel.

    The first quarter with a rate that is not in (0,1), or whose tightness
    v/u overflows, raises InputError.
    """
    if not len(u_series) or not len(v_series):
        raise InputError("cannot build panel from an empty series")
    quarters, iu, iv = np.intersect1d(u_series.index, v_series.index, return_indices=True)
    u, v = u_series.values[iu], v_series.values[iv]
    zero = (u <= 0.0) | (v <= 0.0)
    one_or_more = (u >= 1.0) | (v >= 1.0)
    with np.errstate(divide="ignore", over="ignore"):
        overflow = ~(v / u < np.inf)
    bad = zero | one_or_more | overflow
    if bad.any():
        i = int(np.argmax(bad))
        q, ui, vi = quarter_label(quarters[i]), float(u[i]), float(v[i])
        if zero[i]:
            raise InputError(f"zero rate at {q}: u={ui}, v={vi}")
        if one_or_more[i]:
            raise InputError(f"rate at {q} is not a fraction: u={ui}, v={vi}")
        raise InputError(f"tightness v/u at {q} overflows: u={ui}, v={vi}")
    if not quarters.size:
        raise InputError("unemployment and vacancy series share no quarters")
    return LaborMarketPanel(quarters, u, v)
