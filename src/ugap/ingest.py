"""Monthly series parsing, quarterly aggregation, splicing, panel assembly.

Rates are dimensionless fractions of the labor force everywhere past the
parser; percent inputs are divided by 100 at exactly one place (the
parser) so unit mix-ups cannot survive into the analysis layers. The
panel is one set of columns, quarters plus read-only numpy u and v, which
the fitting and gap layers read directly.
"""

from __future__ import annotations

import csv
import math
import re
from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from typing import Iterable, Sequence, TextIO

import numpy as np

from .config import parse_table
from .errors import (
    AlignmentError,
    CoverageError,
    DomainError,
    DuplicateKeyError,
    ParseError,
)
from .quarters import Quarter

_DATE_RE = re.compile(r"^(\d{4})-(\d{2})$")


@dataclass(frozen=True)
class MonthlyPoint:
    year: int
    month: int
    value: float


@dataclass(frozen=True)
class QuarterlyPoint:
    quarter: Quarter
    value: float


@dataclass(frozen=True, eq=False)
class LaborMarketPanel:
    """Aligned quarterly unemployment/vacancy panel, held as columns.

    u and v are read-only float64 arrays aligned with quarters; the
    constructor checks that the lengths agree and every rate is positive.
    build_panel also ensures sorted, distinct quarters and rates below 1.
    theta = v / u and n = 1 - u are computed from the columns.
    """

    quarters: tuple[Quarter, ...]
    u: np.ndarray
    v: np.ndarray

    def __post_init__(self):
        for name in ("u", "v"):
            column = np.array(getattr(self, name), dtype=np.float64)
            column.setflags(write=False)
            object.__setattr__(self, name, column)
        if not len(self.quarters) == len(self.u) == len(self.v):
            raise AlignmentError("panel quarters, u and v differ in length")
        bad = ~((self.u > 0.0) & (self.v > 0.0))
        if bad.any():
            i = int(np.argmax(bad))
            q, u, v = self.quarters[i], self.u[i], self.v[i]
            raise DomainError(f"rates at {q} must be positive: u={u}, v={v}")

    def __len__(self) -> int:
        return len(self.quarters)

    @property
    def theta(self) -> np.ndarray:
        return self.v / self.u

    @property
    def n(self) -> np.ndarray:
        return 1.0 - self.u

    def between(self, start: Quarter, end: Quarter) -> LaborMarketPanel:
        """The quarters from start to end inclusive."""
        lo = bisect_left(self.quarters, start)
        hi = bisect_right(self.quarters, end)
        return LaborMarketPanel(self.quarters[lo:hi], self.u[lo:hi], self.v[lo:hi])

    def to_csv(self, stream: TextIO) -> None:
        stream.write("quarter,u,v,theta,n\n")
        columns = (self.u, self.v, self.theta, self.n)
        for q, u, v, theta, n in zip(self.quarters, *(c.tolist() for c in columns)):
            stream.write(f"{q},{u:.8g},{v:.8g},{theta:.8g},{n:.8g}\n")


def parse_series_csv(text: str | Iterable[str], value_unit: str = "fraction") -> list[MonthlyPoint]:
    """Parse a `date,value` CSV with YYYY-MM dates into monthly points.

    value_unit is "fraction" or "percent"; percent values are divided by
    100. Points come back sorted by date. Malformed rows, duplicate dates
    and negative values are fatal.
    """
    if value_unit not in ("fraction", "percent"):
        raise ParseError(f"unknown value unit {value_unit!r}")
    lines = text.splitlines() if isinstance(text, str) else list(text)
    reader = csv.reader(lines)
    try:
        header = next(reader)
    except StopIteration:
        raise ParseError("empty series file") from None
    if [h.strip().lower() for h in header[:2]] != ["date", "value"]:
        raise ParseError(f"expected header 'date,value', got {','.join(header)!r}")

    points: list[MonthlyPoint] = []
    seen: set[tuple[int, int]] = set()
    for lineno, row in enumerate(reader, start=2):
        if not row or (len(row) == 1 and not row[0].strip()):
            continue
        if len(row) < 2:
            raise ParseError(f"line {lineno}: expected 'date,value', got {','.join(row)!r}")
        m = _DATE_RE.match(row[0].strip())
        if m is None:
            raise ParseError(f"line {lineno}: bad date {row[0]!r}, expected YYYY-MM")
        year, month = int(m.group(1)), int(m.group(2))
        if not 1 <= month <= 12:
            raise ParseError(f"line {lineno}: month out of range in {row[0]!r}")
        try:
            value = float(row[1])
        except ValueError:
            raise ParseError(f"line {lineno}: bad value {row[1]!r}") from None
        if not math.isfinite(value):
            raise ParseError(f"line {lineno}: non-finite value {row[1]!r}")
        if value < 0:
            raise DomainError(f"line {lineno}: negative rate {value} at {year}-{month:02d}")
        if (year, month) in seen:
            raise DuplicateKeyError(f"line {lineno}: duplicate date {year}-{month:02d}")
        seen.add((year, month))
        if value_unit == "percent":
            value /= 100.0
        points.append(MonthlyPoint(year, month, value))
    points.sort(key=lambda p: (p.year, p.month))
    return points


def to_quarterly(
    points: Sequence[MonthlyPoint],
) -> tuple[list[QuarterlyPoint], list[tuple[Quarter, int]]]:
    """Aggregate monthly points to quarterly arithmetic means.

    Quarters with fewer than 3 months are dropped, not averaged, to avoid
    seasonal bias at sample edges. Returns (quarterly points, dropped
    report) where the report lists each dropped quarter with its month
    count.
    """
    buckets: dict[Quarter, list[float]] = {}
    for p in points:
        buckets.setdefault(Quarter.of_month(p.year, p.month), []).append(p.value)
    quarterly: list[QuarterlyPoint] = []
    dropped: list[tuple[Quarter, int]] = []
    for q in sorted(buckets):
        values = buckets[q]
        if len(values) == 3:
            quarterly.append(QuarterlyPoint(q, sum(values) / 3.0))
        else:
            dropped.append((q, len(values)))
    return quarterly, dropped


def splice_vacancy(
    pre_series: Sequence[QuarterlyPoint],
    post_series: Sequence[QuarterlyPoint],
    cutover: Quarter,
) -> list[QuarterlyPoint]:
    """Join two vacancy sources: pre strictly before cutover, post from it on.

    No level adjustment is applied at the cutover; callers audit the jump
    with splice_jump. A hole in quarterly coverage around the cutover is a
    coverage error.
    """
    merged = [p for p in pre_series if p.quarter < cutover]
    merged += [p for p in post_series if p.quarter >= cutover]
    merged.sort(key=lambda p: p.quarter)
    if not any(p.quarter == cutover for p in merged):
        raise CoverageError(f"post series does not cover the cutover quarter {cutover}")
    for prev, cur in zip(merged, merged[1:]):
        if cur.quarter != prev.quarter.next():
            raise CoverageError(
                f"spliced series has a gap: {prev.quarter.next()} missing between "
                f"{prev.quarter} and {cur.quarter}"
            )
    return merged


def splice_jump(
    pre_series: Sequence[QuarterlyPoint],
    post_series: Sequence[QuarterlyPoint],
    cutover: Quarter,
) -> tuple[float, float]:
    """Values straddling the cutover: (last pre value, first post value)."""
    before = [p for p in pre_series if p.quarter < cutover]
    at = [p for p in post_series if p.quarter == cutover]
    if not before or not at:
        raise CoverageError(f"cannot audit splice at {cutover}: missing flank")
    return before[-1].value, at[0].value


def build_panel(
    u_series: Sequence[QuarterlyPoint], v_series: Sequence[QuarterlyPoint]
) -> LaborMarketPanel:
    """Inner-join unemployment and vacancy series into the analysis panel."""
    if not u_series or not v_series:
        raise AlignmentError("cannot build panel from an empty series")
    v_by_quarter = {p.quarter: p.value for p in v_series}
    rows = []
    for p in sorted(u_series, key=lambda p: p.quarter):
        if p.quarter not in v_by_quarter:
            continue
        u, v = p.value, v_by_quarter[p.quarter]
        if u <= 0.0 or v <= 0.0:
            raise DomainError(f"zero rate at {p.quarter}: u={u}, v={v}")
        if u >= 1.0 or v >= 1.0:
            raise DomainError(f"rate at {p.quarter} is not a fraction: u={u}, v={v}")
        rows.append((p.quarter, u, v))
    if not rows:
        raise AlignmentError("unemployment and vacancy series share no quarters")
    quarters, u, v = zip(*rows)
    return LaborMarketPanel(quarters, u, v)


def panel_from_csv(lines: str | Iterable[str]) -> LaborMarketPanel:
    """Read a panel back from its export format (quarter,u,v,theta,n)."""
    rows = [f for _, f in parse_table(lines, ("quarter", "u", "v", "theta", "n"), "panel")]
    return LaborMarketPanel(
        tuple(Quarter.parse(r[0]) for r in rows),
        [float(r[1]) for r in rows],
        [float(r[2]) for r in rows],
    )
