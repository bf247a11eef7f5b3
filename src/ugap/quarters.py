"""Calendar quarters, the key type for every time series in the toolkit."""

from __future__ import annotations

import re
from dataclasses import dataclass

from .errors import ParseError

_QUARTER_RE = re.compile(r"^(\d{4})[Qq]([1-4])$")


@dataclass(frozen=True, order=True)
class Quarter:
    """A calendar quarter, ordered lexicographically by (year, q)."""

    year: int
    q: int

    def __post_init__(self):
        if not 1 <= self.q <= 4:
            raise ParseError(f"quarter index out of range: {self.q}")

    @classmethod
    def parse(cls, text: str) -> Quarter:
        m = _QUARTER_RE.match(text.strip())
        if m is None:
            raise ParseError(f"bad quarter label {text!r}, expected YYYYQn")
        return cls(int(m.group(1)), int(m.group(2)))

    @classmethod
    def of_month(cls, year: int, month: int) -> Quarter:
        if not 1 <= month <= 12:
            raise ParseError(f"month out of range: {month}")
        return cls(year, (month - 1) // 3 + 1)

    def next(self) -> Quarter:
        return Quarter(self.year + 1, 1) if self.q == 4 else Quarter(self.year, self.q + 1)

    def prev(self) -> Quarter:
        return Quarter(self.year - 1, 4) if self.q == 1 else Quarter(self.year, self.q - 1)

    def __str__(self) -> str:
        return f"{self.year}Q{self.q}"


def quarter_range(start: Quarter, end: Quarter) -> list[Quarter]:
    """Inclusive run of consecutive quarters from start to end."""
    if end < start:
        raise ParseError(f"inverted quarter range {start}..{end}")
    out = [start]
    while out[-1] != end:
        out.append(out[-1].next())
    return out
