"""Stable-curve subperiods and the per-quarter elasticity schedule.

Regime dates are configuration, not code: the bundled default table can
be replaced by a plain-text file when new data vintages move the breaks.
The schedule is a tuple aligned with the panel quarters: entry i belongs to
the panel's i-th quarter.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass
from typing import Iterable, Sequence

from .config import bundled_data_dir, parse_table
from .errors import ConfigError
from .fitting import ElasticityEstimate
from .quarters import Quarter


@dataclass(frozen=True)
class Regime:
    label: str
    start: Quarter
    end: Quarter

    def __post_init__(self):
        if self.end < self.start:
            raise ConfigError(f"regime {self.label!r} ends before it starts")


@dataclass(frozen=True)
class RegimeTable:
    regimes: tuple[Regime, ...]

    def __post_init__(self):
        ordered = sorted(self.regimes, key=lambda r: r.start)
        if list(ordered) != list(self.regimes):
            raise ConfigError("regimes must be listed in chronological order")
        for a, b in zip(ordered, ordered[1:]):
            if not (a.end < b.start):
                raise ConfigError(f"regimes {a.label!r} and {b.label!r} overlap")

    def __iter__(self):
        return iter(self.regimes)

    def __len__(self) -> int:
        return len(self.regimes)

    @classmethod
    def from_lines(cls, lines: Iterable[str]) -> RegimeTable:
        """Parse `label,start,end` lines with quarters as YYYYQn."""
        regimes = [
            Regime(label, Quarter.parse(start), Quarter.parse(end))
            for _, (label, start, end) in parse_table(lines, ("label", "start", "end"), "regime")
        ]
        if not regimes:
            raise ConfigError("regime table is empty")
        return cls(tuple(regimes))

    @classmethod
    def from_file(cls, path) -> RegimeTable:
        with open(path, encoding="utf-8") as fh:
            return cls.from_lines(fh)


def default_regime_table() -> RegimeTable:
    """The bundled seven-subperiod table for the 1951-2019 US sample."""
    return RegimeTable.from_file(bundled_data_dir() / "regimes_default.csv")


def _latest_start(q: Quarter, table: RegimeTable) -> Regime | None:
    """The last regime starting at or before q, or None when q precedes them all."""
    i = bisect_right(table.regimes, q, key=lambda r: r.start)
    return table.regimes[i - 1] if i else None


def assign_regime(q: Quarter, table: RegimeTable) -> Regime | None:
    """Regime containing q, or None for shift quarters outside every regime."""
    regime = _latest_start(q, table)
    return regime if regime is not None and q <= regime.end else None


@dataclass(frozen=True)
class ScheduleEntry:
    epsilon: float
    regime_label: str
    is_gap_quarter: bool


def build_schedule(
    table: RegimeTable,
    estimates: Sequence[ElasticityEstimate],
    quarters: Sequence[Quarter],
) -> tuple[ScheduleEntry, ...]:
    """Curve parameters for every quarter, in the order of `quarters`.

    Quarters inside a regime use that regime's estimate. Shift quarters
    between regimes carry forward the most recent preceding regime's
    values and are flagged; quarters before the first regime borrow the
    first regime's values, also flagged. Carry-forward is causal on
    purpose: no lookahead, no interpolation, and flagged quarters can be
    excluded from any summary downstream.
    """
    by_label = {e.label: e for e in estimates}
    for regime in table:
        if regime.label not in by_label:
            raise ConfigError(f"no elasticity estimate for regime {regime.label!r}")

    entries = []
    for q in quarters:
        # the latest regime starting at or before q either contains q or
        # is the most recent one that ended before it
        source = _latest_start(q, table)
        is_gap = source is None or source.end < q
        source = source or table.regimes[0]
        entries.append(ScheduleEntry(by_label[source.label].epsilon, source.label, is_gap))
    return tuple(entries)
