"""Stable-curve subperiods and the per-quarter elasticity schedule.

Regime dates are configuration, not code: the bundled default table can
be replaced by a plain-text file when new data vintages move the breaks.
Regime bounds are quarter indices (see `ugap.quarters`). The schedule is
a set of columns aligned with the panel quarters: entry i of each column
belongs to the panel's i-th quarter. It is the only place that picks a
quarter's epsilon and kappa.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from .config import parse_table, read_text
from .errors import InputError
from .fitting import ElasticityEstimate
from .quarters import parse_quarters


@dataclass(frozen=True)
class Regime:
    label: str
    start: int
    end: int

    def __post_init__(self):
        if self.end < self.start:
            raise InputError(f"regime {self.label!r} ends before it starts")


@dataclass(frozen=True)
class RegimeTable:
    regimes: tuple[Regime, ...]

    def __post_init__(self):
        labels = [r.label for r in self.regimes]
        for i, label in enumerate(labels):
            if label in labels[:i]:
                raise InputError(f"regime {label!r} is listed twice")
        ordered = sorted(self.regimes, key=lambda r: r.start)
        if list(ordered) != list(self.regimes):
            raise InputError("regimes must be listed in chronological order")
        for a, b in zip(ordered, ordered[1:]):
            if not (a.end < b.start):
                raise InputError(f"regimes {a.label!r} and {b.label!r} overlap")

    def __iter__(self):
        return iter(self.regimes)

    @classmethod
    def from_text(cls, text: str) -> RegimeTable:
        """Parse `label,start,end` lines with quarters as YYYYQn."""
        (labels, start, end), faults = parse_table(text, ("label", "start", "end"), "regime")
        starts = parse_quarters(start, faults).tolist()
        ends = parse_quarters(end, faults).tolist()
        # Regime raises for a row that ends before it starts; only rows
        # before the first other fault are built, so the earliest row wins
        regimes = [Regime(*row) for row in zip(labels[: faults.rows], starts, ends)]
        faults.raise_first()
        if not regimes:
            raise InputError("regime table is empty")
        return cls(tuple(regimes))

    @classmethod
    def from_file(cls, path) -> RegimeTable:
        return cls.from_text(read_text(path))


@dataclass(frozen=True, eq=False)
class Schedule:
    """Per-quarter curve parameters as columns aligned with the panel quarters."""

    epsilon: np.ndarray
    kappa: np.ndarray
    is_gap_quarter: np.ndarray

    def __len__(self) -> int:
        return len(self.epsilon)


def build_schedule(
    fits: Sequence[tuple[Regime, ElasticityEstimate]],
    quarters: Sequence[int],
    kappa: float,
    kappa_by_regime: Mapping[str, float] | None = None,
) -> Schedule:
    """Curve parameters for every quarter index, in the order of `quarters`, from fit_all's (regime, estimate) pairs.

    The pairs are in chronological order, as fit_all gives them; no pairs
    raise InputError. Quarters inside a regime use its estimate and kappa:
    its entry in kappa_by_regime (robustness runs), else kappa; one that
    is not positive and finite raises InputError. Shift quarters between
    regimes, and the quarters of a regime missing from the pairs, carry
    forward the most recent preceding regime's values and are flagged;
    quarters before the first regime borrow the first regime's values,
    also flagged. Carry-forward is causal on purpose: no lookahead, no
    interpolation, and flagged quarters can be excluded downstream.
    """
    if not fits:
        raise InputError("no fitted regime to build a schedule from")
    kappas = [(kappa_by_regime or {}).get(r.label, kappa) for r, _est in fits]
    for k in kappas:
        if not 0.0 < k < math.inf:
            raise InputError(f"recruiting cost must be positive and finite, got {k}")

    quarters = np.asarray(quarters, dtype=np.int64)
    starts = np.array([r.start for r, _est in fits], dtype=np.int64)
    ends = np.array([r.end for r, _est in fits], dtype=np.int64)
    # the latest regime starting at or before each quarter either contains
    # it or is the most recent one that ended before it
    latest = np.searchsorted(starts, quarters, side="right") - 1
    source = np.maximum(latest, 0)
    epsilon = np.array([est.epsilon for _r, est in fits], dtype=np.float64)
    return Schedule(
        epsilon=epsilon[source],
        kappa=np.array(kappas, dtype=np.float64)[source],
        is_gap_quarter=(latest < 0) | (ends[source] < quarters),
    )
