"""Span recorder for the traced run, and the self-time arithmetic.

The recorder wraps public entry points of the ugap modules from outside:
it swaps each named attribute for a wrapper that records a span (name,
start, end, parent, operation id) and puts the original back on exit.
Spans stay in memory until the caller writes them out.
"""

from __future__ import annotations

import gzip
import time
from collections import defaultdict
from pathlib import Path
from typing import Callable, Iterable, Sequence

LAYERS = ("ingest", "regimes", "fitting", "calibration", "gap", "planner", "svgfig", "config", "cli")

# span index fields
NAME, START, END, PARENT, OP = range(5)


class SpanRecorder:
    """Records nested spans around wrapped callables.

    Each span is a list [name, start, end, parent_index, op]; parent_index
    is -1 for a top-level span. `op` is the operation id current when the
    span opened. Counters are keyed by (op, counter name).
    """

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.counts: dict[tuple[int, str], float] = defaultdict(float)
        self.op = 0
        self._stack: list[int] = []
        self._saved: list[tuple[object, str, object]] = []

    def wrap(self, owner, attr: str, name: str, on_result: Callable[[object], dict] | None = None) -> None:
        """Replace owner.attr by a span-recording wrapper.

        A classmethod stays callable on the class; a plain function defined
        on a class keeps binding to the instance.
        """
        raw = vars(owner)[attr]
        target = getattr(owner, attr)
        spans, stack, counts = self.spans, self._stack, self.counts
        perf = time.perf_counter

        def wrapper(*args, **kwargs):
            index = len(spans)
            span = [name, perf(), 0.0, stack[-1] if stack else -1, self.op]
            spans.append(span)
            stack.append(index)
            try:
                result = target(*args, **kwargs)
            finally:
                span[END] = perf()
                stack.pop()
            if on_result is not None:
                for key, n in on_result(result).items():
                    counts[(span[OP], key)] += n
            return result

        installed = staticmethod(wrapper) if isinstance(raw, classmethod) else wrapper
        self._saved.append((owner, attr, raw))
        setattr(owner, attr, installed)

    def restore(self) -> None:
        """Put every wrapped attribute back, newest first."""
        while self._saved:
            owner, attr, raw = self._saved.pop()
            setattr(owner, attr, raw)

    def __enter__(self) -> SpanRecorder:
        return self

    def __exit__(self, *exc) -> None:
        self.restore()

    def write(self, path: Path) -> None:
        """Write spans as gzipped CSV: index,name,start,end,parent,op."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            fh.write("index,name,start,end,parent,op\n")
            for i, s in enumerate(self.spans):
                fh.write(f"{i},{s[NAME]},{s[START]:.9f},{s[END]:.9f},{s[PARENT]},{s[OP]}\n")


def _union_length(intervals: Iterable[tuple[float, float]]) -> float:
    total, cur_a, cur_b = 0.0, None, None
    for a, b in sorted(intervals):
        if cur_b is None or a > cur_b:
            if cur_b is not None:
                total += cur_b - cur_a
            cur_a, cur_b = a, b
        elif b > cur_b:
            cur_b = b
    if cur_b is not None:
        total += cur_b - cur_a
    return total


def self_times(spans: Sequence[Sequence]) -> list[float]:
    """Each span's duration minus the part of it that its children cover."""
    children: dict[int, list[tuple[float, float]]] = defaultdict(list)
    for s in spans:
        if s[PARENT] >= 0:
            children[s[PARENT]].append((s[START], s[END]))
    return [
        (s[END] - s[START]) - _union_length(children.get(i, ())) for i, s in enumerate(spans)
    ]


def per_op_totals(spans: Sequence[Sequence]) -> dict[int, dict[str, float]]:
    """Self time and call count per span name and per layer, for each op.

    Keys are "<span name>.self_s", "<span name>.calls", "<layer>.self_s",
    "<layer>.calls" and "top.s" (summed duration of top-level spans).
    """
    totals: dict[int, dict[str, float]] = defaultdict(lambda: defaultdict(float))
    for s, self_s in zip(spans, self_times(spans)):
        t = totals[s[OP]]
        layer = s[NAME].split(".", 1)[0]
        t[f"{s[NAME]}.self_s"] += self_s
        t[f"{s[NAME]}.calls"] += 1
        t[f"{layer}.self_s"] += self_s
        t[f"{layer}.calls"] += 1
        if s[PARENT] < 0:
            t["top.s"] += s[END] - s[START]
    return totals
