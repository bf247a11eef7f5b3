"""Calendar quarters and months as integer indices.

Quarter YYYYQn is the index 4 * year + n - 1 and month YYYY-MM the index
12 * year + MM - 1, so month m falls in quarter m // 3. Every time series
in the toolkit is keyed on these ints from the parser on; ordering, joins
and slicing are integer operations, and a quarter becomes text only where
a label is parsed or printed.
"""

from __future__ import annotations

import re
from typing import Sequence, TextIO

import numpy as np

from .errors import ParseError

_QUARTER_RE = re.compile(r"^(\d{4})[Qq]([1-4])$")


def parse_quarter(text: str) -> int:
    """The index of a YYYYQn label (surrounding blanks and a lower-case q allowed)."""
    m = _QUARTER_RE.match(text.strip())
    if m is None:
        raise ParseError(f"bad quarter label {text!r}, expected YYYYQn")
    return 4 * int(m.group(1)) + int(m.group(2)) - 1


def quarter_label(index: int) -> str:
    """The YYYYQn label of a quarter index."""
    year, q = divmod(int(index), 4)
    return f"{year}Q{q + 1}"


def write_quarter_rows(
    stream: TextIO, header: str, quarters: np.ndarray, template: str, columns: Sequence[np.ndarray]
) -> None:
    """Write a CSV header, then per quarter its label and its column values %-formatted by template."""
    stream.write(header + "\n")
    for i in range(0, len(quarters), 1024):  # a block at a time bounds the memory of the row text
        year, q = divmod(quarters[i : i + 1024], 4)
        rows = zip(year.tolist(), (q + 1).tolist(), *(c[i : i + 1024].tolist() for c in columns))
        stream.write("".join(map(f"%dQ%d,{template}\n".__mod__, rows)))
