"""Calendar quarters and months as integer indices.

Quarter YYYYQn is the index 4 * year + n - 1 and month YYYY-MM the index
12 * year + MM - 1, so month m falls in quarter m // 3. Every time series
in the toolkit is keyed on these ints from the parser on; ordering, joins
and slicing are integer operations, and a quarter becomes text only where
a label is parsed or printed.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Sequence

from .errors import FirstFault, InputError, quoted

if TYPE_CHECKING:
    import numpy as np

_PLACES = (1000, 100, 10, 1)


def _code_points(texts: Sequence[str], width: int) -> tuple[np.ndarray, np.ndarray]:
    """Each text, stripped of surrounding blanks, as a row of width code points; and which have that width."""
    import numpy as np

    stripped = list(map(str.strip, texts))
    fits = np.fromiter(map(len, stripped), np.int64, len(stripped)) == width
    codes = np.array(stripped, dtype=f"U{width}").view(np.uint32).reshape(-1, width)
    return codes.astype(np.int32), fits


def _decimal(codes: np.ndarray) -> np.ndarray:
    """The digit each code point is to a regular expression's \\d (any Unicode decimal digit), else -1."""
    import numpy as np

    digits = np.where((48 <= codes) & (codes <= 57), codes - 48, -1)
    wide = codes > 127
    if wide.any():
        import unicodedata  # only for text beyond ASCII, which is rare

        points, inverse = np.unique(codes[wide], return_inverse=True)
        digits[wide] = np.array([unicodedata.decimal(chr(p), -1) for p in points.tolist()])[inverse]
    return digits


def _quarters(labels: Sequence[str]) -> tuple[np.ndarray, np.ndarray]:
    """The index of each YYYYQn label (YYYY any four \\d digits), and which labels are not one."""
    codes, fits = _code_points(labels, 6)
    year = _decimal(codes[:, :4])
    q = codes[:, 5] - 49  # an ASCII 1-4 only
    letter = (codes[:, 4] == ord("Q")) | (codes[:, 4] == ord("q"))
    ok = fits & (year >= 0).all(axis=1) & letter & (0 <= q) & (q <= 3)
    return 4 * (year @ _PLACES) + q, ~ok


def parse_quarter(text: str) -> int:
    """The index of a YYYYQn label (surrounding blanks and a lower-case q allowed), by the grammar of _quarters."""
    t = text.strip()
    if len(t) != 6 or not t[:4].isdecimal() or t[4] not in "Qq" or t[5] not in "1234":
        raise InputError(f"bad quarter label {quoted(text)}, expected YYYYQn")
    return 4 * int(t[:4]) + int(t[5]) - 1


def parse_quarters(labels: Sequence[str], linenos: Sequence[int], what: str, faults: FirstFault) -> np.ndarray:
    """The int64 index of every YYYYQn label of a column, in one pass.

    For the first bad label, an InputError naming its line from linenos
    goes to faults, so that a table can check its other columns before
    it raises; the indices of bad labels are meaningless.
    """
    index, bad = _quarters(labels)
    faults.check(
        bad,
        lambda i: InputError(f"{what} line {linenos[i]}: bad quarter label {quoted(labels[i])}, expected YYYYQn"),
    )
    return index


def year_month(dates: Sequence[str]) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The year and month numbers of YYYY-MM dates (\\d digits), and which dates are not of that form."""
    codes, fits = _code_points(dates, 7)
    digits = _decimal(codes[:, [0, 1, 2, 3, 5, 6]])
    ok = fits & (digits >= 0).all(axis=1) & (codes[:, 4] == ord("-"))
    return digits[:, :4] @ _PLACES, digits[:, 4:] @ _PLACES[2:], ~ok


def quarter_label(index: int) -> str:
    """The YYYYQn label of a quarter index."""
    year, q = divmod(int(index), 4)
    return f"{year}Q{q + 1}"


def write_quarter_rows(header: str, quarters: np.ndarray, template: str, columns: Sequence[np.ndarray]) -> str:
    """The text of a CSV table: its header, then per quarter its label and its column values %-formatted by template."""
    blocks = [header + "\n"]
    for i in range(0, len(quarters), 1024):  # a block at a time bounds the memory of the Python row values
        year, q = divmod(quarters[i : i + 1024], 4)
        rows = zip(year.tolist(), (q + 1).tolist(), *(c[i : i + 1024].tolist() for c in columns))
        blocks.append("".join(map(f"%dQ%d,{template}\n".__mod__, rows)))
    return "".join(blocks)
