"""The two exceptions behind ugap's exit codes, and two helpers for readers.

``InputError`` is exit code 2: an input file, option or configuration
value is bad, and its message names what is wrong and where.
``PropertyViolation`` is exit code 1: the inputs were valid but a
verified property failed. No caller tells input faults apart by kind,
so there is one class for them. ``FirstFault`` lets a reader that checks
whole columns report the fault a row-by-row reader would. Only the
column check loads numpy, so a command that reads no column starts
without it. ``quoted`` echoes a field read from an input file in a
message, clipped so that a huge field gives a short message.
"""


class InputError(Exception):
    pass


class PropertyViolation(Exception):
    pass


class FirstFault:
    """The fault a reader that checks one row at a time would report first.

    Such a reader stops at the first faulty row in file order and names
    the first check that row fails. Checking whole columns finds the same
    fault when the checks are made in the order a row meets them, each
    on the rows before the earliest fault found so far, `rows`: a later
    check can only move the fault to an earlier row, never to the same
    one.
    """

    def __init__(self) -> None:
        self.rows: int | None = None
        self.error: InputError | None = None

    def at(self, row: int, error) -> None:
        """Record error(row), an InputError, if row comes before every fault so far."""
        if self.rows is None or row < self.rows:
            self.rows, self.error = row, error(row)

    def check(self, bad, error) -> None:
        """Record error(i) for the first row i, before every fault so far, where bad is true."""
        import numpy as np

        bad = np.asarray(bad[: self.rows], dtype=bool)
        if bad.any():
            self.at(int(bad.argmax()), error)

    def raise_first(self) -> None:
        if self.error is not None:
            raise self.error


def quoted(text: str) -> str:
    """repr(text) for a field of up to 40 characters; a longer one shows its first 40 and its length."""
    if len(text) <= 40:
        return repr(text)
    return f"{text[:40]!r}... ({len(text)} characters)"
