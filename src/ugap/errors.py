"""Exception types shared across the toolkit.

``InputError`` subclasses map to CLI exit code 2 (bad inputs or
configuration); ``PropertyViolation`` maps to exit code 1 (a verified
invariant failed on otherwise valid inputs). ``FirstFault`` lets a reader
that checks whole columns report the fault a row-by-row reader would.
"""

import numpy as np


class InputError(Exception):
    pass


class ParseError(InputError):
    pass


class DuplicateKeyError(InputError):
    pass


class DomainError(InputError):
    pass


class CoverageError(InputError):
    pass


class AlignmentError(InputError):
    pass


class ConfigError(InputError):
    pass


class SampleSizeError(InputError):
    pass


class DegenerateDataError(InputError):
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
        bad = np.asarray(bad[: self.rows], dtype=bool)
        if bad.any():
            self.at(int(bad.argmax()), error)

    def raise_first(self) -> None:
        if self.error is not None:
            raise self.error
