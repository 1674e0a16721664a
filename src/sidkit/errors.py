"""Exception types shared across the package."""


class SidkitError(Exception):
    """Base class for all package-specific errors."""


class DataError(SidkitError):
    """Malformed input data: bad rows, dimension mismatches, unresolvable ids."""


class RowError(DataError):
    """A DataError found after reading, in row `row` of a file's parsed rows;
    the row reader reports it at the line that row was read from."""

    def __init__(self, row: int, message: str):
        super().__init__(message)
        self.row = row


class NumericError(SidkitError):
    """Numerical failure during training or evaluation (divergence, non-finite loss)."""
