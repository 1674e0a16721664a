"""Exception types shared across the package."""


class SidkitError(Exception):
    """Base class for all package-specific errors."""


class DataError(SidkitError):
    """Malformed input data: bad rows, dimension mismatches, unresolvable ids."""


class NumericError(SidkitError):
    """Numerical failure during training or evaluation (divergence, non-finite loss)."""
