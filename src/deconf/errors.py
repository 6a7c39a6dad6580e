"""Exception hierarchy shared across the package.

The CLI maps these onto its exit-code contract: validation and file-format
problems exit 2, degenerate estimation under strict mode exits 3, and
data exhaustion (an empirical grid too large for its table) exits 4.
"""


class DeconfError(Exception):
    """Base class for all package errors."""


class ValidationError(DeconfError):
    """A distribution, parameter, or configuration violates its invariants."""


class DataFormatError(DeconfError):
    """A file could not be parsed; message carries the offending row/field."""


class DegenerateGroupError(DeconfError):
    """An estimator hit an empty (y,t) group under fallback='error'."""

    def __init__(self, groups):
        self.groups = tuple(sorted(groups))
        names = ", ".join(f"(y={y},t={t})" for y, t in self.groups)
        super().__init__(f"no deconfounded samples in positive-mass group(s) {names}")

    def __reduce__(self):
        # rebuild from the groups, not the message, when crossing processes
        return type(self), (self.groups,)


class ExhaustedError(DeconfError):
    """A without-replacement reveal requested more records than remain."""

    def __init__(self, message, shortfall=None):
        super().__init__(message)
        self.shortfall = shortfall
