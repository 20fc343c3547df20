"""Exception types shared across the package.

The CLI maps these onto process exit codes: configuration problems exit 2,
data/format problems exit 3, numerical failures exit 4.
"""


class SpadError(Exception):
    """Base class for all package-specific errors."""


class ConfigError(SpadError):
    """Invalid or inconsistent run configuration."""


# --- data / format errors (CLI exit 3) ---

class DataError(SpadError):
    """Base class for malformed input data or file content."""


class BadMagic(DataError):
    """Event file does not start with the expected magic string."""


class TruncatedFile(DataError):
    """Event file ended mid-record or is missing its footer."""


class InvariantViolation(DataError):
    """Event file content violates a format invariant."""


class OrderViolation(DataError):
    """Frame ids are not strictly increasing."""


class RangeViolation(DataError):
    """Pixel index, tdc value or frame id outside the representable range."""


class MalformedFrame(DataError):
    """Not a FrameBatch, or its events are ragged, repeated or out of range."""


class EmptyAccumulator(DataError):
    """Operation requires at least one accumulated frame."""


class DisjointnessViolation(DataError):
    """Shifted accidental window is not disjoint from the coincidence window."""


class InsufficientMask(DataError):
    """Uncorrelated-pair mask retains too few entries for a stable fit."""


class FlagOrderViolation(DataError):
    """Correction stage applied out of order (flags are monotone)."""


class WindowTooLarge(DataError):
    """A window does not fit in the frame or on the sensor."""


class OutOfRange(DataError):
    """Pixel coordinate outside the sensor grid."""


class AllColumnsEmpty(DataError):
    """No column of a joint table passes the retention threshold."""


# --- numerical errors (CLI exit 4) ---

class NumericError(SpadError):
    """Base class for numerical failures."""


class NotConverged(NumericError):
    """A fit required by the requested analysis did not converge."""


class DegenerateInput(NumericError):
    """Too few usable points for the requested fit."""
