"""Exception taxonomy shared across the package.

The CLI maps these onto process exit codes: config errors exit 1, data
errors exit 2, numeric failures exit 3.
"""


class PipelineError(Exception):
    """Base class for all errors raised by this package."""

    exit_code = 1


class ConfigError(PipelineError):
    """Invalid or inconsistent configuration values."""

    exit_code = 1


class DataError(PipelineError):
    """Malformed, inconsistent, or insufficient input data."""

    exit_code = 2


class ParseError(DataError):
    """A text input could not be parsed; message carries the row number."""


class IntegrityError(DataError):
    """Parsed data violates a structural invariant (gaps, counts, ranges)."""


class InsufficientDataError(DataError):
    """Not enough observations for the requested computation."""


class ShapeError(DataError):
    """Array dimensions do not match the fitted model."""


class NumericError(PipelineError):
    """A numeric computation produced non-finite or unusable results."""

    exit_code = 3

