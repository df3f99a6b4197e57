"""Exception types shared across the package.

Each class declares how the CLI reports it: ``exit_code`` is the process
exit status and ``kind`` the prefix of its one stderr line.  The CLI
reports a MemoryError, Python's own, as exit 5 with kind "out of memory".
"""


class DgcnError(Exception):
    """Base class for every error raised by this package."""

    exit_code = 4
    kind = "error"


class _DataError(DgcnError):
    """The input data or a model file cannot be used."""

    exit_code = 3
    kind = "data error"


class _NumericError(DgcnError):
    """The numerics broke down on inputs that passed every check."""

    kind = "numeric failure"


class DimensionMismatch(DgcnError, ValueError):
    """Operand shapes are inconsistent with each other."""


class NotPositiveDefinite(_NumericError):
    """Cholesky factorization failed even at the top of the jitter ladder."""


class StaleMask(DgcnError):
    """Backward pass requested without a paired training-mode forward pass."""


class NonFiniteLoss(_NumericError):
    """Training produced a NaN or infinite loss value, or prediction a NaN
    or infinite output."""


class SchemaMismatch(_DataError):
    """New data does not match the columns the model was trained on."""


class EmptyDataset(_DataError, ValueError):
    """Too few points or inputs: a dataset needs a point and an input
    column, a neighbour index a point, training two points."""


class InvalidTarget(_DataError, ValueError):
    """Target values or input columns lie outside the domain of the
    requested transform or of float64 arithmetic: a dataset needs finite
    entries, a log transform strictly positive targets, and standardizing
    a target or an input column a finite mean and standard deviation."""


class SeriesTooShort(_DataError):
    """Time series has too few values for the requested lag embedding, or
    its trailing lag window has gaps."""


class ShapeMismatch(_DataError, ValueError):
    """Array length or shape differs from the documented contract."""


class FormatVersionMismatch(_DataError):
    """Model file carries an unknown magic or an unsupported format version."""


class ChecksumMismatch(_DataError):
    """Model file is truncated or its CRC32 does not match its contents."""


class ParseError(_DataError, ValueError):
    """A CSV cell could not be parsed as a number.

    Carries the 1-based row and column of the offending cell.
    """

    def __init__(self, row, col, detail=""):
        self.row = row
        self.col = col
        msg = f"cannot parse cell at row {row}, column {col}"
        if detail:
            msg += f": {detail}"
        super().__init__(msg)


class MissingColumn(_DataError):
    """Requested target column is not present in the file header."""


class InvalidSetting(DgcnError, ValueError):
    """A setting is unusable: a config key, CLI flag or a prediction rule
    (neighbour count, alpha, interval)."""

    exit_code = 2


class InvalidAlpha(InvalidSetting):
    """Confidence level outside the open interval (0, 1)."""
