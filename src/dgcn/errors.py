"""Exception types shared across the package."""


class DgcnError(Exception):
    """Base class for every error raised by this package."""


class DimensionMismatch(DgcnError, ValueError):
    """Operand shapes are inconsistent with each other."""


class NotPositiveDefinite(DgcnError):
    """Cholesky factorization failed even at the top of the jitter ladder."""


class StaleMask(DgcnError):
    """Backward pass requested without a paired training-mode forward pass."""


class NonFiniteLoss(DgcnError):
    """Training produced a NaN or infinite loss value, or prediction a NaN
    or infinite output."""


class SchemaMismatch(DgcnError):
    """New data does not match the columns the model was trained on."""


class EmptyDataset(DgcnError, ValueError):
    """An operation received fewer points than it needs: a dataset or
    neighbour index none, training fewer than two."""


class SeriesTooShort(DgcnError):
    """Time series has too few values for the requested lag embedding."""


class ShapeMismatch(DgcnError, ValueError):
    """Array length or shape differs from the documented contract."""


class FormatVersionMismatch(DgcnError):
    """Model file carries an unknown magic or an unsupported format version."""


class ChecksumMismatch(DgcnError):
    """Model file is truncated or its CRC32 does not match its contents."""


class ParseError(DgcnError, ValueError):
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


class MissingColumn(DgcnError):
    """Requested target column is not present in the file header."""


class InvalidSetting(DgcnError, ValueError):
    """A setting is unusable: a config key, CLI flag, DGCN_THREADS or a
    prediction rule (neighbour count, alpha, interval)."""


class InvalidAlpha(InvalidSetting):
    """Confidence level outside the open interval (0, 1)."""
