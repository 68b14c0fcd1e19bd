"""Exception hierarchy shared by all scgarch modules."""

from __future__ import annotations


class ScgarchError(Exception):
    """Base class for all errors raised by this package."""


class DimensionMismatch(ScgarchError):
    """Operands have incompatible shapes."""


class NotPositiveDefinite(ScgarchError):
    """A matrix required to be positive definite is not."""


class NotUnitLowerTriangular(ScgarchError):
    """A matrix required to be unit lower triangular is not."""


class NonPositiveDiagonal(ScgarchError):
    """A covariance matrix has a non-positive diagonal entry."""


class SingularPrediction(ScgarchError):
    """A predicted state covariance could not be inverted, even after jitter."""


class NonPositiveMeasurementVariance(ScgarchError):
    """Measurement noise variance must be strictly positive."""


class InvalidParameters(ScgarchError):
    """GARCH parameters violate their sign or positivity constraints."""


class SeriesTooShort(ScgarchError):
    """Too few observations to fit a model."""


class DegenerateSeries(ScgarchError):
    """A series with zero variance or no finite likelihood cannot be fitted."""


class TooManyPermutations(ScgarchError):
    """Exhaustive ordering search requested above the dimension limit."""


class InvalidBlockSize(ScgarchError):
    """Moving-block window size violates its constraints."""


class BlockTooSmall(InvalidBlockSize):
    pass


class BlockTooLarge(InvalidBlockSize):
    pass


class PanelFormatError(ScgarchError):
    """A CSV input could not be parsed; the message carries the line number."""


class PipelineError(ScgarchError):
    """A multi-stage fit failed; carries the stage name and series index.

    ``index`` is the failing series' 1-based column in the panel as given,
    whatever ordering the fit or the ordering search applies.
    """

    def __init__(self, stage: str, index: int, cause: Exception):
        self.stage = stage
        self.index = index
        self.cause = cause
        super().__init__(f"stage '{stage}' failed for series {index}: {cause}")
