"""Exception hierarchy shared across the package."""


class LipboundError(Exception):
    """Base class for all package errors."""


class DimensionMismatch(LipboundError):
    """Operand shapes are incompatible."""


class NotPositiveDefinite(LipboundError):
    """Cholesky factorization hit a non-positive pivot."""


class NotConverged(LipboundError):
    """A LAPACK eigen-solver reported failure to converge."""


class ParseError(LipboundError):
    """A network file or a bound report could not be parsed."""


class DimensionChainError(LipboundError):
    """Consecutive weight matrices have mismatched inner dimensions."""

    def __init__(self, layer: int, message: str | None = None):
        self.layer = layer
        super().__init__(message or f"dimension chain broken at layer {layer}")


class DefinitenessLost(LipboundError):
    """The recursion matrix M_{k+1} lost positive definiteness at layer k."""

    def __init__(self, layer: int, message: str | None = None):
        self.layer = layer
        super().__init__(
            message or f"recursion matrix lost definiteness at layer {layer}"
        )


class AllInfeasible(LipboundError):
    """Every grid point of a hyperparameter sweep failed."""


class ValidationFailed(LipboundError):
    """A bound report failed independent verification."""
