"""Exception types shared across the package."""

__all__ = ["NotUltrametricError", "ValidationError"]


class ValidationError(ValueError):
    """Raised when an input matrix, point set, or file fails validation."""


class NotUltrametricError(ValidationError):
    """Raised when an operation requires an ultrametric matrix but got none."""
