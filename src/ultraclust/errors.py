"""Exception types shared across the package, and the integer-argument check."""

import numbers

__all__ = ["NotUltrametricError", "ValidationError"]


class ValidationError(ValueError):
    """Raised when an input matrix, point set, or file fails validation."""


class NotUltrametricError(ValidationError):
    """Raised when an operation requires an ultrametric matrix but got none."""


def _check_integer(value, requirement: str) -> None:
    """Raise ``ValidationError`` unless ``value`` is a Python or numpy integer other than a bool."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise ValidationError(f"{requirement}, got {value!r}")
