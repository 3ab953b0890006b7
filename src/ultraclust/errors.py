"""Exception types shared across the package, and the integer and radius argument checks."""

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


def _check_radius(r) -> None:
    """Raise ``ValidationError`` unless ``r`` is a real number >= 0 other than a bool (so NaN is rejected)."""
    if isinstance(r, bool) or not isinstance(r, numbers.Real):
        raise ValidationError(f"radius must be a nonnegative number, got {r!r}")
    if not r >= 0:  # NaN fails every comparison
        raise ValidationError(f"radius must be a nonnegative number, got {r}")
