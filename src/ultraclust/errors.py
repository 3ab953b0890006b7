"""Exception types shared across the package, and the argument, array and memory checks."""

import numbers
import os

import numpy as np

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


def _as_float(a, what: str, codes: bool = False) -> np.ndarray:
    """``np.asarray(a, dtype=float)``, or ``ValidationError`` unless ``a`` is an array of real numbers.

    numpy drops imaginary parts with only a warning, and rejects ragged,
    non-numeric or float-overflowing input with its own errors.  With
    ``codes``, unsigned arrays stay.
    """
    try:
        arr = np.asarray(a)
        if arr.dtype.kind == "c":
            raise TypeError(f"got {arr.dtype} values")
        return arr if codes and arr.dtype.kind == "u" else arr.astype(float, copy=False)
    except (TypeError, ValueError, OverflowError) as exc:
        raise ValidationError(f"{what} must be an array of real numbers: {exc}") from None


def _physical_memory() -> int | None:
    """Bytes of physical memory, or None where sysconf cannot report them."""
    try:
        return max(os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES"), 0) or None
    except (AttributeError, ValueError, OSError):
        return None


def _check_memory(nbytes: int, need: str) -> None:
    """Raise ``ValidationError`` if ``nbytes`` exceed physical memory.

    ``need`` opens the message; nothing is checked where the memory cannot
    be probed.
    """
    memory = _physical_memory()
    if memory and nbytes > memory:
        raise ValidationError(f"{need}, more than the {memory / 2**20:.1f} MiB of physical memory")
