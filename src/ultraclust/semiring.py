"""Min-max matrix algebra over nonnegative reals extended with infinity.

Matrices are float64 numpy arrays, or unsigned level codes inside
:func:`stabilize`; ``numpy.inf`` is the distinguished infinity element.
The product

    C[i, j] = min over k of max(A[i, k], B[k, j])

never creates values that are not already present in its operands, so all
equality tests in this module are exact (no tolerances anywhere).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ValidationError

__all__ = [
    "StabilizationResult",
    "identity",
    "matrix_leq",
    "minmax_product",
    "power",
    "power_chain",
    "stabilize",
    "validate_dissimilarity",
]

# bytes of the (rows, k, p) broadcast temporary of one block of the product:
# about 1 MiB stays in cache whatever the matrix order or dtype
_BLOCK_BYTES = 1 << 20


def validate_dissimilarity(a) -> np.ndarray:
    """Check that ``a`` is a square dissimilarity matrix and return it as float64.

    Requirements: zero diagonal, exact symmetry, strictly positive
    off-diagonal entries (``inf`` allowed).
    """
    a = np.asarray(a, dtype=float)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValidationError(f"expected a square matrix, got shape {a.shape}")
    n = a.shape[0]
    if n == 0:
        raise ValidationError("matrix order must be at least 1")
    diag = np.diagonal(a)
    if np.any(diag != 0.0):
        i = int(np.nonzero(diag != 0.0)[0][0])
        raise ValidationError(f"nonzero diagonal entry at ({i}, {i}): {diag[i]}")
    if not np.array_equal(a, a.T):
        i, j = np.argwhere(a != a.T)[0]
        raise ValidationError(
            f"asymmetric entries at ({i}, {j}): {a[i, j]} vs {a[j, i]}"
        )
    off = ~np.eye(n, dtype=bool)
    bad = off & ~(a > 0.0)
    if np.any(bad):
        i, j = np.argwhere(bad)[0]
        raise ValidationError(
            f"off-diagonal entry at ({i}, {j}) must be positive, got {a[i, j]}"
        )
    return a


def minmax_product(a, b) -> np.ndarray:
    """Min-max product: C[i,j] = min_k max(a[i,k], b[k,j]).

    Every entry of the result occurs in ``a`` or ``b``, so downstream
    comparisons stay exact even for floating inputs.  Operands that share
    one unsigned-integer dtype (level codes) are multiplied in that dtype;
    any other operands are converted to float64.
    """
    a, b = np.asarray(a), np.asarray(b)
    if a.dtype != b.dtype or a.dtype.kind != "u":
        a, b = a.astype(float, copy=False), b.astype(float, copy=False)
    if a.ndim != 2 or b.ndim != 2:
        raise ValidationError("operands must be 2-dimensional")
    if a.shape[1] != b.shape[0]:
        raise ValidationError(
            f"dimension mismatch: {a.shape} cannot multiply {b.shape}"
        )
    out = np.empty((a.shape[0], b.shape[1]), dtype=a.dtype)
    block = max(1, _BLOCK_BYTES // max(b.nbytes, 1))
    for s in range(0, a.shape[0], block):
        # (rows, n, p) broadcast, reduced over the shared axis
        out[s : s + block] = np.maximum(a[s : s + block, :, None], b[None, :, :]).min(
            axis=1
        )
    return out


def identity(n: int) -> np.ndarray:
    """Multiplicative identity: zero diagonal, infinity elsewhere."""
    if n < 1:
        raise ValidationError(f"identity order must be positive, got {n}")
    e = np.full((n, n), np.inf)
    np.fill_diagonal(e, 0.0)
    return e


def matrix_leq(a, b) -> bool:
    """Entrywise order: True iff a[i,j] <= b[i,j] for all i, j."""
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    if a.shape != b.shape:
        raise ValidationError(f"shape mismatch: {a.shape} vs {b.shape}")
    return bool(np.all(a <= b))


def power(a, k: int) -> np.ndarray:
    """k-th min-max power by repeated squaring; power(a, 0) is the identity."""
    a = np.asarray(a, dtype=float)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValidationError(f"power requires a square matrix, got {a.shape}")
    if k < 0:
        raise ValidationError(f"power exponent must be nonnegative, got {k}")
    if k == 0:
        return identity(a.shape[0])
    result = None
    sq = a
    while k:
        if k & 1:
            result = sq if result is None else minmax_product(result, sq)
        k >>= 1
        if k:
            sq = minmax_product(sq, sq)
    return result


@dataclass(frozen=True)
class StabilizationResult:
    """Fixpoint of the power sequence of a dissimilarity matrix.

    ``star`` is the least power that no further multiplication changes (the
    subdominant ultrametric matrix), ``m`` the stabilization power, and
    ``ultrametricity`` the ratio n/m.  ``star`` holds the input's float64
    values under either strategy.  ``power_trace`` records how many
    entries changed at each multiplication step (linear strategy only).
    """

    star: np.ndarray
    m: int
    ultrametricity: float
    power_trace: list[int] | None = None


def power_chain(a):
    """Yield the distinct min-max powers A, A^2, ..., A^m = A* of a dissimilarity.

    Each power is the previous one times A; the chain ends with the first
    power that one more multiplication leaves unchanged.
    """
    a = validate_dissimilarity(a)
    p = a
    while True:
        yield p
        q = minmax_product(p, a)
        if np.array_equal(q, p):
            return
        p = q


def _stabilize_linear(a: np.ndarray) -> tuple[np.ndarray, int, list[int]]:
    chain = power_chain(a)
    star = next(chain)
    trace = []
    for p in chain:
        trace.append(int(np.count_nonzero(p != star)))
        star = p
    return star, len(trace) + 1, trace


def _stabilize_doubling(a: np.ndarray) -> tuple[np.ndarray, int]:
    from .ultrametric import minimax_oracle  # ultrametric imports this module

    levels = np.unique(minimax_oracle(a))
    codes = np.searchsorted(levels, a).astype(np.min_scalar_type(levels.size))
    # sqs[t] = A^(2^t); square until a squaring changes nothing, so that
    # with T = len(sqs) - 1 the power m lies in (2^(T-1), 2^T]
    sqs = [codes]
    while True:
        q = minmax_product(sqs[-1], sqs[-1])
        if np.array_equal(q, sqs[-1]):
            break
        sqs.append(q)
    star = sqs[-1]
    if len(sqs) == 1:
        return levels[star], 1
    # binary lifting: grow k from 2^(T-1) to m - 1, the last power short of
    # A*, adding each lower power of two that keeps A^k != A*
    k, p = 1 << (len(sqs) - 2), sqs[-2]
    for t in range(len(sqs) - 3, -1, -1):
        q = minmax_product(p, sqs[t])
        if not np.array_equal(q, star):
            k, p = k + (1 << t), q
    return levels[star], k + 1


def stabilize(a, strategy: str = "doubling") -> StabilizationResult:
    """Find the least m with A^m = A^(m+1) and the fixpoint matrix A^m.

    ``linear`` multiplies floats by A until nothing changes.  ``doubling``
    makes 2*ceil(log2 m) products (one when m = 1): it squares until a
    squaring changes nothing, then finds m by binary lifting.  It multiplies
    level codes: entry v becomes the number of distinct values of A* (from
    the spanning-forest sweep) below v, as uint8 for fewer than 256 values
    and uint16 up to 65535.  That map is non-decreasing, so it commutes with
    min and max; and A^k >= A* entrywise, so A^k == A* exactly when their
    codes are equal.  The code chain thus has the same m, and its fixpoint
    decodes to A*.  The stop rule compares powers with each other, never
    with the sweep.  Both strategies return identical results.
    """
    a = validate_dissimilarity(a)
    if strategy == "linear":
        star, m, trace = _stabilize_linear(a)
        return StabilizationResult(star, m, a.shape[0] / m, trace)
    if strategy == "doubling":
        star, m = _stabilize_doubling(a)
        return StabilizationResult(star, m, a.shape[0] / m, None)
    raise ValidationError(f"unknown strategy {strategy!r} (want linear or doubling)")
