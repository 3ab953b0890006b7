"""Ultrametric recognition, the subdominant ultrametric, and clusterability.

The subdominant ultrametric is the single-linkage cophenetic distance, so
:func:`minimax_oracle` fills it from the checked O(n^2) spanning-forest sweep
:meth:`Dendrogram.from_matrix`, and :func:`subdominant` is that fill on a
validated dissimilarity.  Only m needs the semiring's power chain, whose
fixpoint the tests check against the sweep.
"""

from __future__ import annotations

import numpy as np

from .dendrogram import Dendrogram
from .errors import NotUltrametricError, ValidationError, _as_float
from .semiring import _level_codes, minmax_product, stabilize, validate_dissimilarity

__all__ = [
    "clusterability",
    "is_ultrametric",
    "minimax_oracle",
    "subdominant",
    "sup_ultrametrics",
    "ultrametricity",
]


def is_ultrametric(a) -> bool:
    """True iff the strong triangle inequality holds, i.e. A·A = A.

    The one product multiplies the order-preserving codes of A's distinct
    values (uint8 below 256 values) instead of floats; the codes commute
    with min and max, so the test holds for the codes exactly when for A.
    """
    a = validate_dissimilarity(a)
    codes = _level_codes(a, np.unique(a))
    return np.array_equal(minmax_product(codes, codes), codes)


def minimax_oracle(weights) -> np.ndarray:
    """All-pairs minimax path weights of a symmetric weighted graph.

    For each pair the minimum over connecting paths of the largest edge
    weight; ``inf`` between disconnected components; infinite weights are
    not edges.  It is the fill of one checked Prim sweep, O(n^2), see
    :meth:`Dendrogram.from_matrix`.  Where -0.0 and 0.0 weights tie for a
    pair's largest edge, which of the two zeros the pair gets is unspecified.
    """
    return Dendrogram.from_matrix(weights).fill()


def subdominant(a) -> np.ndarray:
    """Largest ultrametric dominated by ``a`` (the stabilization fixpoint A*)."""
    return minimax_oracle(validate_dissimilarity(a))


def sup_ultrametrics(mats) -> np.ndarray:
    """Entrywise supremum of a nonempty family of ultrametric matrices.

    The supremum of ultrametrics is again an ultrametric; this is verified
    on the result.
    """
    mats = [_as_float(m, "matrix") for m in mats]
    if not mats:
        raise ValidationError("sup_ultrametrics requires a nonempty family")
    shape = mats[0].shape
    for m in mats[1:]:
        if m.shape != shape:
            raise ValidationError(f"mixed matrix orders: {shape} vs {m.shape}")
    sup = np.maximum.reduce(mats)
    if not is_ultrametric(sup):
        raise NotUltrametricError("the supremum is not ultrametric, so some member is not")
    return sup


def ultrametricity(a) -> float:
    """n / m(A): equals n exactly when the matrix is already ultrametric."""
    result = stabilize(a)
    return result.ultrametricity


def clusterability(a) -> float:
    """Clusterability score of a dataset's dissimilarity matrix, n / m(A).

    Same quantity as :func:`ultrametricity` under its dataset-facing name.
    Empirically, scores above 5 correspond to clusterable datasets; the
    threshold is an observation, not a built-in verdict.
    """
    return ultrametricity(a)
