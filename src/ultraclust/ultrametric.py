"""Ultrametric recognition, the subdominant ultrametric, and clusterability.

The subdominant ultrametric is the all-pairs minimax path distance (the
single-linkage cophenetic distance), so :func:`subdominant` computes it with
the O(n^2) spanning-forest sweep of :func:`minimax_oracle`.  Only the
stabilization power m needs the semiring's power chain, whose fixpoint the
tests check against the sweep.
"""

from __future__ import annotations

import numpy as np

from .errors import NotUltrametricError, ValidationError
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


def subdominant(a) -> np.ndarray:
    """Largest ultrametric dominated by ``a`` (the stabilization fixpoint A*)."""
    return minimax_oracle(validate_dissimilarity(a))


def minimax_oracle(weights) -> np.ndarray:
    """All-pairs minimax path weights of a symmetric weighted graph.

    For each pair the minimum over connecting paths of the largest edge
    weight; ``inf`` between disconnected components; non-finite weights are
    not edges.  A dense Prim sweep grows a minimum spanning forest in O(n^2)
    and fills the result as it goes: a vertex v that joins through the edge
    (via[v], v) of weight best[v] gets max(best[v], A*[via[v], u]) to every
    vertex u already in the forest, and ``inf`` if it starts a new tree.
    """
    w = np.asarray(weights, dtype=float)
    if w.ndim != 2 or w.shape[0] != w.shape[1]:
        raise ValidationError(f"expected a square weight matrix, got {w.shape}")
    if not np.array_equal(w, w.T):
        raise ValidationError("weight matrix must be symmetric")
    n = w.shape[0]

    # best[v]: lightest edge from the forest grown so far to v, via[v] its end
    best = np.full(n, np.inf)
    via = np.full(n, -1)
    outside = np.ones(n, dtype=bool)
    order = np.empty(n, dtype=np.intp)  # vertices in the order they join
    out = np.full((n, n), np.inf)
    # -inf until the end, so that v's entry at via[v] is best[v] even if negative
    np.fill_diagonal(out, -np.inf)
    for k in range(n):
        rest = np.flatnonzero(outside)
        # with no finite edge into the rest, argmin picks its first vertex: a new tree
        v = int(rest[np.argmin(best[rest])])
        if via[v] >= 0:
            # every forest path from v to an earlier vertex starts with (v, via[v])
            done = order[:k]
            out[v, done] = out[done, v] = np.maximum(best[v], out[via[v], done])
        order[k] = v
        outside[v] = False
        row = w[v]
        closer = outside & np.isfinite(row) & (row < best)
        best[closer] = row[closer]
        via[closer] = v
    np.fill_diagonal(out, 0.0)
    return out


def sup_ultrametrics(mats) -> np.ndarray:
    """Entrywise supremum of a nonempty family of ultrametric matrices.

    The supremum of ultrametrics is again an ultrametric; this is verified
    on the result.
    """
    mats = [np.asarray(m, dtype=float) for m in mats]
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
