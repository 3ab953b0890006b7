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
from .semiring import minmax_product, stabilize, validate_dissimilarity

__all__ = [
    "clusterability",
    "is_ultrametric",
    "minimax_oracle",
    "subdominant",
    "sup_ultrametrics",
    "ultrametricity",
]


def is_ultrametric(a) -> bool:
    """True iff the strong triangle inequality holds, i.e. A·A = A."""
    a = validate_dissimilarity(a)
    return np.array_equal(minmax_product(a, a), a)


def subdominant(a) -> np.ndarray:
    """Largest ultrametric dominated by ``a`` (the stabilization fixpoint A*)."""
    return minimax_oracle(validate_dissimilarity(a))


def minimax_oracle(weights) -> np.ndarray:
    """All-pairs minimax path weights of a symmetric weighted graph.

    For each pair the minimum over connecting paths of the largest edge
    weight; ``inf`` between disconnected components; non-finite weights are
    not edges.  A dense Prim sweep finds a minimum spanning forest in O(n^2),
    whose edges are merged by increasing weight: the edge that joins two
    components gives its weight to every pair across them.
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
    edges = []
    for _ in range(n):
        rest = np.flatnonzero(outside)
        # with no finite edge into the rest, argmin picks its first vertex: a new tree
        v = int(rest[np.argmin(best[rest])])
        if via[v] >= 0:
            edges.append((best[v], int(via[v]), v))
        outside[v] = False
        row = w[v]
        closer = outside & np.isfinite(row) & (row < best)
        best[closer] = row[closer]
        via[closer] = v

    out = np.full((n, n), np.inf)
    np.fill_diagonal(out, 0.0)
    comp = np.arange(n)
    members: list[list[int]] = [[i] for i in range(n)]
    for wt, u, v in sorted(edges):
        cu, cv = comp[u], comp[v]
        if len(members[cu]) < len(members[cv]):
            cu, cv = cv, cu
        small = members[cv]
        big = members[cu]
        out[np.ix_(big, small)] = wt
        out[np.ix_(small, big)] = wt
        comp[small] = cu
        big.extend(small)
        members[cv] = []
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
