"""A*'s dendrogram: the fixpoint, its levels, histogram and spheres from one sweep.

A* is the single-linkage cophenetic matrix (Gower & Ross 1969), so one
dense Prim sweep gives all of it, with no min-max product.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ValidationError, _check_radius

__all__ = ["Dendrogram", "DistanceHistogram"]


@dataclass(frozen=True)
class DistanceHistogram:
    """Histogram of the off-diagonal pairwise values of a matrix.

    In ``distinct`` mode ``values`` lists the exact distinct finite values
    and every bar is a peak.  In ``binned`` mode ``values`` holds the bin
    edges (one more than counts); peaks are strict local maxima and valleys
    the minima between consecutive peaks.  ``overflow`` counts pairs at
    infinity, which no bin receives.
    """

    mode: str
    values: np.ndarray
    counts: np.ndarray
    peaks: np.ndarray
    valleys: np.ndarray
    overflow: int = 0

    @property
    def num_peaks(self) -> int:
        return int(self.peaks.size)


@dataclass(frozen=True)
class Dendrogram:
    """Single-linkage dendrogram of a symmetric weight matrix (inf is no edge).

    ``order`` lists the vertices in the order they join a minimum spanning
    forest, and ``h[k]`` is the join height of position k: the weight of
    the edge by which ``order[k]`` joined, or ``inf`` where it starts a new
    tree (always at k = 0).  The sweep finishes each component of the edges
    of weight <= r before it leaves it, so every single-linkage cluster is a
    run of consecutive positions and A*[order[j], order[k]] = max(h[j+1..k])
    for j < k.
    """

    order: np.ndarray
    h: np.ndarray

    @classmethod
    def from_matrix(cls, w) -> Dendrogram:
        """The dendrogram of a square, symmetric ``w`` without NaN (else ``ValidationError``), O(n^2)."""
        w = np.asarray(w, dtype=float)
        if w.ndim != 2 or w.shape[0] != w.shape[1]:
            raise ValidationError(f"expected a square weight matrix, got {w.shape}")
        if not np.array_equal(w, w.T):  # NaN equals nothing, itself included
            if np.isnan(w).any():  # reported first, at its first position
                i, j = np.argwhere(np.isnan(w))[0]
                raise ValidationError(f"weight matrix must not contain NaN, got one at ({i}, {j})")
            raise ValidationError("weight matrix must be symmetric")
        n = w.shape[0]
        key = np.full(n, np.inf)  # lightest edge from the forest grown so far; inf inside it
        outside = np.ones(n, dtype=bool)
        order = np.empty(n, dtype=np.intp)
        h = np.empty(n)
        for k in range(n):
            v = int(key.argmin())  # the first of the lightest, as ties go
            if key[v] == np.inf:  # no finite edge into the rest: its first vertex starts a new tree
                v = int(outside.argmax())
            order[k], h[k] = v, key[v]
            outside[v] = False
            key[v] = np.inf
            row = w[v]
            closer = outside & np.isfinite(row) & (row < key)
            key[closer] = row[closer]
        return cls(order, h)

    def fill(self) -> np.ndarray:
        """A* in ``h``'s dtype, with a zero diagonal.

        The vertex at position k gets max(h[j+1..k]) to the vertex at each
        earlier position j, in row and column.
        """
        order, h = self.order, self.h
        out = np.zeros((h.size, h.size), dtype=h.dtype)
        for k in range(1, h.size):
            # the running max of h[k], h[k-1], ..., h[1], read back to front
            out[order[k], order[:k]] = out[order[:k], order[k]] = np.maximum.accumulate(h[k:0:-1])[::-1]
        return out

    def levels(self) -> np.ndarray:
        """A*'s sorted distinct values: 0 and the join heights after the first, always ``inf``."""
        return np.unique(np.append(self.h[1:], 0.0))

    def histogram(self) -> DistanceHistogram:
        """The distinct-mode histogram of A*'s off-diagonal pairs.

        Pair (j, k), j < k, sits at max(h[j+1..k]); count it at the leftmost
        position l of that maximum.  With p the last earlier position with
        h >= h[l] and q the next later one with h > h[l] (n if none), those
        pairs are the (l - p)·(q - l) with p <= j < l <= k < q.  One pass
        with a stack finds every p and q; pairs at ``inf`` are the overflow.
        """
        h, n = self.h, self.h.size
        heights = h.tolist()
        prev, nxt, stack = [0] * n, [n] * n, []
        for l, x in enumerate(heights):
            while stack and heights[stack[-1]] < x:
                nxt[stack.pop()] = l
            prev[l] = stack[-1] if stack else 0
            stack.append(l)
        pos = np.arange(1, n)
        pairs = (pos - np.array(prev[1:], dtype=int)) * (np.array(nxt[1:], dtype=int) - pos)
        finite = np.isfinite(h[1:])
        values, inverse = np.unique(h[1:][finite], return_inverse=True)
        counts = np.zeros(values.size, dtype=int)
        np.add.at(counts, inverse, pairs[finite])
        return DistanceHistogram(
            mode="distinct",
            values=values,
            counts=counts,
            peaks=np.arange(values.size, dtype=int),
            valleys=np.array([], dtype=int),
            overflow=int(pairs[~finite].sum()),
        )

    def cut(self, r: float) -> np.ndarray:
        """Each vertex's spheric cluster of A* at radius ``r``, numbered by smallest member."""
        _check_radius(r)
        starts = self.h > r
        starts[0] = True  # also at r = inf, where the pairs at inf merge
        run = np.cumsum(starts) - 1
        first = np.minimum.reduceat(self.order, np.flatnonzero(starts))
        assignment = np.empty(self.order.size, dtype=np.intp)
        assignment[self.order] = np.unique(first, return_inverse=True)[1][run]
        return assignment
