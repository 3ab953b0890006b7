"""A*'s dendrogram: the fixpoint, its levels, histogram and spheres from one sweep.

A* is the single-linkage cophenetic matrix (Gower & Ross 1969), so one
dense Prim sweep gives all of it, with no min-max product.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ValidationError, _as_float, _check_integer, _check_memory, _check_radius

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

    @classmethod
    def of_counts(cls, values, counts, overflow: int, mode: str, bins: int | None) -> DistanceHistogram:
        """The histogram of ``counts[i]`` pairs at each sorted distinct finite ``values[i]``.

        Binned mode spreads them over ``bins`` equal-width bins, defaulting to
        ceil(sqrt(#pairs)) with the ``overflow`` pairs at infinity counted;
        all pairs at one value fall in its bin, as if binned one by one.
        """
        if mode == "distinct":
            if bins is not None:
                raise ValidationError("bins only apply to binned mode")
            peaks, valleys = np.arange(values.size, dtype=int), []
        elif mode == "binned":
            if bins is None:
                bins = max(1, math.ceil(math.sqrt(max(int(counts.sum()) + overflow, 1))))
            _check_integer(bins, "bins must be an integer")
            if bins < 1:
                raise ValidationError(f"bins must be positive, got {bins}")
            need = 16 * int(bins) + 8  # float64 edges, int64 counts
            _check_memory(need, f"{bins} bins need {need / 2**20:.1f} MiB of edges and counts")
            lo, hi = (float(values[0]), float(values[-1])) if values.size else (0.0, 1.0)
            edges = np.linspace(lo, hi if hi > lo else lo + 1.0, bins + 1)  # one value: one occupied bin
            counts, values = np.histogram(values, edges, weights=counts)[0], edges
            # strict local maxima, a bin beyond either end counting as empty, and
            # the least bin between consecutive ones, which are never adjacent
            padded = np.concatenate(([0], counts, [0]))
            peaks = np.flatnonzero((counts > padded[:-2]) & (counts > padded[2:]))
            valleys = [p + 1 + np.argmin(counts[p + 1 : q]) for p, q in zip(peaks[:-1], peaks[1:])]
        else:
            raise ValidationError(f"unknown histogram mode {mode!r}")
        return cls(mode, values, counts.astype(int), peaks, np.array(valleys, dtype=int), int(overflow))

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
        w = _as_float(w, "weight matrix")
        if w.ndim != 2 or w.shape[0] != w.shape[1]:
            raise ValidationError(f"expected a square weight matrix, got {w.shape}")
        if not np.array_equal(w, w.T):  # NaN equals nothing, itself included
            if np.isnan(w).any():  # reported first, at its first position
                i, j = np.argwhere(np.isnan(w))[0]
                raise ValidationError(f"weight matrix must not contain NaN, got one at ({i}, {j})")
            raise ValidationError("weight matrix must be symmetric")
        return cls._sweep(w)

    @classmethod
    def _sweep(cls, w: np.ndarray) -> Dendrogram:
        """The Prim sweep of :meth:`from_matrix`, on a float64 ``w`` that its checks passed.

        A matrix from ``validate_dissimilarity`` passes them, so every reader
        of a validated matrix sweeps it without repeating them.
        """
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

    def histogram(self, mode: str = "distinct", bins: int | None = None) -> DistanceHistogram:
        """The histogram of A*'s off-diagonal pairs, in ``mode`` as :func:`~ultraclust.distance_histogram`.

        Pair (j, k), j < k, sits at max(h[j+1..k]); count it at the leftmost
        position l of that maximum.  With p the last earlier position with
        h >= h[l] and q the next later one with h > h[l] (n if none), those
        pairs are the (l - p)·(q - l) with p <= j < l <= k < q.  One pass
        with a stack finds every p and q; pairs at ``inf`` are the overflow.
        Either mode gives ``distance_histogram(A*, mode, bins)``, unfilled.
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
        return DistanceHistogram.of_counts(values, counts, pairs[~finite].sum(), mode, bins)

    def cut(self, r: float) -> np.ndarray:
        """Each vertex's spheric cluster of A* at radius ``r``, numbered by smallest member."""
        _check_radius(r)
        starts = self.h > r
        starts[:1] = True  # also at r = inf, where the pairs at inf merge; none if n = 0
        run = np.cumsum(starts) - 1
        first = np.minimum.reduceat(self.order, np.flatnonzero(starts))
        assignment = np.empty(self.order.size, dtype=np.intp)
        assignment[self.order] = np.unique(first, return_inverse=True)[1][run]
        return assignment
