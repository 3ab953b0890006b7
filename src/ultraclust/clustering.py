"""Spheric clusterings, perfect-clustering checks, and distance histograms."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .dendrogram import Dendrogram, DistanceHistogram
from .errors import NotUltrametricError, ValidationError, _check_integer, _check_radius
from .semiring import validate_dissimilarity

__all__ = [
    "Clustering",
    "closed_sphere",
    "distance_histogram",
    "estimate_num_clusters",
    "is_perfect_clustering",
    "radii_from_valleys",
    "spheric_clustering",
]


@dataclass(frozen=True)
class Clustering:
    """A partition of point indices 0..n-1 into contiguously numbered clusters."""

    n: int
    assignment: np.ndarray
    radius: float | None = None

    @property
    def num_clusters(self) -> int:
        return int(self.assignment.max()) + 1 if self.n else 0

    def clusters(self) -> list[list[int]]:
        """Members of each cluster, by cluster id."""
        out = [[] for _ in range(self.num_clusters)]
        for i, c in enumerate(self.assignment):
            out[int(c)].append(i)
        return out


def closed_sphere(a, center: int, r: float) -> set[int]:
    """Indices within distance r of the center (the center always included)."""
    a = validate_dissimilarity(a)
    n = a.shape[0]
    _check_integer(center, "center must be an integer index")
    if not 0 <= center < n:
        raise ValidationError(f"center {center} out of range for order {n}")
    _check_radius(r)
    return set(np.nonzero(a[center] <= r)[0].tolist())


def spheric_clustering(u, r: float) -> Clustering:
    """Partition an ultrametric space into closed spheres of radius r.

    Points i and j share a cluster iff u[i][j] <= r, and clusters are
    numbered in order of their smallest member.  Only ultrametric input
    guarantees this relation is transitive, so anything else is rejected.
    The subdominant ultrametric is the largest one below u, so u is
    ultrametric exactly when the fill of its single-linkage dendrogram
    gives u back; the clusters are then that dendrogram's cut at r.
    """
    u = validate_dissimilarity(u)
    d = Dendrogram.from_matrix(u)
    if not np.array_equal(d.fill(), u):
        raise NotUltrametricError(
            "spheric clustering requires an ultrametric matrix; "
            "apply subdominant() first"
        )
    return Clustering(n=u.shape[0], assignment=d.cut(r), radius=float(r))


def is_perfect_clustering(a, c: Clustering) -> bool:
    """True iff every within-cluster distance is below every between-cluster one.

    A side with no pairs (all singletons, or a single cluster) counts as
    satisfied.
    """
    a = validate_dissimilarity(a)
    n = a.shape[0]
    raw = np.asarray(c.assignment)
    # checked before the cast, which would truncate 2.5 to 2 and warn on NaN
    if raw.dtype.kind == "f" and not np.all(np.isfinite(raw) & (raw == np.floor(raw))):
        raise ValidationError("cluster ids must be integers")
    assignment = raw.astype(int)
    if assignment.shape != (n,):
        raise ValidationError(
            f"assignment length {assignment.shape} does not match order {n}"
        )
    ids = np.unique(assignment)
    if ids.size == 0 or ids[0] != 0 or ids[-1] != ids.size - 1:
        raise ValidationError("cluster ids must form a contiguous range from 0")
    iu, ju = np.triu_indices(n, 1)
    same = assignment[iu] == assignment[ju]
    vals = a[iu, ju]
    # an empty side holds vacuously, even against within-cluster pairs at inf
    return bool(same.all() or not same.any() or vals[same].max() < vals[~same].min())


def distance_histogram(a, mode: str = "distinct", bins: int | None = None) -> DistanceHistogram:
    """Histogram of unordered off-diagonal pairs of a dissimilarity matrix.

    Distinct mode (the default, intended for stabilized matrices) counts
    each exact value; binned mode spreads finite values over ``bins``
    equal-width bins, defaulting to ceil(sqrt(#pairs)).  For the subdominant
    ultrametric, :meth:`Dendrogram.histogram` gives it from the sweep.
    """
    a = validate_dissimilarity(a)
    vals = a[np.triu(np.ones(a.shape, dtype=bool), 1)]
    finite = vals[np.isfinite(vals)]
    values, counts = np.unique(finite, return_counts=True)
    return DistanceHistogram.of_counts(values, counts, vals.size - finite.size, mode, bins)


def estimate_num_clusters(p: int) -> int:
    """Least k with k(k-1)/2 >= p: the cluster count implied by p histogram peaks.

    p = 0 is read as "no between-cluster structure" and yields 1.
    """
    _check_integer(p, "peak count must be an integer")
    if p < 0:
        raise ValidationError(f"peak count must be nonnegative, got {p}")
    if p == 0:
        return 1
    return math.ceil((1 + math.sqrt(1 + 8 * p)) / 2)


def radii_from_valleys(h: DistanceHistogram, k: int) -> tuple[list[float], bool]:
    """The k largest valley radii of a histogram, sorted descending.

    Distinct mode treats the midpoint of each gap between consecutive
    values as a valley and ranks gaps by width; binned mode uses the
    midpoints of detected valley bins.  Returns ``(radii, shortfall)``
    where ``shortfall`` is True when fewer than k valleys exist.
    """
    _check_integer(k, "k must be an integer")
    if k < 1:
        raise ValidationError(f"k must be positive, got {k}")
    mids = (h.values[:-1] + h.values[1:]) / 2.0
    if h.mode == "distinct":
        if h.values.size < 2:
            return [], True
        gaps = np.diff(h.values)
        order = np.argsort(gaps, kind="stable")[::-1]
        chosen = mids[order[:k]]
    else:
        positions = np.sort(mids[h.valleys])[::-1]
        chosen = positions[:k]
    return sorted((float(x) for x in chosen), reverse=True), bool(chosen.size < k)
