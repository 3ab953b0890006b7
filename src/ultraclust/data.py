"""Dataset generation, pairwise distance matrices, fixtures, and CSV I/O.

The matrix CSV interchange format is n rows of n comma-separated numbers
with no header; infinity is spelled ``inf``.  Point CSVs hold one point per
row and may start with a ``# dim=<d>`` comment.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ValidationError
from .semiring import validate_dissimilarity

__all__ = [
    "LatticeConfig",
    "example1_matrix",
    "lattice_generate",
    "load_matrix_csv",
    "load_points_csv",
    "pairwise_matrix",
    "save_matrix_csv",
    "save_points_csv",
]


@dataclass(frozen=True)
class LatticeConfig:
    """Layout of a planar lattice dataset of rectangular clusters.

    ``grid_rows`` x ``grid_cols`` clusters, each a ``cluster_rows`` x
    ``cluster_cols`` grid of points ``spacing`` apart.  ``gap`` is the
    number of empty spacing units between adjacent clusters, so gap = 0
    degenerates into one uniform grid.
    """

    grid_rows: int
    grid_cols: int
    cluster_rows: int
    cluster_cols: int
    spacing: float = 1.0
    gap: float = 3.0

    def __post_init__(self):
        for name in ("grid_rows", "grid_cols", "cluster_rows", "cluster_cols"):
            if getattr(self, name) < 1:
                raise ValidationError(f"{name} must be a positive integer")
        if self.spacing <= 0:
            raise ValidationError("spacing must be positive")
        if self.gap < 0:
            raise ValidationError("gap must be nonnegative")

    @property
    def total_points(self) -> int:
        return self.grid_rows * self.grid_cols * self.cluster_rows * self.cluster_cols


def lattice_generate(config: LatticeConfig) -> np.ndarray:
    """Deterministic planar point set for a lattice configuration.

    Cluster origins advance by cluster_size * spacing + gap along each
    axis; nearest points of adjacent clusters end up spacing + gap apart.
    Returns an (n, 2) array in row-major cluster-then-point order.
    """
    stride_r = config.cluster_rows * config.spacing + config.gap
    stride_c = config.cluster_cols * config.spacing + config.gap
    pts = []
    for gr in range(config.grid_rows):
        for gc in range(config.grid_cols):
            for cr in range(config.cluster_rows):
                for cc in range(config.cluster_cols):
                    pts.append(
                        (gr * stride_r + cr * config.spacing,
                         gc * stride_c + cc * config.spacing)
                    )
    return np.asarray(pts, dtype=float)


def pairwise_matrix(points, metric: str = "manhattan") -> np.ndarray:
    """Pairwise distance matrix of a point set under the chosen metric."""
    pts = np.asarray(points, dtype=float)
    if pts.ndim != 2 or pts.shape[0] < 1:
        raise ValidationError(f"expected an (n, dim) point array, got {pts.shape}")
    if not np.all(np.isfinite(pts)):
        i, j = np.argwhere(~np.isfinite(pts))[0]
        raise ValidationError(f"row {i}, column {j}: coordinate must be finite, got {pts[i, j]}")
    if np.unique(pts, axis=0).shape[0] != pts.shape[0]:
        raise ValidationError("duplicate points violate dissimilarity definiteness")
    diff = pts[:, None, :] - pts[None, :, :]
    if metric == "manhattan":
        d = np.abs(diff).sum(axis=-1)
    elif metric == "euclidean":
        d = np.sqrt((diff * diff).sum(axis=-1))
    else:
        raise ValidationError(f"unknown metric {metric!r}")
    np.fill_diagonal(d, 0.0)
    return d


def example1_matrix() -> np.ndarray:
    """The 8-point ultrametric golden fixture: three blocks at levels 4/6, joined at 10 and 16."""
    return np.array(
        [
            [0, 4, 4, 10, 10, 16, 16, 16],
            [4, 0, 4, 10, 10, 16, 16, 16],
            [4, 4, 0, 10, 10, 16, 16, 16],
            [10, 10, 10, 0, 6, 16, 16, 16],
            [10, 10, 10, 6, 0, 16, 16, 16],
            [16, 16, 16, 16, 16, 0, 4, 4],
            [16, 16, 16, 16, 16, 4, 0, 4],
            [16, 16, 16, 16, 16, 4, 4, 0],
        ],
        dtype=float,
    )


def _parse_rows(path, lines, what: str, unit: str) -> np.ndarray:
    """Parse numbered CSV lines into a 2-D float array of equal-width rows.

    ``lines`` yields ``(line number, text)`` pairs and blank lines are skipped;
    ``what`` and ``unit`` name the file kind and a row's entries in errors.
    """
    rows = []
    for r, line in lines:
        tokens = line.strip().split(",")
        if tokens == [""]:
            continue
        try:
            # numpy applies float() to each token (' 1 ', 'inf', 'nan' parse); a
            # float64 array per row takes a quarter of a list of Python floats
            rows.append(np.array(tokens, dtype=float))
        except ValueError:
            for c, token in enumerate(tokens):
                try:
                    float(token)
                except ValueError:
                    raise ValidationError(
                        f"row {r}, column {c}: cannot parse {token.strip()!r} as a number"
                    ) from None
            raise
    if not rows:
        raise ValidationError(f"{path}: empty {what} file")
    width = len(rows[0])
    for r, row in enumerate(rows):
        if len(row) != width:
            raise ValidationError(
                f"{path}: row {r} has {len(row)} {unit}, expected {width}"
            )
    return np.asarray(rows, dtype=float)


def load_matrix_csv(path) -> np.ndarray:
    """Load and validate a dissimilarity matrix from CSV."""
    with open(path) as fh:
        a = _parse_rows(path, enumerate(fh), "matrix", "entries")
    if np.any(np.asarray(a) < 0):
        i, j = np.argwhere(a < 0)[0]
        raise ValidationError(f"{path}: negative entry at row {i}, column {j}")
    try:
        return validate_dissimilarity(a)
    except ValidationError as exc:
        raise ValidationError(f"{path}: {exc}") from None


def save_matrix_csv(matrix, path) -> None:
    """Write a matrix as CSV to a path or text stream; load_matrix_csv reads it back exactly."""
    a = np.asarray(matrix, dtype=float)
    np.savetxt(path, a, fmt="%.17g", delimiter=",")


def load_points_csv(path) -> np.ndarray:
    """Load an (n, dim) point set from CSV; '#'-prefixed lines are comments."""
    with open(path) as fh:
        lines = ((r, line) for r, line in enumerate(fh) if not line.lstrip().startswith("#"))
        return _parse_rows(path, lines, "points", "coordinates")


def save_points_csv(points, path) -> None:
    """Write a point set as CSV with a leading dimension comment."""
    pts = np.asarray(points, dtype=float)
    np.savetxt(path, pts, fmt="%.17g", delimiter=",", header=f"dim={pts.shape[1]}")
