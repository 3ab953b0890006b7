"""Dataset generation, pairwise distance matrices, fixtures, and CSV I/O.

The matrix CSV interchange format is n rows of n comma-separated numbers
with no header; infinity is spelled ``inf``.  Point CSVs hold one point per
row and may start with a ``# dim=<d>`` comment.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass

import numpy as np

from .errors import ValidationError
from .semiring import _BLOCK_BYTES, validate_dissimilarity

# peak bytes per point of lattice_generate: four int64 indices, two float64
# columns and their (n, 2) stack
_LATTICE_BYTES_PER_POINT = 64
_CSV = dict(delimiter=",", comments=None, ndmin=2)  # an inline "#" is a parse error

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
    ``cluster_cols`` grid of points ``spacing`` apart.  ``gap`` is a
    distance added between adjacent clusters: their nearest points are
    ``spacing + gap`` apart, so gap = 0 degenerates into one uniform grid.
    """

    grid_rows: int
    grid_cols: int
    cluster_rows: int
    cluster_cols: int
    spacing: float = 1.0
    gap: float = 3.0

    def __post_init__(self):
        for name in ("grid_rows", "grid_cols", "cluster_rows", "cluster_cols"):
            count = getattr(self, name)
            if not isinstance(count, (int, np.integer)) or count < 1:
                raise ValidationError(f"{name} must be a positive integer")
        if self.spacing <= 0:
            raise ValidationError("spacing must be positive")
        if self.gap < 0:
            raise ValidationError("gap must be nonnegative")
        for name in ("spacing", "gap"):
            if not math.isfinite(getattr(self, name)):
                raise ValidationError(f"{name} must be finite, got {getattr(self, name)}")

    @property
    def total_points(self) -> int:
        # Python ints: a product of numpy-integer counts could wrap around
        return int(self.grid_rows) * int(self.grid_cols) * int(self.cluster_rows) * int(self.cluster_cols)


def lattice_generate(config: LatticeConfig) -> np.ndarray:
    """Deterministic planar point set for a lattice configuration.

    Cluster origins advance by cluster_size * spacing + gap along each
    axis; nearest points of adjacent clusters end up spacing + gap apart.
    Returns an (n, 2) array in row-major cluster-then-point order; raises
    ``ValidationError`` if the points cannot fit in memory or a coordinate
    overflows.
    """
    need = _LATTICE_BYTES_PER_POINT * config.total_points
    _check_memory(need, f"{config.total_points} points need {need / 2**20:.1f} MiB to generate")
    spacing, gap = float(config.spacing), float(config.gap)
    stride_r = config.cluster_rows * spacing + gap
    stride_c = config.cluster_cols * spacing + gap
    shape = (config.grid_rows, config.grid_cols, config.cluster_rows, config.cluster_cols)
    gr, gc, cr, cc = np.indices(shape).reshape(4, -1)
    with np.errstate(over="ignore", invalid="ignore"):  # inf, or nan from 0 times an inf stride
        pts = np.column_stack((gr * stride_r + cr * spacing, gc * stride_c + cc * spacing))
    if not np.all(np.isfinite(pts)):
        raise ValidationError(f"lattice coordinates overflow: spacing {spacing:g} and gap {gap:g} are too large")
    return pts


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


def pairwise_matrix(points, metric: str = "manhattan") -> np.ndarray:
    """Pairwise distance matrix of a point set under the chosen metric."""
    pts = np.asarray(points, dtype=float)
    if pts.ndim != 2 or pts.shape[0] < 1:
        raise ValidationError(f"expected an (n, dim) point array, got {pts.shape}")
    n = pts.shape[0]
    _check_memory(8 * n * n, f"{n} points need a {8 * n * n / 2**20:.1f} MiB distance matrix")
    if not np.all(np.isfinite(pts)):
        i, j = np.argwhere(~np.isfinite(pts))[0]
        raise ValidationError(f"row {i}, column {j}: coordinate must be finite, got {pts[i, j]}")
    if np.unique(pts, axis=0).shape[0] != pts.shape[0]:
        raise ValidationError("duplicate points violate dissimilarity definiteness")
    if metric not in ("manhattan", "euclidean"):
        raise ValidationError(f"unknown metric {metric!r}")
    d = np.empty((n, n))
    # rows of about 1 MiB of (rows, n, dim) difference at a time
    block = max(1, _BLOCK_BYTES // max(pts.nbytes, 1))
    for s in range(0, n, block):
        diff = pts[s : s + block, None, :] - pts[None, :, :]
        if metric == "manhattan":
            d[s : s + block] = np.abs(diff).sum(axis=-1)
        else:
            d[s : s + block] = np.sqrt((diff * diff).sum(axis=-1))
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


def _width(line: str, usecols=None) -> int:
    """Entries numpy's reader parses from one CSV line, or 0 if it rejects one."""
    try:
        return np.loadtxt([line], usecols=usecols, **_CSV).shape[1]
    except ValueError:
        return 0


def _parse_rows(path, fh, what: str, unit: str, comments: bool = False) -> np.ndarray:
    """Parse the CSV lines of an open text file into a 2-D float array of equal-width rows.

    Blank lines are skipped, and so are ``#`` lines when ``comments`` is set;
    ``what`` and ``unit`` name the file kind and a row's entries in errors.
    numpy's reader parses the file in one call; only if it fails is the file
    read again, a line at a time, to word the error.
    """

    def kept():
        fh.seek(0)
        return ((r, line) for r, line in enumerate(fh)
                if line.strip() and not (comments and line.lstrip().startswith("#")))

    if next(kept(), None) is None:
        raise ValidationError(f"{path}: empty {what} file")
    try:
        return np.loadtxt((line for _, line in kept()), **_CSV)
    except ValueError:
        pass
    widths = []
    for r, line in kept():
        widths.append(_width(line))
        if not widths[-1]:
            # the first token numpy rejects wins over an earlier row of the wrong width
            tokens = line.split(",")
            c = next(c for c in range(len(tokens)) if not _width(line, c))
            raise ValidationError(f"row {r}, column {c}: cannot parse {tokens[c].strip()!r} as a number")
    # every row parses, so numpy failed on a row of another width
    i = next(i for i, k in enumerate(widths) if k != widths[0])
    raise ValidationError(f"{path}: row {i} has {widths[i]} {unit}, expected {widths[0]}")


def load_matrix_csv(path) -> np.ndarray:
    """Load and validate a dissimilarity matrix from CSV."""
    with open(path) as fh:
        a = _parse_rows(path, fh, "matrix", "entries")
    if np.any(a < 0):
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
        return _parse_rows(path, fh, "points", "coordinates", comments=True)


def save_points_csv(points, path) -> None:
    """Write a point set as CSV with a leading dimension comment."""
    pts = np.asarray(points, dtype=float)
    np.savetxt(path, pts, fmt="%.17g", delimiter=",", header=f"dim={pts.shape[1]}")
