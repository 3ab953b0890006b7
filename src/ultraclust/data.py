"""Dataset generation, pairwise distance matrices, fixtures, and CSV I/O.

The matrix CSV interchange format is n rows of n comma-separated numbers
with no header; infinity is spelled ``inf``.  Point CSVs hold one point per
row and may start with a ``# dim=<d>`` comment.  Files are UTF-8 text, and
one suffix table compresses a ``.gz``, ``.bz2``, ``.xz`` or ``.lzma`` path
both when a writer writes it and when the readers read it; a written file's
bytes depend on its text alone, not on its name or the time.

One writer writes every table as numpy's ``savetxt(path, table, fmt="%.17g",
delimiter=",")`` does, byte for byte (an integer below 2**53 as ``%d``), but
each block of rows formats only its distinct values: ``A*`` takes at most
n + 1 values (0, the n - 1 merge heights of its dendrogram and ``inf``), so
a block of its rows costs at most n + 1 ``%`` conversions.  The block's
cells are gathered as records as wide as its widest value, not as wide as
the widest float64 text, so a block of few-level ``A*`` rows ("0", "1",
"4") gathers 2 bytes a cell, and needs no pass to drop padding.
"""

from __future__ import annotations

import bz2
import contextlib
import gzip
import io
import lzma
import math
import numbers
import os
import zlib
from dataclasses import dataclass

import numpy as np

from .errors import ValidationError, _as_float, _check_integer, _check_memory
from .semiring import _BLOCK_BYTES, validate_dissimilarity

# peak bytes per point of lattice_generate: four int64 indices, two float64
# columns and their (n, 2) stack
_LATTICE_BYTES_PER_POINT = 64
_CSV = dict(delimiter=",", comments=None, ndmin=2)  # an inline "#" is a parse error
# input bytes of one block of rows that the CSV writer formats at a time.
# Median of 21, 2-core machine: an all-distinct 600 x 600 table took 1.07x
# numpy savetxt's time at 64 KiB, 1.05x at 128 KiB, 1.11x at 256 KiB and
# 1.14x at 512 KiB (more of the block's records leave the cache); a uniform
# n = 2000 A* (2000 values) took 0.29x, 0.23x, 0.18x and 0.18x (larger
# blocks format each value fewer times), and the 576 x 576 lattice A*
# (3 values) 0.20-0.25x at every size
_CSV_BLOCK_BYTES = 128 << 10
# numpy's sum over an axis adds fewer terms than this one by one, left to
# right, and more by pairwise summation
_PAIRWISE_SUM_TERMS = 8
# "%.17g" of a float64 takes at most 24 characters, as in
# "-2.2250738585072014e-308"; the writer formats every value padded to this
# width, then cuts each block's records to its widest value
_CSV_WIDTH = 24

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
            _check_integer(count, f"{name} must be a positive integer")
            if count < 1:
                raise ValidationError(f"{name} must be a positive integer")
        for name, value in (("spacing", self.spacing), ("gap", self.gap)):
            if isinstance(value, bool) or not isinstance(value, numbers.Real):
                raise ValidationError(f"{name} must be a real number, got {value!r}")
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


def pairwise_matrix(points, metric: str = "manhattan") -> np.ndarray:
    """Pairwise distance matrix of a point set under the chosen metric.

    Two points at distance 0 (duplicates, or a Euclidean distance that
    underflows) raise ``ValidationError``.
    """
    pts = _as_float(points, "points")
    if pts.ndim != 2 or pts.shape[0] < 1:
        raise ValidationError(f"expected an (n, dim) point array, got {pts.shape}")
    n = pts.shape[0]
    _check_memory(8 * n * n, f"{n} points need a {8 * n * n / 2**20:.1f} MiB distance matrix")
    if not np.all(np.isfinite(pts)):
        i, j = np.argwhere(~np.isfinite(pts))[0]
        raise ValidationError(f"row {i}, column {j}: coordinate must be finite, got {pts[i, j]}")
    if metric not in ("manhattan", "euclidean"):
        raise ValidationError(f"unknown metric {metric!r}")
    d = np.zeros((n, n))
    dim = pts.shape[1]
    if dim < _PAIRWISE_SUM_TERMS:
        # a running sum over the coordinates gives the bytes of numpy's sum
        # without the (rows, n, dim) difference; row blocks of about 1 MiB
        block = max(1, _BLOCK_BYTES // (8 * n))
        for s in range(0, n, block):
            out = d[s : s + block]
            for c in range(dim):
                delta = pts[s : s + block, c, None] - pts[None, :, c]
                if metric == "manhattan":
                    out += np.abs(delta, out=delta)
                else:
                    out += np.multiply(delta, delta, out=delta)
            if metric == "euclidean":
                np.sqrt(out, out=out)
    else:
        # only numpy's own pairwise sum gives its bytes: rows of about 1 MiB
        # of (rows, n, dim) difference at a time
        block = max(1, _BLOCK_BYTES // max(pts.nbytes, 1))
        for s in range(0, n, block):
            diff = pts[s : s + block, None, :] - pts[None, :, :]
            if metric == "manhattan":
                d[s : s + block] = np.abs(diff).sum(axis=-1)
            else:
                d[s : s + block] = np.sqrt((diff * diff).sum(axis=-1))
    # |x - y| = |y - x|, summed in the same order, and x - x = +0.0: d is a
    # dissimilarity unless some other pair is at distance 0 too
    if np.count_nonzero(d == 0.0) > n:
        i, j = np.argwhere(np.triu(d == 0.0, 1))[0]
        raise ValidationError(f"points {i} and {j} are at distance 0: duplicate or underflowing points "
                              "violate dissimilarity definiteness")
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
            raise ValidationError(f"{path}: row {r}, column {c}: cannot parse {tokens[c].strip()!r} as a number")
    # every row parses, so numpy failed on a row of another width
    i = next(i for i, k in enumerate(widths) if k != widths[0])
    raise ValidationError(f"{path}: row {i} has {widths[i]} {unit}, expected {widths[0]}")


@contextlib.contextmanager
def _gzip_open(path, mode: str, encoding: str):
    """``gzip.open`` as text, but a written header holds no file name and mtime 0.

    So equal text gives equal bytes under any name at any time; ``gzip.open``
    writes the base name and the current time.  The deflate stream is
    ``gzip.open``'s, at the same level.
    """
    if "w" not in mode:
        with gzip.open(path, mode, encoding=encoding) as fh:
            yield fh
        return
    with open(path, "wb") as raw, gzip.GzipFile(filename="", mode="wb", fileobj=raw, mtime=0) as gz, \
            io.TextIOWrapper(gz, encoding=encoding) as fh:
        yield fh


# compressed formats by path suffix, as numpy's savetxt picks them (xz for both lzma suffixes)
_COMPRESSED = {".gz": ("a gzip", _gzip_open), ".bz2": ("a bzip2", bz2.open),
               ".xz": ("an xz", lzma.open), ".lzma": ("an lzma", lzma.open)}


def _codec(path):
    return _COMPRESSED.get(os.path.splitext(path)[1], (None, open))


def _text_writer(path):
    """``path`` opened for writing UTF-8 text, compressed as its suffix says."""
    return _codec(path)[1](path, "wt", encoding="utf-8")


def _read_rows(path, what: str, unit: str, comments: bool = False) -> np.ndarray:
    """``_parse_rows`` of a CSV file opened as UTF-8 text by the writer's suffix rule, ``_codec``.

    A file that cannot be opened raises ``OSError``; bytes that are not UTF-8,
    or not in the format the suffix names, raise ``ValidationError``.
    """
    name, opener = _codec(path)
    with opener(path, "rt", encoding="utf-8") as fh:
        try:
            return _parse_rows(path, fh, what, unit, comments)
        except UnicodeDecodeError:
            raise ValidationError(f"{path}: not UTF-8 text") from None
        except (OSError, EOFError, lzma.LZMAError, zlib.error) if name else () as exc:  # bz2 raises OSError
            raise ValidationError(f"{path}: not {name} file ({exc})") from None


def load_matrix_csv(path) -> np.ndarray:
    """Load and validate a dissimilarity matrix from CSV."""
    a = _read_rows(path, "matrix", "entries")
    if np.any(a < 0):
        i, j = np.argwhere(a < 0)[0]
        raise ValidationError(f"{path}: negative entry at row {i}, column {j}")
    try:
        return validate_dissimilarity(a)
    except ValidationError as exc:
        raise ValidationError(f"{path}: {exc}") from None


def _csv_rows(rows: np.ndarray) -> str:
    """The CSV text of a block of rows of a float table, each row's line ending in a newline.

    The block's distinct values, keyed by their float64 bits (so -0.0 and
    0.0 stay apart and every NaN has a key), are formatted by one ``%``
    call, each padded on the right with spaces to ``_CSV_WIDTH``.  Each is
    then cut to the block's widest value and followed by a comma, into
    records of one width.  The records are gathered in row order, each row's
    last comma becomes a newline, and the padding is dropped; when every
    value has the widest width there is none, and the gather is the text.
    """
    r, c = rows.shape
    # a 1-D key array: the shape of np.unique's inverse of n-D input changed in numpy 2.0
    keys, inverse = np.unique(rows.ravel().view(np.uint64), return_inverse=True)
    text = (f"%-{_CSV_WIDTH}.17g" * keys.size) % tuple(keys.view(float).tolist())
    padded = np.frombuffer(text.encode("ascii"), np.uint8).reshape(keys.size, _CSV_WIDTH)
    # a "%.17g" text holds no space, so a value is narrower than w exactly
    # when its column w - 1 is a space: the loop stops at the widest width
    width = _CSV_WIDTH
    while (padded[:, width - 1] == ord(" ")).all():
        width -= 1
    records = np.empty((keys.size, width + 1), np.uint8)
    records[:, :width], records[:, width] = padded[:, :width], ord(",")
    cells = np.take(records.view(f"V{width + 1}")[:, 0], inverse).view(np.uint8).reshape(r, c * (width + 1))
    cells[:, -1] = ord("\n")
    if (padded[:, width - 1] == ord(" ")).any():
        cells = cells[cells != ord(" ")]
    return cells.tobytes().decode("ascii")


def _save_table_csv(table, path, header: str = "") -> None:
    """Write what numpy's ``savetxt(path, table, fmt="%.17g", delimiter=",", header=header)`` writes.

    ``table`` is 1-D (one value a row) or 2-D with at least one column, else
    ``ValidationError``; ``path`` is a text stream or a path, opened by ``_codec``.
    ``# {header}`` comes first, then one ``_csv_rows`` text per block of about
    ``_CSV_BLOCK_BYTES`` of rows, so only one block's text is alive at a time.
    """
    a = _as_float(table, "table")
    if a.ndim == 1:
        a = a[:, None]
    if a.ndim != 2 or not a.shape[1]:
        raise ValidationError(f"expected a 1-D or 2-D table with at least one column, got shape {a.shape}")
    step = max(1, _CSV_BLOCK_BYTES // (a.itemsize * a.shape[1]))
    named = isinstance(path, (str, os.PathLike))
    with _text_writer(path) if named else contextlib.nullcontext(path) as fh:
        if header:
            fh.write(f"# {header}\n")
        for s in range(0, a.shape[0], step):
            fh.write(_csv_rows(a[s : s + step]))


def save_matrix_csv(matrix, path) -> None:
    """Write a matrix as CSV to a path or text stream; load_matrix_csv reads it back exactly."""
    _save_table_csv(matrix, path)


def load_points_csv(path) -> np.ndarray:
    """Load an (n, dim) point set from CSV; '#'-prefixed lines are comments."""
    return _read_rows(path, "points", "coordinates", comments=True)


def save_points_csv(points, path) -> None:
    """Write a point set as CSV with a leading dimension comment."""
    pts = _as_float(points, "points")
    if pts.ndim != 2:
        raise ValidationError(f"expected an (n, dim) point array, got {pts.shape}")
    _save_table_csv(pts, path, header=f"dim={pts.shape[1]}")
