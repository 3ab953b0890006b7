"""Min-max matrix algebra over nonnegative reals extended with infinity.

Matrices are float64 numpy arrays, or unsigned level codes inside
:func:`stabilize` and ``is_ultrametric``; ``numpy.inf`` is the
distinguished infinity element.  The product

    C[i, j] = min over k of max(A[i, k], B[k, j])

never creates values that are not already present in its operands, so all
equality tests in this module are exact (no tolerances anywhere).
:func:`minmax_product` chooses among its kernels: 0/1 BLAS products for
few-level codes, a row-sparse gather, and a blocked broadcast, each
computing one triangle of a product by the operand's own transpose.  This
module holds only that algebra and the search for m, the one semiring path;
the level codes of A* that :func:`stabilize`'s products settle against are
filled from the spanning forest's :class:`~ultraclust.dendrogram.Dendrogram`.
On few-level codes the search for m first runs without products: one
bit-parallel breadth-first search per level of A, on rows packed 64 columns
to a word, which hands over to the 0/1 products when they would cost less.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .dendrogram import Dendrogram
from .errors import ValidationError, _as_float, _check_integer, _check_memory

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
# codes up to this top value multiply as one 0/1 float32 matrix product per
# code value.  n=576 random codes, best of 5, 2-core machine, OpenBLAS, one
# thread: top 2/4/6/8/12/16 took 11/21/28/37/56/75 ms on uint8 against
# 25-40 ms for the broadcast kernel, and 9/18/24/33/56/88 ms on uint16
# against 43-64 ms.  Few-level codes are uint8, which breaks even near 7
_FEW_LEVELS = 6
# bytes of one float32 0/1 tile of an operand: up to n = 724 no operand is
# split, and larger orders keep a few MiB of temporaries
_TILE_BYTES = 2 << 20
# one element-op of the row-sparse kernel (a gather, a max and a min) costs
# about this many of the broadcast kernel's.  Random codes under top 600,
# median of 7, 2-core machine, one thread: the sparse kernel broke even with
# the dense triangle at about 28% of the entries below top (uint16, n = 300
# and 600; above 28% on uint8 and 32% on float64), and with the general
# product at about 52% (uint16, n = 300 and 600).  A cost of 2 takes it
# below 25% (triangle) and 50% (general).  The doubling search's entry
# kernel costs about the same per element-op: on the n = 600 uniform codes
# of ``dense-random`` (same machine) a squaring took 62 ms by entries
# against 43 ms for the mirrored block with 71% of the block's entries
# live, and 27 against 32 ms with 38% live
_SPARSE_COST = 2
# element-ops, per live row and column, of one step q <- A·q of the doubling
# search beside its product: the gather of A*'s live rows, the comparison,
# its row test and the scatter into q.  On the n = 600 uniform codes of
# ``dense-random`` (2-core machine, one thread, 20 runs of 4 steps over all
# R = n rows) a step took 1.6 ms, 1.2 ms of it the kernel over A's packed
# entries; the other 0.33 ms are about 3.7·R·n element-ops at the mirrored
# block kernel's rate there (its squaring of A^4, n^3/2 of them, took
# 26.6 ms), and a doubling's copy of q, buffers and returned mask add about
# 0.3 ms more
_STEP_PASSES = 4
# 0/1 MACs of a few-level squaring that one word-op of the bit-parallel
# search costs (a 64-bit word of a row gathered and ORed, or compared with
# A*'s).  One thread, 2-core machine, best of 9, a whole step per charged
# word-op: 1.6-2.2 ns on rows of 130-330 neighbours (n = 400-1000), a path
# (n = 1000) and the n = 1600 lattice, 3.1-5.4 ns on the 576-point lattice
# and integer-grid points (3-25 neighbours, 9-14 words), against 19-25 ps a
# MAC for a symmetric 0/1 squaring at n = 1000 and 23-58 ps at n = 400-600:
# ratios of 40-280.  The count leaves out per-call overhead, as the other
# costs here do, so below n = 64 or so the search hands over although it
# would finish sooner: 0.12 vs 0.16 ms for a 3-point matrix
_BIT_COST = 100


def validate_dissimilarity(a) -> np.ndarray:
    """Check that ``a`` is a square dissimilarity matrix and return it as float64.

    Requirements: zero diagonal, exact symmetry, strictly positive
    off-diagonal entries (``inf`` allowed).  A -0.0 diagonal entry is
    returned as +0.0, in a copy, so every strategy yields the same bytes.
    """
    a = _as_float(a, "matrix")
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
        # a NaN pair is symmetric; the positivity check below rejects it
        odd = np.argwhere((a != a.T) & ~(np.isnan(a) & np.isnan(a.T)))
        if odd.size:
            i, j = odd[0]
            raise ValidationError(
                f"asymmetric entries at ({i}, {j}): {a[i, j]} vs {a[j, i]}"
            )
    bad = ~(a > 0.0)
    np.fill_diagonal(bad, False)
    if np.any(bad):
        i, j = np.argwhere(bad)[0]
        raise ValidationError(
            f"off-diagonal entry at ({i}, {j}) must be positive, got {a[i, j]}"
        )
    if np.any(np.signbit(diag)):
        a = a.copy()
        np.fill_diagonal(a, 0.0)
    return a


def minmax_product(a, b) -> np.ndarray:
    """Min-max product: C[i,j] = min_k max(a[i,k], b[k,j]).

    Every entry of the result occurs in ``a`` or ``b``, so downstream
    comparisons stay exact even for floating inputs.  Operands that share
    one unsigned-integer dtype (level codes) are multiplied in that dtype;
    any other operands are converted to float64 and multiplied by the
    broadcast kernel in blocks of about ``_BLOCK_BYTES``.

    Codes whose largest value ``top`` is at most ``_FEW_LEVELS`` take the
    threshold path instead.  Every entry of C is at most ``top``, and
    C[i,j] <= c exactly when row i of ``a <= c`` meets column j of
    ``b <= c``, that is when ``((a <= c) @ (b <= c))[i,j] > 0``.  So C[i,j]
    is the number of codes c in [0, top) for which that 0/1 product is 0.
    The 0/1 products are float32 matrix products, tiled so that each 0/1
    operand tile takes at most ``_TILE_BYTES``.  An entry of such a product
    is a sum of nonnegative terms, each 0 or 1: it is 0 when every term is
    and at least 1 otherwise, so rounding never flips the test and the
    result is exact for any order.

    Other operands take the row-sparse path when few entries of ``a`` lie
    below ``top``, now the largest entry of both operands.  A term
    max(a[i,k], b[k,j]) with a[i,k] == top equals top, and no term exceeds
    top, so C[i,j] is the min over the entries of row i below top, or top
    when the row has none.  Deleting terms equal to top changes no value,
    and without -0.0 equal values have equal bytes, so the result is the
    broadcast kernel's, byte for byte.  :func:`_pack_rows` packs the
    entries below top, and :func:`_row_blocks` walks them in blocks whose
    (rows, w, p) gather of ``b`` takes about ``_BLOCK_BYTES``.  With w_i
    entries below top in row i the path costs sum(w_i)·p element-ops
    against R·n·p for the broadcast kernel, R·n·p/2 for a squaring, and it
    is taken when it costs ``_SPARSE_COST`` times less.  A NaN ``top``
    equals no entry and so skips nothing.  Float operands with a sign bit
    set (negative values or -0.0) take neither this path nor the mirrored
    one below: they stay on the general broadcast kernel, because
    -0.0 == 0.0, so which zero a min returns depends on the order of its
    terms, and ``np.array_equal`` takes operands that differ only in the
    sign of a zero for transposes.

    A squaring of a symmetric power has ``b`` equal to ``a``'s transpose,
    which is tested exactly, in O(R·n) for R x n operands against the
    product's O(R^2·n).  Then C[i,j] = min_k max(a[i,k], a[j,k]) = C[j,i],
    so both kernels compute only the blocks on and above the diagonal and
    mirror them.  The broadcast kernel pairs rows of ``a`` with rows of
    ``a``, reducing over their contiguous last axis; the threshold kernel
    multiplies a diagonal tile as ``rows @ rows.T``, for which numpy calls
    BLAS ``syrk``.
    """
    a, b = _as_float(a, "operand", codes=True), _as_float(b, "operand", codes=True)
    if a.dtype != b.dtype:  # codes of one dtype, or floats
        a, b = a.astype(float, copy=False), b.astype(float, copy=False)
    if a.ndim != 2 or b.ndim != 2:
        raise ValidationError("operands must be 2-dimensional")
    if a.shape[1] != b.shape[0]:
        raise ValidationError(
            f"dimension mismatch: {a.shape} cannot multiply {b.shape}"
        )
    if a.shape[1] == 0 < a.shape[0]:
        raise ValidationError(f"empty inner dimension: {a.shape} by {b.shape} has no entry to take")
    need = a.shape[0] * b.shape[1] * a.itemsize
    _check_memory(need, f"a {a.shape[0]} x {b.shape[1]} product needs {need / 2**20:.1f} MiB")
    signed = a.dtype.kind != "u" and bool(np.signbit(a).any() or np.signbit(b).any())
    symmetric = not signed and a.shape == b.shape[::-1] and np.array_equal(a, b.T)
    if a.size and b.size:
        top = np.maximum(a.max(), b.max())  # NaN if either operand holds one
        if a.dtype.kind == "u" and top <= _FEW_LEVELS:
            return _threshold_product(a, b, int(top), symmetric)
        if not signed and _SPARSE_COST * (1 + symmetric) * np.count_nonzero(a != top) < a.size:
            return _sparse_product(a, b, top)
    out = np.empty((a.shape[0], b.shape[1]), dtype=a.dtype)
    block = max(1, _BLOCK_BYTES // max(b.nbytes, 1))
    for s in range(0, a.shape[0], block):
        e = s + block
        if symmetric:
            # (rows, R - s, n) broadcast of rows s:e against rows s:, reduced
            # over their contiguous last axis, then mirrored below the diagonal
            out[s:e, s:] = np.maximum(a[s:e, None, :], a[None, s:, :]).min(axis=2)
            out[e:, s:e] = out[s:e, e:].T
        else:
            # (rows, n, p) broadcast, reduced over the shared axis
            out[s:e] = np.maximum(a[s:e, :, None], b[None, :, :]).min(axis=1)
    return out


class _RowEntries(NamedTuple):
    """The True entries of some rows of a mask, packed by row in O(sum w_i) memory.

    Row i's ``width[i]`` entries have their columns at
    ``cols[start[i] : start[i] + width[i]]``, increasing; a row that was not
    packed has width 0.
    """

    start: np.ndarray
    width: np.ndarray
    cols: np.ndarray


def _pack_rows(mask_of, rows: np.ndarray, n: int) -> _RowEntries:
    """The True entries in ``rows`` of a mask of n columns, packed in the order of ``rows``.

    ``mask_of(block)`` returns the mask's rows ``block``, a slice of
    ``rows``; blocks are as many rows as keep the int64 index of a full
    block near ``_BLOCK_BYTES``, and each block's mask is freed before the
    next is made.
    """
    width = np.zeros(int(rows.max(initial=-1)) + 1, dtype=np.intp)
    cols = [np.empty(0, dtype=np.intp)]
    block = max(1, _BLOCK_BYTES // (8 * n))
    for s in range(0, rows.size, block):
        mask = mask_of(rows[s : s + block])
        width[rows[s : s + block]] = np.count_nonzero(mask, axis=1)
        cols.append(np.flatnonzero(mask) % n)  # a 2-D np.nonzero takes 5x longer
        del mask  # one block's mask at a time
    start = np.zeros_like(width)
    start[rows] = np.cumsum(width[rows]) - width[rows]
    return _RowEntries(start, width, np.concatenate(cols))


def _pack_below(a: np.ndarray, top, rows: np.ndarray) -> tuple[_RowEntries, np.ndarray]:
    """The entries of ``a`` other than ``top`` in ``rows``, packed, and their values, gathered once."""
    entries = _pack_rows(lambda block: a[block] != top, rows, a.shape[1])
    return entries, a[np.repeat(rows, entries.width[rows]), entries.cols]


def _row_blocks(entries: _RowEntries, rows: np.ndarray, row_bytes):
    """The blocks of packed ``rows``, given widest first, that a gather kernel walks: (s, e, at) for rows[s:e].

    A block starts at a row of width w and holds as many rows as fit in
    ``_BLOCK_BYTES`` at ``row_bytes(w)`` bytes each, at least one, and the
    walk stops at the first row of width 0.  ``at[i]`` holds the places in
    ``entries.cols`` of row rows[s + i]'s entries, padded to w by repeating
    its first entry, which changes no min and no OR.
    """
    width, first = entries.width[rows], entries.start[rows]
    end, s = np.count_nonzero(width), 0
    while s < end:
        w = int(width[s])
        e = min(end, s + max(1, _BLOCK_BYTES // row_bytes(w)))
        place = np.arange(w)
        at = place * (place < width[s:e, None])  # a padded place repeats place 0
        at += first[s:e, None]
        yield s, e, at
        s = e


def _sparse_product(a: np.ndarray, b: np.ndarray, top) -> np.ndarray:
    """Min-max product over the entries of each row of ``a`` below ``top``; rows with none stay ``top``."""
    out = np.full((a.shape[0], b.shape[1]), top, dtype=a.dtype)
    entries, vals = _pack_below(a, top, np.arange(a.shape[0]))
    _rows_product(entries, vals, np.argsort(-entries.width, kind="stable"), b, out, scatter=True)
    return out


def _rows_product(
    entries: _RowEntries, vals: np.ndarray, rows: np.ndarray, b: np.ndarray, out: np.ndarray, scatter: bool = False
) -> None:
    """A[rows]·b by the row-sparse block kernel, from A's ``entries`` below top and their codes ``vals``.

    ``rows`` go widest first and b's entries are at most top, so row i is
    the min over its entries k of max(A[i, k], b[k]).  Row rows[i] goes to
    out[rows[i]] with ``scatter``, else to out[i]; a row with no entry is
    left as it is.  A block's (rows, w, p) gather of b's rows and, with
    ``scatter``, its (rows, p) result take about ``_BLOCK_BYTES``.
    """
    for s, e, at in _row_blocks(entries, rows, lambda w: (w + scatter) * b[0].nbytes):
        terms = b[entries.cols[at]]  # (rows, w, p): row cols[at[i, t]] of b
        np.maximum(vals[at][:, :, None], terms, out=terms)
        if scatter:
            out[rows[s:e]] = terms.min(axis=1)
        else:
            terms.min(axis=1, out=out[s:e])
        del terms  # freed before the next block's gather


def _threshold_product(a: np.ndarray, b: np.ndarray, top: int, symmetric: bool) -> np.ndarray:
    """Min-max product of codes at most ``top``, one 0/1 product per code value.

    With ``symmetric`` (``b`` is ``a``'s transpose) only the tiles on and
    above the diagonal are multiplied; the others are mirrored.  A level
    whose row tile has at most one 1 a row, such as level 0 of dissimilarity
    codes (the diagonal), needs no BLAS: row i of ``rows @ cols`` is row
    k_i of ``cols`` for the 1 at k_i, and 0 for an empty row.
    """
    out = np.zeros((a.shape[0], b.shape[1]), dtype=a.dtype)
    tile = max(1, _TILE_BYTES // (4 * a.shape[1]))
    a01 = np.empty((min(tile, a.shape[0]), a.shape[1]), np.float32)
    b01 = np.empty((b.shape[0], min(tile, b.shape[1])), np.float32)
    for s in range(0, a.shape[0], tile):
        rows = a01[: min(tile, a.shape[0] - s)]
        for c in range(top):
            np.less_equal(a[s : s + tile], c, out=rows)
            ones = rows.sum(axis=1)
            gather = ones.max() <= 1  # at most one 1 a row: rows @ cols is a gather
            if gather:
                k, empty = rows.argmax(axis=1), (ones == 0)[:, None]
            for t in range(s if symmetric else 0, b.shape[1], tile):
                if symmetric and t == s:
                    cols = rows.T  # rows @ rows.T: numpy calls BLAS syrk
                else:
                    cols = b01[:, : min(tile, b.shape[1] - t)]
                    np.less_equal(b[:, t : t + tile], c, out=cols)
                if not gather:
                    zero = (rows @ cols) == 0
                elif symmetric and t == s:
                    # row k_i of rows.T holds a 1 at j when row j's 1 is at k_i too
                    zero = (k[:, None] != k) | empty | empty.T
                else:
                    zero = (cols[k] == 0) | empty
                out[s : s + tile, t : t + tile] += zero
        if symmetric:
            out[s + tile :, s : s + tile] = out[s : s + tile, s + tile :].T
    return out


def identity(n: int) -> np.ndarray:
    """Multiplicative identity: zero diagonal, infinity elsewhere."""
    _check_integer(n, "identity order must be an integer")
    if n < 1:
        raise ValidationError(f"identity order must be positive, got {n}")
    need = 8 * int(n) ** 2
    _check_memory(need, f"identity order {n} needs a {need / 2**20:.1f} MiB matrix")
    e = np.full((n, n), np.inf)
    np.fill_diagonal(e, 0.0)
    return e


def matrix_leq(a, b) -> bool:
    """Entrywise order: True iff a[i,j] <= b[i,j] for all i, j."""
    a, b = _as_float(a, "matrix"), _as_float(b, "matrix")
    if a.shape != b.shape:
        raise ValidationError(f"shape mismatch: {a.shape} vs {b.shape}")
    return bool(np.all(a <= b))


def power(a, k: int) -> np.ndarray:
    """k-th min-max power by repeated squaring; power(a, 0) is the identity.

    A NaN entry raises ``ValidationError``: NaN is no element of the semiring.
    """
    a = _as_float(a, "matrix")
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValidationError(f"power requires a square matrix, got {a.shape}")
    _check_integer(k, "power exponent must be an integer")
    if k < 0:
        raise ValidationError(f"power exponent must be nonnegative, got {k}")
    if np.isnan(a).any():
        i, j = np.argwhere(np.isnan(a))[0]
        raise ValidationError(f"power requires a matrix without NaN, got one at ({i}, {j})")
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
    ``dendrogram`` is the spanning-forest sweep of the validated input, whose
    ``histogram`` and ``cut`` read A* without the n^2 ``star``.
    """

    star: np.ndarray
    m: int
    ultrametricity: float
    power_trace: list[int] | None = None
    dendrogram: Dendrogram | None = None


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


def _settle(
    p: np.ndarray, b: np.ndarray, star: np.ndarray, live: np.ndarray, differ: np.ndarray, few: bool
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """p·b for powers p = A^k and b = A^l, computed only where p differs from A*.

    ``live`` holds the rows of p that differ from ``star``, A*'s codes, and
    ``differ`` the (live, live) mask of those entries.  Every other entry of
    p already equals A*'s, and so does the product's, since
    A* <= A^(k+l) <= A^k entrywise.  Powers of a symmetric matrix are
    symmetric, so a row outside ``live`` is also a column outside it, and
    the product is computed on the (live, live) block alone: as one
    ``minmax_product(p[live], b[:, live])`` of R^2·n element-ops for R live
    rows (R^2·n/2 for a squaring, which it mirrors), or entry by entry by
    :func:`_entry_product`, one triangle of ``differ`` at n element-ops an
    entry.  The entries are taken when ``_SPARSE_COST`` times their cost is
    below the block's, and never for ``few``-level codes, whose 0/1 BLAS
    products are cheaper.  Returns the product with its own live rows and
    mask, both read off the one comparison of the computed entries with
    ``star``.
    """
    n, r = p.shape[0], live.size
    entries = np.count_nonzero(differ) // 2  # one triangle: the diagonal never differs
    # n element-ops an entry against R^2·n for the block, half that for a squaring
    if few or _SPARSE_COST * entries * (1 + (b is p)) >= r * r:
        if r == n:  # nothing settled yet: skip the gathers
            q = minmax_product(p, b)
            differ = q != star
        else:
            rows = p[live]
            sub = minmax_product(rows, b[:, live])
            differ = sub != star[live][:, live]
            # two one-axis gathers and scatters: np.ix_ pairs index every element
            rows[:, live] = sub
            q = p.copy()
            q[live] = rows
    else:
        q = p.copy()
        ranks = np.arange(r)
        differ = _entry_product(p, b, star, live, differ & (ranks > ranks[:, None]), q)
    return (q, *_drop_settled(live, differ))


def _drop_settled(live: np.ndarray, differ: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``live`` and its (live, live) mask ``differ`` without the rows where ``differ`` is all False."""
    keep = differ.any(axis=1)
    if keep.all():
        return live, differ
    return live[keep], differ[keep][:, keep]


def _entry_product(
    p: np.ndarray, b: np.ndarray, star: np.ndarray, live: np.ndarray, upper: np.ndarray, out: np.ndarray
) -> np.ndarray:
    """The entries (live[i], live[j]) of p·b where ``upper[i, j]``, written to ``out`` and mirrored.

    p and b are powers of one symmetric matrix, so p·b is symmetric and
    column j of b is its row j: entry (i, j) is the min over k of
    max(p[i, k], b[j, k]), one row of p against one row of b.  The entries
    of ``upper`` are packed by row, and a :func:`_row_blocks` block's
    (rows, n) copy of p's rows and (rows, w, n) gather of b's rows take
    about ``_BLOCK_BYTES``; its padding is computed but not scattered.
    Returns the (live, live) mask of the computed entries that still differ
    from ``star``.
    """
    differ = np.zeros(upper.shape, dtype=bool)
    entries = _pack_rows(upper.__getitem__, np.arange(upper.shape[0]), upper.shape[1])
    rows = np.argsort(-entries.width, kind="stable")
    for s, e, at in _row_blocks(entries, rows, lambda w: (1 + w) * p[0].nbytes):
        cols = entries.cols[at]
        terms = b[live[cols]]  # (rows, w, n): row live[cols[i, t]] of b
        np.maximum(p[live[rows[s:e]]][:, None, :], terms, out=terms)
        v = terms.min(axis=2)
        del terms  # freed before the next block's gather
        width = entries.width[rows[s:e]]
        real = np.arange(at.shape[1]) < width[:, None]  # not the padding
        r, c, v = np.repeat(rows[s:e], width), cols[real], v[real]
        i, j = live[r], live[c]
        out[i, j] = out[j, i] = v
        differ[r, c] = differ[c, r] = v != star[i, j]
    return differ


def _search_codes(a: np.ndarray, levels: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Entry v of ``a`` as the number of sorted ``levels`` below v, and w_i: row i's entries below the top code.

    The codes are the smallest unsigned dtype that holds ``levels.size``
    (uint8 below 256 levels).  The map is non-decreasing, so it commutes
    with min and max: the min-max product of codes is the code of the
    product.  Only the entries below the top code are coded, by a mask made
    in row blocks, whose rows count the w_i.  No n^2 mask outlives a block:
    one held until the first step raised ``dense-random``'s peak RSS by
    3.5 MiB in 5 of 8 runs.
    """
    top = np.searchsorted(levels, a.max())
    bound = levels[top - 1] if top else -np.inf  # the largest level below the top code
    codes = np.full(a.shape, top, dtype=np.min_scalar_type(levels.size))
    widths = np.empty(a.shape[0], dtype=np.intp)
    block = max(1, _BLOCK_BYTES // (8 * a.shape[1]))
    for s in range(0, a.shape[0], block):
        rows = slice(s, s + block)
        below = a[rows] <= bound
        codes[rows][below] = np.searchsorted(levels, a[rows][below])
        widths[rows] = np.count_nonzero(below, axis=1)
    return codes, widths


def _doubling_search(codes: np.ndarray, star: np.ndarray, widths: np.ndarray) -> int:
    """m for the powers of ``codes``, given A*'s codes ``star`` and w_i(A), A's ``widths``.

    Powers settle against A*: A^k >= A* entrywise, and A^k == A* exactly
    when their codes are equal, so A^k is the fixpoint exactly when no row
    of it differs from ``star``.  Few-level codes, whose top code is at most
    ``_FEW_LEVELS``, first go to :func:`_reach_search` when some row of A
    differs from A*'s (m > 1); it returns m, or hands over to the doublings.
    Each doubling A^k -> A^(2k) of many-level codes is a squaring or, when
    :func:`_steps_are_cheaper`, k steps q <- A·q, and a step that reaches
    A* gives m at once; few-level codes always square.  The first step
    packs A's live rows of entries below top once for every later step.
    The doublings stop at the paper's rule, the first power whose square
    equals it: that power is A*, so its squaring is over zero live rows and
    costs nothing.  Then binary lifting over the powers below A* finds m:
    2·ceil(log2 m) products (one when m = 1) when every doubling squares.
    More doublings than m <= n - 1 allows raise ``RuntimeError``.
    """
    n, top = codes.shape[0], codes.max()
    few = top <= _FEW_LEVELS  # and so is every power's top code
    entries = None  # A's live rows packed for the steps, once a doubling steps
    # live: the rows of a power that differ from A*; differ: those entries
    live, differ = _drop_settled(np.arange(n), codes != star)
    if few and live.size:  # m > 1
        m = _reach_search(codes, star, live.size)
        if m:
            return m
    # sqs[t] = A^(2^t); double until a power has no live row, so that with
    # T = len(sqs) - 1 the power m lies in (2^(T-1), 2^T].  m <= n - 1, so
    # that power comes by the (ceil(log2 n) + 1)-th pass, A^(2^ceil(log2 n))
    sqs = [codes]
    for _ in range((n - 1).bit_length() + 1):
        k, p = 1 << (len(sqs) - 1), sqs[-1]
        if not few and _steps_are_cheaper(p, top, widths, live, differ, k):
            if entries is None:  # a settled row never turns live again
                entries, vals = _pack_below(codes, top, live)
            q, qlive, qdiffer, steps = _steps(entries, vals, p, star, live, k)
            if not qlive.size:  # A^(k + steps) is A*, and A^(k + steps - 1) is not
                return k + steps
        else:
            q, qlive, qdiffer = _settle(p, p, star, live, differ, few)
            if not live.size:  # p is A*: its square is p
                break
        sqs.append(q)
        last, (live, differ) = (live, differ), (qlive, qdiffer)
    else:
        raise RuntimeError(f"A^(2^{len(sqs) - 1}) is not A* although m <= n - 1 = {n - 1}: a product is wrong")
    del sqs[-1], p, q  # A* and its square: the lifting reads only the powers below
    if not sqs:
        return 1
    # binary lifting: grow k from 2^(T-1) to m - 1, the last power short of
    # A*, adding each lower power of two that keeps A^k != A*
    k, p, (live, differ) = 1 << (len(sqs) - 1), sqs[-1], last
    for t in range(len(sqs) - 2, -1, -1):
        q, qlive, qdiffer = _settle(p, sqs[t], star, live, differ, few)
        if qlive.size:
            k, p, live, differ = k + (1 << t), q, qlive, qdiffer
    return k + 1


def _reach_search(codes: np.ndarray, star: np.ndarray, rows: int) -> int:
    """m for few-level codes by a bit-parallel breadth-first search at each level, or 0 to square instead.

    A^t[i, j] <= c exactly when a walk of at most t edges, each <= c, joins
    i and j (the zero diagonal pads shorter walks), and A*[i, j] <= c when
    any walk does.  So at level c, for the graph G_c of A's entries <= c,
    row i of (A^(t+1) <= c) is the OR of rows j of (A^t <= c) over the
    neighbours j of i in G_c, i included: a breadth-first search from every
    vertex at once, 64 of them to a word of ``np.packbits`` rows (Then et
    al., "The More the Merrier", PVLDB 8(4), 2014).  A step ORs only the
    rows that still differ from (A* <= c): a row that equals it stays equal,
    since A* <= A^(t+1) <= A^t.  Level 0 is the diagonal and every entry is
    at most ``top``, so when every level c in [1, top) ends within m - 1
    steps, A^m and A* agree at every level, and so A^m = A* exactly.

    Each step is charged ``_BIT_COST`` per word of its gathered neighbour
    rows and of its live rows; once the charge exceeds what the 0/1
    squarings of the doubling search would cost to reach the same power,
    ceil(log2 t) of them at (top - 1)·R^2·n/2 MACs for its R = ``rows``
    first live rows, the search stops and returns 0.  A level still live
    after n - 1 steps raises ``RuntimeError``, since m <= n - 1.
    """
    n, top = codes.shape[0], int(codes.max())
    words = -(-n // 64)
    square = (top - 1) * rows * rows * n / 2  # MACs of one 0/1 squaring
    m, spent = 1, 0
    for c in range(1, top):
        target = _bit_rows(star <= c, words)  # packed before G_c's mask is made: one n^2 mask at a time
        below = codes <= c
        reach = _bit_rows(below, words)
        live = np.flatnonzero((reach != target).any(axis=1))
        if not live.size:
            continue
        deg, entries = np.count_nonzero(below, axis=1)[live], None
        for step in range(1, n):
            spent += _BIT_COST * (int(deg.sum()) + live.size) * words
            if spent > (max(m, step + 1) - 1).bit_length() * square:
                return 0
            if entries is None:  # packed only once the guard lets the level's first step run
                order = np.argsort(-deg, kind="stable")  # widest first, which dropping rows keeps
                live, deg, target = live[order], deg[order], target[live[order]]
                entries = _pack_rows(below.__getitem__, live, n)
                del below
            new = _or_rows(reach, entries, live)
            keep = (new != target).any(axis=1)
            reach[live] = new
            if not keep.any():
                break
            if not keep.all():
                live, deg, target = live[keep], deg[keep], target[keep]
        else:
            raise RuntimeError(f"level {c} of A^{n} is not A*'s although m <= n - 1 = {n - 1}: a step is wrong")
        m = max(m, step + 1)
    return m


def _bit_rows(mask: np.ndarray, words: int) -> np.ndarray:
    """The rows of a bool matrix packed 64 columns to a uint64 word, zero-padded to ``words`` a row."""
    out = np.zeros((mask.shape[0], 8 * words), dtype=np.uint8)
    out[:, : -(-mask.shape[1] // 8)] = np.packbits(mask, axis=1)
    return out.view(np.uint64)


def _or_rows(reach: np.ndarray, entries: _RowEntries, rows: np.ndarray) -> np.ndarray:
    """Row i: the OR of the rows of ``reach`` at the packed ``entries`` of rows[i], ``rows`` widest first.

    A :func:`_row_blocks` block gathers about ``_BLOCK_BYTES`` of ``reach``
    rows, (rows, w, words), which halving ORs fold onto their first
    neighbour.  A row with no entry is 0.
    """
    out = np.zeros((rows.size, reach.shape[1]), dtype=reach.dtype)
    for s, e, at in _row_blocks(entries, rows, lambda w: w * reach[0].nbytes):
        terms = np.take(reach, entries.cols[at], axis=0)
        w = at.shape[1]
        while w > 1:
            h = w // 2
            np.bitwise_or(terms[:, :h], terms[:, w - h : w], out=terms[:, :h])
            w -= h
        out[s:e] = terms[:, 0]
        del terms  # freed before the next block's gather
    return out


def _steps_are_cheaper(
    p: np.ndarray, top, widths: np.ndarray, live: np.ndarray, differ: np.ndarray, k: int
) -> bool:
    """Whether k steps q <- A·q reach A^(2k) from p = A^k for less than p's squaring.

    A step's row-sparse kernel over the R ``live`` rows of A costs
    ``_SPARSE_COST``·sum(w_i)·n element-ops for the ``widths`` w_i of A's
    rows, and its own passes ``_STEP_PASSES``·R·n.  The squaring costs the
    cheapest kernel :func:`_settle` and :func:`minmax_product` pick from: the mirrored block
    R^2·n/2, the entries of ``differ`` at ``_SPARSE_COST``·n each, or the
    row-sparse kernel at ``_SPARSE_COST``·R for each entry of p's live rows
    below ``top``, A's top code, which is counted only when the first two
    do not already win.
    """
    n, r = p.shape[0], live.size
    if not r:  # the squaring of zero live rows is the stop rule
        return False
    steps = k * (_SPARSE_COST * int(widths[live].sum()) * n + _STEP_PASSES * r * n)
    square = min(r * r * n / 2, _SPARSE_COST * (np.count_nonzero(differ) // 2) * n)
    return steps < square and steps < _SPARSE_COST * np.count_nonzero(p[live] != top) * r


def _steps(
    entries: _RowEntries, vals: np.ndarray, p: np.ndarray, star: np.ndarray, live: np.ndarray, k: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray, int]:
    """A^(2k) from p = A^k by k steps q <- A·q over the live rows, or A* in fewer.

    Powers of one symmetric matrix commute, so A·A^j = A^j·A = A^(j+1), and
    with A on the left a step reads only A's ``entries`` below top and their
    codes ``vals``, packed once a search, through :func:`_rows_product`;
    every row holds its zero diagonal, so none is empty.  A step computes whole
    rows, so q needs no column gather, and A* <= A^(j+1) <= A^j entrywise,
    so a row equal to A*'s stays equal: each step computes only the rows
    that the last one left different from ``star``, and writes them into q
    in place.  Returns q, its live rows, their (live, live) mask and the
    number of steps made, fewer than k when a step leaves no live row.
    """
    q = p.copy()  # p = A^k stays for the binary lifting
    # widest first, the order of the kernel's blocks, which dropping rows keeps
    live = live[np.argsort(-entries.width[live], kind="stable")]
    # the product's rows and A*'s, in two buffers that every step reuses:
    # fewer large blocks allocated and freed leave the heap less fragmented
    rows, srows = np.empty((2, live.size, q.shape[1]), dtype=q.dtype)
    for step in range(1, k + 1):
        r = live.size
        _rows_product(entries, vals, live, q, rows[:r])
        np.take(star, live, axis=0, out=srows[:r], mode="clip")  # only mode="raise" buffers out
        differ = rows[:r] != srows[:r]  # the one comparison with A*'s rows
        q[live] = rows[:r]
        keep = np.flatnonzero(differ.any(axis=1))
        live = live[keep]
        if not live.size or step == k:
            up = np.argsort(live)  # back to increasing rows
            live = live[up]
            return q, live, differ[keep[up]][:, live], step
        del differ  # freed before the next product


def stabilize(a, strategy: str = "doubling") -> StabilizationResult:
    """Find the least m with A^m = A^(m+1), and the fixpoint A* = A^m.

    ``linear`` is the paper's chain: it multiplies floats by A until a
    product changes nothing.  ``doubling`` finds m on level codes of A by
    :func:`_doubling_search`: entry v becomes the number of A*'s distinct
    values below v, as uint8 for fewer than 256 values and uint16 up to
    65535.  Products create no values, so there are no tolerances, and both
    strategies return identical :class:`StabilizationResult` fields but
    ``power_trace``: ``linear`` returns its chain's last power as ``star``,
    ``doubling`` the fill of ``dendrogram``, which its powers settle against.
    """
    a = validate_dissimilarity(a)
    if strategy not in ("linear", "doubling"):
        raise ValidationError(f"unknown strategy {strategy!r} (want linear or doubling)")
    d = Dendrogram._sweep(a)  # a valid dissimilarity is square, symmetric and without NaN
    if strategy == "linear":
        star, m, trace = _stabilize_linear(a)
    else:
        levels = d.levels()
        codes, widths = _search_codes(a, levels)
        star = Dendrogram(d.order, np.searchsorted(levels, d.h).astype(codes.dtype)).fill()
        m = _doubling_search(codes, star, widths)
        del codes  # freed before A*'s float64 values are decoded
        star, trace = levels[star], None
    return StabilizationResult(star, m, a.shape[0] / m, trace, d)
