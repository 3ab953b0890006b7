"""Min-max matrix algebra over nonnegative reals extended with infinity.

Matrices are float64 numpy arrays, or unsigned level codes inside
:func:`stabilize` and ``is_ultrametric``; ``numpy.inf`` is the
distinguished infinity element.
The product

    C[i, j] = min over k of max(A[i, k], B[k, j])

never creates values that are not already present in its operands, so all
equality tests in this module are exact (no tolerances anywhere).  Codes
with few distinct values multiply as one 0/1 float32 matrix product per
value (BLAS ``sgemm``), whose zero pattern is exact.  When few entries of
the left operand lie below ``top``, the largest entry of both operands, a
row-sparse kernel multiplies only those: a term max(a[i,k], b[k,j]) with
a[i,k] == top is never below another term.  All other operands go through
a blocked broadcast kernel.  A product by the operand's own transpose, such
as every squaring of a symmetric power, computes one triangle of its
symmetric result and mirrors it.  The fixpoint A* is the single-linkage
cophenetic matrix: one dense Prim sweep, :func:`_dendrogram`, gives it as a
join order and join heights, by which :func:`stabilize` codes the powers and
from which :func:`minimax_oracle` fills A*.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ValidationError

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
# below 25% (triangle) and 50% (general)
_SPARSE_COST = 2


def validate_dissimilarity(a) -> np.ndarray:
    """Check that ``a`` is a square dissimilarity matrix and return it as float64.

    Requirements: zero diagonal, exact symmetry, strictly positive
    off-diagonal entries (``inf`` allowed).  A -0.0 diagonal entry is
    returned as +0.0, in a copy, so every strategy yields the same bytes.
    """
    a = np.asarray(a, dtype=float)
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
    broadcast kernel's, byte for byte.  Each row's (column, value) pairs
    are packed and padded with top, rows of similar width share a block,
    and the block's (rows, width, p) gather of ``b`` takes about
    ``_BLOCK_BYTES``.  With w_i entries below top in row i the path costs
    sum(w_i)·p element-ops against R·n·p for the broadcast kernel, R·n·p/2
    for a squaring, and it is taken when it costs ``_SPARSE_COST`` times
    less.  A NaN ``top`` equals no entry and so skips nothing.  Float
    operands with a sign bit set (negative values or -0.0) take neither
    this path nor the mirrored one below: they stay on the general
    broadcast kernel, because -0.0 == 0.0, so which zero a min returns
    depends on the order of its terms, and ``np.array_equal`` takes
    operands that differ only in the sign of a zero for transposes.

    A squaring of a symmetric power has ``b`` equal to ``a``'s transpose,
    which is tested exactly, in O(R·n) for R x n operands against the
    product's O(R^2·n).  Then C[i,j] = min_k max(a[i,k], a[j,k]) = C[j,i],
    so both kernels compute only the blocks on and above the diagonal and
    mirror them.  The broadcast kernel pairs rows of ``a`` with rows of
    ``a``, reducing over their contiguous last axis; the threshold kernel
    multiplies a diagonal tile as ``rows @ rows.T``, for which numpy calls
    BLAS ``syrk``.
    """
    a, b = np.asarray(a), np.asarray(b)
    if a.dtype != b.dtype or a.dtype.kind != "u":
        a, b = a.astype(float, copy=False), b.astype(float, copy=False)
    if a.ndim != 2 or b.ndim != 2:
        raise ValidationError("operands must be 2-dimensional")
    if a.shape[1] != b.shape[0]:
        raise ValidationError(
            f"dimension mismatch: {a.shape} cannot multiply {b.shape}"
        )
    signed = a.dtype.kind != "u" and bool(np.signbit(a).any() or np.signbit(b).any())
    symmetric = not signed and a.shape == b.shape[::-1] and np.array_equal(a, b.T)
    if a.size and b.size:
        top = np.maximum(a.max(), b.max())  # NaN if either operand holds one
        if a.dtype.kind == "u" and top <= _FEW_LEVELS:
            return _threshold_product(a, b, int(top), symmetric)
        widths = np.count_nonzero(a != top, axis=1)
        if _SPARSE_COST * (1 + symmetric) * widths.sum() < a.size and not signed:
            return _sparse_product(a, b, top, widths)
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


def _sparse_product(a: np.ndarray, b: np.ndarray, top, widths: np.ndarray) -> np.ndarray:
    """Min-max product over the ``widths[i]`` entries of each row of ``a`` below ``top``.

    Rows are taken widest first; a block of them is packed into (rows, w)
    columns and values, padded with column 0 and value ``top``, where w is
    the width of its first, widest row.  Rows with no entry below ``top``
    stay ``top``.
    """
    n, p = a.shape[1], b.shape[1]
    out = np.full((a.shape[0], p), top, dtype=a.dtype)
    order = np.argsort(-widths, kind="stable")[: np.count_nonzero(widths)]
    s = 0
    while s < order.size:
        w = int(widths[order[s]])
        rows = order[s : s + max(1, _BLOCK_BYTES // (a.itemsize * (n + w * p)))]
        s += rows.size
        sub = a[rows]
        # the entries below top, row by row and in column order, and each
        # entry's place among those of its row
        r, k = np.divmod(np.flatnonzero(sub != top), n)
        place = np.arange(r.size) - (np.cumsum(widths[rows]) - widths[rows])[r]
        cols = np.zeros((rows.size, w), dtype=np.intp)
        vals = np.full((rows.size, w), top, dtype=a.dtype)
        cols[r, place] = k
        vals[r, place] = sub[r, k]
        terms = b[cols]  # (rows, w, p): row cols[i, t] of b
        np.maximum(vals[:, :, None], terms, out=terms)
        out[rows] = terms.min(axis=1)
        del terms  # freed before the next block's gather
    return out


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
    if n < 1:
        raise ValidationError(f"identity order must be positive, got {n}")
    e = np.full((n, n), np.inf)
    np.fill_diagonal(e, 0.0)
    return e


def matrix_leq(a, b) -> bool:
    """Entrywise order: True iff a[i,j] <= b[i,j] for all i, j."""
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    if a.shape != b.shape:
        raise ValidationError(f"shape mismatch: {a.shape} vs {b.shape}")
    return bool(np.all(a <= b))


def power(a, k: int) -> np.ndarray:
    """k-th min-max power by repeated squaring; power(a, 0) is the identity.

    A NaN entry raises ``ValidationError``: NaN is no element of the semiring.
    """
    a = np.asarray(a, dtype=float)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValidationError(f"power requires a square matrix, got {a.shape}")
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
    """

    star: np.ndarray
    m: int
    ultrametricity: float
    power_trace: list[int] | None = None


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


def _level_codes(a: np.ndarray, levels: np.ndarray) -> np.ndarray:
    """Entry v of ``a`` as the number of sorted ``levels`` below v.

    The codes are the smallest unsigned dtype that holds ``levels.size``
    (uint8 below 256 levels).  The map is non-decreasing, so it commutes with
    min and max: the min-max product of codes is the code of the product.
    Rows are coded in blocks, so the int64 index temporary stays small.
    """
    codes = np.empty(a.shape, dtype=np.min_scalar_type(levels.size))
    block = max(1, _BLOCK_BYTES // (8 * a.shape[1]))
    for s in range(0, a.shape[0], block):
        codes[s : s + block] = np.searchsorted(levels, a[s : s + block])
    return codes


def _live_product(p: np.ndarray, b: np.ndarray, live: np.ndarray) -> np.ndarray:
    """p·b of symmetric powers whose rows outside ``live`` keep p's values.

    By symmetry the other rows are also columns that keep p's values, so
    one rectangular product of the live rows by the live columns, |live|^2·n
    element-ops, gives the whole result.
    """
    if live.size == p.shape[0]:  # nothing settled yet: skip the gathers
        return minmax_product(p, b)
    out = p.copy()
    out[np.ix_(live, live)] = minmax_product(p[live], b[:, live])
    return out


def _differing_rows(x: np.ndarray, y: np.ndarray, live: np.ndarray) -> np.ndarray:
    """The rows of ``live`` where x and y differ; all other rows agree."""
    return live[np.any(x[live] != y[live], axis=1)]


def _dendrogram(w: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Single-linkage dendrogram of a symmetric weight matrix, by one dense Prim sweep.

    Returns the vertices in the ``order`` they join a minimum spanning forest
    and the join height ``h[k]`` of each position: the weight of the edge by
    which ``order[k]`` joined, or ``inf`` where it starts a new tree (always
    at k = 0).  Infinite weights are not edges.  The sweep finishes each
    component of the edges of weight <= r before it leaves it, so every
    single-linkage cluster is a run of consecutive positions and
    A*[order[j], order[k]] = max(h[j+1..k]) for j < k.  O(n^2).
    """
    n = w.shape[0]
    best = np.full(n, np.inf)  # lightest edge from the forest grown so far
    outside = np.ones(n, dtype=bool)
    order = np.empty(n, dtype=np.intp)
    for k in range(n):
        rest = np.flatnonzero(outside)
        # with no finite edge into the rest, argmin picks its first vertex: a new tree
        v = int(rest[np.argmin(best[rest])])
        order[k] = v
        outside[v] = False
        row = w[v]
        closer = outside & np.isfinite(row) & (row < best)
        best[closer] = row[closer]
    return order, best[order]


def minimax_oracle(weights) -> np.ndarray:
    """All-pairs minimax path weights of a symmetric weighted graph.

    For each pair the minimum over connecting paths of the largest edge
    weight; ``inf`` between disconnected components; infinite weights are
    not edges, and NaN raises ``ValidationError``.  The result is filled
    from the :func:`_dendrogram` of a dense Prim sweep in O(n^2): the vertex
    at position k gets max(h[j+1..k]) to the vertex at each earlier
    position j.  Where -0.0 and 0.0 weights tie for a pair's largest edge,
    which of the two zeros the pair gets is unspecified.
    """
    w = np.asarray(weights, dtype=float)
    if w.ndim != 2 or w.shape[0] != w.shape[1]:
        raise ValidationError(f"expected a square weight matrix, got {w.shape}")
    if np.isnan(w).any():
        i, j = np.argwhere(np.isnan(w))[0]
        raise ValidationError(f"minimax_oracle requires a matrix without NaN, got one at ({i}, {j})")
    if not np.array_equal(w, w.T):
        raise ValidationError("weight matrix must be symmetric")
    order, h = _dendrogram(w)
    out = np.full(w.shape, np.inf)
    np.fill_diagonal(out, 0.0)
    for k in range(1, w.shape[0]):
        # the running max of h[k], h[k-1], ..., h[1], read back to front
        out[order[k], order[:k]] = out[order[:k], order[k]] = np.maximum.accumulate(h[k:0:-1])[::-1]
    return out


def _star_levels(a: np.ndarray) -> np.ndarray:
    """The sorted distinct values of A* = ``minimax_oracle(a)``, without filling it.

    They are 0 (the diagonal) and the dendrogram's join heights after the
    first, which is always ``inf``: each merge joins its two parts at its
    height, and a later ``inf`` starts a second tree.
    """
    _, h = _dendrogram(a)
    return np.unique(np.append(h[1:], 0.0))


def _stabilize_doubling(a: np.ndarray) -> tuple[np.ndarray, int]:
    levels = _star_levels(a)
    codes = _level_codes(a, levels)
    # sqs[t] = A^(2^t); square until a squaring changes nothing, so that
    # with T = len(sqs) - 1 the power m lies in (2^(T-1), 2^T].  live: the
    # rows the last squaring changed; every other row already equals A*'s
    sqs, live = [codes], np.arange(a.shape[0])
    while True:
        q = _live_product(sqs[-1], sqs[-1], live)
        changed = _differing_rows(q, sqs[-1], live)
        if changed.size == 0:
            break
        sqs.append(q)
        live = changed
    star = sqs[-1]
    if len(sqs) == 1:
        return levels[star], 1
    # binary lifting: grow k from 2^(T-1) to m - 1, the last power short of
    # A*, adding each lower power of two that keeps A^k != A*; live: the
    # rows where p = A^k still differs from A* (those of the last squaring)
    k, p = 1 << (len(sqs) - 2), sqs[-2]
    for t in range(len(sqs) - 3, -1, -1):
        q = _live_product(p, sqs[t], live)
        differ = _differing_rows(q, star, live)
        if differ.size:
            k, p, live = k + (1 << t), q, differ
    return levels[star], k + 1


def stabilize(a, strategy: str = "doubling") -> StabilizationResult:
    """Find the least m with A^m = A^(m+1) and the fixpoint matrix A^m.

    ``linear`` multiplies floats by A until nothing changes.  ``doubling``
    makes 2*ceil(log2 m) products (one when m = 1): it squares until a
    squaring changes nothing, then finds m by binary lifting.  It multiplies
    level codes: entry v becomes the number of distinct values of A* (0, the
    spanning forest's edge weights, and inf between trees) below v, as uint8
    for fewer than 256 values and uint16 up to 65535.  That map is
    non-decreasing, so it commutes with min and max; and A^k >= A*
    entrywise, so A^k == A* exactly when their codes are equal.  The code chain thus has the same m, and its fixpoint
    decodes to A*.  The stop rule compares powers with each other, never
    with the sweep.  Both strategies return identical results.

    Each ``doubling`` product multiplies only the rows that can still change.
    A row is settled by either of two facts about the chain's own powers:

    - squaring: if row i of A^(2k) equals row i of A^k, it equals row i of
      A^(jk) for every j (row i of A^(3k) is row i of A^(2k)·A^k, which is
      row i of A^k·A^k; induct), so it is already row i of A*;
    - lifting: if row i of A^k equals row i of A*, so does row i of
      A^k·A^(2^t), since A* <= A^(k+2^t) <= A^k entrywise.

    Every power of a symmetric matrix is symmetric, so a settled row is also
    a settled column: a product over R live rows is the R x R block
    ``minmax_product(P[live], Q[:, live])`` of R^2·n element-ops instead of
    n^3, and settled rows are copied through.
    """
    a = validate_dissimilarity(a)
    if strategy == "linear":
        star, m, trace = _stabilize_linear(a)
        return StabilizationResult(star, m, a.shape[0] / m, trace)
    if strategy == "doubling":
        star, m = _stabilize_doubling(a)
        return StabilizationResult(star, m, a.shape[0] / m, None)
    raise ValidationError(f"unknown strategy {strategy!r} (want linear or doubling)")
