"""Property tests: the spanning-forest sweep gives the (min, max) Floyd-Warshall
closure of any symmetric weights, the level-code doubling search (by
squarings, by steps q <- A·q, or both) and the sweep agree with the float chain, both strategies' m is the largest hop count of a
minimax path, the facts by which doubling settles rows and entries hold
on the float powers, the sweep joins vertices as a scan of the outside
ones did, few-level codes multiply as the broadcast kernel multiplies
their float copies, a product by the transpose matches the
naive product on every kernel, the bit-parallel search for m on few-level
codes (run to its end or handed over to the doubling search) agrees with the
float chain, a step's kernel over the packed entries of
A below its top code gives minmax_product's rows, the packing and the block walker of
the gather kernels yield each entry of a mask once, widest rows first, the
bit-parallel kernel ORs the rows a dense OR gives, the levels that code the powers are the
values of A*, the power chain falls to A*, spheric
clusterings nest, the runs of the sorted upper triangle give the
histogram that np.unique gives, the spanning forest's dendrogram gives the histograms
and clusterings of A* and SciPy's single-linkage cuts, spheric clusterings
reject exactly the matrices that are not ultrametric, CSV files read back
exactly what was written, and the table writer writes the bytes of
``np.savetxt`` ("%.17g" for floats, "%d" for integers) to a stream, a path
or a compressed path."""

import bz2
import dataclasses
import gzip
import io
import lzma
import math
from unittest import mock

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import example, given, settings, strategies as st  # noqa: E402
from hypothesis.extra.numpy import arrays  # noqa: E402

from ultraclust import clustering, data  # noqa: E402
from ultraclust import (  # noqa: E402
    Dendrogram,
    DistanceHistogram,
    LatticeConfig,
    NotUltrametricError,
    distance_histogram,
    is_perfect_clustering,
    is_ultrametric,
    lattice_generate,
    load_matrix_csv,
    load_points_csv,
    minimax_oracle,
    minmax_product,
    pairwise_matrix,
    power,
    power_chain,
    save_matrix_csv,
    save_points_csv,
    semiring,
    spheric_clustering,
    stabilize,
    subdominant,
)
from conftest import path_dissim, random_dissim, tree_dissim  # noqa: E402

INF = math.inf


def symmetric(n, upper):
    """Dissimilarity of order n whose strict upper triangle, row by row, is ``upper``."""
    a = np.zeros((n, n))
    a[np.triu_indices(n, 1)] = upper
    return a + a.T


@st.composite
def small_dissims(draw):
    n = draw(st.integers(1, 10))
    # few repeated values (ties, inf) mixed with arbitrary positive floats
    value = st.one_of(st.sampled_from([1.0, 2.0, 3.0, INF]), st.floats(0.25, 64.0))
    size = n * (n - 1) // 2
    return symmetric(n, draw(st.lists(value, min_size=size, max_size=size)))


def hub_dissim(n):
    """Spokes of weights 1, ..., n-1 from point 0 under heavier chords: m = 2."""
    a = np.full((n, n), 100.0)
    a[0, 1:] = a[1:, 0] = np.arange(1.0, n)
    np.fill_diagonal(a, 0.0)
    return a


def two_components(n):
    """Two paths of n points each, joined only by inf."""
    a = np.full((2 * n, 2 * n), INF)
    a[:n, :n] = path_dissim(n)
    a[n:, n:] = 3.0 * path_dissim(n)
    return a


@settings(max_examples=200, deadline=None)
@given(small_dissims())
@example(np.zeros((1, 1)))  # one point, one tree
@example(symmetric(4, [INF] * 6))  # four trees
@example(two_components(5))  # two trees
@example(tree_dissim(40, 3, True))  # an isolated point
def test_levels_are_the_distinct_values_of_the_fixpoint(a):
    assert Dendrogram.from_matrix(a).levels().tobytes() == np.unique(minimax_oracle(a)).tobytes()


def minimax_closure(w):
    """All-pairs minimax path weights by a (min, max) Floyd-Warshall closure.

    Only finite weights are edges, the diagonal is not one, and a vertex
    reaches itself at 0 by the empty path.
    """
    d = np.where(np.isfinite(w), w, INF)
    np.fill_diagonal(d, INF)
    for k in range(d.shape[0]):
        d = np.minimum(d, np.maximum(d[:, k, None], d[None, k, :]))
    np.fill_diagonal(d, 0.0)
    return d


@st.composite
def weight_graphs(draw):
    """Symmetric weights of any sign, ±0.0 and ±inf among them, on any diagonal."""
    n = draw(st.integers(1, 12))
    value = st.one_of(
        st.sampled_from([-INF, -2.0, -0.0, 0.0, 1.0, 3.0, INF]),
        st.floats(allow_nan=False, allow_infinity=False, width=16),
    )
    w = np.array(draw(st.lists(value, min_size=n * n, max_size=n * n))).reshape(n, n)
    upper = np.triu(np.ones((n, n), dtype=bool), 1)
    w.T[upper] = w[upper]  # mirrors signed zeros too
    return w


@settings(max_examples=300, deadline=None)
@given(weight_graphs())
@example(np.zeros((1, 1)))
@example(np.array([[7.0, -INF], [-INF, -1.0]]))  # no edge, nonzero diagonal: two trees
@example(np.array([[0.0, -0.0, INF], [-0.0, 0.0, 0.0], [INF, 0.0, 0.0]]))  # a path of ±0 edges
@example(symmetric(5, [-3.0, 2.0, INF, INF, -1.0, INF, INF, INF, INF, 5.0]))  # negative weights
@example(two_components(4) - 2.0)  # two trees, shifted below 0
def test_oracle_is_the_minimax_closure(w):
    assert np.array_equal(minimax_oracle(w), minimax_closure(w))


def sweep_over_the_rest(w):
    """The dense Prim sweep that gathers the outside vertices at every step."""
    n = w.shape[0]
    best = np.full(n, np.inf)
    outside = np.ones(n, dtype=bool)
    order = np.empty(n, dtype=np.intp)
    for k in range(n):
        rest = np.flatnonzero(outside)
        v = int(rest[np.argmin(best[rest])])
        order[k] = v
        outside[v] = False
        row = w[v]
        closer = outside & np.isfinite(row) & (row < best)
        best[closer] = row[closer]
    return order, best[order]


@settings(max_examples=150, deadline=None)
@given(weight_graphs())
@example(np.zeros((1, 1)))
@example(symmetric(5, [1.0] * 10))  # every edge ties
@example(np.array([[0.0, 0.0, -0.0], [0.0, 0.0, 5.0], [-0.0, 5.0, 0.0]]))  # ±0 tie: the first joins
@example(np.array([[7.0, -INF], [-INF, -1.0]]))  # no edge, nonzero diagonal: two trees
@example(symmetric(4, [INF] * 6))  # four trees
@example(two_components(4) - 2.0)  # two trees, shifted below 0
def test_dendrogram_is_the_sweep_over_the_rest(w):
    d = Dendrogram.from_matrix(w)
    want_order, want_h = sweep_over_the_rest(w)
    assert d.order.tobytes() == want_order.tobytes() and d.h.tobytes() == want_h.tobytes()


def assert_strategies_agree(a):
    lin, dbl = stabilize(a, "linear"), stabilize(a, "doubling")
    assert dbl.m == lin.m
    assert dbl.star.dtype == np.float64 and dbl.star.tobytes() == lin.star.tobytes()
    assert minimax_oracle(a).tobytes() == lin.star.tobytes()


@settings(max_examples=200, deadline=None)
@given(small_dissims(), st.booleans())
@example(np.zeros((1, 1)), False)  # one level
@example(symmetric(5, [7.0] * 10), False)  # two levels, 0 and 7
@example(symmetric(4, [INF] * 6), False)  # two levels, 0 and inf
@example(path_dissim(9), False)  # the middle rows settle last
@example(hub_dissim(7), False)  # every row settles after one squaring
@example(two_components(5), False)  # rows settle per component
# codes 0..3: every product, the 32- and 12-row live blocks too, takes the 0/1 path
@example(pairwise_matrix(lattice_generate(LatticeConfig(3, 3, 2, 2))), True)
@example(tree_dissim(12, 3, True), True)  # 12 levels, inf among them
def test_doubling_matches_linear(a, entries):
    # with ``entries`` every many-level product of the doubling search computes
    # single entries, one row of p to a block
    cost, block = (0, a.shape[0]) if entries else (semiring._SPARSE_COST, semiring._BLOCK_BYTES)
    with mock.patch.object(semiring, "_SPARSE_COST", cost), mock.patch.object(semiring, "_BLOCK_BYTES", block):
        assert_strategies_agree(a)


@settings(max_examples=100, deadline=None)
@given(small_dissims(), st.integers(1, 6), st.integers(1, 6))
def test_rows_settle_as_stabilize_assumes(a, k, j):
    star = stabilize(a, "linear").star
    pk = power(a, k)
    # squaring: a row that A^(2k) keeps from A^k is already a row of A*
    kept = np.all(power(a, 2 * k) == pk, axis=1)
    assert np.array_equal(pk[kept], star[kept])
    # lifting: a row of A^k equal to A*'s stays so in A^(k+j)
    done = np.all(pk == star, axis=1)
    pkj = power(a, k + j)
    assert np.array_equal(pkj[done], star[done])
    # and so does an entry: products compute only the entries above A*'s
    same = pk == star
    assert np.array_equal(pkj[same], star[same])


@settings(max_examples=6, deadline=None)
@given(st.sampled_from([255, 256]), st.integers(0, 2**32 - 1), st.booleans(), st.sampled_from([None, -INF, INF]))
def test_doubling_matches_linear_at_the_uint8_boundary(n, seed, isolated, step_passes):
    # ``step_passes`` -INF makes every doubling k steps q <- A·q, INF none, None keeps the rule
    a = tree_dissim(n, seed, isolated)
    dtypes = set()
    orig, kernel = semiring.minmax_product, semiring._rows_product

    def recorded(x, y):
        dtypes.add(np.asarray(x).dtype)
        return orig(x, y)

    def stepped(entries, vals, rows, b, out, scatter=False):
        dtypes.update((vals.dtype, b.dtype))
        return kernel(entries, vals, rows, b, out, scatter)

    passes = semiring._STEP_PASSES if step_passes is None else step_passes
    with mock.patch.object(semiring, "_STEP_PASSES", passes):
        with mock.patch.object(semiring, "minmax_product", recorded), \
                mock.patch.object(semiring, "_rows_product", stepped):
            dbl = stabilize(a)
        assert_strategies_agree(a)
    assert np.unique(dbl.star).size == n
    # n levels take codes 0..n: 255 levels fit uint8, 256 need uint16
    assert dtypes == {np.dtype(np.uint8 if n == 255 else np.uint16)}


@settings(max_examples=200, deadline=None)
@given(small_dissims(), st.booleans())
@example(symmetric(5, [7.0] * 10), True)  # two levels: few-level codes never step
@example(path_dissim(9), True)
@example(hub_dissim(9), True)  # every row settles in the first step
@example(random_dissim(np.random.default_rng(7), 10, with_inf=True), True)  # many levels, inf holes
@example(random_dissim(np.random.default_rng(7), 10, integer=True), True)  # tied integers
@example(tree_dissim(12, 3, True), True)  # 12 levels, inf among them
@example(tree_dissim(12, 3, True), False)
def test_steps_match_linear(a, steps):
    # a step constant of -inf makes every many-level doubling k steps q <- A·q,
    # and +inf none, whatever the squaring would cost
    with mock.patch.object(semiring, "_STEP_PASSES", -INF if steps else INF):
        assert_strategies_agree(a)


@settings(max_examples=100, deadline=None)
@given(small_dissims(), st.sets(st.integers(0, 3)))
@example(tree_dissim(12, 3, True), {1})  # steps, then squarings and binary lifting
@example(random_dissim(np.random.default_rng(7), 10), {0, 2})
def test_steps_at_some_doublings_match_linear(a, stepped):
    # the doublings A^k -> A^(2k), k = 2^t for t in ``stepped``, go by steps and
    # the others by squarings, so lifting starts from powers of either kind
    def chosen(p, top, widths, live, entries, k):
        return live.size > 0 and k.bit_length() - 1 in stepped

    with mock.patch.object(semiring, "_steps_are_cheaper", chosen):
        assert_strategies_agree(a)


@st.composite
def few_level_dissims(draw):
    """Dissimilarities of 1 to _FEW_LEVELS tied weights, with long walks, dense or sparse levels and inf holes.

    The orders put the packed rows at one word, at a word's edge and past it.
    """
    n = draw(st.sampled_from([1, 2, 3, 63, 64, 65, 128, 129]))
    holes = draw(st.booleans())
    top = draw(st.integers(1, semiring._FEW_LEVELS - holes))  # inf adds a code
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    a = np.full((n, n), float(top))
    low = rng.random((n, n)) < draw(st.sampled_from([0.0, 0.01, 0.05, 0.5]))
    a[low] = rng.integers(1, top + 1, np.count_nonzero(low))
    # a walk through every point, its edges tied at a few weights: m up to n - 1
    walk = rng.permutation(n)
    a[walk[:-1], walk[1:]] = rng.integers(1, top + 1, n - 1)
    if holes:
        a[rng.random((n, n)) < draw(st.sampled_from([0.05, 0.5, 1.0]))] = INF
    a = np.triu(a, 1)
    return a + a.T


@settings(max_examples=150, deadline=None)
@given(few_level_dissims(), st.sampled_from([None, 0, 30, 300, INF]))
@example(path_dissim(65), 0)  # a level of one long walk, past one word
@example(two_components(64), 0)  # two trees of 64 points: inf between them
@example(pairwise_matrix(lattice_generate(LatticeConfig(2, 2, 4, 4))), 300)
def test_few_level_search_matches_linear(a, cost):
    # ``cost`` None keeps the guard, 0 runs the bit-parallel search to its end,
    # INF hands over before its first step, and the others somewhere between
    bit_cost = semiring._BIT_COST if cost is None else cost
    with mock.patch.object(semiring, "_BIT_COST", bit_cost):
        assert_strategies_agree(a)


def naive(a, b):
    """The min-max product as one broadcast, the oracle of every kernel."""
    return np.maximum(a[:, :, None], b[None]).min(axis=1)


@st.composite
def code_operands(draw):
    """An R x n and an n x P array of codes 0..top, in one unsigned dtype; maybe mostly top."""
    dtype = draw(st.sampled_from([np.uint8, np.uint16]))
    top = draw(st.integers(0, semiring._FEW_LEVELS + 2))
    r, n, p = (draw(st.integers(1, 12)) for _ in range(3))
    codes = st.integers(0, top)
    fill = draw(st.sampled_from([None, st.just(top)]))
    return (draw(arrays(dtype, (r, n), elements=codes, fill=fill)),
            draw(arrays(dtype, (n, p), elements=codes, fill=fill)))


def staircase(r, n, p, top, dtype=np.uint8):
    """Operands whose codes cycle through 0..top, so both reach ``top``."""
    return (np.arange(r * n).reshape(r, n) % (top + 1)).astype(dtype), (
        (np.arange(n * p).reshape(n, p) * 3) % (top + 1)
    ).astype(dtype)


def banded(n, top, dtype=np.uint16):
    """Symmetric codes at ``top`` but for a band below it.

    Row 0 has no entry below top, row 1 one (its zero diagonal), and the
    later rows their diagonal and their neighbours from row 2 on.
    """
    a = np.full((n, n), top, dtype)
    i = np.arange(1, n)
    a[i, i] = 0
    j = np.arange(2, n - 1)
    a[j, j + 1] = a[j + 1, j] = (7 * j) % top
    return a


def live_block(p, q, live):
    """The operands of the rectangular product of ``p`` and ``q`` over the ``live`` rows."""
    return p[live], q[:, live]


def with_inf_top(a):
    """Float copy of codes, with ``inf`` for the top code."""
    return np.where(a == a.max(), INF, a.astype(float))


def one_zero(where, n, top=3):
    """Codes 1..top with a 0 at (i, where[i]) for each row i where that is not None.

    Level 0 then has at most one 1 a row, and its 0/1 product is a gather.
    """
    a = (np.arange(len(where) * n).reshape(-1, n) % top + 1).astype(np.uint8)
    for i, k in enumerate(where):
        if k is not None:
            a[i, k] = 0
    return a


BAND = banded(12, 40)
LIVE = [1, 2, 5, 6, 11]
DIAGONAL = one_zero(range(10), 10)
PERMUTATION = one_zero([3, 7, 0, 9, 1, 8, 2, 6, 4, 5], 10)
GAPS = one_zero([4, None, 4, 0, None, 9, 2, None, 9, 4], 10)  # empty rows, shared columns


@st.composite
def step_operands(draw):
    """Square codes A, maybe mostly at its top code; some of its rows; codes q at most that top."""
    dtype = draw(st.sampled_from([np.uint8, np.uint16]))
    top = draw(st.integers(0, np.iinfo(dtype).max))
    n = draw(st.integers(1, 12))
    fill = draw(st.sampled_from([None, st.just(top)]))
    a = draw(arrays(dtype, (n, n), elements=st.integers(0, top), fill=fill))
    q = draw(arrays(dtype, (n, n), elements=st.integers(0, top)))
    rows = draw(st.sets(st.integers(0, n - 1)))
    return a, np.minimum(q, a.max()), np.array(sorted(rows), dtype=np.intp)


def with_square(c, rows):
    """Step operands: codes c, the product c·c and ``rows``."""
    return c, minmax_product(c, c), np.array(rows, dtype=np.intp)


def coded(a, dtype=np.uint8):
    """The level codes of ``a`` by its distinct values."""
    return semiring._search_codes(a, np.unique(a))[0].astype(dtype)


@settings(max_examples=300, deadline=None)
@given(step_operands(), st.integers(1, 4))
# rows of width 0 (row 0) and 1 (row 1), uint16 and uint8
@example(with_square(BAND, range(12)), 2)
@example(with_square(banded(9, 200, np.uint8), [0, 1, 5, 8]), 1)
# inf holes: top is the code of inf
@example(with_square(coded(random_dissim(np.random.default_rng(7), 10, with_inf=True)), range(10)), 1)
@example(with_square(coded(random_dissim(np.random.default_rng(7), 10, with_inf=True), np.uint16), [2, 3, 7]), 3)
# tied integer codes
@example(with_square(coded(random_dissim(np.random.default_rng(7), 12, integer=True)), [0, 4, 5, 11]), 2)
@example(with_square(coded(random_dissim(np.random.default_rng(7), 12, integer=True), np.uint16), range(12)), 4)
@example(with_square(np.zeros((3, 3), np.uint8), range(3)), 1)  # every entry top
def test_step_rows_match_the_product(operands, block):
    # a step's kernel over A's packed entries below top gives the rows of
    # minmax_product(A[rows], q), in blocks of ``block`` rows at width 1
    a, q, rows = operands
    top = a.max()
    entries, vals = semiring._pack_below(a, top, rows)
    rows = rows[np.argsort(-entries.width[rows], kind="stable")]  # as the steps order them
    out = np.full((rows.size, q.shape[1]), top, a.dtype)  # rows with no entry below top stay top
    with mock.patch.object(semiring, "_BLOCK_BYTES", block * q[0].nbytes):
        semiring._rows_product(entries, vals, rows, q, out)
    assert out.tobytes() == minmax_product(a[rows], q).tobytes()


@settings(max_examples=300, deadline=None)
@given(code_operands(), st.integers(1, 5))
@example(staircase(1, 1, 1, 0), 1)
@example(staircase(1, 9, 11, semiring._FEW_LEVELS), 4)
@example(staircase(11, 9, 1, semiring._FEW_LEVELS, np.uint16), 4)
@example(staircase(10, 13, 7, semiring._FEW_LEVELS), 3)  # 10 and 7 rows in tiles of 3
@example(staircase(10, 13, 7, semiring._FEW_LEVELS + 1), 3)
# mostly top: rows of width 0 and 1 take the row-sparse path
@example((BAND, BAND[:, ::-1].copy()), 2)
@example((banded(9, 200, np.uint8), banded(9, 200, np.uint8)[::-1].copy()), 2)
@example(live_block(BAND, minmax_product(BAND, BAND), LIVE), 1)  # a lifting block
# level 0 of the left operand has at most one 1 a row: a row gather, untiled and in tiles of 3
@example((DIAGONAL, staircase(10, 10, 7, 3)[1]), 1 << 10)
@example((DIAGONAL, staircase(10, 10, 7, 3)[1]), 3)
@example((PERMUTATION, PERMUTATION), 3)
@example((GAPS, PERMUTATION.T.copy()), 4)
@example((GAPS[:, :7].copy(), np.full((7, 5), 2, np.uint8)), 2)  # a right level-0 mask of zeros
def test_few_level_codes_match_the_float_product(operands, tile):
    a, b = operands
    top = int(max(a.max(), b.max()))
    taken = []

    def recorded(x, y, t, symmetric, _orig=semiring._threshold_product):
        taken.append(t)
        return _orig(x, y, t, symmetric)

    # tiles of ``tile`` rows and columns, so that small shapes split too
    with mock.patch.object(semiring, "_TILE_BYTES", 4 * a.shape[1] * tile), \
            mock.patch.object(semiring, "_threshold_product", recorded):
        c = minmax_product(a, b)
    assert taken == ([top] if top <= semiring._FEW_LEVELS else [])
    assert c.dtype == a.dtype
    assert np.array_equal(c, minmax_product(a.astype(float), b.astype(float)))
    assert c.tobytes() == naive(a, b).tobytes()


def with_transpose(a):
    return a, a.T.copy()


@st.composite
def transposed_operands(draw):
    """An R x n operand and its transpose: uint8 codes 0..top, uint16 codes or
    floats with inf; maybe mostly at the largest value."""
    dtype = draw(st.sampled_from([np.uint8, np.uint16, np.float64]))
    if dtype is np.uint8:
        top = draw(st.integers(0, semiring._FEW_LEVELS + 2))
        elements = st.integers(0, top)
    elif dtype is np.uint16:
        top = 2**16 - 1
        elements = st.integers(0, top)
    else:
        top = INF
        elements = st.one_of(st.just(INF), st.floats(0.25, 64.0))
    shape = (draw(st.integers(1, 12)), draw(st.integers(1, 12)))
    fill = draw(st.sampled_from([None, st.just(top)]))
    return with_transpose(draw(arrays(dtype, shape, elements=elements, fill=fill)))


def near_miss(r, n, top, dtype=np.uint8):
    """A staircase operand and its transpose with one entry changed: not symmetric."""
    a, b = with_transpose(staircase(r, n, 1, top, dtype)[0])
    b[n - 1, 0] = 0 if a[0, n - 1] else 1
    return a, b


@settings(max_examples=300, deadline=None)
@given(transposed_operands(), st.integers(1, 4), st.booleans())
@example(with_transpose(np.zeros((1, 1), np.uint8)), 1, False)
@example(with_transpose(staircase(10, 13, 1, 3)[0]), 3, False)  # 0/1 tiles of 3 rows
@example(with_transpose(staircase(10, 13, 1, 40, np.uint16)[0]), 3, False)  # broadcast blocks
@example(with_transpose(staircase(10, 13, 1, 40, np.uint16)[0]), 3, True)  # sparse, no top row
@example(with_transpose(np.array([[INF, 1.0, 2.0], [2.0, INF, 0.5]])), 1, False)
@example(near_miss(10, 13, 3), 3, False)
@example(near_miss(10, 13, 40, np.uint16), 3, False)
# level 0 has at most one 1 a row: the diagonal tile compares the rows' columns
@example(with_transpose(DIAGONAL), 1 << 10, False)
@example(with_transpose(DIAGONAL), 3, False)
@example(with_transpose(PERMUTATION), 4, False)
@example(with_transpose(GAPS), 3, False)
@example(with_transpose(GAPS[:7]), 1 << 10, False)  # 7 x 10
# rows of width 0 and 1, a squaring's live block, inf holes over +0.0
@example(with_transpose(BAND), 2, True)
@example(live_block(BAND, BAND, LIVE), 1, True)
@example(with_transpose(with_inf_top(BAND)), 2, True)
# NaN is no top: nothing is skipped; -0.0 keeps the operands on the broadcast kernel
@example(with_transpose(np.array([[np.nan, 1.0, INF], [INF, INF, 2.0]])), 1, True)
@example((np.array([[-0.0, 0.0, INF], [0.0, INF, -0.0]]), np.array([[0.0, -0.0], [INF, 1.0], [-0.0, 0.0]])), 1, True)
# transposes but for the sign of a zero: a mirror of a·aᵀ would give max(-0.0, -0.0) = -0.0
# where the naive product gives max(-0.0, 0.0) = 0.0
@example((np.array([[-0.0]]), np.array([[0.0]])), 1, False)
@example((np.array([[-0.0, 1.0], [0.0, -0.0]]), np.array([[0.0, 0.0], [1.0, 0.0]])), 1, False)
def test_products_by_the_transpose_match_the_naive_product(operands, rows, sparse):
    a, b = operands
    # tiles and broadcast blocks of ``rows`` rows, so that small shapes split
    # too; with ``sparse`` every operand allowed the row-sparse path takes it
    taken = []

    def recorded(x, y, top, _orig=semiring._sparse_product):
        taken.append(top)
        return _orig(x, y, top)

    cost = 0 if sparse else semiring._SPARSE_COST
    with mock.patch.object(semiring, "_TILE_BYTES", 4 * a.shape[1] * rows), \
            mock.patch.object(semiring, "_BLOCK_BYTES", rows * a.nbytes), \
            mock.patch.object(semiring, "_SPARSE_COST", cost), \
            mock.patch.object(semiring, "_sparse_product", recorded):
        c = minmax_product(a, b)
    assert c.dtype == a.dtype
    assert c.tobytes() == naive(a, b).tobytes()
    few = a.dtype.kind == "u" and max(a.max(), b.max()) <= semiring._FEW_LEVELS
    if sparse and not few:
        assert len(taken) == (not (np.signbit(a).any() or np.signbit(b).any()))


@st.composite
def packed_masks(draw):
    """A bool mask and some of its rows, in any order."""
    mask = draw(arrays(bool, st.tuples(st.integers(1, 12), st.integers(1, 12))))
    rows = draw(st.permutations(range(mask.shape[0])))[: draw(st.integers(0, mask.shape[0]))]
    return mask, np.array(rows, dtype=np.intp)


def all_rows(mask):
    return mask, np.arange(mask.shape[0])


STAIRS = np.array([[0, 1, 1], [0, 0, 0], [1, 0, 0], [1, 1, 1]], bool)


@settings(max_examples=300, deadline=None)
@given(packed_masks(), st.integers(1, 1 << 21), st.integers(1, 1 << 21))
@example(all_rows(np.zeros((3, 4), bool)), 1, semiring._BLOCK_BYTES)  # no entry: no block
@example(all_rows(STAIRS), 1, semiring._BLOCK_BYTES)  # one block
@example(all_rows(STAIRS), semiring._BLOCK_BYTES + 1, semiring._BLOCK_BYTES)  # a row a block
@example((STAIRS, np.array([3, 1, 0])), 1, 8 * 3)  # a mask block a row, an unpacked row
def test_packed_blocks_hold_each_entry_once(operands, bytes_per_entry, budget):
    mask, rows = operands
    n = mask.shape[1]
    row_bytes = lambda w: bytes_per_entry * w  # noqa: E731
    made = []

    def mask_of(block):
        made.append(block.size)
        return mask[block]

    with mock.patch.object(semiring, "_BLOCK_BYTES", budget):
        entries = semiring._pack_rows(mask_of, rows, n)
        order = rows[np.argsort(-entries.width[rows], kind="stable")]
        blocks = list(semiring._row_blocks(entries, order, row_bytes))
    # the rows' masks in blocks of as many rows as the budget holds at 8 bytes an entry
    size = max(1, budget // (8 * n))
    assert made == [min(size, rows.size - s) for s in range(0, rows.size, size)]
    # the rows' columns, increasing, packed in the order of ``rows``; other rows are empty
    assert np.array_equal(entries.cols, np.flatnonzero(mask[rows]) % n)
    for i in range(entries.width.size):
        packed = entries.cols[entries.start[i] : entries.start[i] + entries.width[i]]
        assert np.array_equal(packed, np.flatnonzero(mask[i]) if i in rows else [])
    assert np.all(np.diff(entries.width[order]) <= 0)  # widest first
    seen, end = np.zeros(mask.shape, int), 0
    for s, e, at in blocks:
        w, left = entries.width[order[s]], np.count_nonzero(entries.width[order]) - s
        # consecutive blocks of as many rows as the budget holds at the first row's width, at least one
        assert s == end and e - s == min(left, max(1, budget // row_bytes(w)))
        assert at.shape == (e - s, w)
        for row, places in zip(order[s:e], at):
            width = entries.width[row]
            assert width > 0  # no block holds an empty row
            assert np.all(places[width:] == places[width - 1])  # padding repeats the last entry
            np.add.at(seen, (row, entries.cols[places[:width]]), 1)
        end = e
    assert end == np.count_nonzero(entries.width)
    want = np.zeros(mask.shape, int)
    want[rows] = mask[rows]
    assert np.array_equal(seen, want)  # every True entry of ``rows`` exactly once, nothing else


def or_operands(widths, words):
    """A mask whose rows hold ``widths`` neighbours among 2 * max(widths) + 1, all its rows, and reach rows of ``words`` words."""
    n = 2 * max(widths) + 1
    mask = np.zeros((len(widths), n), bool)
    for i, w in enumerate(widths):
        mask[i, np.arange(i, i + w) % n] = True
    reach = np.random.default_rng(len(widths)).random((n, 64 * words)) < 0.3
    return all_rows(mask), reach


@st.composite
def bit_rows(draw):
    """A packed neighbour mask and reach rows of up to 130 columns, one per neighbour."""
    mask, rows = draw(packed_masks())
    reach = draw(arrays(bool, st.tuples(st.just(mask.shape[1]), st.integers(1, 130))))
    return (mask, rows), reach


@settings(max_examples=200, deadline=None)
@given(bit_rows(), st.integers(1, 1 << 12))
@example(or_operands([1, 1, 1, 1], 1), semiring._BLOCK_BYTES)  # rows of width 1
@example(or_operands([7, 2, 1, 1, 2], 2), 8 * 2 * 7)  # one wide row alone in its block
@example(or_operands([3, 3, 2, 1], 1), 1)  # a budget of one row
def test_or_rows_match_the_dense_or(operands, budget):
    # row i of _or_rows is the OR of the reach rows at the neighbours of rows[i]
    (mask, rows), reach = operands
    words = -(-reach.shape[1] // 64)
    with mock.patch.object(semiring, "_BLOCK_BYTES", budget):
        entries = semiring._pack_rows(mask.__getitem__, rows, mask.shape[1])
        rows = rows[np.argsort(-entries.width[rows], kind="stable")]
        out = semiring._or_rows(semiring._bit_rows(reach, words), entries, rows)
    want = (mask[rows].astype(np.intp) @ reach.astype(np.intp)) > 0  # a row without neighbours is 0
    assert out.tobytes() == semiring._bit_rows(want, words).tobytes()


@settings(max_examples=100, deadline=None)
@given(small_dissims())
@example(two_components(4))  # ends at inf entries
def test_power_chain_falls_to_the_fixpoint(a):
    chain = list(power_chain(a))
    for p, q in zip(chain, chain[1:]):
        assert np.all(q <= p) and not np.array_equal(q, p)
    assert chain[-1].tobytes() == minimax_oracle(a).tobytes()


@settings(max_examples=100, deadline=None)
@given(small_dissims(), st.lists(st.floats(0.0, 70.0), max_size=4))
@example(two_components(3), [])  # r = inf joins the two components
def test_spheric_clusterings_nest_as_the_radius_grows(a, extra):
    u = subdominant(a)
    radii = sorted({0.0, INF, *np.unique(u).tolist(), *extra})
    clusterings = [spheric_clustering(u, r) for r in radii]
    for c in clusterings:
        assert is_perfect_clustering(u, c)
    for fine, coarse in zip(clusterings, clusterings[1:]):
        # each cluster of the smaller radius lies inside one of the larger
        for k in range(fine.num_clusters):
            assert np.unique(coarse.assignment[fine.assignment == k]).size == 1
    assert clusterings[0].num_clusters == u.shape[0]
    assert clusterings[-1].num_clusters == 1


@st.composite
def linkage_dissims(draw):
    """Floats or tied integers, n from 1 to 40, with inf holes one time in five."""
    n = draw(st.integers(1, 40))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    return random_dissim(rng, n, integer=draw(st.booleans()), with_inf=draw(st.sampled_from([False] * 4 + [True])))


def same_partition(x, y):
    """True iff two labelings of the same points group them alike."""
    pairs = np.unique(np.column_stack((x, y)), axis=0)
    return pairs.shape[0] == np.unique(x).size == np.unique(y).size


def assert_same_histogram(got, want):
    """Every field of two histograms equal, arrays in dtype, shape and bytes."""
    for field in dataclasses.fields(want):
        x, y = getattr(got, field.name), getattr(want, field.name)
        assert type(x) is type(y)
        if isinstance(y, np.ndarray):
            assert x.dtype == y.dtype and x.shape == y.shape and x.tobytes() == y.tobytes()
        else:
            assert x == y


def unique_histogram(a, mode, bins):
    """The histogram as np.unique builds it: the finite values of the upper triangle, with inf as overflow."""
    vals = a[np.triu_indices(a.shape[0], 1)]
    finite = vals[np.isfinite(vals)]
    values, counts = np.unique(finite, return_counts=True)
    return DistanceHistogram.of_counts(values, counts, vals.size - finite.size, mode, bins)


@settings(max_examples=200, deadline=None)
@given(linkage_dissims())
@example(np.zeros((1, 1)))  # one point: no pairs
@example(symmetric(2, [3.0]))
@example(symmetric(2, [INF]))
@example(symmetric(5, [INF] * 10))  # every pair at inf
@example(symmetric(5, [2.0, INF] * 5))  # one finite value between holes
@example(path_dissim(9))  # ties: two values, one of them on 28 pairs
def test_histogram_reads_the_runs_of_the_sorted_triangle(a):
    for mode, bins in [("distinct", None), ("binned", None), ("binned", 1), ("binned", 3)]:
        assert_same_histogram(clustering._histogram_of(a, mode, bins), unique_histogram(a, mode, bins))


@settings(max_examples=200, deadline=None)
@given(linkage_dissims())
@example(np.zeros((1, 1)))  # one point: no pairs
@example(symmetric(5, [7.0] * 10))  # one level
@example(symmetric(4, [INF] * 6))  # four trees: only r = inf merges them
@example(two_components(5))  # two trees
@example(path_dissim(9))  # ties along the whole sweep
def test_dendrogram_reads_the_fixpoint(a):
    u = subdominant(a)
    d = Dendrogram.from_matrix(a)
    for mode, bins in [("distinct", None), ("binned", None), ("binned", 1), ("binned", 3), ("binned", 50)]:
        assert_same_histogram(d.histogram(mode, bins), distance_histogram(u, mode, bins))
    for strategy in ("linear", "doubling"):  # stabilize hands on its one sweep
        held = stabilize(a, strategy).dendrogram
        assert held.order.tobytes() == d.order.tobytes() and held.h.tobytes() == d.h.tobytes()
    levels = np.unique(u)
    radii = [0.0, *levels.tolist(), *((levels[:-1] + levels[1:]) / 2).tolist(), INF]
    n = a.shape[0]
    z = None
    if n > 1 and np.isfinite(a).all():
        hierarchy = pytest.importorskip("scipy.cluster.hierarchy")
        z = hierarchy.linkage(a[np.triu_indices(n, 1)], method="single")
    for r in radii:
        cut = d.cut(r)
        # u <= r is an equivalence relation on an ultrametric: label each
        # point by its cluster's smallest member, then number the clusters
        # in order of that member
        ref = np.unique(np.argmax(u <= r, axis=1), return_inverse=True)[1]
        assert cut.dtype == ref.dtype and np.array_equal(cut, ref)
        assert np.array_equal(spheric_clustering(u, r).assignment, ref)
        if z is not None:
            assert same_partition(cut, hierarchy.fcluster(z, r, criterion="distance"))


@st.composite
def near_ultrametrics(draw):
    """Dissimilarities, their subdominants, and subdominants with one pair moved.

    The moved pair takes another value of the matrix, or inf, so ties, inf
    holes and several trees come up often.
    """
    a = draw(st.one_of(small_dissims(), linkage_dissims()))
    kind = draw(st.sampled_from(["raw", "subdominant", "moved"]))
    if kind == "raw":
        return a
    u = subdominant(a)
    n = u.shape[0]
    if kind == "moved" and n > 1:
        i, j = draw(st.lists(st.integers(0, n - 1), min_size=2, max_size=2, unique=True))
        u[i, j] = u[j, i] = draw(st.sampled_from([*np.unique(u[u > 0]).tolist(), INF]))
    return u


@settings(max_examples=300, deadline=None)
@given(near_ultrametrics())
@example(np.zeros((1, 1)))  # one point
@example(symmetric(4, [INF] * 6))  # four trees: ultrametric
@example(two_components(3))  # two trees, not ultrametric inside either
@example(subdominant(two_components(3)))
@example(symmetric(3, [1.0, 1.0, 2.0]))  # 0-2 at 1, 1-2 at 2: not ultrametric
@example(symmetric(3, [1.0, INF, INF]))  # an isolated point
@example(symmetric(3, [1.0, INF, 1.0]))  # an inf hole inside one tree
def test_spheric_clustering_rejects_exactly_the_non_ultrametrics(a):
    if is_ultrametric(a):
        for r in (0.0, *np.unique(a).tolist()):
            assert is_perfect_clustering(a, spheric_clustering(a, r))
    else:
        with pytest.raises(NotUltrametricError):
            spheric_clustering(a, 0.0)


# 0 < x <= inf, with subnormals and the ends of the double range drawn often
positive = st.one_of(
    st.sampled_from([INF, 5e-324, 1e-310, 1e-300, 1e300, 1.7976931348623157e308]),
    st.floats(min_value=0.0, exclude_min=True, allow_infinity=True),
)
coordinate = st.one_of(
    st.sampled_from([INF, -INF, 5e-324, -1e-310, 1e-300, -1e300, 1e300, -0.0]),
    st.floats(allow_nan=False),
)


@st.composite
def csv_matrices(draw):
    n = draw(st.integers(1, 8))
    size = n * (n - 1) // 2
    return symmetric(n, draw(st.lists(positive, min_size=size, max_size=size)))


@settings(max_examples=150, deadline=None)
@given(csv_matrices())
@example(np.zeros((1, 1)))
@example(symmetric(3, [5e-324, 1e300, INF]))
def test_matrix_csv_round_trip(tmp_path_factory, a):
    path = tmp_path_factory.mktemp("matrix") / "a.csv"
    save_matrix_csv(a, path)
    b = load_matrix_csv(path)
    assert b.dtype == np.float64 and b.shape == a.shape and b.tobytes() == a.tobytes()


@settings(max_examples=150, deadline=None)
@given(arrays(np.float64, st.tuples(st.integers(1, 8), st.integers(1, 4)), elements=coordinate))
@example(np.array([[1e-310]]))  # one point, one column
@example(np.array([[INF], [-1e300], [-0.0]]))
def test_points_csv_round_trip(tmp_path_factory, pts):
    path = tmp_path_factory.mktemp("points") / "p.csv"
    save_points_csv(pts, path)
    b = load_points_csv(path)
    assert b.dtype == np.float64 and b.shape == pts.shape and b.tobytes() == pts.tobytes()


# repeated values, both zeros, NaN, infinities and subnormals beside any float
table_value = st.one_of(
    st.sampled_from([0.0, -0.0, 1.0, 2.0, math.nan, INF, -INF, 5e-324, -2.2250738585072014e-308,
                     -1.7976931348623157e308, -0.00012345678901234567, 1234567890123456.7]),
    st.floats(),
)
table_shape = st.one_of(st.tuples(st.integers(0, 12), st.integers(1, 6)), st.tuples(st.integers(0, 12)))


# decompression of each compressed sink, by suffix
UNZIP = {".gz": gzip.decompress, ".bz2": bz2.decompress, ".xz": lzma.decompress}


def written_bytes(write, a, header, sink, tmp):
    """The bytes ``write(a, <sink>, header=header)`` puts into a text stream, a
    path or a compressed path (decompressed)."""
    if sink == "stream":
        fh = io.StringIO()
        write(a, fh, header=header)
        return fh.getvalue().encode()
    path = tmp / sink
    write(a, path, header=header)
    return UNZIP.get(path.suffix, bytes)(path.read_bytes())


@settings(max_examples=300, deadline=None)
@given(st.one_of(arrays(np.float64, table_shape, elements=table_value),
                 # indices, cluster ids, counts and stages: integers whose float64 is exact
                 arrays(np.int64, table_shape, elements=st.integers(-(2**53), 2**53))),
       st.sampled_from(["", "dim=3"]),
       st.sampled_from(["stream", "t.csv", *(f"t.csv{suffix}" for suffix in UNZIP)]),
       st.sampled_from([8, 24, 100, 1 << 16]))
@example(np.array([[0.0, -0.0, math.nan], [INF, -INF, 5e-324]]), "", "stream", 1 << 16)
@example(np.array([[1.5]]), "dim=1", "t.csv.gz", 8)
@example(np.array([[1.5, -2.0]]), "", "t.csv.bz2", 8)
@example(np.array([[2.5], [0.0]]), "dim=1", "t.csv.xz", 8)
@example(np.zeros((0, 3)), "dim=3", "t.csv", 8)  # the header alone
@example(np.zeros(0), "", "stream", 8)
@example(np.array([3.0, -0.0, 3.0, math.nan]), "", "stream", 8)  # 1-D: one value a row
@example(np.tile([[0.0, -0.0], [2.0, 0.0]], (6, 3)), "", "t.csv", 48)  # one row per block
@example(np.array([[0, 7], [1, -(2**53)], [2, 2**53]]), "", "stream", 24)
@example(np.array([3, 0, 3]), "", "t.csv.gz", 8)
def test_table_writer_writes_the_bytes_of_savetxt(tmp_path_factory, a, header, sink, block):
    # the CLI's integer tables were written with "%d", its float tables with "%.17g"
    def savetxt(x, dest, header):
        np.savetxt(dest, x, fmt="%d" if x.dtype.kind == "i" else "%.17g", delimiter=",", header=header)

    tmp = tmp_path_factory.mktemp("table")
    with mock.patch.object(data, "_CSV_BLOCK_BYTES", block):  # blocks of few rows
        got = written_bytes(data._save_table_csv, a, header, sink, tmp)
    assert got == written_bytes(savetxt, a, header, sink, tmp)


def hop_count_m(a):
    """m as the most hops any pair needs along a path no heavier than its A* entry.

    A^k[i, j] <= t exactly when i reaches j in at most k hops over edges
    a <= t, and A^k >= A*, so pair (i, j) needs the least such k for
    t = A*[i, j].  Reachability grows one hop at a time by boolean products.
    """
    star = minimax_oracle(a)
    n = a.shape[0]
    m = 1
    for t in np.unique(star[~np.eye(n, dtype=bool)]):
        edges = a <= t  # the zero diagonal keeps every shorter walk
        reach, hops = edges, 1
        while not reach[star == t].all():
            reach, hops = reach @ edges, hops + 1
            assert hops < n
        m = max(m, hops)
    return m


@settings(max_examples=200, deadline=None)
@given(st.one_of(small_dissims(), csv_matrices()))
@example(path_dissim(1))
@example(path_dissim(2))
@example(path_dissim(5))
@example(path_dissim(33))  # m = 32
@example(symmetric(5, [1.0, 2.0] * 5))  # two values off the diagonal
@example(symmetric(4, [INF] * 6))  # every pair apart
@example(two_components(5))  # inf between the components
def test_m_is_the_largest_hop_count(a):
    m = hop_count_m(a)
    assert stabilize(a).m == m
    assert stabilize(a, "linear").m == m
