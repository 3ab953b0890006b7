"""Property tests: the level-code doubling search and the spanning-forest sweep
agree with the float chain, both strategies' m is the largest hop count of a
minimax path, the facts by which doubling settles rows hold
on the float powers, few-level codes multiply as the broadcast kernel
multiplies their float copies, a product by the transpose matches the
naive product, the power chain falls to A*, spheric
clusterings nest, and CSV files read back exactly what was written."""

import math
from unittest import mock

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import example, given, settings, strategies as st  # noqa: E402
from hypothesis.extra.numpy import arrays  # noqa: E402

from ultraclust import (  # noqa: E402
    LatticeConfig,
    is_perfect_clustering,
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
from conftest import path_dissim  # noqa: E402

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


def tree_dissim(n, seed, isolated):
    """A dissimilarity whose A* has exactly n distinct values.

    A random recursive tree with distinct weights 1, 2, ... under heavier
    (or infinite) chords; with ``isolated`` the last point is cut off, so
    inf replaces one weight among the values of A*.
    """
    rng = np.random.default_rng(seed)
    k = n - 1 if isolated else n
    a = np.full((n, n), INF)
    chords = rng.uniform(1000.0, 2000.0, (k, k))
    a[:k, :k] = np.where(rng.random((k, k)) < 0.1, INF, chords)
    weights = rng.permutation(np.arange(1.0, k))
    for child in range(1, k):
        parent = int(rng.integers(0, child))
        a[child, parent] = weights[child - 1]
    a = np.tril(a, -1)
    a = a + a.T
    np.fill_diagonal(a, 0.0)
    return a


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


def assert_strategies_agree(a):
    lin, dbl = stabilize(a, "linear"), stabilize(a, "doubling")
    assert dbl.m == lin.m
    assert dbl.star.dtype == np.float64 and dbl.star.tobytes() == lin.star.tobytes()
    assert minimax_oracle(a).tobytes() == lin.star.tobytes()


@settings(max_examples=200, deadline=None)
@given(small_dissims())
@example(np.zeros((1, 1)))  # one level
@example(symmetric(5, [7.0] * 10))  # two levels, 0 and 7
@example(symmetric(4, [INF] * 6))  # two levels, 0 and inf
@example(path_dissim(9))  # the middle rows settle last
@example(hub_dissim(7))  # every row settles after one squaring
@example(two_components(5))  # rows settle per component
# codes 0..3: every product, the 32- and 12-row live blocks too, takes the 0/1 path
@example(pairwise_matrix(lattice_generate(LatticeConfig(3, 3, 2, 2))))
def test_doubling_matches_linear(a):
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
    assert np.array_equal(power(a, k + j)[done], star[done])


@settings(max_examples=6, deadline=None)
@given(st.sampled_from([255, 256]), st.integers(0, 2**32 - 1), st.booleans())
def test_doubling_matches_linear_at_the_uint8_boundary(n, seed, isolated):
    a = tree_dissim(n, seed, isolated)
    dtypes = set()
    orig = semiring.minmax_product

    def recorded(x, y):
        dtypes.add(np.asarray(x).dtype)
        return orig(x, y)

    with mock.patch.object(semiring, "minmax_product", recorded):
        dbl = stabilize(a)
    assert np.unique(dbl.star).size == n
    # n levels take codes 0..n: 255 levels fit uint8, 256 need uint16
    assert dtypes == {np.dtype(np.uint8 if n == 255 else np.uint16)}
    assert_strategies_agree(a)


@st.composite
def code_operands(draw):
    """An R x n and an n x P array of codes 0..top, in one unsigned dtype."""
    dtype = draw(st.sampled_from([np.uint8, np.uint16]))
    top = draw(st.integers(0, semiring._FEW_LEVELS + 2))
    r, n, p = (draw(st.integers(1, 12)) for _ in range(3))
    codes = st.integers(0, top)
    return draw(arrays(dtype, (r, n), elements=codes)), draw(arrays(dtype, (n, p), elements=codes))


def staircase(r, n, p, top, dtype=np.uint8):
    """Operands whose codes cycle through 0..top, so both reach ``top``."""
    return (np.arange(r * n).reshape(r, n) % (top + 1)).astype(dtype), (
        (np.arange(n * p).reshape(n, p) * 3) % (top + 1)
    ).astype(dtype)


@settings(max_examples=300, deadline=None)
@given(code_operands(), st.integers(1, 5))
@example(staircase(1, 1, 1, 0), 1)
@example(staircase(1, 9, 11, semiring._FEW_LEVELS), 4)
@example(staircase(11, 9, 1, semiring._FEW_LEVELS, np.uint16), 4)
@example(staircase(10, 13, 7, semiring._FEW_LEVELS), 3)  # 10 and 7 rows in tiles of 3
@example(staircase(10, 13, 7, semiring._FEW_LEVELS + 1), 3)
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


def with_transpose(a):
    return a, a.T.copy()


@st.composite
def transposed_operands(draw):
    """An R x n operand and its transpose: uint8 codes 0..top, uint16 codes or floats with inf."""
    dtype = draw(st.sampled_from([np.uint8, np.uint16, np.float64]))
    if dtype is np.uint8:
        elements = st.integers(0, draw(st.integers(0, semiring._FEW_LEVELS + 2)))
    elif dtype is np.uint16:
        elements = st.integers(0, 2**16 - 1)
    else:
        elements = st.one_of(st.just(INF), st.floats(0.25, 64.0))
    shape = (draw(st.integers(1, 12)), draw(st.integers(1, 12)))
    return with_transpose(draw(arrays(dtype, shape, elements=elements)))


def near_miss(r, n, top, dtype=np.uint8):
    """A staircase operand and its transpose with one entry changed: not symmetric."""
    a, b = with_transpose(staircase(r, n, 1, top, dtype)[0])
    b[n - 1, 0] = 0 if a[0, n - 1] else 1
    return a, b


@settings(max_examples=300, deadline=None)
@given(transposed_operands(), st.integers(1, 4))
@example(with_transpose(np.zeros((1, 1), np.uint8)), 1)
@example(with_transpose(staircase(10, 13, 1, 3)[0]), 3)  # 0/1 tiles of 3 rows
@example(with_transpose(staircase(10, 13, 1, 40, np.uint16)[0]), 3)  # broadcast blocks
@example(with_transpose(np.array([[INF, 1.0, 2.0], [2.0, INF, 0.5]])), 1)
@example(near_miss(10, 13, 3), 3)
@example(near_miss(10, 13, 40, np.uint16), 3)
def test_products_by_the_transpose_match_the_naive_product(operands, rows):
    a, b = operands
    # tiles and broadcast blocks of ``rows`` rows, so that small shapes split too
    with mock.patch.object(semiring, "_TILE_BYTES", 4 * a.shape[1] * rows), \
            mock.patch.object(semiring, "_BLOCK_BYTES", rows * a.nbytes):
        c = minmax_product(a, b)
    assert c.dtype == a.dtype
    assert np.array_equal(c, np.maximum(a[:, :, None], b[None]).min(axis=1))


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
