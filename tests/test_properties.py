"""Property tests: the level-code doubling search agrees with the float chain."""

import math
from unittest import mock

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import example, given, settings, strategies as st  # noqa: E402

from ultraclust import semiring, stabilize  # noqa: E402

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


def assert_strategies_agree(a):
    lin, dbl = stabilize(a, "linear"), stabilize(a, "doubling")
    assert dbl.m == lin.m
    assert dbl.star.dtype == np.float64 and dbl.star.tobytes() == lin.star.tobytes()


@settings(max_examples=200, deadline=None)
@given(small_dissims())
@example(np.zeros((1, 1)))  # one level
@example(symmetric(5, [7.0] * 10))  # two levels, 0 and 7
@example(symmetric(4, [INF] * 6))  # two levels, 0 and inf
def test_doubling_matches_linear(a):
    assert_strategies_agree(a)


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
