import tracemalloc

import numpy as np
import pytest


def random_dissim(rng, n, integer=False, with_inf=False):
    """Random valid dissimilarity matrix of order n."""
    if integer:
        vals = rng.integers(1, 30, size=(n, n)).astype(float)
    else:
        vals = rng.uniform(0.1, 10.0, size=(n, n))
    a = np.triu(vals, 1)
    a = a + a.T
    if with_inf and n > 1:
        iu, ju = np.triu_indices(n, 1)
        mask = rng.random(iu.size) < 0.15
        a[iu[mask], ju[mask]] = np.inf
        a[ju[mask], iu[mask]] = np.inf
    np.fill_diagonal(a, 0.0)
    return a


def path_dissim(n):
    """Unit steps along a path under heavier chords (2.0).

    A^k joins exactly the pairs at most k steps apart, so m = n - 1 (1 for
    a single point).
    """
    a = np.full((n, n), 2.0)
    a[np.arange(n - 1), np.arange(1, n)] = a[np.arange(1, n), np.arange(n - 1)] = 1.0
    np.fill_diagonal(a, 0.0)
    return a


def tree_dissim(n, seed, isolated):
    """A dissimilarity whose A* has exactly n distinct values.

    A random recursive tree with distinct weights 1, 2, ... under heavier
    (or infinite) chords; with ``isolated`` the last point is cut off, so
    inf replaces one weight among the values of A*.
    """
    rng = np.random.default_rng(seed)
    k = n - 1 if isolated else n
    a = np.full((n, n), np.inf)
    chords = rng.uniform(1000.0, 2000.0, (k, k))
    a[:k, :k] = np.where(rng.random((k, k)) < 0.1, np.inf, chords)
    weights = rng.permutation(np.arange(1.0, k))
    for child in range(1, k):
        parent = int(rng.integers(0, child))
        a[child, parent] = weights[child - 1]
    a = np.tril(a, -1)
    a = a + a.T
    np.fill_diagonal(a, 0.0)
    return a


def peak_bytes(f, *args):
    """The result of f(*args) and the tracemalloc peak of the call."""
    tracemalloc.start()
    try:
        return f(*args), tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.fixture
def rng():
    return np.random.default_rng(20260826)
