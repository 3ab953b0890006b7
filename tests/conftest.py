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
