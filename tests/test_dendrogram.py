"""The sweep checks the weight matrix it is given, and the cut its radius."""

import numpy as np
import pytest

from ultraclust import Dendrogram, ValidationError
from conftest import random_dissim

NAN = np.nan


class TestFromMatrix:
    @pytest.mark.parametrize("w, message", [
        (np.array([[0, NAN, 1], [NAN, 0, 2], [1, 2, 0]]), r"^weight matrix must not contain NaN, got one at \(0, 1\)$"),
        (np.array([[0, 1], [1, NAN]]), r"^weight matrix must not contain NaN, got one at \(1, 1\)$"),
        (np.array([[0, 1, 2], [1, 0, 3], [2, 4, 0]]), r"^weight matrix must be symmetric$"),
        (np.zeros((2, 3)), r"^expected a square weight matrix, got \(2, 3\)$"),
        (np.zeros(3), r"^expected a square weight matrix, got \(3,\)$"),
    ], ids=["nan-pair", "nan-diagonal", "asymmetric", "2x3", "1-d"])
    def test_rejected(self, w, message):
        with pytest.raises(ValidationError, match=message):
            Dendrogram.from_matrix(w)

    def test_nan_reported_before_asymmetry(self):
        # the asymmetric pair (0, 1) comes first, the NaN is still reported
        w = np.array([[0, 1, 5], [2, 0, NAN], [5, 4, 0]])
        with pytest.raises(ValidationError, match=r"^weight matrix must not contain NaN, got one at \(1, 2\)$"):
            Dendrogram.from_matrix(w)

    def test_nested_list_sweeps_as_the_array(self, rng):
        a = random_dissim(rng, 12, with_inf=True)
        d, e = Dendrogram.from_matrix(a), Dendrogram.from_matrix(a.tolist())
        assert e.order.tobytes() == d.order.tobytes()
        assert e.h.tobytes() == d.h.tobytes()


class TestCut:
    @pytest.mark.parametrize("r", [True, False])
    def test_bool_radius_rejected(self, rng, r):
        d = Dendrogram.from_matrix(random_dissim(rng, 5))
        with pytest.raises(ValidationError, match=f"^radius must be a nonnegative number, got {r}$"):
            d.cut(r)

    def test_empty_dendrogram_cuts_to_no_clusters(self):
        d = Dendrogram.from_matrix(np.zeros((0, 0)))
        assignment = d.cut(1.0)
        assert assignment.dtype == np.intp and assignment.shape == (0,)
