import re
import sys

import numpy as np
import pytest

from ultraclust import semiring
from ultraclust import (
    Clustering,
    NotUltrametricError,
    ValidationError,
    closed_sphere,
    distance_histogram,
    estimate_num_clusters,
    example1_matrix,
    is_perfect_clustering,
    is_ultrametric,
    radii_from_valleys,
    spheric_clustering,
    subdominant,
)
from conftest import random_dissim

EX1 = example1_matrix()


class TestClosedSphere:
    def test_example1_regimes_first_block(self):
        assert closed_sphere(EX1, 0, 4) == {0, 1, 2}
        assert closed_sphere(EX1, 0, 9.9) == {0, 1, 2}
        assert closed_sphere(EX1, 0, 10) == {0, 1, 2, 3, 4}
        assert closed_sphere(EX1, 0, 16) == set(range(8))

    def test_example1_middle_block(self):
        # the table gives d(x4,x5)=6, so the radius-6 sphere at x4 is {x4,x5}
        assert closed_sphere(EX1, 3, 6) == {3, 4}
        assert closed_sphere(EX1, 3, 5.9) == {3}

    def test_radius_zero_is_singleton(self, rng):
        a = random_dissim(rng, 6)
        for i in range(6):
            assert closed_sphere(a, i, 0) == {i}

    def test_bad_center(self):
        with pytest.raises(ValidationError):
            closed_sphere(EX1, 8, 1)

    @pytest.mark.parametrize("center", [True, False, 1.0, np.float64(2.0), np.bool_(True)])
    def test_non_integer_center_rejected(self, center):
        # numpy would read a bool as a mask and a float as a bad index
        with pytest.raises(ValidationError, match="center must be an integer index"):
            closed_sphere(EX1, center, 4)

    def test_numpy_integer_center(self):
        assert closed_sphere(EX1, np.int64(3), 6) == {3, 4}

    def test_nan_radius_rejected(self):
        with pytest.raises(ValidationError, match="nan"):
            closed_sphere(EX1, 0, float("nan"))

    def test_infinite_radius_is_everything(self):
        assert closed_sphere(EX1, 0, float("inf")) == set(range(8))

    @pytest.mark.parametrize("r", ["1", None, 1j, [1.0], True, False])
    def test_non_numeric_radius_rejected(self, r):
        # the value is quoted, so a string does not read like a radius
        with pytest.raises(ValidationError, match=f"^radius must be a nonnegative number, got {re.escape(repr(r))}$"):
            closed_sphere(EX1, 0, r)


class TestSphericClustering:
    def test_example1_radius6(self):
        c = spheric_clustering(EX1, 6)
        assert c.clusters() == [[0, 1, 2], [3, 4], [5, 6, 7]]

    def test_radius_zero_singletons(self):
        c = spheric_clustering(EX1, 0)
        assert c.num_clusters == 8

    def test_radius16_single_cluster(self):
        c = spheric_clustering(EX1, 16)
        assert c.num_clusters == 1

    def test_nan_radius_rejected(self):
        with pytest.raises(ValidationError, match="nan"):
            spheric_clustering(EX1, float("nan"))

    def test_infinite_radius_single_cluster(self):
        assert spheric_clustering(EX1, float("inf")).num_clusters == 1

    @pytest.mark.parametrize("r", ["1", None, 1j, [1.0], True, False])
    def test_non_numeric_radius_rejected(self, r):
        with pytest.raises(ValidationError, match=f"^radius must be a nonnegative number, got {re.escape(repr(r))}$"):
            spheric_clustering(EX1, r)

    @pytest.mark.parametrize("r,text", [(-1, "-1"), (-0.5, "-0.5"), (np.float64("nan"), "nan")])
    def test_invalid_real_radius_is_shown_unquoted(self, r, text):
        with pytest.raises(ValidationError, match=f"^radius must be a nonnegative number, got {text}$"):
            spheric_clustering(EX1, r)

    def test_numpy_radius(self):
        assert spheric_clustering(EX1, np.float32(6)).clusters() == [[0, 1, 2], [3, 4], [5, 6, 7]]

    def test_rejects_non_ultrametric(self):
        a = np.array([[0, 1, 3], [1, 0, 2], [3, 2, 0]], float)
        with pytest.raises(NotUltrametricError):
            spheric_clustering(a, 1)

    def test_makes_no_minmax_product(self, rng, monkeypatch):
        # the check and the cut read one spanning-forest sweep
        calls, product = [], semiring.minmax_product

        def spy(a, b):
            calls.append(a.shape)
            return product(a, b)

        for name, mod in list(sys.modules.items()):
            if name == "ultraclust" or name.startswith("ultraclust."):
                for attr, value in list(vars(mod).items()):
                    if value is product:
                        monkeypatch.setattr(mod, attr, spy)
        u = subdominant(random_dissim(rng, 40, with_inf=True))
        for r in (0.0, *np.unique(u).tolist()):
            spheric_clustering(u, r)
        with pytest.raises(NotUltrametricError):
            spheric_clustering(random_dissim(rng, 40), 1.0)
        assert calls == []
        assert is_ultrametric(u) and len(calls) == 1  # the spy sees the recognition's product

    def test_partition_and_nesting(self, rng):
        for _ in range(10):
            u = subdominant(random_dissim(rng, int(rng.integers(3, 14))))
            vals = np.unique(u[np.triu_indices(u.shape[0], 1)])
            radii = np.sort(np.concatenate([[0.0], vals]))
            prev = None
            for r in radii:
                c = spheric_clustering(u, float(r))
                assert np.all(c.assignment >= 0)
                assert is_perfect_clustering(u, c)
                if prev is not None:
                    # coarser radius: clusters only merge, never split
                    for cluster in prev.clusters():
                        ids = {c.assignment[i] for i in cluster}
                        assert len(ids) == 1
                prev = c

    def test_sphere_dichotomy(self, rng):
        for _ in range(5):
            u = subdominant(random_dissim(rng, 10))
            for r in np.unique(u)[:4]:
                spheres = [frozenset(closed_sphere(u, i, float(r))) for i in range(10)]
                for s in spheres:
                    for t in spheres:
                        assert s == t or not (s & t)


class TestPerfectClustering:
    def test_example1_radius6_clustering(self):
        c = spheric_clustering(EX1, 6)
        assert is_perfect_clustering(EX1, c)

    def test_bad_partition(self):
        assignment = np.array([0, 1, 1, 0, 1, 2, 2, 2])
        c = Clustering(n=8, assignment=assignment)
        assert not is_perfect_clustering(EX1, c)

    def test_singletons_vacuous(self):
        c = Clustering(n=8, assignment=np.arange(8))
        assert is_perfect_clustering(EX1, c)

    def test_malformed_assignment(self):
        with pytest.raises(ValidationError):
            is_perfect_clustering(EX1, Clustering(n=8, assignment=np.array([0, 2] * 4)))
        with pytest.raises(ValidationError):
            is_perfect_clustering(EX1, Clustering(n=8, assignment=np.zeros(3, int)))

    @pytest.mark.parametrize("last", [2.5, np.nan, np.inf])
    def test_non_integer_ids_rejected(self, last):
        # a cast to int would read 2.5 as 2 and call this clustering perfect
        c = Clustering(n=8, assignment=np.array([0, 0, 0, 1, 1, 2, 2, last]))
        with pytest.raises(ValidationError, match="cluster ids must be integers"):
            is_perfect_clustering(EX1, c)

    def test_integral_float_ids_accepted(self):
        c = Clustering(n=8, assignment=np.array([0, 0, 0, 1, 1, 2, 2, 2.0]))
        assert is_perfect_clustering(EX1, c)


class TestDistanceHistogram:
    def test_example1_distinct(self):
        h = distance_histogram(EX1)
        assert h.values.tolist() == [4, 6, 10, 16]
        assert h.counts.tolist() == [6, 1, 6, 15]
        assert h.counts.sum() == 28
        assert h.peaks.tolist() == [0, 1, 2, 3]

    def test_uniform_matrix_one_bar(self):
        a = np.full((5, 5), 3.0)
        np.fill_diagonal(a, 0.0)
        h = distance_histogram(a)
        assert h.values.tolist() == [3.0] and h.counts.tolist() == [10]

    def test_single_point_empty(self):
        h = distance_histogram(np.array([[0.0]]))
        assert h.values.size == 0 and h.counts.size == 0

    def test_binned_conservation(self, rng):
        for _ in range(10):
            n = int(rng.integers(2, 15))
            a = random_dissim(rng, n, with_inf=True)
            h = distance_histogram(a, mode="binned", bins=7)
            assert h.counts.sum() + h.overflow == n * (n - 1) // 2
            hd = distance_histogram(a)
            assert hd.counts.sum() + hd.overflow == n * (n - 1) // 2

    def test_binned_peaks_and_valleys(self):
        # counts 3,1,4 across three bins: peaks at 0 and 2, valley at 1
        vals = [1.0] * 3 + [2.0] * 1 + [3.0] * 4
        n = 5  # ten pairs: pad with a repeated value in the last bin
        a = np.zeros((n, n))
        iu, ju = np.triu_indices(n, 1)
        fill = vals + [3.0] * (iu.size - len(vals))
        a[iu, ju] = fill
        a = a + a.T
        h = distance_histogram(a, mode="binned", bins=3)
        assert h.peaks.tolist() == [0, 2]
        assert h.valleys.tolist() == [1]

    @pytest.mark.parametrize("a", [np.zeros((1, 1)), np.array([[0.0, np.inf], [np.inf, 0.0]])])
    def test_binned_without_finite_pairs_has_no_peaks(self, a):
        h = distance_histogram(a, mode="binned")
        assert h.counts.sum() == 0
        assert h.peaks.size == 0 and h.valleys.size == 0

    @pytest.mark.parametrize("bins", [2.5, 3.0, True, np.bool_(True), "3"])
    def test_non_integer_bins_rejected(self, bins):
        with pytest.raises(ValidationError, match=r"^bins must be an integer, got "):
            distance_histogram(EX1, mode="binned", bins=bins)

    def test_nonpositive_bins_rejected(self):
        with pytest.raises(ValidationError, match=r"^bins must be positive, got 0$"):
            distance_histogram(EX1, mode="binned", bins=0)

    def test_unknown_mode_rejected(self):
        with pytest.raises(ValidationError, match=r"^unknown histogram mode 'log'$"):
            distance_histogram(EX1, mode="log")

    def test_numpy_integer_bins(self):
        assert distance_histogram(EX1, mode="binned", bins=np.int64(3)).counts.size == 3

    def test_bins_rejected_in_distinct_mode(self):
        with pytest.raises(ValidationError):
            distance_histogram(EX1, mode="distinct", bins=4)


class TestEstimateNumClusters:
    @pytest.mark.parametrize("p,k", [(1, 2), (3, 3), (6, 4), (10, 5)])
    def test_known_values(self, p, k):
        assert estimate_num_clusters(p) == k

    def test_zero_peaks_means_one_cluster(self):
        assert estimate_num_clusters(0) == 1

    @pytest.mark.parametrize("p", [2.5, 3.0, "3", True, np.bool_(True)])
    def test_non_integer_count_rejected(self, p):
        with pytest.raises(ValidationError, match=r"^peak count must be an integer, got "):
            estimate_num_clusters(p)

    def test_numpy_integer_count(self):
        assert estimate_num_clusters(np.int64(3)) == 3

    def test_negative_count_rejected(self):
        with pytest.raises(ValidationError, match=r"^peak count must be nonnegative, got -1$"):
            estimate_num_clusters(-1)

    def test_matches_brute_force(self):
        for p in range(1, 10001):
            k = estimate_num_clusters(p)
            assert k * (k - 1) // 2 >= p
            assert (k - 1) * (k - 2) // 2 < p


class TestRadiiFromValleys:
    def test_example1_gap_midpoints(self):
        h = distance_histogram(EX1)
        radii, shortfall = radii_from_valleys(h, 2)
        assert radii == [13.0, 8.0]
        assert not shortfall

    @pytest.mark.parametrize("k", [1.5, 1.0, "1", True, np.bool_(True)])
    def test_non_integer_count_rejected(self, k):
        with pytest.raises(ValidationError, match=r"^k must be an integer, got "):
            radii_from_valleys(distance_histogram(EX1), k)

    def test_nonpositive_count_rejected(self):
        with pytest.raises(ValidationError, match=r"^k must be positive, got 0$"):
            radii_from_valleys(distance_histogram(EX1), 0)

    def test_numpy_integer_count(self):
        assert radii_from_valleys(distance_histogram(EX1), np.int64(2)) == ([13.0, 8.0], False)
        radii, shortfall = radii_from_valleys(distance_histogram(EX1), np.int64(9))
        assert shortfall and type(shortfall) is bool

    def test_one_bar_shortfall(self):
        a = np.full((4, 4), 2.0)
        np.fill_diagonal(a, 0.0)
        radii, shortfall = radii_from_valleys(distance_histogram(a), 1)
        assert radii == [] and shortfall

    def test_top_valley_gives_two_clusters(self):
        h = distance_histogram(EX1)
        radii, _ = radii_from_valleys(h, 1)
        assert radii == [13.0]
        assert spheric_clustering(EX1, radii[0]).num_clusters == 2
