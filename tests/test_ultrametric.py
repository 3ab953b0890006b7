import numpy as np
import pytest

from ultraclust import (
    NotUltrametricError,
    ValidationError,
    clusterability,
    example1_matrix,
    is_ultrametric,
    matrix_leq,
    minimax_oracle,
    stabilize,
    subdominant,
    sup_ultrametrics,
    ultrametricity,
)
from ultraclust import ultrametric
from conftest import random_dissim

A3 = np.array([[0, 1, 3], [1, 0, 2], [3, 2, 0]], dtype=float)
A3_STAR = np.array([[0, 1, 2], [1, 0, 2], [2, 2, 0]], dtype=float)


def triples_ok(a):
    """Brute force: a[i, j] <= max(a[i, k], a[k, j]) for every i, j and k."""
    return all(bool(np.all(a <= np.maximum(a[:, [k]], a[[k], :]))) for k in range(len(a)))


class TestIsUltrametric:
    def test_example1(self):
        assert is_ultrametric(example1_matrix())

    def test_violating_triple(self):
        assert not is_ultrametric(A3)

    def test_small_orders_always_ultrametric(self, rng):
        assert is_ultrametric(np.array([[0.0]]))
        for _ in range(5):
            assert is_ultrametric(random_dissim(rng, 2))

    def test_matches_triple_check(self, rng):
        for _ in range(20):
            a = random_dissim(rng, int(rng.integers(2, 7)), integer=True)
            assert is_ultrametric(a) == triples_ok(a)
        for _ in range(20):
            a = random_dissim(rng, int(rng.integers(2, 12)), with_inf=True)
            for b in (a, subdominant(a)):
                assert is_ultrametric(b) == triples_ok(b)

    @pytest.mark.parametrize("n", [255, 256])
    def test_one_product_on_codes(self, n, monkeypatch):
        # u[i, j] = max(i, j) is an ultrametric with the n values 0..n-1;
        # 255 values take codes in uint8, 256 need uint16
        u = np.maximum.outer(np.arange(n), np.arange(n)).astype(float)
        np.fill_diagonal(u, 0.0)
        broken = u.copy()
        broken[0, 1] = broken[1, 0] = 1000.0  # above max(u[0, 2], u[2, 1]) = 2
        dtypes = []

        def recorded(x, y, _orig=ultrametric.minmax_product):
            dtypes.append((x.dtype, y.dtype))
            return _orig(x, y)

        monkeypatch.setattr(ultrametric, "minmax_product", recorded)
        for a, expected in ((u, True), (broken, False)):
            assert is_ultrametric(a) is expected
            assert triples_ok(a) is expected
        code = np.dtype(np.uint8 if n == 255 else np.uint16)
        assert dtypes == [(code, code)] * 2


class TestSubdominant:
    def test_of_ultrametric_is_itself(self):
        ex = example1_matrix()
        assert np.array_equal(subdominant(ex), ex)

    def test_three_point(self):
        assert np.array_equal(subdominant(A3), A3_STAR)

    def test_collinear_points(self):
        coords = np.array([[0.0], [1.0], [2.0], [3.0]])
        a = np.abs(coords - coords.T)
        star = subdominant(a)
        expected = np.full((4, 4), 1.0)
        np.fill_diagonal(expected, 0.0)
        assert np.array_equal(star, expected)

    def test_dominated_and_idempotent(self, rng):
        for _ in range(15):
            a = random_dissim(rng, int(rng.integers(2, 12)))
            star = subdominant(a)
            assert matrix_leq(star, a)
            assert is_ultrametric(star)
            assert np.array_equal(subdominant(star), star)


class TestMinimaxOracle:
    def test_complete_graph(self):
        assert np.array_equal(minimax_oracle(A3), A3_STAR)

    def test_single_vertex(self):
        assert np.array_equal(minimax_oracle(np.array([[0.0]])), np.array([[0.0]]))

    def test_disconnected_components(self):
        w = np.array([[0, 2, np.inf], [2, 0, np.inf], [np.inf, np.inf, 0]])
        out = minimax_oracle(w)
        assert np.isinf(out[0, 2]) and np.isinf(out[1, 2])
        assert out[0, 1] == 2

    def test_negative_weights(self):
        # a graph, not a dissimilarity: the edge 0-1 is its own minimax path
        w = np.array([[0, -1, 5], [-1, 0, 2], [5, 2, 0]], float)
        assert np.array_equal(minimax_oracle(w), [[0, -1, 2], [-1, 0, 2], [2, 2, 0]])

    def test_asymmetric_rejected(self):
        with pytest.raises(ValidationError, match=r"^weight matrix must be symmetric$"):
            minimax_oracle(np.array([[0, 1], [2, 0]], float))

    def test_nan_rejected_before_symmetry(self):
        w = np.array([[0, 1, 2], [1, 0, np.nan], [2, np.nan, 0]])
        message = r"^weight matrix must not contain NaN, got one at \(1, 2\)$"
        with pytest.raises(ValidationError, match=message):
            minimax_oracle(w)
        w[2, 1] = 4.0
        with pytest.raises(ValidationError, match=message):
            minimax_oracle(w)

    def test_agrees_with_subdominant(self, rng):
        # the semiring fixpoint is the independent reference
        for _ in range(40):
            n = int(rng.integers(2, 32))
            a = random_dissim(rng, n, integer=bool(rng.integers(2)),
                              with_inf=bool(rng.integers(2)))
            star = stabilize(a).star
            assert np.array_equal(subdominant(a), star)
            assert np.array_equal(minimax_oracle(a), star)

    def test_agrees_with_single_linkage_cophenet(self, rng):
        hierarchy = pytest.importorskip("scipy.cluster.hierarchy")
        distance = pytest.importorskip("scipy.spatial.distance")
        for _ in range(60):
            n = int(rng.integers(2, 40))
            a = random_dissim(rng, n, integer=bool(rng.integers(2)))
            linkage = hierarchy.linkage(distance.squareform(a), method="single")
            cophenetic = distance.squareform(hierarchy.cophenet(linkage))
            assert np.array_equal(minimax_oracle(a), cophenetic)


class TestSupUltrametrics:
    def test_singleton(self):
        ex = example1_matrix()
        assert np.array_equal(sup_ultrametrics([ex]), ex)

    def test_zero_matrix_is_neutral(self):
        ex = example1_matrix()
        zero = np.zeros_like(ex)
        assert np.array_equal(sup_ultrametrics([ex, zero]), ex)

    def test_sup_of_subdominants_is_ultrametric(self, rng):
        for _ in range(10):
            n = int(rng.integers(2, 10))
            fam = [subdominant(random_dissim(rng, n)) for _ in range(int(rng.integers(2, 5)))]
            assert is_ultrametric(sup_ultrametrics(fam))

    def test_non_ultrametric_member_rejected(self):
        # raised by an explicit check, so it holds under python -O too
        with pytest.raises(NotUltrametricError):
            sup_ultrametrics([A3])

    def test_empty_family_rejected(self):
        with pytest.raises(ValidationError):
            sup_ultrametrics([])

    def test_mixed_orders_rejected(self):
        with pytest.raises(ValidationError):
            sup_ultrametrics([np.zeros((2, 2)), np.zeros((3, 3))])


class TestIndices:
    def test_example1(self):
        assert ultrametricity(example1_matrix()) == 8.0

    def test_three_point(self):
        assert ultrametricity(A3) == 1.5

    def test_clusterability_same_ratio(self, rng):
        a = random_dissim(rng, 9)
        assert clusterability(a) == ultrametricity(a)

    @pytest.mark.parametrize(
        "n,m,expected",
        [(150, 14, 10.7), (47, 6, 7.8), (272, 31, 8.7), (36, 9, 4.0)],
    )
    def test_reported_quotients(self, n, m, expected):
        assert abs(n / m - expected) < 0.1

    def test_ultrametric_iff_m_is_one(self, rng):
        for _ in range(10):
            a = random_dissim(rng, int(rng.integers(2, 10)), integer=True)
            n = a.shape[0]
            res = stabilize(a)
            assert is_ultrametric(a) == (res.m == 1) == (ultrametricity(a) == n)


def test_isosceles_property(rng):
    for _ in range(10):
        u = subdominant(random_dissim(rng, int(rng.integers(3, 10))))
        n = u.shape[0]
        for i in range(n):
            for j in range(i + 1, n):
                for k in range(j + 1, n):
                    sides = sorted([u[i, j], u[j, k], u[i, k]])
                    assert sides[1] == sides[2]


def test_maximality_under_reduction(rng):
    # any ultrametric dominated by a reduced matrix stays below the subdominant
    for _ in range(15):
        n = int(rng.integers(3, 12))
        a = random_dissim(rng, n)
        shrink = np.triu(rng.uniform(0.3, 1.0, (n, n)), 1)
        shrink = shrink + shrink.T
        reduced = a * shrink
        np.fill_diagonal(reduced, 0.0)
        assert matrix_leq(subdominant(reduced), subdominant(a))
