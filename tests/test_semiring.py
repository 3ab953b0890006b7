import math

import numpy as np
import pytest

from ultraclust import (
    ValidationError,
    example1_matrix,
    identity,
    matrix_leq,
    minmax_product,
    power,
    stabilize,
    subdominant,
    validate_dissimilarity,
)
from ultraclust import semiring
from ultraclust.semiring import power_chain
from conftest import path_dissim, random_dissim

A3 = np.array([[0, 1, 3], [1, 0, 2], [3, 2, 0]], dtype=float)
A3_SQ = np.array([[0, 1, 2], [1, 0, 2], [2, 2, 0]], dtype=float)


def brute_product(a, b):
    n, k, p = a.shape[0], a.shape[1], b.shape[1]
    c = np.empty((n, p))
    for i in range(n):
        for j in range(p):
            c[i, j] = min(max(a[i, t], b[t, j]) for t in range(k))
    return c


class TestProduct:
    def test_square_example(self):
        assert np.array_equal(minmax_product(A3, A3), A3_SQ)
        assert np.array_equal(minmax_product(A3, A3), brute_product(A3, A3))

    def test_two_by_two(self):
        a = np.array([[0, 5], [5, 0]], float)
        b = np.array([[0, 2], [2, 0]], float)
        assert np.array_equal(minmax_product(a, b), b)

    def test_identity_laws(self, rng):
        for n in (1, 2, 5, 9):
            a = random_dissim(rng, n)
            e = identity(n)
            assert np.array_equal(minmax_product(a, e), a)
            assert np.array_equal(minmax_product(e, a), a)

    def test_matches_brute_force_on_random(self, rng):
        for _ in range(20):
            n = int(rng.integers(1, 8))
            a = random_dissim(rng, n, with_inf=True)
            b = random_dissim(rng, n, with_inf=True)
            assert np.array_equal(minmax_product(a, b), brute_product(a, b))

    def test_rectangular(self, rng):
        a = rng.uniform(0, 5, (3, 4))
        b = rng.uniform(0, 5, (4, 2))
        assert np.array_equal(minmax_product(a, b), brute_product(a, b))

    @pytest.mark.parametrize("dtype", [np.uint8, np.uint16, np.uint32])
    def test_unsigned_codes_keep_their_dtype(self, rng, dtype):
        # shapes large enough that both dtypes split the product into several blocks
        a = rng.integers(0, 256, (200, 150)).astype(dtype)
        b = rng.integers(0, 256, (150, 120)).astype(dtype)
        c = minmax_product(a, b)
        assert c.dtype == dtype
        assert np.array_equal(c, minmax_product(a.astype(float), b.astype(float)))
        assert np.array_equal(c[:3, :4], brute_product(a[:3], b[:, :4]))

    def test_other_operands_become_float(self):
        u8 = np.array([[0, 3], [3, 0]], np.uint8)
        for a, b in ((u8, u8.astype(np.uint16)), (u8.astype(np.int64), u8.astype(np.int64)),
                     (u8, u8.astype(float)), (u8.tolist(), u8.tolist())):
            c = minmax_product(a, b)
            assert c.dtype == np.float64 and np.array_equal(c, [[0, 3], [3, 0]])

    def test_dimension_mismatch(self):
        with pytest.raises(ValidationError):
            minmax_product(np.zeros((2, 3)), np.zeros((2, 3)))

    def test_associativity(self, rng):
        for _ in range(10):
            n = int(rng.integers(2, 7))
            a, b, c = (random_dissim(rng, n) for _ in range(3))
            left = minmax_product(minmax_product(a, b), c)
            right = minmax_product(a, minmax_product(b, c))
            assert np.array_equal(left, right)

    def test_value_closure(self, rng):
        for _ in range(10):
            n = int(rng.integers(2, 8))
            a = random_dissim(rng, n, with_inf=True)
            entries = set(a.ravel().tolist())
            for k in (2, 3, 5):
                assert set(power(a, k).ravel().tolist()) <= entries


class TestIdentity:
    def test_values(self):
        assert np.array_equal(identity(1), np.array([[0.0]]))
        e2 = identity(2)
        assert e2[0, 0] == 0 and e2[1, 1] == 0
        assert np.isinf(e2[0, 1]) and np.isinf(e2[1, 0])

    def test_zero_order_rejected(self):
        with pytest.raises(ValidationError):
            identity(0)


class TestOrder:
    def test_leq_identity(self, rng):
        a = random_dissim(rng, 6, with_inf=True)
        assert matrix_leq(a, identity(6))
        assert matrix_leq(a, a)

    def test_square_below_original(self, rng):
        for _ in range(10):
            a = random_dissim(rng, int(rng.integers(2, 10)))
            assert matrix_leq(minmax_product(a, a), a)

    def test_order_compatible_with_product(self, rng):
        for _ in range(10):
            n = int(rng.integers(2, 7))
            a = random_dissim(rng, n)
            b = a + np.where(np.eye(n, dtype=bool), 0.0, rng.uniform(0, 1, (n, n)))
            b = np.maximum(b, b.T)
            c = random_dissim(rng, n)
            assert matrix_leq(a, b)
            assert matrix_leq(minmax_product(a, c), minmax_product(b, c))
            assert matrix_leq(minmax_product(c, a), minmax_product(c, b))

    def test_shape_mismatch(self):
        with pytest.raises(ValidationError):
            matrix_leq(np.zeros((2, 2)), np.zeros((3, 3)))


class TestPower:
    def test_first_power(self):
        assert np.array_equal(power(A3, 1), A3)

    def test_square(self):
        assert np.array_equal(power(A3, 2), A3_SQ)

    def test_ultrametric_fixed(self):
        ex = example1_matrix()
        assert np.array_equal(power(ex, 5), ex)

    def test_zeroth_power_is_identity(self):
        assert np.array_equal(power(A3, 0), identity(3))

    def test_negative_rejected(self):
        with pytest.raises(ValidationError):
            power(A3, -1)

    def test_equals_repeated_products(self, rng):
        a = random_dissim(rng, 7, with_inf=True)
        p = a
        for k in range(2, 9):
            p = minmax_product(p, a)
            assert np.array_equal(power(a, k), p)

    def test_symmetry_preserved(self, rng):
        a = random_dissim(rng, 8)
        for k in (2, 3, 7):
            pk = power(a, k)
            assert np.array_equal(pk, pk.T)
            assert np.all(np.diagonal(pk) == 0)


class TestStabilize:
    def test_three_point(self):
        res = stabilize(A3)
        assert res.m == 2
        assert np.array_equal(res.star, A3_SQ)

    def test_ultrametric_is_its_own_fixpoint(self):
        res = stabilize(example1_matrix())
        assert res.m == 1
        assert np.array_equal(res.star, example1_matrix())

    def test_single_point(self):
        res = stabilize(np.array([[0.0]]))
        assert res.m == 1 and res.star.shape == (1, 1)

    def test_strategies_agree(self, rng):
        for _ in range(25):
            n = int(rng.integers(2, 20))
            a = random_dissim(rng, n, integer=bool(rng.integers(2)),
                              with_inf=bool(rng.integers(2)))
            lin = stabilize(a, "linear")
            dbl = stabilize(a, "doubling")
            assert lin.m == dbl.m
            assert np.array_equal(lin.star, dbl.star)

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6, 9, 10, 17, 18, 33])
    def test_doubling_makes_two_products_per_bit_of_m(self, n, monkeypatch):
        a = path_dissim(n)
        dtypes = []

        def counted(x, y, _orig=semiring.minmax_product):
            dtypes.append((x.dtype, y.dtype))
            return _orig(x, y)

        monkeypatch.setattr(semiring, "minmax_product", counted)
        res = stabilize(a)
        assert res.m == max(1, n - 1)
        assert len(dtypes) == (2 * math.ceil(math.log2(res.m)) if res.m > 1 else 1)
        assert set(dtypes) == {(np.dtype(np.uint8),) * 2}  # levels 0, 1, 2

    def test_doubling_multiplies_only_live_rows(self, monkeypatch):
        # along a path the middle rows settle last: later squarings and the
        # lifting steps multiply rectangular blocks of fewer than n rows
        n = 33
        shapes = []

        def recorded(x, y, _orig=semiring.minmax_product):
            shapes.append((x.shape, y.shape))
            return _orig(x, y)

        monkeypatch.setattr(semiring, "minmax_product", recorded)
        res = stabilize(path_dissim(n))
        calls = 2 * math.ceil(math.log2(res.m))
        assert res.m == n - 1 and len(shapes) == calls
        assert shapes[0] == ((n, n), (n, n))
        assert any(x[0] < n for x, _ in shapes)
        assert all(x[1] == y[0] == n and x[0] == y[1] for x, y in shapes)
        assert sum(x[0] * x[1] * y[1] for x, y in shapes) < calls * n**3

    def test_m_bound(self, rng):
        for _ in range(25):
            n = int(rng.integers(2, 24))
            res = stabilize(random_dissim(rng, n))
            assert 1 <= res.m <= n - 1
            assert res.ultrametricity == n / res.m

    def test_monotone_descent(self, rng):
        a = random_dissim(rng, 12)
        prev = a
        for k in range(2, 8):
            cur = power(a, k)
            assert matrix_leq(cur, prev)
            prev = cur

    def test_power_chain_yields_each_distinct_power(self, rng):
        for _ in range(15):
            a = random_dissim(rng, int(rng.integers(1, 16)), integer=bool(rng.integers(2)))
            chain = list(power_chain(a))
            assert len(chain) == stabilize(a).m
            for k, p in enumerate(chain, 1):
                assert np.array_equal(p, power(a, k))

    def test_power_trace_counts(self):
        res = stabilize(A3, "linear")
        assert res.power_trace == [2]  # the symmetric pair (0,2)/(2,0) dropped to 2

    def test_infinity_preserved_between_components(self):
        a = np.array([[0, 2, np.inf], [2, 0, np.inf], [np.inf, np.inf, 0]])
        res = stabilize(a)
        assert np.isinf(res.star[0, 2]) and np.isinf(res.star[2, 1])

    def test_invalid_inputs_rejected(self):
        with pytest.raises(ValidationError):
            stabilize(np.array([[0, 1], [2, 0]], float))  # asymmetric
        with pytest.raises(ValidationError):
            stabilize(np.array([[1, 2], [2, 0]], float))  # nonzero diagonal
        with pytest.raises(ValidationError):
            stabilize(np.array([[0, 0], [0, 0]], float))  # zero off-diagonal
        with pytest.raises(ValidationError):
            stabilize(A3, strategy="quadratic")


def test_validate_returns_float_array():
    out = validate_dissimilarity([[0, 1], [1, 0]])
    assert out.dtype == np.float64


def test_validate_returns_positive_zero_diagonal():
    a = np.array([[-0.0, 1.0, 3.0], [1.0, -0.0, 2.0], [3.0, 2.0, -0.0]])
    before = a.tobytes()
    out = validate_dissimilarity(a)
    assert not np.any(np.signbit(out)) and a.tobytes() == before
    stars = [stabilize(a, "linear").star, stabilize(a).star, subdominant(a)]
    assert stars[0].tobytes() == stars[1].tobytes() == stars[2].tobytes()
