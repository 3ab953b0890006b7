import io
import math

import numpy as np
import pytest

from ultraclust import (
    Dendrogram,
    LatticeConfig,
    ValidationError,
    distance_histogram,
    example1_matrix,
    identity,
    lattice_generate,
    matrix_leq,
    minmax_product,
    pairwise_matrix,
    power,
    power_chain,
    save_matrix_csv,
    save_points_csv,
    stabilize,
    subdominant,
    sup_ultrametrics,
    validate_dissimilarity,
)
from ultraclust import errors, semiring
from conftest import path_dissim, peak_bytes, random_dissim, tree_dissim

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

    def test_few_level_codes_stay_in_bounded_memory(self, rng):
        # n=2000 codes 0..2 take the 0/1 path; whole float32 copies of both
        # operands would add 30 MiB to the 3.8 MiB result
        c = rng.integers(0, 3, (2000, 2000)).astype(np.uint8)
        out, peak = peak_bytes(minmax_product, c, c)
        assert peak < out.nbytes + 6 * 2**20
        assert np.array_equal(out[:3, :4], brute_product(c[:3], c[:, :4]))

    def test_sparse_codes_stay_in_bounded_memory(self, rng, monkeypatch):
        # n=2000 codes with at most 19 entries a row below the top code take
        # the row-sparse path; one gather of all rows at their widest would
        # take 145 MiB
        n, top = 2000, 1000
        c = np.full((n, n), top, np.uint16)
        i, j = rng.integers(0, n, (2, 4 * n))
        c[i, j] = c[j, i] = rng.integers(0, top, 4 * n)
        taken = []
        kernel = semiring._sparse_product
        monkeypatch.setattr(semiring, "_sparse_product", lambda *args: taken.append(1) or kernel(*args))
        for b in (c, c[::-1].copy()):  # a squaring and a general product
            out, peak = peak_bytes(minmax_product, c, b)
            assert peak < out.nbytes + 2 * 2**20
            assert np.array_equal(out[:3, :4], brute_product(c[:3], b[:, :4]))
        assert taken == [1, 1]

    def test_entry_products_stay_in_bounded_memory(self, rng):
        # about 22,000 entries among 1,500 live rows of n=2000 codes, where
        # A*'s codes are lowered to 0: the entry kernel holds one block of
        # rows of its target mask, then one block's (rows, w, n) gather of
        # about 1 MiB at a time, and no (live, live) array
        n, r = 2000, 1500
        p = np.triu(rng.integers(1, 1000, (n, n)), 1).astype(np.uint16)
        p += p.T
        live = np.sort(rng.choice(n, r, replace=False))

        def lowered(upper):
            star = p.copy()
            i, j = live[np.argwhere(upper)].T
            star[i, j] = star[j, i] = 0
            return star

        upper = np.triu(rng.random((r, r)) < 0.02, 1)
        out = p.copy()
        (still, entries), peak = peak_bytes(semiring._entry_product, p, p, lowered(upper), live, out)
        assert peak < 2 * 2**20
        # no entry of p·p off the diagonal is 0, so every computed entry still differs
        assert entries == np.count_nonzero(upper)
        assert np.array_equal(still, live[(upper | upper.T).any(axis=1)])
        i, j = live[np.argwhere(upper)[::50]].T
        want = np.maximum(p[i], p[j]).min(axis=1)
        assert np.array_equal(out[i, j], want) and np.array_equal(out[j, i], want)
        computed = np.zeros((n, n), bool)
        computed[np.ix_(live, live)] = upper | upper.T
        assert np.array_equal(out[~computed], p[~computed])
        # three entries a row: a block's (rows, n) copy of p's rows weighs
        # as much as a third of its (rows, 3, n) gather, and counts in its budget
        narrow = np.zeros((r, r), bool)
        for offset in (1, 17, 301):
            narrow[np.arange(r - offset), np.arange(offset, r)] = True
        (still, entries), peak = peak_bytes(semiring._entry_product, p, p, lowered(narrow), live, p.copy())
        assert entries == np.count_nonzero(narrow) and np.array_equal(still, live)
        assert peak < 1.25 * semiring._BLOCK_BYTES

    def test_steps_stay_in_bounded_memory(self, rng):
        # two steps q <- A·q over 1,500 live rows of n=2000 codes with about 5
        # entries a row below top: beside q, the steps hold the live rows of
        # the product and of A* in two buffers, one (live, n) mask and the
        # row-sparse kernel's gather blocks, never a gather of every live row.
        # Then one live row is below top throughout: its block is that row
        # alone, and the narrow rows' blocks are not padded to its width
        n, top, r = 2000, 1000, 1500
        c = np.full((n, n), top, np.uint16)
        i, j = rng.integers(0, n, (2, 4 * n))
        c[i, j] = c[j, i] = rng.integers(1, top, 4 * n)
        np.fill_diagonal(c, 0)
        live = np.sort(rng.choice(n, r, replace=False))
        wide = c.copy()
        wide[live[r // 2]] = wide[:, live[r // 2]] = rng.integers(1, top, n)
        wide[live[r // 2], live[r // 2]] = 0
        for a in (c, wide):
            entries, vals = semiring._pack_below(a, a.dtype.type(top), live)
            (q, qlive, count, steps), peak = peak_bytes(semiring._steps, entries, vals, a, np.zeros_like(a), live, 2)
            rows = r * n * a.itemsize
            assert peak < q.nbytes + 3 * rows + r * n + semiring._BLOCK_BYTES
            assert steps == 2 and np.array_equal(np.sort(qlive), live)
            # no entry off the diagonal is A*'s 0: each live row differs in n - 1
            assert count == r * (n - 1) // 2
            # rows outside live are taken as settled, and stay
            once = a.copy()
            once[live] = minmax_product(a[live], a)
            want = once.copy()
            want[live] = minmax_product(a[live], once)
            assert np.array_equal(q, want)

    def test_products_beyond_memory_rejected_up_front(self, monkeypatch):
        # a 4 MiB machine is simulated: the 7.6 MiB results are refused before
        # they are allocated, and uint8 codes count one byte an entry
        monkeypatch.setattr(errors, "_physical_memory", lambda: 4 * 2**20)
        with pytest.raises(ValidationError, match=r"^identity order 1000 needs a 7\.6 MiB matrix, more than the 4\.0 MiB"):
            identity(1000)
        with pytest.raises(ValidationError, match=r"^a 1000 x 1000 product needs 7\.6 MiB, more than the 4\.0 MiB"):
            minmax_product(np.ones((1000, 1)), np.ones((1, 1000)))
        assert minmax_product(np.ones((1000, 1), np.uint8), np.ones((1, 1000), np.uint8)).shape == (1000, 1000)
        assert identity(2).shape == (2, 2)

    def test_one_dimensional_operand_rejected(self):
        with pytest.raises(ValidationError, match=r"^operands must be 2-dimensional$"):
            minmax_product(np.zeros(3), np.zeros((3, 3)))

    def test_dimension_mismatch(self):
        with pytest.raises(ValidationError):
            minmax_product(np.zeros((2, 3)), np.zeros((2, 3)))

    @pytest.mark.parametrize("dtype", [float, np.uint8])
    @pytest.mark.parametrize("shapes", [((3, 0), (0, 4)), ((3, 0), (0, 3)), ((3, 0), (0, 0))])
    def test_empty_inner_dimension_rejected(self, shapes, dtype):
        # no k to take the min over, so no entry of a or b to give
        with pytest.raises(ValidationError, match=r"^empty inner dimension: "):
            minmax_product(np.zeros(shapes[0], dtype), np.zeros(shapes[1], dtype))

    @pytest.mark.parametrize("dtype", [float, np.uint8])
    @pytest.mark.parametrize("shapes", [((0, 3), (3, 2)), ((2, 3), (3, 0)), ((0, 0), (0, 4))])
    def test_empty_result(self, shapes, dtype):
        c = minmax_product(np.zeros(shapes[0], dtype), np.zeros(shapes[1], dtype))
        assert c.shape == (shapes[0][0], shapes[1][1]) and c.dtype == dtype

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

    @pytest.mark.parametrize("n", [2.5, 2.0, "2", True, np.bool_(True)])
    def test_non_integer_order_rejected(self, n):
        with pytest.raises(ValidationError, match=r"^identity order must be an integer, got "):
            identity(n)

    def test_numpy_integer_order(self):
        assert np.array_equal(identity(np.int64(2)), identity(2))


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

    def test_non_square_rejected(self):
        with pytest.raises(ValidationError, match=r"^power requires a square matrix, got \(2, 3\)$"):
            power(np.zeros((2, 3)), 2)

    def test_negative_rejected(self):
        with pytest.raises(ValidationError):
            power(A3, -1)

    @pytest.mark.parametrize("k", [2.5, 2.0, "2", True, np.bool_(True)])
    def test_non_integer_exponent_rejected(self, k):
        with pytest.raises(ValidationError, match=r"^power exponent must be an integer, got "):
            power(A3, k)

    def test_numpy_integer_exponent(self):
        assert np.array_equal(power(A3, np.int64(2)), A3_SQ)

    @pytest.mark.parametrize("k", [0, 1, 2])
    def test_nan_rejected(self, k):
        a = np.array([[0, np.nan, 1], [np.nan, 0, 2], [1, 2, 0]])
        with pytest.raises(ValidationError, match=r"NaN, got one at \(0, 1\)"):
            power(a, k)

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

    def test_doubling_computes_only_the_entries_above_the_fixpoint(self, rng, monkeypatch):
        # a many-level input (200 levels): late products compute single
        # entries, and every power's live rows and count of differing entries
        # are those of its comparison with A*, whichever kernel made it
        targets, seen = [], []

        def check(p, star, live, entries):
            differ = p != star
            assert np.array_equal(np.sort(live), np.flatnonzero(differ.any(axis=1)))
            assert entries == np.count_nonzero(np.triu(differ, 1))
            seen.append(entries)

        def entry_product(p, b, star, live, out, _orig=semiring._entry_product):
            targets.append(np.count_nonzero(np.triu(p != star, 1)))
            return _orig(p, b, star, live, out)

        def settle(p, b, star, live, entries, few, _orig=semiring._settle):
            check(p, star, live, entries)
            q, qlive, qentries = _orig(p, b, star, live, entries, few)
            check(q, star, qlive, qentries)
            return q, qlive, qentries

        def steps(packed, vals, p, star, live, k, _orig=semiring._steps):
            q, qlive, qentries, made = _orig(packed, vals, p, star, live, k)
            check(q, star, qlive, qentries)
            return q, qlive, qentries, made

        monkeypatch.setattr(semiring, "_entry_product", entry_product)
        monkeypatch.setattr(semiring, "_settle", settle)
        monkeypatch.setattr(semiring, "_steps", steps)
        a = random_dissim(rng, 200)
        dbl, lin = stabilize(a), stabilize(a, "linear")
        assert targets and all(e > 0 for e in targets)
        assert seen and 0 in seen  # the stop rule's power is A*
        assert dbl.m == lin.m and dbl.star.tobytes() == lin.star.tobytes()

    @pytest.mark.parametrize("kernel", ["block", "entries"])
    def test_settle_takes_live_rows_in_any_order(self, rng, kernel, monkeypatch):
        # steps leave their live rows widest first, not increasing: a product
        # over them in any order, all rows or some, keeps every row in place
        if kernel == "entries":
            monkeypatch.setattr(semiring, "_SPARSE_COST", 0)
        a = random_dissim(rng, 40)
        d = Dendrogram.from_matrix(a)
        levels = d.levels()
        codes = semiring._search_codes(a, levels)[0]
        star = Dendrogram(d.order, np.searchsorted(levels, d.h).astype(codes.dtype)).fill()
        orders = set()
        p = codes
        while not np.array_equal(p, star):
            differ = p != star
            live = rng.permutation(np.flatnonzero(differ.any(axis=1)))
            orders.add(live.size == a.shape[0])
            want = brute_product(p, p)
            q, qlive, entries = semiring._settle(p, p, star, live, np.count_nonzero(np.triu(differ, 1)), kernel == "block")
            assert np.array_equal(q, want)
            assert np.array_equal(np.sort(qlive), np.flatnonzero((want != star).any(axis=1)))
            assert entries == np.count_nonzero(np.triu(want != star, 1))
            p = q
        assert orders == {True, False}  # all rows, then some

    def test_few_level_codes_never_step(self, monkeypatch):
        # whatever a step costs, few-level codes search by bits or square
        monkeypatch.setattr(semiring, "_STEP_PASSES", -math.inf)
        monkeypatch.setattr(semiring, "_steps", lambda *args: pytest.fail("a few-level search stepped"))
        for a in (path_dissim(33), pairwise_matrix(np.indices((4, 6)).reshape(2, -1).T)):
            res = stabilize(a)
            assert res.m == stabilize(a, "linear").m

    def test_lattice_finds_m_without_products(self, monkeypatch):
        # the CLI's 4x4 lattice of 6x6 clusters: the bit-parallel search
        # settles every level, so no 0/1 product and no other product is made
        def refused(*args):
            pytest.fail("the search made a product")

        monkeypatch.setattr(semiring, "_threshold_product", refused)
        monkeypatch.setattr(semiring, "minmax_product", refused)
        a = pairwise_matrix(lattice_generate(LatticeConfig(4, 4, 6, 6)))
        res = stabilize(a)
        assert res.m == 16 and res.star.tobytes() == subdominant(a).tobytes()

    @pytest.mark.parametrize("cost", [math.inf, 600, 300])
    def test_search_hands_over_with_the_same_bytes(self, cost, monkeypatch):
        # n=144 lattice: the search settles level 1 in 9 steps and level 2 in
        # 6; at these costs it hands over before its first step, in level 1
        # and in level 2, and the doubling search gives the same m and bytes
        a = pairwise_matrix(lattice_generate(LatticeConfig(2, 2, 6, 6)))
        calls, kernel = [], semiring._or_rows
        monkeypatch.setattr(semiring, "_or_rows", lambda *args: calls.append(1) or kernel(*args))
        monkeypatch.setattr(semiring, "_BIT_COST", 0)
        found = stabilize(a)
        assert len(calls) == 15 and found.m == 10
        calls.clear()
        monkeypatch.setattr(semiring, "_BIT_COST", cost)
        res = stabilize(a)
        assert len(calls) == {math.inf: 0, 600: 6, 300: 11}[cost]
        assert res.m == found.m and res.star.tobytes() == found.star.tobytes() == subdominant(a).tobytes()

    def test_search_stays_in_bounded_memory(self, monkeypatch):
        # n=1600 lattice, run to its end: one n^2 mask of G_c at a time, the
        # packed rows of G_c and of A* (n^2/8 bytes each) and blocks of about
        # _BLOCK_BYTES; an (n, n) index array would take 8 n^2 bytes
        a = pairwise_matrix(lattice_generate(LatticeConfig(5, 5, 8, 8)))
        d = Dendrogram.from_matrix(a)
        levels = d.levels()
        codes = semiring._search_codes(a, levels)[0]
        star = Dendrogram(d.order, np.searchsorted(levels, d.h).astype(codes.dtype)).fill()
        monkeypatch.setattr(semiring, "_BIT_COST", 0)
        m, peak = peak_bytes(semiring._reach_search, codes, star, a.shape[0])
        assert m == 26 == stabilize(a).m
        assert peak < 1.5 * a.size + 2 * semiring._BLOCK_BYTES

    def test_a_stuck_product_raises_instead_of_looping(self, monkeypatch):
        # a product that never reaches A* must not keep the search doubling:
        # m <= n - 1 bounds the doublings, and each level of the bit search
        values = iter(range(10, 10**6))
        made = []

        def stuck(x, y):
            made.append(1)
            if len(made) > 100:
                pytest.fail("the doubling search did not stop")
            return np.full((x.shape[0], y.shape[1]), next(values) % 200 + 10, dtype=x.dtype)

        monkeypatch.setattr(semiring, "_BIT_COST", math.inf)
        monkeypatch.setattr(semiring, "minmax_product", stuck)
        with pytest.raises(RuntimeError, match=r"m <= n - 1 = 32"):
            stabilize(path_dissim(33))
        assert len(made) == 7  # ceil(log2 33) + 1 doublings
        monkeypatch.setattr(semiring, "_BIT_COST", 0)
        monkeypatch.setattr(semiring, "_or_rows", lambda reach, entries, rows: np.zeros((rows.size, reach.shape[1]), reach.dtype))
        with pytest.raises(RuntimeError, match=r"level 1 .* m <= n - 1 = 99"):
            stabilize(path_dissim(100))

    def test_search_holds_no_power_past_a_star(self):
        # uniform n=600 (dense-random's matrix): the search drops A*'s power and
        # its square before the lifting, and A's codes go before A* is decoded;
        # the peak read 2.97 n^2 float64 while they lived.  Gaussian points and
        # a tree of distinct weights (n=600) read 2.85 and 2.65 n^2 while the
        # search carried a (live, live) mask of its differing entries
        gauss = pairwise_matrix(np.random.default_rng(4).normal(size=(600, 2)), metric="euclidean")
        for a, m, bound in (
            (random_dissim(np.random.default_rng(0), 600), 45, 2.85),
            (gauss, 50, 2.7),
            (tree_dissim(600, 0, False), 26, 2.55),
        ):
            stabilize(a)  # once first, so one-time allocations are not counted
            res, peak = peak_bytes(stabilize, a)
            assert res.m == m
            assert peak < bound * a.nbytes

    def test_many_level_uniform_input_steps(self, rng, monkeypatch):
        # uniform n=300: A holds about 9 entries a row below top, A^2 about 60,
        # so k steps by A cost less than the squaring of A^k for k = 2 and 4
        made = []

        def recorded(entries, vals, p, star, live, k, _orig=semiring._steps):
            out = _orig(entries, vals, p, star, live, k)
            made.append((k, out[3]))
            return out

        monkeypatch.setattr(semiring, "_steps", recorded)
        a = random_dissim(rng, 300)
        dbl, lin = stabilize(a), stabilize(a, "linear")
        assert made and all(steps == k for k, steps in made[:-1])
        assert dbl.m == lin.m and dbl.star.tobytes() == lin.star.tobytes()

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


@pytest.mark.parametrize("f", [validate_dissimilarity, stabilize, subdominant])
def test_symmetric_nan_pair_is_not_positive(f):
    a = np.array([[0, np.nan, 1], [np.nan, 0, 2], [1, 2, 0]])
    with pytest.raises(ValidationError, match=r"^off-diagonal entry at \(0, 1\) must be positive, got nan$"):
        f(a)
    a[1, 0] = 3.0
    with pytest.raises(ValidationError, match=r"^asymmetric entries at \(0, 1\): nan vs 3.0$"):
        f(a)


@pytest.mark.parametrize("a,message", [
    (np.zeros((2, 3)), r"^expected a square matrix, got shape \(2, 3\)$"),
    (np.zeros(4), r"^expected a square matrix, got shape \(4,\)$"),
    (np.zeros((0, 0)), r"^matrix order must be at least 1$"),
])
def test_validate_rejects_a_matrix_of_no_order(a, message):
    with pytest.raises(ValidationError, match=message):
        validate_dissimilarity(a)


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


# every entry that converts a caller's matrix, and inputs numpy cannot hold as real numbers:
# complex entries (cast to their real parts with only a warning), a complex list, strings
# that spell no number, ragged rows and an integer beyond float64
NON_REAL_ENTRIES = {
    "validate_dissimilarity": validate_dissimilarity,
    "Dendrogram.from_matrix": Dendrogram.from_matrix,
    "stabilize-doubling": stabilize,
    "stabilize-linear": lambda x: stabilize(x, "linear"),
    "subdominant": subdominant,
    "distance_histogram": distance_histogram,
    "minmax_product": lambda x: minmax_product(x, x),
    "minmax_product-right": lambda x: minmax_product(np.eye(2, dtype=np.uint8), x),
    "power": lambda x: power(x, 2),
    "matrix_leq": lambda x: matrix_leq(x, x),
    "matrix_leq-right": lambda x: matrix_leq(np.zeros((2, 2)), x),
    "sup_ultrametrics": lambda x: sup_ultrametrics([x]),
    "pairwise_matrix": pairwise_matrix,
    "save_matrix_csv": lambda x: save_matrix_csv(x, io.StringIO()),
    "save_points_csv": lambda x: save_points_csv(x, io.StringIO()),
}
NON_REAL_INPUTS = {
    "complex-array": np.array([[0, 1 + 5j], [1 + 5j, 0]]),
    "complex-real-valued": np.array([[0, 1], [1, 0]], dtype=complex),
    "complex-list": [[0, 1 + 5j], [1 + 5j, 0]],
    "strings": [["0", "x"], ["x", "0"]],
    "ragged": [[0, 1], [1]],
    "huge-integer": [[0, 10**400], [10**400, 0]],
}


@pytest.mark.parametrize("bad", sorted(NON_REAL_INPUTS))
@pytest.mark.parametrize("entry", sorted(NON_REAL_ENTRIES))
def test_non_real_matrices_fail_loudly(entry, bad):
    with pytest.raises(ValidationError, match="real numbers"):
        NON_REAL_ENTRIES[entry](NON_REAL_INPUTS[bad])


def test_numeric_spellings_are_still_read():
    want = np.array([[0.0, 2.0**70], [2.0**70, 0.0]])
    for spelling in ([[0, 2**70], [2**70, 0]], [["0", "1.1805916207174113e21"], ["1.1805916207174113e21", "0"]]):
        got = validate_dissimilarity(spelling)
        assert got.dtype == np.float64 and got.tobytes() == want.tobytes()
