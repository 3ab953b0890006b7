"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -s`` to see the per-criterion
lines as they complete.
"""

import functools
import json
import sys
import time

import numpy as np
import pytest

from ultraclust import (
    Clustering,
    LatticeConfig,
    clusterability,
    distance_histogram,
    estimate_num_clusters,
    example1_matrix,
    is_perfect_clustering,
    is_ultrametric,
    lattice_generate,
    load_matrix_csv,
    matrix_leq,
    minimax_oracle,
    minmax_product,
    pairwise_matrix,
    radii_from_valleys,
    save_matrix_csv,
    spheric_clustering,
    stabilize,
    subdominant,
    sup_ultrametrics,
)
from ultraclust.cli import EXIT_OK, main as cli_main
from conftest import random_dissim


def criterion(label):
    def wrap(fn):
        @functools.wraps(fn)
        def run(*args, **kwargs):
            try:
                fn(*args, **kwargs)
            except BaseException:
                print(f"[acceptance] {label}: FAIL", file=sys.stderr)
                raise
            print(f"[acceptance] {label}: PASS", file=sys.stderr)

        return run

    return wrap


@pytest.fixture(scope="module")
def corpus():
    """Shared random matrices for criteria 2 and 3: n in 2..64, integer and
    float entries, with and without infinities."""
    rng = np.random.default_rng(715)
    mats = []
    for i in range(500):
        n = int(rng.integers(2, 65))
        mats.append(
            random_dissim(rng, n, integer=i % 2 == 0, with_inf=i % 3 == 0)
        )
    return mats


@criterion("1 example-1 golden suite")
def test_criterion_1_example1_golden():
    start = time.perf_counter()
    ex = example1_matrix()
    assert is_ultrametric(ex)
    res = stabilize(ex)
    assert res.m == 1
    assert clusterability(ex) == 8.0
    c = spheric_clustering(ex, 6)
    assert c.clusters() == [[0, 1, 2], [3, 4], [5, 6, 7]]

    from ultraclust import closed_sphere

    all_pts = set(range(8))
    for i in (0, 1, 2):
        for r in (0, 3.9):
            assert closed_sphere(ex, i, r) == {i}
        for r in (4, 9.9):
            assert closed_sphere(ex, i, r) == {0, 1, 2}
        for r in (10, 15.9):
            assert closed_sphere(ex, i, r) == {0, 1, 2, 3, 4}
        assert closed_sphere(ex, i, 16) == all_pts
    for i in (3, 4):
        for r in (0, 5.9):
            assert closed_sphere(ex, i, r) == {i}
        for r in (6, 9.9):
            # table says d(x4,x5) = 6, so the sphere is {x4,x5}
            assert closed_sphere(ex, i, r) == {3, 4}
        for r in (10, 15.9):
            # d(x4,x1) = 10 brings in the first block
            assert closed_sphere(ex, i, r) == {0, 1, 2, 3, 4}
        assert closed_sphere(ex, i, 16) == all_pts
    for i in (5, 6, 7):
        for r in (0, 3.9):
            assert closed_sphere(ex, i, r) == {i}
        for r in (4, 15.9):
            assert closed_sphere(ex, i, r) == {5, 6, 7}
        assert closed_sphere(ex, i, 16) == all_pts
    assert time.perf_counter() - start < 1.0


@criterion("2 oracle equivalence on 500 random matrices")
def test_criterion_2_oracle_equivalence(corpus):
    start = time.perf_counter()
    for a in corpus:
        star = stabilize(a).star  # the semiring fixpoint, no spanning forest
        assert np.array_equal(subdominant(a), star)
        assert np.array_equal(minimax_oracle(a), star)
    assert time.perf_counter() - start < 30.0


@criterion("3 monotone descent, bound, strategy agreement")
def test_criterion_3_descent(corpus):
    for a in corpus:
        n = a.shape[0]
        lin = stabilize(a, "linear")
        dbl = stabilize(a, "doubling")
        assert lin.m == dbl.m and np.array_equal(lin.star, dbl.star)
        assert 1 <= lin.m <= n - 1
        assert is_ultrametric(lin.star)
        # replay the power chain and check entrywise non-increase
        p = a
        for _ in range(lin.m):
            q = minmax_product(p, a)
            assert matrix_leq(q, p)
            p = q
        assert np.array_equal(p, lin.star)


@criterion("4 supremum and maximality properties")
def test_criterion_4_sup_and_maximality():
    rng = np.random.default_rng(424)
    for _ in range(50):
        n = int(rng.integers(2, 16))
        family = [subdominant(random_dissim(rng, n)) for _ in range(int(rng.integers(1, 6)))]
        assert is_ultrametric(sup_ultrametrics(family))
    for _ in range(50):
        n = int(rng.integers(3, 16))
        a = random_dissim(rng, n)
        shrink = np.triu(rng.uniform(0.2, 1.0, (n, n)), 1)
        shrink = shrink + shrink.T
        reduced = a * shrink
        np.fill_diagonal(reduced, 0.0)
        assert matrix_leq(subdominant(reduced), subdominant(a))


@criterion("5 perfect clustering and nesting across radii")
def test_criterion_5_perfect_clustering():
    rng = np.random.default_rng(525)
    for _ in range(200):
        n = int(rng.integers(3, 20))
        u = subdominant(random_dissim(rng, n, integer=bool(rng.integers(2))))
        vals = np.unique(u[np.triu_indices(n, 1)])
        vals = vals[np.isfinite(vals)]
        radii = np.sort(np.unique(np.concatenate([[0.0], vals, vals * 0.99])))[:8]
        if radii.size < 5:
            radii = np.sort(np.concatenate([radii, radii[-1] + np.arange(1, 6 - radii.size)]))
        prev = None
        for r in radii:
            c = spheric_clustering(u, float(r))
            assert is_perfect_clustering(u, c)
            if prev is not None:
                for cluster in prev.clusters():
                    assert len({c.assignment[i] for i in cluster}) == 1
            prev = c


@criterion("6 reported clusterability quotients")
def test_criterion_6_reported_quotients():
    table = [
        (150, 14, 10.7),
        (47, 6, 7.8),
        (272, 31, 8.7),
        (141, 22, 6.4),
        (31, 7, 4.4),
        (43, 10, 4.3),
        (50, 15, 3.3),
        (30, 6, 5.0),
        (50, 15, 3.3),
    ]
    for n, m, expected in table:
        assert abs(n / m - expected) < 0.1


@criterion("7 lattice direction test")
def test_criterion_7_lattice_direction():
    def clust_for(gap):
        pts = lattice_generate(LatticeConfig(2, 2, 3, 3, spacing=1, gap=gap))
        return clusterability(pairwise_matrix(pts, "manhattan"))

    uniform = clusterability(
        pairwise_matrix(lattice_generate(LatticeConfig(1, 1, 6, 6, spacing=1)), "manhattan")
    )
    scores = [clust_for(gap) for gap in (3, 2, 1, 0)]
    assert scores[0] > uniform
    for a, b in zip(scores, scores[1:]):
        assert a >= b
    # figure-caption m values (3, 4, 5, 7, 9, 6) are reference targets only;
    # the canonical layout yields m = 4 at gap 3 and m = 10 for the uniform grid


@criterion("8 cluster-count formula vs brute force")
def test_criterion_8_k_formula():
    for p, k in [(1, 2), (3, 3), (6, 4), (10, 5)]:
        assert estimate_num_clusters(p) == k
    for p in range(1, 10001):
        k = estimate_num_clusters(p)
        assert k * (k - 1) // 2 >= p and (k - 1) * (k - 2) // 2 < p


@criterion("9 CLI pipeline and CSV round-trip")
def test_criterion_9_cli_pipeline(tmp_path, capsys):
    configs = [("2x2", "3x3", "3"), ("1x1", "6x6", "0"), ("3x2", "2x2", "2"),
               ("1x1", "1x1", "1"), ("3x3", "2x2", "4")]
    for idx, (grid, cluster, gap) in enumerate(configs):
        base = tmp_path / f"cfg{idx}"
        base.mkdir()
        pts = base / "points.csv"
        for run in ("a", "b"):  # byte-determinism: identical second run
            out = base / run
            out.mkdir()
            p = out / "points.csv"
            assert cli_main(["generate", "--grid", grid, "--cluster", cluster,
                             "--gap", gap, "--output", str(p)]) == EXIT_OK
            rep = out / "report.json"
            assert cli_main(["analyze", "--input", str(p), "--kind", "points",
                             "--metric", "manhattan", "--output", str(rep)]) == EXIT_OK
            star = out / "star.csv"
            assert cli_main(["ultrametric", "--input", str(p), "--kind", "points",
                             "--output", str(star)]) == EXIT_OK
            clus = out / "clusters.csv"
            assert cli_main(["cluster", "--input", str(star), "--radius", "auto",
                             "--output", str(clus)]) == EXIT_OK
            hist = out / "hist.csv"
            assert cli_main(["histogram", "--input", str(star), "--output",
                             str(hist)]) == EXIT_OK
        for name in ("points.csv", "report.json", "star.csv", "clusters.csv", "hist.csv"):
            assert (base / "a" / name).read_bytes() == (base / "b" / name).read_bytes()
        report = json.loads((base / "a" / "report.json").read_text())
        assert report["n"] > 0
        # analyzing the stabilized matrix must report m = 1
        rep2 = base / "a" / "report2.json"
        assert cli_main(["analyze", "--input", str(base / "a" / "star.csv"),
                         "--output", str(rep2)]) == EXIT_OK
        assert json.loads(rep2.read_text())["m"] == 1

    rng = np.random.default_rng(909)
    path = tmp_path / "roundtrip.csv"
    for _ in range(100):
        a = random_dissim(rng, int(rng.integers(2, 12)),
                          integer=bool(rng.integers(2)), with_inf=bool(rng.integers(2)))
        save_matrix_csv(a, path)
        assert np.array_equal(load_matrix_csv(path), a)


@criterion("10 n=300 stabilization under 10 s, deterministic")
def test_criterion_10_performance_floor():
    rng = np.random.default_rng(1010)
    a = random_dissim(rng, 300)
    start = time.perf_counter()
    first = stabilize(a, "doubling")
    elapsed = time.perf_counter() - start
    assert elapsed < 10.0
    second = stabilize(a, "doubling")
    assert first.m == second.m
    assert first.star.tobytes() == second.star.tobytes()
    assert is_ultrametric(first.star)
