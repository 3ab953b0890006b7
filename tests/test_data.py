import bz2
import gzip
import lzma
import os
import re
import time
from unittest import mock

import numpy as np
import pytest

from ultraclust import errors
from ultraclust import (
    subdominant,
    Clustering,
    LatticeConfig,
    ValidationError,
    clusterability,
    example1_matrix,
    is_perfect_clustering,
    is_ultrametric,
    lattice_generate,
    load_matrix_csv,
    load_points_csv,
    pairwise_matrix,
    save_matrix_csv,
    save_points_csv,
    validate_dissimilarity,
)
from conftest import peak_bytes, random_dissim


class TestLattice:
    def test_points_beyond_memory_rejected_up_front(self, monkeypatch):
        monkeypatch.setattr(errors, "_physical_memory", lambda: 4 * 2**20)
        # numpy-integer counts whose product, 2^64, would wrap to 0 in int64
        config = LatticeConfig(*[np.int64(2**16)] * 4)
        assert config.total_points == 2**64
        with pytest.raises(ValidationError, match=r"^18446744073709551616 points need "):
            lattice_generate(config)

    def test_four_cluster_config(self):
        pts = lattice_generate(LatticeConfig(2, 2, 3, 3, spacing=1, gap=3))
        assert pts.shape == (36, 2)
        assert np.array_equal(pts, pts.astype(int).astype(float))

    def test_uniform_grid(self):
        pts = lattice_generate(LatticeConfig(1, 1, 6, 6, spacing=1, gap=3))
        expected = np.array([(i, j) for i in range(6) for j in range(6)], float)
        assert np.array_equal(pts, expected)

    def test_single_point(self):
        pts = lattice_generate(LatticeConfig(1, 1, 1, 1))
        assert np.array_equal(pts, np.zeros((1, 2)))

    def test_gap_zero_degenerates_to_uniform_grid(self):
        merged = lattice_generate(LatticeConfig(2, 2, 3, 3, spacing=1, gap=0))
        uniform = lattice_generate(LatticeConfig(1, 1, 6, 6, spacing=1, gap=0))
        assert np.array_equal(np.sort(merged.view("f8,f8"), axis=0),
                              np.sort(uniform.view("f8,f8"), axis=0))

    def test_point_count_matches_config(self):
        cfg = LatticeConfig(3, 2, 2, 4, spacing=2, gap=1)
        assert lattice_generate(cfg).shape[0] == cfg.total_points == 48

    def test_invalid_config(self):
        with pytest.raises(ValidationError):
            LatticeConfig(0, 1, 1, 1)
        with pytest.raises(ValidationError):
            LatticeConfig(1, 1, 1, 1, spacing=0)

    @pytest.mark.parametrize("field", ["spacing", "gap"])
    @pytest.mark.parametrize("value", [np.nan, np.inf])
    def test_spacing_and_gap_must_be_finite(self, field, value):
        with pytest.raises(ValidationError, match=f"{field} must be finite"):
            LatticeConfig(1, 1, 2, 1, **{field: value})

    @pytest.mark.parametrize("counts", [
        (2.5, 1, 1, 1), (1, 1, 2.0, 1), (1, "2", 1, 1),
        (True, 1, 1, 1), (1, 1, 1, np.bool_(True)),  # a bool is no count
    ])
    def test_counts_must_be_integers(self, counts):
        with pytest.raises(ValidationError, match="must be a positive integer"):
            LatticeConfig(*counts)

    @pytest.mark.parametrize("field", ["spacing", "gap"])
    @pytest.mark.parametrize("value", ["1", None, 1j, True, False])  # a bool is no length
    def test_spacing_and_gap_must_be_real(self, field, value):
        with pytest.raises(ValidationError, match=f"^{field} must be a real number, got {value!r}$"):
            LatticeConfig(1, 1, 2, 1, **{field: value})

    def test_negative_gap_rejected(self):
        with pytest.raises(ValidationError, match=r"^gap must be nonnegative$"):
            LatticeConfig(1, 1, 2, 1, gap=-1.0)

    def test_numpy_integer_counts(self):
        assert lattice_generate(LatticeConfig(np.int64(2), 1, np.uint8(1), 1)).shape == (2, 2)

    @pytest.mark.parametrize("config", [
        LatticeConfig(1, 1, 3, 1, spacing=1e308),  # a point past the largest double
        LatticeConfig(1, 1, 2, 1, spacing=1e308),  # the cluster stride overflows
        LatticeConfig(3, 1, 1, 1, gap=1e308),
    ])
    def test_overflowing_coordinates(self, config):
        with pytest.raises(ValidationError, match="overflow"):
            lattice_generate(config)


class TestPairwiseMatrix:
    def test_manhattan(self):
        d = pairwise_matrix(np.array([[0, 0], [2, 1]], float), "manhattan")
        assert d[0, 1] == 3

    def test_euclidean(self):
        d = pairwise_matrix(np.array([[0, 0], [3, 4]], float), "euclidean")
        assert d[0, 1] == 5

    def test_output_is_valid_dissimilarity(self, rng):
        pts = rng.uniform(0, 10, (12, 3))
        for metric in ("manhattan", "euclidean"):
            validate_dissimilarity(pairwise_matrix(pts, metric))

    def test_triangle_inequality(self, rng):
        pts = rng.uniform(0, 5, (8, 2))
        d = pairwise_matrix(pts, "manhattan")
        n = len(pts)
        for i in range(n):
            for j in range(n):
                for k in range(n):
                    assert d[i, j] <= d[i, k] + d[k, j] + 1e-9

    @pytest.mark.parametrize("metric", ["manhattan", "euclidean"])
    def test_memory_stays_near_the_result(self, rng, metric):
        # the (n, n, dim) difference tensor alone would take 34 MiB
        d, peak = peak_bytes(pairwise_matrix, rng.uniform(0, 1, (1500, 2)), metric)
        assert peak < d.nbytes + 4 * 2**20

    def test_duplicates_rejected(self):
        pts = np.array([[0.0, 1.0], [2.0, 3.0], [0.0, 1.0]])
        for metric in ("manhattan", "euclidean"):
            with pytest.raises(ValidationError, match=r"^points 0 and 2 are at distance 0: .*duplicate"):
                pairwise_matrix(pts, metric)

    def test_underflowing_distance_rejected(self):
        # distinct points whose squared difference 1e-400 underflows to 0
        pts = np.array([[5.0], [0.0], [1e-200]])
        with pytest.raises(ValidationError, match=r"^points 1 and 2 are at distance 0: .*duplicate"):
            pairwise_matrix(pts, "euclidean")
        assert pairwise_matrix(pts, "manhattan")[1, 2] == 1e-200

    @pytest.mark.parametrize("pts", [np.arange(3.0), np.zeros((0, 2))], ids=["1-D", "empty"])
    def test_non_point_arrays_rejected(self, pts):
        shape = re.escape(str(pts.shape))
        with pytest.raises(ValidationError, match=rf"^expected an \(n, dim\) point array, got {shape}$"):
            pairwise_matrix(pts)

    def test_unknown_metric_rejected(self):
        with pytest.raises(ValidationError, match=r"^unknown metric 'cosine'$"):
            pairwise_matrix(np.array([[0.0, 1.0], [2.0, 3.0]]), "cosine")

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_coordinates_rejected(self, bad):
        pts = np.array([[0.0, 0.0], [1.0, 2.0], [3.0, 4.0]])
        pts[1, 1] = bad
        with pytest.raises(ValidationError, match=r"row 1, column 1"):
            pairwise_matrix(pts, "manhattan")

    def test_repeated_nan_points_rejected_by_coordinate(self):
        with pytest.raises(ValidationError, match=r"row 0, column 0: .*finite"):
            pairwise_matrix(np.full((2, 2), np.nan), "euclidean")

    def test_matrix_larger_than_memory_rejected_up_front(self, monkeypatch):
        # 1000 points need 7.6 MiB; a 4 MiB machine is simulated, nothing that large is allocated
        monkeypatch.setattr(errors, "_physical_memory", lambda: 4 * 2**20)
        pts = np.zeros((1000, 2))  # duplicates too: the memory check comes first
        message = r"^1000 points need a 7\.6 MiB .* than the 4\.0 MiB of physical memory$"
        with pytest.raises(ValidationError, match=message):
            pairwise_matrix(pts)
        assert pairwise_matrix(pts[:2] + [[0, 0], [1, 1]]).shape == (2, 2)

    def test_memory_guard_skipped_without_a_probe(self, monkeypatch, rng):
        monkeypatch.setattr(os, "sysconf", mock.Mock(side_effect=ValueError))
        assert errors._physical_memory() is None
        assert pairwise_matrix(rng.uniform(0, 1, (50, 2))).shape == (50, 50)

    def test_memory_probe_reports_physical_memory(self):
        assert errors._physical_memory() > 2**20

    @pytest.mark.parametrize("n", [5, 300, 700])
    @pytest.mark.parametrize("metric", ["manhattan", "euclidean"])
    def test_bytes_of_the_difference_tensor_sum(self, rng, metric, n):
        """Each dimension gives the bytes of numpy's sum over the (rows, n, dim)
        difference tensor, in row blocks that keep it small here too."""
        for dim in range(1, 13):
            # magnitudes from e^-30 to e^30, of either sign
            pts = np.exp(rng.uniform(-30, 30, (n, dim))) * rng.choice([-1.0, 1.0], (n, dim))
            want = np.empty((n, n))
            for s in range(0, n, 50):
                diff = pts[s : s + 50, None, :] - pts[None, :, :]
                if metric == "manhattan":
                    want[s : s + 50] = np.abs(diff).sum(axis=-1)
                else:
                    want[s : s + 50] = np.sqrt((diff * diff).sum(axis=-1))
            np.fill_diagonal(want, 0.0)
            assert pairwise_matrix(pts, metric).tobytes() == want.tobytes(), dim


class TestExample1:
    def test_table_entries(self):
        ex = example1_matrix()
        assert ex[0, 3] == 10
        assert ex[5, 7] == 4
        assert ex[3, 4] == 6

    def test_is_ultrametric(self):
        assert is_ultrametric(example1_matrix())


class TestLatticeClusterability:
    def test_four_block_partition_is_perfect(self):
        # perfection holds on the subdominant: raw Manhattan in-cluster
        # diameters (4) tie the inter-cluster minimum, but minimax paths
        # inside a cluster collapse to the point spacing
        pts = lattice_generate(LatticeConfig(2, 2, 3, 3, spacing=1, gap=3))
        star = subdominant(pairwise_matrix(pts, "manhattan"))
        blocks = np.repeat(np.arange(4), 9)
        assert is_perfect_clustering(star, Clustering(n=36, assignment=blocks))

    def test_separated_beats_uniform(self):
        separated = pairwise_matrix(
            lattice_generate(LatticeConfig(2, 2, 3, 3, spacing=1, gap=3)), "manhattan"
        )
        uniform = pairwise_matrix(
            lattice_generate(LatticeConfig(1, 1, 6, 6, spacing=1)), "manhattan"
        )
        assert clusterability(separated) > clusterability(uniform)


class TestCsvRoundTrip:
    def test_matrix_round_trip(self, tmp_path, rng):
        path = tmp_path / "m.csv"
        for _ in range(5):
            a = random_dissim(rng, int(rng.integers(2, 10)), with_inf=True)
            save_matrix_csv(a, path)
            assert np.array_equal(load_matrix_csv(path), a)

    def test_example1_round_trip(self, tmp_path):
        path = tmp_path / "ex1.csv"
        save_matrix_csv(example1_matrix(), path)
        assert np.array_equal(load_matrix_csv(path), example1_matrix())

    def test_inf_token(self, tmp_path):
        path = tmp_path / "inf.csv"
        path.write_text("0,inf\ninf,0\n")
        a = load_matrix_csv(path)
        assert np.isinf(a[0, 1])
        path.write_text("0, INF ,2\n INF ,0,Inf\n2,\tInf,0\n")
        a = load_matrix_csv(path)
        assert np.array_equal(np.isinf(a), [[0, 1, 0], [1, 0, 1], [0, 1, 0]])
        assert a[0, 2] == 2.0

    def test_load_peaks_near_the_matrix(self, tmp_path):
        path = tmp_path / "star.csv"
        save_matrix_csv(subdominant(pairwise_matrix(lattice_generate(LatticeConfig(4, 4, 6, 6)))), path)
        a, peak = peak_bytes(load_matrix_csv, path)
        assert a.shape == (576, 576) and peak < a.nbytes + 2**20

    def test_three_point_fixture(self, tmp_path):
        path = tmp_path / "three.csv"
        path.write_text("0,1,3\n1,0,2\n3,2,0\n")
        assert np.array_equal(
            load_matrix_csv(path), np.array([[0, 1, 3], [1, 0, 2], [3, 2, 0]], float)
        )

    def test_points_round_trip(self, tmp_path, rng):
        path = tmp_path / "p.csv"
        pts = rng.uniform(-5, 5, (7, 3))
        save_points_csv(pts, path)
        assert np.array_equal(load_points_csv(path), pts)
        assert path.read_text().startswith("# dim=3")

    @pytest.mark.parametrize(
        "text,fragment",
        [
            ("0,1\n2,0\n", "asymmetric"),
            ("1,2\n2,0\n", "diagonal"),
            # a negative entry is a non-positive off-diagonal one (or a nonzero diagonal one)
            pytest.param("0,-1\n-1,0\n", r"\(0, 1\) must be positive, got -1\.0", id="0,-1\n-1,0\n-negative"),
            ("0,nan\nnan,0\n", r"\(0, 1\) must be positive, got nan"),
            ("0,nan\n1,0\n", r"asymmetric entries at \(0, 1\): nan vs 1.0"),
            ("0,1\n1,0,3\n", "row 1"),
            ("0,1\n1,0,3\n1,x\n", "row 2, column 1: cannot parse 'x'"),
            ("0,x\nx,0\n", "row 0"),
            ("0,1\n1, x \n", "row 1, column 1: cannot parse 'x' as a number"),
            ("# dim=2\n0,1\n1,0\n", "row 0, column 0"),
            ("", "empty matrix file"),
            # numpy's reader takes neither digit separators nor non-ASCII digits
            ("0,1_0\n1_0,0\n", "row 0, column 1: cannot parse '1_0' as a number"),
            ("0,\u0661\n\u0661,0\n", "row 0, column 1: cannot parse '\u0661'"),
            ("0,1\n\n1,0,3\n\n1,x\n", "row 4, column 1: cannot parse 'x'"),
            pytest.param("\n".join(["1," * 39 + "1"] * 39 + ["1," * 39 + "x"]), "row 39, column 39",
                         id="last-token-of-40x40"),
        ],
    )
    def test_validation_errors(self, tmp_path, monkeypatch, text, fragment):
        assert_reader_error(monkeypatch, load_matrix_csv, tmp_path / "bad.csv", text, fragment)

    @pytest.mark.parametrize(
        "text,fragment",
        [
            ("# dim=2\n0,0\n\n1,2,3\n", "row 1 has 3 coordinates, expected 2"),
            ("# dim=2\n0,0\n1,2,3\n# x\n1,y\n", "row 4, column 1"),
            ("# dim=2\n0,0\n1,y\n", "row 2, column 1"),
            ("# dim=2\n\n", "empty points file"),
            ("# dim=2\n\n0,0\n\n1,2,3\n# x\n\n1,y\n", "row 7, column 1: cannot parse 'y'"),
            ("# dim=2\n0,0 # x\n", "row 1, column 1: cannot parse '0 # x'"),
            ("# dim=1\n1_0\n", "row 1, column 0: cannot parse '1_0'"),
        ],
    )
    def test_points_validation_errors(self, tmp_path, monkeypatch, text, fragment):
        assert_reader_error(monkeypatch, load_points_csv, tmp_path / "bad.csv", text, fragment)


class TextSize:
    """A text stream that keeps only the number of characters written to it."""

    def __init__(self):
        self.chars = 0

    def write(self, text):
        self.chars += len(text)


class TestTableWriter:
    def test_matrix_and_points_write_the_bytes_of_savetxt(self, tmp_path, rng):
        star = subdominant(random_dissim(rng, 40, with_inf=True))
        pts = rng.uniform(-5, 5, (30, 3))
        for save, a, header in ((save_matrix_csv, star, ""), (save_points_csv, pts, "dim=3")):
            for suffix, read in ((".csv", open), (".gz", gzip.open), (".bz2", bz2.open), (".xz", lzma.open)):
                name = f"t.csv{suffix}"
                save(a, tmp_path / name)
                np.savetxt(tmp_path / f"ref.{name}", a, fmt="%.17g", delimiter=",", header=header)
                with read(tmp_path / name, "rb") as got, read(tmp_path / f"ref.{name}", "rb") as want:
                    assert got.read() == want.read()

    @pytest.mark.parametrize("suffix", [".gz", ".bz2", ".xz", ".lzma"])
    def test_compressed_bytes_depend_on_the_table_alone(self, tmp_path, rng, suffix):
        # no file name and no clock reach the file: gzip.open writes both into its header
        pts = rng.uniform(-5, 5, (30, 3))
        written = []
        for name, clock in (("a", 1.0e9), ("a-longer-name", 2.0e9)):
            path = tmp_path / f"{name}.csv{suffix}"
            with mock.patch.object(time, "time", return_value=clock):
                save_points_csv(pts, path)
            written.append(path.read_bytes())
        assert written[0] == written[1]

    def test_ultrametric_streams_in_bounded_memory(self, rng):
        # a uniform A* of n = 2000 holds at most 2001 values, in about 70 MB of text
        star = subdominant(random_dissim(rng, 2000))
        sink = TextSize()
        _, peak = peak_bytes(save_matrix_csv, star, sink)
        assert sink.chars > 60 * 2**20 and peak < 4 * 2**20

    @pytest.mark.parametrize("shape", [(3,), (2, 2, 2), ()])
    def test_points_not_of_two_axes_rejected(self, shape):
        message = rf"^expected an \(n, dim\) point array, got {re.escape(str(shape))}$"
        with pytest.raises(ValidationError, match=message):
            save_points_csv(np.zeros(shape), TextSize())

    @pytest.mark.parametrize("shape", [(3, 0), (2, 2, 2)])
    def test_tables_without_columns_or_of_three_axes_rejected(self, shape):
        with pytest.raises(ValidationError, match="1-D or 2-D table with at least one column"):
            save_matrix_csv(np.zeros(shape), TextSize())


def assert_reader_error(monkeypatch, load, path, text, fragment):
    """load(path) of text raises fragment, having called numpy's reader at most
    once for the file, once per line and once per token of one line."""
    calls = []
    real = np.loadtxt
    monkeypatch.setattr(np, "loadtxt", lambda *a, **k: calls.append(1) or real(*a, **k))
    path.write_text(text)
    with pytest.raises(ValidationError, match=fragment):
        load(path)
    lines = text.splitlines()
    assert len(calls) <= 1 + len(lines) + max((len(line.split(",")) for line in lines), default=0)
