import bz2
import gzip
import io
import json
import lzma

import numpy as np
import pytest

from ultraclust import (
    Dendrogram,
    distance_histogram,
    example1_matrix,
    is_ultrametric,
    radii_from_valleys,
    save_matrix_csv,
    save_points_csv,
    spheric_clustering,
    subdominant,
)
from ultraclust import cli, clustering, data, errors, semiring, ultrametric
from ultraclust.cli import EXIT_IO, EXIT_OK, EXIT_USAGE, EXIT_VALIDATION, main
from conftest import peak_bytes, random_dissim


@pytest.fixture
def ex1_csv(tmp_path):
    path = tmp_path / "ex1.csv"
    save_matrix_csv(example1_matrix(), path)
    return str(path)


@pytest.fixture
def three_csv(tmp_path):
    path = tmp_path / "three.csv"
    path.write_text("0,1,3\n1,0,2\n3,2,0\n")
    return str(path)


class TestAnalyze:
    def test_example1(self, ex1_csv, capsys):
        assert main(["analyze", "--input", ex1_csv]) == EXIT_OK
        report = json.loads(capsys.readouterr().out)
        assert report["n"] == 8
        assert report["m"] == 1
        assert report["clusterability"] == 8.0
        assert report["is_ultrametric"] is True

    def test_three_point(self, three_csv, capsys):
        assert main(["analyze", "--input", three_csv]) == EXIT_OK
        report = json.loads(capsys.readouterr().out)
        assert report["m"] == 2 and report["clusterability"] == 1.5

    def test_text_format(self, ex1_csv, capsys):
        assert main(["analyze", "--input", ex1_csv, "--format", "text"]) == EXIT_OK
        out = capsys.readouterr().out
        assert "clusterability = 8.0" in out

    def test_points_input(self, tmp_path, capsys):
        path = tmp_path / "pts.csv"
        path.write_text("0,0\n0,1\n5,5\n5,6\n")
        assert main(["analyze", "--input", str(path), "--kind", "points"]) == EXIT_OK
        report = json.loads(capsys.readouterr().out)
        assert report["n"] == 4

    def test_missing_file_is_io_error(self, tmp_path):
        assert main(["analyze", "--input", str(tmp_path / "nope.csv")]) == EXIT_IO

    def test_invalid_matrix_is_validation_error(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("0,1\n2,0\n")
        assert main(["analyze", "--input", str(path)]) == EXIT_VALIDATION

    def test_negative_entry_names_the_file_and_the_entry(self, tmp_path, capsys):
        path = tmp_path / "neg.csv"
        path.write_text("0,1,3\n1,0,-2\n3,-2,0\n")
        assert main(["analyze", "--input", str(path)]) == EXIT_VALIDATION
        assert capsys.readouterr().err == f"error: {path}: off-diagonal entry at (1, 2) must be positive, got -2.0\n"

    def test_histograms_its_input_once_and_reads_a_star_from_the_forest(self, tmp_path, monkeypatch, capsys,
                                                                          rng):
        a = random_dissim(rng, 20)
        assert not is_ultrametric(a)
        path = tmp_path / "a.csv"
        save_matrix_csv(a, path)
        seen = []

        def spy(m, *args, _orig=cli._histogram_of, **kwargs):
            seen.append(np.array(m))
            return _orig(m, *args, **kwargs)

        monkeypatch.setattr(cli, "_histogram_of", spy)
        assert main(["analyze", "--input", str(path)]) == EXIT_OK
        assert len(seen) == 1 and seen[0].tobytes() == a.tobytes()
        report = json.loads(capsys.readouterr().out)
        hist = distance_histogram(subdominant(a))
        assert report["distinct_values_after"] == hist.values.size
        assert report["suggested_radius"] == radii_from_valleys(hist, 1)[0][0]


class TestUltrametric:
    def test_idempotent_on_example1(self, ex1_csv, tmp_path):
        out1 = tmp_path / "a.csv"
        out2 = tmp_path / "b.csv"
        assert main(["ultrametric", "--input", ex1_csv, "--output", str(out1)]) == EXIT_OK
        assert main(["ultrametric", "--input", str(out1), "--output", str(out2)]) == EXIT_OK
        assert out1.read_bytes() == out2.read_bytes()

    def test_three_point_fixpoint(self, three_csv, tmp_path, capsys):
        out = tmp_path / "star.csv"
        assert main(["ultrametric", "--input", three_csv, "--output", str(out)]) == EXIT_OK
        from ultraclust import load_matrix_csv

        star = load_matrix_csv(out)
        assert np.array_equal(star, [[0, 1, 2], [1, 0, 2], [2, 2, 0]])

    def test_inf_preserved(self, tmp_path):
        path = tmp_path / "disc.csv"
        path.write_text("0,2,inf\n2,0,inf\ninf,inf,0\n")
        out = tmp_path / "out.csv"
        assert main(["ultrametric", "--input", str(path), "--output", str(out)]) == EXIT_OK
        assert "inf" in out.read_text()

    def test_stdout_matches_output_file(self, tmp_path, capsys, rng):
        a = random_dissim(rng, 12, with_inf=True)
        a[0, 1:] = a[1:, 0] = np.inf  # an isolated point keeps inf in A*
        path = tmp_path / "m.csv"
        save_matrix_csv(a, path)
        out = tmp_path / "star.csv"
        assert main(["ultrametric", "--input", str(path), "--output", str(out)]) == EXIT_OK
        assert main(["ultrametric", "--input", str(path)]) == EXIT_OK
        stdout = capsys.readouterr().out
        assert "inf" in stdout and stdout.encode() == out.read_bytes()


class TestCluster:
    def test_example1_radius6(self, ex1_csv, capsys):
        assert main(["cluster", "--input", ex1_csv, "--radius", "6"]) == EXIT_OK
        rows = capsys.readouterr().out.strip().splitlines()
        ids = [int(r.split(",")[1]) for r in rows]
        assert ids == [0, 0, 0, 1, 1, 2, 2, 2]

    def test_radius_zero_singletons(self, ex1_csv, capsys):
        assert main(["cluster", "--input", ex1_csv, "--radius", "0"]) == EXIT_OK
        ids = [int(r.split(",")[1]) for r in capsys.readouterr().out.strip().splitlines()]
        assert ids == list(range(8))

    def test_auto_radius_two_clusters(self, ex1_csv, capsys):
        assert main(["cluster", "--input", ex1_csv, "--radius", "auto"]) == EXIT_OK
        ids = {int(r.split(",")[1]) for r in capsys.readouterr().out.strip().splitlines()}
        assert ids == {0, 1}

    def test_non_ultrametric_input_goes_through_subdominant(self, three_csv, capsys):
        assert main(["cluster", "--input", three_csv, "--radius", "1"]) == EXIT_OK
        ids = [int(r.split(",")[1]) for r in capsys.readouterr().out.strip().splitlines()]
        assert ids == [0, 0, 1]

    def test_bad_radius(self, ex1_csv):
        assert main(["cluster", "--input", ex1_csv, "--radius", "wide"]) == EXIT_VALIDATION

    def test_nan_radius(self, ex1_csv, capsys):
        assert main(["cluster", "--input", ex1_csv, "--radius", "nan"]) == EXIT_VALIDATION
        out, err = capsys.readouterr()
        assert out == "" and "nan" in err

    def test_infinite_radius_one_cluster(self, ex1_csv, capsys):
        assert main(["cluster", "--input", ex1_csv, "--radius", "inf"]) == EXIT_OK
        ids = {int(r.split(",")[1]) for r in capsys.readouterr().out.strip().splitlines()}
        assert ids == {0}

    @pytest.mark.parametrize("split", [False, True])
    @pytest.mark.parametrize("integer", [False, True])
    def test_bytes_of_the_library_path(self, tmp_path, capsys, rng, integer, split):
        """``cluster`` reads the spanning forest; its bytes are those of
        ``spheric_clustering`` on ``subdominant``, at the radius that
        ``radii_from_valleys`` takes from ``distance_histogram``."""
        a = random_dissim(rng, 30, integer=integer, with_inf=True)
        if split:  # two trees: inf in A*, merged at radius inf
            a[:12, 12:] = a[12:, :12] = np.inf
        path = tmp_path / "a.csv"
        save_matrix_csv(a, path)
        u = subdominant(a)
        levels = np.unique(u)
        radii = {"auto": radii_from_valleys(distance_histogram(u), 1)[0][0], "inf": np.inf,
                 **{repr(r): r for r in [*levels.tolist(), *((levels[:-1] + levels[1:]) / 2).tolist()]}}
        for flag, r in radii.items():
            want = io.StringIO()
            assignment = spheric_clustering(u, r).assignment
            np.savetxt(want, np.column_stack((np.arange(30), assignment)), fmt="%d", delimiter=",")
            assert main(["cluster", "--input", str(path), "--radius", flag]) == EXIT_OK
            assert capsys.readouterr().out == want.getvalue()

    def test_nan_point_is_validation_error(self, tmp_path, capsys):
        path = tmp_path / "pts.csv"
        path.write_text("0,0\n1,nan\n5,5\n")
        assert main(["cluster", "--input", str(path), "--kind", "points"]) == EXIT_VALIDATION
        assert "row 1, column 1" in capsys.readouterr().err

    @pytest.mark.parametrize("metric,text", [
        ("manhattan", "0,0\n1,1\n0,0\n"),  # duplicate points
        ("euclidean", "0\n1\n1e-200\n"),  # their distance 1e-200 squares to 0
    ])
    def test_zero_distance_points_are_validation_error(self, tmp_path, capsys, metric, text):
        path = tmp_path / "pts.csv"
        path.write_text(text)
        argv = ["cluster", "--input", str(path), "--kind", "points", "--metric", metric]
        assert main(argv) == EXIT_VALIDATION
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: points 0 and 2 are at distance 0: ")
        assert "duplicate" in captured.err

    @pytest.mark.parametrize("command", ["analyze", "ultrametric", "cluster"])
    def test_points_beyond_memory_are_validation_error(self, tmp_path, monkeypatch, capsys, rng,
                                                       command):
        path = tmp_path / "pts.csv"
        save_points_csv(rng.uniform(0, 1, (1000, 2)), path)
        monkeypatch.setattr(errors, "_physical_memory", lambda: 2**20)
        assert main([command, "--input", str(path), "--kind", "points"]) == EXIT_VALIDATION
        captured = capsys.readouterr()
        assert captured.err.startswith("error: 1000 points need a 7.6 MiB distance matrix")
        assert captured.out == ""


class TestHistogram:
    def test_example1_distinct_raw(self, ex1_csv, capsys):
        assert main(["histogram", "--input", ex1_csv]) == EXIT_OK
        rows = capsys.readouterr().out.strip().splitlines()
        assert rows == ["4,6", "6,1", "10,6", "16,15"]

    def test_uniform_one_row(self, tmp_path, capsys):
        path = tmp_path / "u.csv"
        a = np.full((4, 4), 2.0)
        np.fill_diagonal(a, 0.0)
        save_matrix_csv(a, path)
        assert main(["histogram", "--input", str(path)]) == EXIT_OK
        assert capsys.readouterr().out.strip().splitlines() == ["2,6"]

    def test_trace_stages(self, three_csv, capsys):
        assert main(["histogram", "--input", three_csv, "--stage", "trace"]) == EXIT_OK
        rows = capsys.readouterr().out.strip().splitlines()
        stages = {r.split(",")[0] for r in rows}
        assert stages == {"1", "2"}  # A and A* for m = 2

    def test_stabilized_stage(self, three_csv, capsys):
        assert main(["histogram", "--input", three_csv, "--stage", "stabilized"]) == EXIT_OK
        rows = capsys.readouterr().out.strip().splitlines()
        assert rows == ["1,1", "2,2"]

    @pytest.mark.parametrize("mode, bins", [("distinct", None), ("binned", None), ("binned", 7)])
    def test_stabilized_stage_reads_the_forest(self, tmp_path, monkeypatch, capsys, rng, mode, bins):
        a = random_dissim(rng, 30, with_inf=True)
        path = tmp_path / "a.csv"
        save_matrix_csv(a, path)
        hist = distance_histogram(subdominant(a), mode, bins)
        values = (hist.values[:-1] + hist.values[1:]) / 2.0 if mode == "binned" else hist.values
        want = io.StringIO()
        np.savetxt(want, np.column_stack((values, hist.counts)), fmt=("%.17g", "%d"), delimiter=",")

        def no_fill(self):
            raise AssertionError("histogram --stage stabilized filled A*")

        monkeypatch.setattr(Dendrogram, "fill", no_fill)
        argv = ["histogram", "--input", str(path), "--stage", "stabilized", "--mode", mode]
        assert main(argv + ["--bins", str(bins)] * (bins is not None)) == EXIT_OK
        assert capsys.readouterr().out == want.getvalue()

    @pytest.mark.parametrize("to_file", [False, True])
    def test_bins_beyond_memory_are_validation_error(self, ex1_csv, to_file, tmp_path, capsys,
                                                     monkeypatch):
        # a 4 MiB machine is simulated: 300,000 bins need 4.6 MiB, none of it allocated
        monkeypatch.setattr(errors, "_physical_memory", lambda: 4 * 2**20)
        out = tmp_path / "hist.csv"
        argv = ["histogram", "--input", ex1_csv, "--mode", "binned", "--bins", "300000"]
        assert main(argv + ["--output", str(out)] * to_file) == EXIT_VALIDATION
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            "error: 300000 bins need 4.6 MiB of edges and counts, "
            "more than the 4.0 MiB of physical memory\n"
        )
        assert not out.exists()
        assert main(argv[:-1] + ["200000"]) == EXIT_OK
        assert len(capsys.readouterr().out.splitlines()) == 200000


class TestGoldenBytes:
    """Exact stdout bytes, separators and final newline included."""

    @pytest.mark.parametrize("matrix, argv, expected", [
        ("ex1_csv", ["cluster", "--radius", "auto"], "0,0\n1,0\n2,0\n3,0\n4,0\n5,1\n6,1\n7,1\n"),
        ("ex1_csv", ["cluster", "--radius", "5"], "0,0\n1,0\n2,0\n3,1\n4,2\n5,3\n6,3\n7,3\n"),
        ("ex1_csv", ["histogram"], "4,6\n6,1\n10,6\n16,15\n"),
        ("ex1_csv", ["histogram", "--mode", "binned", "--bins", "3"], "6,7\n10,6\n14,15\n"),
        ("ex1_csv", ["histogram", "--stage", "trace"], "1,4,6\n1,6,1\n1,10,6\n1,16,15\n"),
        ("ex1_csv", ["histogram", "--stage", "trace", "--mode", "binned", "--bins", "2"],
         "1,7,7\n1,13,21\n"),
        ("three_csv", ["cluster", "--radius", "auto"], "0,0\n1,0\n2,1\n"),
        ("three_csv", ["cluster", "--radius", "5"], "0,0\n1,0\n2,0\n"),
        ("three_csv", ["histogram"], "1,1\n2,1\n3,1\n"),
        ("three_csv", ["histogram", "--mode", "binned", "--bins", "3"],
         "1.3333333333333333,1\n1.9999999999999998,1\n2.6666666666666665,1\n"),
        ("three_csv", ["histogram", "--stage", "trace"], "1,1,1\n1,2,1\n1,3,1\n2,1,1\n2,2,2\n"),
        ("three_csv", ["histogram", "--stage", "trace", "--mode", "binned", "--bins", "2"],
         "1,1.5,1\n1,2.5,2\n2,1.25,1\n2,1.75,2\n"),
    ], ids=[f"{m}-{c}" for m in ("ex1", "three") for c in (
        "cluster-auto", "cluster-5", "distinct", "binned-3", "trace", "trace-binned-2")])
    def test_stdout(self, matrix, argv, expected, request, capsys):
        path = request.getfixturevalue(matrix)
        assert main([argv[0], "--input", path, *argv[1:]]) == EXIT_OK
        assert capsys.readouterr().out == expected

    def test_empty_histogram_writes_nothing(self, tmp_path, capsys):
        path, out = tmp_path / "one.csv", tmp_path / "hist.csv"
        path.write_text("0\n")
        assert main(["histogram", "--input", str(path)]) == EXIT_OK
        assert capsys.readouterr().out == ""
        assert main(["histogram", "--input", str(path), "--output", str(out)]) == EXIT_OK
        assert out.read_bytes() == b""


class TestProductCounts:
    """The commands that read only ``A*`` make no min-max product."""

    @pytest.fixture
    def products(self, monkeypatch):
        calls = []
        kernel = semiring.minmax_product

        def counted(a, b):
            calls.append(a.shape)
            return kernel(a, b)

        for module in (semiring, ultrametric):
            monkeypatch.setattr(module, "minmax_product", counted)
        return calls

    @pytest.fixture
    def raw_and_star(self, tmp_path, rng):
        a = random_dissim(rng, 20)
        assert not is_ultrametric(a)
        paths = tmp_path / "raw.csv", tmp_path / "star.csv"
        save_matrix_csv(a, paths[0])
        save_matrix_csv(subdominant(a), paths[1])
        return [str(p) for p in paths]

    @pytest.mark.parametrize("argv", [["ultrametric"], ["histogram", "--stage", "stabilized"], ["cluster"]])
    def test_fixpoint_commands_make_no_product(self, argv, raw_and_star, products):
        products.clear()
        for path in raw_and_star:
            assert main([*argv, "--input", path]) == EXIT_OK
        assert products == []


class TestMemory:
    """Traced peaks of the lattice session's commands, in-process, in n^2 float64 units (n = 576).

    Before the histogram read the runs of one sorted copy and ``analyze``
    dropped A* before its report, ``analyze`` peaked at 3.64 and
    ``histogram`` at 2.64; ``ultrametric`` (2.02) and ``cluster`` (1.16)
    may not rise by more than 0.15 (0.38 MiB), against allocator and
    version noise.
    """

    N = 576

    @pytest.fixture(scope="class")
    def session(self, tmp_path_factory):
        d = tmp_path_factory.mktemp("session")
        pts, star = str(d / "points.csv"), str(d / "star.csv")
        assert main(["generate", "--grid", "4x4", "--cluster", "6x6", "--output", pts]) == EXIT_OK
        assert main(["ultrametric", "--input", pts, "--kind", "points", "--output", star]) == EXIT_OK
        return {
            "analyze": ["analyze", "--input", pts, "--kind", "points", "--output", str(d / "report.json")],
            "ultrametric": ["ultrametric", "--input", pts, "--kind", "points", "--output", star],
            "cluster": ["cluster", "--input", star, "--radius", "auto", "--output", str(d / "clusters.csv")],
            "histogram": ["histogram", "--input", star, "--mode", "binned", "--output", str(d / "hist.csv")],
            "points": pts,
        }

    @pytest.mark.parametrize("command, bound", [("analyze", 2.5), ("histogram", 2.5),
                                                ("ultrametric", 2.02 + 0.15), ("cluster", 1.16 + 0.15)])
    def test_command_peaks(self, session, command, bound):
        assert main(session[command]) == EXIT_OK  # once first, so one-time allocations are not counted
        code, peak = peak_bytes(main, session[command])
        assert code == EXIT_OK
        assert peak < bound * 8 * self.N**2

    def test_histogram_holds_half_a_matrix_and_its_runs(self, session):
        a = data.pairwise_matrix(data.load_points_csv(session["points"]))
        hist, peak = peak_bytes(clustering._histogram_of, a)
        assert hist.counts.sum() == self.N * (self.N - 1) // 2
        assert peak < 0.75 * 8 * self.N**2


class TestGenerate:
    def test_paper_lattice(self, tmp_path):
        out = tmp_path / "pts.csv"
        args = ["generate", "--grid", "2x2", "--cluster", "3x3", "--gap", "3",
                "--output", str(out)]
        assert main(args) == EXIT_OK
        lines = [l for l in out.read_text().splitlines() if not l.startswith("#")]
        assert len(lines) == 36

    def test_single_point(self, capsys):
        assert main(["generate", "--grid", "1x1", "--cluster", "1x1"]) == EXIT_OK
        assert capsys.readouterr().out.strip() == "0,0"

    def test_deterministic(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        for out in (a, b):
            main(["generate", "--grid", "3x1", "--cluster", "2x2", "--output", str(out)])
        assert a.read_bytes() == b.read_bytes()

    def test_bad_grid_flag(self):
        assert main(["generate", "--grid", "2by2", "--cluster", "3x3"]) == EXIT_VALIDATION

    def test_non_integer_grid_flag(self, capsys):
        assert main(["generate", "--grid", "2xa", "--cluster", "3x3"]) == EXIT_VALIDATION
        assert capsys.readouterr().err == "error: --grid expects integers, got '2xa'\n"

    @pytest.mark.parametrize("flags", [
        ["--spacing", "nan"],
        ["--spacing", "inf"],
        ["--gap", "nan"],
        ["--gap", "inf"],
        ["--spacing", "1e308", "--cluster", "3x1"],
    ])
    @pytest.mark.parametrize("to_file", [False, True])
    def test_non_finite_lattice_is_validation_error(self, flags, to_file, tmp_path, capsys):
        out = tmp_path / "pts.csv"
        argv = ["generate", "--grid", "1x1", "--cluster", "2x1", *flags]
        assert main(argv + ["--output", str(out)] * to_file) == EXIT_VALIDATION
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err.startswith("error: ")
        assert not out.exists()

    @pytest.mark.parametrize("to_file", [False, True])
    def test_points_beyond_memory_are_validation_error(self, to_file, tmp_path, capsys,
                                                       monkeypatch):
        # a 4 MiB machine is simulated: 90,000 points need 5.5 MiB, none of it allocated
        monkeypatch.setattr(errors, "_physical_memory", lambda: 4 * 2**20)
        out = tmp_path / "pts.csv"
        argv = ["generate", "--grid", "1x1", "--cluster", "300x300"]
        assert main(argv + ["--output", str(out)] * to_file) == EXIT_VALIDATION
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            "error: 90000 points need 5.5 MiB to generate, "
            "more than the 4.0 MiB of physical memory\n"
        )
        assert not out.exists()
        assert main(["generate", "--grid", "1x1", "--cluster", "200x200"]) == EXIT_OK
        assert len(capsys.readouterr().out.splitlines()) == 40000


# each compressed suffix: its format as errors name it, and its magic bytes
# (lzma.open writes the xz format whatever the suffix, as numpy's writer does)
class TestValidationCounts:
    """A read command validates a loaded matrix once more only where a public function takes it."""

    @pytest.mark.parametrize("argv, calls", [
        (["analyze"], 2),  # load_matrix_csv, stabilize
        (["histogram"], 1),  # load_matrix_csv
        (["histogram", "--stage", "trace"], 2),  # load_matrix_csv, power_chain
        (["analyze", "--kind", "points"], 1),  # stabilize of pairwise_matrix's matrix
        (["histogram", "--kind", "points"], 0),
    ], ids=["analyze", "histogram", "trace", "analyze-points", "histogram-points"])
    def test_each_matrix_is_validated_once_a_step(self, argv, calls, ex1_csv, tmp_path, monkeypatch):
        path = ex1_csv
        if "points" in argv:
            path = str(tmp_path / "pts.csv")
            assert main(["generate", "--grid", "2x2", "--cluster", "2x3", "--output", path]) == EXIT_OK
        seen = []
        real = semiring.validate_dissimilarity

        def counted(a):
            seen.append(1)
            return real(a)

        for module in (semiring, data, clustering, ultrametric):
            monkeypatch.setattr(module, "validate_dissimilarity", counted)
        assert main([*argv, "--input", path]) == EXIT_OK
        assert len(seen) == calls


class TestOneCheckPerMatrix:
    """A validated matrix is swept without ``Dendrogram.from_matrix``'s checks, which raw weights keep."""

    @pytest.mark.parametrize("run", [
        lambda a, path: subdominant(a).tobytes() == a.tobytes(),  # example 1 is ultrametric
        lambda a, path: spheric_clustering(a, 6.0).assignment.tolist() == [0, 0, 0, 1, 1, 2, 2, 2],
        lambda a, path: main(["cluster", "--input", path, "--radius", "auto"]) == EXIT_OK,
        lambda a, path: main(["histogram", "--input", path, "--stage", "stabilized"]) == EXIT_OK,
    ], ids=["subdominant", "spheric_clustering", "cluster", "histogram-stabilized"])
    def test_reader_of_a_valid_matrix_sweeps_it_once(self, run, ex1_csv, monkeypatch):
        def refused(w):
            pytest.fail("the weight checks ran again on a valid matrix")

        a = data.load_matrix_csv(ex1_csv)
        monkeypatch.setattr(Dendrogram, "from_matrix", refused)
        assert run(a, ex1_csv)


COMPRESSED = {".gz": ("a gzip", b"\x1f\x8b"), ".bz2": ("a bzip2", b"BZh"),
              ".xz": ("an xz", b"\xfd7zXZ\x00"), ".lzma": ("an lzma", b"\xfd7zXZ\x00")}
DECOMPRESS = {".gz": gzip.decompress, ".bz2": bz2.decompress, ".xz": lzma.decompress, ".lzma": lzma.decompress}


class TestInputFiles:
    def test_non_utf8_input_is_validation_error(self, tmp_path, capsys):
        path = tmp_path / "latin1.csv"
        path.write_bytes(b"0,1\n1,\xff\n")
        for argv in (["analyze"], ["cluster"], ["analyze", "--kind", "points"]):
            assert main([*argv, "--input", str(path)]) == EXIT_VALIDATION
            captured = capsys.readouterr()
            assert captured.err == f"error: {path}: not UTF-8 text\n" and captured.out == ""

    @pytest.mark.parametrize("suffix", COMPRESSED)
    @pytest.mark.parametrize("command", ["ultrametric", "generate"])
    def test_compressed_output_reads_back(self, command, suffix, three_csv, tmp_path, capsys):
        # one suffix table compresses an --output path and decompresses an --input path
        make = {"ultrametric": ["ultrametric", "--input", three_csv],
                "generate": ["generate", "--grid", "2x2", "--cluster", "2x3"]}[command]
        kind = "points" if command == "generate" else "matrix"
        outs = []
        for name in ("out.csv", "out.csv" + suffix):
            path = tmp_path / name
            assert main([*make, "--output", str(path)]) == EXIT_OK
            assert main(["cluster", "--input", str(path), "--kind", kind]) == EXIT_OK
            captured = capsys.readouterr()
            outs.append(captured.out)
            assert captured.err == ""
        assert (tmp_path / ("out.csv" + suffix)).read_bytes().startswith(COMPRESSED[suffix][1])
        assert outs[0] and outs[1] == outs[0]

    @pytest.mark.parametrize("suffix", COMPRESSED)
    @pytest.mark.parametrize("fmt", ["json", "text"])
    def test_analyze_output_is_compressed(self, fmt, suffix, ex1_csv, tmp_path, capsys):
        # the report goes through the suffix table as every CSV output does
        argv = ["analyze", "--input", ex1_csv, "--format", fmt]
        plain, packed = tmp_path / "report.txt", tmp_path / f"report.txt{suffix}"
        for path in (plain, packed):
            assert main([*argv, "--output", str(path)]) == EXIT_OK
        assert main(argv) == EXIT_OK
        assert capsys.readouterr().out.encode() == plain.read_bytes()
        assert packed.read_bytes().startswith(COMPRESSED[suffix][1])
        assert DECOMPRESS[suffix](packed.read_bytes()) == plain.read_bytes()

    @pytest.mark.parametrize("suffix", COMPRESSED)
    def test_corrupt_compressed_input_is_validation_error(self, suffix, tmp_path, capsys):
        name = COMPRESSED[suffix][0]
        path = tmp_path / f"m.csv{suffix}"
        path.write_bytes(b"0,1\n1,0\n")
        assert main(["analyze", "--input", str(path)]) == EXIT_VALIDATION
        assert capsys.readouterr().err.startswith(f"error: {path}: not {name} file (")
        # a compressed file cut short is not in its format either
        compressed = tmp_path / f"whole.csv{suffix}"
        assert main(["generate", "--grid", "1x1", "--cluster", "2x2", "--output", str(compressed)]) == EXIT_OK
        path.write_bytes(compressed.read_bytes()[:20])
        assert main(["analyze", "--input", str(path), "--kind", "points"]) == EXIT_VALIDATION
        assert capsys.readouterr().err.startswith(f"error: {path}: not {name} file (")
        missing = tmp_path / f"nope.csv{suffix}"
        assert main(["analyze", "--input", str(missing)]) == EXIT_IO
        assert "No such file or directory" in capsys.readouterr().err

    def test_corrupt_gzip_body_that_still_inflates_names_the_file(self, tmp_path, capsys):
        # gzip checks its CRC only at the end of the stream, so 40 bytes flipped
        # in the middle of a 200x200 matrix's deflate body still inflate, to a
        # row that does not parse; that error names the file as the others do
        path = tmp_path / "m.csv.gz"
        save_matrix_csv(random_dissim(np.random.default_rng(0), 200), path)
        raw = bytearray(path.read_bytes())
        mid = len(raw) // 2
        raw[mid : mid + 40] = bytes(b ^ 0xFF for b in raw[mid : mid + 40])
        path.write_bytes(raw)
        assert main(["analyze", "--input", str(path)]) == EXIT_VALIDATION == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {path}: row ") and ": cannot parse " in err


class TestUsageErrors:
    def test_strategy_flag_removed(self, ex1_csv):
        with pytest.raises(SystemExit) as exc:
            main(["analyze", "--input", ex1_csv, "--strategy", "linear"])
        assert exc.value.code == EXIT_USAGE

    def test_missing_required_flag(self):
        with pytest.raises(SystemExit) as exc:
            main(["analyze"])
        assert exc.value.code == EXIT_USAGE

    def test_unknown_subcommand(self):
        with pytest.raises(SystemExit) as exc:
            main(["frobnicate"])
        assert exc.value.code == EXIT_USAGE
