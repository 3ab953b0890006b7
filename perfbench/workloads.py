"""The benchmark's workloads: seeded inputs, one timed pass, output checks.

Each workload drives ultraclust only through its public functions and
``ultraclust.cli.main``, looked up on the module at call time so that the
tracer's patched bindings are the ones called.  A pass returns one entry per
operation (a library call or a CLI command); an entry that is an exception
is a failed operation.  ``collect`` turns a pass's raw entries into
comparable fingerprints outside the timed region, and ``check`` verifies the
first pass against independent computations.
"""

from __future__ import annotations

import hashlib
import json
import os
import shutil
import tempfile

import numpy as np

from ultraclust import cli, clustering, data, semiring, ultrametric

# The uniform draw behind dense-random.  Every seed relabels and rescales
# this one matrix, so m (45) and the product count are the same on all seeds
# and the run-to-run spread of run_s is timing noise, not a changed m.
DENSE_STRUCTURE_SEED = 0
QUERY_RADII = 16


def random_dissim(rng, n):
    """Symmetric uniform-float dissimilarity, as in the test suite's fixture."""
    vals = rng.uniform(0.1, 10.0, size=(n, n))
    a = np.triu(vals, 1)
    a = a + a.T
    np.fill_diagonal(a, 0.0)
    return a


def fingerprint(value) -> str:
    """Digest of an operation's output; equal outputs give equal digests."""
    h = hashlib.sha256()

    def feed(v):
        if isinstance(v, np.ndarray):
            h.update(repr((v.dtype.str, v.shape)).encode())
            h.update(np.ascontiguousarray(v).tobytes())
        elif isinstance(v, (list, tuple)):
            h.update(b"[")
            for item in v:
                feed(item)
            h.update(b"]")
        elif isinstance(v, bytes):
            h.update(v)
        elif isinstance(v, semiring.StabilizationResult):
            feed([v.star, v.m, v.ultrametricity, v.power_trace])
        elif isinstance(v, clustering.Clustering):
            feed([v.n, v.assignment, v.radius])
        elif isinstance(v, clustering.DistanceHistogram):
            feed([v.mode, v.values, v.counts, v.peaks, v.valleys, v.overflow])
        else:
            h.update(repr(v).encode())

    feed(value)
    return h.hexdigest()


def _m_failure(a, star, m):
    """None if m is the least power with A^m == A*, else the reason."""
    before = semiring.power(a, m - 1)
    if np.array_equal(before, star):
        return f"A^(m-1) already equals A* (m={m})"
    if not np.array_equal(semiring.minmax_product(before, a), star):
        return f"A^m differs from A* (m={m})"
    return None


def _upper(a):
    iu, ju = np.triu_indices(a.shape[0], 1)
    return a[iu, ju]


class Workload:
    """Defaults shared by the workloads; each sets ``n`` and ``m``."""

    @staticmethod
    def call(ops, key, fn, *args, **kwargs):
        """Record ``fn``'s result under ``key``, or the exception it raised."""
        try:
            ops[key] = fn(*args, **kwargs)
        except Exception as exc:  # a raising call is a failed operation
            ops[key] = exc
        return ops[key]

    def collect(self, ops):
        return {k: v if isinstance(v, Exception) else fingerprint(v) for k, v in ops.items()}

    def reset(self):
        pass

    def close(self):
        pass


class DenseRandom(Workload):
    name = "dense-random"
    why = ("stabilize() on a barely clusterable uniform n=600 matrix (m=45 on every seed): "
           "the semiring kernel and the search for m, no I/O or clustering")

    def __init__(self, seed, smoke, workdir):
        self.n = 30 if smoke else 600
        base = random_dissim(np.random.default_rng(DENSE_STRUCTURE_SEED), self.n)
        rng = np.random.default_rng(seed)
        perm = rng.permutation(self.n)
        # a power-of-two scale keeps every float exact and the order of values
        self.a = base[np.ix_(perm, perm)] * 2.0 ** int(rng.integers(-4, 5))
        self.m = None

    def run(self):
        ops = {}
        self.call(ops, "stabilize", semiring.stabilize, self.a)
        return ops

    def check(self, ops):
        result = ops["stabilize"]
        self.m = result.m
        if not np.array_equal(result.star, ultrametric.minimax_oracle(self.a)):
            return {"stabilize": "A* differs from minimax_oracle"}
        if result.ultrametricity != self.n / result.m:
            return {"stabilize": "ultrametricity is not n/m"}
        reason = _m_failure(self.a, result.star, result.m)
        return {"stabilize": reason} if reason else {}


class LatticeCli(Workload):
    name = "lattice-cli"
    why = ("the CLI session users run on a 4x4 lattice of 6x6 clusters (n=576, m=16): "
           "CSV I/O, distances, redundant ultrametric checks, few-level data")

    def __init__(self, seed, smoke, workdir):
        self.grid, self.cluster = (2, 3) if smoke else (4, 6)
        self.n = (self.grid * self.cluster) ** 2
        # a power-of-two scale keeps every coordinate and distance exact
        self.spacing = 2.0 ** int(np.random.default_rng(seed).integers(-2, 3))
        self.dir = tempfile.mkdtemp(prefix="lattice-", dir=workdir)
        self.m = None
        # each command's output file, in session order
        self.files = {cmd: os.path.join(self.dir, name) for cmd, name in [
            ("generate", "points.csv"), ("analyze", "report.json"), ("ultrametric", "star.csv"),
            ("cluster", "clusters.csv"), ("histogram", "hist.csv"),
        ]}
        points, star = self.files["generate"], self.files["ultrametric"]
        grid, cl = f"{self.grid}x{self.grid}", f"{self.cluster}x{self.cluster}"
        args = {
            "generate": ["--grid", grid, "--cluster", cl, "--spacing", repr(self.spacing),
                         "--gap", repr(3 * self.spacing)],
            "analyze": ["--input", points, "--kind", "points"],
            "ultrametric": ["--input", points, "--kind", "points"],
            "cluster": ["--input", star, "--radius", "auto"],
            "histogram": ["--input", star, "--mode", "binned"],
        }
        self.argvs = {cmd: [cmd, *args[cmd], "--output", path] for cmd, path in self.files.items()}

    def run(self):
        ops = {}
        for cmd, argv in self.argvs.items():
            code = self.call(ops, cmd, cli.main, argv)
            if code != 0 and not isinstance(code, Exception):
                ops[cmd] = RuntimeError(f"exit code {code}")
        return ops

    def collect(self, ops):
        out = {}
        for cmd, value in ops.items():
            if isinstance(value, Exception):
                out[cmd] = value
            else:
                with open(self.files[cmd], "rb") as fh:
                    out[cmd] = fingerprint(fh.read())
        return out

    def reset(self):
        # the next pass must write every output afresh
        for path in self.files.values():
            if os.path.exists(path):
                os.remove(path)

    def check(self, ops):
        bad = {}
        f = self.files
        config = data.LatticeConfig(self.grid, self.grid, self.cluster, self.cluster,
                                    spacing=self.spacing, gap=3 * self.spacing)
        points = data.load_points_csv(f["generate"])
        if not np.array_equal(points, data.lattice_generate(config)):
            bad["generate"] = "points differ from lattice_generate"
        a = data.pairwise_matrix(points)
        ref = semiring.stabilize(a)
        self.m = ref.m
        star = data.load_matrix_csv(f["ultrametric"])
        if not (np.array_equal(star, ref.star) and np.array_equal(star, ultrametric.minimax_oracle(a))):
            bad["ultrametric"] = "star.csv differs from stabilize / minimax_oracle"
        with open(f["analyze"]) as fh:
            report = json.load(fh)
        hist = clustering.distance_histogram(ref.star)
        radius = clustering.radii_from_valleys(hist, 1)[0][0]
        expected = {
            "n": self.n, "m": ref.m, "clusterability": ref.ultrametricity,
            "ultrametricity": ref.ultrametricity, "is_ultrametric": ref.m == 1,
            "distinct_values_before": int(np.unique(_upper(a)).size),
            "distinct_values_after": int(np.unique(_upper(ref.star)).size),
            "estimated_k": clustering.estimate_num_clusters(hist.num_peaks),
            "suggested_radius": radius,
        }
        if report != expected:
            bad["analyze"] = f"report {report} disagrees with stabilize {expected}"
        else:
            reason = _m_failure(a, ref.star, ref.m)
            if reason:
                bad["analyze"] = reason
        assignment = np.loadtxt(f["cluster"], delimiter=",", dtype=int)[:, 1]
        labels = clustering.Clustering(n=self.n, assignment=assignment)
        if labels.num_clusters != self.grid ** 2 or not clustering.is_perfect_clustering(ref.star, labels):
            bad["cluster"] = "auto-radius clusters are not the lattice's perfect clustering"
        counts = np.loadtxt(f["histogram"], delimiter=",", ndmin=2)[:, 1]
        binned = clustering.distance_histogram(ref.star, mode="binned")
        if not np.array_equal(counts, binned.counts) or counts.sum() != self.n * (self.n - 1) // 2:
            bad["histogram"] = "binned histogram rows disagree with distance_histogram"
        return bad

    def close(self):
        shutil.rmtree(self.dir, ignore_errors=True)


class UltrametricQueries(Workload):
    name = "ultrametric-queries"
    why = ("the read side on an already-ultrametric n=600 matrix: recognition, histograms, "
           "valleys and 16 spheric clusterings, no power chain")

    def __init__(self, seed, smoke, workdir):
        self.n = 30 if smoke else 600
        self.u = ultrametric.minimax_oracle(random_dissim(np.random.default_rng(seed), self.n))
        levels = np.unique(_upper(self.u))
        picks = np.unique(np.linspace(0, levels.size - 1, QUERY_RADII).round().astype(int))
        self.radii = [float(r) for r in levels[picks]]
        self.m = 1

    def run(self):
        ops = {}
        self.call(ops, "is_ultrametric", ultrametric.is_ultrametric, self.u)
        hd = self.call(ops, "histogram.distinct", clustering.distance_histogram, self.u)
        hb = self.call(ops, "histogram.binned", clustering.distance_histogram, self.u, mode="binned")
        for key, h in (("radii.distinct", hd), ("radii.binned", hb)):
            if isinstance(h, Exception):
                ops[key] = h
            else:
                self.call(ops, key, clustering.radii_from_valleys, h, QUERY_RADII)
        for i, r in enumerate(self.radii):
            self.call(ops, f"cluster.{i:02d}", clustering.spheric_clustering, self.u, r)
        return ops

    def check(self, ops):
        bad = {}
        if ops["is_ultrametric"] is not True:
            bad["is_ultrametric"] = "minimax_oracle output not recognised as ultrametric"
        values, counts = np.unique(_upper(self.u), return_counts=True)
        hd = ops["histogram.distinct"]
        if not (np.array_equal(hd.values, values) and np.array_equal(hd.counts, counts) and hd.overflow == 0):
            bad["histogram.distinct"] = "distinct histogram differs from numpy.unique"
        hb = ops["histogram.binned"]
        if hb.counts.sum() != self.n * (self.n - 1) // 2:
            bad["histogram.binned"] = "binned counts do not add up to the pair count"
        for key in ("radii.distinct", "radii.binned"):
            radii, shortfall = ops[key]
            if radii != sorted(radii, reverse=True) or shortfall != (len(radii) < QUERY_RADII):
                bad[key] = "radii not descending or shortfall flag wrong"
        previous = None
        for i in range(len(self.radii)):
            key = f"cluster.{i:02d}"
            c = ops[key]
            if not clustering.is_perfect_clustering(self.u, c):
                bad[key] = f"clustering at radius {c.radius} is not perfect"
            elif previous is not None:
                pairs = np.unique(np.stack([previous.assignment, c.assignment]), axis=1)
                if pairs.shape[1] != previous.num_clusters:
                    bad[key] = f"clustering at radius {c.radius} does not nest the smaller one"
            previous = c
        return bad


WORKLOADS = {w.name: w for w in (DenseRandom, LatticeCli, UltrametricQueries)}
