"""Tests of the benchmark itself, on the tiny smoke inputs (n about 30)."""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import tracer  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
NAMES = list(workloads.WORKLOADS)


def bench(workload, trace, cwd=ROOT, bench_dir=HERE):
    cmd = [sys.executable, str(bench_dir / "run.py"), "--workload", workload, "--seed", "7",
           "--seconds", "0.2", "--trace", str(trace), "--smoke"]
    return subprocess.run(cmd, capture_output=True, text=True, timeout=120, cwd=cwd)


def result_of(proc):
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    return json.loads(lines[-2])["info"], json.loads(lines[-1])


@pytest.mark.parametrize("workload", NAMES)
def test_untraced_run_reports_end_to_end_metrics(workload):
    info, result = result_of(bench(workload, 0))
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    assert set(result["metrics"]) == {m["name"] for m in SPEC["end_to_end"]}
    assert all(v["value"] > 0 for v in result["metrics"].values())
    assert info["error_rate"] == 0 and info["n"] >= 30 and info["m"] >= 1
    assert info["thread_caps"] == dict.fromkeys(("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"), "1")
    assert info["why"] == workloads.WORKLOADS[workload].why


def test_listed_workloads_match_the_harness():
    for w in SPEC["workloads"]:
        assert workloads.WORKLOADS[w["name"]].why == w["why"]


@pytest.mark.parametrize("workload", NAMES)
def test_traced_counts_repeat_exactly_across_runs(workload):
    runs = [result_of(bench(workload, 1))[1] for _ in range(2)]
    for result in runs:
        assert result["correct"] and result["failed"] == 0
        assert set(result["metrics"]) == {m["name"] for m in SPEC["per_layer"]}
        assert result["metrics"]["trace.layer_self_share"]["value"] > 0.8
    counts = [
        {k: v["value"] for k, v in r["metrics"].items() if v["unit"] in ("count", "bytes-computed", "bytes", "ratio")
         and k != "trace.layer_self_share"}
        for r in runs
    ]
    assert counts[0] == counts[1]
    assert counts[0]["semiring.minmax_product.calls"] >= 1


def test_bare_directory_fails_without_a_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = bench("dense-random", 0, cwd=tmp_path, bench_dir=tmp_path / "perfbench")
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def test_patched_reaches_every_binding_and_restores():
    from ultraclust import cli, semiring, ultrametric

    originals = (semiring.minmax_product, ultrametric.minmax_product, cli.stabilize)
    t = tracer.Tracer()
    with tracer.patched(t):
        assert ultrametric.minmax_product is semiring.minmax_product is not originals[0]
        assert cli.stabilize is semiring.stabilize is not originals[2]
        semiring.stabilize(np.array([[0.0, 1.0, 3.0], [1.0, 0.0, 2.0], [3.0, 2.0, 0.0]]))
    assert (semiring.minmax_product, ultrametric.minmax_product, cli.stabilize) == originals
    names = [s[0] for s in t.spans]
    # the products made inside the doubling search are children of stabilize
    assert names[0] == "semiring.stabilize" and names.count("semiring.minmax_product") >= 2
    assert all(s[3] == 0 for s in t.spans[1:])
    row = tracer.layer_metrics(t.spans, t.spans[0][2] - t.spans[0][1])
    assert row["semiring.stabilize.products_per_log2m"] == names.count("semiring.minmax_product") / 1


def test_checks_catch_a_wrong_m(tmp_path):
    w = workloads.DenseRandom(3, True, str(tmp_path))
    ops = w.run()
    assert w.check(ops) == {}
    r = ops["stabilize"]
    ops["stabilize"] = type(r)(r.star, r.m + 1, w.n / (r.m + 1))
    assert "stabilize" in w.check(ops)


def test_checks_catch_a_clustering_that_does_not_nest(tmp_path):
    w = workloads.UltrametricQueries(3, True, str(tmp_path))
    ops = w.run()
    assert w.check(ops) == {}
    c = ops["cluster.03"]
    ops["cluster.03"] = type(c)(n=c.n, assignment=np.arange(c.n), radius=c.radius)
    assert "cluster.03" in w.check(ops)
