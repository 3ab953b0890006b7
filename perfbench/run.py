"""Layered benchmark for ultraclust.

    python3 perfbench/run.py --workload dense-random --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload lattice-cli --seed 1 --seconds 1 --trace 1 --smoke
    python3 perfbench/spread.py --seeds 1     # every workload, metrics by name and unit

Run from the root of a source checkout; the package is imported from
``src/``.  One run builds the workload's inputs from the seed, repeats the
workload's pass for ``--seconds`` seconds, checks the outputs outside the
timed region and prints an info line and, last, one JSON result line.

With ``--trace 0`` the result holds the end-to-end metrics: ``run_s`` (the
median pass time), ``setup_s`` (median over separate processes of the time
from process start to inputs ready) and ``peak_rss_mb``.  With ``--trace 1``
traced and untraced passes alternate, and the result holds the per-layer
metrics of the traced passes; the spans are written to
``.perfbench_out/trace-<workload>-seed<seed>.json``.

An operation is one library call or CLI command of a pass.  It fails when it
raises, exits nonzero, fails its output check (first pass) or differs from
the first pass's output (later passes).  Exit status is nonzero when the
package cannot be imported from the checkout.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
TMP = ROOT / ".perfbench_tmp"
OUT = ROOT / ".perfbench_out"
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
SETUP_PROCESSES = 7

# every workload runs single-threaded; set before numpy is first imported
for _var in THREAD_VARS:
    os.environ[_var] = "1"


def _now() -> float:
    # CLOCK_MONOTONIC is system-wide, so a child can measure from the parent's spawn
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def _import_package():
    """Import the workloads from this checkout's src/, or exit 2."""
    if not (SRC / "ultraclust" / "__init__.py").is_file():
        sys.exit(f"perfbench: no ultraclust package under {SRC}")
    sys.path.insert(0, str(SRC))
    try:
        import workloads
        import ultraclust
    except ImportError as exc:
        sys.exit(f"perfbench: cannot import ultraclust: {exc}")
    if Path(ultraclust.__file__).resolve().parent != (SRC / "ultraclust").resolve():
        sys.exit(f"perfbench: imported ultraclust from {ultraclust.__file__}, not {SRC}")
    return workloads


def _summary(samples: list[float]) -> dict:
    """Median, sample count, and the highest percentile with ten samples above it."""
    if not samples:
        return {"count": 0}
    s = sorted(samples)
    out = {"count": len(s), "median": statistics.median(s), "min": s[0], "max": s[-1]}
    # below 11 samples no percentile has ten samples beyond it
    if len(s) >= 11:
        out["tail"] = {"percentile": 100.0 * (len(s) - 10) / len(s), "value": s[-11]}
    return out


def _setup_child(args) -> int:
    wl = _import_package()
    workload = wl.WORKLOADS[args.workload](args.seed, args.smoke, _workdir())
    ready = _now() - args.t0
    workload.close()
    print(repr(ready))
    return 0


def _workdir() -> str:
    TMP.mkdir(exist_ok=True)
    return str(TMP)


def _measure_setup(args) -> list[float]:
    samples = []
    for _ in range(SETUP_PROCESSES):
        cmd = [sys.executable, str(Path(__file__).resolve()), "--setup-only",
               "--workload", args.workload, "--seed", str(args.seed), "--t0", repr(_now())]
        if args.smoke:
            cmd.append("--smoke")
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=120, check=True)
        samples.append(float(proc.stdout.strip().splitlines()[-1]))
    return samples


def _run(args) -> int:
    wl = _import_package()
    import tracer as tr

    started = _now()
    setup_samples = [] if args.trace else _measure_setup(args)
    setup_tracer = tr.Tracer()
    t0 = time.perf_counter()
    with tr.patched(setup_tracer) if args.trace else contextlib.nullcontext():
        workload = wl.WORKLOADS[args.workload](args.seed, args.smoke, _workdir())
    setup_wall = time.perf_counter() - t0

    tracer = tr.Tracer()
    plain, traced, layer_rows = [], [], []
    first_raw, first_fp = None, None
    attempted = 0
    failed: dict[tuple[int, str], str] = {}  # (pass, operation) -> reason
    counts_seen = None
    try:
        measure_start = time.perf_counter()
        while True:
            # trace mode alternates traced and plain passes, starting traced
            use_trace = bool(args.trace) and len(traced) <= len(plain)
            workload.reset()
            base = len(tracer.spans)
            with tr.patched(tracer) if use_trace else contextlib.nullcontext():
                t0 = time.perf_counter()
                raw = workload.run()
                wall = time.perf_counter() - t0
            (traced if use_trace else plain).append(wall)
            fps = workload.collect(raw)
            npass = len(plain) + len(traced) - 1
            attempted += len(fps)
            for key, value in fps.items():
                if isinstance(value, Exception):
                    failed[npass, key] = f"raised {value!r}"
                elif first_fp is not None and value != first_fp.get(key):
                    failed[npass, key] = "output differs from the first pass"
            if first_fp is None:
                first_raw, first_fp = raw, fps
            if use_trace:
                spans = [s[:3] + [s[3] - base if s[3] >= 0 else -1, s[4]] for s in tracer.spans[base:]]
                row = tr.layer_metrics(spans, wall)
                layer_rows.append(row)
                counts = {k: v for k, v in row.items() if k.endswith((".calls", ".ops", ".bytes"))}
                if counts_seen is not None and counts != counts_seen:
                    failed[npass, "trace.counts"] = "operation counts differ between traced passes"
                counts_seen = counts
            # stop before a pass that would end after --seconds; trace mode
            # needs two traced passes (to compare counts) and one plain pass
            typical = statistics.median(plain + traced)
            left = args.seconds - (time.perf_counter() - measure_start)
            if typical > left and (not args.trace or (len(traced) >= 2 and plain)):
                break
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

        if not any(isinstance(v, Exception) for v in first_raw.values()):
            try:
                for key, reason in workload.check(first_raw).items():
                    failed.setdefault((0, key), reason)
            except Exception as exc:  # a check that cannot run fails every operation
                for key in first_fp:
                    failed.setdefault((0, key), f"check raised {exc!r}")
    finally:
        workload.close()

    nfailed = len(failed)
    info = {
        "workload": args.workload,
        "why": workload.why,
        "seed": args.seed,
        "smoke": args.smoke,
        "trace": args.trace,
        "n": workload.n,
        "m": workload.m,
        "python": platform.python_version(),
        "numpy": sys.modules["numpy"].__version__,
        "cpu_count": os.cpu_count(),
        "thread_caps": {v: os.environ[v] for v in THREAD_VARS},
        "passes": len(plain) + len(traced),
        "run_s": _summary(plain),
        "traced_run_s": _summary(traced),
        "setup_s": _summary(setup_samples),
        "error_rate": nfailed / attempted,
        "failures": [f"pass {i} {key}: {why}" for (i, key), why in sorted(failed.items())][:20],
        "wall_s": _now() - started,
    }
    if args.trace:
        # counts repeat exactly (checked above); timings take the median pass
        metrics = {k: v if isinstance(v, int) else statistics.median(r[k] for r in layer_rows)
                   for k, v in layer_rows[0].items()}
        metrics["trace.run_s"] = statistics.median(traced)
        metrics["trace.overhead_s"] = metrics["trace.run_s"] - statistics.median(plain)
        setup_row = tr.layer_metrics(setup_tracer.spans, setup_wall)
        metrics["setup.ultrametric.minimax_oracle.s"] = setup_row["ultrametric.minimax_oracle.s"]
        with open(ROOT / "BENCHMARK.json") as fh:
            units = {m["name"]: m["unit"] for m in json.load(fh)["per_layer"]}
        result_metrics = {k: {"value": metrics[k], "unit": units[k]} for k in units}
        OUT.mkdir(exist_ok=True)
        with open(OUT / f"trace-{args.workload}-seed{args.seed}.json", "w") as fh:
            json.dump({"info": info, "layer_metrics_per_pass": layer_rows,
                       "setup_spans": setup_tracer.spans, "spans": tracer.spans}, fh)
    else:
        result_metrics = {
            "run_s": {"value": statistics.median(plain), "unit": "s"},
            "setup_s": {"value": statistics.median(setup_samples), "unit": "s"},
            "peak_rss_mb": {"value": peak_rss_mb, "unit": "MiB"},
        }
    print(json.dumps({"info": info}))
    print(json.dumps({
        "correct": nfailed == 0,
        "attempted": attempted,
        "failed": nfailed,
        "metrics": result_metrics,
    }))
    return 0


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True,
                   choices=["dense-random", "lattice-cli", "ultrametric-queries"])
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=45.0)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    p.add_argument("--smoke", action="store_true", help="tiny inputs (n about 30), same code path")
    p.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    p.add_argument("--t0", type=float, help=argparse.SUPPRESS)
    args = p.parse_args(argv)
    if args.setup_only:
        return _setup_child(args)
    return _run(args)


if __name__ == "__main__":
    sys.exit(main())
