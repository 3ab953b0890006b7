"""Run the benchmark over several seeds and report each metric's spread.

    python3 perfbench/spread.py --seeds 10                 # the workloads in BENCHMARK.json
    python3 perfbench/spread.py --seeds 5 --workload lattice-cli
    python3 perfbench/spread.py --seeds 1 --workload dense-random \
        --workload lattice-cli --workload ultrametric-queries   # each once, by name
    python3 perfbench/spread.py --seeds 10 --out perfbench/BASELINE.json

Each run prints its end-to-end metrics and error rate by name and unit.
For every end-to-end metric it then prints the median over the seeds and the
distance between the first and third quartiles as a share of the median,
beside the metric's bound from BENCHMARK.json.  Seeds run interleaved across
workloads, so a slow stretch of the machine spreads over all of them.  With
``--out`` it also makes one traced run per workload and records its exact
counts, the environment and every value.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def run_once(workload: str, seed: int, seconds: int, trace: int) -> tuple[dict, dict]:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=600, cwd=ROOT)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or len(lines) < 2:
        raise SystemExit(f"{' '.join(cmd)} failed ({proc.returncode}):\n{proc.stderr}")
    return json.loads(lines[-2])["info"], json.loads(lines[-1])


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]]
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", action="append", help="default: those in BENCHMARK.json")
    p.add_argument("--seeds", type=int, default=10)
    p.add_argument("--first-seed", type=int, default=1)
    p.add_argument("--seconds", type=int, default=spec["run_seconds"])
    p.add_argument("--out", help="write medians, spreads and traced counts as JSON")
    args = p.parse_args(argv)
    workloads = args.workload or names
    seeds = list(range(args.first_seed, args.first_seed + args.seeds))

    values = {w: {m["name"]: [] for m in spec["end_to_end"]} for w in workloads}
    infos = {w: [] for w in workloads}
    ok = True
    for seed in seeds:
        for w in workloads:
            info, result = run_once(w, seed, args.seconds, 0)
            ok &= result["correct"] and result["failed"] == 0
            infos[w].append(info)
            for name, v in result["metrics"].items():
                values[w][name].append(v["value"])
            print(f"seed {seed:3d} {w:21s} " + " ".join(
                f"{k}={v['value']:.4g} {v['unit']}" for k, v in result["metrics"].items())
                + f" error_rate={info['error_rate']:.4g} failed/attempted"
                f" ({result['failed']}/{result['attempted']}) n={info['n']} m={info['m']}", flush=True)
    if len(seeds) < 2:  # quartiles need two values
        print("all outputs correct" if ok else "SOME OUTPUTS FAILED THEIR CHECKS")
        return 0 if ok else 1

    report = {"seeds": seeds, "seconds": args.seconds, "workloads": {}}
    print(f"\n{'workload':21s} {'metric':12s} {'median':>10s} {'q1':>10s} {'q3':>10s} {'spread':>7s} {'bound':>6s}")
    for w in workloads:
        rows = {}
        for m in spec["end_to_end"]:
            vals = values[w][m["name"]]
            q1, _, q3 = statistics.quantiles(vals, n=4)
            med = statistics.median(vals)
            spread = (q3 - q1) / med
            rows[m["name"]] = {"unit": m["unit"], "median": med, "q1": q1, "q3": q3,
                               "spread": spread, "bound": m["bound"], "values": vals}
            flag = "" if spread < m["bound"] / 3 else ("  > bound/3" if spread <= m["bound"] else "  > BOUND")
            print(f"{w:21s} {m['name']:12s} {med:10.4g} {q1:10.4g} {q3:10.4g} {spread:7.3f} {m['bound']:6.2f}{flag}")
        last = infos[w][-1]
        report["workloads"][w] = {
            "why": last["why"], "n": last["n"], "m": sorted({i["m"] for i in infos[w]}),
            "error_rate": max(i["error_rate"] for i in infos[w]), "metrics": rows,
        }
    if args.out:
        for w in workloads:
            info, result = run_once(w, seeds[0], args.seconds, 1)
            ok &= result["correct"] and result["failed"] == 0
            report["workloads"][w]["traced_seed"] = seeds[0]
            report["workloads"][w]["per_layer"] = {k: v["value"] for k, v in result["metrics"].items()}
        report["environment"] = {k: last[k] for k in ("python", "numpy", "cpu_count", "thread_caps")}
        Path(args.out).write_text(json.dumps(report, indent=1) + "\n")
    print("all outputs correct" if ok else "SOME OUTPUTS FAILED THEIR CHECKS")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
