"""Steadiness check: two sets of runs of one commit must agree.

Usage (from the repository root)::

    python3 perfbench/steady.py [--workloads trading,warehouse,trading-serve]

Two sets of ``RUNS`` runs of every workload, each run ``run_seconds``
(from ``BENCHMARK.json``) long with its own seed: seeds 1-10 in the
first set, 11-20 in the second, workloads interleaved so that a slow
spell of the host lands on all of them alike.  For each end-to-end
metric it prints both sets' median and quartiles, the spread
(interquartile distance over the median) and whether the sets agree:
every spread within the metric's bound, the two medians within the
bound of each other (either way), and the same share of failed
operations.  Exits 1 when they do not.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SETS = 2
RUNS = 10


def run_once(workload: str, seed: int) -> dict:
    began = time.monotonic()
    out = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(seed), "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=180,
    )
    if out.returncode != 0:
        raise SystemExit(f"{workload} seed {seed} failed:\n{out.stderr}")
    result = json.loads(out.stdout.strip().splitlines()[-1])
    result["wall_s"] = time.monotonic() - began
    return result


def describe(values: list[float]) -> dict:
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return {"median": q2, "q1": q1, "q3": q3, "spread": (q3 - q1) / q2}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads")
    args = parser.parse_args()
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        spec = json.load(handle)
    workloads = (
        args.workloads.split(",") if args.workloads
        else [w["name"] for w in spec["workloads"]]
    )
    bounds = {m["name"]: m for m in spec["end_to_end"]}

    results: dict = {w: [] for w in workloads}
    for k in range(SETS):
        runs = {w: [] for w in workloads}
        for i in range(RUNS):
            seed = 1 + k * RUNS + i
            for workload in workloads:
                runs[workload].append(run_once(workload, seed))
                print(f"set {k + 1} seed {seed} {workload}: "
                      f"{runs[workload][-1]['wall_s']:.1f}s", file=sys.stderr)
        for workload in workloads:
            results[workload].append(runs[workload])

    agree = True
    report: dict = {}
    for workload in workloads:
        print(f"\n{workload}")
        report[workload] = {}
        shares = [
            sum(r["failed"] for r in runs) / sum(r["attempted"] for r in runs)
            for runs in results[workload]
        ]
        walls = [r["wall_s"] for runs in results[workload] for r in runs]
        print(f"  failed share per set: {shares}; slowest run {max(walls):.1f}s")
        agree &= len(set(shares)) == 1 and all(
            r["correct"] for runs in results[workload] for r in runs
        )
        for name, metric in bounds.items():
            sets = [
                describe([r["metrics"][name]["value"] for r in runs])
                for runs in results[workload]
            ]
            report[workload][name] = sets
            bound = metric["bound"]
            first, second = (summary["median"] for summary in sets)
            ok = (
                all(summary["spread"] <= bound for summary in sets)
                and abs(second - first) / first <= bound
            )
            agree &= ok
            cells = "  ".join(
                f"med {s['median']:.4g} [q1 {s['q1']:.4g}, q3 {s['q3']:.4g}] "
                f"spread {s['spread']:.3f}"
                for s in sets
            )
            print(f"  {name:<14} bound {bound:<5} {'ok ' if ok else 'BAD'} {cells}")
    os.makedirs(os.path.join(HERE, ".work"), exist_ok=True)
    path = os.path.join(HERE, ".work", f"steady-{int(time.time())}.json")
    with open(path, "w") as handle:
        json.dump({"report": report, "runs": results}, handle)
    print(f"\nsets agree: {agree} (raw results in {os.path.relpath(path, ROOT)})")
    return 0 if agree else 1


if __name__ == "__main__":
    sys.exit(main())
