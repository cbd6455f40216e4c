"""Smoke test of the benchmark itself, on tiny inputs (about a minute).

Usage (from the repository root)::

    python3 perfbench/smoke.py

Checks that every workload runs clean with every end-to-end metric
above zero; that the traced run reports every per-layer metric, with
the durability, view and serving layers at zero on ``trading`` and above
zero on ``trading-serve``; and that one corrupted result row makes a
run report a failed operation and ``correct: false`` (the oracle is not
vacuous).  Exits 1 on the first problem.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

from run import load_spec, units  # noqa: E402

SERVED_LAYERS = ("runtime.durability.", "runtime.views.", "runtime.serving.")
#: Served-layer metrics that may read zero on tiny inputs: the final
#: SIGKILL can leave no WAL frame past the last snapshot to replay.
MAY_BE_ZERO = {"runtime.durability.replay_frames"}


def run(workload: str, *flags: str) -> dict:
    out = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", "7", "--seconds", "1", "--smoke", *flags],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    if out.returncode != 0:
        fail(f"{workload} {flags} exited {out.returncode}:\n{out.stderr}")
    return json.loads(out.stdout.strip().splitlines()[-1])


def fail(message: str) -> None:
    print(f"FAIL: {message}")
    sys.exit(1)


def main() -> int:
    spec = load_spec()
    end_to_end, per_layer = units(spec, 0), units(spec, 1)
    for workload in (w["name"] for w in spec["workloads"]):
        plain = run(workload, "--trace", "0")
        if not plain["correct"] or plain["failed"] or plain["attempted"] < 1:
            fail(f"{workload}: {plain}")
        zero = [n for n, m in plain["metrics"].items() if not m["value"] > 0]
        if zero or set(plain["metrics"]) != set(end_to_end):
            fail(f"{workload}: bad end-to-end metrics {zero or plain['metrics']}")

        traced = run(workload, "--trace", "1")
        metrics = traced["metrics"]
        if set(metrics) != set(per_layer) or not traced["correct"]:
            fail(f"{workload}: traced run {traced}")
        served = {n: m["value"] for n, m in metrics.items() if n.startswith(SERVED_LAYERS)}
        if workload == "trading":
            if any(served.values()):
                fail(f"trading touched served layers: {served}")
        elif workload == "trading-serve":
            idle = [n for n, v in served.items() if not v > 0 and n not in MAY_BE_ZERO]
            if idle:
                fail(f"trading-serve: served layers read zero: {idle}")

        corrupted = run(workload, "--trace", "0", "--corrupt")
        if corrupted["correct"] or corrupted["failed"] < 1:
            fail(f"{workload}: a corrupted row went unnoticed: {corrupted}")
        print(f"ok {workload}: {plain['attempted']} operations, corruption caught "
              f"({corrupted['failed']} failed)")
    print("smoke ok")
    return 0


if __name__ == "__main__":
    sys.exit(main())
