"""The end-to-end benchmark: ``trading``, ``warehouse`` and ``trading-serve``.

Usage (from the repository root)::

    python3 perfbench/run.py --workload trading --seed 1 --trace 0
    python3 perfbench/run.py --workload all            # every workload, both modes

A run repeats whole rounds of one workload's seeded inputs until
``--seconds`` (default: ``run_seconds`` in ``BENCHMARK.json``) have passed (at least ``MIN_ROUNDS``), checking every
round against the sqlite3 oracle.  ``--trace 0`` prints the end-to-end
metrics; ``--trace 1`` alternates untraced and traced rounds and prints
the per-layer metrics (with the tracing overhead).  The last line of
standard output is one JSON object: ``correct``, ``attempted``,
``failed`` (operations) and ``metrics``.  See ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
MIN_ROUNDS = 3


def load_spec() -> dict:
    """``BENCHMARK.json``: the workloads and every metric's name and unit."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        return json.load(handle)


def units(spec: dict, trace: int) -> dict:
    """Metric name -> unit: the per-layer metrics when tracing (``us/event``
    is self time per stream event, ``_ms`` set-up metrics are per set-up,
    counts and bytes per round), else the end-to-end ones."""
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def _setup_paths() -> None:
    src = os.path.join(ROOT, "src")
    if not os.path.isdir(os.path.join(src, "repro")):
        sys.exit(f"perfbench: no program sources at {src}")
    sys.path[:0] = [src, HERE]


def run_workload(workload, seed, seconds, trace, smoke=False, corrupt=False) -> dict:
    import gc
    from statistics import median
    from time import perf_counter as now

    import inproc
    import served
    from common import Checker, percentile
    from oracle import expected_at
    from streams import SIZES, SMOKE_SIZES, Inputs
    from tracing import Tracer, install_layer_probes, merge_summaries

    sizes = (SMOKE_SIZES if smoke else SIZES)[workload]
    inputs = Inputs(workload, seed, sizes)
    expected = expected_at(inputs, [0, *inputs.checkpoints])
    checker = Checker(corrupt)
    tracer = Tracer()
    workdir = os.path.join(HERE, ".work")
    spans = os.path.join(workdir, f"spans-{workload}-{seed}") if trace else None
    if workload != "trading-serve":
        # Warm-up: first-time imports and compiles are not a set-up cost.
        inproc.run_round(inputs, expected, Checker(), tracer, False)
    if trace:
        install_layer_probes(tracer, client=workload == "trading-serve")

    rounds = []
    deadline = now() + seconds
    while len(rounds) < MIN_ROUNDS or now() < deadline:
        traced = bool(trace) and len(rounds) % 2 == 1
        gc.collect()
        if workload == "trading-serve":
            result = served.run_round(
                inputs, expected, checker, tracer, traced, workdir, seed, smoke,
                spans if traced else None,
            )
        else:
            result = inproc.run_round(inputs, expected, checker, tracer, traced)
        result["traced"] = traced
        rounds.append(result)
    tracer.uninstall()
    if spans:
        tracer.write(spans + ".json")

    plain = [r for r in rounds if not r["traced"]]
    state = rounds[-1]["state"]
    report = {
        "attempted": sum(r["operations"] for r in rounds),
        "failed": sum(r["failed"] for r in rounds),
        "correct": checker.mismatches == 0 and all(r["failed"] == 0 for r in rounds),
        "rounds": len(rounds),
    }
    if not trace:
        latencies = [x for r in plain for x in r["latencies"]]
        report["metrics"] = {
            "events_per_s": median([w for r in plain for w in r["windows"]]),
            "batch_p50_us": percentile(latencies, 0.50) * 1e6,
            "batch_p99_us": percentile(latencies, 0.99) * 1e6,
            "setup_s": median([r["setup_s"] for r in plain]),
            "state_mb": state["bytes"] / 1e6,
        }
        report["samples"] = len(latencies)
        if workload == "trading-serve":
            report["serving"] = {
                "recover_s": median([r["recover_s"] for r in plain]),
                "wire_bytes_per_event": median(
                    [r["wire_bytes"] / r["events"] for r in plain]
                ),
            }
        return report

    traced = [r for r in rounds if r["traced"]]
    setup = merge_summaries([r["setup_trace"] for r in traced])
    stream = merge_summaries([r["stream_trace"] for r in traced])
    restart = merge_summaries([r["restart_trace"] for r in traced if "restart_trace" in r])
    n_rounds = len(traced)
    events = sum(r["events"] for r in traced)
    untraced_eps = median([w for r in plain for w in r["windows"]])
    traced_eps = median([w for r in traced for w in r["windows"]])

    def self_ms(name):
        return setup["self_ns"].get(name, 0) / 1e6 / n_rounds

    def per_event(name):
        return stream["self_ns"].get(name, 0) / 1e3 / events

    def per_round(value):
        return value / n_rounds

    calls = stream["calls"]
    counters = stream["counters"]
    dispatches = calls.get("runtime.engine.dispatch", 0)
    wal_bytes = counters.get("runtime.durability.wal_bytes", 0)
    restarts = len([r for r in traced if "restart_trace" in r])
    metrics = {
        "algebra.translate_ms": self_ms("algebra.translate"),
        "compiler.compile_ms": self_ms("compiler.compile"),
        "compiler.maps": setup["gauges"].get("compiler.maps", 0),
        "compiler.statements": setup["gauges"].get("compiler.statements", 0),
        "ir.lower_ms": self_ms("ir.lower"),
        "ir.optimize_ms": self_ms("ir.optimize"),
        "codegen.build_ms": self_ms("codegen.build"),
        "codegen.source_lines": setup["gauges"].get("codegen.source_lines", 0),
        "runtime.engine.batches": per_round(dispatches),
        "runtime.engine.rows_per_batch": (
            counters.get("runtime.engine.rows", 0) / dispatches if dispatches else 0
        ),
        "runtime.engine.dispatch_us": per_event("runtime.engine.dispatch"),
        "runtime.engine.execute_calls": per_round(calls.get("runtime.engine.execute", 0)),
        "runtime.engine.execute_us": per_event("runtime.engine.execute"),
        "runtime.engine.execute_batch_calls": per_round(
            calls.get("runtime.engine.execute_batch", 0)
        ),
        "runtime.engine.execute_batch_us": per_event("runtime.engine.execute_batch"),
        "runtime.storage.entries": state["entries"],
        "runtime.storage.index_entries": state["index_entries"],
        "runtime.storage.bytes": state["bytes"],
        "runtime.durability.precheck_us": per_event("runtime.durability.precheck"),
        "runtime.durability.appends": per_round(calls.get("runtime.durability.append", 0)),
        "runtime.durability.append_us": per_event("runtime.durability.append"),
        "runtime.durability.encode_us": per_event("runtime.durability.encode"),
        "runtime.durability.wal_bytes": per_round(wal_bytes),
        "runtime.durability.wal_bytes_per_event": wal_bytes / events,
        "runtime.durability.syncs": per_round(calls.get("runtime.durability.sync", 0)),
        "runtime.durability.sync_ms": per_round(
            stream["total_ns"].get("runtime.durability.sync", 0) / 1e6
        ),
        "runtime.durability.snapshots": per_round(
            calls.get("runtime.durability.snapshot", 0)
        ),
        "runtime.durability.snapshot_ms": per_round(
            stream["self_ns"].get("runtime.durability.snapshot", 0) / 1e6
        ),
        "runtime.durability.recover_s": (
            median([r["recover_s"] for r in plain]) if restarts else 0
        ),
        "runtime.durability.recover_load_ms": (
            restart["total_ns"].get("runtime.durability.recover_load", 0) / 1e6 / restarts
            if restarts else 0
        ),
        "runtime.durability.replay_ms": (
            restart["total_ns"].get("runtime.durability.replay", 0) / 1e6 / restarts
            if restarts else 0
        ),
        "runtime.durability.replay_frames": (
            restart["counters"].get("runtime.durability.replay.items", 0) / restarts
            if restarts else 0
        ),
        "runtime.views.render_calls": per_round(calls.get("runtime.views.render", 0)),
        "runtime.views.render_us": per_event("runtime.views.render"),
        "runtime.views.rows_rendered": per_round(
            counters.get("runtime.views.rows_rendered", 0)
        ),
        "runtime.views.diff_us": per_event("runtime.views.diff"),
        "runtime.views.changed_rows": per_round(
            counters.get("runtime.views.changed_rows", 0)
        ),
        "runtime.serving.tap_us": per_event("runtime.serving.tap"),
        "runtime.serving.frames_sent": per_round(calls.get("runtime.serving.encode", 0)),
        "runtime.serving.encode_us": per_event("runtime.serving.encode"),
        "runtime.serving.frame_bytes": per_round(
            counters.get("runtime.serving.frame_bytes", 0)
        ),
        "runtime.serving.client_decode_us": per_event("runtime.serving.client_decode"),
        "runtime.serving.wire_bytes_per_event": (
            median([r["wire_bytes"] / r["events"] for r in traced])
            if workload == "trading-serve" else 0
        ),
        "trace.events_per_s_untraced": untraced_eps,
        "trace.events_per_s_traced": traced_eps,
        "trace.overhead_pct": (untraced_eps / traced_eps - 1) * 100,
        "trace.spans": per_round(stream["spans"] + setup["spans"]),
    }
    report["metrics"] = metrics
    return report


def _print_human(workload: str, unit_of: dict, report: dict) -> None:
    print(f"# {workload}: rounds={report['rounds']} attempted={report['attempted']} "
          f"failed={report['failed']} correct={report['correct']}")
    for name, value in report["metrics"].items():
        print(f"  {name:<42} {value:>14.4f} {unit_of[name]}")
    for name, value in report.get("serving", {}).items():
        unit = "s" if name.endswith("_s") else "B/event"
        print(f"  {name:<42} {value:>14.4f} {unit}")


def main(argv=None) -> int:
    spec = load_spec()
    workloads = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=(*workloads, "all"), default="all")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="tiny inputs")
    parser.add_argument(
        "--corrupt", action="store_true",
        help="corrupt one result row before the first check (must fail)",
    )
    args = parser.parse_args(argv)
    _setup_paths()
    # Turn SIGTERM into an exit, so `finally` blocks stop the server
    # processes a trading-serve round started.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))

    if args.workload == "all":
        # Each workload (and mode) in its own process, as a single run is.
        for workload in workloads:
            for trace in (0, 1):
                command = [
                    sys.executable, os.path.abspath(__file__), "--workload", workload,
                    "--seed", str(args.seed), "--seconds", str(args.seconds),
                    "--trace", str(trace),
                ] + (["--smoke"] if args.smoke else [])
                subprocess.run(command, cwd=ROOT, check=True)
        return 0

    report = run_workload(
        args.workload, args.seed, args.seconds, args.trace, args.smoke, args.corrupt
    )
    names = units(spec, args.trace)
    _print_human(args.workload, names, report)
    print(json.dumps({
        "correct": report["correct"],
        "attempted": report["attempted"],
        "failed": report["failed"],
        "metrics": {
            name: {"value": report["metrics"][name], "unit": unit}
            for name, unit in names.items()
        },
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
