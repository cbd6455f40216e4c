"""The ``trading-serve`` server process: a ViewServer over a DurableEngine.

``served.py`` starts one per round, and one more to restart from the
same directory after it SIGKILLs the first.  The server speaks to its
parent over stdin/stdout, one JSON object per line: it prints a hello
once it listens, then answers ``stats`` with its engine state and trace.

Usage (by ``served.py``)::

    python3 perfbench/server.py --dir D --seed N [--smoke] [--trace 1]
        [--restart] [--spans FILE]
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path[:0] = [os.path.join(os.path.dirname(HERE), "src"), HERE]


def main() -> None:
    parser = argparse.ArgumentParser()
    parser.add_argument("--dir", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument("--trace", type=int, default=0)
    parser.add_argument("--restart", action="store_true")
    parser.add_argument("--spans")
    args = parser.parse_args()

    from common import build_program, state_of
    from streams import SIZES, SMOKE_SIZES, Inputs
    from tracing import Tracer, diff_summary, install_layer_probes

    import repro.codegen.pygen  # noqa: F401 - imported before the setup clock
    from repro import DurableEngine
    from repro.runtime.serving import ServerThread

    sizes = (SMOKE_SIZES if args.smoke else SIZES)["trading-serve"]
    inputs = Inputs("trading-serve", args.seed, sizes)
    tracer = Tracer()
    if args.trace:
        install_layer_probes(tracer)
    tracer.enabled = bool(args.trace)
    before = tracer.summary()

    start = time.perf_counter()
    program = build_program(inputs, tracer)
    with tracer.span("runtime.durability.open"):
        engine = DurableEngine(
            program, args.dir, snapshot_every=sizes["snapshot_every"]
        )
    engine_ready = time.perf_counter()
    if not args.restart:
        tracer.enabled = False
        for relation, sign, rows in inputs.prefill:
            engine.process_batch(relation, sign, rows)
        tracer.enabled = bool(args.trace)
    prefilled = time.perf_counter()
    with tracer.span("runtime.serving.start"):
        handle = ServerThread(engine, backpressure="block").start()
    listening = time.perf_counter()
    setup_trace = diff_summary(tracer.summary(), before)
    hello = {
        "port": handle.port,
        "lsn": engine.lsn,
        "setup_s": (engine_ready - start) + (listening - prefilled),
        "trace": setup_trace,
    }
    if args.restart and args.spans:
        tracer.write(args.spans)
    streamed = tracer.summary()
    print(json.dumps(hello), flush=True)

    for line in sys.stdin:
        if line.strip() != "stats":
            continue
        tracer.enabled = False
        reply = {
            "state": state_of(engine.engine),
            "trace": diff_summary(tracer.summary(), streamed),
        }
        if args.spans:
            tracer.write(args.spans)
        print(json.dumps(reply), flush=True)
        tracer.enabled = bool(args.trace)
    handle.stop()
    engine.close()


if __name__ == "__main__":
    main()
