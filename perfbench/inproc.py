"""The in-process workloads, ``trading`` and ``warehouse``.

One round: set up a default ``DeltaEngine`` from the SQL text, prefill
(untimed), then feed the stream one ``process_batch`` call per batch in
a closed loop, checking the views against the oracle at the
checkpoints.  Latency is timed per operation (``inputs.group``
batches).  Every round of a run repeats the same inputs.
"""

from __future__ import annotations

from time import perf_counter as now

from common import build_program, load_static, state_of
from tracing import diff_summary


def run_round(inputs, expected, checker, tracer, traced: bool) -> dict:
    from repro import DeltaEngine

    tracer.enabled = traced
    before = tracer.summary()
    start = now()
    program = build_program(inputs, tracer)
    with tracer.span("runtime.engine.init"):
        engine = DeltaEngine(program)
    load_static(engine, inputs, tracer)
    setup_s = now() - start
    setup_trace = tracer.summary()

    tracer.enabled = False
    for relation, sign, rows in inputs.prefill:
        engine.process_batch(relation, sign, rows)

    latencies = []
    windows = []
    window_events = 0
    window_time = 0.0
    limit = inputs.sizes["window_events"]
    checkpoints = set(inputs.checkpoints)
    failed = 0
    stream_trace = tracer.summary()
    tracer.enabled = traced
    group = inputs.group
    operations = [
        (index + group, inputs.stream[index : index + group])
        for index in range(0, len(inputs.stream), group)
    ]
    for index, operation in operations:
        began = now()
        for relation, sign, rows in operation:
            engine.process_batch(relation, sign, rows)
        elapsed = now() - began
        latencies.append(elapsed)
        window_events += sum(len(rows) for _, _, rows in operation)
        window_time += elapsed
        if window_events >= limit:
            windows.append(window_events / window_time)
            window_events = 0
            window_time = 0.0
        if index in checkpoints:
            tracer.enabled = False
            views = {name: engine.results(name) for name in inputs.queries}
            if not checker.same(views, expected[index]):
                failed += 1
            tracer.enabled = traced
    tracer.enabled = False
    after = tracer.summary()
    return {
        "setup_s": setup_s,
        "latencies": latencies,
        "windows": windows,
        "events": inputs.events,
        "operations": inputs.operations,
        "failed": failed,
        "state": state_of(engine),
        "setup_trace": diff_summary(setup_trace, before),
        "stream_trace": diff_summary(after, stream_trace),
    }
