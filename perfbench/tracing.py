"""Span tracing from outside the program, for the per-layer metrics.

A traced run wraps the public entry points of each ``src/repro`` layer
(and the few internal seams the engine calls them through) with span
recorders.  A span is ``(name, start, end, parent)``; spans are kept in
memory and written out once, at the end of the run.  A layer's *self*
time is its span's duration minus the time its child spans cover.

Untraced runs never install a wrapper, so the end-to-end metrics pay
nothing for this module.
"""

from __future__ import annotations

import json
import os
import time
from contextlib import contextmanager

#: Spans kept per process; later spans are still aggregated, not stored.
MAX_KEPT_SPANS = 200_000


class Tracer:
    def __init__(self) -> None:
        self.enabled = False
        self.names: dict[str, int] = {}
        self.spans: list[tuple[int, int, int, int]] = []
        self.dropped = 0
        self.calls: dict[str, int] = {}
        self.self_ns: dict[str, int] = {}
        self.total_ns: dict[str, int] = {}
        self.counters: dict[str, float] = {}
        self.gauges: dict[str, float] = {}
        self._stack: list[list] = []
        self._patches: list[tuple[object, str, object]] = []

    # -- recording -----------------------------------------------------------

    def _enter(self, name: str) -> list:
        frame = [name, time.perf_counter_ns(), 0, len(self.spans)]
        self._stack.append(frame)
        return frame

    def _exit(self, frame: list) -> None:
        end = time.perf_counter_ns()
        self._stack.pop()
        name, start, child_ns, _ = frame
        duration = end - start
        if self._stack:
            self._stack[-1][2] += duration
            parent = self._stack[-1][3]
        else:
            parent = -1
        self.calls[name] = self.calls.get(name, 0) + 1
        self.self_ns[name] = self.self_ns.get(name, 0) + duration - child_ns
        self.total_ns[name] = self.total_ns.get(name, 0) + duration
        if len(self.spans) < MAX_KEPT_SPANS:
            index = self.names.setdefault(name, len(self.names))
            frame[3] = len(self.spans)
            self.spans.append((index, start, end, parent))
        else:
            self.dropped += 1

    @contextmanager
    def span(self, name: str):
        """Time a block the benchmark itself runs (no-op when disabled)."""
        if not self.enabled:
            yield
            return
        frame = self._enter(name)
        try:
            yield
        finally:
            self._exit(frame)

    def count(self, name: str, value: float = 1) -> None:
        if self.enabled:
            self.counters[name] = self.counters.get(name, 0) + value

    def gauge(self, name: str, value: float) -> None:
        if self.enabled:
            self.gauges[name] = value

    # -- wrapping ------------------------------------------------------------

    def wrap(
        self, owner, attr: str, name: str, after=None, static=False, generator=False
    ) -> None:
        """Replace ``owner.attr`` by a span-recording wrapper.

        ``after(tracer, args, result)`` records counts once the call
        returns.  ``static`` marks a static method; ``generator`` a
        function returning an iterator, whose span then covers the whole
        iteration (the caller's work between items included) and which
        counts its items as ``<name>.items``.
        """
        original = owner.__dict__[attr] if isinstance(owner, type) else getattr(
            owner, attr
        )
        function = original.__func__ if static else original
        tracer = self

        if generator:

            def traced(*args, **kwargs):
                if not tracer.enabled:
                    yield from function(*args, **kwargs)
                    return
                frame = tracer._enter(name)
                items = 0
                try:
                    for item in function(*args, **kwargs):
                        items += 1
                        yield item
                finally:
                    tracer._exit(frame)
                    tracer.count(name + ".items", items)

        else:

            def traced(*args, **kwargs):
                if not tracer.enabled:
                    return function(*args, **kwargs)
                frame = tracer._enter(name)
                try:
                    result = function(*args, **kwargs)
                finally:
                    tracer._exit(frame)
                if after is not None:
                    after(tracer, args, result)
                return result

        setattr(owner, attr, staticmethod(traced) if static else traced)
        self._patches.append((owner, attr, original))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    # -- reporting -------------------------------------------------------------

    def summary(self) -> dict:
        return {
            "calls": dict(self.calls),
            "self_ns": dict(self.self_ns),
            "total_ns": dict(self.total_ns),
            "counters": dict(self.counters),
            "gauges": dict(self.gauges),
            "spans": len(self.spans) + self.dropped,
        }

    def write(self, path: str) -> None:
        """Write the kept spans as ``[name, start_ns, end_ns, parent]``."""
        os.makedirs(os.path.dirname(path), exist_ok=True)
        names = sorted(self.names, key=self.names.get)
        with open(path, "w") as handle:
            json.dump(
                {"names": names, "dropped": self.dropped, "spans": self.spans},
                handle,
                separators=(",", ":"),
            )


def merge_summaries(parts: list[dict]) -> dict:
    """Sum several processes' (or rounds') summaries."""
    merged: dict = {
        "calls": {}, "self_ns": {}, "total_ns": {}, "counters": {}, "gauges": {}, "spans": 0
    }
    for part in parts:
        merged["gauges"].update(part["gauges"])
        for key in ("calls", "self_ns", "total_ns", "counters"):
            for name, value in part[key].items():
                merged[key][name] = merged[key].get(name, 0) + value
        merged["spans"] += part["spans"]
    return merged


def diff_summary(after: dict, before: dict) -> dict:
    """``after - before`` of two :meth:`Tracer.summary` snapshots."""
    out: dict = {"spans": after["spans"] - before["spans"], "gauges": after["gauges"]}
    for key in ("calls", "self_ns", "total_ns", "counters"):
        out[key] = {
            name: value - before[key].get(name, 0)
            for name, value in after[key].items()
        }
    return out


def install_layer_probes(tracer: Tracer, client: bool = False) -> None:
    """Wrap every layer seam the per-layer metrics read.

    Names follow the ``src/repro`` modules.  The engine reaches most of
    these through module globals or class attributes, so replacing the
    attribute is enough for the wrapper to see every call.  ``client``
    wraps only what the serving client calls (frame decoding).
    """
    from repro.codegen import pygen
    from repro.ir import optimize
    from repro.runtime import durability, engine, serving

    if client:
        tracer.wrap(serving, "decode_frame", "runtime.serving.client_decode")
        return

    def source_lines(tr, args, _result):
        tr.gauge("codegen.source_lines", len(args[0].source.splitlines()))

    def batch_rows(tr, args, _result):
        tr.count("runtime.engine.rows", len(args[1]))

    frame_overhead = len(durability.encode_frame(0, b""))

    def wal_bytes(tr, _args, payload):
        tr.count("runtime.durability.wal_bytes", len(payload) + frame_overhead)

    def rendered(tr, _args, rows):
        tr.count("runtime.views.rows_rendered", len(rows))

    def changed(tr, _args, changes):
        tr.count("runtime.views.changed_rows", len(changes))

    def frame_bytes(tr, _args, data):
        tr.count("runtime.serving.frame_bytes", len(data))

    tracer.wrap(pygen, "lower_program", "ir.lower")
    tracer.wrap(optimize, "optimize_program", "ir.optimize")
    tracer.wrap(pygen.CompiledExecutor, "__init__", "codegen.build", source_lines)
    tracer.wrap(engine.DeltaEngine, "_process_batch", "runtime.engine.dispatch", batch_rows)
    tracer.wrap(pygen.CompiledExecutor, "execute", "runtime.engine.execute")
    tracer.wrap(pygen.CompiledExecutor, "execute_batch", "runtime.engine.execute_batch")
    tracer.wrap(durability.DurableEngine, "process_batch", "runtime.durability.precheck")
    tracer.wrap(durability.WriteAheadLog, "append_batch", "runtime.durability.append")
    for encoder in ("encode_rows_payload", "encode_batch_payload"):
        tracer.wrap(durability, encoder, "runtime.durability.encode", wal_bytes)
    tracer.wrap(durability.os, "fsync", "runtime.durability.sync")
    tracer.wrap(durability.DurableEngine, "snapshot", "runtime.durability.snapshot")
    tracer.wrap(
        durability.SnapshotStore, "load_latest", "runtime.durability.recover_load"
    )
    tracer.wrap(
        durability.WriteAheadLog, "replay", "runtime.durability.replay",
        static=True,
        generator=True,
    )
    tracer.wrap(engine, "query_results", "runtime.views.render", rendered)
    tracer.wrap(serving, "result_delta", "runtime.views.diff", changed)
    tracer.wrap(serving.ViewDeltaTap, "on_batch", "runtime.serving.tap")
    tracer.wrap(serving, "encode_frame", "runtime.serving.encode", frame_bytes)
