"""The ``trading-serve`` workload: the load-generating client.

One round starts ``server.py`` in its own process and opens two
connections to it.  The subscriber subscribes to all six views; the
publisher keeps ``window`` publish frames in flight (a closed loop; the
server applies ``block`` backpressure).  When the subscriber has seen a
pong after the last ack, the stream is over.  The client then checks
the subscriber's folded views, SIGKILLs the server, restarts it from
its directory and checks the recovered views against the oracle over
exactly the acknowledged batches the recovered LSN covers.
"""

from __future__ import annotations

import json
import os
import selectors
import shutil
import signal
import socket
import struct
import subprocess
import sys
from collections import Counter
from time import perf_counter as now

from oracle import expected_prefix
from tracing import diff_summary, merge_summaries

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
_LENGTH = struct.Struct(">I")  # the serving protocol's frame length prefix
TIMEOUT_S = 60


class ServerProcess:
    def __init__(self, argv: list[str]) -> None:
        self.proc = subprocess.Popen(
            [sys.executable, os.path.join(HERE, "server.py"), *argv],
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
            text=True,
            cwd=ROOT,
        )

    def read(self) -> dict:
        ready = selectors.DefaultSelector()
        ready.register(self.proc.stdout, selectors.EVENT_READ)
        try:
            if not ready.select(timeout=TIMEOUT_S):
                raise RuntimeError("server did not answer in time")
        finally:
            ready.close()
        line = self.proc.stdout.readline()
        if not line:
            raise RuntimeError(f"server exited with {self.proc.wait()}")
        return json.loads(line)

    def request(self, command: str) -> dict:
        self.proc.stdin.write(command + "\n")
        self.proc.stdin.flush()
        return self.read()

    def kill(self) -> None:
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGKILL)
        self.proc.wait()
        for pipe in (self.proc.stdin, self.proc.stdout):
            try:
                pipe.close()
            except BrokenPipeError:
                pass


class FrameReader:
    """Splits one connection's byte stream into decoded frames."""

    def __init__(self, sock, decode) -> None:
        self.sock = sock
        self.decode = decode
        self.buffer = bytearray()
        self.bytes = 0

    def feed(self) -> list[dict]:
        data = self.sock.recv(1 << 18)
        if not data:
            raise RuntimeError("server closed the connection")
        self.bytes += len(data)
        self.buffer += data
        frames = []
        while len(self.buffer) >= _LENGTH.size:
            (length,) = _LENGTH.unpack_from(self.buffer)
            end = _LENGTH.size + length
            if len(self.buffer) < end:
                break
            frames.append(self.decode(bytes(self.buffer[_LENGTH.size : end])))
            del self.buffer[:end]
        return frames

    def wait_for(self, kind: str, count: int) -> list[dict]:
        self.sock.settimeout(TIMEOUT_S)
        found: list[dict] = []
        while len(found) < count:
            for frame in self.feed():
                if frame.get("type") == "error":
                    raise RuntimeError(f"server error: {frame.get('message')}")
                if frame.get("type") == kind:
                    found.append(frame)
        self.sock.settimeout(None)
        return found


def _connect(port: int):
    sock = socket.create_connection(("127.0.0.1", port), timeout=TIMEOUT_S)
    sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
    return sock


def _subscribe_all(reader: FrameReader, views, encode) -> dict[str, dict]:
    for view in views:
        reader.sock.sendall(encode({"op": "subscribe", "view": view}))
    return {frame["view"]: frame for frame in reader.wait_for("snapshot", len(views))}


def _rows(multiset: Counter) -> list[tuple]:
    return [row for row, weight in multiset.items() for _ in range(weight)]


def _snapshot_rows(frame: dict) -> Counter:
    return Counter({tuple(row): weight for row, weight in frame["rows"]})


def run_round(inputs, expected, checker, tracer, traced, workdir, seed, smoke, spans):
    from repro.runtime import serving

    views = list(inputs.queries)
    directory = os.path.join(workdir, f"serve-{os.getpid()}-{int(now() * 1e6)}")
    argv = ["--dir", directory, "--seed", str(seed), "--trace", str(int(traced))]
    if smoke:
        argv.append("--smoke")
    failed = 0
    server = ServerProcess(argv + (["--spans", spans + ".server.json"] if spans else []))
    restarted = None
    connections = []
    try:
        hello = server.read()
        if hello["lsn"] != len(inputs.prefill):
            raise RuntimeError(f"prefill logged {hello['lsn']} batches, not {len(inputs.prefill)}")
        pub, sub = _connect(hello["port"]), _connect(hello["port"])
        connections += [pub, sub]
        pub_reader = FrameReader(pub, serving.decode_frame)
        sub_reader = FrameReader(sub, serving.decode_frame)
        snapshots = _subscribe_all(sub_reader, views, serving.encode_frame)
        folds = {view: _snapshot_rows(snapshots[view]) for view in views}
        if not checker.same({v: _rows(folds[v]) for v in views}, expected[0]):
            failed += 1

        frames = [
            serving.encode_frame(
                {"op": "publish", "relation": relation, "sign": sign,
                 "rows": [list(row) for row in rows]}
            )
            for relation, sign, rows in inputs.stream
        ]
        ping = serving.encode_frame({"op": "ping"})
        window = inputs.sizes["window"]
        limit = inputs.sizes["window_events"]
        n = len(frames)
        sent_at = [0.0] * n
        acks = [0] * n
        acked = 0
        acked_events = 0
        boundaries = []
        deltas = []
        last_arrival: dict[int, float] = {}
        pong = None
        pinged = False
        errors = 0
        next_batch = 0
        wire_before = sub_reader.bytes
        selector = selectors.DefaultSelector()
        selector.register(pub, selectors.EVENT_READ, pub_reader)
        selector.register(sub, selectors.EVENT_READ, sub_reader)
        client_before = tracer.summary()
        tracer.enabled = traced
        start = now()
        while pong is None:
            while next_batch < n and next_batch - acked < window:
                sent_at[next_batch] = now()
                pub.sendall(frames[next_batch])
                next_batch += 1
            if acked == n and not pinged:
                sub.sendall(ping)
                pinged = True
            events = selector.select(timeout=TIMEOUT_S)
            if not events:
                raise RuntimeError("stream stalled")
            for key, _ in events:
                reader = key.data
                received = reader.feed()
                arrival = now()
                for frame in received:
                    kind = frame.get("type")
                    if kind == "delta":
                        deltas.append((frame["view"], frame["lsn"], frame["changes"]))
                        last_arrival[frame["lsn"]] = arrival
                    elif kind in ("ack", "error"):
                        if kind == "error":
                            errors += 1
                            print(f"publish error: {frame.get('message')}", file=sys.stderr)
                        acks[acked] = frame.get("lsn", 0)
                        acked_events += len(inputs.stream[acked][2])
                        acked += 1
                        if acked_events >= limit * (len(boundaries) + 1):
                            boundaries.append((arrival, acked_events))
                    elif kind == "pong" and pinged:
                        pong = arrival
        tracer.enabled = False
        client_trace = diff_summary(tracer.summary(), client_before)
        selector.close()
        boundaries.append((pong, acked_events))
        windows = []
        previous = (start, 0)
        for boundary in boundaries:
            if boundary[1] > previous[1]:
                windows.append((boundary[1] - previous[1]) / (boundary[0] - previous[0]))
            previous = boundary
        latencies = [
            last_arrival[acks[i]] - sent_at[i] for i in range(n) if acks[i] in last_arrival
        ]
        wire_bytes = sub_reader.bytes - wire_before
        stats = server.request("stats")

        # Subscriber fold: snapshot + deltas, checked at every checkpoint;
        # each view's delta LSNs must rise strictly.
        last_lsn = {view: snapshots[view]["lsn"] for view in views}
        marks = [(position, acks[position - 1]) for position in inputs.checkpoints]
        rising = True
        mark = 0
        for view, lsn, changes in deltas + [(None, float("inf"), ())]:
            while mark < len(marks) and lsn > marks[mark][1]:
                state = {v: _rows(folds[v]) for v in views}
                if not checker.same(state, expected[marks[mark][0]]):
                    failed += 1
                mark += 1
            if view is None:
                break
            rising = rising and lsn > last_lsn[view]
            last_lsn[view] = lsn
            fold = folds[view]
            for row, weight in changes:
                row = tuple(row)
                fold[row] += weight
                if fold[row] == 0:
                    del fold[row]
        if not rising:
            print("delta LSNs did not rise strictly", file=sys.stderr)
            failed += 1
        failed += errors

        # Crash and restart: the recovered views must equal the oracle
        # over exactly the acknowledged batches at or below the recovered
        # LSN (prefill batches hold LSNs 1..len(prefill)).
        for sock in connections:
            sock.close()
        connections.clear()
        server.kill()
        restart_argv = argv + ["--restart"]
        if spans:
            restart_argv += ["--spans", spans + ".restart.json"]
        began = now()
        restarted = ServerProcess(restart_argv)
        again = restarted.read()
        probe = _connect(again["port"])
        connections.append(probe)
        probe_reader = FrameReader(probe, serving.decode_frame)
        first = _subscribe_all(probe_reader, views[:1], serving.encode_frame)
        recover_s = now() - began
        recovered = {**first, **_subscribe_all(probe_reader, views[1:], serving.encode_frame)}
        lsn = recovered[views[0]]["lsn"]
        applied = min(lsn, len(inputs.prefill)) + sum(1 for a in acks if 0 < a <= lsn)
        state = {v: _rows(_snapshot_rows(recovered[v])) for v in views}
        if not checker.same(state, expected_prefix(inputs, applied)):
            failed += 1
    finally:
        for sock in connections:
            sock.close()
        server.kill()
        if restarted is not None:
            restarted.kill()
        shutil.rmtree(directory, ignore_errors=True)

    return {
        "setup_s": hello["setup_s"],
        "latencies": latencies,
        "windows": windows,
        "events": inputs.events,
        "operations": n,
        "failed": failed,
        "state": stats["state"],
        "recover_s": recover_s,
        "recovered_lsn": lsn,
        "wire_bytes": wire_bytes,
        "setup_trace": hello["trace"],
        "stream_trace": merge_summaries([stats["trace"], client_trace]),
        "restart_trace": again["trace"],
    }
