"""The main-memory delta engine (the DBToaster runtime).

``DeltaEngine`` owns the maintained maps and dispatches stream events to
trigger executors:

* ``mode="compiled"`` — triggers run as generated Python functions
  (:mod:`repro.codegen.pygen`), the reproduction of the paper's compiled
  C++ executors;
* ``mode="interpreted"`` — triggers are walked block-by-block over the
  lowered trigger IR (:mod:`repro.ir`), retaining exactly the
  interpretation overhead the paper's compilation eliminates (used as a
  baseline/ablation).

The engine is *embeddable* (construct it in-process and call ``insert`` /
``delete``) and also serves standalone use via
:mod:`repro.runtime.sources` adapters.  A read-only view of the internal
maps supports ad-hoc client queries, per the paper's system model.

Events are accepted one at a time (:meth:`DeltaEngine.process`) or in
*batches* (:meth:`DeltaEngine.process_batch`): a batch is a run of rows
sharing one ``(relation, sign)``, dispatched through a single generated
``*_batch`` trigger call so the per-event Python dispatch overhead (trigger
lookup, static-table checks, profiler hooks, one call per event) is paid
once per batch.  :meth:`DeltaEngine.process_stream` groups consecutive
same-trigger events into such runs automatically; results are identical to
per-event processing because rows apply in stream order.

On top of the single engine, :class:`ShardedEngine` runs *sharded parallel*
delta processing: the compiler's partitioning analysis
(:func:`repro.compiler.partition.analyze_partitioning`) determines which
event column every map access of a trigger is keyed on, batches are
hash-routed by that column to N per-shard :class:`DeltaEngine` lanes (plus
a serial lane for non-partitionable triggers), and ``results()`` /
``map_view()`` merge the lane maps key-wise.  With ``parallel=True`` the
shard lanes are forked worker processes fed over pipes, so trigger
execution overlaps across cores; otherwise shards run in-process, which
keeps the routing/merge semantics (and the tests) identical without any
IPC.
"""

from __future__ import annotations

import signal
import time
from collections import deque
from types import MappingProxyType
from typing import Callable, Iterable, Mapping, Optional, Sequence

from repro.errors import EventError, UnknownStreamError
from repro.compiler.partition import PartitionSpec, analyze_partitioning
from repro.compiler.program import CompiledProgram, Trigger
from repro.compiler.storage import analyze_storage
from repro.runtime.events import (
    EventBatch,
    StreamEvent,
    batches,
    partition_columns,
    partition_rows,
)

#: Default rows-per-batch cap for ``process_stream``: large enough to
#: amortise dispatch, small enough that grouping an archived single-relation
#: stream stays O(batch) in memory instead of buffering the whole run.
DEFAULT_BATCH_SIZE = 1024

#: Below this run length, shard routing partitions row tuples (one hash and
#: one append per row) instead of building per-shard column gathers.
_ROW_ROUTE_THRESHOLD = 8
from repro.runtime.views import query_results, result_rows_to_dicts
from repro.ir.interp import (
    run_finalize as _run_finalize,
    run_trigger as _run_trigger,
    run_trigger_batch as _run_trigger_batch,
)


def _unknown_relation_error(
    program: CompiledProgram, relation: str
) -> UnknownStreamError:
    """A strict-mode rejection that says what *would* have been accepted."""
    known = sorted(
        {rel for rel, _ in program.triggers} | set(program.static_relations)
    )
    return UnknownStreamError(
        f"no standing query reads relation {relation!r}; "
        "known relations: " + (", ".join(known) if known else "(none)")
    )


class InterpretedExecutor:
    """Executes triggers by walking the lowered IR directly.

    This is deliberately an *interpreter*: every event re-traverses the
    IR nodes — the overhead that code generation removes.  It shares the
    loop-level lowering (and optimisation pipeline) with the compiled
    back end, so its semantics are the generated code's by construction.
    """

    mode = "interpreted"

    def __init__(
        self,
        program: CompiledProgram,
        optimize: bool = True,
        second_order: bool = True,
    ) -> None:
        from repro.ir.lower import lower_program

        self.program = program
        self.optimize = optimize
        self.second_order = second_order
        self._ir = lower_program(
            program, optimize=optimize, second_order=second_order
        )

    def execute(
        self,
        trigger: Trigger,
        values: Sequence,
        maps: dict[str, dict],
        profiler=None,
    ) -> None:
        _run_trigger(
            self._ir.triggers[(trigger.relation, trigger.sign)],
            values,
            maps,
            profiler,
        )

    def execute_batch(
        self,
        trigger: Trigger,
        columns: Sequence[Sequence],
        maps: dict[str, dict],
        profiler=None,
    ) -> None:
        """Interpret a whole columnar batch through the batch trigger IR.

        The interpreter walks the same accumulate-then-flush batch bodies
        the compiled back end renders (first-order accumulation,
        second-order restatement), still re-traversing the IR nodes per
        row — so the compiled-vs-interpreted ablation keeps isolating what
        code generation removes, at matching batch semantics.
        """
        _run_trigger_batch(
            self._ir.batch_triggers[(trigger.relation, trigger.sign)],
            columns,
            maps,
            profiler,
        )


class _EventFeed:
    """The event-processing entry points, all funnelled into one
    ``_process_batch(batch)`` that the concrete engine defines.

    Shared by :class:`DeltaEngine`, :class:`ShardedEngine` and
    :class:`~repro.runtime.durability.DurableEngine`, so a single event,
    a row run, a columnar run, a whole stream and a bulk load all take
    the same batch path.
    """

    def process(self, event: StreamEvent) -> None:
        """Apply one insert/delete event (a one-row batch).

        Static tables must be fully loaded before the first stream event:
        mixed static/stream maps carry no static-table triggers, which is
        only sound while all streams are empty.
        """
        self._process_batch(EventBatch(event.relation, event.sign, [event.values]))

    def process_batch(self, relation: str, sign: int, rows: Sequence[Sequence]) -> int:
        """Apply a run of same-``(relation, sign)`` rows as one batch.

        Semantically identical to ``process``-ing each row in order, but the
        per-event dispatch cost (trigger lookup, static-table checks,
        profiler hooks, one Python call per event) is paid once per batch;
        multi-row runs are transposed once into the columnar batch layout
        and run through the ``*_batch`` trigger.

        Returns the number of rows that reached a trigger (0 when the
        relation is unsubscribed and the rows were skipped).
        """
        rows = rows if isinstance(rows, list) else list(rows)
        if not rows:
            return 0
        return self._process_batch(EventBatch(relation, sign, rows))

    def process_batch_columns(
        self, relation: str, sign: int, columns: Sequence[Sequence]
    ) -> int:
        """Apply one *columnar* batch (parallel per-column lists).

        The native batch entry point — :class:`EventBatch` storage flows
        here without any row materialisation; in compiled mode the
        generated ``*_batch`` trigger iterates exactly the column lists its
        body reads.
        """
        return self._process_batch(
            EventBatch.from_columns(relation, sign, columns)
        )

    def process_stream(
        self, events: Iterable, batch_size: Optional[int] = DEFAULT_BATCH_SIZE
    ) -> int:
        """Apply a sequence of events (update pairs are flattened).

        Consecutive events sharing one ``(relation, sign)`` are grouped and
        dispatched as batches: one-row runs take the per-event trigger
        directly, longer runs the columnar ``*_batch`` trigger.
        ``batch_size`` caps the rows buffered per batch (default
        ``DEFAULT_BATCH_SIZE``, keeping memory bounded on endless
        single-relation feeds); ``None`` leaves runs unbounded — only safe
        for finite streams.

        Returns the number of events *consumed from the stream*, which
        includes events the engine skipped because no standing query reads
        their relation — see ``events_processed`` / ``events_skipped`` for
        the split.
        """
        count = 0
        for batch in batches(events, batch_size):
            self._process_batch(batch)
            count += len(batch)
        return count

    def insert(self, relation: str, *values) -> None:
        self.process(StreamEvent(relation, 1, tuple(values)))

    def delete(self, relation: str, *values) -> None:
        self.process(StreamEvent(relation, -1, tuple(values)))

    def load(self, relation: str, rows: Iterable[Sequence]) -> int:
        """Bulk-load a (static) table through the batch path.

        Returns the number of rows consumed (like :meth:`process_stream`,
        rows for unsubscribed relations count even though they are skipped).
        """
        rows = [tuple(row) for row in rows]
        self.process_batch(relation, 1, rows)
        return len(rows)


class _Ingest(_EventFeed):
    """What :class:`DeltaEngine` and :class:`ShardedEngine` share: the
    batch-admission rules, the flush-path delta tap and the result reads.

    Subclasses define ``_process_batch`` (which admits each batch through
    :meth:`_admit`), ``_current_maps`` (the maintained maps, merged across
    lanes where there are several) and ``index_sizes``.
    """

    def __init__(self, program: CompiledProgram, strict: bool) -> None:
        self.program = program
        self.strict = strict
        self.events_skipped = 0
        self._relations = {rel for rel, _ in program.triggers}
        # Stream-relation triggers: always admitted, so the dispatch hot
        # path can look them up without running the admission rules.
        self._stream_triggers = {
            key: trigger
            for key, trigger in program.triggers.items()
            if key[0] not in program.static_relations
        }
        self._stream_started = False
        # The flush-path delta tap (see repro.runtime.serving): listeners
        # observe every batch that reached a trigger, stamped with a
        # monotonic LSN.  ``lsn_source`` overrides the local clock — the
        # durable engine points it at the WAL so delivered deltas carry
        # the durability LSN of the batch they derive from.
        self._batch_listeners: list = []
        self._tap_clock = 0
        self.lsn_source: Optional[callable] = None

    # -- batch admission ----------------------------------------------------

    def check_admission(self, relation: str, sign: int) -> None:
        """Raise the error a ``(relation, sign)`` batch would be rejected
        with now, changing nothing.

        Static tables load (inserts only) before the first stream event;
        strict mode rejects relations no standing query reads.  A durable
        engine runs this before logging, so a rejected batch never
        reaches the WAL.
        """
        if relation in self.program.static_relations:
            if self._stream_started:
                raise EventError(
                    f"static table {relation!r} cannot change after "
                    "stream processing has started; declare it as a STREAM "
                    "if it receives online updates"
                )
            if sign != 1:
                raise EventError(
                    f"static table {relation!r} only supports bulk-load "
                    "inserts"
                )
        if self.strict and relation not in self._relations:
            raise _unknown_relation_error(self.program, relation)

    def _admit(self, relation: str, sign: int, count: int) -> Optional[Trigger]:
        """Admit a ``count``-row batch: its trigger, or ``None`` when no
        trigger runs (a skipped relation, counted in ``events_skipped``;
        or deletions disabled at compile time).  A stream relation marks
        the stream as started."""
        self.check_admission(relation, sign)
        if relation not in self._relations:
            self.events_skipped += count
            return None
        if relation not in self.program.static_relations:
            self._stream_started = True
        return self.program.triggers.get((relation, sign))

    # -- the flush-path tap -------------------------------------------------

    def _notify_listeners(self, batch: EventBatch) -> None:
        """Fire the flush-path tap: the batch just applied, LSN-stamped.

        Listener errors propagate — a tap that cannot keep up (or raises)
        must surface to the caller rather than silently drop deltas.
        """
        self._tap_clock += 1
        lsn = (
            self.lsn_source()
            if self.lsn_source is not None
            else self._tap_clock
        )
        for listener in list(self._batch_listeners):
            listener(lsn, batch)

    def add_batch_listener(self, listener) -> None:
        """Register a flush-path tap: ``listener(lsn, batch)`` runs after
        every batch that reached a trigger (skipped relations never fire).
        LSNs are monotonic; a :class:`~repro.runtime.durability.DurableEngine`
        substitutes the WAL LSN of the logged batch."""
        self._batch_listeners.append(listener)

    def remove_batch_listener(self, listener) -> None:
        self._batch_listeners.remove(listener)

    # -- results ------------------------------------------------------------

    def results(self, query_name: Optional[str] = None) -> list[tuple]:
        """Current rows of a standing query."""
        return query_results(self.program, self._current_maps(), query_name)

    def results_dict(self, query_name: Optional[str] = None) -> list[dict]:
        query = self._query(query_name)
        return result_rows_to_dicts(query, self.results(query.name))

    def result_scalar(self, query_name: Optional[str] = None):
        """The single value of a scalar (non-grouped, single-item) query."""
        rows = self.results(query_name)
        if len(rows) != 1 or len(rows[0]) != 1:
            raise EventError("result_scalar requires a scalar single-item query")
        return rows[0][0]

    def _query(self, query_name: Optional[str]):
        if query_name is None:
            if len(self.program.queries) != 1:
                raise EventError("query_name required with multiple queries")
            return self.program.queries[0]
        for query in self.program.queries:
            if query.name == query_name:
                return query
        raise EventError(f"unknown query {query_name!r}")

    def snapshot_state(self) -> dict:
        """The state a durable snapshot stores — the inverse of
        ``restore_state``.  Maps are plain dicts: storage-agnostic (a
        columnar engine's snapshot restores into a dict engine and vice
        versa), insertion order preserved either way."""
        maps = self._current_maps()
        return {
            "maps": {name: dict(contents) for name, contents in maps.items()},
            "events_processed": self.events_processed,
            "events_skipped": self.events_skipped,
            "stream_started": self._stream_started,
        }

    # -- introspection (the read-only client interface) --------------------

    def map_view(self, name: str) -> Mapping:
        """Read-only view of one internal map, for ad-hoc client queries."""
        return MappingProxyType(self._current_maps()[name])

    def map_sizes(self, include_indexes: bool = False) -> dict[str, int]:
        """Entries per map; with ``include_indexes`` each map's count also
        covers its secondary-index entries (the real memory footprint)."""
        sizes = {
            name: len(contents)
            for name, contents in self._current_maps().items()
        }
        if include_indexes:
            for name, entries in self.index_sizes().items():
                sizes[name] = sizes.get(name, 0) + entries
        return sizes

    def total_entries(self, include_indexes: bool = False) -> int:
        total = sum(len(contents) for contents in self._current_maps().values())
        if include_indexes:
            total += sum(self.index_sizes().values())
        return total


class DeltaEngine(_Ingest):
    """A standing-query engine over a compiled delta program.

    The engine owns one storage object per maintained map and dispatches
    stream events to the trigger executor (generated Python functions in
    ``mode="compiled"``, the IR tree-walker in ``mode="interpreted"``).
    Typical embedded use::

        engine = DeltaEngine(compile_sql(query, catalog))
        engine.insert("bids", 1, 7, 100, 50)   # one event
        engine.process_stream(events)           # a whole (batched) feed
        engine.results()                        # current standing rows

    Map storage follows the compiler's storage plan
    (:func:`repro.compiler.storage.analyze_storage`): keyed maps with
    proven value types live in packed
    :class:`~repro.runtime.storage.ColumnarMap` columns, scalar maps in
    plain dicts.  ``columnar=False`` forces dict storage for every map
    (the storage ablation, the CLI's ``--no-columnar``); contents are
    bit-identical either way.
    """

    def __init__(
        self,
        program: CompiledProgram,
        mode: str = "compiled",
        profiler=None,
        strict: bool = False,
        use_indexes: bool = True,
        optimize: bool = True,
        second_order: bool = True,
        columnar: bool = True,
    ) -> None:
        """``strict=True`` raises on events for relations no standing query
        reads; the default silently skips them (a feed usually carries more
        streams than one query subscribes to).  ``use_indexes=False``
        disables secondary-index generation in compiled mode (the
        access-pattern ablation); ``optimize=False`` disables the IR
        optimisation pipeline in both modes (the loop-optimisation
        ablation, also the bench harness's ``--no-opt``);
        ``second_order=False`` disables the delta-of-delta batch sink, so
        self-reading triggers fall back to the per-row batch loop (the
        higher-order batching ablation); ``columnar=False`` disables
        packed columnar map storage, keeping every map a plain dict (the
        storage ablation, also the CLI's ``--no-columnar``)."""
        super().__init__(program, strict)
        self.columnar = columnar
        if columnar:
            self.maps: dict[str, dict] = analyze_storage(program).create_maps()
        else:
            self.maps = {name: {} for name in program.maps}
        self.profiler = profiler
        self.events_processed = 0
        self.use_indexes = use_indexes
        self.optimize = optimize
        self.second_order = second_order
        if mode == "compiled":
            from repro.codegen.pygen import CompiledExecutor

            self._executor = CompiledExecutor(
                program,
                self.maps,
                use_indexes=use_indexes,
                optimize=optimize,
                second_order=second_order,
                columnar=columnar,
            )
        elif mode == "native":
            from repro.codegen.native import NativeExecutor

            self._executor = NativeExecutor(
                program,
                self.maps,
                use_indexes=use_indexes,
                optimize=optimize,
                second_order=second_order,
                columnar=columnar,
            )
        elif mode == "interpreted":
            self._executor = InterpretedExecutor(
                program, optimize=optimize, second_order=second_order
            )
        else:
            raise EventError(f"unknown engine mode {mode!r}")
        self.mode = mode

    def __deepcopy__(self, memo: dict) -> "DeltaEngine":
        """Snapshot support (used by the benchmark harness).

        The compiled executor binds map dictionaries as function defaults,
        so a naive deepcopy would leave the copied engine's triggers writing
        to the *original* maps; instead the copy rebinds a fresh executor
        over copied maps (the immutable program is shared).
        """
        clone = DeltaEngine(
            self.program,
            mode=self.mode,
            profiler=None,
            strict=self.strict,
            use_indexes=self.use_indexes,
            optimize=self.optimize,
            second_order=self.second_order,
            columnar=self.columnar,
        )
        clone.maps.update(
            {
                # dict.copy / ColumnarMap.copy both preserve the storage
                # layout and insertion order of the snapshot.
                name: contents.copy()
                for name, contents in self.maps.items()
            }
        )
        if self.mode != "interpreted":
            clone._executor.bind(clone.maps)
        clone.events_processed = self.events_processed
        clone.events_skipped = self.events_skipped
        clone._stream_started = self._stream_started
        memo[id(self)] = clone
        return clone

    # -- event processing -------------------------------------------------

    def _process_batch(self, batch: EventBatch) -> int:
        """Dispatch one batch: per-event trigger for a degenerate one-row
        run (no loop setup, no transpose, and a second-order flush would
        restate whole maps for one row's change), the columnar ``*_batch``
        trigger otherwise.

        This is the engine's hottest dispatch path on interleaved feeds
        (runs average a handful of rows), so a stream relation's trigger —
        always admitted — is looked up inline; static tables, unknown
        relations and disabled deletions go through :meth:`_admit`.
        """
        count = batch._length
        if not count:
            return 0
        relation, sign = batch.relation, batch.sign
        trigger = self._stream_triggers.get((relation, sign))
        if trigger is None:
            trigger = self._admit(relation, sign, count)
            if trigger is None:
                return 0  # skipped, or deletions disabled / no statements
        else:
            self._stream_started = True
        if count == 1:
            self._executor.execute(trigger, batch.row(0), self.maps, self.profiler)
        else:
            self._executor.execute_batch(
                trigger, batch.columns, self.maps, self.profiler
            )
        self.events_processed += count
        if self.profiler is not None:
            self.profiler.record_batch(relation, sign, count)
        if self._batch_listeners:
            self._notify_listeners(batch)
        return count

    def sync(self) -> None:
        """Barrier for API parity with :class:`ShardedEngine`: an
        in-process engine has applied every batch on return."""

    def close(self) -> None:
        """Nothing to release: the maps live in this process."""

    # -- durability ---------------------------------------------------------

    def restore_state(
        self,
        maps: Mapping[str, Mapping],
        events_processed: int = 0,
        events_skipped: int = 0,
        stream_started: Optional[bool] = None,
    ) -> None:
        """Replace the engine's state with snapshot contents.

        Maps are updated *in place* — the compiled executor binds the map
        objects as function defaults, so swapping in new dicts would leave
        the triggers writing to orphans — and the executor is rebound
        afterwards so secondary indexes are rebuilt over the restored
        contents.  ``stream_started`` defaults to "any event was
        processed", which preserves the static-tables-load-first rule
        across a restart.
        """
        unknown = set(maps) - set(self.maps)
        if unknown:
            raise EventError(
                f"cannot restore unknown maps {sorted(unknown)}; this "
                f"program maintains: {sorted(self.maps)}"
            )
        for name, target in self.maps.items():
            target.clear()
            contents = maps.get(name)
            if contents:
                target.update(contents)
        if self.mode != "interpreted":
            self._executor.bind(self.maps)
        self.events_processed = events_processed
        self.events_skipped = events_skipped
        if stream_started is None:
            stream_started = events_processed > 0
        self._stream_started = stream_started

    @classmethod
    def recover(cls, program: CompiledProgram, directory, **kwargs):
        """Rebuild an engine from a durable directory (latest snapshot +
        WAL-suffix replay — see :mod:`repro.runtime.durability`).

        Returns a plain (non-logging) engine holding the recovered state;
        use :class:`~repro.runtime.durability.DurableEngine` instead when
        processing should *continue* to be logged.
        """
        from repro.runtime.durability import recover_engine

        engine, _ = recover_engine(program, directory, **kwargs)
        return engine

    def _current_maps(self) -> dict[str, dict]:
        return self.maps

    # -- introspection (the read-only client interface) --------------------

    @property
    def native_active(self) -> bool:
        """True when the C column kernel is loaded and attached
        (``mode="native"`` with a working toolchain)."""
        return bool(getattr(self._executor, "native_active", False))

    @property
    def native_note(self) -> Optional[str]:
        """The toolchain probe result the native lane ran under (or the
        fallback reason); ``None`` outside ``mode="native"``."""
        return getattr(self._executor, "native_note", None)

    def index_sizes(self) -> dict[str, int]:
        """Secondary-index entries currently held, per indexed map.

        Compiled mode maintains one index dict per access pattern; their
        entries are real memory the plain ``map_sizes`` view does not show.
        Interpreted mode (and ``use_indexes=False``) holds none.
        """
        counter = getattr(self._executor, "index_entry_counts", None)
        return counter() if counter is not None else {}


# ---------------------------------------------------------------------------
# Sharded parallel delta processing
# ---------------------------------------------------------------------------


def _shard_worker_main(
    conn, program, mode, use_indexes, optimize, second_order, columnar
) -> None:
    """One shard worker: a private :class:`DeltaEngine` fed over a pipe.

    Batches arrive columnar and apply fire-and-forget; the first trigger
    failure is remembered and surfaced on the next ``sync``/``collect``
    round-trip (subsequent batches are dropped, as the shard state is no
    longer trustworthy).
    """
    engine = DeltaEngine(
        program, mode=mode, strict=False, use_indexes=use_indexes,
        optimize=optimize, second_order=second_order, columnar=columnar,
    )
    failure = None
    while True:
        try:
            message = conn.recv()
        except (EOFError, OSError, KeyboardInterrupt):
            break
        op = message[0]
        if op == "batch":
            if failure is None:
                try:
                    engine.process_batch_columns(
                        message[1], message[2], message[3]
                    )
                except Exception as exc:  # surfaced on the next sync
                    failure = f"{type(exc).__name__}: {exc}"
        elif op == "rows":
            # Small runs ship as row tuples: the lane transposes lazily
            # (or takes the per-event path for a single row).
            if failure is None:
                try:
                    engine.process_batch(message[1], message[2], message[3])
                except Exception as exc:  # surfaced on the next sync
                    failure = f"{type(exc).__name__}: {exc}"
        elif op == "sync":
            if failure is not None:
                conn.send(("error", failure))
            else:
                conn.send(("ok", engine.events_processed))
        elif op == "collect":
            if failure is not None:
                conn.send(("error", failure))
            else:
                conn.send(("maps", engine.maps, engine.events_processed))
        elif op == "stats":
            if failure is not None:
                conn.send(("error", failure))
            else:
                conn.send(("stats", engine.index_sizes()))
        elif op == "restore":
            # Snapshot recovery scatters a state slice into this lane; a
            # successful restore also clears any remembered failure — the
            # lane state is authoritative again.
            try:
                engine.restore_state(
                    message[1],
                    events_processed=message[2],
                    stream_started=message[3],
                )
            except Exception as exc:
                failure = f"{type(exc).__name__}: {exc}"
                conn.send(("error", failure))
            else:
                failure = None
                conn.send(("ok", None))
        else:  # "stop"
            break
    conn.close()


class _ProcessLane:
    """Coordinator-side handle of one forked shard worker."""

    #: Seconds between liveness checks while waiting on a worker reply.  A
    #: healthy worker replies as soon as it drains its queued batches, so
    #: the poll loop only spins when the pipe is genuinely idle.
    _POLL_INTERVAL = 0.2

    def __init__(
        self, ctx, program, mode, use_indexes, optimize, second_order,
        columnar, index: int = 0,
    ) -> None:
        self.index = index
        self._conn, child = ctx.Pipe()
        self._proc = ctx.Process(
            target=_shard_worker_main,
            args=(
                child, program, mode, use_indexes, optimize, second_order,
                columnar,
            ),
            daemon=True,
        )
        self._proc.start()
        child.close()

    def send_batch(self, relation: str, sign: int, columns: tuple) -> None:
        try:
            self._conn.send(("batch", relation, sign, columns))
        except (BrokenPipeError, OSError) as exc:
            raise self._dead_worker_error() from exc

    def send_rows(self, relation: str, sign: int, rows: list) -> None:
        try:
            self._conn.send(("rows", relation, sign, rows))
        except (BrokenPipeError, OSError) as exc:
            raise self._dead_worker_error() from exc

    def _round_trip(self, request: tuple) -> tuple:
        """Send one request and wait for its reply, watching for death.

        A worker killed mid-operation (OOM, SIGKILL, crash) can leave the
        pipe open-but-silent, so a bare ``recv()`` would hang forever.
        Instead the wait polls the pipe and checks the process between
        polls: a reply already in flight when the worker dies is still
        delivered (poll is checked first), and a dead worker with an empty
        pipe raises a clear :class:`~repro.errors.EventError` naming the
        shard and how it exited.
        """
        try:
            self._conn.send(request)
            while not self._conn.poll(self._POLL_INTERVAL):
                if not self._proc.is_alive():
                    raise self._dead_worker_error()
            reply = self._conn.recv()
        except (EOFError, BrokenPipeError, OSError) as exc:
            raise self._dead_worker_error() from exc
        if reply[0] == "error":
            raise EventError(
                f"shard worker {self.index} failed: {reply[1]}"
            )
        return reply

    def _dead_worker_error(self) -> EventError:
        exitcode = self._proc.exitcode if self._proc is not None else None
        if exitcode is None:
            how = "exit status unknown"
        elif exitcode < 0:
            try:
                name = signal.Signals(-exitcode).name
            except ValueError:
                name = f"signal {-exitcode}"
            how = f"killed by {name}"
        else:
            how = f"exit code {exitcode}"
        error = EventError(
            f"shard worker {self.index} (pid {self._pid()}) died "
            f"mid-operation ({how}); its lane state is lost — rebuild the "
            "engine, or recover from a durable directory"
        )
        # Death-vs-failure marker: a supervisor restarts on a dead worker
        # (the process is gone) but never on a trigger failure (the
        # worker is alive and answering — restarting would mask the bug).
        error.worker_died = True
        return error

    def _pid(self):
        return self._proc.pid if self._proc is not None else "?"

    def sync(self) -> None:
        self._round_trip(("sync",))

    def events_processed(self) -> int:
        return self._round_trip(("sync",))[1]

    def collect_maps(self) -> dict[str, dict]:
        return self._round_trip(("collect",))[1]

    def index_sizes(self) -> dict[str, int]:
        return self._round_trip(("stats",))[1]

    def restore(
        self, maps: dict, events_processed: int, stream_started: bool
    ) -> None:
        self._round_trip(("restore", maps, events_processed, stream_started))

    def close(self) -> None:
        if self._proc is None:
            return
        try:
            self._conn.send(("stop",))
        except (OSError, ValueError):
            pass
        self._proc.join(timeout=5)
        if self._proc.is_alive():
            self._proc.terminate()
            self._proc.join(timeout=5)
        self._conn.close()
        self._proc = None


class _LocalLane:
    """An in-process shard lane (no IPC; used by tests and small runs)."""

    def __init__(self, engine: DeltaEngine) -> None:
        self.engine = engine

    def send_batch(self, relation: str, sign: int, columns: tuple) -> None:
        self.engine.process_batch_columns(relation, sign, columns)

    def send_rows(self, relation: str, sign: int, rows: list) -> None:
        self.engine.process_batch(relation, sign, rows)

    def sync(self) -> None:
        pass

    def events_processed(self) -> int:
        return self.engine.events_processed

    def collect_maps(self) -> dict[str, dict]:
        return self.engine.maps

    def index_sizes(self) -> dict[str, int]:
        return self.engine.index_sizes()

    def restore(
        self, maps: dict, events_processed: int, stream_started: bool
    ) -> None:
        self.engine.restore_state(
            maps,
            events_processed=events_processed,
            stream_started=stream_started,
        )

    def close(self) -> None:
        pass


# ---------------------------------------------------------------------------
# Shard worker supervision
# ---------------------------------------------------------------------------


class _BatchReplayed(Exception):
    """Internal control flow: a supervised durable rebuild replayed the
    in-flight batch from the WAL (it was logged before it was routed), so
    the router must not re-send the remaining lane slices."""


class ShardSupervisor:
    """Respawns dead shard workers and rebuilds their lane state.

    Without supervision a forked worker that dies (OOM kill, crash,
    SIGKILL) permanently poisons its :class:`ShardedEngine`: every later
    operation raises the dead-worker :class:`~repro.errors.EventError`.
    A supervisor (``ShardedEngine(..., parallel=True, supervise=True)``)
    intercepts exactly that error, respawns the worker process and
    rebuilds its state, then resumes the interrupted operation — the
    stream sees one identical delta sequence, just delivered later.

    Two rebuild strategies, picked by how the engine is deployed:

    * **journal** (plain sharded engine) — the supervisor keeps a
      coordinator-side checkpoint per lane (the lane's maps, captured
      through the worker pipe every ``checkpoint_every`` sends — the
      pipe's pickling is the deep copy) plus a journal of every send
      since.  Rebuild = respawn, restore the checkpoint, replay the
      journal; the in-flight send is journaled before it goes out, so
      replay covers it.
    * **durable** (:class:`~repro.runtime.durability.DurableEngine`
      wrapping this engine) — the WAL already journals every batch
      pre-partition, so the durable engine installs a rebuilder
      (:meth:`install_rebuilder`) and in-memory journaling switches off.
      Rebuild = reset *all* lanes and replay snapshot + WAL suffix, the
      exact crash-recovery path; recovery time is linear in the WAL
      suffix length.

    Restarts are budgeted: more than ``max_restarts`` inside a sliding
    ``window`` (seconds) re-raises the loud dead-worker error — a crash
    loop should page an operator, not spin silently.  Only *death* is
    supervised; a worker that answers ``("error", ...)`` (a trigger
    failure) raises immediately, restarting would just mask the bug.
    """

    def __init__(
        self,
        engine: "ShardedEngine",
        max_restarts: int = 3,
        window: float = 60.0,
        checkpoint_every: int = 64,
    ) -> None:
        if max_restarts < 1:
            raise EventError(
                f"supervisor max_restarts must be >= 1, got {max_restarts!r}"
            )
        if window <= 0:
            raise EventError(
                f"supervisor window must be positive, got {window!r}"
            )
        if checkpoint_every < 1:
            raise EventError(
                f"supervisor checkpoint_every must be >= 1, got "
                f"{checkpoint_every!r}"
            )
        self.engine = engine
        self.max_restarts = max_restarts
        self.window = window
        self.checkpoint_every = checkpoint_every
        self.restarts = 0
        self.last_recovery_seconds: Optional[float] = None
        #: One entry per successful restart: lane, rebuild mode, number of
        #: journal entries / WAL frames replayed, wall-clock seconds.
        self.recoveries: list[dict] = []
        self._restart_times: deque = deque()
        self._rebuilder: Optional[Callable[[], int]] = None
        self._rebuilding = False

    def install_rebuilder(self, rebuilder: Callable[[], int]) -> None:
        """Switch to durable rebuilds: ``rebuilder()`` restores the whole
        engine from persistent state and returns the replayed frame
        count.  In-memory journals and checkpoints are dropped — the WAL
        supersedes them."""
        self._rebuilder = rebuilder
        for lane in self.engine._lanes:
            if isinstance(lane, _SupervisedLane):
                lane._journal = []
                lane._checkpoint = None
                lane._sends_since_checkpoint = 0

    @property
    def durable(self) -> bool:
        """True when rebuilds replay persistent state instead of the
        in-memory journal."""
        return self._rebuilder is not None

    def _recover(self, lane: "_SupervisedLane", cause: EventError) -> str:
        """Respawn ``lane``'s worker and rebuild its state.

        Returns the rebuild mode (``"journal"`` / ``"durable"``); raises
        the budget-exhausted :class:`~repro.errors.EventError` without
        restarting when the window is spent.
        """
        now = time.monotonic()
        while self._restart_times and now - self._restart_times[0] > self.window:
            self._restart_times.popleft()
        if len(self._restart_times) >= self.max_restarts:
            raise EventError(
                f"shard worker {lane.index} died and the supervisor's "
                f"restart budget is exhausted ({self.max_restarts} "
                f"restarts in {self.window:g}s); giving up: {cause}"
            ) from cause
        self._restart_times.append(now)
        started = time.perf_counter()
        self.engine._replace_worker(lane)
        if self._rebuilder is not None:
            self._rebuilding = True
            try:
                replayed = self._rebuilder()
            finally:
                self._rebuilding = False
            mode = "durable"
        else:
            checkpoint = lane._checkpoint
            if checkpoint is not None:
                lane._inner.restore(checkpoint[0], checkpoint[1], checkpoint[2])
            for entry in lane._journal:
                lane._apply(lane._inner, entry)
            replayed = len(lane._journal)
            mode = "journal"
        elapsed = time.perf_counter() - started
        self.restarts += 1
        self.last_recovery_seconds = elapsed
        self.recoveries.append(
            {
                "lane": lane.index,
                "mode": mode,
                "replayed": replayed,
                "seconds": elapsed,
            }
        )
        return mode


class _SupervisedLane:
    """A :class:`_ProcessLane` proxy that survives worker death.

    Drop-in for the lane interface the router uses: every operation is
    forwarded to the wrapped lane, and the dead-worker error triggers the
    supervisor's respawn-and-rebuild instead of propagating.  In journal
    mode the proxy also owns the lane's rebuild basis — the checkpoint
    and the send journal (sends are journaled *before* they hit the
    pipe, so the rebuild replay always covers the failed send).
    """

    def __init__(self, supervisor: ShardSupervisor, inner: _ProcessLane) -> None:
        self.supervisor = supervisor
        self._inner = inner
        self._journal: list[tuple] = []
        #: (maps, events_processed, stream_started) through the worker
        #: pipe — pickled on the way out, so already a private deep copy.
        self._checkpoint: Optional[tuple] = None
        self._sends_since_checkpoint = 0

    @property
    def index(self) -> int:
        return self._inner.index

    @property
    def _proc(self):
        # The chaos/fault-injection harness reaches through the proxy for
        # the worker pid it SIGKILLs.
        return self._inner._proc

    @staticmethod
    def _apply(lane: _ProcessLane, entry: tuple) -> None:
        if entry[0] == "batch":
            lane.send_batch(entry[1], entry[2], entry[3])
        else:
            lane.send_rows(entry[1], entry[2], entry[3])

    def _worker_death(self, exc: EventError) -> bool:
        return (
            getattr(exc, "worker_died", False)
            and not self.supervisor._rebuilding
        )

    def _guarded_send(self, entry: tuple) -> None:
        supervisor = self.supervisor
        journaling = supervisor._rebuilder is None
        if journaling:
            self._journal.append(entry)
        try:
            self._apply(self._inner, entry)
        except EventError as exc:
            if not self._worker_death(exc):
                raise
            if supervisor._recover(self, exc) == "durable":
                # The WAL replay re-applied the whole in-flight batch
                # (every lane's slice): abort the router's remaining sends.
                raise _BatchReplayed() from None
            return  # journal replay included this entry
        if journaling:
            self._sends_since_checkpoint += 1
            if self._sends_since_checkpoint >= supervisor.checkpoint_every:
                self._take_checkpoint()

    def _guarded_round_trip(self, op: Callable[[_ProcessLane], object]):
        try:
            return op(self._inner)
        except EventError as exc:
            if not self._worker_death(exc):
                raise
            self.supervisor._recover(self, exc)
            return op(self._inner)

    def _take_checkpoint(self) -> None:
        reply = self._guarded_round_trip(
            lambda lane: lane._round_trip(("collect",))
        )
        self._checkpoint = (
            reply[1],
            reply[2],
            self.supervisor.engine._stream_started,
        )
        self._journal = []
        self._sends_since_checkpoint = 0

    # -- the lane interface --------------------------------------------------

    def send_batch(self, relation: str, sign: int, columns: tuple) -> None:
        self._guarded_send(("batch", relation, sign, columns))

    def send_rows(self, relation: str, sign: int, rows: list) -> None:
        self._guarded_send(("rows", relation, sign, rows))

    def sync(self) -> None:
        self._guarded_round_trip(lambda lane: lane.sync())

    def events_processed(self) -> int:
        return self._guarded_round_trip(lambda lane: lane.events_processed())

    def collect_maps(self) -> dict[str, dict]:
        return self._guarded_round_trip(lambda lane: lane.collect_maps())

    def index_sizes(self) -> dict[str, int]:
        return self._guarded_round_trip(lambda lane: lane.index_sizes())

    def restore(
        self, maps: dict, events_processed: int, stream_started: bool
    ) -> None:
        self._guarded_round_trip(
            lambda lane: lane.restore(maps, events_processed, stream_started)
        )
        if self.supervisor._rebuilder is None:
            # A restore resets the lane wholesale: it becomes the new
            # rebuild basis and everything journaled before it is moot.
            self._checkpoint = (
                {name: dict(contents) for name, contents in maps.items()},
                events_processed,
                stream_started,
            )
            self._journal = []
            self._sends_since_checkpoint = 0

    def close(self) -> None:
        self._inner.close()


def _merge_lane_maps(
    program: CompiledProgram, lane_maps: Iterable[Mapping[str, Mapping]]
) -> dict[str, dict]:
    """Key-wise sum of per-lane maps, dropping zeros.

    Correct uniformly across the three ownership classes of the partition
    spec: sharded read maps hold disjoint key slices per lane (sum ==
    disjoint union), serial-lane maps are empty everywhere else, and
    additive maps accumulate genuine partial sums.
    """
    merged: dict[str, dict] = {name: {} for name in program.maps}
    for maps in lane_maps:
        for name, contents in maps.items():
            if not contents:
                continue
            target = merged[name]
            for key, value in contents.items():
                total = target.get(key, 0) + value
                if total == 0:
                    target.pop(key, None)
                else:
                    target[key] = total
    # Finalize-maintained auxiliary caches are not additive — a lane's
    # cache reflects only its local occurrence slice (summing two lanes'
    # per-group minima would add the values).  Rebuild each cache from
    # its merged occurrence map instead.
    for occ_name, specs in program.finalizers.items():
        for spec in specs:
            target = merged[spec.aux] = {}
            _run_finalize(
                target, merged[occ_name], spec.kind, spec.group_arity, ()
            )
    return merged


class ShardedEngine(_Ingest):
    """N-way sharded parallel execution of a compiled delta program.

    Batches are hash-routed by each relation's partition column (from
    :func:`repro.compiler.partition.analyze_partitioning`) to per-shard
    :class:`DeltaEngine` lanes; relations the analysis cannot partition run
    on a built-in serial lane.  Lane maps are disjoint by construction, so
    :meth:`results` / :meth:`map_view` merge them key-wise and equal a
    single-engine run over the same stream.

    ``parallel=True`` forks one worker process per shard (POSIX only;
    silently falls back to in-process lanes where ``fork`` is unavailable)
    and overlaps trigger execution across cores — the engine-side
    realisation of the ROADMAP's "parallel shards" follow-up.  Reads
    (``results``, ``map_view``, ``events_processed``...) synchronise with
    the workers first, so they always observe a consistent merged state.

    A program with no partitionable relation degrades gracefully: every
    batch runs on the serial lane and the engine behaves exactly like a
    single :class:`DeltaEngine`.
    """

    def __init__(
        self,
        program: CompiledProgram,
        shards: int = 2,
        mode: str = "compiled",
        parallel: bool = False,
        strict: bool = False,
        use_indexes: bool = True,
        optimize: bool = True,
        second_order: bool = True,
        columnar: bool = True,
        spec: Optional[PartitionSpec] = None,
        supervise: bool = False,
        max_worker_restarts: int = 3,
        restart_window: float = 60.0,
        checkpoint_every: int = 64,
    ) -> None:
        """``supervise=True`` (with ``parallel=True``) wraps each forked
        worker lane in a :class:`ShardSupervisor` that respawns dead
        workers and rebuilds their state — from a coordinator-side
        checkpoint + send journal (refreshed every ``checkpoint_every``
        sends), or from snapshot + WAL replay when a
        :class:`~repro.runtime.durability.DurableEngine` wraps this
        engine.  At most ``max_worker_restarts`` restarts are attempted
        per sliding ``restart_window`` seconds; past the budget the
        dead-worker :class:`~repro.errors.EventError` propagates as
        before.  In-process lanes cannot die, so ``supervise`` is a no-op
        without forked workers."""
        if shards < 1:
            raise EventError(f"shard count must be >= 1, got {shards!r}")
        # The flush-path tap fires once per routed batch (post-routing:
        # listeners that read state go through the synchronising reads).
        super().__init__(program, strict)
        self.spec = spec if spec is not None else analyze_partitioning(program)
        self.shards = shards
        self.mode = mode
        self.use_indexes = use_indexes
        self.optimize = optimize
        self.second_order = second_order
        self.columnar = columnar
        self._serial = DeltaEngine(
            program, mode=mode, strict=False, use_indexes=use_indexes,
            optimize=optimize, second_order=second_order, columnar=columnar,
        )
        self.parallel = False
        self._closed = False
        self._lanes: list = []
        self._ctx = None
        self.supervisor: Optional[ShardSupervisor] = None
        if self.spec.partitionable and shards > 1:
            if parallel:
                ctx = self._fork_context()
                if ctx is not None:
                    self._ctx = ctx
                    self._lanes = [
                        self._spawn_worker(index) for index in range(shards)
                    ]
                    self.parallel = True
            if not self._lanes:
                self._lanes = [
                    _LocalLane(
                        DeltaEngine(
                            program,
                            mode=mode,
                            strict=False,
                            use_indexes=use_indexes,
                            optimize=optimize,
                            second_order=second_order,
                            columnar=columnar,
                        )
                    )
                    for _ in range(shards)
                ]
        if supervise and self.parallel:
            self.supervisor = ShardSupervisor(
                self,
                max_restarts=max_worker_restarts,
                window=restart_window,
                checkpoint_every=checkpoint_every,
            )
            self._lanes = [
                _SupervisedLane(self.supervisor, lane) for lane in self._lanes
            ]

    @staticmethod
    def _fork_context():
        import multiprocessing

        try:
            return multiprocessing.get_context("fork")
        except ValueError:
            return None

    def _spawn_worker(self, index: int) -> _ProcessLane:
        return _ProcessLane(
            self._ctx, self.program, self.mode, self.use_indexes,
            self.optimize, self.second_order, self.columnar, index=index,
        )

    def _replace_worker(self, lane: "_SupervisedLane") -> None:
        """Swap a supervised lane's dead worker for a fresh fork."""
        try:
            lane._inner.close()
        except Exception:
            pass
        lane._inner = self._spawn_worker(lane.index)

    # -- event processing -------------------------------------------------

    def _process_batch(self, batch: EventBatch) -> int:
        """Route one batch.

        Semantics match :meth:`DeltaEngine._process_batch`; the
        static-table ordering rules are enforced here, globally, because
        lane-local stream state is only a partial view.  The routing
        column is hashed directly from its column list, and each lane
        receives its slice still columnar; serial-lane batches flow
        through untouched (one-row runs never transpose).
        """
        self._check_open()
        count = len(batch)
        if not count:
            return 0
        relation, sign = batch.relation, batch.sign
        if self._admit(relation, sign, count) is None:
            return 0
        column = self.spec.column_for(relation)
        try:
            if column is None or not self._lanes:
                self._serial._process_batch(batch)
            elif count == 1:
                row = batch.row(0)
                shard = hash(row[column]) % len(self._lanes)
                self._lanes[shard].send_rows(relation, sign, [row])
            elif count <= _ROW_ROUTE_THRESHOLD:
                # Short runs: row-level hash routing is cheaper than
                # building per-shard column gathers; each lane transposes
                # its (tiny) slice lazily.
                for shard, shard_rows in enumerate(
                    partition_rows(batch.rows, column, len(self._lanes))
                ):
                    if shard_rows:
                        self._lanes[shard].send_rows(relation, sign, shard_rows)
            else:
                for shard, shard_columns in enumerate(
                    partition_columns(batch.columns, column, len(self._lanes))
                ):
                    if shard_columns and shard_columns[0]:
                        self._lanes[shard].send_batch(
                            relation, sign, shard_columns
                        )
        except _BatchReplayed:
            # A supervised durable rebuild replayed the WAL, which already
            # contains this batch in full — the un-sent lane slices were
            # applied by the replay, so routing must not resume.
            pass
        if self._batch_listeners:
            self._notify_listeners(batch)
        return count

    def sync(self) -> None:
        """Barrier: wait until every shard worker has drained its pipe.

        Raises :class:`~repro.errors.EventError` if any worker's trigger
        execution failed.  A no-op for in-process lanes.
        """
        for lane in self._lanes:
            lane.sync()

    @property
    def events_processed(self) -> int:
        """Events that reached a trigger, across all lanes (synchronises)."""
        self._check_open()
        return self._serial.events_processed + sum(
            lane.events_processed() for lane in self._lanes
        )

    # -- durability ---------------------------------------------------------

    def restore_state(
        self,
        maps: Mapping[str, Mapping],
        events_processed: int = 0,
        events_skipped: int = 0,
        stream_started: Optional[bool] = None,
    ) -> None:
        """Scatter snapshot contents across the shard lanes.

        A snapshot holds *merged* maps, so restoring must undo the merge:
        each sharded read map is split by hashing the partition value in
        its key — exactly the router's placement, so post-restore deltas
        land on the lane that owns the restored slice.  Serial-lane maps,
        additive (sum-merged) maps and anything unsharded restore whole
        into the serial engine: the merge sums lanes key-wise, and every
        other lane starts its slice empty.  The event counter also lives
        on the serial engine (``events_processed`` sums all lanes).
        """
        self._check_open()
        if stream_started is None:
            stream_started = events_processed > 0
        self.events_skipped = events_skipped
        self._stream_started = stream_started
        if not self._lanes:
            self._serial.restore_state(
                maps,
                events_processed=events_processed,
                stream_started=stream_started,
            )
            return
        n_lanes = len(self._lanes)
        serial_maps: dict[str, dict] = {}
        lane_maps: list[dict[str, dict]] = [{} for _ in range(n_lanes)]
        for name, contents in maps.items():
            position = self.spec.map_positions.get(name)
            if position is None or name in self.spec.serial_maps:
                serial_maps[name] = dict(contents)
                continue
            slices = [lane.setdefault(name, {}) for lane in lane_maps]
            for key, value in contents.items():
                slices[hash(key[position]) % n_lanes][key] = value
        self._serial.restore_state(
            serial_maps,
            events_processed=events_processed,
            stream_started=stream_started,
        )
        for lane, shard_maps in zip(self._lanes, lane_maps):
            lane.restore(shard_maps, 0, stream_started)

    # -- results ------------------------------------------------------------

    def merged_maps(self) -> dict[str, dict]:
        """The key-wise merge of all lane maps (synchronises workers)."""
        self._check_open()
        self.sync()
        lane_maps = [self._serial.maps] + [
            lane.collect_maps() for lane in self._lanes
        ]
        return _merge_lane_maps(self.program, lane_maps)

    def _current_maps(self) -> dict[str, dict]:
        return self.merged_maps()

    # -- introspection ------------------------------------------------------

    @property
    def native_active(self) -> bool:
        """True when the serial lane runs the C column kernel; forked
        worker lanes probe/build the same cached kernel post-fork."""
        return self._serial.native_active

    @property
    def native_note(self) -> Optional[str]:
        return self._serial.native_note

    def index_sizes(self) -> dict[str, int]:
        """Secondary-index entries summed across every lane.

        Indexes are lane-local (each shard indexes its own key slice), so
        the *sum* — not the merged-map view — is the real shard-local
        memory footprint.  The per-lane stats round-trip drains each
        worker's queued batches (pipe messages apply in order) and
        surfaces remembered failures, so no separate sync is needed.
        """
        self._check_open()
        totals = dict(self._serial.index_sizes())
        for lane in self._lanes:
            for name, entries in lane.index_sizes().items():
                totals[name] = totals.get(name, 0) + entries
        return totals

    # -- lifecycle ----------------------------------------------------------

    def _check_open(self) -> None:
        if self._closed:
            raise EventError(
                "ShardedEngine is closed: shard state was discarded; "
                "read results before close() / leaving the with-block"
            )

    def close(self) -> None:
        """Stop worker processes and discard lane state (idempotent).

        A closed engine rejects further event processing and reads: its
        shard lanes (and their maps) are gone, so answering from the
        remaining serial lane alone would silently return partial state.
        """
        for lane in self._lanes:
            lane.close()
        self._lanes = []
        self._closed = True

    def __enter__(self) -> "ShardedEngine":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def __del__(self) -> None:
        try:
            self.close()
        except Exception:
            pass
