"""One batch-admission rule set across every engine flavour.

The single engine, the sharded router (in-process and forked lanes) and
the durable wrapper all admit batches through the same check, so each
rejection — a static table after the stream started, a static-table
delete, an unknown relation in strict mode — must raise the same error
type with the same message on every entry point.  A durable engine must
also keep the rejected batch out of its write-ahead log.
"""

import multiprocessing

import pytest

from repro.compiler import compile_sql
from repro.errors import EventError, UnknownStreamError
from repro.runtime import DeltaEngine, ShardedEngine, StreamEvent
from repro.runtime.durability import DurableEngine, WriteAheadLog, recover_engine
from repro.sql.catalog import Catalog

DDL = """
CREATE TABLE DIM (K int, V int);
CREATE STREAM FACT (K int, M int);
"""

QUERY = "SELECT f.K, sum(f.M * d.V) FROM FACT f, DIM d WHERE f.K = d.K GROUP BY f.K"

STATIC_AFTER_STREAM = (
    "static table 'DIM' cannot change after stream processing has started; "
    "declare it as a STREAM if it receives online updates"
)
STATIC_DELETE = "static table 'DIM' only supports bulk-load inserts"
UNKNOWN_RELATION = (
    "no standing query reads relation 'NOPE'; known relations: DIM, FACT"
)


def _program():
    return compile_sql(QUERY, Catalog.from_script(DDL), name="q")


def _fork_available() -> bool:
    try:
        multiprocessing.get_context("fork")
    except ValueError:
        return False
    return True


def _make_engine(kind, tmp_path, strict):
    program = _program()
    if kind == "delta":
        return DeltaEngine(program, strict=strict)
    if kind == "sharded":
        return ShardedEngine(program, shards=2, strict=strict)
    if kind == "sharded-forked":
        if not _fork_available():
            pytest.skip("fork not available")
        engine = ShardedEngine(program, shards=2, parallel=True, strict=strict)
        if not engine.parallel:
            engine.close()
            pytest.skip("process lanes unavailable")
        return engine
    return DurableEngine(program, tmp_path, strict=strict, fsync="none")


def _submit(engine, entry, relation, sign, rows):
    if entry == "process":
        for row in rows:
            engine.process(StreamEvent(relation, sign, row))
    elif entry == "process_batch":
        engine.process_batch(relation, sign, rows)
    else:
        engine.process_stream([StreamEvent(relation, sign, row) for row in rows])


def _static_after_stream(engine, entry):
    engine.load("DIM", [(1, 10), (2, 20)])
    engine.insert("FACT", 1, 3)
    _submit(engine, entry, "DIM", 1, [(3, 30), (4, 40)])


def _static_delete(engine, entry):
    _submit(engine, entry, "DIM", -1, [(1, 10)])


def _unknown_relation(engine, entry):
    engine.load("DIM", [(1, 10)])
    _submit(engine, entry, "NOPE", 1, [(1, 2)])


CASES = {
    # case: (strict, action, error type, message)
    "static-after-stream": (False, _static_after_stream, EventError, STATIC_AFTER_STREAM),
    "static-delete": (False, _static_delete, EventError, STATIC_DELETE),
    "strict-unknown": (True, _unknown_relation, UnknownStreamError, UNKNOWN_RELATION),
}


def _run(engine, action, entry, error_type):
    """Run a rejected action, then one accepted event; the error and the
    results afterwards."""
    with pytest.raises(error_type) as excinfo:
        action(engine, entry)
    engine.insert("FACT", 1, 5)
    return excinfo.value, engine.results("q")


@pytest.mark.parametrize("entry", ["process", "process_batch", "process_stream"])
@pytest.mark.parametrize("case", sorted(CASES))
@pytest.mark.parametrize("kind", ["delta", "sharded", "sharded-forked", "durable"])
def test_rejection_is_identical_across_engines(tmp_path, kind, case, entry):
    strict, action, error_type, message = CASES[case]
    _, expected = _run(DeltaEngine(_program(), strict=strict), action, entry, error_type)
    engine = _make_engine(kind, tmp_path, strict)
    try:
        error, results = _run(engine, action, entry, error_type)
        logged = engine.lsn if kind == "durable" else None
    finally:
        engine.close()
    assert type(error) is error_type
    assert str(error) == message
    # The rejected batch left no trace: the engine carried on exactly
    # like a single engine that saw the same calls.
    assert results == expected
    if kind == "durable":
        # Only accepted batches were logged, so recovery replays cleanly
        # (a logged rejection would re-raise on every recovery).
        frames = list(WriteAheadLog.replay(tmp_path))
        assert [lsn for lsn, *_ in frames] == list(range(1, logged + 1))
        assert {relation for _, relation, _, _ in frames} <= {"DIM", "FACT"}
        recovered, lsn = recover_engine(_program(), tmp_path, strict=strict)
        assert lsn == logged
        assert recovered.results("q") == expected
