"""Pieces shared by the in-process runner, the served client and the server."""

from __future__ import annotations

import sys

from oracle import normalise


def build_program(inputs, tracer):
    """SQL text to a compiled program, one span per layer."""
    from repro import Catalog, compile_queries, translate_sql

    with tracer.span("sql.catalog"):
        catalog = Catalog.from_script(inputs.ddl)
    with tracer.span("algebra.translate"):
        translated = [
            translate_sql(sql, catalog, name=name)
            for name, sql in inputs.queries.items()
        ]
    with tracer.span("compiler.compile"):
        program = compile_queries(translated, catalog)
    tracer.gauge("compiler.maps", len(program.maps))
    tracer.gauge("compiler.statements", program.statements_count())
    return program


def load_static(engine, inputs, tracer) -> None:
    with tracer.span("runtime.engine.load"):
        for relation, rows in inputs.static.items():
            engine.load(relation, rows)


def state_of(engine) -> dict:
    """Maintained maps and secondary indexes at this moment.

    Bytes are ``sys.getsizeof`` sums (maps through the profiler's
    ``map_memory_bytes``), so they repeat exactly for one commit, seed and
    input.  Fails loudly if the engine holds index entries this function
    cannot find, rather than under-reporting them.
    """
    from repro.runtime.profiler import map_memory_bytes

    index_entries = sum(engine.index_sizes().values())
    indexes = getattr(getattr(engine, "_executor", None), "indexes", {})
    found = sum(len(bucket) for index in indexes.values() for bucket in index.values())
    if found != index_entries:
        raise RuntimeError(
            f"state_of: found {found} index entries, engine reports {index_entries}"
        )
    index_bytes = 0
    for index in indexes.values():
        index_bytes += sys.getsizeof(index)
        for subkey, bucket in index.items():
            index_bytes += sys.getsizeof(subkey) + sys.getsizeof(bucket)
            index_bytes += sum(sys.getsizeof(key) for key in bucket)
    return {
        "entries": engine.total_entries(),
        "index_entries": index_entries,
        "bytes": sum(map_memory_bytes(engine.maps).values()) + index_bytes,
    }


class Checker:
    """Compares view rows with the oracle; counts mismatches.

    ``corrupt`` flips one result row of the first comparison made, which
    must then be reported as a failure (the smoke test's proof that the
    oracle is not vacuous).
    """

    def __init__(self, corrupt: bool = False) -> None:
        self.corrupt = corrupt
        self.checks = 0
        self.mismatches = 0

    def same(self, actual: dict, expected: dict) -> bool:
        got = {name: normalise(rows) for name, rows in actual.items()}
        if self.corrupt:
            self.corrupt = False
            name = sorted(got)[0]
            got[name] = ["corrupted"] + got[name][1:]
        self.checks += 1
        if got != expected:
            self.mismatches += 1
            wrong = sorted(name for name in expected if got.get(name) != expected[name])
            print(f"oracle mismatch in {', '.join(wrong)}", file=sys.stderr)
            return False
        return True


def percentile(values, q: float) -> float:
    """Nearest-rank percentile of a non-empty sequence."""
    ordered = sorted(values)
    rank = max(1, -(-len(ordered) * q // 1))
    return ordered[min(len(ordered), int(rank)) - 1]
