"""The correctness oracle: the workload's SQL evaluated by sqlite3.

The oracle keeps its own multiset of live base rows, loads it into an
in-memory sqlite3 database and runs each query's SQL text there.  It
shares no code with the program: the tables come from the DDL text and
the rows from the benchmark's own copy of the inputs.
"""

from __future__ import annotations

import sqlite3
from collections import Counter


def normalise(rows) -> list[str]:
    """Rows as sorted ``repr`` strings.  NULL is 0 (an empty sum renders
    as 0 in the engine) and integral floats are ints."""

    def value(v):
        if v is None:
            return 0
        if isinstance(v, float) and v.is_integer():
            return int(v)
        return v

    return sorted(repr(tuple(value(v) for v in row)) for row in rows)


class SqliteOracle:
    def __init__(self, ddl: str, queries: dict[str, str]) -> None:
        self.queries = queries
        self.db = sqlite3.connect(":memory:")
        self.live: dict[str, Counter] = {}
        self.width: dict[str, int] = {}
        for statement in ddl.split(";"):
            statement = statement.strip()
            if not statement:
                continue
            name = statement.split()[2].lower()
            columns = statement[statement.index("(") + 1 : statement.rindex(")")]
            self.db.execute(statement.replace("CREATE STREAM", "CREATE TABLE", 1))
            self.live[name] = Counter()
            self.width[name] = len(columns.split(","))
        self._dirty: set[str] = set()

    def apply(self, relation: str, sign: int, rows) -> None:
        live = self.live[relation]
        for row in rows:
            row = tuple(row)
            if sign > 0:
                live[row] += 1
            elif live[row] > 0:
                live[row] -= 1
                if not live[row]:
                    del live[row]
            else:
                raise ValueError(f"oracle: delete of a row not in {relation}: {row}")
        self._dirty.add(relation)

    def results(self) -> dict[str, list[str]]:
        """Every query's normalised rows over the live multiset."""
        for relation in self._dirty:
            marks = ", ".join("?" * self.width[relation])
            self.db.execute(f"DELETE FROM {relation}")
            self.db.executemany(
                f"INSERT INTO {relation} VALUES ({marks})",
                (row for row, n in self.live[relation].items() for _ in range(n)),
            )
        self._dirty.clear()
        return {
            name: normalise(self.db.execute(sql).fetchall())
            for name, sql in self.queries.items()
        }


def _loaded_oracle(inputs) -> SqliteOracle:
    """An oracle holding the workload's static tables."""
    oracle = SqliteOracle(inputs.ddl, inputs.queries)
    for relation, rows in inputs.static.items():
        oracle.apply(relation, 1, rows)
    return oracle


def expected_at(inputs, positions) -> dict[int, dict[str, list[str]]]:
    """Oracle results after the static tables, the prefill and the first
    ``p`` stream batches, for each ``p`` in ``positions``."""
    oracle = _loaded_oracle(inputs)
    for relation, sign, rows in inputs.prefill:
        oracle.apply(relation, sign, rows)
    wanted = sorted(set(positions))
    out = {}
    if wanted and wanted[0] == 0:
        out[0] = oracle.results()
    for index, (relation, sign, rows) in enumerate(inputs.stream, start=1):
        if index > wanted[-1]:
            break
        oracle.apply(relation, sign, rows)
        if index in wanted:
            out[index] = oracle.results()
    return out


def expected_prefix(inputs, applied: int) -> dict[str, list[str]]:
    """Oracle results after the first ``applied`` batches of prefill +
    stream (the static tables always included)."""
    oracle = _loaded_oracle(inputs)
    for relation, sign, rows in (inputs.prefill + inputs.stream)[:applied]:
        oracle.apply(relation, sign, rows)
    return oracle.results()
