"""Seeded inputs of the three workloads.

Everything the program sees comes from here, and the same seed always
gives the same batches.  A batch is ``(relation, sign, rows)``.
"""

from __future__ import annotations

import random

from repro.workloads.finance import FINANCE_QUERIES
from repro.workloads.orderbook import ORDER_BOOK_DDL, OrderBookGenerator
from repro.workloads.ssb import SSB_FLIGHT
from repro.workloads.tpch import TPCH_DDL, TpchGenerator

#: The trading program: every finance query but ``mst``, whose ask-side
#: trigger rescans the bid book and would set the rate on its own.
TRADING_QUERIES = {
    name: FINANCE_QUERIES[name] for name in ("vwap", "axf", "bsp", "psp", "bbo", "act")
}
WAREHOUSE_QUERIES = dict(SSB_FLIGHT)

#: Per-workload input sizes.  ``depth`` is the standing orders held on
#: each side of the book (240: the plain generator's mean depth per side
#: over the repository's 10 000-event finance stream, see the README);
#: ``prefill`` the untimed events before the stream (at least the ramp
#: up to ``depth``); ``events`` the timed
#: events of one round; ``sf`` the TPC-H scale factor;
#: ``orders_per_batch`` the orders in one bulk batch (their lineitems
#: follow as the next batch); ``window`` the publish frames kept in
#: flight (past 1, a larger window adds queueing, not throughput, see
#: the README); ``snapshot_every`` the logged events between engine
#: snapshots; ``checkpoints`` the oracle checks per round;
#: ``window_events`` the events per throughput sample.
#:
#: ``trading-serve`` logs 5600 + 6000 events per round: one snapshot at
#: 6000, one 256 KiB WAL flush (the default threshold, about 5100
#: events) after it, so the restart after SIGKILL replays WAL frames on
#: top of the snapshot and loses only the unflushed tail.
SIZES = {
    "trading": {
        "depth": 240,
        "prefill": 0,
        "events": 6000,
        "checkpoints": 4,
        "window_events": 1500,
    },
    "warehouse": {
        "sf": 0.002,
        "orders_per_batch": 50,
        "checkpoints": 4,
        "window_events": 7500,
    },
    "trading-serve": {
        "depth": 240,
        "prefill": 5600,
        "events": 6000,
        "checkpoints": 4,
        "window_events": 1000,
        "window": 2,
        "snapshot_every": 6000,
    },
}

#: Tiny sizes for the smoke test.
SMOKE_SIZES = {
    "trading": {
        "depth": 20,
        "prefill": 0,
        "events": 300,
        "checkpoints": 2,
        "window_events": 100,
    },
    "warehouse": {
        "sf": 0.0003,
        "orders_per_batch": 50,
        "checkpoints": 2,
        "window_events": 100,
    },
    "trading-serve": {
        "depth": 20,
        "prefill": 100,
        "events": 300,
        "checkpoints": 2,
        "window_events": 100,
        "window": 2,
        "snapshot_every": 150,
    },
}


class SteadyBook(OrderBookGenerator):
    """The order-book generator with a stationary book.

    Actions are drawn exactly as :class:`OrderBookGenerator` draws them
    (side, then new order / cancel / modify, modify = delete + insert),
    but the new/cancel weights are picked per side: 0.45/0.35 (the
    generator's defaults) while that side holds fewer than ``depth``
    orders, 0.35/0.45 once it holds ``depth`` or more.  Each side's depth
    therefore hovers at ``depth`` and the cost of an event does not drift
    with the seed or over the run.  ``ramp`` builds the book up to
    ``depth`` with 0.9/0.05 weights (the prefill).  The mid price still
    moves one tick on 5% of the actions, but three times in four back
    towards its start, so the spread of price levels is stationary too.
    """

    def __init__(self, seed: int) -> None:
        super().__init__(seed=seed)
        self.start_price = self.mid_price

    def take(self, depth: int, count: int = 0, ramp: bool = False) -> list:
        events = []
        live = self.live
        while (
            min(len(book) for book in live.values()) < depth
            if ramp
            else len(events) < count
        ):
            if self.rng.random() < 0.05:
                home = -1 if self.mid_price > self.start_price else 1
                step = home if self.rng.random() < 0.75 else -home
                self.mid_price += step * self.tick
            side = self.rng.choice(("bids", "asks"))
            if len(live[side]) >= depth:
                new_weight, cancel_weight = 0.35, 0.45
            elif ramp:
                new_weight, cancel_weight = 0.9, 0.05
            else:
                new_weight, cancel_weight = 0.45, 0.35
            roll = self.rng.random()
            if roll < new_weight or not live[side]:
                events.append(self._new_order(side))
            elif roll < new_weight + cancel_weight:
                events.append(self._cancel(side))
            else:
                events.extend(self._modify(side))
        return events


def natural_runs(events) -> list[tuple[str, int, list]]:
    """Group consecutive same-``(relation, sign)`` events, in order."""
    runs: list[tuple[str, int, list]] = []
    for event in events:
        if runs and runs[-1][0] == event.relation and runs[-1][1] == event.sign:
            runs[-1][2].append(event.values)
        else:
            runs.append((event.relation, event.sign, [event.values]))
    return runs


class Inputs:
    """One workload's inputs for one seed."""

    def __init__(self, workload: str, seed: int, sizes: dict) -> None:
        self.workload = workload
        self.seed = seed
        self.sizes = sizes
        self.static: dict[str, list] = {}
        if workload == "warehouse":
            self.ddl = TPCH_DDL
            self.queries = WAREHOUSE_QUERIES
            generator = FactsFromSeed(sf=sizes["sf"], seed=seed)
            self.static = generator.static_tables()
            self.prefill: list = []
            self.stream = _bulk_batches(generator, sizes["orders_per_batch"])
        else:
            self.ddl = ORDER_BOOK_DDL
            self.queries = TRADING_QUERIES
            book = SteadyBook(seed=seed)
            ramp = book.take(sizes["depth"], ramp=True)
            steady = book.take(sizes["depth"], max(0, sizes["prefill"] - len(ramp)))
            self.prefill = natural_runs(ramp + steady)
            self.stream = natural_runs(book.take(sizes["depth"], sizes["events"]))
        self.events = sum(len(rows) for _, _, rows in self.stream)
        #: Batches per timed operation: a warehouse operation is one bulk
        #: load, its orders batch then its lineitem batch.
        self.group = 2 if workload == "warehouse" else 1
        self.operations = len(self.stream) // self.group
        count = sizes["checkpoints"]
        #: Stream positions (batches applied) at which outputs are checked,
        #: on operation boundaries; the last one is the end of the round.
        self.checkpoints = sorted(
            {
                max(1, round(self.operations * k / count)) * self.group
                for k in range(1, count + 1)
            }
        )


class FactsFromSeed(TpchGenerator):
    """TPC-H with the dimension tables of the generator's default seed
    and the fact stream (orders, lineitems) of the run's seed.

    At the benchmark's small scale factor a dimension drawn per seed
    moves the state a lot (50 suppliers: how many fall in one region
    sets the size of several maps); fixed dimensions keep the seed on
    the stream, where the workload varies.
    """

    DIMENSION_SEED = 1992

    def _rng(self, table: str):
        seed = self.seed if table == "facts" else self.DIMENSION_SEED
        return random.Random(f"{seed}:{table}")


def _bulk_batches(generator: TpchGenerator, orders_per_batch: int) -> list:
    """The fact feed as per-relation bulk batches: ``orders_per_batch``
    orders, then all of their lineitems, and so on (inserts only)."""
    batches: list = []
    orders: list = []
    lines: list = []
    for relation, row in generator.orders_and_lineitems():
        if relation == "orders":
            if len(orders) == orders_per_batch:
                batches += [("orders", 1, orders), ("lineitem", 1, lines)]
                orders, lines = [], []
            orders.append(row)
        else:
            lines.append(row)
    if orders:
        batches += [("orders", 1, orders), ("lineitem", 1, lines)]
    return batches
