"""The benchmark's four delete workloads.

Deletes are destructive, so every repetition runs on a database of its
own, which ``setup`` builds (timed as ``setup_s``).  ``measure`` runs
the timed phases, ``facts`` returns the simulated, deterministic
results of the repetition and ``check`` the correctness gate, outside
any timed phase.

The benchmark makes every input from the seed it is given and hands the
program only generated rows and key lists, through public ``repro``
names.  Sizes keep the ratios the source paper's curves depend on
(512-byte rows, a buffer pool of about 1% of the table on the three
delete workloads) at row counts a whole run can rebuild several times.
"""

from __future__ import annotations

import math
import random
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro import BdMethod, Database, bulk_delete, traditional_delete
from repro.faults import integrity_problems
from repro.lsm import LsmConfig, lsm_bulk_delete
from repro.storage import BufferStats, DiskStats
from repro.storage.engine import engine_for
from repro.workload import (
    INT_COLUMNS,
    PAPER_RECORD_BYTES,
    TrafficConfig,
    WorkloadConfig,
    build_workload,
    generate_rows,
    make_schema,
    run_oltp,
)

from hostclock import PhaseTimer

Row = Tuple[object, ...]

#: Post-delete point lookups per repetition: deleted keys up to half of
#: them, survivors for the rest.  Every workload deletes fewer than
#: half, so each samples all its deleted keys (3,000 of the 8,000; 1,000
#: on horizontal-unsorted).
LOOKUPS = 8_000

#: The ``DiskStats`` counters the determinism gate and the traced run
#: report (``near_sequential_writes`` and ``io_time_ms`` stay internal).
DISK_COUNTERS = (
    "reads", "writes", "random_reads", "sequential_reads",
    "near_sequential_reads", "random_writes", "sequential_writes",
    "pages_allocated", "pages_freed",
)
BUFFER_COUNTERS = ("hits", "misses", "evictions", "dirty_writebacks")
LSM_COUNTERS = (
    "flushes", "compactions", "compaction_pages_written",
    "tombstones_dropped", "lookup_runs_probed", "lookup_pages_read",
)
#: The facts the traced run reports as per-layer counters, with their
#: units; a workload that does not reach a layer reports 0 for them.
LAYER_FACTS: Dict[str, str] = {
    **{f"storage.disk.{name}": "count" for name in DISK_COUNTERS},
    **{f"storage.buffer.{name}": "count" for name in BUFFER_COUNTERS},
    "storage.buffer.hit_ratio": "ratio",
    **{f"lsm.{name}": "count" for name in LSM_COUNTERS},
    "lsm.drop_ratio": "ratio",
    "workload.traffic.op_count": "count",
    **{f"workload.traffic.{name}": "sim-ms" for name in (
        "user_p50_ms", "user_p99_ms", "stall_lock_ms", "stall_lane_ms")},
}


def percentile(values: Sequence[float], p: float) -> float:
    """Nearest-rank percentile of ``values`` (``p`` in (0, 100])."""
    ordered = sorted(values)
    rank = max(1, math.ceil(p / 100.0 * len(ordered)))
    return ordered[rank - 1]


def tail_percentile(n: int) -> float:
    """The highest percentile with at least ten samples beyond it,
    capped at 99 (so p99 from 1,000 samples on)."""
    return min(99.0, 100.0 * (1.0 - 10.0 / n))


class Case:
    """One repetition of a workload: its database, the delete and the
    user operations run on it, their facts and their checks.  Subclasses
    fill in the workload."""

    name = ""

    def __init__(self, seed: int) -> None:
        self.seed = seed
        self.db: Optional[Database] = None
        self.disk_delta = DiskStats()
        self.buffer_delta = BufferStats()
        self.lookup_keys: List[int] = []
        self.lookup_rows: List[Optional[Row]] = []
        self.lookup_ms: List[float] = []
        self.lookup_buffer = BufferStats()
        self.ops = 0

    # -- the parts a workload provides ----------------------------------
    def setup(self) -> None:
        raise NotImplementedError

    def measure(self, timer: PhaseTimer) -> None:
        """Run the delete and the user operations, timing the delete as
        the ``delete`` phase and the operations as ``ops``; set
        ``self.ops`` to the number of operations."""
        raise NotImplementedError

    def facts(self) -> Dict[str, float]:
        raise NotImplementedError

    def check(self, full: bool) -> Tuple[int, List[str]]:
        """``(checks attempted, problems)`` of the correctness gate.

        ``full`` adds the whole-table checks.  They run on one
        repetition per run: the determinism gate holds every other
        repetition to the same facts.
        """
        raise NotImplementedError

    # -- shared pieces --------------------------------------------------
    def _lookup_sample(
        self, deleted: Sequence[int], survivors: Sequence[int]
    ) -> None:
        """A fixed, seeded mix of deleted and surviving keys."""
        rng = random.Random(self.seed * 7_919 + 1)
        half = min(LOOKUPS // 2, len(deleted))
        keys = rng.sample(list(deleted), half) + rng.sample(
            list(survivors), min(LOOKUPS - half, len(survivors))
        )
        rng.shuffle(keys)
        self.lookup_keys = keys

    def _run_lookups(self) -> None:
        """Point lookups on A through the table's storage engine.  Rows
        and simulated latencies are kept for the correctness gate and
        ``user_mean_ms``."""
        db = self.db
        assert db is not None
        lookup = engine_for(db, "R").point_lookup
        clock = db.clock
        rows: List[Optional[Row]] = []
        lat: List[float] = []
        buffer_before = db.pool.stats.snapshot()
        for key in self.lookup_keys:
            sim_start = clock.now_ms
            rows.append(lookup("A", key))
            lat.append(clock.now_ms - sim_start)
        self.lookup_buffer = db.pool.stats.delta_since(buffer_before)
        self.lookup_rows = rows
        self.lookup_ms = lat
        self.ops = len(rows)

    def _lookup_problems(
        self, deleted: set, expected: Callable[[int], Row]
    ) -> List[str]:
        problems: List[str] = []
        for key, row in zip(self.lookup_keys, self.lookup_rows):
            if key in deleted:
                if row is not None:
                    problems.append(f"deleted key {key} still found")
            elif row != expected(key):
                problems.append(f"survivor {key} returned {row!r}")
        return problems

    def _common_facts(
        self, rows_deleted: int, delete_ms: float, delete_writes: int,
        live_rows: int, user_latencies: Sequence[float],
    ) -> Dict[str, float]:
        db = self.db
        assert db is not None
        accesses = self.lookup_buffer.hits + self.lookup_buffer.misses
        facts: Dict[str, float] = {
            "sim_ms": delete_ms,
            "write_pages_per_row": delete_writes / rows_deleted,
            "lookup_pages": accesses / len(self.lookup_keys),
            "space_amp": db.disk.size_bytes / (
                live_rows * PAPER_RECORD_BYTES
            ),
            "user_mean_ms": math.fsum(user_latencies) / len(user_latencies),
            "rows_deleted": float(rows_deleted),
        }
        for field_name in DISK_COUNTERS:
            facts[f"storage.disk.{field_name}"] = float(
                getattr(self.disk_delta, field_name)
            )
        for field_name in BUFFER_COUNTERS:
            facts[f"storage.buffer.{field_name}"] = float(
                getattr(self.buffer_delta, field_name)
            )
        facts["storage.buffer.hit_ratio"] = self.buffer_delta.hit_ratio
        return facts


class HeapDelete(Case):
    """A heap table with unclustered B-link indexes on A, B and C and
    a pool of about 1% of the table, then one delete statement and the
    post-delete lookups."""

    rows = 0
    fraction = 0.0

    def delete(self, db: Database, keys: List[int]) -> int:
        raise NotImplementedError

    def setup(self) -> None:
        self.workload = build_workload(
            WorkloadConfig(
                record_count=self.rows,
                index_columns=("A", "B", "C"),
                memory_paper_mb=5.0,
                seed=self.seed,
            )
        )
        self.db = self.workload.db

    def measure(self, timer: PhaseTimer) -> None:
        db = self.db
        assert db is not None
        # The delete list arrives unsorted (the paper's table D).
        self.keys = self.workload.delete_keys(self.fraction)
        deleted = set(self.keys)
        self._lookup_sample(
            self.keys,
            [a for a in self.workload.a_values if a not in deleted],
        )
        disk_before = db.disk.stats.snapshot()
        buffer_before = db.pool.stats.snapshot()
        sim_start = db.clock.now_ms
        self.rows_deleted = timer("delete", lambda: self.delete(db, self.keys))
        self.delete_ms = db.clock.now_ms - sim_start
        self.delete_writes = db.disk.stats.delta_since(disk_before).writes
        timer("ops", self._run_lookups)
        self.disk_delta = db.disk.stats.delta_since(disk_before)
        self.buffer_delta = db.pool.stats.delta_since(buffer_before)

    def facts(self) -> Dict[str, float]:
        db = self.db
        assert db is not None
        return self._common_facts(
            self.rows_deleted, self.delete_ms, self.delete_writes,
            db.table("R").heap.record_count, self.lookup_ms,
        )

    def _expected_row(self) -> Callable[[int], Row]:
        columns = self.workload.column_values
        position = {a: i for i, a in enumerate(columns["A"])}
        pad = "x" * min(8, PAPER_RECORD_BYTES - 8 * len(INT_COLUMNS))

        def expected(key: int) -> Row:
            i = position[key]
            return tuple(columns[c][i] for c in INT_COLUMNS) + (pad,)

        return expected

    def check(self, full: bool) -> Tuple[int, List[str]]:
        db = self.db
        assert db is not None
        problems: List[str] = []
        if self.rows_deleted != len(self.keys):
            problems.append(
                f"deleted {self.rows_deleted} rows, targeted {len(self.keys)}"
            )
        problems += self._lookup_problems(
            set(self.keys), self._expected_row()
        )
        if full:
            problems += integrity_problems(db)
        return 1 + full + len(self.lookup_keys), problems


class VerticalSortMerge(HeapDelete):
    """The paper's headline plan, sort/merge vertical, deleting 20%:
    its time goes to query sorts, core leaf sweeps and sequential
    storage I/O, with almost no root-to-leaf searches."""

    name = "vertical-sortmerge"
    rows = 15_000
    fraction = 0.20

    def delete(self, db: Database, keys: List[int]) -> int:
        return bulk_delete(
            db, "R", "A", keys,
            prefer_method=BdMethod.SORT_MERGE, force_vertical=True,
        ).records_deleted


class HorizontalUnsorted(HeapDelete):
    """The paper's "not sorted/trad": 10% deleted record at a time in
    arrival order, a root-to-leaf search and pool pins per row and no
    sort; the mirror image of the vertical plan."""

    name = "horizontal-unsorted"
    rows = 10_000
    fraction = 0.10

    def delete(self, db: Database, keys: List[int]) -> int:
        return traditional_delete(
            db, "R", "A", keys, presort=False
        ).records_deleted


class LsmExpiry(Case):
    """An LSM table keyed by a dense A, loaded in shuffled order; an
    age expiry of the oldest 10% (one range tombstone) plus 5% scattered
    keys (point tombstones), with FADE compactions, then lookups through
    ``LsmTree.get``.  No heap or B-tree code runs: the workload for the
    lsm layer, both tombstone kinds and read amplification."""

    name = "lsm-expiry"
    rows = 20_000

    def setup(self) -> None:
        n = self.rows
        generated, _ = generate_rows(n, self.seed)
        order = list(range(n))
        random.Random(self.seed).shuffle(order)
        # Key A is the row's arrival sequence number; rows reach the
        # table in shuffled key order.
        self.table_rows = {
            key: (key,) + tuple(generated[i][1:])
            for i, key in enumerate(order)
        }
        db = Database(
            memory_bytes=WorkloadConfig(record_count=n).memory_bytes
        )
        db.create_table(
            make_schema(), engine="lsm", key_column="A",
            lsm_config=LsmConfig(memtable_entries=max(64, n // 64)),
        )
        db.load_table("R", (self.table_rows[key] for key in order))
        db.flush()
        self.db = db

    def measure(self, timer: PhaseTimer) -> None:
        db = self.db
        assert db is not None
        n = self.rows
        expired = list(range(n // 10))
        rng = random.Random(self.seed * 31 + 7)
        # Scattered keys start two past the expiry range so they never
        # extend its range tombstone.
        scattered = rng.sample(range(n // 10 + 1, n), n // 20)
        self.keys = expired + scattered
        deleted = set(self.keys)
        self._lookup_sample(
            self.keys, [k for k in range(n) if k not in deleted]
        )
        tree = db.table("R").lsm
        assert tree is not None
        lsm_before = tree.stats.snapshot()
        disk_before = db.disk.stats.snapshot()
        buffer_before = db.pool.stats.snapshot()
        self.result = timer("delete", lambda: lsm_bulk_delete(
            db, "R", "A", self.keys, compact=True
        ))
        timer("ops", self._run_lookups)
        self.disk_delta = db.disk.stats.delta_since(disk_before)
        self.buffer_delta = db.pool.stats.delta_since(buffer_before)
        self.lsm_delta = tree.stats.delta_since(lsm_before)

    def facts(self) -> Dict[str, float]:
        result = self.result
        facts = self._common_facts(
            result.records_deleted, result.elapsed_ms, result.io.writes,
            self.rows - result.records_deleted, self.lookup_ms,
        )
        for field_name in LSM_COUNTERS:
            facts[f"lsm.{field_name}"] = float(
                getattr(self.lsm_delta, field_name)
            )
        written = self.lsm_delta.point_deletes + self.lsm_delta.range_deletes
        facts["lsm.drop_ratio"] = self.lsm_delta.tombstones_dropped / written
        facts["lsm.range_tombstones"] = float(result.range_tombstones)
        facts["lsm.point_tombstones"] = float(result.point_tombstones)
        return facts

    def check(self, full: bool) -> Tuple[int, List[str]]:
        db = self.db
        assert db is not None
        deleted = set(self.keys)
        problems: List[str] = []
        if self.result.records_deleted != len(deleted):
            problems.append(
                f"deleted {self.result.records_deleted} keys, targeted "
                f"{len(deleted)}"
            )
        problems += self._lookup_problems(deleted, self.table_rows.__getitem__)
        if full:
            # No deleted key may come back anywhere in the table.
            live = [key for key, _ in db.scan("R")]
            if len(live) != self.rows - len(deleted):
                problems.append(
                    f"scan found {len(live)} rows, expected "
                    f"{self.rows - len(deleted)}"
                )
            resurrected = deleted.intersection(live)
            if resurrected:
                problems.append(f"{len(resurrected)} deleted keys resurrected")
        return 1 + 2 * full + len(self.lookup_keys), problems


class OltpSideFile(Case):
    """Closed-loop simulated sessions beside a 15% side-file vertical
    delete on a table that fits in the pool, with the observer attached:
    the one workload where txn, workload.traffic and obs do real work
    and reads run beside the delete's writes."""

    name = "oltp-sidefile"
    rows = 20_000
    sessions = 32
    ops_per_session = 80

    def setup(self) -> None:
        self.workload = build_workload(
            WorkloadConfig(
                record_count=self.rows,
                index_columns=("A", "B"),
                # 2x the raw table bytes: table, indexes and the
                # inserted rows all stay cached.
                memory_paper_mb=1024.0,
                seed=self.seed,
            )
        )
        self.db = self.workload.db

    def measure(self, timer: PhaseTimer) -> None:
        db = self.db
        assert db is not None
        self.keys = self.workload.delete_keys(0.15)
        deleted = set(self.keys)
        self._lookup_sample(
            self.keys, [a for a in self.workload.a_values if a not in deleted]
        )
        db.observe()
        # Every row a user read or update fetched, for the correctness
        # gate; recording costs one list append per fetch.
        self.fetched: List[Row] = []
        read = db.read
        fetched = self.fetched

        def recording_read(table_name: str, rid: object) -> Row:
            row = read(table_name, rid)
            fetched.append(row)
            return row

        db.read = recording_read  # type: ignore[method-assign]
        config = TrafficConfig(
            sessions=self.sessions,
            ops_per_session=self.ops_per_session,
            think_ms=20.0,
            read_fraction=0.60,
            update_fraction=0.25,
            seed=self.seed,
        )
        disk_before = db.disk.stats.snapshot()
        buffer_before = db.pool.stats.snapshot()
        try:
            self.result = timer("delete", lambda: run_oltp(
                self.workload, config, strategy="sidefile", keys=self.keys
            ))
        finally:
            del db.read
        # The delete and the user operations share one traffic run.
        timer.seconds["ops"] = timer.seconds["delete"]
        self.disk_delta = db.disk.stats.delta_since(disk_before)
        self.buffer_delta = db.pool.stats.delta_since(buffer_before)
        # Untimed: the same post-delete lookup sample as the other
        # workloads, for lookup_pages and the correctness gate.
        self._run_lookups()
        self.ops = len(self.result.ops)

    def facts(self) -> Dict[str, float]:
        db = self.db
        result = self.result
        assert db is not None
        assert result.delete_submit_ms is not None
        assert result.delete_end_ms is not None
        latencies = [op.latency_ms for op in result.ops]
        facts = self._common_facts(
            result.records_deleted,
            result.delete_end_ms - result.delete_submit_ms,
            self.disk_delta.writes,
            db.table("R").heap.record_count,
            latencies,
        )
        facts["workload.traffic.op_count"] = float(len(result.ops))
        facts["workload.traffic.user_p50_ms"] = percentile(latencies, 50)
        facts["workload.traffic.user_p99_ms"] = percentile(
            latencies, tail_percentile(len(latencies))
        )
        for kind in ("lock", "lane"):
            facts[f"workload.traffic.stall_{kind}_ms"] = math.fsum(
                op.delete_stall_ms for op in result.ops
                if op.stall_kind == kind
            )
        return facts

    def check(self, full: bool) -> Tuple[int, List[str]]:
        db = self.db
        assert db is not None
        result = self.result
        problems: List[str] = []
        if result.records_deleted != len(self.keys):
            problems.append(
                f"deleted {result.records_deleted} rows, targeted "
                f"{len(self.keys)}"
            )
        problems += result.reconcile(db.obs)
        columns = self.workload.column_values
        position = {a: i for i, a in enumerate(columns["A"])}

        def generated_ints(key: object) -> Optional[Row]:
            i = position.get(key)  # type: ignore[arg-type]
            if i is None:
                return None
            return tuple(columns[c][i] for c in INT_COLUMNS)

        # Updates toggle the pad between x... and y...; the integer
        # columns never change.
        fetches = sum(1 for op in result.ops if op.kind in ("read", "update"))
        if len(self.fetched) != fetches:
            problems.append(
                f"{len(self.fetched)} row fetches for {fetches} reads "
                "and updates"
            )
        for row in self.fetched:
            if (row[:-1] != generated_ints(row[0])
                    or row[-1] not in ("x" * 8, "y" * 8)):
                problems.append(f"a user read returned {row!r}")
                break
        deleted = set(self.keys)
        for key, row in zip(self.lookup_keys, self.lookup_rows):
            if key in deleted:
                if row is not None:
                    problems.append(f"deleted key {key} still found")
            elif row is None or row[:-1] != generated_ints(key):
                problems.append(f"survivor {key} returned {row!r}")
        db.unobserve()
        if full:
            problems += integrity_problems(db)
        checks = 3 + full + len(self.fetched) + len(self.lookup_keys)
        return checks, problems


CASES: Dict[str, type] = {
    case.name: case
    for case in (VerticalSortMerge, HorizontalUnsorted, LsmExpiry, OltpSideFile)
}
