"""Crash-mid-shard sweep: §3.2 recovery, one shard at a time.

A sharded bulk delete that must survive crashes runs as a *sequence*
of shard-local recoverable statements on one shared WAL — each shard's
statement begins, sweeps its own structures, and commits before the
next shard starts, so at most one statement is ever open and a crash
loses at most one shard's progress.  The sweep turns that claim into a
checked property on the one crash-sweep driver,
:func:`repro.faults.sweep.sweep_crash_points`:

1. run the whole multi-shard sequence **fault-free** with one counting
   :class:`~repro.faults.injector.FaultInjector` shared across the
   statements — ``arm()`` never resets the event log, so durable
   events are numbered globally across the sweep — capturing the
   oracle state and the total event count N,
2. for each chosen k in 1..N, rebuild the identical scenario, crash
   right after global durable event k (which lands inside some shard's
   statement), :func:`~repro.recovery.restart.recover`, re-issue the
   statements that verifiably never started (the client's contract),
   and require oracle equivalence + internal consistency + terminal
   recovery.

Scenario builds are deterministic, so global event k always lands on
the same write of the same shard's statement.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Callable, List, Optional, Tuple

from repro.catalog.database import Database
from repro.catalog.schema import Attribute, TableSchema
from repro.faults.injector import FaultInjector
from repro.faults.plan import FaultPlan
from repro.faults.sweep import (
    DbState,
    PointOutcome,
    SweepReport,
    _diff_states,
    capture_state,
    integrity_problems,
    sweep_crash_points,
)
from repro.recovery.restart import RecoverableBulkDelete, recover
from repro.recovery.wal import WriteAheadLog
from repro.shard.map import ShardMap


@dataclass(frozen=True)
class ShardSweepScenario:
    """A deterministic sharded workload: every ``build()`` is
    bit-identical.

    Table R is range-sharded on its unique driving column A into
    equi-depth shards; the delete list spreads over every shard, so
    global durable events cover begin/sweep/commit of several
    statements and the sweep exercises crashes between shards as well
    as inside them.
    """

    records: int = 60
    delete_fraction: float = 0.4
    seed: int = 11
    page_size: int = 512
    memory_pages: int = 12
    shards: int = 3

    def build(self) -> "ShardSweepCase":
        db = Database(
            page_size=self.page_size,
            memory_bytes=self.memory_pages * self.page_size,
        )
        rng = random.Random(self.seed)
        n = self.records
        a_vals = rng.sample(range(10 * n), n)
        shard_map = ShardMap.from_quantiles("A", a_vals, self.shards)
        db.create_sharded_table(
            TableSchema.of(
                "R", [Attribute.int_("A"), Attribute.char("PAD", 24)]
            ),
            "A",
            shard_map.bounds,
        )
        db.load_table("R", [(a, "p") for a in a_vals])
        db.create_sharded_index("R", "A", unique=True)
        count = max(1, int(n * self.delete_fraction))
        keys = sorted(rng.sample(a_vals, count))
        # The pre-statement image must be durable: a crash at the very
        # first statement event may not lose any of the build.
        db.flush()
        table = db.table("R")
        statements = [
            (table.shard(shard_id).name, frag_keys)
            for shard_id, frag_keys in enumerate(shard_map.route(keys))
            if frag_keys
        ]
        return ShardSweepCase(
            db=db,
            log=WriteAheadLog(db.disk),
            keys=keys,
            statements=statements,
        )

    # -- sweep hooks (see repro.faults.sweep) ---------------------------
    def sweep_case(self) -> "ShardSweepCase":
        return self.build()

    def sweep_state(self, case: "ShardSweepCase") -> DbState:
        return capture_state(case.db)

    def sweep_statements(self, case: "ShardSweepCase",
                         faults: FaultInjector) -> None:
        # One injector across the sequence: durable events number
        # globally, so event k lands on the same write in every build.
        for table_name, frag_keys in case.statements:
            case.started += 1
            RecoverableBulkDelete(
                case.db, table_name, "A", frag_keys, case.log,
                faults=faults,
            ).run()

    def oracle_problems(self, case: "ShardSweepCase", initial: DbState,
                        oracle: DbState) -> List[str]:
        return integrity_problems(case.db)

    def crash_plan(self, event: int) -> FaultPlan:
        return FaultPlan(crash_after_event=event)

    def recover_point(self, case: "ShardSweepCase", outcome: PointOutcome,
                      initial: DbState, oracle: DbState) -> None:
        rec_report = recover(case.db, case.log)

        # The interrupted statement: recovery either finished it, or the
        # client re-issues it — legitimate only from the pristine
        # shard-local state (shards share nothing, so the check is local).
        # Statements after it never began; the client issues them as on
        # a fresh run.
        state = capture_state(case.db)
        table_name, _ = case.statements[case.started - 1]
        todo = case.statements[case.started:]
        if rec_report.abandoned or not rec_report.resumed:
            if state.get(table_name) == initial.get(table_name):
                todo = case.statements[case.started - 1:]
            elif state.get(table_name) != oracle.get(table_name):
                outcome.problems.append(
                    f"statement on {table_name} neither resumed nor "
                    "pristine after recovery; cannot re-issue"
                )
        for name, keys in todo:
            RecoverableBulkDelete(case.db, name, "A", keys, case.log).run()

        state = capture_state(case.db)
        if state != oracle:
            outcome.problems.append(_diff_states(oracle, state))
        outcome.problems.extend(integrity_problems(case.db))
        # Recovery must be terminal: a further restart finds nothing to do.
        if recover(case.db, case.log).resumed:
            outcome.problems.append(
                "recovery is not terminal (a further recover() resumed)"
            )


@dataclass
class ShardSweepCase:
    """One built scenario instance."""

    db: Database
    log: WriteAheadLog
    keys: List[int]
    #: The shard-local statement sequence: ``(physical table, keys)``
    #: per non-empty fragment, in shard order.
    statements: List[Tuple[str, List[int]]]
    #: Statements begun so far; after a crash, the last one begun is
    #: the interrupted one.
    started: int = 0


def shard_crash_sweep(
    scenario: Optional[ShardSweepScenario] = None,
    max_points: Optional[int] = None,
    log_fn: Optional[Callable[[str], None]] = None,
) -> SweepReport:
    """Sweep a crash over every (or ``max_points`` evenly spaced)
    global durable event of the scenario's multi-shard delete."""
    return sweep_crash_points(
        scenario or ShardSweepScenario(), max_points, log_fn=log_fn
    )
