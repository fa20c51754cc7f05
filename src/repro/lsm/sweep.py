"""Crash-mid-compaction sweep for the LSM engine.

The LSM durability claim is sharper than the heap path's WAL story:
*every* buffer-pool page write the tree performs — log appends, run
builds, manifest pages, superblock flips — is a durable event, and
cutting the timeline after any one of them must leave a state that
recovers to something between "delete not yet applied" and "delete
fully applied", with nothing corrupted, nothing lost, and **no
tombstoned row ever resurrected**.  The sweep turns that into a
checked property on the one crash-sweep driver,
:func:`repro.faults.sweep.sweep_crash_points`:

1. run the scenario's bulk delete **fault-free** under a counting
   :class:`~repro.faults.injector.FaultInjector`, capturing the oracle
   (surviving rows) and the durable event count N,
2. for each chosen k in 1..N, rebuild the identical scenario, crash
   right after durable event k (optionally tearing that very write),
   :meth:`~repro.lsm.tree.LsmTree.recover`, and require:

   * visible rows are exactly the pre-delete rows minus some subset of
     the delete list — byte-identical payloads, no phantoms, no
     non-targeted row missing;
   * re-issuing the same delete (tombstones are idempotent) lands on
     the oracle state;
   * a full :meth:`~repro.lsm.tree.LsmTree.compact_all` — which drops
     every tombstone — still shows the oracle state (deleted rows do
     not come back when their tombstones are reclaimed);
   * a second recovery is stable (recovery is terminal).

Scenario builds are deterministic, so event k always lands on the
same page write.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Tuple

from repro.catalog.database import Database
from repro.catalog.schema import Attribute, TableSchema
from repro.faults.injector import FaultInjector
from repro.faults.plan import FaultPlan
from repro.faults.sweep import PointOutcome, SweepReport, sweep_crash_points
from repro.lsm.engine import lsm_bulk_delete
from repro.lsm.tree import LsmConfig, LsmTree

#: Row state: key -> full value tuple (the scan image).
State = Dict[int, Tuple[object, ...]]


@dataclass(frozen=True)
class LsmSweepScenario:
    """A deterministic LSM workload: every ``build()`` is bit-identical.

    The config is deliberately tiny (12-entry memtable, 2-page runs,
    2-run levels) so the bulk delete itself triggers memtable flushes
    and FADE compactions — the sweep then cuts *inside* run builds,
    manifest commits and superblock flips, not just between log
    appends.  The delete list mixes one contiguous block (compiled to
    a range tombstone) with scattered point keys.
    """

    records: int = 64
    #: Rows inserted through the log path after the bulk load, so L0
    #: runs and a non-empty memtable exist before the delete starts.
    trickle: int = 20
    block_start: int = 16
    block_len: int = 20
    scattered: int = 12
    seed: int = 7
    page_size: int = 512
    memory_pages: int = 24
    torn: bool = False

    def config(self) -> LsmConfig:
        return LsmConfig(
            memtable_entries=12,
            l0_runs=2,
            run_pages=2,
            level_runs=2,
            fanout=2,
            tombstone_density_trigger=0.2,
            tombstone_age_seqs=64,
            max_delete_compactions=4,
        )

    def build(self) -> "LsmSweepCase":
        db = Database(
            page_size=self.page_size,
            memory_bytes=self.memory_pages * self.page_size,
        )
        db.create_table(
            TableSchema.of(
                "R", [Attribute.int_("A"), Attribute.char("PAD", 20)]
            ),
            engine="lsm",
            lsm_config=self.config(),
        )
        n = self.records
        db.load_table("R", [(a, f"row{a}") for a in range(n)])
        for i in range(self.trickle):
            db.insert("R", (n + i, f"late{i}"))
        block = list(range(self.block_start, self.block_start + self.block_len))
        # Scattered keys: a fixed stride walk over the tail keys keeps
        # the build free of RNG state while spreading points across
        # runs.
        tail = [
            k for k in range(self.block_start + self.block_len, n + self.trickle)
        ]
        step = max(1, len(tail) // max(1, self.scattered))
        points = tail[::step][: self.scattered]
        keys = block + points
        return LsmSweepCase(db=db, keys=keys)

    # -- sweep hooks (see repro.faults.sweep) ---------------------------
    def sweep_case(self) -> "LsmSweepCase":
        return self.build()

    def sweep_state(self, case: "LsmSweepCase") -> State:
        return case.state()

    def sweep_statements(self, case: "LsmSweepCase",
                         faults: FaultInjector) -> None:
        with faults.armed(case.db.disk, pool=case.db.pool):
            lsm_bulk_delete(case.db, "R", "A", case.keys)

    def oracle_problems(self, case: "LsmSweepCase", before: State,
                        oracle: State) -> List[str]:
        expected = {
            key: values
            for key, values in before.items()
            if key not in set(case.keys)
        }
        if oracle == expected:
            return []
        return [
            "rows do not match the set difference: "
            f"{len(oracle)} rows vs {len(expected)} expected"
        ]

    def crash_plan(self, event: int) -> FaultPlan:
        return FaultPlan(crash_after_event=event, torn_write=self.torn)

    def recover_point(self, case: "LsmSweepCase", outcome: PointOutcome,
                      before: State, oracle: State) -> None:
        problems = outcome.problems
        case.reopen()

        # Invariant 1: the visible state is the pre-delete image minus
        # some subset of the delete list — nothing corrupted, lost, or
        # invented.
        state = case.state()
        for key, values in state.items():
            if key not in before:
                problems.append(f"phantom row {key} appeared after recovery")
            elif before[key] != values:
                problems.append(
                    f"row {key} corrupted after recovery: "
                    f"{values!r} != {before[key]!r}"
                )
        targeted = set(case.keys)
        for key in before:
            if key not in state and key not in targeted:
                problems.append(f"non-targeted row {key} lost by the crash")
        if problems:
            return

        # Invariant 2: re-issuing the delete is idempotent and completes it.
        lsm_bulk_delete(case.db, "R", "A", case.keys)
        state = case.state()
        if state != oracle:
            problems.append(
                f"re-issued delete missed the oracle: {len(state)} rows "
                f"vs {len(oracle)}"
            )
            return

        # Invariant 3: dropping every tombstone must not resurrect rows.
        case.tree.compact_all()
        state = case.state()
        if state != oracle:
            resurrected = sorted(set(state) - set(oracle))
            problems.append(
                "compaction after recovery changed the visible state"
                + (f"; resurrected keys {resurrected[:5]}"
                   if resurrected else "")
            )
            return

        # Invariant 4: recovery is terminal — a further restart from the
        # same durable state sees the identical rows.
        case.db.pool.invalidate_all()
        case.reopen()
        if case.state() != oracle:
            problems.append(
                "second recovery diverged (recovery is not terminal)"
            )


@dataclass
class LsmSweepCase:
    """One built scenario instance."""

    db: Database
    keys: List[int]

    @property
    def tree(self) -> LsmTree:
        tree = self.db.table("R").lsm
        assert tree is not None
        return tree

    def state(self) -> State:
        return {key: values for key, values in self.db.scan("R")}

    def reopen(self) -> None:
        """Recover the tree from durable state only and re-bind the
        catalog entry."""
        self.db.table("R").lsm = LsmTree.recover(
            self.db.pool, self.tree.handle,
            config=self.tree.config, name="R",
        )


def lsm_crash_sweep(
    scenario: Optional[LsmSweepScenario] = None,
    max_points: Optional[int] = None,
    log_fn: Optional[Callable[[str], None]] = None,
) -> SweepReport:
    """Sweep a crash over every (or ``max_points`` evenly spaced)
    durable event of the scenario's LSM bulk delete."""
    return sweep_crash_points(
        scenario or LsmSweepScenario(), max_points, log_fn=log_fn
    )
