"""Exhaustive crash-point sweep over the recovery path.

The sweep turns §3.2's recovery claim into a checked property:

1. run a recoverable bulk delete **fault-free** on a deterministic
   scenario, capturing the *oracle* state (every table's rows and
   counts, every index's entries) and the number N of durable events
   the statement produced,
2. for each k in 1..N, rebuild the identical scenario, crash it right
   after durable event k, run :func:`repro.recovery.restart.recover`,
   and require the recovered database to be equivalent to the oracle
   and internally consistent (tree validation, count reconciliation,
   heap/index cross-checks, ``core.integrity`` foreign keys),
3. prove recovery is *re-entrant*: for sampled j, crash the recovery
   run itself at its j-th durable event, recover again, and require the
   same equivalence.

Scenario builds are deterministic (seeded RNG, simulated clock), so
durable-event k always lands on the same write — a failing point is
exactly reproducible with
``FaultPlan(crash_after_event=k)`` on a fresh build.

If the statement verifiably never started (its ``bulk_begin`` was the
lost tail record, or recovery abandoned it before any modification),
the sweep re-issues the statement — that is the client's contract, not
a recovery failure — but only when the recovered state is bit-identical
to the pre-statement state; anything else is reported as a failure.

One driver, :func:`sweep_crash_points`, runs every crash sweep (heap,
LSM, shard, retention) and shares its pass 0, :func:`oracle_pass`, with
:func:`repro.media.sweep.sweep_media_pages`.  A sweep target supplies
the hooks ``sweep_case``, ``sweep_state``, ``sweep_statements``,
``oracle_problems``, ``crash_plan`` and ``recover_point`` (plus
``media_point`` for media sweeps); docs/fault_injection.md, "One sweep
driver", says what each does.  :class:`HeapSweep` is the heap
scenario's target; the other scenarios carry their hooks themselves.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Callable, Dict, List, Optional, Tuple

from repro.btree.maintenance import validate_tree
from repro.catalog.database import Database
from repro.catalog.schema import Attribute, TableSchema
from repro.core.integrity import (
    ConstraintRegistry,
    OnDelete,
    find_referencing_keys,
)
from repro.errors import MediaError, QuarantinedPage, ReproError
from repro.faults.injector import FaultInjector
from repro.faults.plan import STUCK, FaultPlan, SimulatedCrash
from repro.media.retry import MediaRecovery, wal_image_source
from repro.media.scrub import require_scrubbed, scrub_database
from repro.recovery.restart import (
    RecoverableBulkDelete,
    UserWrite,
    apply_user_write,
    recover,
)
from repro.recovery.wal import WriteAheadLog

if TYPE_CHECKING:
    from repro.media.sweep import MediaPointOutcome

#: ``capture_state``'s per-table value: (sorted rows, heap record
#: count, {index name: (sorted entries, entry_count)}).
TableState = Tuple[list, int, Dict[str, Tuple[list, int]]]
#: ``capture_state``'s value.
DbState = Dict[str, TableState]


@dataclass(frozen=True)
class SweepScenario:
    """A deterministic workload: every ``build()`` is bit-identical.

    Table R carries the bulk delete (unique index on the driving column
    A plus one secondary per extra column); child table S references
    only *surviving* A values, so the foreign key must hold before and
    after any crash/recovery interleaving.
    """

    records: int = 48
    delete_fraction: float = 0.4
    seed: int = 7
    page_size: int = 512
    memory_pages: int = 12
    child_rows: int = 8
    index_columns: Tuple[str, ...] = ("A", "B")
    #: Lanes for the post-table index stages (1 = serial).  The lane
    #: scheduler's interleaving is seeded and fixed, so durable-event
    #: numbering stays stable and every crash point is replayable.
    lanes: int = 1
    #: Concurrent user writes (inserts of fresh rows, deletes of
    #: unreferenced survivors) committed at the statement's stage
    #: boundaries, round-robin.  0 keeps the classic traffic-free
    #: sweep bit-identical.  The zero-lost-committed-writes property
    #: is checked per point: every ``user_op`` record surviving in the
    #: WAL must have its effect present after recovery.
    traffic_ops: int = 0

    def build(self) -> "SweepCase":
        db = Database(
            page_size=self.page_size,
            memory_bytes=self.memory_pages * self.page_size,
        )
        rng = random.Random(self.seed)
        n = self.records
        if "A" not in self.index_columns:
            raise ReproError(
                "SweepScenario needs the driving column A indexed"
            )
        # One int column per indexed name (A first: it drives the
        # delete).  The default ("A", "B") draws the same two sample
        # streams the original fixed schema did, so golden sweeps are
        # unaffected; extra columns mean extra post-table index stages
        # — the parallel branches a multi-lane sweep interleaves.
        col_vals = {"A": rng.sample(range(10 * n), n)}
        for col in self.index_columns:
            if col != "A":
                col_vals[col] = rng.sample(range(10 * n), n)
        a_vals = col_vals["A"]
        db.create_table(TableSchema.of(
            "R",
            [Attribute.int_(col) for col in self.index_columns]
            + [Attribute.char("PAD", 24)],
        ))
        db.load_table(
            "R",
            list(zip(
                *[col_vals[col] for col in self.index_columns],
                ["p"] * n,
            )),
        )
        for col in self.index_columns:
            db.create_index("R", col, unique=(col == "A"))
        count = max(1, int(n * self.delete_fraction))
        keys = sorted(rng.sample(a_vals, count))
        survivors = [a for a in a_vals if a not in set(keys)]
        db.create_table(TableSchema.of(
            "S",
            [Attribute.int_("FA"), Attribute.char("PAD", 8)],
        ))
        db.load_table(
            "S",
            [
                (survivors[i % len(survivors)], "c")
                for i in range(self.child_rows)
            ],
        )
        db.create_index("S", "FA")
        registry = ConstraintRegistry(db)
        registry.add_foreign_key("S", "FA", "R", "A", OnDelete.RESTRICT)
        # The pre-statement image must be durable: a crash at the very
        # first statement event may not lose any of the build.
        db.flush()
        traffic, order = self._traffic_schedule(col_vals, keys, survivors)
        return SweepCase(
            db=db, log=WriteAheadLog(db.disk), keys=keys,
            registry=registry, traffic=traffic, traffic_order=order,
        )

    def _traffic_schedule(
        self,
        col_vals: Dict[str, List[int]],
        keys: List[int],
        survivors: List[int],
    ) -> Tuple[Dict[str, List[UserWrite]], List[UserWrite]]:
        """The deterministic user-write schedule for this scenario.

        Inserts use fresh per-column values from a range disjoint from
        the generated data (and from each other), deletes target
        survivors the child table does not reference — so the foreign
        key holds throughout and every indexed column value identifies
        at most one logical row, the precondition of replay-by-values.
        The flattened ``order`` list is in application (= WAL) order;
        a crash leaves a prefix of it committed.
        """
        if not self.traffic_ops:
            return {}, []
        boundaries = ["after_begin", "after_driving", "after_table"] + [
            f"after_index:I_R_{col}"
            for col in self.index_columns
            if col != "A"
        ]
        rng = random.Random(self.seed + 9999)
        a_vals = col_vals["A"]
        referenced = {
            survivors[i % len(survivors)] for i in range(self.child_rows)
        }
        deletable = [
            a for a in survivors if a not in referenced
        ]
        ncols = len(self.index_columns)
        fresh_base = 100 * 10 * self.records
        traffic: Dict[str, List[UserWrite]] = {b: [] for b in boundaries}
        for i in range(self.traffic_ops):
            if deletable and rng.random() < 0.4:
                target = deletable.pop(rng.randrange(len(deletable)))
                j = a_vals.index(target)
                write = UserWrite(
                    op="delete",
                    values=tuple(
                        col_vals[col][j] for col in self.index_columns
                    ) + ("p",),
                )
            else:
                base = fresh_base + i * ncols
                write = UserWrite(
                    op="insert",
                    values=tuple(base + c for c in range(ncols)) + ("u",),
                )
            traffic[boundaries[i % len(boundaries)]].append(write)
        order = [w for b in boundaries for w in traffic[b]]
        return traffic, order


@dataclass
class SweepCase:
    """One built scenario instance."""

    db: Database
    log: WriteAheadLog
    keys: List[int]
    registry: ConstraintRegistry
    #: Per-boundary user-write schedule and its flattened WAL order.
    traffic: Dict[str, List[UserWrite]] = field(default_factory=dict)
    traffic_order: List[UserWrite] = field(default_factory=list)


def capture_state(db: Database) -> DbState:
    """Logical content of every table + every B-tree index."""
    state: DbState = {}
    for table in db.catalog.tables():
        if table.is_sharded:
            # A sharded logical entry owns no pages of its own; its
            # physical shard tables are separate catalog entries and
            # are captured individually below.
            continue
        rows = sorted(values for _, values in db.scan(table.schema.name))
        indexes: Dict[str, Tuple[list, int]] = {}
        for name, ix in sorted(table.indexes.items()):
            if ix.is_btree:
                indexes[name] = (
                    sorted(ix.tree.items()), ix.tree.entry_count
                )
        state[table.schema.name] = (rows, table.heap.record_count, indexes)
    return state


def logical_state(state: DbState) -> Dict[str, object]:
    """RID-independent view of a captured state.

    With concurrent traffic, replayed or topped-up inserts may land at
    different RIDs than the oracle's (slot reuse after a crash), so
    traffic sweeps compare rows, counts and index *key* multisets —
    everything logical — instead of exact (key, RID) entries.
    """
    return {
        name: (
            rows,
            count,
            {
                ix: (sorted(k for k, _ in entries), n)
                for ix, (entries, n) in indexes.items()
            },
        )
        for name, (rows, count, indexes) in state.items()
    }


def lost_user_writes(db: Database, log: WriteAheadLog) -> List[str]:
    """Committed user writes whose effect is missing — must be empty.

    Every ``user_op`` record surviving in the WAL is a committed write;
    after recovery its net effect (last record per row wins) must be
    visible in the heap.
    """
    final: Dict[Tuple[str, Tuple[object, ...]], str] = {}
    for record in log.records("user_op"):
        key = (record.payload["table"], tuple(record.payload["values"]))
        final[key] = record.payload["op"]
    problems: List[str] = []
    for (table_name, values), op in final.items():
        present = any(
            row == values for _, row in db.scan(table_name)
        )
        if op == "insert" and not present:
            problems.append(
                f"lost committed user insert {values[:2]} in {table_name}"
            )
        elif op == "delete" and present:
            problems.append(
                f"resurrected user-deleted row {values[:2]} in {table_name}"
            )
    return problems


def integrity_problems(
    db: Database,
    registry: Optional[ConstraintRegistry] = None,
    deleted_keys: Optional[List[int]] = None,
    limit: int = 20,
) -> List[str]:
    """Internal-consistency violations, independent of any oracle.

    Every heap table's record count must match its scan, and each of
    its B-tree indexes must validate, reconcile its entry count and
    hold exactly one entry per heap row.  Given ``registry`` and
    ``deleted_keys``, no foreign key may still reference a deleted
    parent key (a SET NULL child must have nulled it).  Sharded logical
    entries and LSM tables own no heap or index of their own and are
    skipped; each shard is a catalog table of its own.
    """
    problems: List[str] = []

    def note(message: str) -> None:
        if len(problems) < limit:
            problems.append(message)

    for table in db.catalog.tables():
        if table.is_sharded or table.lsm is not None:
            continue
        table_name = table.schema.name
        actual = list(db.scan(table_name))
        if table.heap.record_count != len(actual):
            note(
                f"{table_name}: heap record_count "
                f"{table.heap.record_count} != {len(actual)} scanned rows"
            )
        for name, ix in sorted(table.indexes.items()):
            if not ix.is_btree:
                continue
            try:
                validate_tree(ix.tree)
            except ReproError as exc:
                note(f"{table_name}.{name}: structural: {exc}")
                continue
            items = list(ix.tree.items())
            if ix.tree.entry_count != len(items):
                note(
                    f"{table_name}.{name}: entry_count "
                    f"{ix.tree.entry_count} != {len(items)} entries"
                )
            expected = sorted(
                (ix.key_for(values, table.schema), rid.pack())
                for rid, values in actual
            )
            if sorted(items) != expected:
                note(
                    f"{table_name}.{name}: {len(items)} entries do not "
                    f"match the {len(actual)} heap rows"
                )
    if registry is not None and deleted_keys:
        for fk in registry.all_constraints():
            refs = find_referencing_keys(db, fk, deleted_keys)
            if refs:
                nulled = (
                    "un-nulled " if fk.on_delete is OnDelete.SET_NULL else ""
                )
                note(
                    f"fk {fk.describe()}: {len(refs)} {nulled}references "
                    "to deleted parent keys"
                )
    return problems


@dataclass
class PointOutcome:
    """One crash-point run (single crash, or crash + recovery crash)."""

    event: int
    second_event: Optional[int]
    crash: Optional[str] = None
    problems: List[str] = field(default_factory=list)
    recovery_events: int = 0

    @property
    def ok(self) -> bool:
        return not self.problems


@dataclass
class SweepReport:
    """Everything a sweep did and found."""

    durable_events: int = 0
    points: List[int] = field(default_factory=list)
    outcomes: List[PointOutcome] = field(default_factory=list)

    @property
    def failures(self) -> List[PointOutcome]:
        return [o for o in self.outcomes if not o.ok]

    @property
    def ok(self) -> bool:
        return not self.failures

    def summary(self) -> str:
        single = [o for o in self.outcomes if o.second_event is None]
        double = [o for o in self.outcomes if o.second_event is not None]
        lines = [
            f"durable events: {self.durable_events}; crash points swept: "
            f"{len(single)}; double-crash runs: {len(double)}; "
            f"failures: {len(self.failures)}"
        ]
        for outcome in self.failures[:10]:
            where = f"event {outcome.event}"
            if outcome.second_event is not None:
                where += f" + recovery event {outcome.second_event}"
            lines.append(f"  FAIL at {where}: {outcome.problems[0]}")
        return "\n".join(lines)


@dataclass
class SweepOracle:
    """What the fault-free pass 0 of a sweep established."""

    #: Target state before the statements ran, and after (the oracle).
    initial: Any
    state: Any
    durable_events: int
    #: Live pages of the pre-statement durable image.
    pages: List[int]


def oracle_pass(target: Any) -> SweepOracle:
    """Pass 0: build, run the statements fault-free under a counting
    injector, and raise if the result already fails the target's own
    oracle check."""
    case = target.sweep_case()
    pages = case.db.disk.page_ids()
    initial = target.sweep_state(case)
    counter = FaultInjector()
    target.sweep_statements(case, counter)
    state = target.sweep_state(case)
    problems = target.oracle_problems(case, initial, state)
    if problems:
        raise ReproError(
            "fault-free oracle run is already inconsistent: "
            + "; ".join(problems)
        )
    return SweepOracle(
        initial=initial, state=state,
        durable_events=counter.durable_event_count, pages=pages,
    )


def sweep_crash_points(
    target: Any,
    max_points: Optional[int] = None,
    double_samples: Optional[int] = None,
    log_fn: Optional[Callable[[str], None]] = None,
) -> SweepReport:
    """Crash ``target``'s statements after every (or ``max_points``
    evenly spaced) durable event, recover, and collect the problems.

    ``double_samples`` recovery events of each clean point are re-run
    with a second crash inside recovery (``<= 0``: every recovery
    event; ``None``: no double crashes).  A point whose recovery raises
    is recorded as failed and the sweep goes on.
    """
    say = log_fn or (lambda message: None)
    oracle = oracle_pass(target)
    report = SweepReport(durable_events=oracle.durable_events)
    report.points = _choose_points(oracle.durable_events, max_points)
    say(
        f"oracle: {oracle.durable_events} durable events; "
        f"sweeping {len(report.points)} crash points"
    )
    for k in report.points:
        outcome = _crash_point(target, oracle, k, None)
        report.outcomes.append(outcome)
        if not outcome.ok:
            say(f"  event {k}: FAIL: {outcome.problems[0]}")
            continue
        if double_samples is None or not outcome.recovery_events:
            continue
        samples = None if double_samples <= 0 else double_samples
        for j in _choose_points(outcome.recovery_events, samples):
            second = _crash_point(target, oracle, k, j)
            report.outcomes.append(second)
            if not second.ok:
                say(
                    f"  event {k} + recovery event {j}: FAIL: "
                    f"{second.problems[0]}"
                )
    return report


def _choose_points(total: int, max_points: Optional[int]) -> List[int]:
    if total <= 0:
        return []
    if max_points is None or max_points >= total:
        return list(range(1, total + 1))
    if max_points <= 0:
        return []
    return sorted({
        max(1, min(total, round(i * total / max_points)))
        for i in range(1, max_points + 1)
    })


def _crash_point(
    target: Any,
    oracle: SweepOracle,
    event: int,
    second_event: Optional[int],
) -> PointOutcome:
    case = target.sweep_case()
    outcome = PointOutcome(event=event, second_event=second_event)
    try:
        target.sweep_statements(
            case, FaultInjector(target.crash_plan(event))
        )
    except SimulatedCrash as exc:
        outcome.crash = str(exc)
    if outcome.crash is None:
        outcome.problems.append(f"no crash fired at durable event {event}")
        return outcome
    try:
        target.recover_point(case, outcome, oracle.initial, oracle.state)
    except Exception as exc:  # a sweep reports every point, never dies
        outcome.problems.append(
            f"recovery raised {type(exc).__name__}: {exc}"
        )
    return outcome


@dataclass(frozen=True)
class HeapSweep:
    """The heap scenario's sweep target, for crash and media sweeps.

    ``torn_writes`` tears the crashing page write and ``wal_tail``
    shapes a crash on a WAL append (see :func:`crash_point_sweep`);
    ``full_page_writes`` logs page images so torn or faulty pages are
    repairable.
    """

    scenario: SweepScenario
    torn_writes: bool = False
    wal_tail: str = "keep"
    full_page_writes: bool = False

    def sweep_case(self) -> SweepCase:
        return self.scenario.build()

    def sweep_state(self, case: SweepCase) -> DbState:
        return capture_state(case.db)

    def sweep_statements(self, case: SweepCase,
                         faults: Optional[FaultInjector]) -> None:
        RecoverableBulkDelete(
            case.db, "R", "A", case.keys, case.log,
            faults=faults, full_page_writes=self.full_page_writes,
            lanes=self.scenario.lanes, traffic=case.traffic,
        ).run()

    def oracle_problems(self, case: SweepCase, initial: DbState,
                        oracle: DbState) -> List[str]:
        return integrity_problems(case.db, case.registry, case.keys)

    def crash_plan(self, event: int) -> FaultPlan:
        return FaultPlan(
            crash_after_event=event,
            torn_write=self.torn_writes,
            drop_wal_tail=(self.wal_tail == "drop"),
            torn_wal_tail=(self.wal_tail == "torn"),
        )

    def recover_point(self, case: SweepCase, outcome: PointOutcome,
                      initial: DbState, oracle: DbState) -> None:
        if outcome.second_event is not None:
            # Crash the recovery run itself, then recover from *that*.
            try:
                recover(
                    case.db, case.log,
                    faults=FaultInjector(
                        self.crash_plan(outcome.second_event)
                    ),
                    full_page_writes=self.full_page_writes,
                )
            except SimulatedCrash:
                pass

        counting = FaultInjector()
        rec_report = recover(
            case.db, case.log, faults=counting,
            full_page_writes=self.full_page_writes,
        )
        outcome.recovery_events = counting.durable_event_count
        with_traffic = bool(case.traffic_order)
        if with_traffic:
            # Zero lost committed writes: checked before the top-up, so a
            # write the top-up would re-submit cannot mask a lost one.
            outcome.problems.extend(lost_user_writes(case.db, case.log))

        def matches_oracle(state: DbState) -> bool:
            if with_traffic:
                return logical_state(state) == logical_state(oracle)
            return state == oracle

        state = capture_state(case.db)
        reissued = False
        if not matches_oracle(state) and (
            rec_report.abandoned or not rec_report.resumed
        ):
            # The statement never started (its begin record was the lost
            # tail) or was abandoned before modifying anything; the client
            # re-issues it — with its full traffic schedule.  Legitimate
            # only from the pristine state.
            if state == initial:
                self.sweep_statements(case, None)
                state = capture_state(case.db)
                reissued = True
        if with_traffic and not reissued:
            # Writes whose commit record died with the crash were never
            # acknowledged; the client re-submits them (the oracle ran the
            # full schedule, so the comparison needs them applied).
            committed = sum(1 for _ in case.log.records("user_op"))
            for write in case.traffic_order[committed:]:
                apply_user_write(case.db, case.log, "R", write)
            case.db.flush()
            state = capture_state(case.db)
        if not matches_oracle(state):
            outcome.problems.append(
                _diff_states(oracle, state)
                if not with_traffic
                else "logical state != oracle after recovery + re-submit"
            )
        outcome.problems.extend(
            integrity_problems(case.db, case.registry, case.keys)
        )
        # Recovery must be terminal: a further restart finds nothing to do.
        if recover(case.db, case.log).resumed:
            outcome.problems.append(
                "recovery is not terminal (a further recover() resumed)"
            )

    def media_point(self, case: SweepCase, outcome: MediaPointOutcome,
                    initial: DbState, oracle: DbState) -> None:
        """Run the statement with ``outcome``'s read fault armed; it
        must heal to the oracle or abort cleanly (see
        :mod:`repro.media.sweep`)."""
        db, log, disk = case.db, case.log, case.db.disk
        page_id, kind = outcome.page_id, outcome.kind
        # The operator's backup: the pre-statement durable image of every
        # page (taken before the injector arms and corrupts anything).
        backup = {pid: disk.durable_image(pid) for pid in disk.page_ids()}
        injector = FaultInjector(
            FaultPlan(read_fault=kind, read_fault_page=page_id)
        )
        media = MediaRecovery(
            disk,
            image_sources=[
                ("wal", wal_image_source(log)),
                ("backup", backup.get),
            ],
        )
        mismatch = f"healed state != oracle (page {page_id}, {kind})"
        db.pool.media = media
        try:
            # Arming applies at-rest corruption for latent/stuck plans.
            with injector.armed(disk, pool=db.pool, log=log):
                try:
                    if kind == STUCK:
                        # The amcheck gate: genuinely bad media must fail
                        # the statement before it can modify anything.
                        # (Transient and latent points skip the gate — the
                        # mid-statement retry/repair path must heal them.)
                        require_scrubbed(db, media=media,
                                         check_structures=False)
                    self.sweep_statements(case, None)
                except MediaError as exc:
                    if not self._clean_abort(
                        case, injector, backup, exc, initial, outcome
                    ):
                        return
                    # The client's contract after an abort: fix the
                    # medium, re-issue.
                    self.sweep_statements(case, None)
                    mismatch = (
                        "re-issued statement after media replacement "
                        "!= oracle"
                    )
                else:
                    # Healed path: the statement completed.  Pages it
                    # never read may still be damaged; the scrubber must
                    # finish the job online.
                    outcome.outcome = "healed"
                    post = scrub_database(db, media=media)
                    if not post.ok:
                        outcome.problems.append(
                            "post-run scrub could not heal the database: "
                            + post.summary()
                        )
        finally:
            db.pool.media = None
        if capture_state(db) != oracle:
            outcome.problems.append(mismatch)
        outcome.problems.extend(
            integrity_problems(db, case.registry, case.keys)
        )

    def _clean_abort(self, case: SweepCase, injector: FaultInjector,
                     backup: Dict[int, bytes], exc: MediaError,
                     initial: DbState, outcome: MediaPointOutcome) -> bool:
        """An abort is acceptable only if it is typed, names the faulty
        page, fenced it off, and modified nothing.  Records what is
        wrong; true if the state after media replacement is pristine,
        so the client may re-issue the statement."""
        page_id = outcome.page_id
        outcome.outcome = "aborted"
        outcome.aborted_with = type(exc).__name__
        db = case.db
        disk = db.disk
        if not isinstance(exc, QuarantinedPage):
            outcome.problems.append(
                f"abort raised {type(exc).__name__}, expected QuarantinedPage"
            )
        if exc.page_id != page_id:
            outcome.problems.append(
                f"abort names page {exc.page_id}, expected {page_id}"
            )
        if disk.quarantined != {page_id}:
            outcome.problems.append(
                f"quarantined set is {sorted(disk.quarantined)}, "
                f"expected [{page_id}]"
            )
        if any(True for _ in case.log.records("bulk_begin")):
            outcome.problems.append(
                "statement started before the abort (bulk_begin logged); "
                "modifications may have been lost"
            )
        # The abort must have left the pre-statement image intact modulo
        # the injected damage itself; replace the medium and check.
        disk.restore_page(page_id, backup[page_id])
        injector.disarm()
        db.pool.media = None
        if capture_state(db) != initial:
            outcome.problems.append(
                "abort was not clean: state != pre-statement image after "
                "media replacement"
            )
            return False
        return True

def crash_point_sweep(
    scenario: Optional[SweepScenario] = None,
    max_points: Optional[int] = None,
    double_samples: Optional[int] = 2,
    torn_writes: bool = False,
    wal_tail: str = "keep",
    log_fn: Optional[Callable[[str], None]] = None,
) -> SweepReport:
    """Sweep a crash over every (or ``max_points`` evenly spaced)
    durable event of the scenario's bulk delete.

    ``wal_tail`` shapes the crash when it lands on a WAL append:
    ``"keep"`` (the force completed), ``"drop"`` (it never did) or
    ``"torn"`` (a mutilated record persisted).  ``torn_writes`` does the
    analogue for page writes and implies full-page-write logging so the
    torn pages are repairable.  ``double_samples`` recovery events per
    point are re-run with a second crash inside recovery
    (``double_samples <= 0`` means every recovery event, ``None`` none).
    """
    target = HeapSweep(
        scenario or SweepScenario(), torn_writes=torn_writes,
        wal_tail=wal_tail, full_page_writes=torn_writes,
    )
    return sweep_crash_points(target, max_points, double_samples, log_fn)


def _diff_states(oracle: DbState, state: DbState) -> str:
    parts: List[str] = []
    for name in sorted(set(oracle) | set(state)):
        expected, actual = oracle.get(name), state.get(name)
        if expected == actual:
            continue
        if expected is None or actual is None:
            parts.append(f"{name}: present in only one state")
            continue
        e_rows, e_count, e_ix = expected
        a_rows, a_count, a_ix = actual
        if e_rows != a_rows:
            missing = sum(1 for r in e_rows if r not in a_rows)
            extra = sum(1 for r in a_rows if r not in e_rows)
            parts.append(
                f"{name}: rows differ ({missing} missing, {extra} extra)"
            )
        if e_count != a_count:
            parts.append(f"{name}: record_count {a_count} != {e_count}")
        for ix_name in sorted(set(e_ix) | set(a_ix)):
            if e_ix.get(ix_name) != a_ix.get(ix_name):
                parts.append(f"{name}.{ix_name}: index entries differ")
    return "state != oracle: " + "; ".join(parts or ["(unlocated)"])
