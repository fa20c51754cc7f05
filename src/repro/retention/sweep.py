"""Exhaustive fault sweep over the retention subsystem.

The retention analogue of :func:`repro.faults.sweep.crash_point_sweep`,
upgraded with the erasure property.  Passes 1-3 run on the shared sweep
drivers (:func:`repro.faults.sweep.sweep_crash_points` and
:func:`repro.media.sweep.sweep_media_pages`):

1. run a **two-policy** retention scenario fault-free — a GDPR-style
   subject erasure cascading from a heap root across CASCADE, SET NULL
   and (clean) RESTRICT edges into heap *and* LSM children, plus an
   age-expiry policy over a child table — capturing the oracle state,
   the durable-event count, and a **zero-finding erasure audit**,
2. for each swept durable event k, rebuild the identical scenario,
   crash right after event k, run :func:`recover_retention`, and
   require state == oracle, internal consistency, a clean audit, *and*
   a terminal second recovery,
3. media pass: for each swept durable page, rebuild, arm a transient
   read fault on it with :class:`~repro.media.retry.MediaRecovery`
   attached, and require the run to heal mid-policy and still reach
   the oracle with a clean audit,
4. mutation pass (:func:`audit_mutation_checks`): plant a stale index
   entry, a retained WAL full-page image, an undropped LSM tombstone,
   and a stale freed-page payload into an otherwise clean end state —
   each plant must produce at least one audit finding in the expected
   location, proving the audit is not vacuously green.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Callable, List, Optional

from repro.catalog.database import Database
from repro.catalog.schema import Attribute, TableSchema
from repro.core.integrity import ConstraintRegistry, OnDelete
from repro.errors import ReproError
from repro.faults.injector import FaultInjector
from repro.faults.plan import TRANSIENT, FaultPlan
from repro.faults.sweep import (
    DbState,
    PointOutcome,
    SweepReport,
    capture_state,
    integrity_problems,
    sweep_crash_points,
)
from repro.media.retry import MediaRecovery, wal_image_source
from repro.media.sweep import (
    MediaPointOutcome,
    MediaSweepReport,
    sweep_media_pages,
)
from repro.recovery.wal import WriteAheadLog
from repro.retention.audit import ErasureWitness, audit_erasure, build_witness
from repro.retention.policy import (
    RetentionPlan,
    RetentionPolicy,
    compile_policy,
)
from repro.retention.run import RecoverableRetentionRun, recover_retention

#: Key bases chosen so witness values are distinctive 8-byte patterns
#: that cannot collide with page headers, RIDs or surviving keys.
UID_BASE = 7_700_000
TS_BASE = 8_800_000


@dataclass(frozen=True)
class RetentionScenario:
    """Deterministic two-policy retention workload.

    ``users`` (heap root: unique UID index, secondary REGION index,
    per-row SECRET payload) fans out over four FK edges: ``orders``
    (CASCADE, heap, indexes on OUID and TS), ``profiles`` (SET NULL,
    heap), ``audits`` (RESTRICT, references survivors only — the clean
    abort path), and ``events`` (CASCADE, LSM keyed by EUID).  Policy 1
    erases a victim subset of users everywhere; policy 2 expires the
    oldest orders by TS — overlapping the cascade, which the idempotent
    node contract must tolerate.
    """

    users: int = 12
    victims: int = 4
    orders_per_user: int = 2
    expired_orders: int = 5
    seed: int = 11
    page_size: int = 512
    memory_pages: int = 24

    def build(self) -> "RetentionCase":
        if not 0 < self.victims < self.users:
            raise ReproError("need 1 <= victims < users")
        db = Database(
            page_size=self.page_size,
            memory_bytes=self.memory_pages * self.page_size,
        )
        rng = random.Random(self.seed)
        uids = [UID_BASE + i + 1 for i in range(self.users)]
        victims = sorted(rng.sample(uids, self.victims))
        survivors = [u for u in uids if u not in set(victims)]

        db.create_table(TableSchema.of("users", [
            Attribute.int_("UID"), Attribute.int_("REGION"),
            Attribute.char("SECRET", 12),
        ]))
        db.load_table("users", [
            (uid, 100 + i % 3, f"S{uid}!") for i, uid in enumerate(uids)
        ])
        db.create_index("users", "UID", unique=True)
        db.create_index("users", "REGION")

        order_rows = []
        ts = TS_BASE
        for uid in uids:
            for _ in range(self.orders_per_user):
                ts += 1
                order_rows.append((uid, ts, f"T{ts}!"))
        rng.shuffle(order_rows)
        db.create_table(TableSchema.of("orders", [
            Attribute.int_("OUID"), Attribute.int_("TS"),
            Attribute.char("TAG", 12),
        ]))
        db.load_table("orders", order_rows)
        db.create_index("orders", "OUID")
        db.create_index("orders", "TS")
        cutoff = TS_BASE + self.expired_orders + 1

        db.create_table(TableSchema.of("profiles", [
            Attribute.int_("PUID"), Attribute.char("NOTE", 8),
        ]))
        db.load_table("profiles", [(uid, "pro") for uid in uids])
        db.create_index("profiles", "PUID")

        db.create_table(TableSchema.of("audits", [
            Attribute.int_("AUID"), Attribute.char("NOTE", 8),
        ]))
        db.load_table("audits", [
            (survivors[i % len(survivors)], "aud")
            for i in range(len(survivors))
        ])
        db.create_index("audits", "AUID")

        db.create_table(
            TableSchema.of("events", [
                Attribute.int_("EUID"), Attribute.char("EPAYLOAD", 12),
            ]),
            engine="lsm",
            key_column="EUID",
        )
        db.load_table("events", [(uid, f"E{uid}!") for uid in uids])

        registry = ConstraintRegistry(db)
        registry.add_foreign_key(
            "orders", "OUID", "users", "UID", OnDelete.CASCADE
        )
        registry.add_foreign_key(
            "profiles", "PUID", "users", "UID", OnDelete.SET_NULL
        )
        registry.add_foreign_key(
            "audits", "AUID", "users", "UID", OnDelete.RESTRICT
        )
        registry.add_foreign_key(
            "events", "EUID", "users", "UID", OnDelete.CASCADE
        )
        db.flush()

        policies = [
            RetentionPolicy(
                "subject-erasure", "users", "UID",
                subject_keys=tuple(victims),
            ),
            RetentionPolicy("order-expiry", "orders", "TS", cutoff=cutoff),
        ]
        expired_ts = [
            t for (_, t, _) in order_rows if t < cutoff
        ]
        victim_set = set(victims)
        patterns = (
            [f"S{uid}!".encode() for uid in victims]
            + [
                tag.encode()
                for (uid, t, tag) in order_rows
                if uid in victim_set or t < cutoff
            ]
            + [f"E{uid}!".encode() for uid in victims]
        )
        return RetentionCase(
            db=db,
            log=WriteAheadLog(db.disk),
            registry=registry,
            policies=policies,
            victims=victims,
            expired_ts=sorted(expired_ts),
            patterns=sorted(patterns),
        )

    # -- sweep hooks (see repro.faults.sweep) ---------------------------
    def sweep_case(self) -> "RetentionCase":
        case = self.build()
        case.plans = case.compile()
        return case

    def sweep_state(self, case: "RetentionCase") -> DbState:
        return capture_state(case.db)

    def sweep_statements(self, case: "RetentionCase",
                         faults: FaultInjector) -> None:
        _issue_run(case, case.plans, faults=faults)

    def oracle_problems(self, case: "RetentionCase", initial: DbState,
                        oracle: DbState) -> List[str]:
        """The retention acceptance predicate, for the oracle run and
        for every recovered or healed point."""
        problems: List[str] = []
        if capture_state(case.db) != oracle:
            problems.append("state != oracle after recovery")
        problems.extend(
            retention_integrity_problems(case.db, case.registry, case.victims)
        )
        audit = audit_erasure(case.db, case.log, case.witness(case.plans))
        for finding in audit.findings[:5]:
            problems.append(f"audit: {finding.describe()}")
        return problems

    def crash_plan(self, event: int) -> FaultPlan:
        return FaultPlan(crash_after_event=event)

    def recover_point(self, case: "RetentionCase", outcome: PointOutcome,
                      initial: DbState, oracle: DbState) -> None:
        recovery = recover_retention(case.db, case.log, full_page_writes=True)
        if not recovery.resumed and capture_state(case.db) != oracle:
            # The begin record died with the crash: nothing durable
            # started, so the client re-issues the whole run — legitimate
            # only from the pristine pre-run state.  (A crash right after
            # the final ``retention_end`` append also resumes nothing:
            # the run is simply complete, and the oracle comparison
            # covers it.)
            if capture_state(case.db) != initial:
                outcome.problems.append(
                    "run never began, yet the state is not pristine"
                )
                return
            _issue_run(case, case.compile())
        outcome.problems.extend(self.oracle_problems(case, initial, oracle))
        if recover_retention(case.db, case.log).resumed:
            outcome.problems.append(
                "recovery is not terminal (a further recover resumed)"
            )

    def media_point(self, case: "RetentionCase", outcome: MediaPointOutcome,
                    initial: DbState, oracle: DbState) -> None:
        """A transient read fault mid-policy must heal through
        MediaRecovery's bounded retry/backoff and still reach the oracle
        with a clean audit."""
        media = MediaRecovery(
            case.db.disk,
            image_sources=[("wal", wal_image_source(case.log))],
        )
        try:
            _issue_run(
                case, case.plans,
                faults=FaultInjector(FaultPlan(
                    read_fault=outcome.kind,
                    read_fault_page=outcome.page_id,
                )),
                media=media,
            )
        except ReproError as exc:
            outcome.problems.append(
                f"run did not heal a transient fault: {exc}"
            )
            return
        outcome.outcome = "healed"
        outcome.problems.extend(self.oracle_problems(case, initial, oracle))


@dataclass
class RetentionCase:
    """One built scenario instance."""

    db: Database
    log: WriteAheadLog
    registry: ConstraintRegistry
    policies: List[RetentionPolicy]
    victims: List[int]
    expired_ts: List[int]
    patterns: List[bytes]
    #: The plans compiled from the pre-run state (set by
    #: :meth:`RetentionScenario.sweep_case`).
    plans: List[RetentionPlan] = field(default_factory=list)

    def compile(self) -> List[RetentionPlan]:
        return [
            compile_policy(self.db, self.registry, policy)
            for policy in self.policies
        ]

    def witness(self, plans: List[RetentionPlan]) -> ErasureWitness:
        return build_witness(plans, patterns=self.patterns)


def retention_integrity_problems(
    db: Database,
    registry: ConstraintRegistry,
    deleted_keys: List[int],
    limit: int = 20,
) -> List[str]:
    """:func:`repro.faults.sweep.integrity_problems`, plus: every LSM
    table has dropped its run tombstones (an erased key may not linger
    in a tombstone)."""
    problems = [
        f"{table.schema.name}: undropped run tombstones remain"
        for table in db.catalog.tables()
        if table.lsm is not None
        and table.lsm.tombstone_count
        and not table.lsm.memtable.entries
    ]
    problems += integrity_problems(db, registry, deleted_keys, limit)
    return problems[:limit]


def _issue_run(
    case: RetentionCase,
    plans: List[RetentionPlan],
    faults: Optional[FaultInjector] = None,
    media: Optional[MediaRecovery] = None,
):
    return RecoverableRetentionRun(
        case.db, plans, case.log,
        faults=faults, full_page_writes=True, media=media,
    ).run()


def retention_sweep(
    scenario: Optional[RetentionScenario] = None,
    max_points: Optional[int] = None,
    log_fn: Optional[Callable[[str], None]] = None,
) -> SweepReport:
    """Crash at every (or ``max_points`` evenly spaced) durable event
    of the two-policy run; recover, resume, and audit."""
    return sweep_crash_points(
        scenario or RetentionScenario(), max_points, log_fn=log_fn
    )


def retention_media_sweep(
    scenario: Optional[RetentionScenario] = None,
    max_points: Optional[int] = None,
    log_fn: Optional[Callable[[str], None]] = None,
) -> MediaSweepReport:
    """Transient-fault every (or ``max_points`` sampled) pre-run durable
    page mid-policy; the run must heal through MediaRecovery's bounded
    retry/backoff and still reach the oracle with a clean audit."""
    return sweep_media_pages(
        scenario or RetentionScenario(), (TRANSIENT,), max_points, log_fn
    )


# ----------------------------------------------------------------------
# audit mutation tests: the audit must catch planted traces
# ----------------------------------------------------------------------
def audit_mutation_checks(
    scenario: Optional[RetentionScenario] = None,
    log_fn: Optional[Callable[[str], None]] = None,
) -> List[str]:
    """Prove the audit non-vacuous: each planted stale trace must be
    caught, in the expected location.  Returns failure strings."""
    scenario = scenario or RetentionScenario()
    say = log_fn or (lambda message: None)
    failures: List[str] = []

    def check(label: str, plant: Callable[[RetentionCase], None],
              location: str) -> None:
        case = scenario.build()
        plans = case.compile()
        _issue_run(case, plans)
        baseline = audit_erasure(case.db, case.log, case.witness(plans))
        if not baseline.ok:
            failures.append(
                f"{label}: baseline audit already dirty: "
                + baseline.findings[0].describe()
            )
            return
        plant(case)
        audit = audit_erasure(case.db, case.log, case.witness(plans))
        hits = [f for f in audit.findings if f.location == location]
        if hits:
            say(f"  {label}: caught ({hits[0].describe()})")
        else:
            failures.append(
                f"{label}: planted trace not detected (findings: "
                f"{[f.location for f in audit.findings]})"
            )

    def plant_index_entry(case: RetentionCase) -> None:
        # A stale B-tree entry for an erased user, as if one leaf
        # delete had been lost.
        ix = case.db.table("users").indexes["I_users_UID"]
        ix.tree.insert(case.victims[0], 7)  # type: ignore[union-attr]

    def plant_wal_image(case: RetentionCase) -> None:
        # A retained pre-delete full-page image: overwrite one redacted
        # image with bytes still holding a victim's SECRET payload.
        for record in case.log.records("page_image"):
            image = bytearray(record.payload["image"])
            secret = f"S{case.victims[0]}!".encode()
            image[64:64 + len(secret)] = secret
            record.payload["image"] = bytes(image)
            return
        raise ReproError("scenario produced no page_image records")

    def plant_lsm_tombstone(case: RetentionCase) -> None:
        # An undropped tombstone still *naming* the erased key.
        lsm = case.db.table("events").lsm
        assert lsm is not None
        lsm.delete(case.victims[0])

    def plant_freed_page(case: RetentionCase) -> None:
        # Stale victim bytes resurfacing on a freed-but-retained page,
        # as if the erase pass had skipped the shred.
        disk = case.db.disk
        freed = disk.freed_page_ids()
        if not freed:
            raise ReproError("scenario freed no pages")
        image = bytearray(disk.page_size)
        secret = f"S{case.victims[0]}!".encode()
        image[32:32 + len(secret)] = secret
        disk.corrupt_page(freed[0], bytes(image))

    check("stale index entry", plant_index_entry, "btree")
    check("retained WAL image", plant_wal_image, "wal-image")
    check("undropped LSM tombstone", plant_lsm_tombstone, "lsm")
    check("unshredded freed page", plant_freed_page, "freed-page")
    return failures
