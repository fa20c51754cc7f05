"""Tests for the crash-resumable retention run (repro.retention.run).

Covers the clean end-to-end pass (two overlapping policies over heap +
LSM engines, CASCADE/SET NULL/RESTRICT edges), resume from
representative crash points, the terminal-recovery contract, and the
non-vacuity of the erasure audit (planted traces must be caught).
The exhaustive every-durable-event sweep lives behind
``repro faultsweep --retention``; these tests pin the contracts at a
pytest-sized number of points.
"""

from repro.core.integrity import SET_NULL_VALUE
from repro.faults import FaultInjector, FaultPlan, SimulatedCrash
from repro.faults.sweep import capture_state
from repro.retention import (
    RecoverableRetentionRun,
    RetentionScenario,
    audit_erasure,
    audit_mutation_checks,
    recover_retention,
    retention_integrity_problems,
)

SCENARIO = RetentionScenario()


def _run(case, plans=None, faults=None):
    plans = plans if plans is not None else case.compile()
    report = RecoverableRetentionRun(
        case.db, plans, case.log, faults=faults, full_page_writes=True,
    ).run()
    return plans, report


def _column(case, table, name):
    idx = case.db.table(table).schema.column_index(name)
    return [values[idx] for _, values in case.db.scan(table)]


def test_clean_run_erases_victims_everywhere():
    case = SCENARIO.build()
    victims = set(case.victims)
    expired = set(case.expired_ts)
    survivors_orders = [
        (u, t) for (u, t, _) in (
            (v[0], v[1], None) for _, v in case.db.scan("orders")
        )
        if u not in victims and t not in expired
    ]
    plans, report = _run(case)

    assert report.records_deleted > 0 and report.records_nulled > 0
    # Root, CASCADE heap child, CASCADE LSM child: victims gone.
    assert victims.isdisjoint(_column(case, "users", "UID"))
    assert victims.isdisjoint(_column(case, "orders", "OUID"))
    assert victims.isdisjoint(_column(case, "events", "EUID"))
    # The overlapping age policy expired the oldest orders too.
    assert expired.isdisjoint(_column(case, "orders", "TS"))
    assert sorted(
        (u, t) for u, t in zip(
            _column(case, "orders", "OUID"), _column(case, "orders", "TS")
        )
    ) == sorted(survivors_orders)
    # SET NULL child: rows survive, references nulled.
    puids = _column(case, "profiles", "PUID")
    assert victims.isdisjoint(puids)
    assert puids.count(SET_NULL_VALUE) == len(victims)
    # RESTRICT child untouched (it references survivors only).
    assert len(_column(case, "audits", "AUID")) == SCENARIO.users - len(
        victims
    )


def test_clean_run_audits_clean_and_is_terminal():
    case = SCENARIO.build()
    plans, _ = _run(case)
    audit = audit_erasure(case.db, case.log, case.witness(plans))
    assert audit.ok, [f.describe() for f in audit.findings[:5]]
    assert not retention_integrity_problems(
        case.db, case.registry, case.victims
    )
    # Nothing left to resume, twice over.
    assert not recover_retention(case.db, case.log).resumed
    assert not recover_retention(case.db, case.log).resumed


def test_retention_integrity_problems_catches_planted_damage():
    case = SCENARIO.build()
    _run(case)
    assert retention_integrity_problems(
        case.db, case.registry, case.victims
    ) == []
    # An undropped run tombstone on the LSM child...
    events = case.db.table("events").lsm
    events.delete(case.victims[0])
    events.flush_memtable()
    # ...and a heap index whose entry count lies.
    case.db.table("users").index("I_users_UID").tree._entry_count += 1
    problems = retention_integrity_problems(
        case.db, case.registry, case.victims
    )
    assert "events: undropped run tombstones remain" in problems
    assert any(p.startswith("users.I_users_UID: ") for p in problems)


def test_recovery_without_a_run_is_a_no_op():
    case = SCENARIO.build()
    report = recover_retention(case.db, case.log)
    assert not report.resumed
    assert report.nodes_skipped == 0 and report.nodes_rerun == 0


def test_resume_from_representative_crash_points():
    # The fault-free pass counts durable events; crash at five spread
    # points, recover, and require the oracle state + a clean audit +
    # terminal recovery at each.  (`faultsweep --retention` sweeps
    # every point exhaustively.)
    oracle_case = SCENARIO.build()
    counter = FaultInjector()
    plans, _ = _run(oracle_case, faults=counter)
    oracle = capture_state(oracle_case.db)
    total = counter.durable_event_count
    assert total > 20

    initial = capture_state(SCENARIO.build().db)
    for event in (1, total // 4, total // 2, 3 * total // 4, total - 1):
        case = SCENARIO.build()
        plans = case.compile()
        crashed = False
        try:
            _run(case, plans,
                 faults=FaultInjector(FaultPlan(crash_after_event=event)))
        except SimulatedCrash:
            crashed = True
        assert crashed, f"no crash fired at event {event}"
        recovery = recover_retention(
            case.db, case.log, full_page_writes=True
        )
        if not recovery.resumed and capture_state(case.db) != oracle:
            # The begin record died with the crash: the state must be
            # pristine and the client re-issues the run from scratch.
            assert capture_state(case.db) == initial, f"event {event}"
            _run(case, case.compile())
        assert capture_state(case.db) == oracle, f"event {event}"
        assert not retention_integrity_problems(
            case.db, case.registry, case.victims
        ), f"event {event}"
        audit = audit_erasure(case.db, case.log, case.witness(plans))
        assert audit.ok, (
            f"event {event}: {[f.describe() for f in audit.findings[:3]]}"
        )
        assert not recover_retention(case.db, case.log).resumed


def test_resume_skips_sealed_nodes():
    # Crash late in the run: recovery must re-run only the unsealed
    # tail, not repeat nodes whose retention_node_done already landed.
    oracle_case = SCENARIO.build()
    counter = FaultInjector()
    _run(oracle_case, faults=counter)
    case = SCENARIO.build()
    try:
        _run(case, faults=FaultInjector(FaultPlan(
            crash_after_event=(counter.durable_event_count * 3) // 4
        )))
    except SimulatedCrash:
        pass
    recovery = recover_retention(case.db, case.log, full_page_writes=True)
    assert recovery.resumed
    assert recovery.nodes_skipped > 0
    assert capture_state(case.db) == capture_state(oracle_case.db)


def test_audit_mutation_checks_catch_planted_traces():
    # The audit is not vacuously green: each planted stale trace (index
    # entry, WAL image, LSM tombstone, freed page) must produce a
    # finding in its expected location.
    assert audit_mutation_checks(SCENARIO) == []
