"""Exhaustive media-fault sweep: every page x every read-fault kind.

The analogue of :func:`repro.faults.sweep.crash_point_sweep` for media
failures.  On the same deterministic scenario:

1. run the recoverable bulk delete **fault-free**, capturing the
   pre-statement state and the *oracle* end state,
2. for every live pre-statement page p and every read-fault kind
   (transient / latent / stuck), rebuild the identical scenario, arm a
   :class:`~repro.faults.injector.FaultInjector` whose plan targets p,
   attach a :class:`~repro.media.retry.MediaRecovery` to the buffer
   pool, and run the statement,
3. require one of exactly two outcomes:

   * **healed** — the statement completes; a post-run scrub heals any
     still-damaged pages the statement never touched; the final state
     is bit-equivalent to the oracle and internally consistent, or
   * **aborted** — a typed :class:`~repro.errors.MediaError` escapes
     *before the statement modified anything* (stuck bits are caught by
     the ``require_scrubbed`` gate, which quarantines the page); the
     database still equals its pre-statement image, and after the
     operator "replaces the medium" (``restore_page`` from backup) a
     fault-free re-run reaches the oracle.

The per-point repair sources mirror a real deployment: the WAL's
full-page-write images first, then a backup taken of the pre-statement
durable image.  WAL images are safe here because a pool miss reads a
page before its frame can be dirtied, so a mid-statement repair always
happens before the statement's own modifications to that page (see
:mod:`repro.media.retry`).

One driver, :func:`sweep_media_pages`, runs this sweep and the
retention media sweep; the heap point itself is
:meth:`repro.faults.sweep.HeapSweep.media_point`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, List, Optional, Sequence

from repro.faults.plan import READ_FAULT_KINDS
from repro.faults.sweep import (
    HeapSweep,
    SweepScenario,
    _choose_points,
    oracle_pass,
)


@dataclass
class MediaPointOutcome:
    """One (page, fault kind) run of the sweep."""

    page_id: int
    kind: str
    #: ``"healed"`` or ``"aborted"``.
    outcome: str = ""
    #: Exception class name for aborted points.
    aborted_with: Optional[str] = None
    problems: List[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.problems


@dataclass
class MediaSweepReport:
    """Everything a media sweep did and found."""

    #: Live pages in the pre-statement durable image.
    durable_pages: int = 0
    #: The page ids actually swept (all, or evenly sampled).
    pages: List[int] = field(default_factory=list)
    outcomes: List[MediaPointOutcome] = field(default_factory=list)

    @property
    def failures(self) -> List[MediaPointOutcome]:
        return [o for o in self.outcomes if not o.ok]

    @property
    def ok(self) -> bool:
        return not self.failures

    def summary(self) -> str:
        healed = sum(1 for o in self.outcomes if o.outcome == "healed")
        aborted = sum(1 for o in self.outcomes if o.outcome == "aborted")
        kinds = len({o.kind for o in self.outcomes}) or 1
        lines = [
            f"durable pages: {self.durable_pages}; points swept: "
            f"{len(self.outcomes)} ({len(self.pages)} pages x "
            f"{kinds} kinds); healed: {healed}; "
            f"clean aborts: {aborted}; failures: {len(self.failures)}"
        ]
        for outcome in self.failures[:10]:
            lines.append(
                f"  FAIL page {outcome.page_id} ({outcome.kind}): "
                f"{outcome.problems[0]}"
            )
        return "\n".join(lines)


def sweep_media_pages(
    target: Any,
    kinds: Sequence[str],
    max_points: Optional[int] = None,
    log_fn: Optional[Callable[[str], None]] = None,
) -> MediaSweepReport:
    """Run ``target``'s media point for every read-fault kind in
    ``kinds`` on every (or ``max_points`` evenly sampled) pre-statement
    page.  A point whose run or recovery raises is recorded as failed
    and the sweep goes on."""
    say = log_fn or (lambda message: None)
    oracle = oracle_pass(target)
    pages = oracle.pages
    report = MediaSweepReport(durable_pages=len(pages))
    report.pages = [
        pages[i - 1] for i in _choose_points(len(pages), max_points)
    ]
    say(
        f"oracle: {len(pages)} durable pages; sweeping "
        f"{len(report.pages)} of them x {len(kinds)} fault kinds"
    )
    for kind in kinds:
        for page_id in report.pages:
            outcome = MediaPointOutcome(page_id=page_id, kind=kind)
            try:
                target.media_point(
                    target.sweep_case(), outcome, oracle.initial,
                    oracle.state,
                )
            except Exception as exc:  # a sweep reports every point
                outcome.problems.append(
                    f"recovery raised {type(exc).__name__}: {exc}"
                )
            report.outcomes.append(outcome)
            if not outcome.ok:
                say(
                    f"  page {page_id} ({kind}): FAIL: "
                    f"{outcome.problems[0]}"
                )
    return report


def media_sweep(
    scenario: Optional[SweepScenario] = None,
    max_points: Optional[int] = None,
    log_fn: Optional[Callable[[str], None]] = None,
) -> MediaSweepReport:
    """Sweep every read-fault kind over every (or ``max_points`` evenly
    sampled) pre-statement page of the scenario's bulk delete."""
    target = HeapSweep(scenario or SweepScenario(), full_page_writes=True)
    return sweep_media_pages(target, READ_FAULT_KINDS, max_points, log_fn)
