"""Delete-workload benchmark of the bulk-delete reproduction.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload vertical-sortmerge --seed 1 \\
        --seconds 20 --trace 0

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` alternates
untraced and traced repetitions and prints the per-layer metrics.  The
last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; notes go to
standard error.  See ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple

from hostclock import PhaseTimer

BENCH_DIR = Path(__file__).resolve().parent
SRC = BENCH_DIR.parent / "src"

#: Measured repetitions per run at least, whatever ``--seconds`` says.
MIN_REPS = 3
#: The warm-up repetition runs the workload on this share of its rows.
WARMUP_SHARE = 0.2
CHILD_TIMEOUT_S = 60


def import_program() -> None:
    """Make ``repro`` importable from this checkout's ``src`` only."""
    sys.path.insert(0, str(SRC))
    try:
        import repro
    except ImportError as exc:
        raise SystemExit(f"perfbench: cannot import repro from {SRC}: {exc}")
    origin = Path(repro.__file__).resolve()
    if SRC.resolve() not in origin.parents:
        raise SystemExit(f"perfbench: repro imported from {origin}, not {SRC}")


@dataclass
class Rep:
    """What one measured repetition timed and checked."""

    seconds: Dict[str, float]
    ops: int
    facts: Dict[str, float]
    checks: int
    problems: List[str]

    @property
    def rows_per_s(self) -> float:
        return self.facts["rows_deleted"] / self.seconds["delete"]

    @property
    def ops_per_s(self) -> float:
        return self.ops / self.seconds["ops"]


def set_up(case: Any) -> float:
    """Build the case's database; returns reference-host seconds."""
    # The previous repetition's database is garbage by now; collect it
    # so that one database at a time is alive.
    gc.collect()
    timer = PhaseTimer()
    timer("setup", case.setup)
    return timer.seconds["setup"]


def measure(case: Any, full_check: bool, tracer: Any = None) -> Rep:
    """Run the case's timed phases on its database, then check them."""
    if tracer is not None:
        tracer.reset_probes()
    # A collection during a timed phase would land on whichever
    # repetition crossed the threshold; collect now and freeze the
    # set-up's objects out of later collections.
    gc.collect()
    gc.freeze()
    timer = PhaseTimer()
    try:
        case.measure(timer)
    finally:
        gc.unfreeze()
    facts = case.facts()
    checks, problems = case.check(full_check)
    return Rep(timer.seconds, case.ops, facts, checks, problems)


def repetition(case: Any, full_check: bool,
               tracer: Any = None) -> Tuple[float, Rep]:
    """Set up the case's database, then measure and check it; returns
    the set-up's reference-host seconds and the repetition.  Every
    repetition gets a database of its own, which lives only inside this
    call."""
    setup_s = set_up(case)
    return setup_s, measure(case, full_check, tracer)


def warm_up(case_cls: Any, seed: int) -> Rep:
    """The warm-up repetition: a fresh set-up on ``WARMUP_SHARE`` of
    the workload's rows, measured and checked."""
    case = case_cls(seed)
    case.rows = int(case.rows * WARMUP_SHARE)
    return repetition(case, full_check=True)[1]


def fingerprint_in_child(workload: str, seed: int) -> Optional[Dict[str, float]]:
    """A full-size repetition's facts from a fresh interpreter with
    another ``PYTHONHASHSEED``; ``None`` if the child failed."""
    hash_seed = "1" if os.environ.get("PYTHONHASHSEED") == "0" else "0"
    env = dict(os.environ, PYTHONHASHSEED=hash_seed)
    try:
        child = subprocess.run(
            [sys.executable, str(BENCH_DIR / "run.py"), "--workload", workload,
             "--seed", str(seed), "--fingerprint"],
            env=env, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S,
        )
    except subprocess.TimeoutExpired:
        print("perfbench: fingerprint child timed out", file=sys.stderr)
        return None
    if child.returncode != 0:
        print(f"perfbench: fingerprint child failed:\n{child.stderr}",
              file=sys.stderr)
        return None
    facts: Dict[str, float] = json.loads(child.stdout.splitlines()[-1])
    return facts


def end_to_end(setups: List[float],
               reps: List[Rep]) -> Dict[str, Dict[str, Any]]:
    facts = reps[0].facts
    values = {
        "setup_s": (statistics.median(setups), "s"),
        "rows_per_s": (statistics.median(r.rows_per_s for r in reps), "rows/s"),
        "ops_per_s": (statistics.median(r.ops_per_s for r in reps), "1/s"),
        "sim_ms": (facts["sim_ms"], "sim-ms"),
        "write_pages_per_row": (facts["write_pages_per_row"], "pages"),
        "lookup_pages": (facts["lookup_pages"], "pages"),
        "space_amp": (facts["space_amp"], "ratio"),
        "user_mean_ms": (facts["user_mean_ms"], "sim-ms"),
        "peak_rss_mb": (
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"
        ),
    }
    return {name: {"value": v, "unit": u} for name, (v, u) in values.items()}


def per_layer(workload: str, plain: List[Rep], traced: List[Rep],
              tracers: List[Any]) -> Dict[str, Dict[str, Any]]:
    from layers import LAYER_NAMES
    from workloads import LAYER_FACTS, percentile

    out: Dict[str, Dict[str, Any]] = {}
    last = tracers[-1]
    for layer in LAYER_NAMES:
        out[f"{layer}.self_s"] = {
            "value": statistics.median(t.self_s[layer] for t in tracers),
            "unit": "s",
        }
        out[f"{layer}.calls"] = {"value": last.calls[layer], "unit": "count"}
    facts = traced[-1].facts
    for key, unit in LAYER_FACTS.items():
        out[key] = {"value": facts.get(key, 0.0), "unit": unit}
    out["query.sort_runs"] = {
        "value": sum(s.runs for s in last.sort_stats), "unit": "count"}
    out["query.spill_pages"] = {
        "value": sum(s.spill_pages for s in last.sort_stats),
        "unit": "pages"}
    ops = sorted(x for t in tracers for x in t.op_seconds)
    for name, p in (("op_host_p50_us", 50.0), ("op_host_p99_us", 99.0)):
        value = percentile(ops, p) * 1e6 if ops else 0.0
        out[f"workload.traffic.{name}"] = {"value": value, "unit": "us"}
    rate = "ops_per_s" if workload == "oltp-sidefile" else "rows_per_s"
    untraced = statistics.median(getattr(r, rate) for r in plain)
    with_trace = statistics.median(getattr(r, rate) for r in traced)
    out["trace.overhead_pct"] = {
        "value": (untraced / with_trace - 1.0) * 100.0, "unit": "%"}
    return out


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(prog="perfbench/run.py")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--fingerprint", action="store_true",
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    import_program()
    import workloads

    case_cls = workloads.CASES.get(args.workload)
    if case_cls is None:
        parser.error(f"unknown workload {args.workload!r}; choose from "
                     f"{sorted(workloads.CASES)}")
    if args.fingerprint:
        _, rep = repetition(case_cls(args.seed), full_check=False)
        print(json.dumps(rep.facts))
        return 0
    warm = warm_up(case_cls, args.seed)

    setups: List[float] = []
    plain: List[Rep] = []
    traced: List[Rep] = []
    tracers: List[Any] = []
    deadline = time.perf_counter() + args.seconds  # lint: allow(wall-clock)
    while True:
        setup_s, rep = repetition(case_cls(args.seed), full_check=not plain)
        setups.append(setup_s)
        plain.append(rep)
        if args.trace:
            # Untraced and traced repetitions alternate, so the overhead
            # compares like with like; the traced set-up feeds the
            # layers' times.
            from layers import LayerTracer

            tracer = LayerTracer()
            tracer.install([workloads])
            try:
                traced.append(
                    repetition(case_cls(args.seed), False, tracer)[1]
                )
            finally:
                tracer.remove()
            tracers.append(tracer)
        done = time.perf_counter() >= deadline  # lint: allow(wall-clock)
        if done and len(plain) >= MIN_REPS:
            break

    reps = plain + traced
    attempted = warm.checks + sum(r.checks for r in reps)
    problems = warm.problems + [p for r in reps for p in r.problems]
    # Determinism gate: every repetition, traced or not, must agree on
    # every fact, and a fresh interpreter with another hash seed must
    # reproduce them too.
    reference = reps[0].facts
    drifted = [i for i, r in enumerate(reps) if r.facts != reference]
    attempted += len(reps)
    problems += [f"repetition {i} facts drifted from repetition 0"
                 for i in drifted]
    attempted += 1
    child = fingerprint_in_child(args.workload, args.seed)
    if child is None:
        problems.append("no facts from a child under another PYTHONHASHSEED")
    elif child != reference:
        diff = sorted(k for k in set(child) | set(reference)
                      if child.get(k) != reference.get(k))
        problems.append(f"facts differ under another PYTHONHASHSEED: {diff}")

    for problem in problems[:20]:
        print(f"perfbench: FAILED {problem}", file=sys.stderr)
    print(f"perfbench: {args.workload} seed {args.seed}: {len(plain)} "
          f"untraced + {len(traced)} traced repetitions", file=sys.stderr)
    metrics = (per_layer(args.workload, plain, traced, tracers)
               if args.trace else end_to_end(setups, plain))
    print(json.dumps({
        "correct": not problems,
        "attempted": attempted,
        "failed": len(problems),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
