"""Reference validator: the earlier table-driven `validate_schedule`.

This is the earlier `validate_schedule` kept verbatim in its logic so the
tests can require an equal ValidationReport (kinds, texts and order, so ok)
from the production version.  It builds a (dag, node, job) -> (wcet,
release, deadline) table of every job instance, which the task set used
to keep as its `job_table`, hashes every entry and precedence edge into
it, and walks every release of every DAG.  Do not optimize it.
"""

from __future__ import annotations

from operator import itemgetter

from dagsched.model import (
    DEADLINE,
    DURATION,
    MISSING_JOB,
    OVERLAP,
    PRECEDENCE,
    RELEASE,
    UNKNOWN_NODE,
    ScheduleEntry,
    ScheduleMap,
    TaskSet,
    ValidationReport,
    Violation,
)


def reference_job_table(ts: TaskSet) -> dict[tuple[int, int, int], tuple[int, int, int]]:
    """(dag, node, job) -> (wcet, release, deadline) of every job instance."""
    jobs = {}
    for dag in ts.dags:
        period = dag.period
        windows = [(k * period, (k + 1) * period) for k in range(ts.hyperperiod // period)]
        for node in dag.nodes:
            dag_id, node_id, wcet = node.dag_id, node.node_id, node.wcet
            for k, (release, deadline) in enumerate(windows):
                jobs[(dag_id, node_id, k)] = (wcet, release, deadline)
    return jobs


# Within a lane: (start, finish, dag, node, job).
_LANE_ORDER = itemgetter(4, 5, 0, 1, 2)


def _locus(e: ScheduleEntry, core_idx: int) -> str:
    return f"dag {e.dag_id} node {e.node_id} job {e.job} on core {core_idx}"


def reference_validate_schedule(mp: ScheduleMap, ts: TaskSet) -> ValidationReport:
    """Check a schedule map against every rule of the task model.

    Over one hyperperiod: each job instance of each node appears exactly
    once, runs for exactly its wcet inside its own period window, cores
    never run two entries at once, and a job's parents finish before its
    children start.  Violations are collected exhaustively; entries that
    match no known job instance (or duplicate one) are reported as
    ``unknown_node`` and skipped by the remaining checks.
    """
    violations: list[Violation] = []
    expected = reference_job_table(ts)
    seen: dict[tuple[int, int, int], ScheduleEntry] = {}
    for core_idx, lane in enumerate(mp.cores):
        for e in lane:
            dag_id, node_id, job, _, start, finish = e
            key = (dag_id, node_id, job)
            spec = expected.get(key)
            if spec is None:
                violations.append(
                    Violation(UNKNOWN_NODE, f"{_locus(e, core_idx)}: no such job instance")
                )
                continue
            if key in seen:
                violations.append(
                    Violation(UNKNOWN_NODE, f"{_locus(e, core_idx)}: duplicate placement")
                )
                continue
            seen[key] = e
            wcet, release, deadline = spec
            if finish - start != wcet:
                violations.append(Violation(
                    DURATION, f"{_locus(e, core_idx)}: runs {finish - start} ticks, wcet is {wcet}"
                ))
            if start < release:
                violations.append(Violation(
                    RELEASE, f"{_locus(e, core_idx)}: starts {start} before release {release}"
                ))
            if finish > deadline:
                violations.append(Violation(
                    DEADLINE, f"{_locus(e, core_idx)}: finishes {finish} after deadline {deadline}",
                ))

    if len(seen) < len(expected):
        for dag_id, node_id, k in expected:
            if (dag_id, node_id, k) not in seen:
                violations.append(
                    Violation(MISSING_JOB, f"dag {dag_id} node {node_id} job {k}: never scheduled")
                )

    # Per-core overlap: compare each entry against the latest finish so far
    # so nested intervals are caught, not just adjacent ones.
    for core_idx, lane in enumerate(mp.cores):
        if not lane:
            continue
        ordered = iter(sorted(lane, key=_LANE_ORDER))
        prev = next(ordered)
        for e in ordered:
            if e.start < prev.finish:
                violations.append(
                    Violation(
                        OVERLAP,
                        f"core {core_idx}: dag {e.dag_id} node {e.node_id} job {e.job} "
                        f"[{e.start},{e.finish}) overlaps dag {prev.dag_id} node "
                        f"{prev.node_id} job {prev.job} [{prev.start},{prev.finish})",
                    )
                )
            if e.finish > prev.finish:
                prev = e

    # Same-job precedence, checked only where both endpoints were placed.
    for dag in ts.dags:
        dag_id = dag.dag_id
        for k in range(ts.hyperperiod // dag.period):
            for node in dag.nodes:
                pe = seen.get((dag_id, node.node_id, k))
                if pe is None:
                    continue
                for child in node.children:
                    ce = seen.get((dag_id, child, k))
                    if ce is not None and pe.finish > ce.start:
                        violations.append(
                            Violation(
                                PRECEDENCE,
                                f"dag {dag_id} job {k}: node {node.node_id} finishes "
                                f"{pe.finish} after child {child} starts {ce.start}",
                            )
                        )

    violations.sort(key=lambda v: (v.kind, v.where))
    return ValidationReport(violations=tuple(violations))
