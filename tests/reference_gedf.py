"""Reference GEDF-NP: the straightforward event-loop simulator.

This is the earlier `gedf_np_simulate` kept verbatim in its logic so the
tests can require an equal SimResult (trace and first miss, so success) from
the production version.  It looks every DAG and node up through the task
set, keys its unfinished-parent counts by (dag, node, job), rebuilds the
trace with ScheduleMap.from_entries and finds the first miss in a pass
over all entries afterwards.  Do not optimize it.
"""

from __future__ import annotations

from heapq import heapify, heappop, heappush

from dagsched.baseline import MissLocus, SimResult
from dagsched.model import JOB_BUDGET, ScheduleEntry, ScheduleMap, TaskSet


def reference_gedf_np_simulate(ts: TaskSet, m: int) -> SimResult:
    """Simulate the task set under non-preemptive global EDF on m cores.

    Ties on equal deadlines break toward the lowest (dag, node, job); free
    cores are filled lowest index first.  The simulation runs until all
    released work completes, even past a miss, so the trace is always the
    full executed schedule.  success is True iff every instance met its
    absolute deadline (job+1 periods after time 0).
    """
    if not 1 <= m <= JOB_BUDGET:
        raise ValueError(f"core count must be in 1..{JOB_BUDGET}, got {m}")

    releases: list[tuple[int, int, int]] = []  # (time, dag_id, job)
    for dag in ts.dags:
        if not dag.nodes:
            continue
        for k in range(ts.hyperperiod // dag.period):
            releases.append((k * dag.period, dag.dag_id, k))
    releases.sort()

    pending: dict[tuple[int, int, int], int] = {}  # unfinished-parent counts
    eligible: list[tuple[int, int, int, int]] = []  # (deadline, dag, node, job)
    running: list[tuple[int, int, int, int, int]] = []  # (finish, core, dag, node, job)
    free = list(range(m))
    heapify(free)
    entries: list[ScheduleEntry] = []

    idx = 0
    while idx < len(releases) or running:
        now = releases[idx][0] if idx < len(releases) else running[0][0]
        if running and running[0][0] < now:
            now = running[0][0]

        # Releases at this instant: every entry node of the job turns eligible.
        while idx < len(releases) and releases[idx][0] == now:
            _, dag_id, job = releases[idx]
            idx += 1
            dag = ts.dag(dag_id)
            deadline = (job + 1) * dag.period
            for node in dag.nodes:
                if node.parents:
                    pending[(dag_id, node.node_id, job)] = len(node.parents)
                else:
                    heappush(eligible, (deadline, dag_id, node.node_id, job))

        # Finishes at this instant free their cores and release children.
        while running and running[0][0] == now:
            _, core, dag_id, node_id, job = heappop(running)
            heappush(free, core)
            dag = ts.dag(dag_id)
            deadline = (job + 1) * dag.period
            for child in dag.node(node_id).children:
                key = (dag_id, child, job)
                pending[key] -= 1
                if pending[key] == 0:
                    del pending[key]
                    heappush(eligible, (deadline, dag_id, child, job))

        while free and eligible:
            deadline, dag_id, node_id, job = heappop(eligible)
            core = heappop(free)
            wcet = ts.dag(dag_id).node(node_id).wcet
            entries.append(ScheduleEntry(dag_id, node_id, job, core, now, now + wcet))
            heappush(running, (now + wcet, core, dag_id, node_id, job))

    trace = ScheduleMap.from_entries(m, entries)
    misses = [
        MissLocus(e.dag_id, e.node_id, e.job, (e.job + 1) * ts.dag(e.dag_id).period, e.finish)
        for e in entries
        if e.finish > (e.job + 1) * ts.dag(e.dag_id).period
    ]
    first = min(misses, key=lambda x: (x.deadline, x.dag_id, x.node_id, x.job), default=None)
    return SimResult(trace=trace, first_miss=first)
