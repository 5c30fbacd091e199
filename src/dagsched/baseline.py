"""Non-preemptive global-EDF baseline simulator.

Discrete-event simulation over one hyperperiod with synchronous first
release.  A node instance becomes eligible when its job is released and all
its parents in the same job have finished; whenever a core is free the
eligible instance with the earliest absolute deadline is dispatched and runs
to completion.  Dispatch decisions happen only at event times (releases and
finishes), which is exact for non-preemptive work-conserving scheduling.
"""

from __future__ import annotations

from dataclasses import dataclass
from heapq import heappop, heappush

from .model import JOB_BUDGET, ScheduleEntry, ScheduleMap, TaskSet


@dataclass(frozen=True)
class MissLocus:
    """The deadline miss with the least (deadline, dag, node, job)."""

    dag_id: int
    node_id: int
    job: int
    deadline: int
    finish: int


@dataclass(frozen=True)
class SimResult:
    """What a GEDF-NP run observed: its full trace and its first miss.

    Both fields are stored; success is derived, True iff no miss was seen.
    """

    trace: ScheduleMap
    first_miss: MissLocus | None

    @property
    def success(self) -> bool:
        return self.first_miss is None


def gedf_np_simulate(ts: TaskSet, m: int) -> SimResult:
    """Simulate the task set under non-preemptive global EDF on m cores.

    Ties on equal deadlines break toward the lowest (dag, node, job); free
    cores are filled lowest index first.  The simulation runs until all
    released work completes, even past a miss, so the trace is always the
    full executed schedule.  success is True iff every instance met its
    absolute deadline (job+1 periods after time 0).
    """
    if not 1 <= m <= JOB_BUDGET:
        raise ValueError(f"core count must be in 1..{JOB_BUDGET}, got {m}")

    # One table per DAG, read instead of the DagSpec in the event loop:
    # node id -> (wcet, children), plus the parent count of each non-entry
    # node, which every job copies as its countdown of unfinished parents.
    releases: list[tuple[int, int, int, int, dict, tuple, dict]] = []
    for dag in ts.dags:
        if not dag.nodes:
            continue
        nodes = {n.node_id: (n.wcet, n.children) for n in dag.nodes}
        entry_ids = dag.entry_ids
        counts = {n.node_id: len(n.parents) for n in dag.nodes if n.parents}
        period = dag.period
        for k in range(ts.hyperperiod // period):
            # (time, dag, job) is unique, so the sort never compares the tables.
            releases.append((k * period, dag.dag_id, k, period, nodes, entry_ids, counts))
    releases.sort()

    # eligible: (deadline, dag, node, job, nodes, left) and running: (finish,
    # core, deadline, dag, job, nodes, children, left).  The leading fields
    # are unique among queued instances, so heap order never reaches the
    # tables; left is the job's own countdown of unfinished parents.
    eligible: list[tuple] = []
    running: list[tuple] = []
    # lanes holds one list per core taken so far and free those of them that
    # are idle again.  A core runs one entry at a time, so appending at
    # dispatch keeps its lane in start order.
    lanes: list[list[ScheduleEntry]] = []
    free: list[int] = []
    first: MissLocus | None = None
    new = tuple.__new__  # builds an entry without the named tuple's Python-level __new__

    idx = 0
    while idx < len(releases) or running:
        now = releases[idx][0] if idx < len(releases) else running[0][0]
        if running and running[0][0] < now:
            now = running[0][0]

        # Releases at this instant: every entry node of the job turns eligible.
        while idx < len(releases) and releases[idx][0] == now:
            _, dag_id, job, period, nodes, entry_ids, counts = releases[idx]
            idx += 1
            deadline = (job + 1) * period
            left = counts.copy()
            for node_id in entry_ids:
                heappush(eligible, (deadline, dag_id, node_id, job, nodes, left))

        # Finishes at this instant free their cores and release children.
        while running and running[0][0] == now:
            _, core, deadline, dag_id, job, nodes, children, left = heappop(running)
            heappush(free, core)
            for child in children:
                left[child] -= 1
                if not left[child]:
                    heappush(eligible, (deadline, dag_id, child, job, nodes, left))

        while eligible and (free or len(lanes) < m):
            deadline, dag_id, node_id, job, nodes, left = heappop(eligible)
            # The lowest free core: every core taken before has a lower
            # index than the next one never taken.
            if free:
                core = heappop(free)
            else:
                core = len(lanes)
                lanes.append([])
            wcet, children = nodes[node_id]
            finish = now + wcet
            lanes[core].append(new(ScheduleEntry, (dag_id, node_id, job, core, now, finish)))
            heappush(running, (finish, core, deadline, dag_id, job, nodes, children, left))
            if finish > deadline and (
                first is None
                or (deadline, dag_id, node_id, job)
                < (first.deadline, first.dag_id, first.node_id, first.job)
            ):
                first = MissLocus(dag_id, node_id, job, deadline, finish)

    # Cores never taken share one empty lane, so a large m costs little.
    cores = tuple(map(tuple, lanes)) + ((),) * (m - len(lanes))
    trace = ScheduleMap(num_cores=m, cores=cores)
    return SimResult(trace=trace, first_miss=first)
