"""One list-scheduling engine, and the non-preemptive global-EDF baseline on it.

Discrete-event simulation over one hyperperiod with synchronous first
release.  A node instance becomes eligible when its job is released and all
its parents in the same job have finished; whenever a core is free the
eligible instance with the least priority key is dispatched and runs to
completion.  The key is the job's release plus a per-node offset, so one
engine serves two priorities: GEDF-NP passes every node its DAG's period
(the key is the job's absolute deadline), and the scheduler's list-scheduled
table passes each node's latest start.  Dispatch decisions happen only at
event times (releases and finishes), which is exact for non-preemptive
work-conserving scheduling.
"""

from __future__ import annotations

from dataclasses import dataclass
from heapq import heappop, heappush
from typing import Mapping, Sequence

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

    The list-scheduling engine with every node's offset its DAG's period,
    so the priority key is the job's absolute deadline (job+1 periods after
    time 0).  Ties on equal deadlines break toward the lowest (dag, node,
    job); free cores are filled lowest index first.  The simulation runs
    until all released work completes, even past a miss, so the trace is
    always the full executed schedule.  success is True iff every instance
    met its absolute deadline.
    """
    return list_schedule(ts, m, {dag.dag_id: (dag.period,) * len(dag.nodes) for dag in ts.dags})


def list_schedule(ts: TaskSet, m: int, offsets: Mapping[int, Sequence[int]]) -> SimResult:
    """Non-preemptive global list scheduling on m cores, keyed by release plus offset.

    offsets maps each DAG id to its nodes' offsets, in the order of
    dag.nodes.  A node's offset is added to each job's release to give the
    node instance's priority key; the eligible instance with the least (key,
    dag, node, job) is dispatched to the lowest free core.  The run goes
    until all released work completes, even past a miss, and every entry
    is checked against its job's deadline (job+1 periods after time 0).
    With no miss the trace is a legal time-triggered table: every entry
    starts at or after its release and its parents' finishes, no core runs
    two entries at once, and every entry meets its deadline.
    """
    if not 1 <= m <= JOB_BUDGET:
        raise ValueError(f"core count must be in 1..{JOB_BUDGET}, got {m}")

    # One table per DAG, read instead of the DagSpec in the event loop:
    # node id -> (wcet, children, slack), the (node, slack) pairs of the
    # entry nodes, and the parent count of each non-entry node, which
    # every job copies as its countdown of unfinished parents.  A node's
    # slack is its offset less the period, so its key is the job's deadline
    # plus its slack, and the deadline is the key less the slack: the loop
    # carries one time per queued instance.
    releases: list[tuple[int, int, int, int, dict, tuple, dict]] = []
    for dag in ts.dags:
        if not dag.nodes:
            continue
        period = dag.period
        nodes = {n.node_id: (n.wcet, n.children, offset - period)
                 for n, offset in zip(dag.nodes, offsets[dag.dag_id])}
        entries = tuple((nid, nodes[nid][2]) for nid in dag.entry_ids)
        counts = {n.node_id: len(n.parents) for n in dag.nodes if n.parents}
        for k in range(ts.hyperperiod // period):
            # (time, dag, job) is unique, so the sort never compares the tables.
            releases.append((k * period, dag.dag_id, k, period, nodes, entries, counts))
    releases.sort()

    # eligible: (key, dag, node, job, nodes, left) and running: (finish,
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
            _, dag_id, job, period, nodes, entries, counts = releases[idx]
            idx += 1
            deadline = now + period  # now is the job's release
            left = counts.copy()
            for node_id, slack in entries:
                heappush(eligible, (deadline + slack, dag_id, node_id, job, nodes, left))

        # Finishes at this instant free their cores and release children.
        while running and running[0][0] == now:
            _, core, deadline, dag_id, job, nodes, children, left = heappop(running)
            heappush(free, core)
            for child in children:
                left[child] -= 1
                if not left[child]:
                    key = deadline + nodes[child][2]
                    heappush(eligible, (key, dag_id, child, job, nodes, left))

        while eligible and (free or len(lanes) < m):
            key, dag_id, node_id, job, nodes, left = heappop(eligible)
            # The lowest free core: every core taken before has a lower
            # index than the next one never taken.
            if free:
                core = heappop(free)
            else:
                core = len(lanes)
                lanes.append([])
            wcet, children, slack = nodes[node_id]
            deadline = key - slack
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
