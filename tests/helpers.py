"""Shared builders, brute-force oracles, analysis readers and trace checkers.

The oracles recompute analysis results by explicit enumeration (reachability
sets, all-paths recursion without memoization) so they stay independent of
the production implementations they check.
"""

from __future__ import annotations

import tracemalloc
from contextlib import contextmanager

from dagsched.analysis import analyze_dag
from dagsched.model import DagSpec, ScheduleMap, TaskSet, build_dag
from dagsched.scheduler import Placement


def diamond_dag(dag_id: int = 1, period: int = 8) -> DagSpec:
    # s=1 (w1), a=2 (w3), b=3 (w2), t=4 (w1)
    return build_dag(dag_id, period, {1: 1, 2: 3, 3: 2, 4: 1}, [(1, 2), (1, 3), (2, 4), (3, 4)])


def chain_dag(dag_id: int = 1, period: int = 10) -> DagSpec:
    # A=1 -> B=2, both wcet 2
    return build_dag(dag_id, period, {1: 2, 2: 2}, [(1, 2)])


def single_node_dag(dag_id: int = 1, period: int = 5, wcet: int = 2) -> DagSpec:
    return build_dag(dag_id, period, {1: wcet})


def job_count(ts: TaskSet) -> int:
    """Job instances over one hyperperiod."""
    return sum(len(dag.nodes) * (ts.hyperperiod // dag.period) for dag in ts.dags)


def random_dag(rng, dag_id: int = 1, max_nodes: int = 12, feasible: bool = True) -> DagSpec:
    n = rng.randint(1, max_nodes)
    wcets = {i: rng.randint(1, 9) for i in range(1, n + 1)}
    edges = [
        (i, j)
        for i in range(1, n + 1)
        for j in range(i + 1, n + 1)
        if rng.random() < rng.choice((0.2, 0.5, 0.8))
    ]
    # total work bounds every path weight, so this period is always feasible
    period = sum(wcets.values()) + (rng.randint(0, 10) if feasible else 0)
    return build_dag(dag_id, period, wcets, edges)


# --- brute-force analysis oracles -------------------------------------------


def brute_ancestors(dag: DagSpec, nid: int) -> set[int]:
    seen: set[int] = set()
    frontier = list(dag.node(nid).parents)
    while frontier:
        p = frontier.pop()
        if p not in seen:
            seen.add(p)
            frontier.extend(dag.node(p).parents)
    return seen


def brute_prior_plus(dag: DagSpec, nid: int) -> int:
    return dag.node(nid).wcet + sum(dag.node(a).wcet for a in brute_ancestors(dag, nid))


def heaviest_ending_at(dag: DagSpec, nid: int) -> int:
    """Max weight over all directed paths ending at nid, by plain recursion."""
    node = dag.node(nid)
    if not node.parents:
        return node.wcet
    return node.wcet + max(heaviest_ending_at(dag, p) for p in node.parents)


def heaviest_starting_at(dag: DagSpec, nid: int) -> int:
    node = dag.node(nid)
    if not node.children:
        return node.wcet
    return node.wcet + max(heaviest_starting_at(dag, c) for c in node.children)


def brute_est(dag: DagSpec, nid: int) -> int:
    return heaviest_ending_at(dag, nid) - dag.node(nid).wcet


def brute_lft(dag: DagSpec, nid: int) -> int:
    return dag.deadline - (heaviest_starting_at(dag, nid) - dag.node(nid).wcet)


def windows(dag: DagSpec) -> dict[int, tuple[int, int]]:
    """Each node id -> (earliest start, latest finish), read off analyze_dag."""
    a = analyze_dag(dag)
    return {nid: (a.est[nid], a.lft[nid]) for nid in a.est}


def analyzed_cp(dag: DagSpec) -> tuple[list[int], int]:
    """The critical path analyze_dag finds, and its weight DagSpec.cp_length."""
    return list(analyze_dag(dag).cp_nodes), dag.cp_length


def all_maximal_paths(dag: DagSpec) -> list[list[int]]:
    paths: list[list[int]] = []

    def walk(path: list[int]) -> None:
        children = dag.node(path[-1]).children
        if not children:
            paths.append(list(path))
            return
        for c in children:
            path.append(c)
            walk(path)
            path.pop()

    for e in dag.entry_ids:
        walk([e])
    return paths


def brute_critical_path(dag: DagSpec) -> tuple[list[int], int]:
    if not dag.nodes:
        return [], 0
    paths = all_maximal_paths(dag)
    best = max(sum(dag.node(n).wcet for n in p) for p in paths)
    winners = [p for p in paths if sum(dag.node(n).wcet for n in p) == best]
    return min(winners), best


@contextmanager
def allocation_limit(limit: int = 1 << 20):
    """Fail unless the block's peak allocation stays within limit bytes."""
    tracemalloc.start()
    try:
        yield
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= limit, f"peak allocation {peak} bytes, limit {limit}"


# --- schedule/trace checkers --------------------------------------------------


def reference_taskset_doc(ts: TaskSet) -> dict:
    """The task-set document of ts: DAGs by id, nodes by id, edges by (parent, child).

    dumps_taskset must write exactly json.dumps(doc, indent=2) + "\\n".
    """
    return {
        "dags": [
            {
                "id": dag.dag_id,
                "period": dag.period,
                "nodes": [{"id": n.node_id, "wcet": n.wcet} for n in dag.nodes],
                "edges": [[n.node_id, c] for n in dag.nodes for c in n.children],
            }
            for dag in ts.dags
        ]
    }


def reference_schedule_doc(mp: ScheduleMap) -> dict:
    """The schedule document of mp, entries by (core, start, finish, dag, node, job).

    dumps_schedule must write exactly json.dumps(doc, indent=2) + "\\n".
    """
    ordered = sorted(
        mp.entries(), key=lambda e: (e.core, e.start, e.finish, e.dag_id, e.node_id, e.job)
    )
    return {
        "num_cores": mp.num_cores,
        "entries": [
            {
                "dag": e.dag_id,
                "node": e.node_id,
                "job": e.job,
                "core": e.core,
                "start": e.start,
                "finish": e.finish,
            }
            for e in ordered
        ],
    }


def entry_multiset(lanes) -> list[tuple[int, int, int, int]]:
    """Multiset of (dag, node, job, duration); positions are free to change."""
    return sorted(
        (p.dag_id, p.node_id, p.job, p.finish - p.start) for lane in lanes for p in lane
    )


def copy_lanes(lanes) -> list[list[Placement]]:
    """Fresh placements at lanes' current positions: compact moves the ones it is given."""
    return [
        [Placement(p.dag_id, p.node_id, p.job, p.start, p.finish, p.rank, p.lo, p.hi)
         for p in lane]
        for lane in lanes
    ]


def lanes_layout(lanes) -> list[list[tuple[int, int, int, int, int]]]:
    return [[(p.dag_id, p.node_id, p.job, p.start, p.finish) for p in lane] for lane in lanes]


def eligibility_times(ts: TaskSet, trace: ScheduleMap) -> dict[tuple[int, int, int], int]:
    """When each instance became ready: release joined with parent finishes."""
    finish = {(e.dag_id, e.node_id, e.job): e.finish for e in trace.entries()}
    out = {}
    for e in trace.entries():
        dag = ts.dag(e.dag_id)
        ready = e.job * dag.period
        for p in dag.node(e.node_id).parents:
            ready = max(ready, finish[(e.dag_id, p, e.job)])
        out[(e.dag_id, e.node_id, e.job)] = ready
    return out


def check_work_conserving(ts: TaskSet, trace: ScheduleMap) -> list[str]:
    """No core may idle while an eligible instance waits; returns violations."""
    ready = eligibility_times(ts, trace)
    busy = [sorted((e.start, e.finish) for e in lane) for lane in trace.cores]

    def covered(lane: list[tuple[int, int]], lo: int, hi: int) -> bool:
        t = lo
        for s, f in lane:
            if s > t:
                break
            if f > t:
                t = f
            if t >= hi:
                return True
        return t >= hi

    problems = []
    for e in trace.entries():
        t0 = ready[(e.dag_id, e.node_id, e.job)]
        if e.start > t0:
            for core, lane in enumerate(busy):
                if not covered(lane, t0, e.start):
                    problems.append(
                        f"dag {e.dag_id} node {e.node_id} job {e.job} waited "
                        f"[{t0},{e.start}) while core {core} was idle"
                    )
    return problems


def check_edf_dispatch(ts: TaskSet, trace: ScheduleMap) -> list[str]:
    """Dispatched instances must carry the earliest deadline among waiters."""
    return check_dispatch_order(ts, trace, lambda dag, node_id: dag.period)


def check_dispatch_order(ts: TaskSet, trace: ScheduleMap, offset) -> list[str]:
    """Dispatched instances must carry the least priority key among waiters.

    An instance's key is its job's release plus offset(dag, node id).
    """
    ready = eligibility_times(ts, trace)
    entries = list(trace.entries())

    def key(e):
        dag = ts.dag(e.dag_id)
        return e.job * dag.period + offset(dag, e.node_id)

    problems = []
    for x in entries:
        kx = key(x)
        for y in entries:
            if y.start > x.start and ready[(y.dag_id, y.node_id, y.job)] <= x.start:
                ky = key(y)
                if ky < kx:
                    problems.append(
                        f"at t={x.start} dispatched key-{kx} instance while "
                        f"key-{ky} instance dag {y.dag_id} node {y.node_id} "
                        f"job {y.job} was waiting"
                    )
    return problems
