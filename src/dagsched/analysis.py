"""Per-DAG graph analysis feeding the scheduler.

Computes each node's prior-plus load (its own execution time plus that of
every ancestor, each counted once), the priority ranking derived from it,
earliest start / latest finish windows under the implicit deadline, the
critical path, and the density-based estimate of how many cores a DAG needs.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Sequence

from .model import DagSpec


@dataclass(frozen=True)
class DagAnalysis:
    """Bundle of every per-DAG analysis result; every field is stored.

    prior_plus, est, lft and rank_pos map each node id to its prior-plus
    load, earliest start (from the DAG's est), latest finish and position
    in the ranking (0 = highest priority); the ranking itself is the node
    ids sorted by rank_pos, derived where it is needed.  min_cores is only
    set when the DAG is feasible (critical path fits in the deadline); an
    infeasible DAG cannot be scheduled on any number of cores, so no core
    estimate exists for it.
    """

    prior_plus: dict[int, int]
    est: dict[int, int]
    lft: dict[int, int]
    rank_pos: dict[int, int]
    cp_nodes: tuple[int, ...]
    min_cores: int | None
    feasible: bool


def prior_plus(dag: DagSpec) -> dict[int, int]:
    """Each node's wcet plus the wcets of all its ancestors, counted once.

    Ancestor sets are bitmasks over topological positions, so shared
    ancestors of different parents are not double counted.  Plane b holds
    the positions whose wcet has bit b set; an ancestor set's total wcet is
    then the sum over b of popcount(mask & plane b) << b.
    """
    nodes = [dag.node(nid) for nid in dag.topo_order]
    planes = [0] * max((n.wcet for n in nodes), default=0).bit_length()
    for i, node in enumerate(nodes):
        bit, w = 1 << i, node.wcet
        for b in range(w.bit_length()):
            if w >> b & 1:
                planes[b] |= bit
    reach: dict[int, int] = {}  # node id -> mask of itself and its ancestors
    result: dict[int, int] = {}
    for i, node in enumerate(nodes):
        mask = 0
        for p in node.parents:
            mask |= reach[p]
        load = node.wcet
        if mask:
            for b, plane in enumerate(planes):
                load += (mask & plane).bit_count() << b
        reach[node.node_id] = mask | 1 << i
        result[node.node_id] = load
    return result


def rank(dag: DagSpec, pp: Mapping[int, int]) -> list[int]:
    """Node ids in descending priority.

    Higher prior-plus load ranks first; equal loads break toward the
    smaller execution time, then the smaller node id (a deterministic
    stand-in for an arbitrary tie-break).
    """
    return sorted(pp, key=lambda nid: (-pp[nid], dag.node(nid).wcet, nid))


def _latest_finish(dag: DagSpec) -> dict[int, int]:
    """Each node's latest finish: its slowest child chain still meets the deadline.

    Earliest starts need no pass here: build_dag keeps them as DagSpec.est.
    """
    deadline = dag.deadline
    lft: dict[int, int] = {}
    lst: dict[int, int] = {}  # latest start: lft - wcet
    for nid in reversed(dag.topo_order):
        node = dag.node(nid)
        finish = deadline
        for c in node.children:
            if lst[c] < finish:
                finish = lst[c]
        lft[nid] = finish
        lst[nid] = finish - node.wcet
    return lft


def _heaviest_path(dag: DagSpec, lft: Mapping[int, int]) -> list[int]:
    """The lexicographically smallest path of weight dag.cp_length.

    A node's latest start is the deadline minus the heaviest path starting
    at it.  So the path begins at a node whose latest start is
    deadline - cp_length (an entry: a parent would start a heavier path)
    and goes on through a child whose latest start is the current node's
    latest finish.  Nodes and children are sorted by id, so the first match
    is the smallest.
    """
    path: list[int] = []
    target = dag.deadline - dag.cp_length
    candidates = dag.nodes
    while True:
        cur = next((n for n in candidates if lft[n.node_id] - n.wcet == target), None)
        if cur is None:
            return path
        path.append(cur.node_id)
        target = lft[cur.node_id]
        candidates = map(dag.node, cur.children)


def _min_cores(
    dag: DagSpec, est: Mapping[int, int], lft: Mapping[int, int], cp_nodes: Sequence[int]
) -> int:
    """Starting core allocation for one feasible DAG.

    The critical path is one group and the other nodes are grouped by equal
    EST.  Each group needs ceil(work / window) cores, its window running
    from its smallest EST to its largest LFT.  The critical path runs from
    an entry (EST 0) to an exit (LFT = deadline) and its work, cp_length,
    fits in the deadline, so it needs one core.  This is only an estimate;
    the scheduler adds cores beyond it when the placement needs them and
    compaction reclaims any excess.
    """
    on_cp = set(cp_nodes)
    work: dict[int, int] = {}
    end: dict[int, int] = {}
    for node in dag.nodes:
        nid = node.node_id
        if nid not in on_cp:
            e, f = est[nid], lft[nid]
            work[e] = work.get(e, 0) + node.wcet
            if f > end.get(e, e):
                end[e] = f
    return 1 + sum(-(-w // (end[e] - e)) for e, w in work.items())


def analyze_dag(dag: DagSpec) -> DagAnalysis:
    """Run the full per-DAG analysis pipeline."""
    pp = prior_plus(dag)
    est, lft = dict(zip(dag.node_ids, dag.est)), _latest_finish(dag)
    cp_nodes = _heaviest_path(dag, lft)
    feasible = dag.cp_length <= dag.deadline
    return DagAnalysis(
        prior_plus=pp,
        est=est,
        lft=lft,
        rank_pos={nid: i for i, nid in enumerate(rank(dag, pp))},
        cp_nodes=tuple(cp_nodes),
        min_cores=_min_cores(dag, est, lft, cp_nodes) if feasible and dag.nodes else None,
        feasible=feasible,
    )
