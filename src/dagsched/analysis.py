"""Per-DAG graph analysis feeding the scheduler.

Computes each node's prior-plus load (its own execution time plus that of
every ancestor, each counted once), the priority ranking derived from it,
earliest start / latest finish windows under the implicit deadline, the
critical path, EST clusters, and the density-based estimate of how many
cores a DAG needs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Mapping, Sequence

from .model import DagSpec


@dataclass(frozen=True)
class Cluster:
    """A group of nodes competing for the same stretch of the period.

    density is the exact ratio of the members' total work to the wall-clock
    window available to them (max LFT minus min EST over the members).
    """

    members: frozenset[int]
    is_cp: bool
    density: Fraction
    est_min: int
    lft_max: int


@dataclass(frozen=True)
class DagAnalysis:
    """Bundle of every per-DAG analysis result.

    prior_plus, est, lft and rank_pos map each node id to its prior-plus
    load, earliest start, latest finish and position in rank_order (0 =
    highest priority).  clusters and min_cores are only populated when the
    DAG is feasible (critical path fits in the deadline); an infeasible DAG
    cannot be scheduled on any number of cores, so no core estimate exists
    for it.
    """

    prior_plus: dict[int, int]
    est: dict[int, int]
    lft: dict[int, int]
    rank_pos: dict[int, int]
    rank_order: tuple[int, ...]
    cp_nodes: tuple[int, ...]
    clusters: tuple[Cluster, ...]
    min_cores: int | None
    feasible: bool


def prior_plus(dag: DagSpec) -> dict[int, int]:
    """Each node's wcet plus the wcets of all its ancestors, counted once.

    Ancestor sets are carried as bitmasks over node positions so shared
    ancestors of different parents are not double counted.
    """
    idx = {n.node_id: i for i, n in enumerate(dag.nodes)}
    wcet_by_idx = [n.wcet for n in dag.nodes]
    ancestors: dict[int, int] = {}
    result: dict[int, int] = {}
    for nid in dag.topo_order:
        mask = 0
        for p in dag.node(nid).parents:
            mask |= ancestors[p] | (1 << idx[p])
        ancestors[nid] = mask
        load = dag.node(nid).wcet
        while mask:
            low = mask & -mask
            load += wcet_by_idx[low.bit_length() - 1]
            mask ^= low
        result[nid] = load
    return result


def rank(dag: DagSpec, pp: Mapping[int, int]) -> list[int]:
    """Node ids in descending priority.

    Higher prior-plus load ranks first; equal loads break toward the
    smaller execution time, then the smaller node id (a deterministic
    stand-in for an arbitrary tie-break).
    """
    return sorted(pp, key=lambda nid: (-pp[nid], dag.node(nid).wcet, nid))


def est_lft(dag: DagSpec) -> dict[int, tuple[int, int]]:
    """Earliest start and latest finish of every node within one period.

    Forward pass: a node may start once its slowest parent chain is done.
    Backward pass: it must finish early enough for its slowest child chain
    to still meet the deadline.
    """
    order = dag.topo_order
    nodes = [dag.node(nid) for nid in order]
    est: dict[int, int] = {}
    eft: dict[int, int] = {}  # earliest finish: est + wcet
    for node in nodes:
        start = 0
        for p in node.parents:
            if eft[p] > start:
                start = eft[p]
        est[node.node_id] = start
        eft[node.node_id] = start + node.wcet
    lft: dict[int, int] = {}
    lst: dict[int, int] = {}  # latest start: lft - wcet
    for node in reversed(nodes):
        finish = dag.deadline
        for c in node.children:
            if lst[c] < finish:
                finish = lst[c]
        lft[node.node_id] = finish
        lst[node.node_id] = finish - node.wcet
    return {nid: (est[nid], lft[nid]) for nid in order}


def critical_path(dag: DagSpec) -> tuple[list[int], int]:
    """A maximum-weight directed path and its weight.

    Ties break toward the lexicographically smallest node-id sequence.
    """
    if not dag.nodes:
        return [], 0
    order = dag.topo_order
    # Heaviest path starting at each node.
    tail: dict[int, int] = {}
    for nid in reversed(order):
        node = dag.node(nid)
        tail[nid] = node.wcet + max((tail[c] for c in node.children), default=0)
    total = max(tail[nid] for nid in dag.entry_ids)
    path = [min(nid for nid in dag.entry_ids if tail[nid] == total)]
    while dag.node(path[-1]).children:
        cur = path[-1]
        want = tail[cur] - dag.node(cur).wcet
        path.append(min(c for c in dag.node(cur).children if tail[c] == want))
    return path, total


def clusters(
    dag: DagSpec,
    levels: Mapping[int, tuple[int, int]],
    cp_nodes: Sequence[int],
) -> list[Cluster]:
    """Partition the nodes: the critical path apart, the rest by equal EST.

    levels maps node id -> (est, lft) as computed by est_lft.  Raises
    ValueError when a cluster's window is not positive, which can only
    happen for an infeasible DAG.
    """
    if not dag.nodes:
        return []

    def make(members: frozenset[int], is_cp: bool) -> Cluster:
        est_min = min(levels[m][0] for m in members)
        lft_max = max(levels[m][1] for m in members)
        window = lft_max - est_min
        if window <= 0:
            raise ValueError(
                f"dag {dag.dag_id}: cluster {sorted(members)} has non-positive "
                f"window {window}; the DAG cannot meet its deadline"
            )
        work = sum(dag.node(m).wcet for m in members)
        return Cluster(
            members=members,
            is_cp=is_cp,
            density=Fraction(work, window),
            est_min=est_min,
            lft_max=lft_max,
        )

    out = [make(frozenset(cp_nodes), True)]
    rest = [nid for nid in dag.node_ids if nid not in out[0].members]
    by_est: dict[int, list[int]] = {}
    for nid in rest:
        by_est.setdefault(levels[nid][0], []).append(nid)
    for est in sorted(by_est):
        out.append(make(frozenset(by_est[est]), False))
    return out


def estimate_min_cores(cluster_list: Sequence[Cluster]) -> int:
    """Starting core allocation for one DAG: sum of per-cluster density ceilings.

    This is only an estimate; the scheduler adds cores beyond it when the
    placement needs them and compaction reclaims any excess.
    """
    return max(1, sum(math.ceil(c.density) for c in cluster_list))


def analyze_dag(dag: DagSpec) -> DagAnalysis:
    """Run the full per-DAG analysis pipeline."""
    pp = prior_plus(dag)
    order = rank(dag, pp)
    levels = est_lft(dag)
    cp_nodes, _ = critical_path(dag)
    feasible = dag.cp_length <= dag.deadline
    cluster_list: tuple[Cluster, ...] = ()
    min_cores = None
    if feasible and dag.nodes:
        cluster_list = tuple(clusters(dag, levels, cp_nodes))
        min_cores = estimate_min_cores(cluster_list)
    return DagAnalysis(
        prior_plus=pp,
        est={nid: e for nid, (e, _) in levels.items()},
        lft={nid: f for nid, (_, f) in levels.items()},
        rank_pos={nid: i for i, nid in enumerate(order)},
        rank_order=tuple(order),
        cp_nodes=tuple(cp_nodes),
        clusters=cluster_list,
        min_cores=min_cores,
        feasible=feasible,
    )
