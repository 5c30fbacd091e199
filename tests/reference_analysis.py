"""Reference per-DAG analysis: the straightforward implementation.

This is the earlier `analysis` module kept verbatim in its logic so the
tests can require equal results from the production version.  Prior-plus
walks every ancestor bit of the mask, the critical path comes from its own
longest-path pass over the DAG, and the core estimate builds one Cluster,
with an exact Fraction density, per group of nodes.  Do not optimize it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Mapping, Sequence

from dagsched.model import DagSpec


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


def prior_plus(dag: DagSpec) -> dict[int, int]:
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
    return sorted(pp, key=lambda nid: (-pp[nid], dag.node(nid).wcet, nid))


def est_lft(dag: DagSpec) -> dict[int, tuple[int, int]]:
    order = dag.topo_order
    est: dict[int, int] = {}
    for nid in order:
        est[nid] = max((est[p] + dag.node(p).wcet for p in dag.node(nid).parents), default=0)
    lft: dict[int, int] = {}
    for nid in reversed(order):
        lft[nid] = min(
            (lft[c] - dag.node(c).wcet for c in dag.node(nid).children), default=dag.deadline
        )
    return {nid: (est[nid], lft[nid]) for nid in order}


def critical_path(dag: DagSpec) -> tuple[list[int], int]:
    """A maximum-weight path, ties toward the smallest node-id sequence."""
    if not dag.nodes:
        return [], 0
    tail: dict[int, int] = {}  # heaviest path starting at each node
    for nid in reversed(dag.topo_order):
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
    """Sum of per-cluster density ceilings, at least 1."""
    return max(1, sum(math.ceil(c.density) for c in cluster_list))


def reference_analysis(dag: DagSpec) -> dict:
    """Every DagAnalysis field by name, plus the ranking and the clusters behind min_cores."""
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
    return {
        "prior_plus": pp,
        "est": {nid: e for nid, (e, _) in levels.items()},
        "lft": {nid: f for nid, (_, f) in levels.items()},
        "rank_pos": {nid: i for i, nid in enumerate(order)},
        "rank_order": tuple(order),
        "cp_nodes": tuple(cp_nodes),
        "clusters": cluster_list,
        "min_cores": min_cores,
        "feasible": feasible,
    }
