from __future__ import annotations

import random
from dataclasses import fields
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dagsched.analysis import DagAnalysis, analyze_dag, prior_plus, rank
from dagsched.bench import GenConfig, generate_taskset
from dagsched.model import build_dag

import reference_analysis as ref
from reference_analysis import clusters, estimate_min_cores
from helpers import (
    analyzed_cp,
    brute_critical_path,
    brute_est,
    brute_lft,
    brute_prior_plus,
    diamond_dag,
    random_dag,
    single_node_dag,
    windows,
)


@st.composite
def feasible_dags(draw):
    n = draw(st.integers(1, 8))
    wcets = {i: draw(st.integers(1, 9)) for i in range(1, n + 1)}
    edges = []
    for i in range(1, n + 1):
        for j in range(i + 1, n + 1):
            if draw(st.booleans()):
                edges.append((i, j))
    # total work bounds every path weight, so the deadline is always feasible
    period = sum(wcets.values()) + draw(st.integers(0, 10))
    return build_dag(1, period, wcets, edges)


def test_prior_plus_examples(diamond):
    assert prior_plus(single_node_dag(wcet=2)) == {1: 2}
    assert prior_plus(diamond) == {1: 1, 2: 4, 3: 3, 4: 7}


def test_rank_diamond(diamond):
    assert rank(diamond, prior_plus(diamond)) == [4, 2, 3, 1]


def test_rank_independent_nodes():
    dag = build_dag(1, 10, {1: 3, 2: 1})
    assert rank(dag, prior_plus(dag)) == [1, 2]


def test_rank_tie_breaks():
    # nodes 1 (w4, no ancestors) and 3 (w3 behind w1) tie at prior+ 4;
    # the lighter one ranks first
    dag = build_dag(1, 10, {1: 4, 2: 1, 3: 3}, [(2, 3)])
    pp = prior_plus(dag)
    assert pp[1] == 4 == pp[3]
    order = rank(dag, pp)
    assert order.index(3) < order.index(1)
    # full tie (same prior+ and wcet) falls back to the smaller node id
    twins = build_dag(1, 10, {1: 2, 2: 2})
    assert rank(twins, prior_plus(twins)) == [1, 2]


def test_est_lft_examples(diamond, chain):
    assert windows(single_node_dag(period=5, wcet=2)) == {1: (0, 5)}
    assert windows(chain) == {1: (0, 8), 2: (2, 10)}
    assert windows(diamond) == {1: (0, 4), 2: (1, 7), 3: (1, 7), 4: (4, 8)}


def test_critical_path_examples(diamond):
    assert analyzed_cp(single_node_dag(wcet=2)) == ([1], 2)
    assert analyzed_cp(diamond) == ([1, 2, 4], 5)
    chain5 = build_dag(1, 100, {i: i for i in range(1, 6)}, [(i, i + 1) for i in range(1, 5)])
    assert analyzed_cp(chain5) == ([1, 2, 3, 4, 5], 15)


def test_critical_path_lex_smallest_on_tie():
    # two disjoint max-weight paths: 1->3 and 2->4, both weight 4
    dag = build_dag(1, 10, {1: 2, 2: 2, 3: 2, 4: 2}, [(1, 3), (2, 4)])
    assert analyzed_cp(dag) == ([1, 3], 4)


def test_clusters_diamond(diamond):
    got = clusters(diamond, windows(diamond), analyze_dag(diamond).cp_nodes)
    assert len(got) == 2
    cp = got[0]
    assert cp.is_cp and cp.members == frozenset({1, 2, 4})
    assert cp.density == Fraction(5, 8)
    rest = got[1]
    assert rest.members == frozenset({3})
    assert rest.density == Fraction(2, 6)
    assert estimate_min_cores(got) == 2


def test_clusters_single_node():
    dag = single_node_dag(period=5, wcet=2)
    got = clusters(dag, windows(dag), analyze_dag(dag).cp_nodes)
    assert len(got) == 1 and got[0].is_cp and got[0].density == Fraction(2, 5)
    assert estimate_min_cores(got) == 1


def test_clusters_two_parallel_nodes():
    dag = build_dag(1, 4, {1: 4, 2: 4})
    got = clusters(dag, windows(dag), analyze_dag(dag).cp_nodes)
    assert len(got) == 2
    assert all(c.density == Fraction(4, 4) for c in got)
    assert estimate_min_cores(got) == 2


def test_clusters_empty_dag():
    dag = build_dag(1, 5, {})
    assert clusters(dag, {}, []) == []


def test_clusters_reject_infeasible_window():
    # x(1)->y(9) plus z(1)->y: z alone in its EST cluster with lft -1
    dag = build_dag(1, 8, {1: 1, 2: 9, 3: 1}, [(1, 2), (3, 2)])
    with pytest.raises(ValueError, match="window"):
        clusters(dag, windows(dag), analyze_dag(dag).cp_nodes)


def test_analyze_dag_bundles_and_infeasible_flag(diamond):
    analysis = analyze_dag(diamond)
    assert analysis.feasible and analysis.min_cores == 2
    assert sorted(analysis.rank_pos, key=analysis.rank_pos.__getitem__) == [4, 2, 3, 1]
    assert analysis.rank_pos[4] == 0

    bad = build_dag(1, 8, {1: 4, 2: 5}, [(1, 2)])
    analysis = analyze_dag(bad)
    assert not analysis.feasible
    assert analysis.min_cores is None and ref.reference_analysis(bad)["clusters"] == ()


def test_oracle_equivalence_on_random_dags():
    rng = random.Random(2024)
    for _ in range(60):
        dag = random_dag(rng, max_nodes=10)
        pp = prior_plus(dag)
        levels = windows(dag)
        for nid in dag.node_ids:
            assert pp[nid] == brute_prior_plus(dag, nid)
            assert levels[nid] == (brute_est(dag, nid), brute_lft(dag, nid))
        assert analyzed_cp(dag) == tuple(brute_critical_path(dag))


@settings(max_examples=60, deadline=None)
@given(feasible_dags())
def test_structural_invariants(dag):
    pp = prior_plus(dag)
    order = rank(dag, pp)
    levels = windows(dag)
    pos = {nid: i for i, nid in enumerate(order)}

    assert sorted(order) == sorted(dag.node_ids)  # rank is a permutation

    total = dag.total_work
    for node in dag.nodes:
        assert node.wcet <= pp[node.node_id] <= total
        est, lft = levels[node.node_id]
        assert est + node.wcet <= lft  # feasible window
        for c in node.children:
            # edge monotonicity, hence reverse-topological rank order
            assert pp[c] >= pp[node.node_id] + dag.node(c).wcet
            assert pos[c] < pos[node.node_id]

    cp_nodes, cp_len = analyzed_cp(dag)
    assert cp_len == max(levels[n.node_id][0] + n.wcet for n in dag.nodes if not n.children)
    assert cp_len <= total

    cluster_list = clusters(dag, levels, cp_nodes)
    members = [m for c in cluster_list for m in c.members]
    assert sorted(members) == sorted(dag.node_ids)  # a partition
    assert sum(1 for c in cluster_list if c.is_cp) == 1
    for c in cluster_list:
        work = sum(dag.node(m).wcet for m in c.members)
        assert c.density == Fraction(work, c.lft_max - c.est_min)
    assert estimate_min_cores(cluster_list) >= 1


# --- equality with the reference analysis -------------------------------------


def assert_matches_reference(dag):
    want = ref.reference_analysis(dag)
    del want["clusters"]  # only min_cores is kept from them
    order = want.pop("rank_order")  # derived from rank_pos where it is needed
    got = analyze_dag(dag)
    assert {f.name: getattr(got, f.name) for f in fields(DagAnalysis)} == want
    assert tuple(sorted(got.rank_pos, key=got.rank_pos.__getitem__)) == order
    assert prior_plus(dag) == want["prior_plus"]
    assert windows(dag) == ref.est_lft(dag)
    assert analyzed_cp(dag) == ref.critical_path(dag)


# The replay benchmark's generator: five DAGs of 30-60 nodes per set.
REPLAY_CONFIG = dict(
    collections=128, dags_per_collection=5, edge_prob=0.15,
    nodes_per_dag=(30, 60), period_menu=(100, 200),
)


@pytest.mark.parametrize(
    "cfg",
    [GenConfig(seed=1, **REPLAY_CONFIG), GenConfig(seed=1009, **REPLAY_CONFIG), GenConfig()],
    ids=["replay-seed-1", "replay-seed-1009", "default-200-collections"],
)
def test_analysis_matches_reference_on_generated_sets(cfg):
    for c in range(cfg.collections):
        ts, _ = generate_taskset(cfg, c)
        for dag in ts.dags:
            assert_matches_reference(dag)


@st.composite
def any_dags(draw, max_wcet: int = 9):
    """DAGs of 0-8 nodes, node ids in any topological order, any period.

    Periods below the critical path make infeasible DAGs.
    """
    n = draw(st.integers(0, 8))
    label = draw(st.permutations(range(1, n + 1)))
    wcets = {label[i]: draw(st.integers(1, max_wcet)) for i in range(n)}
    edges = [(label[i], label[j]) for i in range(n) for j in range(i + 1, n) if draw(st.booleans())]
    period = draw(st.integers(1, sum(wcets.values()) + 10))
    return build_dag(1, period, wcets, edges)


@settings(max_examples=200, deadline=None)
@given(any_dags())
def test_analysis_matches_reference_on_any_dag(dag):
    assert_matches_reference(dag)


@settings(max_examples=100, deadline=None)
@given(any_dags(max_wcet=2**62))
def test_analysis_matches_reference_on_wide_wcets(dag):
    # up to 63 bit planes in prior_plus
    assert_matches_reference(dag)


@pytest.mark.parametrize(
    "dag",
    [
        build_dag(1, 5, {}),
        single_node_dag(period=5, wcet=2),
        single_node_dag(period=2, wcet=5),  # infeasible
        build_dag(1, 8, {1: 4, 2: 5}, [(1, 2)]),  # infeasible chain
        build_dag(1, 8, {1: 1, 2: 9, 3: 1}, [(1, 2), (3, 2)]),  # negative LFT
        build_dag(1, 2**63, {1: 2**62, 2: 2**62 - 1, 3: 3}, [(1, 3), (2, 3)]),
    ],
    ids=["empty", "single", "single-infeasible", "chain-infeasible", "negative-lft", "wide"],
)
def test_analysis_matches_reference_on_edge_cases(dag):
    assert_matches_reference(dag)
