from __future__ import annotations

import hashlib
import random

import pytest

from dagsched import analysis, scheduler
from dagsched.analysis import analyze_dag, prior_plus
from dagsched.bench import GenConfig, generate_taskset
from dagsched.model import TaskSet, build_dag, dumps_schedule, validate_schedule
from dagsched.scheduler import (
    DagInfeasibleError,
    Placement,
    compact,
    extend,
    primary_schedule,
    schedule_taskset,
    stack_extended_schedules,
)

from helpers import (
    chain_dag,
    copy_lanes,
    diamond_dag,
    entry_multiset,
    lanes_layout,
    random_dag,
    single_node_dag,
)
from reference_compact import reference_compact


def by_node(lanes):
    return lanes_layout(lanes)


def assert_ranked(lanes, ts: TaskSet) -> None:
    # a placement's rank is its node's prior-plus plus job times total work
    for lane in lanes:
        for p in lane:
            dag = ts.dag(p.dag_id)
            assert p.rank == prior_plus(dag)[p.node_id] + p.job * dag.total_work, p


def assert_windowed(lanes, ts: TaskSet) -> None:
    # a placement's static window is its release plus the node's earliest
    # start and latest finish from the analysis
    for lane in lanes:
        for p in lane:
            dag = ts.dag(p.dag_id)
            a = analysis.analyze_dag(dag)
            release = p.job * dag.period
            assert (p.lo, p.hi) == (release + a.est[p.node_id], release + a.lft[p.node_id]), p


DIAMOND_PRIMARY = [
    [(1, 1, 0, 3, 4), (1, 2, 0, 4, 7), (1, 4, 0, 7, 8)],
    [(1, 3, 0, 5, 7)],
]
DIAMOND_COMPACT = [[(1, 1, 0, 0, 1), (1, 3, 0, 1, 3), (1, 2, 0, 4, 7), (1, 4, 0, 7, 8)]]


# --- dynamic windows ---------------------------------------------------------


def test_dynamic_lft_examples(diamond):
    # every diamond node finishes at its latest finish: the deadline for an
    # exit node, else the earliest start of its placed children
    at = {p.node_id: p for lane in primary_schedule(diamond, analyze_dag(diamond)) for p in lane}
    assert at[4].finish == 8  # exit node
    assert at[2].finish == at[4].start == 7  # child placed at [7,8)
    assert at[1].finish == min(at[2].start, at[3].start) == 4  # min(4, 5)


# --- primary scheduling ------------------------------------------------------


def test_primary_single_node_stretches_to_deadline():
    dag = single_node_dag(period=5, wcet=2)
    lanes = primary_schedule(dag, analyze_dag(dag))
    assert by_node(lanes) == [[(1, 1, 0, 3, 5)]]


def test_primary_chain(chain):
    lanes = primary_schedule(chain, analyze_dag(chain))
    assert by_node(lanes) == [[(1, 1, 0, 6, 8), (1, 2, 0, 8, 10)]]


def test_primary_diamond_two_cores(diamond, diamond_ts):
    lanes = primary_schedule(diamond, analyze_dag(diamond))
    assert by_node(lanes) == DIAMOND_PRIMARY
    assert_ranked(lanes, diamond_ts)


def test_primary_sets_static_windows(diamond, diamond_ts):
    # est 0, 1, 1, 4 and lft 4, 7, 7, 8 for s, a, b, t
    lanes = primary_schedule(diamond, analyze_dag(diamond))
    windows = {p.node_id: (p.lo, p.hi) for lane in lanes for p in lane}
    assert windows == {1: (0, 4), 2: (1, 7), 3: (1, 7), 4: (4, 8)}
    assert_windowed(lanes, diamond_ts)


def test_primary_empty_dag():
    dag = build_dag(1, 5, {})
    assert primary_schedule(dag, analyze_dag(dag)) == []


def test_primary_infeasible_chain_raises():
    dag = build_dag(1, 8, {1: 4, 2: 5}, [(1, 2)])
    with pytest.raises(DagInfeasibleError) as err:
        primary_schedule(dag, analyze_dag(dag))
    assert err.value.dag_id == 1


def test_primary_raises_iff_the_analysis_finds_the_dag_infeasible():
    # the one infeasibility signal: primary_schedule raises iff the critical
    # path exceeds the deadline, naming the first such exit node in rank order
    rng = random.Random(3232)
    raised = 0
    for _ in range(400):
        n = rng.randint(0, 9)  # node-less and one-node DAGs included
        wcets = {i: rng.randint(1, 9) for i in range(1, n + 1)}
        edges = [(i, j) for i in range(1, n + 1) for j in range(i + 1, n + 1)
                 if rng.random() < 0.4]
        dag = build_dag(1, rng.randint(1, max(1, sum(wcets.values()))), wcets, edges)
        an = analyze_dag(dag)
        late = [nid for nid in dag.node_ids if not dag.node(nid).children
                and an.est[nid] + dag.node(nid).wcet > dag.deadline]
        try:
            primary_schedule(dag, an)
        except DagInfeasibleError as err:
            raised += 1
            assert not an.feasible
            assert (err.dag_id, err.node_id) == (1, min(late, key=an.rank_pos.__getitem__))
        else:
            assert an.feasible and not late
    assert 100 < raised < 300


def test_primary_precedence_by_construction():
    # every edge is satisfied on the raw primary map, before any validation
    rng = random.Random(11)
    for _ in range(40):
        dag = random_dag(rng, max_nodes=10)
        lanes = primary_schedule(dag, analyze_dag(dag))
        assert_ranked(lanes, TaskSet.build([dag]))
        assert_windowed(lanes, TaskSet.build([dag]))
        pos = {p.node_id: p for lane in lanes for p in lane}
        assert sorted(pos) == sorted(dag.node_ids)
        for node in dag.nodes:
            for c in node.children:
                assert pos[node.node_id].finish <= pos[c].start
        # non-overlap per core and window containment
        for lane in lanes:
            for a, b in zip(lane, lane[1:]):
                assert a.finish <= b.start
            for p in lane:
                assert 0 <= p.start and p.finish <= dag.deadline


def test_primary_stretching_invariant():
    # the first node placed on a core (the latest-starting one) finishes at
    # the deadline whenever it is an exit node; reserved cores can stay empty
    rng = random.Random(13)
    for _ in range(40):
        dag = random_dag(rng, max_nodes=10)
        for lane in primary_schedule(dag, analyze_dag(dag)):
            if not lane:
                continue
            latest = max(lane, key=lambda p: p.start)
            if not dag.node(latest.node_id).children:
                assert latest.finish == dag.deadline


def test_primary_trace_is_bottom_up(diamond):
    trace: list[str] = []
    primary_schedule(diamond, analyze_dag(diamond), trace=trace)
    order = [int(line.split("node ")[1].split(" ")[0]) for line in trace]
    assert order == [4, 2, 3, 1]  # rank order, children always before parents


# --- compaction --------------------------------------------------------------


def test_compact_diamond_to_one_core(diamond, diamond_ts):
    lanes = primary_schedule(diamond, analyze_dag(diamond))
    got = compact(lanes, diamond_ts)
    assert by_node(got) == DIAMOND_COMPACT


def test_compact_is_idempotent_on_diamond(diamond, diamond_ts):
    once = compact(primary_schedule(diamond, analyze_dag(diamond)), diamond_ts)
    layout = by_node(once)
    assert by_node(compact(once, diamond_ts)) == layout


def test_compact_fully_packed_core_is_fixpoint():
    dag = build_dag(1, 6, {1: 2, 2: 2, 3: 2}, [(1, 2), (2, 3)])
    ts = TaskSet.build([dag])
    lanes = primary_schedule(dag, analyze_dag(dag))
    layout = by_node(lanes)
    assert layout == [[(1, 1, 0, 0, 2), (1, 2, 0, 2, 4), (1, 3, 0, 4, 6)]]
    assert by_node(compact(lanes, ts)) == layout


def test_compact_moves_the_placements_it_is_given(diamond, diamond_ts):
    # compact returns the caller's own placements, moved, and copies only
    # the lane lists.  The global pass over default collection 5 rolls
    # back the loosened trial and keeps one restretch trial, so restore
    # runs on the caller's placements too.
    ts, _ = generate_taskset(GenConfig(), 5)
    for lanes, tset in ((primary_schedule(diamond, analyze_dag(diamond)), diamond_ts),
                        (stack_extended_schedules(ts), ts)):
        before = copy_lanes(lanes)
        members = [[id(p) for p in lane] for lane in lanes]
        got = compact(lanes, tset)
        assert len(got) < len(lanes)
        assert sorted(id(p) for lane in got for p in lane) == sorted(sum(members, []))
        assert [[id(p) for p in lane] for lane in lanes] == members
        assert by_node(got) == by_node(reference_compact(before, tset))


def test_compact_returns_plain_placements_without_links(diamond, diamond_ts):
    # the placements come back as the type compact's signature names, with
    # the links to their parent and child placements cleared
    ts, _ = generate_taskset(GenConfig(), 5)
    for lanes, tset in ((primary_schedule(diamond, analyze_dag(diamond)), diamond_ts),
                        (stack_extended_schedules(ts), ts)):
        for lane in compact(lanes, tset):
            for p in lane:
                assert type(p) is Placement
                assert p.ups is None and p.downs is None


def test_compact_preserves_entries_and_core_count(diamond_ts):
    rng = random.Random(21)
    for _ in range(25):
        dag = random_dag(rng, max_nodes=9)
        ts = TaskSet.build([dag])
        lanes = primary_schedule(dag, analyze_dag(dag))
        got = compact(lanes, ts)
        assert len(got) <= len([lane for lane in lanes if lane])
        assert entry_multiset(got) == entry_multiset(lanes)


# --- extension ---------------------------------------------------------------


def test_extend_shifts_copies():
    dag = single_node_dag(period=5, wcet=2)
    lanes = primary_schedule(dag, analyze_dag(dag))
    got = extend(lanes, dag, 15)
    assert by_node(got) == [[(1, 1, 0, 3, 5), (1, 1, 1, 8, 10), (1, 1, 2, 13, 15)]]
    assert_ranked(got, TaskSet.build([dag]))
    assert [(p.lo, p.hi) for p in got[0]] == [(0, 5), (5, 10), (10, 15)]


def test_extend_shifts_static_windows(diamond):
    # copy k's window is copy 0's shifted by k periods, for every node
    ts = TaskSet.build([diamond, build_dag(2, 24, {1: 1})])
    one_period = primary_schedule(diamond, analyze_dag(diamond))
    got = extend(one_period, diamond, ts.hyperperiod)
    base = {p.node_id: (p.lo, p.hi) for lane in one_period for p in lane}
    for lane in got:
        for p in lane:
            lo, hi = base[p.node_id]
            assert (p.lo, p.hi) == (lo + 8 * p.job, hi + 8 * p.job), p
    assert {p.job for lane in got for p in lane} == {0, 1, 2}
    assert_windowed(got, ts)


def test_extend_single_copy_when_period_equals_horizon():
    dag = single_node_dag(period=20, wcet=2)
    got = extend(primary_schedule(dag, analyze_dag(dag)), dag, 20)
    assert [len(lane) for lane in got] == [1]
    assert got[0][0].job == 0


def test_extend_rejects_non_multiple_horizon():
    dag = single_node_dag(period=6, wcet=1)
    with pytest.raises(ValueError, match="multiple"):
        extend(primary_schedule(dag, analyze_dag(dag)), dag, 15)


# --- whole-task-set pipeline --------------------------------------------------


def test_schedule_single_node_taskset():
    ts = TaskSet.build([single_node_dag(period=5, wcet=2)])
    mp = schedule_taskset(ts)
    assert mp.num_cores == 1
    assert validate_schedule(mp, ts).ok


def test_schedule_diamond_compacts_to_one_core(diamond_ts):
    mp = schedule_taskset(diamond_ts)
    assert mp.num_cores == 1
    assert validate_schedule(mp, ts=diamond_ts).ok


def test_schedule_infeasible_dag():
    ts = TaskSet.build([build_dag(1, 8, {1: 4, 2: 5}, [(1, 2)])])
    with pytest.raises(DagInfeasibleError) as err:
        schedule_taskset(ts)
    assert (err.value.dag_id, err.value.node_id) == (1, 2)


def test_schedule_not_enough_cores():
    ts = TaskSet.build([build_dag(1, 4, {1: 4, 2: 4})])  # two parallel heavy nodes
    # each node fills the period, so the map needs a core per node
    assert schedule_taskset(ts).num_cores == 2


def test_schedule_empty_taskset():
    assert schedule_taskset(TaskSet.build([])).num_cores == 0


def test_schedule_two_periods_interleave():
    ts = TaskSet.build(
        [
            build_dag(1, 20, {1: 4, 2: 6}, [(1, 2)]),
            build_dag(2, 10, {1: 3}),
        ]
    )
    mp = schedule_taskset(ts)
    assert mp.num_cores <= 2
    assert validate_schedule(mp, ts).ok
    jobs = sorted((e.dag_id, e.node_id, e.job) for e in mp.entries())
    assert jobs == [(1, 1, 0), (1, 2, 0), (2, 1, 0), (2, 1, 1)]


def test_schedule_determinism():
    rng = random.Random(31)
    dags = [random_dag(rng, dag_id=i, max_nodes=8) for i in range(1, 4)]
    ts = TaskSet.build(dags)
    assert dumps_schedule(schedule_taskset(ts)) == dumps_schedule(schedule_taskset(ts))


def test_stacked_blocks_cover_each_dag_once():
    ts = TaskSet.build(
        [
            build_dag(1, 10, {1: 2, 2: 2}, [(1, 2)]),
            build_dag(2, 5, {1: 1}),
        ]
    )
    lanes = stack_extended_schedules(ts)
    assert_ranked(lanes, ts)
    assert_windowed(lanes, ts)
    counts: dict[tuple[int, int, int], int] = {}
    for lane in lanes:
        for p in lane:
            counts[(p.dag_id, p.node_id, p.job)] = counts.get((p.dag_id, p.node_id, p.job), 0) + 1
    assert all(v == 1 for v in counts.values())
    assert sorted(counts) == [(1, 1, 0), (1, 2, 0), (2, 1, 0), (2, 1, 1)]


def test_extension_count_invariant():
    # every scheduled dag contributes node_count * (hyperperiod / period) entries
    rng = random.Random(41)
    for _ in range(10):
        dags = [random_dag(rng, dag_id=i, max_nodes=6) for i in range(1, 4)]
        periods = {1: 6, 2: 12, 3: 24}
        dags = [
            build_dag(d.dag_id, periods[d.dag_id] * max(1, -(-d.cp_length // periods[d.dag_id])),
                      {n.node_id: n.wcet for n in d.nodes},
                      [(n.node_id, c) for n in d.nodes for c in n.children])
            for d in dags
        ]
        ts = TaskSet.build(dags)
        per_dag: dict[int, int] = {}
        for e in schedule_taskset(ts).entries():
            per_dag[e.dag_id] = per_dag.get(e.dag_id, 0) + 1
        for dag in ts.dags:
            expected = len(dag.nodes) * (ts.hyperperiod // dag.period)
            assert per_dag.get(dag.dag_id, 0) == expected


def test_one_prior_plus_per_dag(monkeypatch):
    # each DAG's prior-plus comes from its one analysis; compaction reads
    # the ranks its placements carry and computes none of its own
    ts, _ = generate_taskset(GenConfig(seed=1), 0)
    ts = TaskSet.build([*ts.dags, build_dag(len(ts.dags) + 1, 10, {})])
    calls: list[int] = []
    real = analysis.prior_plus

    def counted(dag):
        calls.append(dag.dag_id)
        return real(dag)

    def forbidden(dag):
        raise AssertionError(f"scheduler.prior_plus called on dag {dag.dag_id}")

    monkeypatch.setattr(analysis, "prior_plus", counted)
    monkeypatch.setattr(scheduler, "prior_plus", forbidden)
    schedule_taskset(ts)
    assert sorted(calls) == [d.dag_id for d in ts.dags if d.nodes]


def test_zero_node_dag_contributes_nothing():
    ts = TaskSet.build([build_dag(1, 5, {}), build_dag(2, 5, {1: 2})])
    mp = schedule_taskset(ts)
    assert mp.num_cores == 1
    assert all(e.dag_id == 2 for e in mp.entries())


def test_huge_period_single_node():
    ts = TaskSet.build([build_dag(1, 2**62, {1: 5})])
    mp = schedule_taskset(ts)
    assert mp.num_cores == 1
    entry = next(iter(mp.entries()))
    assert entry.finish - entry.start == 5
    assert validate_schedule(mp, ts).ok


@pytest.mark.parametrize(
    "cfg,collections,cores,digest",
    [
        (GenConfig(seed=1), 200, 1032,
         "09ba3661d138ad74b788329a1ecd1f458f1cf9639bf561b7d9536e821380b99a"),
        (GenConfig(seed=1009), 200, 1067,
         "c293e78e39090334d4f6f4f242145802171d3f5ffa79aff879bb19ec9a94a7e0"),
        (GenConfig(collections=1, dags_per_collection=5, seed=3), 1, 5,
         "6c3c10a08bcfedda8eff97cfd7c701498eb153db51cfa372f2e511710f3439e2"),
        (GenConfig(collections=1, dags_per_collection=10, seed=3), 1, 10,
         "d1909186bc8cf34af098444a44049f2a4b0940eb72cd84e8ef48b99676422acd"),
        (GenConfig(collections=1, dags_per_collection=20, seed=3), 1, 18,
         "cc02ef251b9185debc10bd49149ef40e5dc673ef684f0c55a059c72a8ca502c2"),
        (GenConfig(collections=1, dags_per_collection=40, seed=3), 1, 32,
         "6b255815c565e75931a560774e62658f31b2b431092925a1f027fe386de81893"),
        (GenConfig(collections=4, period_menu=(40, 50, 100, 400), seed=1), 4, 19,
         "d07aba0047f1b49cb6fa356ccac33e076063289797b332f61ace4ea50c5671af"),
        (GenConfig(collections=4, period_menu=(40, 50, 100, 800), seed=1), 4, 19,
         "805b7239a2e7949f4c470354107255ba88824cde0589a5bbb546d198e2740b07"),
        (GenConfig(collections=4, period_menu=(40, 50, 100, 1600), seed=1), 4, 19,
         "1cef2e6cc3a2596ad81113e83e995507dab45e640c3a14b27cbf38a171626466"),
    ],
    ids=["seed-1", "seed-1009", "ladder-5", "ladder-10", "ladder-20", "ladder-40",
         "hyperperiod-400", "hyperperiod-800", "hyperperiod-1600"],
)
def test_schedule_documents_are_pinned(cfg, collections, cores, digest):
    # The schedule documents the pipeline writes: the core total over the
    # collections, and the sha256 of their documents concatenated in
    # collection order.  A change to placement or compaction that means to
    # keep every output must keep both.
    h = hashlib.sha256()
    total = 0
    for c in range(collections):
        mp = schedule_taskset(generate_taskset(cfg, c)[0])
        total += mp.num_cores
        h.update(dumps_schedule(mp).encode())
    assert (total, h.hexdigest()) == (cores, digest)
