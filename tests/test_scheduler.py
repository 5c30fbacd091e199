from __future__ import annotations

import hashlib
import random

import pytest

from dagsched import analysis, scheduler
from dagsched.analysis import analyze_dag, prior_plus
from dagsched.bench import GenConfig, generate_taskset
from dagsched.baseline import list_schedule
from dagsched.model import ScheduleMap, TaskSet, build_dag, dumps_schedule, validate_schedule
from dagsched.scheduler import (
    DagInfeasibleError,
    Placement,
    analyze_taskset,
    compact,
    extend,
    pipeline_schedule,
    primary_schedule,
    schedule_taskset,
    stack_extended_schedules,
    table_schedule,
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
                        (stack_extended_schedules(ts, analyze_taskset(ts)), ts)):
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
                        (stack_extended_schedules(ts, analyze_taskset(ts)), ts)):
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
    # no work: the table runs on one core, uses none, and the map is the
    # empty map on no cores, with or without node-less DAGs
    for ts in (TaskSet.build([]), TaskSet.build([build_dag(1, 5, {}), build_dag(2, 7, {})])):
        assert schedule_taskset(ts) == ScheduleMap(num_cores=0, cores=())


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
    lanes = stack_extended_schedules(ts, analyze_taskset(ts))
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


# --- candidate choice: the list-scheduled table or the pipeline ---------------


def core_bound(ts: TaskSet) -> int:
    """ceil(total utilization), in integers."""
    busy = sum(d.total_work * (ts.hyperperiod // d.period) for d in ts.dags)
    return -(-busy // ts.hyperperiod)


def scheduled_with_pipeline_count(ts: TaskSet, monkeypatch) -> tuple[ScheduleMap, int]:
    runs = []
    real = scheduler.pipeline_schedule

    def counted(*args, **kwargs):
        runs.append(1)
        return real(*args, **kwargs)

    with monkeypatch.context() as mp:
        mp.setattr(scheduler, "pipeline_schedule", counted)
        got = schedule_taskset(ts)
    return got, len(runs)


def test_the_table_is_the_map_iff_it_meets_the_bound(monkeypatch):
    # A table at the bound is returned and the pipeline never runs.
    # Otherwise the pipeline runs and the map with fewer cores wins, ties
    # going to the pipeline.  Every map validates.
    small = GenConfig(collections=60, dags_per_collection=3, nodes_per_dag=(1, 6),
                      wcet_range=(1, 5), period_menu=(6, 12, 24), seed=33)
    sets = [generate_taskset(GenConfig(seed=0), c)[0] for c in range(40)]
    sets += [generate_taskset(small, c)[0] for c in range(small.collections)]
    outcomes = set()
    for ts in sets:
        got, runs = scheduled_with_pipeline_count(ts, monkeypatch)
        assert validate_schedule(got, ts).ok
        bound = core_bound(ts)
        analyses = analyze_taskset(ts)
        table = table_schedule(ts, analyses, bound)
        if table is not None:
            assert validate_schedule(table, ts).ok
            assert table.num_cores >= bound
        if table is not None and table.num_cores == bound:
            assert (got, runs) == (table, 0)
            outcomes.add("table at the bound")
            continue
        pipeline = pipeline_schedule(ts, analyses)
        assert runs == 1
        if table is not None and table.num_cores < pipeline.num_cores:
            assert got == table
            outcomes.add("table")
        else:
            assert got == pipeline
            outcomes.add("pipeline")
    assert outcomes == {"table at the bound", "table", "pipeline"}


def test_a_tie_goes_to_the_pipeline():
    # default seed 0, collection 1: bound 5, and both candidates need 6 cores
    ts, _ = generate_taskset(GenConfig(seed=0), 1)
    analyses = analyze_taskset(ts)
    table = table_schedule(ts, analyses, core_bound(ts))
    pipeline = pipeline_schedule(ts, analyses)
    assert (core_bound(ts), table.num_cores, pipeline.num_cores) == (5, 6, 6)
    assert table != pipeline
    assert schedule_taskset(ts) == pipeline


def test_the_table_search_covers_two_counts_past_the_bound():
    # default seed 1, collection 88: the table misses on 3 and 4 cores, meets
    # every deadline on 5 and misses again on 6 and 7 (Graham's anomalies:
    # success is not monotone in the core count).  The search stops at the
    # bound + 2 = 5 cores; the pipeline's 4-core map wins.
    ts, _ = generate_taskset(GenConfig(seed=1), 88)
    analyses = analyze_taskset(ts)
    offsets = {dag.dag_id: tuple(a.lft[n.node_id] - n.wcet for n in dag.nodes)
               for dag, a in analyses}
    assert core_bound(ts) == 3
    assert [list_schedule(ts, m, offsets).success for m in range(3, 8)] == [
        False, False, True, False, False]
    trace: list[str] = []
    table = table_schedule(ts, analyses, 3, trace=trace)
    assert table.num_cores == 5 and validate_schedule(table, ts).ok
    assert [line.split(":")[0] for line in trace] == [
        "table on 3 cores", "table on 4 cores", "table on 5 cores"]
    assert trace[-1] == "table on 5 cores: ok"
    assert schedule_taskset(ts).num_cores == 4
    # when every try misses there is no table: from 1, the tries are 1, 2, 3
    assert table_schedule(ts, analyses, 1) is None


def test_an_infeasible_dag_raises_before_any_table_run(monkeypatch):
    # the error names the first infeasible DAG in utilization order and the
    # node primary placement would name, and no table is tried
    heavy_late = build_dag(3, 8, {1: 4, 2: 5, 3: 6}, [(1, 2)])  # U 15/8, path 9 > 8
    light_late = build_dag(2, 8, {1: 5, 2: 4}, [(1, 2)])  # U 9/8, path 9 > 8
    fine = build_dag(1, 4, {1: 4, 2: 4, 3: 4})  # U 3, the heaviest, feasible
    ts = TaskSet.build([fine, light_late, heavy_late])

    def forbidden(*args):
        raise AssertionError("a table was tried")

    monkeypatch.setattr(scheduler, "list_schedule", forbidden)
    with pytest.raises(DagInfeasibleError) as err:
        schedule_taskset(ts)
    with pytest.raises(DagInfeasibleError) as placed:
        primary_schedule(heavy_late, analyze_dag(heavy_late))
    assert (err.value.dag_id, err.value.node_id) == (placed.value.dag_id, placed.value.node_id)
    assert err.value.dag_id == 3


@pytest.mark.parametrize(
    "cfg,collections,cores,digest",
    [
        (GenConfig(seed=1), 200, 946,
         "41ab65b17ed5f0f70efc704fe08fe6c66eb28d80c0f8e9cc18edb4de75b7d0c6"),
        (GenConfig(seed=1009), 200, 966,
         "80d5a3a77fb329fc0abd86c43ed393fb6a7cdf7f534de6ffc15858c149bfe5af"),
        (GenConfig(collections=1, dags_per_collection=5, seed=3), 1, 4,
         "3a761d007d51a298cc47c404521e96a6b8a6207fe5b1adb0d0b4eb38a7925305"),
        (GenConfig(collections=1, dags_per_collection=10, seed=3), 1, 9,
         "50a2069014013dc729995fd181d57818969b890724e4038848126bfcf9d72868"),
        (GenConfig(collections=1, dags_per_collection=20, seed=3), 1, 17,
         "2d31abd4a8f434ddddc6fb7dea18aec741cb6a3af1967f9d1436a8437fd8cf43"),
        (GenConfig(collections=1, dags_per_collection=40, seed=3), 1, 30,
         "6d28badb576348f78479fa68e686d1c99b209de7807fb0b76d2aa25bcdbe04ad"),
        (GenConfig(collections=4, period_menu=(40, 50, 100, 400), seed=1), 4, 15,
         "bfd57110db3baff23eefd10eeac55532bb1e459b4146d94f92232e6e31c432f1"),
        (GenConfig(collections=4, period_menu=(40, 50, 100, 800), seed=1), 4, 15,
         "3f22b1007254c5f20ab78c8449165dfb0000eb5c77e4e347d358ab075368204f"),
        (GenConfig(collections=4, period_menu=(40, 50, 100, 1600), seed=1), 4, 14,
         "21f4f03530575dd67bf802b686ab3d1ef90da818c293f61c2af1fa4d9a76169f"),
    ],
    ids=["seed-1", "seed-1009", "ladder-5", "ladder-10", "ladder-20", "ladder-40",
         "hyperperiod-400", "hyperperiod-800", "hyperperiod-1600"],
)
def test_schedule_documents_are_pinned(cfg, collections, cores, digest):
    # The schedule documents schedule_taskset writes (the table or the
    # pipeline's map): the core total over the collections, and the sha256
    # of their documents concatenated in collection order.  A change to
    # the table, placement or compaction that means to keep every output
    # must keep both.
    h = hashlib.sha256()
    total = 0
    for c in range(collections):
        mp = schedule_taskset(generate_taskset(cfg, c)[0])
        total += mp.num_cores
        h.update(dumps_schedule(mp).encode())
    assert (total, h.hexdigest()) == (cores, digest)
