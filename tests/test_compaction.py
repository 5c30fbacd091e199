"""Compaction against its reference implementation, stage by stage.

These tests drive the five-step pipeline itself (pipeline_schedule), which
schedule_taskset skips when its list-scheduled table meets the core bound,
so they check compaction on every set whatever the table finds.
Every compact call the pipeline makes (one per DAG inside
stack_extended_schedules, then one global pass) is recorded and replayed
through reference_compact, which must give identical lanes.  The same
recording checks the lane invariant compaction relies on: after per-DAG
compaction, after extension and after global compaction every lane is
sorted by start with no overlapping entries.  Inside compact, every retry
rung (each sweep-to-fixpoint, each restretch and each rollback of a
rejected trial) must leave a legal schedule, checked against the task set
rather than compaction's own links, and one compactor serves the call.
Each rung also keeps every entry's earliest legal start and latest legal
finish inside its static window, which is what makes the window test of a
fill exact, and each lane's movers in width order, which is what makes a
fill's early stop exact.
No rung runs once the core count reaches the lower bound
ceil(busy time / latest deadline), computed here from the task set.
"""

from __future__ import annotations

import gc
import math
from contextlib import contextmanager

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dagsched import scheduler
from dagsched.analysis import analyze_dag
from dagsched.bench import GenConfig, generate_taskset, run_experiment
from dagsched.model import TaskSet, build_dag, validate_schedule

from helpers import copy_lanes, lanes_layout
from reference_compact import reference_compact

DEFAULT_COLLECTIONS = 40


@contextmanager
def recorded_stages():
    """Record (stage, input lanes, output lanes) for each compact and extend call.

    compact moves the placements it is given, and the global pass moves
    those extend built, so each records a copy: compact of its input taken
    before the call, extend of its output.
    """
    calls: list[tuple[str, list, list]] = []
    real_compact, real_extend = scheduler.compact, scheduler.extend

    def compact(cores, ts, *args, **kwargs):
        before = copy_lanes(cores)
        out = real_compact(cores, ts, *args, **kwargs)
        calls.append(("compact", before, out))
        return out

    def extend(cores, dag, horizon):
        out = real_extend(cores, dag, horizon)
        calls.append(("extend", cores, copy_lanes(out)))
        return out

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(scheduler, "compact", compact)
        mp.setattr(scheduler, "extend", extend)
        yield calls


def pipeline(ts: TaskSet):
    """The pipeline's map of ts, on the analyses schedule_taskset would give it."""
    return scheduler.pipeline_schedule(ts, scheduler.analyze_taskset(ts))


def schedule_recorded(ts: TaskSet):
    with recorded_stages() as calls:
        mp = pipeline(ts)
    # no schedule fits in fewer cores than the total utilization
    assert mp.num_cores >= math.ceil(sum(d.utilization for d in ts.dags))
    return mp, calls


def assert_matches_reference(ts: TaskSet, calls) -> None:
    compactions = [(cores, out) for stage, cores, out in calls if stage == "compact"]
    assert len(compactions) == sum(1 for d in ts.dags if d.nodes) + 1
    for cores, out in compactions:
        assert lanes_layout(out) == lanes_layout(reference_compact(cores, ts))


def assert_lanes_sorted_disjoint(lanes) -> None:
    for lane in lanes:
        for a, b in zip(lane, lane[1:]):
            assert a.finish <= b.start, (a, b)


def assert_legal_lanes(lanes, ts: TaskSet) -> None:
    assert_lanes_sorted_disjoint(lanes)
    at = {(p.dag_id, p.node_id, p.job): p for lane in lanes for p in lane}
    for (dag_id, node_id, job), p in at.items():
        dag = ts.dag(dag_id)
        node = dag.node(node_id)
        assert p.finish - p.start == node.wcet, p
        assert job * dag.period <= p.start and p.finish <= (job + 1) * dag.period, p
        for c in node.children:
            assert p.finish <= at[(dag_id, c, job)].start, (p, at[(dag_id, c, job)])


def core_bound(cores, ts: TaskSet) -> int:
    """ceil(busy time / latest deadline) over the entries of cores."""
    entries = [p for lane in cores for p in lane]
    latest = max(((p.job + 1) * ts.dag(p.dag_id).period for p in entries), default=1)
    return -(-sum(p.finish - p.start for p in entries) // latest)


def cores_in_use(lanes) -> int:
    return sum(1 for lane in lanes if lane)


def assert_inside_static_windows(lanes, ts: TaskSet) -> None:
    # Each entry's window is its release plus the analysis' earliest start
    # and latest finish, and holds its earliest legal start (release or
    # latest parent finish) and latest legal finish (deadline or earliest
    # child start): the exactness argument of the fill's window test.
    at = {(p.dag_id, p.node_id, p.job): p for lane in lanes for p in lane}
    analyses = {dag.dag_id: analyze_dag(dag) for dag in ts.dags}
    for (dag_id, node_id, job), p in at.items():
        dag, a = ts.dag(dag_id), analyses[dag_id]
        node = dag.node(node_id)
        release = job * dag.period
        assert (p.lo, p.hi) == (release + a.est[node_id], release + a.lft[node_id]), p
        earliest = max([release] + [at[(dag_id, q, job)].finish for q in node.parents])
        latest = min([release + dag.period] + [at[(dag_id, c, job)].start for c in node.children])
        assert p.lo <= earliest and latest <= p.hi, (p, p.lo, p.hi)


def assert_width_ordered_movers(work) -> None:
    # Each lane's movers list holds exactly that lane's entries, by
    # identity, in nondecreasing width: the fill's walk stops at the first
    # mover too wide for the hole, which is exact only under this.
    assert len(work.movers) == len(work.lanes)
    for ci, (lane, movers) in enumerate(zip(work.lanes, work.movers)):
        assert sorted(map(id, movers)) == sorted(map(id, lane)), ci
        widths = [p.width for p in movers]
        assert widths == sorted(widths), (ci, widths)


@contextmanager
def checked_rungs(ts: TaskSet):
    """Check the lanes after every _Compactor.run, restretch and restore.

    Yields one (bound, rungs) pair per _Compactor construction: the core
    lower bound of its input, and a (name, cores before, cores after)
    triple for each of those calls in order.  Each lane's movers must stay
    its entries in width order.
    """
    calls: list[tuple[int, list[tuple[str, int, int]]]] = []
    real_init = scheduler._Compactor.__init__

    def init(self, cores, ts):
        real_init(self, cores, ts)
        assert_inside_static_windows(self.lanes, ts)
        assert_width_ordered_movers(self)
        calls.append((core_bound(cores, ts), []))

    def checked(name):
        real = getattr(scheduler._Compactor, name)

        def rung(self, *args, **kwargs):
            before = cores_in_use(self.lanes)
            real(self, *args, **kwargs)
            assert_legal_lanes(self.lanes, ts)
            assert_inside_static_windows(self.lanes, ts)
            assert_width_ordered_movers(self)
            calls[-1][1].append((name, before, cores_in_use(self.lanes)))

        return rung

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(scheduler._Compactor, "__init__", init)
        for name in ("run", "restretch", "restore"):
            mp.setattr(scheduler._Compactor, name, checked(name))
        yield calls


def schedule_checking_rungs(ts: TaskSet) -> None:
    with checked_rungs(ts) as calls:
        pipeline(ts)
    # every compact call builds one compactor
    assert len(calls) == sum(1 for d in ts.dags if d.nodes) + 1
    for bound, rungs in calls:
        names = [name for name, _, _ in rungs]
        baseline, final = rungs[0][2], rungs[-1][2]
        assert names[0] == "run" and final >= bound
        # the loosened sweeps run unless the baseline sweeps reach the
        # bound, and loosened sweeps follow each restretch
        assert names.count("run") == names.count("restretch") + (1 if baseline == bound else 2)
        # no trial starts, and none is rolled back, once the bound is reached
        for name, before, _ in rungs:
            if name != "run":
                assert before > bound, (name, before, bound)
        # a call left above the bound ends with a rejected restretch trial
        if final > bound:
            assert "restretch" in names and names[-1] == "restore"
        assert names.count("restore") <= 2


@st.composite
def small_tasksets(draw):
    dags = []
    for dag_id in range(1, draw(st.integers(1, 3)) + 1):
        n = draw(st.integers(1, 5))
        wcets = {i: draw(st.integers(1, 4)) for i in range(1, n + 1)}
        edges = [
            (i, j) for i in range(1, n + 1) for j in range(i + 1, n + 1) if draw(st.booleans())
        ]
        cp = build_dag(dag_id, 24, wcets, edges).cp_length
        period = draw(st.sampled_from([p for p in (6, 12, 24) if p >= cp]))
        dags.append(build_dag(dag_id, period, wcets, edges))
    return TaskSet.build(dags)


def test_default_collections_match_reference():
    cfg = GenConfig()
    for c in range(DEFAULT_COLLECTIONS):
        ts, _ = generate_taskset(cfg, c)
        _, calls = schedule_recorded(ts)
        assert_matches_reference(ts, calls)


@settings(max_examples=80, deadline=None)
@given(small_tasksets())
def test_small_tasksets_match_reference(ts):
    _, calls = schedule_recorded(ts)
    assert_matches_reference(ts, calls)


@settings(max_examples=80, deadline=None)
@given(small_tasksets())
def test_every_stage_keeps_lanes_sorted_and_valid(ts):
    mp, calls = schedule_recorded(ts)
    # compact outputs cover the per-DAG and global stages, extend outputs
    # the extension stage
    for _, _, out in calls:
        assert_lanes_sorted_disjoint(out)
    assert validate_schedule(mp, ts).ok


def test_every_retry_rung_is_legal_on_default_collections():
    cfg = GenConfig()
    for c in range(DEFAULT_COLLECTIONS):
        ts, _ = generate_taskset(cfg, c)
        schedule_checking_rungs(ts)


def test_compact_at_the_bound_after_the_baseline_sweeps_runs_no_trial():
    # no trial can be kept once the core count equals the lower bound, so
    # such a call makes no restretch and no restore
    cfg = GenConfig()
    at_bound = 0
    for c in range(DEFAULT_COLLECTIONS):
        ts, _ = generate_taskset(cfg, c)
        with checked_rungs(ts) as calls:
            pipeline(ts)
        for bound, rungs in calls:
            if rungs[0][2] == bound:
                at_bound += 1
                assert [name for name, _, _ in rungs] == ["run"]
    assert at_bound > 0


@settings(max_examples=80, deadline=None)
@given(small_tasksets())
def test_every_retry_rung_is_legal_on_small_tasksets(ts):
    schedule_checking_rungs(ts)


@pytest.mark.parametrize("dags", [10, 20, 40])
def test_wide_global_passes_match_reference(dags):
    # the pinned scale-ladder sets: global passes over 13 to 48 lanes,
    # where the default 5-DAG sets stack at most ten
    ts, _ = generate_taskset(GenConfig(collections=1, dags_per_collection=dags, seed=3), 0)
    _, calls = schedule_recorded(ts)
    assert_matches_reference(ts, calls)


@pytest.mark.parametrize("collection", [1, 3])
def test_long_hyperperiods_match_reference(collection):
    # hyperperiod 1600 (532 and 585 jobs): lanes hold many copies of one
    # job, where the width walk and the static window skip the most movers
    cfg = GenConfig(collections=4, period_menu=(40, 50, 100, 1600), seed=1)
    ts, _ = generate_taskset(cfg, collection)
    assert ts.hyperperiod == 1600
    _, calls = schedule_recorded(ts)
    assert_matches_reference(ts, calls)
    schedule_checking_rungs(ts)


@pytest.mark.parametrize("seed,collection,cores", [(1, 173, 5), (2, 63, 5), (2, 129, 6)])
def test_third_restretch_cycle_saves_a_core(seed, collection, cores):
    # on default-config seeds 0-2, the only sets where restretch cycle 3
    # lowers the core count; with two cycles each needs one core more
    ts, _ = generate_taskset(GenConfig(seed=seed), collection)
    assert pipeline(ts).num_cores == cores


@pytest.mark.parametrize("collection,trials", [
    (2, [(0, True), (3, False)]),
    (4, [(0, False), (3, True), (3, False)]),
])
def test_trial_is_kept_only_when_it_frees_a_core(monkeypatch, collection, trials):
    # The global passes over default collections 2 and 4 keep and reject
    # both kinds of trial, as (cycles, kept) pairs.  A trial returns True
    # exactly when used() fell, and a rejected one leaves every lane with
    # the same placements, by identity, at the same starts.
    ts, _ = generate_taskset(GenConfig(), collection)
    lanes = scheduler.stack_extended_schedules(ts, scheduler.analyze_taskset(ts))
    real_trial = scheduler._Compactor.trial
    seen = []

    def trial(self, cycles):
        before = [[(id(p), p.start, p.finish) for p in lane] for lane in self.lanes]
        used = self.used()
        kept = real_trial(self, cycles)
        assert kept == (self.used() < used)
        if not kept:
            assert [[(id(p), p.start, p.finish) for p in lane] for lane in self.lanes] == before
            assert_width_ordered_movers(self)
        seen.append((cycles, kept))
        return kept

    monkeypatch.setattr(scheduler._Compactor, "trial", trial)
    scheduler.compact(lanes, ts)
    assert seen == trials


def test_fill_key_ties_go_to_the_lowest_ids():
    # Two movers tie on rank and finish: dag 1's node 2 waits for its
    # parent until 3 and finishes at 4, dag 2's node starts at the hole's
    # start and also finishes at 4, and both have prior-plus load 4.  The
    # key's last terms are (dag, node, job), so dag 1's node moves, though
    # it leaves a wider gap before it in the hole.
    dags = [build_dag(1, 20, {1: 3, 2: 1}, [(1, 2)]),
            build_dag(2, 20, {1: 4}),
            build_dag(3, 20, {1: 1, 2: 1})]
    ts = TaskSet.build(dags)

    def placed(dag_id, node_id, start):
        dag, a = ts.dag(dag_id), analyze_dag(ts.dag(dag_id))
        return scheduler.Placement(dag_id, node_id, 0, start, start + dag.node(node_id).wcet,
                                   a.prior_plus[node_id], a.est[node_id], a.lft[node_id])

    lanes = [[placed(3, 1, 0), placed(3, 2, 10)],
             [placed(1, 1, 0), placed(1, 2, 3)],
             [placed(2, 1, 0)]]
    assert [p.rank for p in (lanes[1][1], lanes[2][0])] == [4, 4]
    work = scheduler._Compactor(lanes, ts)
    assert work._fill(0, 1, 1, 10, [(work.movers[1], 1), (work.movers[2], 2)])
    assert [(p.dag_id, p.node_id, p.start) for p in work.lanes[0]] == [
        (3, 1, 0), (1, 2, 3), (3, 2, 10)]
    assert [len(lane) for lane in work.lanes] == [3, 1, 1]


def test_rank_skip_spares_movers_on_a_ladder_set(monkeypatch):
    # A fill reads the links of a mover that fits the hole's width and its
    # static window only while the mover's rank is at most the best rank
    # found so far; the fill key starts with the rank, so this changes no
    # choice (test_wide_global_passes_match_reference[20] is the same set).
    # Counted over every fill of the pinned ladder set of 20 DAGs, as reads
    # of a mover's ups slot: a fill reads it once per mover it checks.
    ts, _ = generate_taskset(GenConfig(collections=1, dags_per_collection=20, seed=3), 0)
    fill, ups = scheduler._Compactor._fill, scheduler.Placement.__dict__["ups"]
    counts = {"in_window": 0, "links_read": 0}
    filling = [False]

    def counted_fill(self, ci, at, gap_start, gap_end, cands):
        for movers, _ in cands:
            for cand in movers:
                if cand.width > gap_end - gap_start:
                    break
                counts["in_window"] += cand.efin <= gap_end and cand.lstart >= gap_start
        filling[0] = True
        try:
            return fill(self, ci, at, gap_start, gap_end, cands)
        finally:
            filling[0] = False

    def counted_ups(self):
        counts["links_read"] += filling[0]
        return ups.__get__(self)

    monkeypatch.setattr(scheduler._Compactor, "_fill", counted_fill)
    monkeypatch.setattr(scheduler.Placement, "ups", property(counted_ups, ups.__set__))
    assert pipeline(ts).num_cores == 18
    # without the skip every mover in its window has its links read
    assert counts == {"in_window": 12119, "links_read": 5540}


def test_compaction_leaves_no_reference_cycles():
    # compact drops every placement's links before it returns, so the
    # placements are freed by reference counting and the cyclic collector
    # finds nothing after the pipeline or the experiment.
    gc.collect()
    gc.disable()
    try:
        for c in range(20):
            pipeline(generate_taskset(GenConfig(), c)[0])
        ladder = GenConfig(collections=1, dags_per_collection=20, seed=3)
        pipeline(generate_taskset(ladder, 0)[0])
        run_experiment(GenConfig(collections=5), [4, 8, 16])
        assert gc.collect() == 0
    finally:
        gc.enable()
