from __future__ import annotations

import math
import random

import pytest
from hypothesis import find, given, settings
from hypothesis import strategies as st

from dagsched.analysis import analyze_dag
from dagsched.baseline import gedf_np_simulate, list_schedule
from dagsched.bench import GenConfig, generate_taskset
from dagsched.model import (
    JOB_BUDGET,
    TaskSet,
    build_dag,
    dumps_schedule,
    validate_schedule,
)

from helpers import (
    allocation_limit,
    chain_dag,
    check_dispatch_order,
    check_edf_dispatch,
    check_work_conserving,
    job_count,
    single_node_dag,
)
from reference_gedf import reference_gedf_np_simulate


def test_single_node_runs_at_release():
    ts = TaskSet.build([single_node_dag(period=5, wcet=2)])
    sim = gedf_np_simulate(ts, 1)
    assert sim.success and sim.first_miss is None
    assert [(e.job, e.start, e.finish) for e in sim.trace.entries()] == [(0, 0, 2)]
    assert validate_schedule(sim.trace, ts).ok


def test_every_period_dispatches():
    two = TaskSet.build([single_node_dag(period=5, wcet=2), single_node_dag(dag_id=2, period=10, wcet=1)])
    sim = gedf_np_simulate(two, 1)
    assert sim.success
    dag1 = [(e.job, e.start, e.finish) for e in sim.trace.entries() if e.dag_id == 1]
    assert sorted(dag1) == [(0, 0, 2), (1, 5, 7)]


def test_overload_misses_then_two_cores_succeed():
    ts = TaskSet.build([build_dag(1, 4, {1: 3}), build_dag(2, 4, {1: 3})])
    one = gedf_np_simulate(ts, 1)
    assert not one.success
    assert one.first_miss is not None
    assert one.first_miss.deadline == 4 and one.first_miss.finish == 6
    two = gedf_np_simulate(ts, 2)
    assert two.success
    assert validate_schedule(two.trace, ts).ok


def test_chain_follows_parent_finish(chain):
    ts = TaskSet.build([chain])
    sim = gedf_np_simulate(ts, 1)
    assert sim.success
    assert [(e.node_id, e.start, e.finish) for e in sim.trace.entries()] == [(1, 0, 2), (2, 2, 4)]


def test_edf_prefers_earlier_deadline():
    # dag 2 has the tighter period, so it goes first on the single core
    ts = TaskSet.build([build_dag(1, 20, {1: 2}), build_dag(2, 10, {1: 2})])
    sim = gedf_np_simulate(ts, 1)
    first = min(sim.trace.entries(), key=lambda e: (e.start, e.core))
    assert (first.dag_id, first.start) == (2, 0)


def test_non_preemptive_runs_to_completion():
    # a long low-urgency node is already running when urgent work arrives
    ts = TaskSet.build([build_dag(1, 20, {1: 9}), build_dag(2, 10, {1: 2})])
    sim = gedf_np_simulate(ts, 1)
    entries = {(e.dag_id, e.job): e for e in sim.trace.entries()}
    long_one = entries[(1, 0)]
    assert long_one.finish - long_one.start == 9  # never split


def test_empty_taskset():
    ts = TaskSet.build([])
    sim = gedf_np_simulate(ts, 2)
    assert sim.success and list(sim.trace.entries()) == []


def test_rejects_bad_core_count():
    ts = TaskSet.build([single_node_dag()])
    with pytest.raises(ValueError):
        gedf_np_simulate(ts, 0)
    # one lane per core is allocated, so the bound is checked first
    with allocation_limit(), pytest.raises(ValueError, match=f"in 1..{JOB_BUDGET}"):
        gedf_np_simulate(ts, JOB_BUDGET + 1)


def test_cores_never_taken_cost_no_lanes():
    ts = TaskSet.build([single_node_dag(period=5, wcet=2)])
    with allocation_limit(24 << 20):
        sim = gedf_np_simulate(ts, JOB_BUDGET)
    assert sim.success and sim.trace.num_cores == JOB_BUDGET
    assert sim.trace.used_cores == 1 and len(sim.trace.cores) == JOB_BUDGET


def test_determinism():
    cfg = GenConfig(collections=1, dags_per_collection=4, nodes_per_dag=(2, 8),
                    wcet_range=(1, 6), period_menu=(8, 16), seed=5)
    ts, _ = generate_taskset(cfg, 0)
    a = gedf_np_simulate(ts, 3)
    b = gedf_np_simulate(ts, 3)
    assert dumps_schedule(a.trace) == dumps_schedule(b.trace)


def test_work_conservation_and_edf_order_on_random_sets():
    rng = random.Random(77)
    for i in range(20):
        cfg = GenConfig(collections=1, dags_per_collection=3, nodes_per_dag=(1, 7),
                        wcet_range=(1, 5), period_menu=(6, 12, 24),
                        edge_prob=rng.choice((0.2, 0.6, 0.9)), seed=100 + i)
        ts, _ = generate_taskset(cfg, 0)
        m = rng.choice((1, 2, 3, 4))
        sim = gedf_np_simulate(ts, m)
        assert check_work_conserving(ts, sim.trace) == []
        assert check_edf_dispatch(ts, sim.trace) == []
        if sim.success:
            assert validate_schedule(sim.trace, ts).ok


# --- equality with the reference simulator -----------------------------------

DEFAULT_COLLECTIONS = 40


def test_default_collections_match_reference():
    cfg = GenConfig()
    misses = 0
    for c in range(DEFAULT_COLLECTIONS):
        ts, _ = generate_taskset(cfg, c)
        for m in (1, 2, 3, 4, 8, 16):
            sim = gedf_np_simulate(ts, m)
            assert sim == reference_gedf_np_simulate(ts, m), (c, m)
            misses += not sim.success
    assert misses > 0


def test_replay_config_matches_reference():
    # the benchmark's replay sets: wide DAGs on ceil(U) + 1 cores, and on
    # fewer cores so that deadlines are missed
    cfg = GenConfig(collections=8, dags_per_collection=5, edge_prob=0.15,
                    nodes_per_dag=(30, 60), period_menu=(100, 200), seed=1)
    misses = 0
    for c in range(cfg.collections):
        ts, _ = generate_taskset(cfg, c)
        bound = math.ceil(sum(dag.utilization for dag in ts.dags))
        for m in (bound + 1, max(1, bound - 1)):
            sim = gedf_np_simulate(ts, m)
            assert sim == reference_gedf_np_simulate(ts, m), (c, m)
            misses += not sim.success
    assert misses > 0


@st.composite
def small_tasksets(draw):
    # periods are not fitted to the work, so overloads and misses are common
    dags = []
    for dag_id in range(1, draw(st.integers(1, 3)) + 1):
        n = draw(st.integers(1, 5))
        wcets = {i: draw(st.integers(1, 6)) for i in range(1, n + 1)}
        edges = [
            (i, j) for i in range(1, n + 1) for j in range(i + 1, n + 1) if draw(st.booleans())
        ]
        period = draw(st.sampled_from((2, 3, 4, 6, 8, 12)))
        dags.append(build_dag(dag_id, period, wcets, edges))
    return TaskSet.build(dags)


def test_small_tasksets_include_misses():
    missed = find(small_tasksets(), lambda ts: not gedf_np_simulate(ts, 2).success)
    assert reference_gedf_np_simulate(missed, 2).first_miss is not None


@settings(max_examples=150, deadline=None)
@given(small_tasksets(), st.integers(1, 4))
def test_small_tasksets_match_reference(ts, m):
    assert gedf_np_simulate(ts, m) == reference_gedf_np_simulate(ts, m)


# --- a run below its cap is the run of every larger core count ------------------


@settings(max_examples=150, deadline=None)
@given(small_tasksets())
def test_a_run_below_its_cap_is_the_run_of_every_larger_core_count(ts):
    # with one core per job no core is ever waited for: the uncapped run
    uncapped = gedf_np_simulate(ts, job_count(ts) + 1)
    used = uncapped.trace.used_cores
    for m in range(max(1, used), job_count(ts) + 2):
        sim = gedf_np_simulate(ts, m)
        assert sim.trace.cores[:used] == uncapped.trace.cores[:used], m
        assert not any(sim.trace.cores[used:]), m
        assert (sim.success, sim.first_miss) == (uncapped.success, uncapped.first_miss), m


# --- the engine under another priority: latest start (ALAP) -----------------


def latest_starts(ts: TaskSet) -> dict[int, tuple[int, ...]]:
    """Each node's latest finish less its wcet, in the order of dag.nodes."""
    out = {}
    for dag in ts.dags:
        lft = analyze_dag(dag).lft
        out[dag.dag_id] = tuple(lft[n.node_id] - n.wcet for n in dag.nodes)
    return out


def test_alap_keys_order_dispatch_on_random_sets():
    # the same engine keyed by release plus latest start: work conserving,
    # every dispatch takes the least key waiting, and a run with no miss
    # is a legal table
    rng = random.Random(78)
    succeeded = 0
    for i in range(20):
        cfg = GenConfig(collections=1, dags_per_collection=3, nodes_per_dag=(1, 7),
                        wcet_range=(1, 5), period_menu=(6, 12, 24),
                        edge_prob=rng.choice((0.2, 0.6, 0.9)), seed=200 + i)
        ts, _ = generate_taskset(cfg, 0)
        offsets = latest_starts(ts)
        sim = list_schedule(ts, rng.choice((1, 2, 3, 4)), offsets)

        def lst(dag, node_id):
            return offsets[dag.dag_id][dag.node_ids.index(node_id)]

        assert check_work_conserving(ts, sim.trace) == []
        assert check_dispatch_order(ts, sim.trace, lst) == []
        if sim.success:
            succeeded += 1
            assert validate_schedule(sim.trace, ts).ok
    assert 0 < succeeded < 20


@settings(max_examples=100, deadline=None)
@given(small_tasksets(), st.integers(1, 4))
def test_an_alap_run_reports_its_least_miss(ts, m):
    # the first miss is the late entry with the least (deadline, dag, node,
    # job), whatever the key; the run succeeds iff its trace validates
    sim = list_schedule(ts, m, latest_starts(ts))
    late = []
    for e in sim.trace.entries():
        deadline = (e.job + 1) * ts.dag(e.dag_id).period
        if e.finish > deadline:
            late.append((deadline, e.dag_id, e.node_id, e.job, e.finish))
    miss = sim.first_miss
    assert (miss and (miss.deadline, miss.dag_id, miss.node_id, miss.job, miss.finish)) == (
        min(late) if late else None)
    assert validate_schedule(sim.trace, ts).ok == sim.success
