"""Acceptance suite: one test per criterion, reported line by line.

Run with `pytest tests/test_acceptance.py -v`; the terminal summary prints a
pass/fail line per criterion (see conftest.py).  Criterion 9 depends on
reference values that are unavailable in this build; it is recorded as
omitted rather than synthesized.
"""

from __future__ import annotations

import json
import time

import pytest

from dagsched.analysis import analyze_dag, prior_plus, rank
from dagsched.baseline import gedf_np_simulate
from dagsched.bench import GenConfig, generate_taskset, run_experiment
from dagsched.cli import run_cli
from dagsched.model import TaskSet, build_dag, dumps_taskset, validate_schedule
from dagsched.scheduler import (
    analyze_taskset, compact, extend, primary_schedule, schedule_taskset, stack_extended_schedules,
)

from helpers import (
    analyzed_cp,
    brute_critical_path,
    brute_est,
    brute_lft,
    brute_prior_plus,
    check_edf_dispatch,
    check_work_conserving,
    diamond_dag,
    entry_multiset,
    lanes_layout,
    random_dag,
    windows,
)

SOUNDNESS_PS = (0.2, 0.6, 0.9)
SOUNDNESS_MS = (1, 2, 4, 8)
SOUNDNESS_COUNT = 504


def soundness_configs():
    return {
        p: GenConfig(
            collections=SOUNDNESS_COUNT,
            dags_per_collection=3,
            edge_prob=p,
            nodes_per_dag=(2, 8),
            wcet_range=(1, 6),
            period_menu=(6, 12, 24),
            seed=8150,
        )
        for p in SOUNDNESS_PS
    }


def soundness_instances():
    cfgs = soundness_configs()
    for i in range(SOUNDNESS_COUNT):
        p = SOUNDNESS_PS[i % len(SOUNDNESS_PS)]
        m = SOUNDNESS_MS[(i // len(SOUNDNESS_PS)) % len(SOUNDNESS_MS)]
        ts, _ = generate_taskset(cfgs[p], i)
        yield ts, m


def test_c1_soundness_suite():
    t0 = time.time()
    successes = failures = 0
    for ts, m in soundness_instances():
        mp = schedule_taskset(ts)
        report = validate_schedule(mp, ts)
        assert report.ok, f"map failed validation (m={m}): {report.violations[:3]}"
        if mp.num_cores <= m:
            successes += 1
        else:
            failures += 1
    assert successes + failures == SOUNDNESS_COUNT
    assert successes >= 100 and failures >= 50  # both outcomes exercised
    assert time.time() - t0 < 120  # stated runtime budget


def test_c2_oracle_equivalence():
    import random as _random

    rng = _random.Random(424242)
    for _ in range(200):
        dag = random_dag(rng, max_nodes=12)
        pp = prior_plus(dag)
        levels = windows(dag)
        for nid in dag.node_ids:
            assert pp[nid] == brute_prior_plus(dag, nid)
            assert levels[nid][0] == brute_est(dag, nid)
            assert levels[nid][1] == brute_lft(dag, nid)
        assert analyzed_cp(dag) == tuple(brute_critical_path(dag))


def test_c3_worked_examples():
    diamond = diamond_dag()
    ts = TaskSet.build([diamond])

    assert prior_plus(diamond) == {1: 1, 2: 4, 3: 3, 4: 7}
    assert rank(diamond, prior_plus(diamond)) == [4, 2, 3, 1]

    primary = primary_schedule(diamond, analyze_dag(diamond))
    assert lanes_layout(primary) == [
        [(1, 1, 0, 3, 4), (1, 2, 0, 4, 7), (1, 4, 0, 7, 8)],
        [(1, 3, 0, 5, 7)],
    ]

    compacted = compact(primary, ts)
    assert lanes_layout(compacted) == [
        [(1, 1, 0, 0, 1), (1, 3, 0, 1, 3), (1, 2, 0, 4, 7), (1, 4, 0, 7, 8)]
    ]

    chain = build_dag(1, 10, {1: 2, 2: 2}, [(1, 2)])
    lanes = primary_schedule(chain, analyze_dag(chain))
    assert lanes_layout(lanes) == [[(1, 1, 0, 6, 8), (1, 2, 0, 8, 10)]]


def test_c4_compaction_properties():
    for ts, _ in soundness_instances():
        pre = stack_extended_schedules(ts, analyze_taskset(ts))
        pre_entries = entry_multiset(pre)
        post = compact(pre, ts)
        assert len(post) <= sum(1 for lane in pre if lane)
        assert entry_multiset(post) == pre_entries
        post_layout = lanes_layout(post)
        assert lanes_layout(compact(post, ts)) == post_layout


def test_c5_extension_arithmetic():
    slow = build_dag(1, 20, {1: 4, 2: 6}, [(1, 2)])
    fast = build_dag(2, 10, {1: 3, 2: 2}, [(1, 2)])
    ts = TaskSet.build([slow, fast])
    assert ts.hyperperiod == 20

    one_period = compact(primary_schedule(fast, analyze_dag(fast)), ts)
    extended = extend(one_period, fast, 20)
    for lane, base in zip(extended, one_period):
        jobs = {}
        for p in lane:
            jobs.setdefault(p.job, []).append((p.node_id, p.start, p.finish))
        assert sorted(jobs) == [0, 1]  # exactly two copies
        shifted = [(n, s + 10, f + 10) for (n, s, f) in jobs[0]]
        assert jobs[1] == shifted  # second copy offset by one period

    # the slow DAG repeats once per hyperperiod, the fast one twice
    mp = schedule_taskset(ts)
    assert mp.num_cores <= 4
    per_dag_jobs = {1: set(), 2: set()}
    for e in mp.entries():
        per_dag_jobs[e.dag_id].add(e.job)
    assert per_dag_jobs[1] == {0}
    assert per_dag_jobs[2] == {0, 1}


def test_c6_baseline_correctness():
    two = TaskSet.build([build_dag(1, 4, {1: 3}), build_dag(2, 4, {1: 3})])
    assert not gedf_np_simulate(two, 1).success
    assert gedf_np_simulate(two, 2).success

    for ts, m in soundness_instances():
        sim = gedf_np_simulate(ts, m)
        conserving = check_work_conserving(ts, sim.trace)
        assert conserving == [], conserving[:3]
        edf = check_edf_dispatch(ts, sim.trace)
        assert edf == [], edf[:3]
        if sim.success:
            assert validate_schedule(sim.trace, ts).ok


def test_c7_trend_reproduction():
    t0 = time.time()
    report = run_experiment(GenConfig(seed=0), [4, 8, 16])
    prev_p = prev_b = -1.0
    for s in report.summary:
        assert s.proposed_success_rate >= s.baseline_success_rate, (
            f"m={s.m}: proposed {s.proposed_success_rate} < baseline {s.baseline_success_rate}"
        )
        assert s.proposed_success_rate >= prev_p
        assert s.baseline_success_rate >= prev_b
        prev_p, prev_b = s.proposed_success_rate, s.baseline_success_rate
    assert time.time() - t0 < 300  # stated runtime budget


def test_c8_determinism(tmp_path):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(
        json.dumps(
            {
                "collections": 10,
                "dags_per_collection": 3,
                "nodes_per_dag": [2, 8],
                "wcet_range": [1, 6],
                "period_menu": [10, 20, 40],
            }
        )
    )
    bench = ["bench", "--config", str(cfg_path), "--seed", "17", "--cores", "2,4,8"]
    assert run_cli(bench + ["--out", str(tmp_path / "r1")]) == 0
    assert run_cli(bench + ["--out", str(tmp_path / "r2")]) == 0
    assert (tmp_path / "r1.json").read_bytes() == (tmp_path / "r2.json").read_bytes()
    assert (tmp_path / "r1.csv").read_bytes() == (tmp_path / "r2.csv").read_bytes()

    ts_path = tmp_path / "ts.json"
    ts_path.write_text(dumps_taskset(TaskSet.build([diamond_dag()])))
    sched = ["schedule", "--in", str(ts_path), "--cores", "2"]
    assert run_cli(sched + ["--out", str(tmp_path / "s1.json")]) == 0
    assert run_cli(sched + ["--out", str(tmp_path / "s2.json")]) == 0
    assert (tmp_path / "s1.json").read_bytes() == (tmp_path / "s2.json").read_bytes()


def test_c9_figure_dependent_checks():
    pytest.skip(
        "the reference example graph's node weights are unavailable in this "
        "build, so its two dependent checks (a prior-plus load of 21 and the "
        "full rank order) are omitted rather than invented"
    )
