from __future__ import annotations

import json
import math
import random
import re

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from dagsched.baseline import gedf_np_simulate
from dagsched.bench import GenConfig, generate_taskset
from dagsched.model import (
    JOB_BUDGET,
    ScheduleEntry,
    ScheduleMap,
    TaskNode,
    TaskSet,
    TaskSetError,
    TickOverflowError,
    build_dag,
    dumps_schedule,
    dumps_taskset,
    hyperperiod,
    load_schedule,
    load_taskset,
    validate_schedule,
)

from dagsched.scheduler import schedule_taskset

from helpers import (
    allocation_limit,
    chain_dag,
    diamond_dag,
    reference_schedule_doc,
    reference_taskset_doc,
    single_node_dag,
)
from reference_validate import reference_validate_schedule


def doc(dags):
    return json.dumps({"dags": dags})


def test_load_single_node_dag():
    ts = load_taskset(doc([{"id": 1, "period": 5, "nodes": [{"id": 1, "wcet": 2}], "edges": []}]))
    dag = ts.dag(1)
    assert dag.total_work == 2
    assert dag.cp_length == 2
    assert dag.deadline == dag.period == 5
    assert ts.hyperperiod == 5


def test_build_dag_keeps_earliest_starts():
    # each node's earliest start is the heaviest path ending at its parents
    dag = diamond_dag()
    assert dag.est == (0, 1, 1, 4)
    assert "est" not in repr(dag)  # a derived field, like topo_order


def test_load_two_dags_hyperperiod_20():
    ts = load_taskset(
        doc(
            [
                {"id": 1, "period": 20, "nodes": [{"id": 1, "wcet": 1}], "edges": []},
                {"id": 2, "period": 10, "nodes": [{"id": 1, "wcet": 1}], "edges": []},
            ]
        )
    )
    assert ts.hyperperiod == 20


def test_load_cycle_names_the_edge():
    data = doc(
        [
            {
                "id": 1,
                "period": 5,
                "nodes": [{"id": 1, "wcet": 1}, {"id": 2, "wcet": 1}],
                "edges": [[1, 2], [2, 1]],
            }
        ]
    )
    with pytest.raises(TaskSetError, match=r"cycle detected: .*->.*"):
        load_taskset(data)


def test_load_errors_carry_locus():
    with pytest.raises(TaskSetError, match="dag 1: node 1: wcet"):
        load_taskset(doc([{"id": 1, "period": 5, "nodes": [{"id": 1, "wcet": 0}], "edges": []}]))
    with pytest.raises(TaskSetError, match="dag 1: period"):
        load_taskset(doc([{"id": 1, "period": 0, "nodes": [{"id": 1, "wcet": 1}], "edges": []}]))
    with pytest.raises(TaskSetError, match="edge 1 -> 9"):
        load_taskset(
            doc([{"id": 1, "period": 5, "nodes": [{"id": 1, "wcet": 1}], "edges": [[1, 9]]}])
        )
    with pytest.raises(TaskSetError, match="duplicate node id"):
        load_taskset(
            doc(
                [
                    {
                        "id": 1,
                        "period": 5,
                        "nodes": [{"id": 1, "wcet": 1}, {"id": 1, "wcet": 2}],
                        "edges": [],
                    }
                ]
            )
        )
    with pytest.raises(TaskSetError, match="invalid JSON"):
        load_taskset(b"{not json")
    with pytest.raises(TaskSetError, match="dag entry 0: id must be an integer, got True"):
        load_taskset(doc([{"id": True, "period": 5, "nodes": [{"id": 1, "wcet": 1}]}]))
    with pytest.raises(TaskSetError, match="dag 1: node id must be an integer, got True"):
        load_taskset(doc([{"id": 1, "period": 5, "nodes": [{"id": True, "wcet": 1}]}]))
    two_nodes = [{"id": 1, "wcet": 1}, {"id": 2, "wcet": 1}]
    with pytest.raises(TaskSetError, match="dag 1: edge src must be an integer, got True"):
        load_taskset(doc([{"id": 1, "period": 5, "nodes": two_nodes, "edges": [[True, 2]]}]))
    with pytest.raises(TaskSetError, match="dag 1: edge dst must be an integer, got '2'"):
        load_taskset(doc([{"id": 1, "period": 5, "nodes": two_nodes, "edges": [[1, "2"]]}]))
    with pytest.raises(TaskSetError, match="dag 1: edges must be \\[src, dst\\] pairs"):
        load_taskset(doc([{"id": 1, "period": 5, "nodes": two_nodes, "edges": [[1, 2, 2]]}]))
    with pytest.raises(TaskSetError, match="dag entry 0: must be an object"):
        load_taskset(doc([5]))
    with pytest.raises(TaskSetError, match="dag 1: nodes must be a list"):
        load_taskset(doc([{"id": 1, "period": 5, "nodes": {}}]))
    with pytest.raises(TaskSetError, match="dag 1: node entries must be objects"):
        load_taskset(doc([{"id": 1, "period": 5, "nodes": [1]}]))
    with pytest.raises(TaskSetError, match='must carry an "entries" list'):
        load_schedule(json.dumps({"num_cores": 1, "entries": {}}))
    with pytest.raises(TaskSetError, match="entry 0: must be an object"):
        load_schedule(json.dumps({"num_cores": 1, "entries": [5]}))


@pytest.mark.parametrize("load", [load_taskset, load_schedule])
def test_load_of_a_deeply_nested_document_is_invalid_json(load):
    # json.loads raises RecursionError, not JSONDecodeError, on a document
    # nested past its recursion limit; 100000 levels is past it on every
    # Python the project supports
    with pytest.raises(TaskSetError, match="invalid JSON"):
        load("[" * 100_000 + "]" * 100_000)


@pytest.mark.parametrize("edges", [5, None])
def test_load_rejects_edges_that_are_not_a_list(edges):
    dag = {"id": 1, "period": 5, "nodes": [{"id": 1, "wcet": 1}], "edges": edges}
    with pytest.raises(TaskSetError, match="dag 1: edges must be"):
        load_taskset(doc([dag]))


def test_dag_ids_must_be_dense():
    with pytest.raises(TaskSetError, match="dense"):
        TaskSet.build([single_node_dag(dag_id=2)])


def test_parents_children_mutually_consistent():
    dag = diamond_dag()
    for node in dag.nodes:
        for c in node.children:
            assert node.node_id in dag.node(c).parents
        for p in node.parents:
            assert node.node_id in dag.node(p).children


def test_task_node_is_an_immutable_tuple():
    dag = diamond_dag()
    node = dag.node(2)
    assert node == TaskNode(1, 2, 3, (1,), (4,)) == (1, 2, 3, (1,), (4,))
    assert (node.dag_id, node.node_id, node.wcet, node.parents, node.children) == tuple(node)
    with pytest.raises(AttributeError):
        node.wcet = 9
    # DagSpec equality still compares its nodes field by field
    assert dag == diamond_dag() and hash(dag) == hash(diamond_dag())
    assert dag != diamond_dag(period=9)
    assert dag != build_dag(1, 8, {1: 1, 2: 3, 3: 2, 4: 2}, [(1, 2), (1, 3), (2, 4), (3, 4)])
    assert dag != build_dag(1, 8, {1: 1, 2: 3, 3: 2, 4: 1}, [(1, 2), (1, 3), (2, 4)])


@pytest.mark.parametrize("dag_id, wcets, edges, message", [
    (True, {1: 2}, [], "dag id must be an integer, got True"),
    (1.0, {1: 2}, [], "dag id must be an integer, got 1.0"),
    (1, {True: 2}, [], "dag 1: node id must be an integer, got True"),
    (1, {"1": 2}, [], "dag 1: node id must be an integer, got '1'"),
    (1, {1: 2, 2: 2}, [(True, 2)], "dag 1: edge src must be an integer, got True"),
    (1, {1: 2, 2: 2}, [(1, 2.0)], "dag 1: edge dst must be an integer, got 2.0"),
])
def test_build_dag_rejects_ids_that_are_not_integers(dag_id, wcets, edges, message):
    # True == 1 passes the dense-id check and every id lookup, and would be
    # written as true, which load_taskset refuses to read back
    with pytest.raises(TaskSetError, match=re.escape(message)):
        TaskSet.build([build_dag(dag_id, 10, wcets, edges)])


def test_self_loop_is_a_cycle():
    with pytest.raises(TaskSetError, match="cycle"):
        build_dag(1, 5, {1: 1}, [(1, 1)])


def test_hyperperiod_paper_and_trivial():
    assert hyperperiod([20, 10]) == 20
    assert hyperperiod([7]) == 7


def test_hyperperiod_matches_multiple_iteration_oracle():
    def oracle(periods):
        # iterate multiples of the largest element until all divide
        step = max(periods)
        t = step
        while any(t % p for p in periods):
            t += step
        return t

    assert hyperperiod([4, 6, 10]) == oracle([4, 6, 10]) == 60
    rng = random.Random(5)
    for _ in range(50):
        periods = [rng.randint(1, 30) for _ in range(rng.randint(1, 4))]
        assert hyperperiod(periods) == oracle(periods)


def test_hyperperiod_overflow_is_loud():
    with pytest.raises(TickOverflowError):
        hyperperiod([2**40, 3**27])
    with pytest.raises(TaskSetError):
        hyperperiod([0])


def chain_schedule(entries):
    return ScheduleMap.from_entries(
        1 + max(e[3] for e in entries),
        [ScheduleEntry(d, n, k, c, s, f) for (d, n, k, c, s, f) in entries],
    )


def test_validate_chain_ok():
    ts = TaskSet.build([chain_dag()])
    mp = chain_schedule([(1, 1, 0, 0, 6, 8), (1, 2, 0, 0, 8, 10)])
    report = validate_schedule(mp, ts)
    assert report.ok and not report.violations


def test_validate_precedence_violation():
    ts = TaskSet.build([chain_dag()])
    mp = chain_schedule([(1, 1, 0, 0, 6, 8), (1, 2, 0, 1, 7, 9)])
    report = validate_schedule(mp, ts)
    assert not report.ok
    assert [v.kind for v in report.violations] == ["precedence"]


def test_validate_deadline_violation():
    ts = TaskSet.build([chain_dag()])
    mp = chain_schedule([(1, 1, 0, 0, 6, 8), (1, 2, 0, 0, 9, 11)])
    report = validate_schedule(mp, ts)
    kinds = {v.kind for v in report.violations}
    assert "deadline" in kinds


def test_validate_release_duration_overlap_unknown():
    ts = TaskSet.build(
        [single_node_dag(period=5, wcet=3), single_node_dag(dag_id=2, period=10, wcet=1)]
    )
    assert ts.hyperperiod == 10
    entries = [
        ScheduleEntry(1, 1, 0, 0, 0, 3),
        ScheduleEntry(2, 1, 0, 0, 2, 3),   # overlaps the entry above
        ScheduleEntry(1, 1, 1, 1, 2, 5),   # starts before its release at 5
        ScheduleEntry(1, 9, 0, 1, 6, 7),   # unknown node
    ]
    report = validate_schedule(ScheduleMap.from_entries(2, entries), ts)
    kinds = sorted(v.kind for v in report.violations)
    assert "overlap" in kinds
    assert "release" in kinds
    assert "unknown_node" in kinds

    bad_duration = validate_schedule(
        ScheduleMap.from_entries(1, [ScheduleEntry(1, 1, 0, 0, 0, 4)]), ts
    )
    assert any(v.kind == "duration" for v in bad_duration.violations)


def test_validate_duplicate_instance_reported():
    ts = TaskSet.build([single_node_dag(period=10, wcet=3)])
    entries = [ScheduleEntry(1, 1, 0, 0, 0, 3), ScheduleEntry(1, 1, 0, 1, 4, 7)]
    report = validate_schedule(ScheduleMap.from_entries(2, entries), ts)
    assert any(v.kind == "unknown_node" and "duplicate" in v.where for v in report.violations)


def test_validate_empty_map_missing_job_count():
    ts = TaskSet.build([diamond_dag(period=8), chain_dag(dag_id=2, period=4)])
    report = validate_schedule(ScheduleMap.from_entries(0, []), ts)
    expected = 4 * (8 // 8) + 2 * (8 // 4)
    assert len(report.violations) == expected
    assert all(v.kind == "missing_job" for v in report.violations)


def test_validate_is_order_insensitive():
    ts = TaskSet.build([chain_dag()])
    entries = [ScheduleEntry(1, 1, 0, 0, 6, 8), ScheduleEntry(1, 2, 0, 0, 8, 10)]
    rng = random.Random(3)
    for _ in range(5):
        rng.shuffle(entries)
        assert validate_schedule(ScheduleMap.from_entries(1, entries), ts).ok


def test_validator_text_of_every_violation_kind():
    # one schedule with all seven kinds, a duplicate placement among them;
    # the strings are pinned so that no check's wording or order drifts
    ts = TaskSet.build([
        build_dag(1, 10, {1: 2, 2: 2}, [(1, 2)]),
        build_dag(2, 5, {1: 3}),
        build_dag(3, 10, {1: 1, 2: 2, 3: 1}, [(2, 3)]),
    ])
    entries = [
        ScheduleEntry(1, 1, 0, 0, 0, 2),
        ScheduleEntry(2, 1, 0, 0, 1, 4),    # overlaps the entry above
        ScheduleEntry(1, 2, 0, 1, 1, 3),    # starts before its parent finishes
        ScheduleEntry(2, 1, 1, 1, 4, 6),    # before its release, too short
        ScheduleEntry(3, 3, 0, 1, 7, 8),    # before its parent finishes
        ScheduleEntry(1, 9, 0, 2, 0, 1),    # unknown node
        ScheduleEntry(1, 1, 0, 2, 3, 5),    # duplicate placement
        ScheduleEntry(3, 2, 0, 2, 9, 11),   # after its deadline; dag 3 node 1 missing
    ]
    report = validate_schedule(ScheduleMap.from_entries(3, entries), ts)
    assert not report.ok
    assert [(v.kind, v.where) for v in report.violations] == [
        ("deadline", "dag 3 node 2 job 0 on core 2: finishes 11 after deadline 10"),
        ("duration", "dag 2 node 1 job 1 on core 1: runs 2 ticks, wcet is 3"),
        ("missing_job", "dag 3 node 1 job 0: never scheduled"),
        ("overlap", "core 0: dag 2 node 1 job 0 [1,4) overlaps dag 1 node 1 job 0 [0,2)"),
        ("precedence", "dag 1 job 0: node 1 finishes 2 after child 2 starts 1"),
        ("precedence", "dag 3 job 0: node 2 finishes 11 after child 3 starts 7"),
        ("release", "dag 2 node 1 job 1 on core 1: starts 4 before release 5"),
        ("unknown_node", "dag 1 node 1 job 0 on core 2: duplicate placement"),
        ("unknown_node", "dag 1 node 9 job 0 on core 2: no such job instance"),
    ]


def test_schedule_entry_is_an_immutable_tuple():
    e = ScheduleEntry(1, 2, 3, 4, 5, 6)
    assert e == (1, 2, 3, 4, 5, 6) and hash(e) == hash((1, 2, 3, 4, 5, 6))
    assert e == ScheduleEntry(1, 2, 3, 4, 5, 6) and e != ScheduleEntry(1, 2, 3, 4, 5, 7)
    dag_id, node_id, job, core, start, finish = e
    assert (dag_id, node_id, job, core, start, finish) == (e.dag_id, e.node_id, e.job,
                                                          e.core, e.start, e.finish)
    with pytest.raises(AttributeError):
        e.start = 0


@st.composite
def schedule_maps(draw):
    num_cores = draw(st.one_of(st.integers(0, 4), st.integers(5, 5000)))
    if not num_cores:
        return ScheduleMap.from_entries(0, [])
    tick = st.integers(-(2**20), 2**64 - 1)
    entry = st.builds(ScheduleEntry, tick, tick, tick, st.integers(0, num_cores - 1), tick, tick)
    return ScheduleMap.from_entries(num_cores, draw(st.lists(entry, max_size=30)))


def assert_writes_reference_document(mp):
    assert dumps_schedule(mp) == json.dumps(reference_schedule_doc(mp), indent=2) + "\n"


@settings(max_examples=200, deadline=None)
@given(schedule_maps())
def test_schedule_writer_matches_json_on_any_map(mp):
    assert_writes_reference_document(mp)


def test_schedule_writer_matches_json_on_default_collections():
    cfg = GenConfig()
    for c in range(40):
        ts, _ = generate_taskset(cfg, c)
        assert_writes_reference_document(schedule_taskset(ts))
        for m in (1, 2, 3, 4, 8, 16):
            assert_writes_reference_document(gedf_np_simulate(ts, m).trace)


def test_schedule_document_round_trip_and_sorted():
    entries = [
        ScheduleEntry(1, 2, 0, 1, 5, 7),
        ScheduleEntry(1, 1, 0, 0, 6, 8),
        ScheduleEntry(1, 3, 0, 0, 0, 2),
    ]
    mp = ScheduleMap.from_entries(2, entries)
    text = dumps_schedule(mp)
    doc_entries = json.loads(text)["entries"]
    keys = [(e["core"], e["start"]) for e in doc_entries]
    assert keys == sorted(keys)
    again = load_schedule(text)
    assert dumps_schedule(again) == text


def test_taskset_document_round_trip():
    ts = TaskSet.build([diamond_dag(), chain_dag(dag_id=2, period=4)])
    text = dumps_taskset(ts)
    again = load_taskset(text)
    assert dumps_taskset(again) == text
    assert again.hyperperiod == ts.hyperperiod


def replay_shaped(seed: int, collections: int) -> GenConfig:
    # the task sets of the replay benchmark: wide DAGs, sparse edges
    return GenConfig(collections=collections, dags_per_collection=5, edge_prob=0.15,
                     nodes_per_dag=(30, 60), period_menu=(100, 200), seed=seed)


@st.composite
def task_sets(draw):
    # One base period scaled by 1, 2 or 4 keeps the hyperperiod within the
    # job budget; ids run past 32 bits both ways; nodes and edges may be absent.
    base = draw(st.integers(1, 2**61))
    node_id = st.one_of(st.integers(-(2**70), -1), st.integers(0, 99), st.integers(2**32, 2**70))
    dags = []
    for dag_id in range(1, draw(st.integers(0, 4)) + 1):
        ids = draw(st.lists(node_id, max_size=8, unique=True))
        wcets = {nid: draw(st.integers(1, 2**64 - 1)) for nid in ids}
        edges = []
        if ids:
            at = st.integers(0, len(ids) - 1)
            pairs = draw(st.lists(st.tuples(at, at), max_size=12))
            # an edge from the earlier drawn id to the later one: never a cycle
            edges = [(ids[i], ids[j]) for i, j in pairs if i < j]
        period = base * draw(st.sampled_from((1, 2, 4)))
        dags.append(build_dag(dag_id, period, wcets, edges))
    return TaskSet.build(dags)


def assert_writes_reference_taskset(ts):
    assert dumps_taskset(ts) == json.dumps(reference_taskset_doc(ts), indent=2) + "\n"


@settings(max_examples=200, deadline=None)
@given(task_sets())
@example(TaskSet.build([]))
@example(TaskSet.build([build_dag(1, 5, {}), build_dag(2, 10, {-1: 3, 2**40: 1})]))
def test_taskset_writer_matches_json_on_any_set(ts):
    assert_writes_reference_taskset(ts)


def test_taskset_writer_matches_json_on_generated_collections():
    for cfg, count in ((GenConfig(), 40), (replay_shaped(1, 8), 8)):
        for c in range(count):
            assert_writes_reference_taskset(generate_taskset(cfg, c)[0])


def test_taskset_writer_peak_allocation_stays_near_the_document():
    # json's indented encoder peaks near 8.5x the document; the templates
    # hold each DAG's text and the one joined document, about 2x
    ts, _ = generate_taskset(replay_shaped(1, 1), 0)
    size = len(dumps_taskset(ts))
    with allocation_limit(5 * size):
        dumps_taskset(ts)


def test_schedule_entry_core_out_of_range():
    with pytest.raises(TaskSetError, match="core"):
        ScheduleMap.from_entries(1, [ScheduleEntry(1, 1, 0, 3, 0, 1)])


def test_zero_node_dag_loads_and_validates():
    ts = load_taskset(doc([{"id": 1, "period": 5, "nodes": [], "edges": []}]))
    dag = ts.dag(1)
    assert dag.total_work == 0 and dag.cp_length == 0
    assert validate_schedule(ScheduleMap.from_entries(0, []), ts).ok


def test_duplicate_edges_collapse():
    dag = build_dag(1, 10, {1: 2, 2: 2}, [(1, 2), (1, 2)])
    assert dag.node(1).children == (2,)
    assert dag.node(2).parents == (1,)


def test_huge_periods_stay_exact():
    # 64-bit-scale ticks flow through the whole model without rounding
    dag = build_dag(1, 2**62, {1: 5})
    ts = TaskSet.build([dag])
    assert ts.hyperperiod == 2**62


def test_job_budget_names_each_dag():
    # about 4.6e18 ticks: roughly 2e9 jobs per DAG, rejected at load time
    text = doc([
        {"id": 1, "period": 2147483647, "nodes": [{"id": 1, "wcet": 1}]},
        {"id": 2, "period": 2147483629, "nodes": [{"id": 1, "wcet": 1}, {"id": 2, "wcet": 1}]},
    ])
    with pytest.raises(TaskSetError, match=r"over the budget of 1000000 "
                       r"\(dag 1: 2147483629, dag 2: 4294967294\)"):
        load_taskset(text)


def test_job_budget_is_inclusive():
    # a period-1 DAG beside one of period p expands to p + 1 jobs
    def two_dags(p):
        return doc([
            {"id": 1, "period": 1, "nodes": [{"id": 1, "wcet": 1}]},
            {"id": 2, "period": p, "nodes": [{"id": 1, "wcet": 1}]},
        ])

    assert load_taskset(two_dags(JOB_BUDGET - 1)).hyperperiod == JOB_BUDGET - 1
    with pytest.raises(TaskSetError, match="budget"):
        load_taskset(two_dags(JOB_BUDGET))


def test_job_budget_counts_no_releases_of_a_dag_without_nodes():
    # a node-less DAG holds no job, so however often it releases it costs
    # nothing; a one-node DAG in its place counts one job per release
    def beside_a_long_period(nodes):
        return doc([
            {"id": 1, "period": 1, "nodes": nodes},
            {"id": 2, "period": JOB_BUDGET + 1, "nodes": [{"id": 1, "wcet": 1}]},
        ])

    with allocation_limit():
        assert load_taskset(beside_a_long_period([])).hyperperiod == JOB_BUDGET + 1
    with allocation_limit(), pytest.raises(
        TaskSetError, match=r"expands to 1000002 jobs, over the budget of 1000000 "
                            r"\(dag 1: 1000001, dag 2: 1\)"
    ):
        load_taskset(beside_a_long_period([{"id": 1, "wcet": 1}]))


def test_validator_allocates_nothing_per_release_of_a_dag_without_nodes():
    # 10**9 releases of a node-less DAG hold no job, so the validator
    # neither keeps nor walks anything for them
    ts = load_taskset(doc([
        {"id": 1, "period": 1, "nodes": []},
        {"id": 2, "period": 10**9, "nodes": [{"id": 1, "wcet": 1}]},
    ]))
    mp = ScheduleMap.from_entries(1, [ScheduleEntry(2, 1, 0, 0, 0, 1)])
    with allocation_limit():
        report = validate_schedule(mp, ts)
    assert report.ok


def test_schedule_core_count_is_bounded_before_allocating():
    # a schedule map holds one lane slot per core, so the count is checked first
    text = json.dumps({"num_cores": JOB_BUDGET + 1, "entries": []})
    with allocation_limit(), pytest.raises(
        TaskSetError, match=f"num_cores must be in 0..{JOB_BUDGET}, got {JOB_BUDGET + 1}"
    ):
        load_schedule(text)


def test_empty_cores_of_a_large_schedule_cost_no_lanes():
    # cores without entries share one empty lane, so a large declared core
    # count costs one slot per core, not one list per core
    text = json.dumps({"num_cores": 1_000_000, "entries": []})
    with allocation_limit(24 << 20):
        mp = load_schedule(text)
    assert mp.num_cores == len(mp.cores) == 1_000_000
    assert mp.used_cores == 0


def test_validator_catches_targeted_corruptions():
    # every mutation below provably breaks one rule; the validator must
    # flag that kind (possibly among others) on every random instance
    from dagsched.bench import GenConfig, generate_taskset
    from dagsched.scheduler import schedule_taskset

    rng = random.Random(606)
    checked = {kind: 0 for kind in ("duration", "missing_job", "unknown_node",
                                    "precedence", "release", "deadline")}
    for i in range(25):
        cfg = GenConfig(collections=1, dags_per_collection=3, edge_prob=0.7,
                        nodes_per_dag=(2, 7), wcet_range=(1, 5),
                        period_menu=(6, 12), seed=700 + i)
        ts, _ = generate_taskset(cfg, 0)
        base = schedule_taskset(ts)
        entries = list(base.entries())
        assert validate_schedule(base, ts).ok

        def rebuilt(mutated):
            cores = 1 + max(e.core for e in mutated)
            return validate_schedule(ScheduleMap.from_entries(cores, mutated), ts)

        def kinds_of(report):
            return {v.kind for v in report.violations}

        victim = entries[rng.randrange(len(entries))]
        rest = [e for e in entries if e is not victim]
        wcet = ts.dag(victim.dag_id).node(victim.node_id).wcet
        period = ts.dag(victim.dag_id).period

        # run one tick too long
        longer = ScheduleEntry(victim.dag_id, victim.node_id, victim.job,
                               victim.core, victim.start, victim.start + wcet + 1)
        assert "duration" in kinds_of(rebuilt(rest + [longer]))
        checked["duration"] += 1

        # drop the instance entirely
        assert "missing_job" in kinds_of(rebuilt(rest))
        checked["missing_job"] += 1

        # reference a node that does not exist
        ghost = ScheduleEntry(victim.dag_id, 999, victim.job, victim.core,
                              victim.start, victim.start + 1)
        assert "unknown_node" in kinds_of(rebuilt(entries + [ghost]))
        checked["unknown_node"] += 1

        # finish after the absolute deadline
        late = ScheduleEntry(victim.dag_id, victim.node_id, victim.job, victim.core,
                             (victim.job + 1) * period - wcet + 1,
                             (victim.job + 1) * period + 1)
        assert "deadline" in kinds_of(rebuilt(rest + [late]))
        checked["deadline"] += 1

        # start before the release (needs a later job instance)
        job1 = [e for e in entries if e.job > 0]
        if job1:
            v = job1[rng.randrange(len(job1))]
            w = ts.dag(v.dag_id).node(v.node_id).wcet
            early = ScheduleEntry(v.dag_id, v.node_id, v.job, v.core,
                                  v.job * ts.dag(v.dag_id).period - 1,
                                  v.job * ts.dag(v.dag_id).period - 1 + w)
            others = [e for e in entries if e is not v]
            assert "release" in kinds_of(rebuilt(others + [early]))
            checked["release"] += 1

        # slide a child on top of its parent
        broken = None
        for e in entries:
            node = ts.dag(e.dag_id).node(e.node_id)
            if node.parents:
                parent = next(
                    x for x in entries
                    if x.dag_id == e.dag_id and x.node_id == node.parents[0] and x.job == e.job
                )
                w = node.wcet
                broken = [x for x in entries if x is not e] + [
                    ScheduleEntry(e.dag_id, e.node_id, e.job, e.core,
                                  parent.start, parent.start + w)
                ]
                break
        if broken is not None:
            assert "precedence" in kinds_of(rebuilt(broken))
            checked["precedence"] += 1

    assert all(count > 0 for count in checked.values()), checked


# --- equality with the reference validator ------------------------------------


def _corrupt(rng, ts, lanes):
    """A copy of lanes with one seeded corruption applied."""
    lanes = [list(lane) for lane in lanes]
    lane = rng.choice([lane for lane in lanes if lane])
    j = rng.randrange(len(lane))
    e = lane[j]
    period = ts.dag(e.dag_id).period if e.dag_id <= len(ts.dags) else 1
    kind = rng.choice(("shift", "stretch", "drop", "duplicate", "ghost_dag", "ghost_node",
                       "job_before", "job_after", "move", "shuffle", "nest"))
    if kind == "shift":
        d = rng.choice((-3, -1, 1, 2, period))
        lane[j] = e._replace(start=e.start + d, finish=e.finish + d)
    elif kind == "stretch":
        lane[j] = e._replace(finish=e.finish + rng.choice((-1, 1, 3)))
    elif kind == "drop":
        del lane[j]
    elif kind == "duplicate":
        lanes[rng.randrange(len(lanes))].append(e._replace(start=e.start + 1, finish=e.finish + 1))
    elif kind == "ghost_dag":
        lane[j] = e._replace(dag_id=len(ts.dags) + 1)
    elif kind == "ghost_node":
        lane[j] = e._replace(node_id=999)
    elif kind == "job_before":
        lane[j] = e._replace(job=-1)
    elif kind == "job_after":
        lane[j] = e._replace(job=ts.hyperperiod // period)
    elif kind == "move":  # the entry keeps its core field on another lane
        lanes[rng.randrange(len(lanes))].append(lane.pop(j))
    elif kind == "shuffle":
        rng.shuffle(lane)
    else:  # a long entry over several others of its lane
        lane.insert(0, e._replace(start=e.start - 2, finish=e.finish + 3 * period))
    return lanes


def _oracle_corpus():
    """(task set, schedule map) pairs to validate.

    Scheduler outputs and full GEDF-NP traces on ceil(U) cores (deadline
    misses included) of default and replay-shaped sets, each clean and under
    seeded corruptions, against the set and against the set plus a DAG
    without nodes.  Lanes are built directly, so they may be unsorted and
    hold entries whose core field names another lane.
    """
    replay = GenConfig(collections=3, dags_per_collection=5, edge_prob=0.15,
                       nodes_per_dag=(30, 60), period_menu=(100, 200), seed=1)
    sets = [generate_taskset(GenConfig(), c)[0] for c in range(10)]
    sets += [generate_taskset(replay, c)[0] for c in range(replay.collections)]
    rng = random.Random(2525)
    for ts in sets:
        bound = math.ceil(sum(dag.utilization for dag in ts.dags))
        maps = [gedf_np_simulate(ts, bound).trace, schedule_taskset(ts)]
        empty = build_dag(len(ts.dags) + 1, rng.choice((1, 7, ts.hyperperiod)), {})
        for ts_ in (ts, TaskSet.build(ts.dags + (empty,))):
            for mp in maps:
                yield ts_, mp
                for _ in range(6):
                    lanes = mp.cores
                    for _ in range(rng.randint(1, 4)):
                        lanes = _corrupt(rng, ts_, lanes)
                    yield ts_, ScheduleMap(len(lanes), tuple(map(tuple, lanes)))


def test_validator_matches_the_reference_on_a_corrupted_corpus():
    kinds = set()
    misses = oks = 0
    for ts, mp in _oracle_corpus():
        report = validate_schedule(mp, ts)
        assert report == reference_validate_schedule(mp, ts)
        kinds.update(v.kind for v in report.violations)
        oks += report.ok
        misses += not report.ok and {v.kind for v in report.violations} == {"deadline"}
    assert kinds == {"overlap", "precedence", "deadline", "release", "duration",
                     "missing_job", "unknown_node"}
    assert oks and misses


def test_validator_reads_jobs_that_equal_an_integer_as_the_reference_does():
    # in-memory entries may carry True or 1.0 where an int belongs; equal
    # values name the same job, others name none
    ts = TaskSet.build([chain_dag(period=5), single_node_dag(dag_id=2, period=10)])
    for job in (True, 1.0, 1.5, float("inf"), float("nan"), "1", None):
        entries = [
            ScheduleEntry(1, 1, 0, 0, 0, 2), ScheduleEntry(1, 2, 0, 0, 2, 4),
            ScheduleEntry(1, 1, job, 0, 5, 7), ScheduleEntry(1, 2.0, 1, 1, 6, 8),
            ScheduleEntry(True, 1, 1, 1, 9, 11), ScheduleEntry(2, 1, 0, 1, 0, 2),
        ]
        mp = ScheduleMap(2, (tuple(entries[:3]), tuple(entries[3:])))
        assert validate_schedule(mp, ts) == reference_validate_schedule(mp, ts), job
