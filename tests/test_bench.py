from __future__ import annotations

import dataclasses
import hashlib
import json
import re

import pytest

from dagsched import bench
from dagsched.baseline import gedf_np_simulate
from dagsched.bench import (
    BASELINE,
    PROPOSED,
    GenConfig,
    GenerationError,
    Row,
    _run_collection,
    dumps_report,
    dumps_report_csv,
    export_report,
    generate_taskset,
    load_report,
    render_gantt,
    run_experiment,
)
from dagsched.model import (
    JOB_BUDGET,
    ScheduleEntry,
    ScheduleMap,
    TaskSet,
    TaskSetError,
    build_dag,
    dumps_taskset,
    load_schedule,
    validate_schedule,
)
from dagsched.scheduler import schedule_taskset

from helpers import allocation_limit, diamond_dag, job_count
from reference_gedf import reference_gedf_np_simulate

TINY = GenConfig(
    collections=4,
    dags_per_collection=2,
    edge_prob=0.5,
    nodes_per_dag=(1, 5),
    wcet_range=(1, 4),
    period_menu=(6, 12),
    seed=9,
)


def test_generate_p0_has_no_edges():
    cfg = GenConfig(edge_prob=0.0, nodes_per_dag=(6, 6), wcet_range=(1, 3), period_menu=(50,))
    dag = generate_taskset(cfg, 0)[0].dags[0]
    assert all(not n.parents and not n.children for n in dag.nodes)
    assert dag.cp_length == max(n.wcet for n in dag.nodes)


def test_generate_p1_is_a_total_chain():
    cfg = GenConfig(edge_prob=1.0, nodes_per_dag=(5, 5), wcet_range=(1, 3), period_menu=(50,))
    dag = generate_taskset(cfg, 0)[0].dags[0]
    assert dag.cp_length == dag.total_work
    # labels follow the topological order: every i -> j edge has i < j
    for node in dag.nodes:
        assert all(c > node.node_id for c in node.children)
        assert node.children == tuple(range(node.node_id + 1, 6))


def test_generate_respects_feasibility():
    cfg = GenConfig(nodes_per_dag=(4, 10), wcet_range=(1, 10), period_menu=(10, 20, 40), seed=3)
    for c in range(20):
        ts, _ = generate_taskset(cfg, c)
        for dag in ts.dags:
            assert dag.cp_length <= dag.period


def test_generation_is_deterministic():
    a, ra = generate_taskset(TINY, 0)
    b, rb = generate_taskset(TINY, 0)
    assert dumps_taskset(a) == dumps_taskset(b)
    assert ra == rb
    other, _ = generate_taskset(TINY, 1)
    assert dumps_taskset(other) != dumps_taskset(a)


REPLAY_SHAPED = GenConfig(
    dags_per_collection=5, edge_prob=0.15, nodes_per_dag=(30, 60), period_menu=(100, 200), seed=1
)
DOOMED = GenConfig(nodes_per_dag=(10, 40), period_menu=(50, 100), seed=2)


@pytest.mark.parametrize(
    "cfg,digests",
    [
        (GenConfig(seed=0), [
            "15cabbf7a7983f8af5014cb8c64b8234b35d175e41c23cc1baa06cdd1f659e18",
            "b07581bea19bd8991b62ef1b240a3bf330425d625f13810de7d81ab702a7cde3",
            "ca2dea68c3ef1ba58c3b2d6d7d0f7b55a21d02ec1048f4e8e82cc1ec88d25bfa",
            "d8cbf8f1d56f098f9110ae96e9cbcaa3cefd3ceaebfae13fd75e664f61c8da5a",
        ]),
        (REPLAY_SHAPED, [
            "b4e625abc2d12e8f0effe67d82f87804282f514e08c8f44712997553d5799afb",
            "e5588554260883c4022f0285db3b356dbfb6354cc2c600f6b81538012eeac23e",
        ]),
        # width-1 ranges and a one-period menu still consume their bits
        (GenConfig(nodes_per_dag=(3, 3), wcet_range=(4, 4), period_menu=(77,), seed=5), [
            "e26746bc7b39478a0d361b7a0a763f8c2998e2ff8bff1adafeff866a955b192f",
            "d3de9e40e22d488e2f1e9f266d0a668179d7e2dc21a819d0f25c43c8af1bd1b0",
            "aa6efb98718fe1c0f8dc3f5b7c644113ede5df6880bedfbfa960a2830e5b41fd",
            "2a76282577612ef68a9e8965d496f5aa82f31956902bf9a5c29c2838dcb042a0",
        ]),
        # most rejected draws here pass the longest period before their
        # last edge is drawn, so they skip the rest of their draws
        (DOOMED, [
            "2d5cddf29ad7371d3f569fb6e2b3632e7546e9c5db57ea9cb1e0ab3330eab6e1",
            "24c4f86458236e07e3f4c437e856c2553a2f9a0792eb1288b51e5779702ba1c0",
            "96f6fe1726ba43c8f25bdc5b9a6f218461982ec187f3c378fdacdd260a300e17",
            "8030e6573002646ec0f005b9cca778df98d34501011b0b84ba1a64416dcef20d",
        ]),
    ],
    ids=["default", "replay-shaped", "width-1", "doomed"],
)
def test_generated_documents_are_pinned(cfg, digests):
    # Python does not promise the same randint/choice sequences across
    # versions, and the generator draws its bits directly: every Python
    # the project supports must write these exact documents.
    docs = [dumps_taskset(generate_taskset(cfg, c)[0]) for c in range(len(digests))]
    assert [hashlib.sha256(d.encode()).hexdigest() for d in docs] == digests


def draw_every_edge(cfg, rng, dag_id):
    """_draw_dag as it was before draws that cannot fit stopped early: every
    edge is drawn, then the period.  Returns the DAG and whether it fits."""
    def below(n):
        k = n.bit_length()
        r = rng.getrandbits(k)
        while r >= n:
            r = rng.getrandbits(k)
        return r

    lo, hi = cfg.nodes_per_dag
    n = lo + below(hi - lo + 1)
    lo, hi = cfg.wcet_range
    wcets = {nid: lo + below(hi - lo + 1) for nid in range(1, n + 1)}
    edges = [(i, j) for i in range(1, n + 1) for j in range(i + 1, n + 1)
             if rng.random() < cfg.edge_prob]
    period = cfg.period_menu[below(len(cfg.period_menu))]
    dag = build_dag(dag_id, period, wcets, edges)
    return dag, dag.cp_length <= period


@pytest.mark.parametrize("cfg,draws", [
    (DOOMED, 60),
    (GenConfig(nodes_per_dag=(300, 300)), 3),
    (GenConfig(nodes_per_dag=(400, 400), edge_prob=1.0, wcet_range=(60, 60)), 2),
], ids=["doomed", "300-nodes", "two-blocks"])
def test_a_draw_that_cannot_fit_leaves_the_stream_where_a_full_draw_does(cfg, draws):
    # the 400-node chain of wcet 60 passes period 100 at node 2, leaving
    # 79,401 edge draws: more than one block of skipped bits
    ours, theirs = (bench.stream(1, "dag", 1) for _ in range(2))
    doomed = 0
    for _ in range(draws):
        got, n = bench._draw_dag(cfg, ours, 1)
        want, fits = draw_every_edge(cfg, theirs, 1)
        assert n == len(want.nodes)
        assert ours.getstate() == theirs.getstate()
        assert (got is not None) == fits
        if fits:
            assert dumps_taskset(TaskSet.build([got])) == dumps_taskset(TaskSet.build([want]))
        doomed += want.cp_length > max(cfg.period_menu)
    assert doomed


def test_config_round_trip_and_validation():
    assert GenConfig.from_doc(TINY.to_doc()) == TINY
    with pytest.raises(ValueError):
        GenConfig(edge_prob=1.5)
    with pytest.raises(ValueError):
        GenConfig(nodes_per_dag=(3, 2))
    with pytest.raises(ValueError):
        GenConfig(period_menu=())
    with pytest.raises(ValueError, match="unknown config fields"):
        GenConfig.from_doc({"edge_probability": 0.5})
    with pytest.raises(ValueError, match="collections must be >= 0"):
        GenConfig(collections=-1)
    with pytest.raises(ValueError, match="config document must be an object"):
        GenConfig.from_doc([])


def test_config_holding_more_jobs_than_the_budget_fails_fast():
    # every DAG has at least nodes_per_dag[0] nodes released at least once
    GenConfig(dags_per_collection=JOB_BUDGET // 5, nodes_per_dag=(5, 9))
    GenConfig(dags_per_collection=JOB_BUDGET, nodes_per_dag=(1, 1))
    with pytest.raises(ValueError, match=f"1000005 jobs .* {JOB_BUDGET}"):
        GenConfig.from_doc({"dags_per_collection": 200001, "nodes_per_dag": [5, 5]})
    with pytest.raises(ValueError, match="job budget"):
        GenConfig(dags_per_collection=JOB_BUDGET + 1, nodes_per_dag=(1, 1))


@pytest.mark.parametrize(
    "value,field",
    [(v, f) for v in (2.7, "5", True) for f in ("collections", "seed", "nodes_per_dag")]
    + [("0.5", "edge_prob"), (True, "edge_prob")],
)
def test_config_rejects_non_integers(field, value):
    # edge_prob is the one float field: any number but a bool passes
    doc = TINY.to_doc()
    doc[field] = [value, 8] if field == "nodes_per_dag" else value
    kind = "a number" if field == "edge_prob" else "an integer"
    with pytest.raises(ValueError, match=f"{field}: must be {kind}"):
        GenConfig.from_doc(doc)


@pytest.mark.parametrize(
    "field,value",
    [
        ("nodes_per_dag", 5), ("nodes_per_dag", [5]), ("wcet_range", None),
        ("wcet_range", [1, 2, 3]), ("period_menu", 5), ("period_menu", None),
    ],
)
def test_config_rejects_malformed_lists(field, value):
    # the two ranges take exactly two integers, the period menu any number
    doc = TINY.to_doc()
    doc[field] = value
    match = "must be a list" if field == "period_menu" else "must be a list of two integers"
    with pytest.raises(ValueError, match=f"config field {field}: {match}, got"):
        GenConfig.from_doc(doc)


def test_generation_gives_up_after_the_draw_budget():
    # every draw is a 5-node chain of wcet 10: critical path 50 > period 10
    cfg = GenConfig(edge_prob=1.0, nodes_per_dag=(5, 5), wcet_range=(10, 10), period_menu=(10,))
    with pytest.raises(GenerationError, match=r"collection 0, dag 1\b"):
        generate_taskset(cfg, 0)


def test_generation_gives_up_after_the_edge_budget(monkeypatch):
    # 1000-node DAGs never fit any period: each attempt costs 499500 edge
    # draws, so the budget ends the collection long before MAX_DRAWS
    cfg = GenConfig(collections=1, dags_per_collection=1, nodes_per_dag=(1000, 1000))
    real, attempts = bench._draw_dag, []

    def counted(*args):
        attempts.append(1)
        return real(*args)

    monkeypatch.setattr(bench, "_draw_dag", counted)
    with pytest.raises(GenerationError, match=rf"within {bench.EDGE_BUDGET} edge draws, "
                                              r"after 17 draws \(collection 0, dag 1\b"):
        generate_taskset(cfg, 0)
    assert len(attempts) == bench.EDGE_BUDGET // 499500 + 1 == 17


def test_trivial_experiment_rates_are_one():
    cfg = GenConfig(collections=1, dags_per_collection=1, nodes_per_dag=(1, 1),
                    wcet_range=(1, 1), period_menu=(5,), seed=1)
    report = run_experiment(cfg, [1])
    s = report.summary[0]
    assert s.proposed_success_rate == 1.0
    assert s.baseline_success_rate == 1.0
    assert len(report.rows) == 2  # one collection, one m, two algorithms


def test_experiment_core_count_is_bounded_before_any_collection_runs():
    with allocation_limit(), pytest.raises(ValueError, match=f"in 1..{JOB_BUDGET}"):
        run_experiment(TINY, [4, JOB_BUDGET + 1])


def test_experiment_rejects_a_repeated_core_count():
    # each m's summary counts its rows, so a repeated m would count every
    # collection twice and read a success rate of 2.0
    with pytest.raises(ValueError, match="repeats core count 16"):
        run_experiment(GenConfig(collections=3, seed=0), [16, 16])


def test_experiment_rows_match_direct_calls():
    # the harness schedules each collection once and compares its core
    # count with each m; that must agree with the scheduler's map
    report = run_experiment(TINY, [1, 2, 4])
    for c in range(TINY.collections):
        ts, _ = generate_taskset(TINY, c)
        used = schedule_taskset(ts).num_cores
        for m in (1, 2, 4):
            row = next(
                r for r in report.rows
                if r.collection == c and r.m == m and r.algorithm == PROPOSED
            )
            assert (row.success, row.cores_used) == (used <= m, used)
            sim = gedf_np_simulate(ts, m)
            brow = next(
                r for r in report.rows
                if r.collection == c and r.m == m and r.algorithm == BASELINE
            )
            assert brow.success == sim.success


def test_summary_matches_rows():
    report = run_experiment(TINY, [1, 2])
    for s in report.summary:
        prop = [r for r in report.rows if r.m == s.m and r.algorithm == PROPOSED]
        base = [r for r in report.rows if r.m == s.m and r.algorithm == BASELINE]
        assert s.proposed_successes == sum(r.success for r in prop)
        assert s.baseline_successes == sum(r.success for r in base)
        assert s.proposed_success_rate == s.proposed_successes / s.collections
        utils = [r.utilization for r in prop if r.success]
        if utils:
            assert s.proposed_utilization == sum(utils) / len(utils)


def busy(mp) -> int:
    """The busy ticks of a schedule map, summed over its entries."""
    return sum(e.finish - e.start for e in mp.entries())


def one_full_run_per_core_count(cfg: GenConfig, ms: tuple[int, ...], c: int):
    """_run_collection spelled out with the reference GEDF-NP simulator:
    one full simulation, and one validation of each success, per core
    count, in the order given."""
    ts, redraws = generate_taskset(cfg, c)
    mp = schedule_taskset(ts)
    assert validate_schedule(mp, ts).ok
    used = mp.num_cores
    p_util = busy(mp) / (used * ts.hyperperiod)
    rows = []
    for m in ms:
        p_ok = used <= m
        rows.append(
            Row(c, m, PROPOSED, p_ok, used, p_util if p_ok else None, ts.hyperperiod, cfg.seed)
        )
        sim = reference_gedf_np_simulate(ts, m)
        b_used = sim.trace.used_cores
        b_util = None
        if sim.success:
            assert validate_schedule(sim.trace, ts).ok
            if b_used:
                b_util = busy(sim.trace) / (b_used * ts.hyperperiod)
        rows.append(Row(c, m, BASELINE, sim.success, b_used, b_util, ts.hyperperiod, cfg.seed))
    return rows, redraws


@pytest.mark.parametrize("ms", [(4, 8, 16), (3, 4, 5, 6), (16, 8, 4)])
def test_collection_rows_match_one_full_run_per_core_count(ms, monkeypatch):
    runs = []
    simulate = bench.gedf_np_simulate

    def counted(ts, m):
        sim = simulate(ts, m)
        runs.append(sum(map(len, sim.trace.cores)) == job_count(ts))  # ran to the end
        return sim

    monkeypatch.setattr(bench, "gedf_np_simulate", counted)
    cfg = GenConfig(seed=3)
    collections = 30
    for c in range(collections):
        assert _run_collection(cfg, ms, c) == one_full_run_per_core_count(cfg, ms, c), c
    # one run per core count, each holding every job instance in its trace
    assert len(runs) == collections * len(ms)
    assert all(runs)


def test_success_rate_nondecreasing_in_m():
    report = run_experiment(TINY, [1, 2, 3, 4, 6])
    rates_p = [s.proposed_success_rate for s in report.summary]
    rates_b = [s.baseline_success_rate for s in report.summary]
    assert rates_p == sorted(rates_p)
    assert rates_b == sorted(rates_b)


def test_utilization_accounting():
    report = run_experiment(TINY, [4])
    for r in report.rows:
        if r.success and r.utilization is not None:
            assert 0.0 < r.utilization <= 1.0
    # a map's busy ticks equal the released work
    for c in range(TINY.collections):
        ts, _ = generate_taskset(TINY, c)
        demand = sum((ts.hyperperiod // d.period) * d.total_work for d in ts.dags)
        assert busy(schedule_taskset(ts)) == demand


def test_report_round_trips(tmp_path):
    report = run_experiment(TINY, [1, 2])
    text = dumps_report(report)
    again = load_report(text)
    assert dumps_report(again) == text
    assert dumps_report_csv(again) == dumps_report_csv(report)

    prefix = str(tmp_path / "report")
    json_path, csv_path = export_report(report, prefix)
    assert open(json_path).read() == text
    csv_text = open(csv_path).read()
    header = csv_text.splitlines()[1]
    assert header == "collection,m,algorithm,success,cores_used,utilization,hyperperiod,seed"
    assert len(csv_text.splitlines()) == 2 + len(report.rows)


@pytest.mark.parametrize("text", ["[" * 100000 + "]" * 100000, '{"rows": [}'],
                         ids=["nested-too-deeply", "bad-json"])
def test_report_of_invalid_json_is_a_value_error(text):
    with pytest.raises(ValueError, match="^invalid JSON: "):
        load_report(text)


@pytest.mark.parametrize("text", ["[]", "5"])
def test_report_that_is_not_an_object_is_a_value_error(text):
    with pytest.raises(ValueError, match="^report document must be an object$"):
        load_report(text)


def edited_report(edit) -> str:
    doc = json.loads(dumps_report(run_experiment(TINY, [1, 2])))
    edit(doc)
    return json.dumps(doc)


@pytest.mark.parametrize("edit,field", [
    (lambda d: d.pop("regenerated"), "regenerated"),
    (lambda d: d.pop("config"), "config"),
    (lambda d: d["rows"][3].pop("success"), r"rows\[3\]\.success"),
    (lambda d: d["summary"][1].pop("baseline_utilization"), r"summary\[1\]\.baseline_utilization"),
])
def test_report_missing_a_field_names_it(edit, field):
    with pytest.raises(ValueError, match=f"^report field {field}: missing$"):
        load_report(edited_report(edit))


@pytest.mark.parametrize("edit,field", [
    (lambda d: d.update(rows={}), r"rows: must be list"),
    (lambda d: d.update(core_counts=[1, True]), r"core_counts: must be an integer"),
    (lambda d: d["config"].update(seed="9"), r"config: config field seed: must be an integer"),
    (lambda d: d["rows"].__setitem__(2, [1]), r"rows\[2\]: must be object"),
    (lambda d: d["rows"][0].update(success=1), r"rows\[0\]\.success: must be bool"),
    (lambda d: d["rows"][1].update(cores_used=True), r"rows\[1\]\.cores_used: must be int"),
    (lambda d: d["summary"][0].update(proposed_success_rate="1"),
     r"summary\[0\]\.proposed_success_rate: must be float"),
])
def test_report_with_an_ill_typed_field_names_it(edit, field):
    with pytest.raises(ValueError, match=f"^report field {field}, got "):
        load_report(edited_report(edit))


def test_loaded_report_survives_spot_check(tmp_path):
    from dagsched.bench import spot_check_report

    report = run_experiment(TINY, [1, 4])
    loaded = load_report(dumps_report(report))
    spot_check_report(loaded, sample=2)  # raises on any mismatch
    spot_check_report(dataclasses.replace(loaded, rows=()))  # nothing to rerun

    # a tampered row is caught, and so is a missing one
    def forge(pick, **changes):
        rows = list(loaded.rows)
        victim = next(i for i, r in enumerate(rows) if pick(r))
        rows[victim] = dataclasses.replace(rows[victim], **changes)
        return dataclasses.replace(loaded, rows=tuple(rows))

    with pytest.raises(Exception, match="report says success=True, rerun says False"):
        spot_check_report(forge(lambda r: not r.success, success=True), sample=len(loaded.rows))
    with pytest.raises(Exception, match="collection 0: report says 3 rows, rerun says 4"):
        spot_check_report(dataclasses.replace(loaded, rows=loaded.rows[1:]), sample=1)

    # whole rows are compared: a forged field beside an unchanged success
    def proposed_ok(r):
        return r.algorithm == PROPOSED and r.success

    victim = next(r for r in loaded.rows if proposed_ok(r))
    used = victim.cores_used
    with pytest.raises(Exception, match=f"report says cores_used={used + 1}, rerun says {used}"):
        spot_check_report(forge(proposed_ok, cores_used=used + 1), sample=len(loaded.rows))
    with pytest.raises(Exception, match="report says utilization="):
        spot_check_report(forge(proposed_ok, utilization=victim.utilization / 2),
                          sample=len(loaded.rows))


def test_gantt_empty_map_axes_only():
    ts = TaskSet.build([diamond_dag()])
    svg = render_gantt(ScheduleMap.from_entries(0, []), ts)
    assert svg.startswith("<svg")
    assert "<title>" not in svg  # no task boxes


def test_gantt_diamond_single_lane():
    ts = TaskSet.build([diamond_dag()])
    mp = schedule_taskset(ts)
    svg = render_gantt(mp, ts)
    assert svg.count("<title>") == 4
    assert "core 0" in svg and "core 1" not in svg
    assert render_gantt(mp, ts) == svg  # deterministic


def test_gantt_two_lanes_no_overlap():
    ts = TaskSet.build([diamond_dag(), diamond_dag(dag_id=2)])
    mp = schedule_taskset(ts)
    assert mp.num_cores <= 2
    svg = render_gantt(mp, ts)
    assert "core 0" in svg and f"core {mp.num_cores - 1}" in svg
    assert svg.count("<title>") == 8


def test_gantt_draws_overlapping_and_late_entries():
    # diamond: nodes 1 (w1), 2 (w3), 3 (w2), 4 (w1), period 8; node 4 runs late
    ts = TaskSet.build([diamond_dag()])
    entries = [ScheduleEntry(1, 1, 0, 0, 0, 1), ScheduleEntry(1, 2, 0, 0, 0, 3),
               ScheduleEntry(1, 3, 0, 0, 2, 4), ScheduleEntry(1, 4, 0, 0, 8, 9)]
    mp = ScheduleMap.from_entries(1, entries)
    assert not validate_schedule(mp, ts).ok
    assert render_gantt(mp, ts).count("<title>") == 4


def test_gantt_without_trailing_idle_cores_keeps_its_bytes():
    # sha256 of the SVGs as rendered before idle cores were folded into one
    # row: default collection 0's map, and its GEDF-NP trace on 4 cores,
    # both busy up to their last core
    ts, _ = generate_taskset(GenConfig(), 0)
    for mp, digest in (
        (schedule_taskset(ts),
         "a0baab23f433a1878c11a4710d9fbe38312a89d06db7c9741a4c56e64d3b8bf5"),
        (gedf_np_simulate(ts, 4).trace,
         "b80df8f88875701d35e65fbf7c50f778fea6af2d0ac846da7a0331d432c06564"),
    ):
        assert mp.cores[-1]
        assert hashlib.sha256(render_gantt(mp, ts).encode()).hexdigest() == digest


def test_gantt_folds_trailing_idle_cores_into_one_row():
    ts, _ = generate_taskset(GenConfig(), 0)
    trace = gedf_np_simulate(ts, 16).trace
    shown = trace.used_cores
    assert 0 < shown < 15 and trace.cores[shown - 1] and not trace.cores[shown]
    svg = render_gantt(trace, ts)
    assert f">core {shown - 1}</text>" in svg and f">core {shown}</text>" not in svg
    assert f">{16 - shown} cores {shown}..15 idle</text>" in svg
    assert svg.count("<title>") == sum(len(lane) for lane in trace.cores)
    one_idle = ScheduleMap.from_entries(shown + 1, trace.entries())
    assert f">core {shown} idle</text>" in render_gantt(one_idle, ts)


def test_gantt_of_a_huge_empty_schedule_stays_small():
    ts = TaskSet.build([diamond_dag()])
    mp = load_schedule('{"num_cores": 100000, "entries": []}')
    with allocation_limit(1 << 20):
        svg = render_gantt(mp, ts)
    assert len(svg.encode()) < 64 * 1024
    assert ">100000 cores 0..99999 idle</text>" in svg


@pytest.mark.parametrize("dag_id,node_id,job", [(2, 1, 0), (1, 5, 0), (1, 1, 1), (1, 1, -1)])
def test_gantt_refuses_an_entry_of_another_task_set(dag_id, node_id, job):
    ts = TaskSet.build([diamond_dag()])
    entries = list(schedule_taskset(ts).entries())
    entries.append(ScheduleEntry(dag_id, node_id, job, 1, 0, 1))
    with pytest.raises(TaskSetError, match=f"^dag {dag_id} node {node_id} job {job} on core 1: "
                                           "no such job instance"):
        render_gantt(ScheduleMap.from_entries(2, entries), ts)


def test_gantt_skips_gridlines_closer_than_a_few_pixels():
    # a period-1 DAG beside a period-100000 one: one gridline per release
    # would be 100000 lines 4 px apart (11.8 MB); the period-100000 line stays
    ts = TaskSet.build([build_dag(1, 1, {}), build_dag(2, 100000, {1: 1})])
    svg = render_gantt(load_schedule('{"num_cores": 1, "entries": []}'), ts)
    assert len(svg.encode()) < 64 * 1024
    assert svg.count('stroke-dasharray="3,3"') == 1
    # 4 px per tick would be 400000 px wide: the plot is capped at 4000 px
    assert f'<line x1="{64 + 4000}" y1="28"' in svg


def test_gantt_scales_a_long_hyperperiod_to_the_width_cap():
    # hyperperiod 3001 at 4 px per tick would be 12004 px: ticks shrink to
    # 4000/3001 px, and coordinates that are not whole get two decimals
    ts = TaskSet.build([build_dag(1, 3001, {1: 1, 2: 1000}, [(1, 2)])])
    mp = ScheduleMap.from_entries(1, [ScheduleEntry(1, 1, 0, 0, 0, 1),
                                      ScheduleEntry(1, 2, 0, 0, 1000, 2000)])
    svg = render_gantt(mp, ts)
    assert '<svg xmlns="http://www.w3.org/2000/svg" width="4080" ' in svg
    assert '<rect x="1396.89" y="33" width="1332.89" ' in svg
    numbers = re.findall(r' (?:x|x1|x2|width)="([^"]*)"', svg)
    assert numbers and all(re.fullmatch(r"\d+(\.\d\d?)?", v) for v in numbers)
    assert max(map(float, numbers)) == 4080


@pytest.mark.parametrize("empty_dags,period,hyperperiod", [(1, 2, 999998), (99, 10, 1000)])
def test_gantt_draws_a_bounded_number_of_gridlines(empty_dags, period, hyperperiod):
    # a one-node DAG whose period is the hyperperiod beside node-less DAGs:
    # their gridlines lie at least 8 px apart, but one per release would be
    # 499999 lines (60 MB) from one DAG, or 9900 lines (1.1 MB) from many
    ts = TaskSet.build([build_dag(1, hyperperiod, {1: 1})]
                       + [build_dag(i, period, {}) for i in range(2, empty_dags + 2)])
    mp = ScheduleMap.from_entries(1, [ScheduleEntry(1, 1, 0, 0, 0, 1)])
    svg = render_gantt(mp, ts)
    assert len(svg.encode()) < 64 * 1024
    assert 1 <= svg.count('stroke-dasharray="3,3"') <= bench._GRID_MAX_LINES
    assert f'<line x1="{64 + min(hyperperiod * 4, 4000)}" y1="28"' in svg
    assert '<svg xmlns="http://www.w3.org/2000/svg" width="4080" ' in svg
