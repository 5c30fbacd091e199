from __future__ import annotations

import hashlib
import json

import pytest

from dagsched import bench, cli
from dagsched.cli import run_cli
from dagsched.model import (
    JOB_BUDGET,
    TaskSet,
    ValidationReport,
    Violation,
    dumps_schedule,
    dumps_taskset,
    load_schedule,
    load_taskset,
)
from dagsched.scheduler import schedule_taskset

from helpers import allocation_limit, diamond_dag, single_node_dag
from reference_analysis import reference_analysis


def write_diamond(tmp_path):
    ts = TaskSet.build([diamond_dag()])
    path = tmp_path / "ts.json"
    path.write_text(dumps_taskset(ts))
    return path, ts


def test_schedule_diamond_exit_0(tmp_path, capsys):
    ts_path, ts = write_diamond(tmp_path)
    out = tmp_path / "sched.json"
    code = run_cli(["schedule", "--in", str(ts_path), "--cores", "1", "--out", str(out)])
    captured = capsys.readouterr()
    assert code == 0
    assert captured.err == "schedulable: 1 core used (limit 1)\n"
    mp = load_schedule(out.read_text())
    assert mp.num_cores == 1


def test_schedule_failure_exit_1(tmp_path, capsys):
    ts = TaskSet.build([single_node_dag(period=4, wcet=4), single_node_dag(dag_id=2, period=4, wcet=4)])
    path = tmp_path / "ts.json"
    path.write_text(dumps_taskset(ts))
    code = run_cli(["schedule", "--in", str(path), "--cores", "1"])
    captured = capsys.readouterr()
    assert code == 1
    assert (captured.out, captured.err) == ("", "unschedulable: needs 2 cores, only 1 available\n")
    assert run_cli(["schedule", "--in", str(path), "--cores", "3", "--out", str(tmp_path / "s")]) == 0
    assert capsys.readouterr().err == "schedulable: 2 cores used (limit 3)\n"


@pytest.mark.parametrize("cores", ["0", "-3"])
def test_schedule_core_count_below_one_is_usage_error(tmp_path, capsys, cores):
    # checked once the task set loads and before any placement, so --trace
    # logs no placement line
    ts_path, _ = write_diamond(tmp_path)
    assert run_cli(["schedule", "--in", str(ts_path), "--cores", cores, "--trace"]) == 2
    captured = capsys.readouterr()
    assert (captured.out, captured.err) == ("", f"error: core count must be >= 1, got {cores}\n")


def test_schedule_document_goes_to_stdout(tmp_path, capsys):
    ts_path, _ = write_diamond(tmp_path)
    code = run_cli(["schedule", "--in", str(ts_path), "--cores", "2"])
    captured = capsys.readouterr()
    assert code == 0
    doc = json.loads(captured.out)  # stdout is the document, pipeable
    assert "entries" in doc


def test_schedule_trace_flag(tmp_path, capsys):
    # --trace logs one line per table try and, last, one naming the map and
    # its cores.  The pipeline's "-> core" placement lines, one per node,
    # and its core count appear exactly when the pipeline runs: not on the
    # diamond, whose table meets the bound, but on `gen --seed 0`'s set.
    # stdout keeps its bytes.
    ran = []
    for ts in (TaskSet.build([diamond_dag()]), bench.generate_taskset(bench.GenConfig(), 0)[0]):
        path = tmp_path / "ts.json"
        path.write_text(dumps_taskset(ts))
        args = ["schedule", "--in", str(path), "--cores", "16"]
        assert run_cli(args) == 0
        plain = capsys.readouterr().out
        assert run_cli(args + ["--trace"]) == 0
        captured = capsys.readouterr()
        assert captured.out == plain
        *lines, maps, verdict = captured.err.splitlines()
        tries = [line for line in lines if line.startswith("table on ")]
        placements = [line for line in lines if " -> core " in line]
        pipeline = [line for line in lines if line.startswith("pipeline on ")]
        assert lines == tries + placements + pipeline
        assert 1 <= len(tries) <= 3 and len(pipeline) <= 1
        assert len(placements) == (sum(len(d.nodes) for d in ts.dags) if pipeline else 0)
        cores = load_schedule(plain).num_cores
        assert maps.startswith(f"map: {'pipeline' if pipeline else 'table'} on {cores} cores")
        assert verdict.startswith(f"schedulable: {cores} core")
        ran.append(bool(pipeline))
    assert ran == [False, True]


def test_validate_good_and_bad(tmp_path, capsys):
    ts_path, ts = write_diamond(tmp_path)
    good = schedule_taskset(ts)
    good_path = tmp_path / "good.json"
    good_path.write_text(dumps_schedule(good))
    assert run_cli(["validate", "--in", str(ts_path), "--schedule", str(good_path)]) == 0
    capsys.readouterr()

    # corrupt one entry into an overlap
    doc = json.loads(dumps_schedule(good))
    doc["entries"][1]["start"] = doc["entries"][0]["start"]
    doc["entries"][1]["finish"] = doc["entries"][0]["start"] + (
        doc["entries"][1]["finish"] - doc["entries"][1]["start"]
    )
    doc["entries"][1]["core"] = doc["entries"][0]["core"]
    bad_path = tmp_path / "bad.json"
    bad_path.write_text(json.dumps(doc))
    code = run_cli(["validate", "--in", str(ts_path), "--schedule", str(bad_path)])
    captured = capsys.readouterr()
    assert code == 1
    report = json.loads(captured.out)
    assert not report["ok"] and report["violations"]


def test_simulate_verdicts(tmp_path):
    ts = TaskSet.build([single_node_dag(period=4, wcet=3), single_node_dag(dag_id=2, period=4, wcet=3)])
    path = tmp_path / "ts.json"
    path.write_text(dumps_taskset(ts))
    assert run_cli(["simulate", "--in", str(path), "--cores", "1",
                    "--out", str(tmp_path / "t1.json")]) == 1
    assert run_cli(["simulate", "--in", str(path), "--cores", "2",
                    "--out", str(tmp_path / "t2.json")]) == 0


def test_gen_requires_seed(tmp_path, capsys):
    code = run_cli(["gen", "--out", str(tmp_path / "x.json")])
    capsys.readouterr()
    assert code == 2


def test_gen_writes_loadable_taskset(tmp_path):
    out = tmp_path / "gen.json"
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"dags_per_collection": 3, "nodes_per_dag": [2, 5],
                               "wcet_range": [1, 4], "period_menu": [10, 20]}))
    assert run_cli(["gen", "--config", str(cfg), "--seed", "7", "--out", str(out)]) == 0
    ts = load_taskset(out.read_text())
    assert len(ts.dags) == 3


def test_gen_exhausted_draw_budget_is_exit_2(tmp_path, capsys):
    # no draw fits: a 5-node chain of wcet 10 against a period of 10
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"edge_prob": 1.0, "nodes_per_dag": [5, 5],
                               "wcet_range": [10, 10], "period_menu": [10]}))
    code = run_cli(["gen", "--config", str(cfg), "--seed", "0",
                    "--out", str(tmp_path / "gen.json")])
    err = capsys.readouterr().err.strip().splitlines()
    assert code == 2
    assert len(err) == 1
    assert err[0].startswith("error: ")
    assert "collection 0, dag 1," in err[0]


def test_analyze_emits_table(tmp_path, capsys):
    ts_path, _ = write_diamond(tmp_path)
    assert run_cli(["analyze", "--in", str(ts_path)]) == 0
    doc = json.loads(capsys.readouterr().out)
    dag = doc["dags"][0]
    assert dag["rank_order"] == [4, 2, 3, 1]
    assert dag["min_cores"] == 2
    by_id = {n["id"]: n for n in dag["nodes"]}
    assert by_id[4]["prior_plus"] == 7
    assert by_id[1]["est"] == 0 and by_id[1]["lft"] == 4


def test_bench_round_trip_bytes(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"collections": 3, "dags_per_collection": 2,
                               "nodes_per_dag": [1, 4], "wcet_range": [1, 3],
                               "period_menu": [6, 12]}))
    args = ["bench", "--config", str(cfg), "--seed", "11", "--cores", "1,2,4"]
    assert run_cli(args + ["--out", str(tmp_path / "a")]) == 0
    assert run_cli(args + ["--out", str(tmp_path / "b")]) == 0
    assert (tmp_path / "a.json").read_bytes() == (tmp_path / "b.json").read_bytes()
    assert (tmp_path / "a.csv").read_bytes() == (tmp_path / "b.csv").read_bytes()


@pytest.mark.parametrize("command,code,digest", [
    (["schedule", "--cores", "16"], 0,
     "5d2e6c6ae6db98a09629a68ecf8453f6743e9baf1232b1c354280513a86de818"),
    (["validate", "--schedule", "corrupt"], 1,
     "1a81497c980e4f76f6684f706d32eca5e2de28136eeeb8962a2db86acdead360"),
    (["simulate", "--cores", "16"], 0,
     "894c2fff83ce348f1b3438833448c221979919553924f21ef74c75e78e5cbc08"),
    (["simulate", "--cores", "4"], 1,
     "e0bb2764267fa3625412e1d45acd22014d6abb922ea05e10afbb4529e24f13dd"),
], ids=["schedule-16", "validate-corrupt", "simulate-16", "simulate-4"])
def test_documents_of_the_seed_0_set_are_pinned(tmp_path, capsys, command, code, digest):
    # The documents each command writes of the gen --seed 0 set (pinned in
    # test_generated_documents_are_pinned), on every supported Python.  The
    # corrupt schedule is the pinned one with its first entry dropped and
    # the next one delayed by a tick; on 4 cores GEDF-NP misses a deadline.
    ts, sched, corrupt = tmp_path / "ts.json", tmp_path / "sched.json", tmp_path / "corrupt.json"
    assert run_cli(["gen", "--seed", "0", "--out", str(ts)]) == 0
    assert run_cli(["schedule", "--in", str(ts), "--cores", "16", "--out", str(sched)]) == 0
    doc = json.loads(sched.read_text())
    del doc["entries"][0]
    entry = doc["entries"][0]
    entry["start"] += 1
    entry["finish"] += 1
    corrupt.write_text(json.dumps(doc))
    out = tmp_path / "out.json"
    argv = [str(corrupt) if a == "corrupt" else a for a in command]
    assert run_cli([*argv, "--in", str(ts), "--out", str(out)]) == code
    capsys.readouterr()
    assert hashlib.sha256(out.read_bytes()).hexdigest() == digest


def test_render_writes_svg(tmp_path):
    ts_path, ts = write_diamond(tmp_path)
    sched = tmp_path / "s.json"
    sched.write_text(dumps_schedule(schedule_taskset(ts)))
    out = tmp_path / "g.svg"
    assert run_cli(["render", "--in", str(ts_path), "--schedule", str(sched),
                    "--out", str(out)]) == 0
    assert out.read_text().startswith("<svg")


def test_render_of_a_foreign_entry_is_usage_error(tmp_path, capsys):
    # a one-DAG set cannot own an entry of dag 9
    ts_path, ts = write_diamond(tmp_path)
    doc = json.loads(dumps_schedule(schedule_taskset(ts)))
    doc["entries"].append({"dag": 9, "node": 1, "job": 0, "core": 0, "start": 7, "finish": 8})
    sched = tmp_path / "s.json"
    sched.write_text(json.dumps(doc))
    out = tmp_path / "g.svg"
    assert run_cli(["render", "--in", str(ts_path), "--schedule", str(sched),
                    "--out", str(out)]) == 2
    assert capsys.readouterr().err == (
        "error: dag 9 node 1 job 0 on core 0: no such job instance in the task set\n"
    )
    assert not out.exists()


@pytest.mark.parametrize("command", ["simulate", "bench", "validate", "render"])
def test_core_count_over_the_bound_is_usage_error(tmp_path, capsys, command):
    ts_path, _ = write_diamond(tmp_path)
    sched = tmp_path / "s.json"
    sched.write_text(json.dumps({"num_cores": JOB_BUDGET + 1, "entries": []}))
    argv = {
        "simulate": ["simulate", "--in", str(ts_path), "--cores", str(JOB_BUDGET + 1)],
        "bench": ["bench", "--seed", "0", "--cores", f"4,{JOB_BUDGET + 1}",
                  "--out", str(tmp_path / "report")],
        "validate": ["validate", "--in", str(ts_path), "--schedule", str(sched)],
        "render": ["render", "--in", str(ts_path), "--schedule", str(sched)],
    }[command]
    with allocation_limit():
        assert run_cli(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and len(err.splitlines()) == 1
    assert f"{JOB_BUDGET}, got " in err


def test_missing_file_is_usage_error(capsys):
    assert run_cli(["analyze", "--in", "/nonexistent/ts.json"]) == 2
    assert "no such file" in capsys.readouterr().err


def test_malformed_document_is_usage_error(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text("{broken")
    assert run_cli(["analyze", "--in", str(path)]) == 2
    assert "error:" in capsys.readouterr().err


def test_edges_that_are_not_a_list_are_usage_error(tmp_path, capsys):
    path = tmp_path / "ts.json"
    path.write_text(json.dumps({"dags": [
        {"id": 1, "period": 5, "nodes": [{"id": 1, "wcet": 1}], "edges": 5}
    ]}))
    for command in (["analyze"], ["schedule", "--cores", "1"]):
        assert run_cli([*command, "--in", str(path)]) == 2
        err = capsys.readouterr().err
        assert err == "error: dag 1: edges must be a list\n"


@pytest.mark.parametrize("command", [
    ["analyze", "--in", "deep"],
    ["schedule", "--in", "deep", "--cores", "4"],
    ["simulate", "--in", "deep", "--cores", "4"],
    ["validate", "--in", "deep", "--schedule", "sched"],
    ["validate", "--in", "ts", "--schedule", "deep"],
    ["render", "--in", "deep", "--schedule", "sched"],
    ["render", "--in", "ts", "--schedule", "deep"],
    ["gen", "--config", "deep", "--seed", "0"],
    ["bench", "--config", "deep", "--seed", "0", "--cores", "4", "--out", "report"],
], ids=["analyze", "schedule", "simulate", "validate-in", "validate-schedule", "render-in",
        "render-schedule", "gen", "bench"])
def test_deeply_nested_document_is_usage_error(tmp_path, capsys, command):
    # a document nested past the JSON decoder's recursion limit is invalid
    # JSON: exit 2 with one error line, not 1 with a RecursionError
    ts_path, ts = write_diamond(tmp_path)
    sched = tmp_path / "sched.json"
    sched.write_text(dumps_schedule(schedule_taskset(ts)))
    deep = tmp_path / "deep.json"
    deep.write_text("[" * 100_000 + "]" * 100_000)
    paths = {"deep": deep, "ts": ts_path, "sched": sched, "report": tmp_path / "report"}
    assert run_cli([str(paths.get(a, a)) for a in command]) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: invalid JSON: "), err


@pytest.mark.parametrize("config", [{"period_menu": 5}, {"nodes_per_dag": [5]}])
def test_gen_config_with_a_malformed_list_is_usage_error(tmp_path, capsys, config):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(config))
    code = run_cli(["gen", "--config", str(cfg), "--seed", "0",
                    "--out", str(tmp_path / "gen.json")])
    err = capsys.readouterr().err.splitlines()
    assert code == 2
    assert len(err) == 1 and err[0].startswith(f"error: config field {next(iter(config))}: ")


@pytest.mark.parametrize("command,match", [
    (["gen", "--config", "over-budget"], "1000005 jobs per collection exceeds the job budget"),
    (["bench", "--cores", "16,16"], "core_counts repeats core count 16"),
    (["bench", "--cores", "4,,8"], "--cores takes comma-separated integers"),
    (["bench", "--cores", "4,x"], "--cores takes comma-separated integers"),
])
def test_config_rejected_before_any_collection_is_usage_error(tmp_path, capsys, command, match):
    # 200001 DAGs of at least 5 nodes cannot fit the job budget; a repeated
    # core count would count every collection twice in its summary, and an
    # empty or non-integer --cores item is not a core count
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"dags_per_collection": 200001, "nodes_per_dag": [5, 5]}))
    argv = [str(cfg) if a == "over-budget" else a for a in command]
    assert run_cli([*argv, "--seed", "0", "--out", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: ") and match in err[0]
    assert len(err[0]) < 200
    assert not (tmp_path / "out").exists() and not (tmp_path / "out.json").exists()


def one_node_dags(tmp_path, *periods):
    path = tmp_path / "ts.json"
    path.write_text(json.dumps({"dags": [
        {"id": i, "period": p, "nodes": [{"id": 1, "wcet": 1}]}
        for i, p in enumerate(periods, start=1)
    ]}))
    return path


def test_hyperperiod_overflow_is_usage_error(tmp_path, capsys):
    path = one_node_dags(tmp_path, 2**40, 3**27)
    sched = tmp_path / "sched.json"
    sched.write_text(json.dumps({"num_cores": 0, "entries": []}))
    assert run_cli(["validate", "--in", str(path), "--schedule", str(sched)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: hyperperiod exceeds") and len(err.splitlines()) == 1


def test_job_budget_is_usage_error(tmp_path, capsys):
    path = one_node_dags(tmp_path, 2147483647, 2147483629)
    assert run_cli(["schedule", "--in", str(path), "--cores", "4"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "dag 1: 2147483629, dag 2: 2147483647" in err


def test_unknown_flag_is_usage_error(tmp_path):
    assert run_cli(["schedule", "--nope"]) == 2
    assert run_cli([]) == 2


def test_analyze_handles_infeasible_dag(tmp_path, capsys):
    # critical path 9 > period 8: analysis still prints, no core estimate
    path = tmp_path / "ts.json"
    path.write_text(json.dumps({"dags": [{"id": 1, "period": 8,
                                          "nodes": [{"id": 1, "wcet": 4}, {"id": 2, "wcet": 5}],
                                          "edges": [[1, 2]]}]}))
    assert run_cli(["analyze", "--in", str(path)]) == 0
    dag = json.loads(capsys.readouterr().out)["dags"][0]
    assert dag["feasible"] is False
    assert dag["min_cores"] is None
    assert dag["cp_length"] == 9


def reference_analyze_doc(ts: TaskSet) -> dict:
    """The analyze document of ts, built from the reference analysis."""
    dags = []
    for dag in ts.dags:
        a = reference_analysis(dag)
        dags.append({
            "id": dag.dag_id,
            "period": dag.period,
            "total_work": dag.total_work,
            "cp_length": dag.cp_length,
            "critical_path": list(a["cp_nodes"]),
            "feasible": a["feasible"],
            "min_cores": a["min_cores"],
            "rank_order": list(a["rank_order"]),
            "nodes": [
                {
                    "id": nid,
                    "wcet": dag.node(nid).wcet,
                    "prior_plus": a["prior_plus"][nid],
                    "est": a["est"][nid],
                    "lft": a["lft"][nid],
                    "rank": a["rank_pos"][nid],
                }
                for nid in sorted(dag.node_ids)
            ],
        })
    return {"dags": dags}


INFEASIBLE_SET = {"dags": [
    {"id": 1, "period": 8, "nodes": [{"id": 1, "wcet": 1}, {"id": 2, "wcet": 3},
                                     {"id": 3, "wcet": 2}, {"id": 4, "wcet": 1}],
     "edges": [[1, 2], [1, 3], [2, 4], [3, 4]]},
    {"id": 2, "period": 8, "nodes": [{"id": 3, "wcet": 4}, {"id": 1, "wcet": 5}, {"id": 2, "wcet": 1}],
     "edges": [[3, 1], [2, 1]]},
]}


@pytest.mark.parametrize("which", ["replay-shaped", "infeasible"])
def test_analyze_output_is_the_reference_document(tmp_path, capsys, which):
    if which == "replay-shaped":
        cfg = bench.GenConfig(collections=1, dags_per_collection=5, edge_prob=0.15,
                              nodes_per_dag=(30, 60), period_menu=(100, 200), seed=1)
        text = dumps_taskset(bench.generate_taskset(cfg, 0)[0])
    else:
        text = json.dumps(INFEASIBLE_SET)
    path = tmp_path / "ts.json"
    path.write_text(text)
    assert run_cli(["analyze", "--in", str(path)]) == 0
    want = reference_analyze_doc(load_taskset(text))
    assert capsys.readouterr().out == json.dumps(want, indent=2) + "\n"
    if which == "infeasible":
        assert [d["feasible"] for d in want["dags"]] == [True, False]


def test_schedule_infeasible_names_the_dag(tmp_path, capsys):
    path = tmp_path / "ts.json"
    path.write_text(json.dumps({"dags": [{"id": 1, "period": 8,
                                          "nodes": [{"id": 1, "wcet": 4}, {"id": 2, "wcet": 5}],
                                          "edges": [[1, 2]]}]}))
    assert run_cli(["schedule", "--in", str(path), "--cores", "64"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "unschedulable: dag 1 node 2 cannot meet its deadline on any core count\n"


def test_bench_validation_failure_is_exit_2(tmp_path, capsys, monkeypatch):
    # a claimed success that fails validation is a scheduler bug: one error
    # line naming the collection and exit 2, never status 1 or a traceback
    def reject(mp, ts):
        return ValidationReport(violations=(Violation("overlap", "core 0"),))

    monkeypatch.setattr(bench, "validate_schedule", reject)
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"collections": 2, "dags_per_collection": 1,
                               "nodes_per_dag": [1, 3], "wcet_range": [1, 3],
                               "period_menu": [6]}))
    code = run_cli(["bench", "--config", str(cfg), "--seed", "3", "--cores", "4",
                    "--out", str(tmp_path / "r")])
    err = capsys.readouterr().err.strip().splitlines()
    assert code == 2
    assert len(err) == 1
    assert err[0].startswith("error: collection 0 ")


def test_bench_into_a_missing_directory_fails_before_the_experiment(tmp_path, capsys, monkeypatch):
    def experiment(cfg, core_counts):
        raise AssertionError("run_experiment called")

    monkeypatch.setattr(cli, "run_experiment", experiment)
    out_dir = tmp_path / "missing"
    code = run_cli(["bench", "--seed", "0", "--cores", "4,8,16", "--out", str(out_dir / "r")])
    assert code == 2
    assert capsys.readouterr().err == f"error: no such directory: {out_dir}\n"


@pytest.mark.parametrize("out", ["", "reports/", "."])
def test_bench_out_without_a_file_name_fails_before_the_experiment(
    tmp_path, capsys, monkeypatch, out
):
    # an empty file-name part would write the hidden files .json and .csv,
    # and "." the files ..json and ..csv
    def experiment(cfg, core_counts):
        raise AssertionError("run_experiment called")

    monkeypatch.setattr(cli, "run_experiment", experiment)
    monkeypatch.chdir(tmp_path)
    (tmp_path / "reports").mkdir()
    assert run_cli(["bench", "--seed", "0", "--cores", "4", "--out", out]) == 2
    assert capsys.readouterr().err == f"error: --out must end in a file name prefix, got {out!r}\n"
    assert [p.name for p in tmp_path.rglob("*")] == ["reports"]


COMMANDS = ("analyze", "schedule", "simulate", "validate", "render")
DOCUMENTS = {  # "missing" names a file that is never written
    "invalid_json": "{broken",
    "json_array": "[]",
    "no_dags": json.dumps({"dags": []}),
    "dag_without_nodes": json.dumps({"dags": [{"id": 1, "period": 5, "nodes": []}]}),
    # the node-less DAG releases 1000001 times per hyperperiod but holds no
    # job, so the set expands to one job
    "empty_dag_releases": json.dumps({"dags": [
        {"id": 1, "period": 1, "nodes": []},
        {"id": 2, "period": 1000001, "nodes": [{"id": 1, "wcet": 1}]},
    ]}),
    "dag_not_object": json.dumps({"dags": [5]}),
    "nodes_not_list": json.dumps({"dags": [{"id": 1, "period": 5, "nodes": {}}]}),
    "node_not_object": json.dumps({"dags": [{"id": 1, "period": 5, "nodes": [1]}]}),
    "edge_not_pair": json.dumps({"dags": [{"id": 1, "period": 5, "nodes": [
        {"id": 1, "wcet": 1}, {"id": 2, "wcet": 1}], "edges": [[1, 2, 2]]}]}),
    "diamond": dumps_taskset(TaskSet.build([diamond_dag()])),
    "empty_schedule": json.dumps({"num_cores": 0, "entries": []}),
    # job 0 of dag 2: foreign to the diamond, the whole of empty_dag_releases
    "foreign_schedule": json.dumps({"num_cores": 1, "entries": [
        {"dag": 2, "node": 1, "job": 0, "core": 0, "start": 0, "finish": 1}
    ]}),
    "string_num_cores": json.dumps({"num_cores": "1", "entries": []}),
    "entries_not_list": json.dumps({"num_cores": 1, "entries": {}}),
    "entry_not_object": json.dumps({"num_cores": 1, "entries": [5]}),
}
EXIT_MATRIX = [  # (task set, schedule, exit status per command)
    *[(bad, "empty_schedule", dict.fromkeys(COMMANDS, 2))
      for bad in ("invalid_json", "json_array", "missing", "dag_not_object", "nodes_not_list",
                  "node_not_object", "edge_not_pair")],
    ("no_dags", "empty_schedule", dict.fromkeys(COMMANDS, 0)),
    ("dag_without_nodes", "empty_schedule", dict.fromkeys(COMMANDS, 0)),
    ("empty_dag_releases", "empty_schedule", {**dict.fromkeys(COMMANDS, 0), "validate": 1}),
    ("empty_dag_releases", "foreign_schedule", {"validate": 0, "render": 0}),
    *[("diamond", bad, {"validate": 2, "render": 2})
      for bad in ("invalid_json", "json_array", "missing", "string_num_cores",
                  "entries_not_list", "entry_not_object")],
    ("diamond", "foreign_schedule", {"validate": 1, "render": 2}),
]


@pytest.mark.parametrize("command,taskset,schedule,code", [
    pytest.param(command, taskset, schedule, code, id="-".join(
        (command, taskset, schedule) if command in ("validate", "render") else (command, taskset)
    ))
    for taskset, schedule, codes in EXIT_MATRIX
    for command, code in codes.items()
])
def test_exit_status_matrix(tmp_path, capsys, command, taskset, schedule, code):
    def path(name):
        p = tmp_path / f"{name}.json"
        if name != "missing":
            p.write_text(DOCUMENTS[name])
        return str(p)

    argv = [command, "--in", path(taskset), "--out", str(tmp_path / "out")]
    if command in ("schedule", "simulate"):
        argv += ["--cores", "2"]
    if command in ("validate", "render"):
        argv += ["--schedule", path(schedule)]
    assert run_cli(argv) == code
    err = capsys.readouterr().err
    assert "Traceback" not in err
    if code == 2:  # an input error is one line
        assert len(err.splitlines()) == 1 and err.startswith("error: "), err
    if command == "render" and code == 0:
        assert (tmp_path / "out").stat().st_size < 64 * 1024
