"""The exit contract on generated inputs: every command, in process.

Each example builds a small task set (at most 3 DAGs of at most 6 nodes,
periods from a short menu, now and then a cycle or a malformed
document), a schedule document holding the set's jobs plus malformed
entries, and a generator config (at most 2 collections, at most 8 nodes
per DAG, some fields out of range).  It then runs analyze, schedule,
simulate, validate, gen, bench and render through run_cli and requires
exit status 0, 1 or 2, exactly one "error:" line on status 2 (none
otherwise), no traceback and every output under 1 MiB.  While it runs,
starting a process fails the test, and so does opening a file for
writing anywhere but the example's own directory under tmp_path.
"""

from __future__ import annotations

import builtins
import json
import math
import os
import subprocess
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from dagsched.cli import run_cli
from dagsched.model import JOB_BUDGET

PERIODS = (2, 3, 4, 6)
OUTPUT_LIMIT = 1 << 20
BAD_TASK_SETS = ("{broken", "[]", '{"dags": 5}', '{"dags": [{"id": 1, "period": 0, "nodes": []}]}')
BAD_ENTRIES = (
    5,
    {},
    {"dag": 1, "node": 1},
    {"dag": "1", "node": 1, "job": 0, "core": 0, "start": 0, "finish": 1},
    {"dag": 1, "node": 1, "job": -1, "core": 0, "start": 0, "finish": 1},
    {"dag": 1, "node": 1, "job": 0.5, "core": 0, "start": 0, "finish": 1},
    {"dag": 9, "node": 1, "job": 0, "core": 0, "start": 0, "finish": 1},
    {"dag": 1, "node": 1, "job": 0, "core": 7, "start": 0, "finish": 1},
    {"dag": 1, "node": 1, "job": 0, "core": 0, "start": 3, "finish": 1},
)


@st.composite
def task_sets(draw) -> dict | str:
    """A task-set document, or now and then the text of a malformed one."""
    if draw(st.integers(0, 9)) == 0:
        return draw(st.sampled_from(BAD_TASK_SETS))
    dags = []
    for dag_id in range(1, draw(st.integers(0, 3)) + 1):
        ids = range(1, draw(st.integers(0, 6)) + 1)
        forward = [[a, b] for a in ids for b in ids if a < b]
        edges = draw(st.lists(st.sampled_from(forward), max_size=6)) if forward else []
        if edges and draw(st.integers(0, 4)) == 0:
            edges.append(edges[0][::-1])  # a cycle
        dags.append({
            "id": dag_id,
            "period": draw(st.sampled_from(PERIODS)),
            "nodes": [{"id": i, "wcet": draw(st.integers(1, 4))} for i in ids],
            "edges": edges,
        })
    return {"dags": dags}


@st.composite
def schedules(draw, doc: dict) -> dict:
    """Every job of doc on a drawn core near its release, plus bad entries."""
    rng = draw(st.randoms(use_true_random=False))
    cores = draw(st.integers(1, 3))
    horizon = math.lcm(*(d["period"] for d in doc["dags"]))
    entries = []
    for dag in doc["dags"]:
        for node in dag["nodes"]:
            for k in range(horizon // dag["period"]):
                start = k * dag["period"] + rng.randrange(dag["period"])
                entries.append({"dag": dag["id"], "node": node["id"], "job": k,
                                "core": rng.randrange(cores), "start": start,
                                "finish": start + node["wcet"]})
    entries += draw(st.lists(st.sampled_from(BAD_ENTRIES), max_size=2))
    num_cores = draw(st.sampled_from([cores, cores, 0, -1, "2", JOB_BUDGET + 1]))
    return {"num_cores": num_cores, "entries": entries}


def _pairs(lo: int, hi: int):
    return st.lists(st.integers(lo, hi), min_size=2, max_size=2).map(sorted)


configs = st.fixed_dictionaries(
    {"collections": st.integers(0, 2), "nodes_per_dag": _pairs(1, 8)},
    optional={
        "dags_per_collection": st.sampled_from([1, 2, 3, 0]),
        "edge_prob": st.sampled_from([0.0, 0.3, 0.6, 1.0, 1.5]),
        "wcet_range": st.one_of(_pairs(1, 5), st.just([2, 1])),
        "period_menu": st.one_of(st.lists(st.sampled_from(PERIODS), min_size=1, max_size=3),
                                 st.just(5)),
        "seed": st.just(1),
    },
)


def _forbidden(*args, **kwargs):
    raise AssertionError("the CLI started a process")


@pytest.fixture
def sandbox(tmp_path, monkeypatch):
    """Runs one CLI call: no process may start, no write outside its directory."""
    for name in ("fork", "forkpty", "system", "posix_spawn", "posix_spawnp"):
        if hasattr(os, name):
            monkeypatch.setattr(os, name, _forbidden)
    monkeypatch.setattr(subprocess, "Popen", _forbidden)
    inside: list[Path] = []  # the directory of the call running now
    real_open = builtins.open

    def guarded(file, mode="r", *args, **kwargs):
        if inside and any(c in mode for c in "wax+"):
            path = Path(os.fspath(file)).resolve()
            assert path.is_relative_to(inside[0]), f"opened {path} for writing"
        return real_open(file, mode, *args, **kwargs)

    monkeypatch.setattr(builtins, "open", guarded)

    def run(directory: Path, argv: list[str]) -> int:
        inside.append(directory.resolve())
        try:
            return run_cli(argv)
        finally:
            inside.clear()

    return run


@settings(max_examples=30, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture, HealthCheck.too_slow])
@given(data=st.data(), doc=task_sets(),
       cfg=configs, cores=st.sampled_from(["1", "2", "3", "0"]),
       sweep=st.sampled_from(["1,2", "2", "1,2,3", "2,2", "1,,2", "x"]))
def test_every_command_keeps_the_exit_contract(tmp_path, capsys, sandbox, data, doc, cfg,
                                               cores, sweep):
    d = tmp_path / str(len(list(tmp_path.iterdir())))
    d.mkdir()
    ts, sched, conf = d / "ts.json", d / "sched.json", d / "cfg.json"
    ts.write_text(doc if isinstance(doc, str) else json.dumps(doc))
    sched.write_text(json.dumps(data.draw(schedules(doc)) if isinstance(doc, dict)
                                else {"num_cores": 1, "entries": []}))
    conf.write_text(json.dumps(cfg))
    out, report = d / "out", d / "report"
    for argv in (
        ["analyze", "--in", str(ts), "--out", str(out)],
        ["schedule", "--in", str(ts), "--cores", cores, "--trace"],
        ["simulate", "--in", str(ts), "--cores", cores, "--out", str(out)],
        ["validate", "--in", str(ts), "--schedule", str(sched)],
        ["render", "--in", str(ts), "--schedule", str(sched), "--out", str(out)],
        ["gen", "--config", str(conf), "--seed", "3", "--out", str(out)],
        ["bench", "--config", str(conf), "--seed", "3", "--cores", sweep, "--out", str(report)],
    ):
        code = sandbox(d, argv)
        stdout, err = capsys.readouterr()
        assert code in (0, 1, 2), (argv, code)
        assert "Traceback" not in err, argv
        errors = [line for line in err.splitlines() if "error:" in line]
        assert len(errors) == (code == 2), (argv, code, err)
        assert len(stdout.encode()) < OUTPUT_LIMIT and len(err.encode()) < OUTPUT_LIMIT, argv
        for path in d.iterdir():
            assert path.stat().st_size < OUTPUT_LIMIT, (argv, path)
