"""Command-line surface.

Documents (task sets, schedules, reports, SVG) go to --out or stdout; all
human-readable chatter goes to stderr so outputs stay pipeable.  Exit status
is the machine contract: 0 for success/schedulable/valid, 1 for
unschedulable/invalid/deadline miss, 2 for usage or input errors.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import replace

from .analysis import analyze_dag
from .baseline import gedf_np_simulate
from .bench import (
    ExperimentError,
    GenConfig,
    GenerationError,
    export_report,
    generate_taskset,
    render_gantt,
    run_experiment,
)
from .model import (
    _load_json, dumps_schedule, dumps_taskset, load_schedule, load_taskset, validate_schedule,
)
from .scheduler import DagInfeasibleError, schedule_taskset


def _read(path: str) -> str:
    with open(path, "r", encoding="utf-8") as fh:
        return fh.read()


def _emit(text: str, out: str | None) -> None:
    if out:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _say(msg: str) -> None:
    print(msg, file=sys.stderr)


def _cmd_analyze(args) -> int:
    ts = load_taskset(_read(args.infile))
    doc = {"dags": []}
    for dag in ts.dags:
        analysis = analyze_dag(dag)
        doc["dags"].append(
            {
                "id": dag.dag_id,
                "period": dag.period,
                "total_work": dag.total_work,
                "cp_length": dag.cp_length,
                "critical_path": list(analysis.cp_nodes),
                "feasible": analysis.feasible,
                "min_cores": analysis.min_cores,
                "rank_order": sorted(analysis.rank_pos, key=analysis.rank_pos.__getitem__),
                "nodes": [
                    {
                        "id": nid,
                        "wcet": dag.node(nid).wcet,
                        "prior_plus": analysis.prior_plus[nid],
                        "est": analysis.est[nid],
                        "lft": analysis.lft[nid],
                        "rank": analysis.rank_pos[nid],
                    }
                    for nid in sorted(dag.node_ids)
                ],
            }
        )
    _emit(json.dumps(doc, indent=2) + "\n", args.out)
    return 0


def _cmd_schedule(args) -> int:
    ts = load_taskset(_read(args.infile))
    if args.cores < 1:
        _say(f"error: core count must be >= 1, got {args.cores}")
        return 2
    trace: list[str] | None = [] if args.trace else None
    infeasible = None
    try:
        mp = schedule_taskset(ts, trace=trace)
    except DagInfeasibleError as exc:
        infeasible = exc
    for line in trace or ():
        _say(line)
    if infeasible is not None:
        _say(f"unschedulable: dag {infeasible.dag_id} node {infeasible.node_id} "
             f"cannot meet its deadline on any core count")
        return 1
    used = mp.num_cores
    if used > args.cores:
        _say(f"unschedulable: needs {used} cores, only {args.cores} available")
        return 1
    _emit(dumps_schedule(mp), args.out)
    _say(f"schedulable: {used} {'core' if used == 1 else 'cores'} used (limit {args.cores})")
    return 0


def _cmd_simulate(args) -> int:
    ts = load_taskset(_read(args.infile))
    sim = gedf_np_simulate(ts, args.cores)
    _emit(dumps_schedule(sim.trace), args.out)
    if sim.success:
        _say(f"schedulable under GEDF-NP on {args.cores} cores")
        return 0
    miss = sim.first_miss
    _say(
        f"deadline miss under GEDF-NP: dag {miss.dag_id} node {miss.node_id} job {miss.job} "
        f"finished {miss.finish}, deadline {miss.deadline}"
    )
    return 1


def _cmd_validate(args) -> int:
    ts = load_taskset(_read(args.infile))
    mp = load_schedule(_read(args.schedule))
    report = validate_schedule(mp, ts)
    doc = {
        "ok": report.ok,
        "violations": [{"kind": v.kind, "where": v.where} for v in report.violations],
    }
    _emit(json.dumps(doc, indent=2) + "\n", args.out)
    if report.ok:
        _say("schedule is valid")
        return 0
    for v in report.violations:
        _say(f"{v.kind}: {v.where}")
    _say(f"schedule is INVALID ({len(report.violations)} violations)")
    return 1


def _load_config(args) -> GenConfig:
    if not args.config:
        return GenConfig(seed=args.seed)
    return replace(GenConfig.from_doc(_load_json(_read(args.config))), seed=args.seed)


def _cmd_gen(args) -> int:
    cfg = _load_config(args)
    ts, redraws = generate_taskset(cfg, 0)
    _emit(dumps_taskset(ts), args.out)
    _say(f"generated {len(ts.dags)} DAGs (hyperperiod {ts.hyperperiod}, {redraws} redraws)")
    return 0


def _cmd_bench(args) -> int:
    cfg = _load_config(args)
    try:
        core_counts = [int(x) for x in args.cores.split(",")]
    except ValueError:
        _say(f"error: --cores takes comma-separated integers, got {args.cores!r}")
        return 2
    # the report is written only after the whole experiment: fail before it
    if os.path.basename(args.out) in ("", ".", ".."):
        _say(f"error: --out must end in a file name prefix, got {args.out!r}")
        return 2
    out_dir = os.path.dirname(args.out) or "."
    if not os.path.isdir(out_dir):
        _say(f"error: no such directory: {out_dir}")
        return 2
    report = run_experiment(cfg, core_counts)
    json_path, csv_path = export_report(report, args.out)
    _say(f"wrote {json_path} and {csv_path} ({report.regenerated} DAG redraws)")
    for s in report.summary:
        _say(
            f"m={s.m}: proposed {s.proposed_successes}/{s.collections} "
            f"(rate {s.proposed_success_rate:.3f}), "
            f"gedf-np {s.baseline_successes}/{s.collections} "
            f"(rate {s.baseline_success_rate:.3f})"
        )
    return 0


def _cmd_render(args) -> int:
    ts = load_taskset(_read(args.infile))
    mp = load_schedule(_read(args.schedule))
    _emit(render_gantt(mp, ts), args.out)
    return 0


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dagsched",
        description="Offline semi-partitioned scheduling of periodic hard real-time DAGs",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("analyze", help="per-node prior-plus/EST/LFT/rank table")
    p.add_argument("--in", dest="infile", required=True, help="task-set document")
    p.add_argument("--out", help="output path (default stdout)")
    p.set_defaults(func=_cmd_analyze)

    p = sub.add_parser("schedule", help="build a schedule map")
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--cores", type=int, required=True, help="available core count")
    p.add_argument("--out", help="schedule document path (default stdout)")
    p.add_argument("--trace", action="store_true",
                   help="log the table's tries, the pipeline's placements when it runs, "
                        "and the map chosen to stderr")
    p.set_defaults(func=_cmd_schedule)

    p = sub.add_parser("simulate", help="run the GEDF-NP baseline")
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--cores", type=int, required=True)
    p.add_argument("--out", help="trace document path (default stdout)")
    p.set_defaults(func=_cmd_simulate)

    p = sub.add_parser("validate", help="check a schedule document against a task set")
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--schedule", required=True, help="schedule document")
    p.add_argument("--out", help="report path (default stdout)")
    p.set_defaults(func=_cmd_validate)

    p = sub.add_parser("gen", help="generate a random task-set document")
    p.add_argument("--config", help="generator config document")
    p.add_argument("--seed", type=int, required=True, help="RNG seed (no silent entropy)")
    p.add_argument("--out", help="task-set path (default stdout)")
    p.set_defaults(func=_cmd_gen)

    p = sub.add_parser("bench", help="success-rate/utilization experiment")
    p.add_argument("--config", help="generator config document")
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--cores", required=True, help="comma-separated core sweep, e.g. 4,8,16")
    p.add_argument("--out", required=True, help="report path prefix (.json/.csv appended)")
    p.set_defaults(func=_cmd_bench)

    p = sub.add_parser("render", help="render a schedule as an SVG Gantt chart")
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--schedule", required=True)
    p.add_argument("--out", help="SVG path (default stdout)")
    p.set_defaults(func=_cmd_render)

    return parser


def run_cli(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code) if exc.code is not None else 0
    try:
        return args.func(args)
    except FileNotFoundError as exc:
        _say(f"error: no such file: {exc.filename}")
        return 2
    # ExperimentError (a schedule that failed validation) is a
    # scheduler bug, not an unschedulable input, so it must not exit with 1.
    # OverflowError covers a hyperperiod beyond the 64-bit tick range.
    except (GenerationError, ExperimentError, ValueError, OverflowError, OSError) as exc:
        _say(f"error: {exc}")
        return 2


def main() -> None:
    sys.exit(run_cli(sys.argv[1:]))


if __name__ == "__main__":
    main()
