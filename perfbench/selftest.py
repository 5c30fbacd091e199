"""Self-test of the benchmark harness at a tiny size.

    python3 perfbench/selftest.py

Runs every workload on a few small inputs, untraced and traced, and checks
that each metric declared in BENCHMARK.json is printed with its declared
unit.  Then it corrupts one replay trace per pass (one entry dropped)
and checks that the run counts it as failed.  Exits 0 when all checks hold.
"""

from __future__ import annotations

import dataclasses
import json
import sys

import run
from workloads import Replay, Sweep

TINY = (Sweep(collections=3), Replay(sets=3))


class CorruptReplay(Replay):
    """A replay whose first simulated trace of every pass loses one entry."""

    def run_pass(self, pkg, inputs, tracer=None):
        simulate = pkg.baseline.gedf_np_simulate
        calls = []

        def corrupted(ts, m):
            res = simulate(ts, m)
            calls.append(m)
            if len(calls) > 1:
                return res
            entries = list(res.trace.entries())[1:]
            broken = pkg.model.ScheduleMap.from_entries(res.trace.num_cores, entries)
            return dataclasses.replace(res, trace=broken)

        pkg.baseline.gedf_np_simulate = corrupted
        try:
            return super().run_pass(pkg, inputs, tracer)
        finally:
            pkg.baseline.gedf_np_simulate = simulate


def check_line(workload, trace: bool, problems: list[str]) -> dict:
    doc = run.run(workload, seed=0, seconds=0.0, trace=trace)
    line = run.result_line(doc, trace)
    where = f"{workload.name} trace {int(trace)}"
    if set(line) != {"correct", "attempted", "failed", "metrics"}:
        problems.append(f"{where}: result keys {sorted(line)}")
    declared = run.declared_metrics(trace)
    for m in declared:
        got = doc["metrics"].get(m["name"])
        if got is None and not trace:
            problems.append(f"{where}: {m['name']} not measured")
        if line["metrics"][m["name"]]["unit"] != m["unit"]:
            problems.append(f"{where}: {m['name']} has the wrong unit")
    if len(line["metrics"]) != len(declared):
        problems.append(f"{where}: {len(line['metrics'])} metrics, {len(declared)} declared")
    json.dumps(line)  # the result line must serialize
    return line


def main() -> int:
    sys.path.insert(0, str(run.ROOT / "src"))
    problems: list[str] = []
    for workload in TINY:
        for trace in (False, True):
            line = check_line(workload, trace, problems)
            if line["failed"] or not line["correct"] or line["attempted"] < 1:
                problems.append(f"{workload.name} trace {int(trace)}: {line['failed']} failed "
                                f"of {line['attempted']}")
    corrupt = CorruptReplay(sets=3)
    line = run.result_line(run.run(corrupt, seed=0, seconds=0.0, trace=False), False)
    if line["failed"] != 1 or line["correct"]:
        problems.append(f"corrupted schedule: failed={line['failed']} correct={line['correct']}")
    for text in problems:
        print(f"selftest: {text}", file=sys.stderr)
    print("selftest: ok" if not problems else f"selftest: {len(problems)} problems")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
