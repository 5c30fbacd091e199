"""dagsched benchmark: one workload, one seed, one run.

    python3 perfbench/run.py --workload sweep --seed 1 --seconds 45 --trace 0

Run from the root of a source checkout; the package is imported from
``src/``.  The last line of standard output is one JSON object with the
keys correct, attempted, failed and metrics.  With ``--trace 0`` the
metrics are the end-to-end metrics of BENCHMARK.json, measured without
tracing over passes repeated for ``--seconds``; with ``--trace 1`` they
are the per-layer metrics, taken
from one traced pass (plus a traced regeneration of the inputs) and
compared against one untraced pass of the same inputs to give the tracing
overhead.  A human-readable summary, problems and behaviour-digest
mismatches go to standard error.  Result documents and spans are written
under ``.perfbench_out/``.

Workloads are listed in ``workloads.py``; the reasons for each are in
BENCHMARK.json.  Exit status is 0 when a result was printed, 2 when the
checkout holds no dagsched sources.
"""

from __future__ import annotations

import argparse
import functools
import gc
import importlib
import json
import math
import resource
import statistics
import sys
import types
from pathlib import Path
from time import perf_counter

from tracer import Tracer
from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_DIR = ROOT / ".perfbench_out"
PACKAGE_MODULES = ("model", "analysis", "scheduler", "baseline", "bench")
SETUP_REPEATS = 3


def load_package():
    """Import dagsched afresh from the checkout, so import time is measured."""
    for name in [n for n in sys.modules if n == "dagsched" or n.startswith("dagsched.")]:
        del sys.modules[name]
    importlib.import_module("dagsched")
    return types.SimpleNamespace(
        **{name: importlib.import_module(f"dagsched.{name}") for name in PACKAGE_MODULES}
    )


def nearest_rank(sorted_values: list[float], q: float) -> float:
    return sorted_values[max(0, math.ceil(q * len(sorted_values)) - 1)]


def growth_exponent(jobs: list[int], seconds: list[float]) -> float | None:
    """Least-squares slope of log(seconds) on log(jobs)."""
    xs = [math.log(j) for j in jobs]
    ys = [math.log(s) for s in seconds]
    mx, my = sum(xs) / len(xs), sum(ys) / len(ys)
    sxx = sum((x - mx) ** 2 for x in xs)
    return sum((x - mx) * (y - my) for x, y in zip(xs, ys)) / sxx if sxx else None


def setup(workload, seed: int):
    """Import plus input generation, repeated.

    Returns the last package and inputs and the median set-up time.
    """
    times = []
    for _ in range(SETUP_REPEATS):
        inputs = None  # free the previous repeat's inputs before making new ones
        t0 = perf_counter()
        pkg = load_package()
        inputs = workload.setup(pkg, seed)
        times.append(perf_counter() - t0)
    return pkg, inputs, statistics.median(times)


def timed_passes(workload, pkg, inputs, seconds: float) -> list:
    passes = []
    start = perf_counter()
    while not passes or perf_counter() - start < seconds:
        gc.collect()
        passes.append(workload.run_pass(pkg, inputs))
    return passes


def checked(workload, pkg, inputs, passes):
    """Check every pass; digests must also agree between passes."""
    attempted, failed, problems, digests = 0, 0, [], {}
    for n, result in enumerate(passes):
        chk = workload.check(pkg, inputs, result)
        attempted += chk.attempted
        failed += chk.failed
        problems.extend(chk.problems if n == 0 else [])
        for name, value in chk.digests.items():
            if digests.setdefault(name, value) != value:
                problems.append(f"{name}: pass {n} differs from pass 0")
    return attempted, failed, problems, digests


def latency_metrics(inputs, passes) -> tuple[dict, dict]:
    """Throughput from each set's best latency over the passes.

    On a shared host the median latency of a fixed call moves by a quarter
    between 10-second windows, while the fastest calls of a window mostly
    agree within a few percent.  So each set is timed best of N, and
    throughput is the set count (or job count) over the sum of those best
    times.
    """
    per_set: dict[int, list[float]] = {}
    for result in passes:
        for i, seconds in result.latencies.items():
            per_set.setdefault(i, []).append(seconds)
    best = {i: min(v) for i, v in per_set.items()}
    busy = sum(best.values())
    metrics = {}
    samples = sorted(s for v in per_set.values() for s in v)
    ranked = sorted(best.values())
    diag = {"passes": len(passes), "latency_samples": len(samples)}
    if best:  # every call failing leaves nothing to time
        jobs = sum(inputs.jobs[i] for i in best)
        metrics = {"sets_per_s": len(best) / busy, "jobs_per_s": jobs / busy}
        diag.update(
            set_best_p50_ms=nearest_rank(ranked, 0.50) * 1e3,
            set_best_p99_ms=nearest_rank(ranked, 0.99) * 1e3,
            set_p50_ms=nearest_rank(samples, 0.50) * 1e3,
            set_p99_ms=nearest_rank(samples, 0.99) * 1e3,
            # Slope of log(best seconds) on log(jobs) over the sets.  A cut
            # to constant cost raises it even when every set gets faster.
            growth_exponent=growth_exponent([inputs.jobs[i] for i in best], list(best.values())),
        )
    return metrics, diag


def layer_metrics(tracer: Tracer, overhead: float) -> dict:
    metrics = {}
    for name, layer in tracer.layers.items():
        metrics[f"{name}.calls"] = layer.calls
        metrics[f"{name}.self_s"] = layer.self_s
        for counter, value in layer.counts.items():
            metrics[f"{name}.{counter}"] = value
    primary = tracer.layers.get("scheduler.primary_schedule")
    if primary is not None and primary.counts.get("min_cores"):
        metrics["scheduler.primary_schedule.over_estimate"] = (
            primary.counts["cores"] / primary.counts["min_cores"]
        )
    compact = tracer.layers.get("scheduler.compact_global")
    if compact is not None and compact.counts.get("cores_in"):
        metrics["scheduler.compact_global.reduction"] = (
            1 - compact.counts["cores_out"] / compact.counts["cores_in"]
        )
    metrics["trace.overhead_s"] = overhead
    return metrics


def compare_digests(workload: str, seed: int, digests: dict) -> list[str]:
    """Behaviour gate: digests against the seed commit's reference."""
    ref_path = HERE / "reference.json"
    reference = json.loads(ref_path.read_text()) if ref_path.exists() else {}
    expected = reference.get("digests", {}).get(workload, {}).get(str(seed))
    if expected is None:
        return [f"no reference digests for {workload} seed {seed}"]
    lines = [f"digest mismatch: {workload} seed {seed} {name}"
             for name in sorted(expected) if digests.get(name) != expected[name]]
    lines += [f"digest not in reference: {workload} seed {seed} {name}"
              for name in sorted(set(digests) - set(expected))]
    return lines or [f"digests match the reference ({len(expected)} documents)"]


def run(workload, seed: int, seconds: float, trace: bool) -> dict:
    """Run one workload and return the result document."""
    pkg, inputs, setup_s = setup(workload, seed)
    if not trace:
        passes = timed_passes(workload, pkg, inputs, seconds)
        metrics, diag = latency_metrics(inputs, passes)
        cores, lower, extra = workload.summarize(pkg, inputs, passes[0])
        metrics.update(setup_s=setup_s, cores_over_bound=cores / lower if lower else 0)
        diag.update(extra, cores_total=cores)
        spans = None
    else:
        gc.collect()
        untraced = workload.run_pass(pkg, inputs)
        tracer = Tracer()
        tracer.install(pkg)
        try:
            tracer.item = "setup"
            inputs = workload.setup(pkg, seed)
            gc.collect()
            traced = workload.run_pass(pkg, inputs, tracer)
        finally:
            tracer.uninstall()
        passes = [untraced, traced]
        metrics = layer_metrics(tracer, traced.wall - untraced.wall)
        diag = {"untraced_wall_s": untraced.wall, "traced_wall_s": traced.wall,
                "spans": len(tracer.spans)}
        OUT_DIR.mkdir(exist_ok=True)
        spans = OUT_DIR / f"spans-{workload.name}-seed{seed}.jsonl"
        tracer.write(spans)
    attempted, failed, problems, digests = checked(workload, pkg, inputs, passes)
    metrics["peak_rss_mib"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    return {
        "workload": workload.name, "seed": seed, "trace": int(trace),
        "loop": workload.loop, "configs": inputs.configs,
        "attempted": attempted, "failed": failed, "metrics": metrics,
        "diagnostics": diag, "problems": problems, "digests": digests,
        "spans_file": str(spans.relative_to(ROOT)) if spans else None,
    }


def declared_metrics(trace: bool) -> list[dict]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return spec["per_layer" if trace else "end_to_end"]


def result_line(doc: dict, trace: bool) -> dict:
    """The result line: the declared metrics only, each with its unit.

    A declared layer that the workload never calls reads 0.
    """
    metrics = {}
    for m in declared_metrics(trace):
        value = doc["metrics"].get(m["name"], 0)
        metrics[m["name"]] = {"value": value, "unit": m["unit"]}
    return {"correct": doc["failed"] == 0, "attempted": doc["attempted"],
            "failed": doc["failed"], "metrics": metrics}


def report(doc: dict, line: dict) -> None:
    say = functools.partial(print, file=sys.stderr)
    say(f"{doc['workload']} seed {doc['seed']} trace {doc['trace']} ({doc['loop']})")
    for name, m in line["metrics"].items():
        say(f"  {name:48s} {m['value']:>16.6g} {m['unit']}")
    for name, value in doc["diagnostics"].items():
        if not isinstance(value, dict):
            say(f"  [diag] {name:41s} {value!s:>16}")
    say(f"  attempted {doc['attempted']}, failed {doc['failed']}")
    for text in doc["problems"][:20]:
        say(f"  problem: {text}")
    for text in compare_digests(doc["workload"], doc["seed"], doc["digests"]):
        say(f"  {text}")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "dagsched" / "__init__.py").is_file():
        print(f"no dagsched sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    trace = bool(args.trace)
    doc = run(WORKLOADS[args.workload](), args.seed, args.seconds, trace)
    line = result_line(doc, trace)
    OUT_DIR.mkdir(exist_ok=True)
    out = OUT_DIR / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out.write_text(json.dumps(doc, indent=1, default=str) + "\n")
    report(doc, line)
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    sys.exit(main())
