"""The benchmark's workloads: input generation, one timed pass, output checks.

Every workload is a closed loop with one caller: the next call into dagsched
starts only when the previous one has returned.  A pass processes every
input set once; the harness repeats passes over the same inputs until the
run's time is up.  Inputs are a pure function of the workload seed.

Each workload names its input sets (a sweep collection, a replay set);
per-set latencies, job counts and lower bounds are keyed by the set's
position in ``inputs.labels``.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass, field
from time import perf_counter


def job_count(ts) -> int:
    """Job instances over one hyperperiod."""
    return sum(len(dag.nodes) * (ts.hyperperiod // dag.period) for dag in ts.dags)


def core_lower_bound(ts) -> int:
    """ceil(total utilization): no schedule can use fewer cores."""
    return math.ceil(sum(dag.utilization for dag in ts.dags))


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


@dataclass
class Inputs:
    labels: list[str]
    jobs: list[int]
    lower: list[int]  # core_lower_bound of each set
    configs: list[dict]
    data: object = None


@dataclass
class Pass:
    """One pass over all input sets.

    latencies maps set index to seconds; a set whose call raised has no
    latency and its message sits in errors.
    """

    wall: float = 0.0
    latencies: dict[int, float] = field(default_factory=dict)
    outputs: dict[int, object] = field(default_factory=dict)
    errors: dict[int, str] = field(default_factory=dict)


@dataclass
class Check:
    attempted: int = 0
    failed: int = 0
    problems: list[str] = field(default_factory=list)
    digests: dict[str, str] = field(default_factory=dict)

    def fail(self, message: str) -> None:
        self.failed += 1
        self.problems.append(message)


def _error(exc: Exception) -> str:
    return f"{type(exc).__name__}: {exc}"


class Sweep:
    """run_experiment on the default GenConfig: the paper's experiment.

    One pass is one experiment over all collections and the core-count
    sweep.  A collection's latency is its share of the experiment, clocked
    at the calls that generate each collection.
    """

    name = "sweep"
    loop = "closed loop, one caller"
    core_counts = (4, 8, 16)

    def __init__(self, collections: int = 200):
        self.collections = collections

    def setup(self, pkg, seed: int) -> Inputs:
        cfg = pkg.bench.GenConfig(collections=self.collections, seed=seed)
        sets = [pkg.bench.generate_taskset(cfg, c)[0] for c in range(cfg.collections)]
        return Inputs([f"collection{c}" for c in range(len(sets))],
                      [job_count(ts) for ts in sets], [core_lower_bound(ts) for ts in sets],
                      [cfg.to_doc()], (cfg, sets))

    def run_pass(self, pkg, inputs: Inputs, tracer=None) -> Pass:
        bench = pkg.bench
        cfg, _ = inputs.data
        generate = bench.generate_taskset
        marks: list[float] = []

        def clocked(cfg, collection):
            marks.append(perf_counter())
            if tracer is not None:
                tracer.item = f"collection{collection}"
            return generate(cfg, collection)

        out = Pass()
        bench.generate_taskset = clocked
        start = perf_counter()
        try:
            out.outputs[0] = bench.run_experiment(cfg, list(self.core_counts))
        except Exception as exc:  # counted as failed by check()
            out.errors = dict.fromkeys(range(self.collections), _error(exc))
        finally:
            bench.generate_taskset = generate
        out.wall = perf_counter() - start
        if out.outputs:
            marks.append(start + out.wall)
            out.latencies = {c: marks[c + 1] - marks[c] for c in range(self.collections)}
        return out

    def check(self, pkg, inputs: Inputs, result: Pass) -> Check:
        bench = pkg.bench
        _, sets = inputs.data
        chk = Check(attempted=len(inputs.labels))
        for index, message in result.errors.items():
            chk.fail(f"{inputs.labels[index]}: {message}")
        report = result.outputs.get(0)
        if report is None:
            return chk
        chk.digests["report.json"] = sha256(bench.dumps_report(report))
        chk.digests["report.csv"] = sha256(bench.dumps_report_csv(report))
        report_problem = self._report_problem(bench, report)
        if report_problem is not None:
            chk.failed += self.collections
            chk.problems.append(report_problem)
            return chk
        for c, message in sorted(self._bad_collections(bench, sets, report).items()):
            chk.fail(f"collection {c}: {message}")
        return chk

    def _bad_collections(self, bench, sets, report) -> dict[int, str]:
        bad: dict[int, str] = {}
        rows = {(r.collection, r.m, r.algorithm): r for r in report.rows}
        for c, ts in enumerate(sets):
            lower = core_lower_bound(ts)
            for m in self.core_counts:
                p = rows.get((c, m, bench.PROPOSED))
                b = rows.get((c, m, bench.BASELINE))
                if p is None or b is None:
                    bad[c] = f"missing row for m={m}"
                elif p.hyperperiod != ts.hyperperiod:
                    bad[c] = f"hyperperiod {p.hyperperiod}, task set has {ts.hyperperiod}"
                elif p.cores_used < lower:
                    bad[c] = f"uses {p.cores_used} cores, below the bound {lower}"
                elif p.success != (p.cores_used <= m):
                    bad[c] = f"m={m}: success={p.success} with {p.cores_used} cores"
                elif b.cores_used > m:
                    bad[c] = f"m={m}: baseline used {b.cores_used} cores"
        return bad

    def _report_problem(self, bench, report) -> str | None:
        expected = self.collections * len(self.core_counts) * 2
        if len(report.rows) != expected:
            return f"{len(report.rows)} rows, expected {expected}"
        for s in report.summary:
            ok = sum(1 for r in report.rows
                     if r.m == s.m and r.algorithm == bench.PROPOSED and r.success)
            if ok != s.proposed_successes:
                return f"m={s.m}: summary counts {s.proposed_successes} successes, rows {ok}"
        if bench.load_report(bench.dumps_report(report)) != report:
            return "report does not round-trip through its JSON document"
        try:
            # Re-derives sampled collections and re-validates their schedules.
            bench.spot_check_report(report, sample=3)
        except bench.ExperimentError as exc:
            return f"spot check: {exc}"
        return None

    def summarize(self, pkg, inputs: Inputs, result: Pass) -> tuple[int, int, dict]:
        report = result.outputs.get(0)
        if report is None:
            return 0, 0, {}
        proposed = [r for r in report.rows if r.algorithm == pkg.bench.PROPOSED]
        cores = sum(r.cores_used for r in proposed if r.m == self.core_counts[0])
        extra = {}
        for s in report.summary:
            extra[f"success_rate_m{s.m}"] = s.proposed_success_rate
            extra[f"baseline_success_rate_m{s.m}"] = s.baseline_success_rate
        return cores, sum(inputs.lower), extra


class Replay:
    """The inspection commands on wide DAGs, without the proposed scheduler.

    Per set: parse the task-set document, analyze every DAG, simulate
    GEDF-NP on ceil(utilization) + 1 cores, validate the trace and
    serialize it.  Nothing here calls compaction.
    """

    name = "replay"
    loop = "closed loop, one caller"

    def __init__(self, sets: int = 128):
        self.sets = sets

    def setup(self, pkg, seed: int) -> Inputs:
        cfg = pkg.bench.GenConfig(
            collections=self.sets, dags_per_collection=5, edge_prob=0.15,
            nodes_per_dag=(30, 60), period_menu=(100, 200), seed=seed,
        )
        sets = [pkg.bench.generate_taskset(cfg, c)[0] for c in range(cfg.collections)]
        docs = [pkg.model.dumps_taskset(ts) for ts in sets]
        lower = [core_lower_bound(ts) for ts in sets]
        labels = [f"set{c}" for c in range(len(sets))]
        return Inputs(labels, [job_count(ts) for ts in sets], lower, [cfg.to_doc()],
                      [(doc, bound + 1) for doc, bound in zip(docs, lower)])

    def run_pass(self, pkg, inputs: Inputs, tracer=None) -> Pass:
        model, analysis, baseline = pkg.model, pkg.analysis, pkg.baseline
        out = Pass()
        start = perf_counter()
        for i, (doc, m) in enumerate(inputs.data):
            if tracer is not None:
                tracer.item = inputs.labels[i]
            t0 = perf_counter()
            try:
                ts = model.load_taskset(doc)
                for dag in ts.dags:
                    analysis.analyze_dag(dag)
                sim = baseline.gedf_np_simulate(ts, m)
                report = model.validate_schedule(sim.trace, ts)
                text = model.dumps_schedule(sim.trace)
            except Exception as exc:  # counted as failed by check()
                out.errors[i] = _error(exc)
                continue
            out.latencies[i] = perf_counter() - t0
            kinds = sorted({v.kind for v in report.violations})
            out.outputs[i] = (sim.success, kinds, sim.trace.used_cores, sha256(text))
        out.wall = perf_counter() - start
        return out

    def check(self, pkg, inputs: Inputs, result: Pass) -> Check:
        chk = Check(attempted=len(inputs.labels))
        for i, message in result.errors.items():
            chk.fail(f"{inputs.labels[i]}: {message}")
        for i, (success, kinds, _, digest) in result.outputs.items():
            label = inputs.labels[i]
            if success and kinds:
                chk.fail(f"{label}: simulator claims success, validator finds {kinds}")
            elif not success and kinds != [pkg.model.DEADLINE]:
                chk.fail(f"{label}: simulator reports a miss, validator finds {kinds}")
            chk.digests[f"{label}/trace.json"] = digest
        return chk

    def summarize(self, pkg, inputs: Inputs, result: Pass) -> tuple[int, int, dict]:
        outputs = result.outputs
        cores = sum(used for _, _, used, _ in outputs.values())
        lower = sum(inputs.lower[i] for i in outputs)
        met = sum(1 for success, _, _, _ in outputs.values() if success)
        return cores, lower, {"baseline_success_rate": met / len(inputs.labels)}


WORKLOADS = {w.name: w for w in (Sweep, Replay)}
