"""Random DAG-collection generator and the experiment harness.

Collections of random DAGs are generated from a seeded configuration, each
collection is scheduled both by the semi-partitioned scheduler and by the
non-preemptive global-EDF baseline across a sweep of core counts, and the
per-core-count success rates and used-core utilizations are aggregated into
a report that can be exported as JSON plus a CSV row table.

Everything is reproducible: per-collection RNG streams are derived from
(seed, collection index, dag index), so the report bytes are a pure function
of the configuration and the core sweep.
"""

from __future__ import annotations

import json
import random
from dataclasses import asdict, dataclass, fields

from .baseline import gedf_np_simulate
from .model import (
    JOB_BUDGET,
    DagSpec,
    ScheduleMap,
    TaskSet,
    TaskSetError,
    _as_int,
    _load_json,
    build_dag,
    validate_schedule,
)
from .scheduler import schedule_taskset

MAX_DRAWS = 1000  # attempts per DAG before the generator gives up
# Edge draws one collection may spend, n(n - 1) / 2 per attempt at an
# n-node DAG, before a rejected draw ends it.  MAX_DRAWS alone let a config
# of 1000-node DAGs that can never fit draw 5e8 edges (10.6 s); this refuses
# it after 17 attempts.  Seed 1's default sweep spends at most 1307 per
# collection and the 160-DAG ladder set 16619.
EDGE_BUDGET = 1 << 23
_EDGE_BLOCK = 1 << 16  # edge draws skipped per getrandbits call (512 KiB of bits)

PROPOSED = "proposed"
BASELINE = "gedf-np"

UTILIZATION_DEFINITION = (
    "utilization = busy_ticks / (used_cores * hyperperiod), "
    "averaged over collections where the algorithm succeeded"
)


class GenerationError(RuntimeError):
    """The generator exhausted its retry budget for one DAG."""


class ExperimentError(RuntimeError):
    """A scheduler map or a baseline success failed validation (a bug)."""


@dataclass(frozen=True)
class GenConfig:
    """Knobs for random collection generation.

    Defaults are desk-scale: small node counts and a period menu whose least
    common multiple stays at 200 ticks, keeping hyperperiod extension cheap.
    """

    collections: int = 200
    dags_per_collection: int = 5
    edge_prob: float = 0.6
    nodes_per_dag: tuple[int, int] = (5, 15)
    wcet_range: tuple[int, int] = (1, 10)
    period_menu: tuple[int, ...] = (10, 20, 40, 50, 100)
    seed: int = 0

    def __post_init__(self):
        if self.collections < 0 or self.dags_per_collection < 1:
            raise ValueError("collections must be >= 0 and dags_per_collection >= 1")
        if not 0.0 <= self.edge_prob <= 1.0:
            raise ValueError(f"edge_prob must be in [0, 1], got {self.edge_prob}")
        for lo, hi in (self.nodes_per_dag, self.wcet_range):
            if lo < 1 or hi < lo:
                raise ValueError(f"range [{lo}, {hi}] must be nonempty and positive")
        if not self.period_menu or any(p < 1 for p in self.period_menu):
            raise ValueError("period_menu must list positive periods")
        # every DAG has at least nodes_per_dag[0] nodes, each released at least once
        least = self.dags_per_collection * self.nodes_per_dag[0]
        if least > JOB_BUDGET:
            raise ValueError(
                f"dags_per_collection * nodes_per_dag[0] = {least} jobs per collection "
                f"exceeds the job budget {JOB_BUDGET}"
            )

    def to_doc(self) -> dict:
        return {k: list(v) if isinstance(v, tuple) else v for k, v in asdict(self).items()}

    @classmethod
    def from_doc(cls, doc: dict) -> "GenConfig":
        if not isinstance(doc, dict):
            raise ValueError("config document must be an object")
        unknown = set(doc) - {f.name for f in fields(cls)}
        if unknown:
            raise ValueError(f"unknown config fields: {sorted(unknown)}")
        kwargs = {}
        for name in ("collections", "dags_per_collection", "seed"):
            if name in doc:
                kwargs[name] = _as_int(doc[name], "config field %s:", name)
        if "edge_prob" in doc:
            value = doc["edge_prob"]
            if not isinstance(value, (int, float)) or isinstance(value, bool):
                raise ValueError(f"config field edge_prob: must be a number, got {value!r}")
            kwargs["edge_prob"] = float(value)
        for name in ("nodes_per_dag", "wcet_range", "period_menu"):
            if name in doc:
                value = doc[name]
                pair = name != "period_menu"  # the two ranges are [lo, hi]
                if not isinstance(value, list) or (pair and len(value) != 2):
                    shape = "a list of two integers" if pair else "a list"
                    raise ValueError(f"config field {name}: must be {shape}, got {value!r}")
                kwargs[name] = tuple(_as_int(x, "config field %s:", name) for x in value)
        return cls(**kwargs)


def stream(seed: int, *parts) -> random.Random:
    """Deterministic named RNG substream, stable across runs and platforms."""
    return random.Random(f"{seed}:" + ":".join(str(p) for p in parts))


def _draw_dag(cfg: GenConfig, rng: random.Random, dag_id: int) -> tuple[DagSpec | None, int]:
    """One random DAG, or None when its critical path exceeds its period, and its node count.

    The over-long draw is rejected before build_dag, after the same random
    bits a kept draw consumes, so the stream of later draws is unchanged.
    Once a path exceeds the longest period in the menu no period can fit:
    the draw stops there, consumes the edge draws it has left in blocks of
    getrandbits (CPython's random() reads two 32-bit words, getrandbits(k)
    reads ceil(k / 32)), draws its period and is rejected.  A config whose
    DAGs cannot fit is then refused in a fraction of the time.

    The longest path is computed here even though build_dag computes it
    again for a kept draw: about half the draws are rejected, and building
    every draw through build_dag and rejecting on its cp_length made the
    200 default collections of seed 1 1.5x slower to generate (best of 3,
    7 alternating rounds, none faster), with the same sets.
    """
    getrandbits, uniform, edge_prob = rng.getrandbits, rng.random, cfg.edge_prob

    def below(n: int) -> int:
        # The rejection loop of Random._randbelow, which randint and choice
        # call: the same bits give the same draw, and a width-1 range still
        # consumes them.  tests/test_bench.py pins the documents it yields.
        k = n.bit_length()
        r = getrandbits(k)
        while r >= n:
            r = getrandbits(k)
        return r

    lo, hi = cfg.nodes_per_dag
    n = lo + below(hi - lo + 1)
    lo, hi = cfg.wcet_range
    span = hi - lo + 1
    wcets = {nid: lo + below(span) for nid in range(1, n + 1)}
    edges = []
    # Forward edges only (low id to high id), so the result is acyclic by
    # construction; the node labelling is the topological order.  So by
    # node i's turn every parent has pushed its finish into start[i], and
    # start[i] + wcets[i] is the heaviest path ending at i.
    start = [0] * (n + 1)
    cp_length = 0
    longest = max(cfg.period_menu)
    for i in range(1, n + 1):
        finish = start[i] + wcets[i]
        if finish > cp_length:
            cp_length = finish
            if finish > longest:  # tested only here: cp_length <= longest so far
                # the (n - i)(n - i + 1) / 2 edge draws of nodes i..n, in
                # blocks so that a huge DAG's bits are never held at once
                left = (n - i) * (n - i + 1) // 2
                while left:
                    block = min(left, _EDGE_BLOCK)
                    getrandbits(64 * block)
                    left -= block
                below(len(cfg.period_menu))
                return None, n
        for j in range(i + 1, n + 1):
            if uniform() < edge_prob:
                edges.append((i, j))
                if finish > start[j]:
                    start[j] = finish
    period = cfg.period_menu[below(len(cfg.period_menu))]
    if cp_length > period:
        return None, n
    return build_dag(dag_id, period, wcets, edges), n


def generate_taskset(cfg: GenConfig, collection_index: int) -> tuple[TaskSet, int]:
    """Build one collection. Returns the task set and the number of redraws.

    Infeasible draws (critical path longer than the drawn period) measure
    nothing about a scheduler, so they are rejected wholesale and the DAG is
    redrawn.  A GenerationError names the collection, the DAG and the config
    after MAX_DRAWS attempts at one DAG, or at the first rejected draw once
    the collection's attempts have spent more than EDGE_BUDGET edge draws.
    """
    dags = []
    redraws = 0
    edge_draws = 0
    for d in range(1, cfg.dags_per_collection + 1):
        rng = stream(cfg.seed, "collection", collection_index, "dag", d)
        attempts = 0
        while True:
            attempts += 1
            if attempts > MAX_DRAWS:
                raise GenerationError(
                    f"no feasible DAG after {MAX_DRAWS} draws "
                    f"(collection {collection_index}, dag {d}, config {cfg.to_doc()})"
                )
            dag, n = _draw_dag(cfg, rng, d)
            edge_draws += n * (n - 1) // 2
            if dag is not None:
                break
            if edge_draws > EDGE_BUDGET:
                raise GenerationError(
                    f"no feasible DAG within {EDGE_BUDGET} edge draws, after {attempts} draws "
                    f"(collection {collection_index}, dag {d}, config {cfg.to_doc()})"
                )
            redraws += 1
        dags.append(dag)
    return TaskSet.build(dags), redraws


# Rows and summaries have slots: a default report holds 1200 rows, and
# with no __dict__ per object one report takes 0.132 MiB, not 0.189 MiB
# (seed 1, tracemalloc).
@dataclass(frozen=True, slots=True)
class Row:
    """One (collection, core count, algorithm) outcome."""

    collection: int
    m: int
    algorithm: str
    success: bool
    cores_used: int
    utilization: float | None
    hyperperiod: int
    seed: int


@dataclass(frozen=True, slots=True)
class MSummary:
    """Aggregated rates for one core count."""

    m: int
    collections: int
    proposed_successes: int
    baseline_successes: int
    proposed_success_rate: float
    baseline_success_rate: float
    proposed_utilization: float | None
    baseline_utilization: float | None


@dataclass(frozen=True)
class ExperimentReport:
    config: GenConfig
    core_counts: tuple[int, ...]
    regenerated: int
    summary: tuple[MSummary, ...]
    rows: tuple[Row, ...]


def _mean(values: list[float | None]) -> float | None:
    values = [v for v in values if v is not None]
    return sum(values) / len(values) if values else None


def _validate(mp: ScheduleMap, ts: TaskSet, cfg: GenConfig, c: int, what: str) -> None:
    report = validate_schedule(mp, ts)
    if not report.ok:
        first = report.violations[0]
        raise ExperimentError(
            f"collection {c} (seed {cfg.seed}): {what} failed validation: "
            f"{first.kind}: {first.where}"
        )


def _run_collection(cfg: GenConfig, ms: tuple[int, ...], c: int) -> tuple[list[Row], int]:
    """Generate collection c and run both algorithms on it for every m in ms.

    Returns the collection's rows (for each m in the order given, the
    proposed row then the baseline row) and its redraw count.  The proposed
    scheduler builds one map on as many cores as it needs, and it succeeds
    at each m that its core count fits.  Generated DAGs always fit their
    periods, so the scheduler never raises DagInfeasibleError here.  The
    baseline is simulated once per m.  Every map and every baseline success
    is re-checked by the validator, and a validation failure raises
    ExperimentError naming the collection for replay.  A schedule that
    validates runs every job once for its wcet, so both algorithms' busy
    time is the task set's work over the hyperperiod, counted once.
    """
    ts, redraws = generate_taskset(cfg, c)
    busy = sum(d.total_work * (ts.hyperperiod // d.period) for d in ts.dags)
    mp = schedule_taskset(ts)
    _validate(mp, ts, cfg, c, "scheduler output")
    used = mp.num_cores
    p_util = busy / (used * ts.hyperperiod)
    rows = []
    for m in ms:
        p_ok = used <= m
        rows.append(
            Row(c, m, PROPOSED, p_ok, used, p_util if p_ok else None, ts.hyperperiod, cfg.seed)
        )
        sim = gedf_np_simulate(ts, m)
        b_used = sim.trace.used_cores
        b_util = None
        if sim.success:
            _validate(sim.trace, ts, cfg, c, "baseline trace")
            if b_used:
                b_util = busy / (b_used * ts.hyperperiod)
        rows.append(Row(c, m, BASELINE, sim.success, b_used, b_util, ts.hyperperiod, cfg.seed))
    return rows, redraws


def _summarize(m: int, collections: int, rows: list[Row]) -> MSummary:
    p, b = ([r for r in rows if r.m == m and r.algorithm == alg and r.success]
            for alg in (PROPOSED, BASELINE))
    return MSummary(
        m=m,
        collections=collections,
        proposed_successes=len(p),
        baseline_successes=len(b),
        proposed_success_rate=len(p) / collections if collections else 0.0,
        baseline_success_rate=len(b) / collections if collections else 0.0,
        proposed_utilization=_mean([r.utilization for r in p]),
        baseline_utilization=_mean([r.utilization for r in b]),
    )


def run_experiment(cfg: GenConfig, core_counts: list[int]) -> ExperimentReport:
    """Schedule every collection with both algorithms across the core sweep.

    Each collection goes through _run_collection; the per-m summary is
    aggregated from the rows, in collection order.
    """
    ms = tuple(int(m) for m in core_counts)
    if not ms or any(not 1 <= m <= JOB_BUDGET for m in ms):
        raise ValueError(
            f"core_counts must list core counts in 1..{JOB_BUDGET}, got {core_counts}"
        )
    listed: set[int] = set()
    for m in ms:
        if m in listed:
            raise ValueError(f"core_counts repeats core count {m}, got {core_counts}")
        listed.add(m)
    rows: list[Row] = []
    regenerated = 0
    for c in range(cfg.collections):
        got, redraws = _run_collection(cfg, ms, c)
        rows.extend(got)
        regenerated += redraws
    return ExperimentReport(
        config=cfg,
        core_counts=ms,
        regenerated=regenerated,
        summary=tuple(_summarize(m, cfg.collections, rows) for m in ms),
        rows=tuple(rows),
    )


# --- report serialization ---------------------------------------------------


def report_doc(report: ExperimentReport) -> dict:
    return {"note": UTILIZATION_DEFINITION, **asdict(report)}


def dumps_report(report: ExperimentReport) -> str:
    return json.dumps(report_doc(report), indent=2) + "\n"


_KINDS = {
    "int": int, "bool": bool, "str": str, "float": float,
    "float | None": (float, type(None)), "list": list, "object": dict,
}


def _field(doc: dict, name: str, kind: str, where: str = "report field "):
    """doc[name] if it is present and a JSON value of the given kind.

    kind is a key of _KINDS, which covers the annotations of Row and
    MSummary; a bool is not an int here.  Otherwise raises ValueError
    naming ``where + name``.
    """
    if name not in doc:
        raise ValueError(f"{where}{name}: missing")
    value = doc[name]
    if isinstance(value, bool) != (kind == "bool") or not isinstance(value, _KINDS[kind]):
        raise ValueError(f"{where}{name}: must be {kind}, got {value!r}")
    return value


def _records(doc: dict, name: str, cls) -> tuple:
    """doc[name], a list of objects, as one cls per object."""
    out = []
    for i, item in enumerate(_field(doc, name, "list")):
        where = f"report field {name}[{i}]"
        if not isinstance(item, dict):
            raise ValueError(f"{where}: must be object, got {item!r}")
        out.append(cls(**{f.name: _field(item, f.name, f.type, where + ".") for f in fields(cls)}))
    return tuple(out)


def load_report(data: bytes | str) -> ExperimentReport:
    """Parse a report document.

    Malformed JSON raises ValueError("invalid JSON: ..."), and a missing or
    ill-typed field a ValueError naming the field.
    """
    doc = _load_json(data)
    if not isinstance(doc, dict):
        raise ValueError("report document must be an object")
    config = _field(doc, "config", "object")
    try:
        config = GenConfig.from_doc(config)
    except ValueError as exc:
        raise ValueError(f"report field config: {exc}") from exc
    return ExperimentReport(
        config=config,
        core_counts=tuple(
            _as_int(m, "report field core_counts:") for m in _field(doc, "core_counts", "list")
        ),
        regenerated=_field(doc, "regenerated", "int"),
        summary=_records(doc, "summary", MSummary),
        rows=_records(doc, "rows", Row),
    )


def dumps_report_csv(report: ExperimentReport) -> str:
    lines = [
        "# " + UTILIZATION_DEFINITION,
        "collection,m,algorithm,success,cores_used,utilization,hyperperiod,seed",
    ]
    for r in report.rows:
        util = "" if r.utilization is None else repr(r.utilization)
        lines.append(
            f"{r.collection},{r.m},{r.algorithm},{'true' if r.success else 'false'},"
            f"{r.cores_used},{util},{r.hyperperiod},{r.seed}"
        )
    return "\n".join(lines) + "\n"


def export_report(report: ExperimentReport, prefix: str) -> tuple[str, str]:
    """Write <prefix>.json and <prefix>.csv; returns the two paths."""
    json_path = f"{prefix}.json"
    csv_path = f"{prefix}.csv"
    with open(json_path, "w", encoding="utf-8") as fh:
        fh.write(dumps_report(report))
    with open(csv_path, "w", encoding="utf-8") as fh:
        fh.write(dumps_report_csv(report))
    return json_path, csv_path


def spot_check_report(report: ExperimentReport, sample: int = 3) -> None:
    """Re-derive a few collections of a loaded report and compare their rows.

    Reports carry no schedules, but every row is reproducible from the
    config and seed; this reruns a sample of collections through the same
    per-collection path as run_experiment, which re-validates every map and
    baseline success, and requires rows equal to the report's.  Raises
    ExperimentError on any mismatch.
    """
    collections = sorted({r.collection for r in report.rows})
    step = max(1, len(collections) // max(1, sample))
    for c in collections[::step][:sample]:
        recorded = [r for r in report.rows if r.collection == c]
        fresh, _ = _run_collection(report.config, report.core_counts, c)
        if recorded == fresh:
            continue
        if len(recorded) != len(fresh):
            raise ExperimentError(
                f"collection {c}: report says {len(recorded)} rows, rerun says {len(fresh)}"
            )
        got, row = next((g, r) for g, r in zip(recorded, fresh) if g != r)
        name = next(f.name for f in fields(Row) if getattr(got, f.name) != getattr(row, f.name))
        raise ExperimentError(
            f"collection {c} m={row.m} {row.algorithm}: report says "
            f"{name}={getattr(got, name)!r}, rerun says {getattr(row, name)!r}"
        )


# --- Gantt rendering ---------------------------------------------------------

_PALETTE = (
    "#4e79a7", "#f28e2b", "#59a14f", "#e15759", "#76b7b2",
    "#edc948", "#b07aa1", "#ff9da7", "#9c755f", "#bab0ac",
)

_LANE_HEIGHT = 34
_BAR_HEIGHT = 24
_MARGIN_LEFT = 64
_MARGIN_TOP = 28
_MARGIN_BOTTOM = 30
_MARGIN_RIGHT = 16
# A DAG whose period gridlines would fall closer than this many pixels gets
# none: a short period beside a long hyperperiod would draw one line per
# release, and they would blur into one band.
_GRID_MIN_PX = 8
# Gridlines are drawn DAG by DAG while their total stays within this many
# lines; a DAG that would take it past gets none, so the gridlines cost a
# bounded number of lines however many DAGs and releases a task set has.
_GRID_MAX_LINES = 200
# The plot takes 4 to 48 px per tick while that fits in this many pixels; a
# longer hyperperiod is scaled down to it, so the SVG width stays bounded.
_PLOT_MAX_PX = 4000


def _px(v) -> str:
    """An SVG coordinate: an int as it is, a float to two decimals at most."""
    return str(v) if isinstance(v, int) else f"{v:.2f}".removesuffix(".00")


def render_gantt(mp: ScheduleMap, ts: TaskSet) -> str:
    """Render a schedule map as an SVG document, one lane per core.

    Lanes are drawn up to the last core that holds an entry; the idle cores
    after it share one row whose label counts them, so a large declared core
    count costs one line.  Boxes are colored by DAG and labelled dag.node;
    dashed gridlines mark every DAG's period multiples, except for a DAG
    whose gridlines would lie closer than _GRID_MIN_PX pixels apart or take
    the lines drawn past _GRID_MAX_LINES.  The plot is at most _PLOT_MAX_PX
    wide: past that a tick is under 4 px, and coordinates that are not
    whole are written to two decimals.  Output is deterministic for a
    given map.
    Entries may overlap or run late, but each must be a job instance of ts:
    the first that is not raises TaskSetError, so a schedule drawn against
    the wrong task set is refused.
    """
    jobs = {(d.dag_id, n.node_id): ts.hyperperiod // d.period for d in ts.dags for n in d.nodes}
    for e in mp.entries():
        if not 0 <= e.job < jobs.get((e.dag_id, e.node_id), 0):
            raise TaskSetError(
                f"dag {e.dag_id} node {e.node_id} job {e.job} on core {e.core}: "
                f"no such job instance in the task set"
            )
    shown = mp.num_cores
    while shown and not mp.cores[shown - 1]:
        shown -= 1
    idle = mp.num_cores - shown
    rows = max(1, shown + 1 if idle else shown)
    horizon = max(ts.hyperperiod, 1)
    px = max(4, min(48, 960 // horizon))
    if horizon * px > _PLOT_MAX_PX:
        px = _PLOT_MAX_PX / horizon
    width = _MARGIN_LEFT + round(horizon * px) + _MARGIN_RIGHT
    height = _MARGIN_TOP + rows * _LANE_HEIGHT + _MARGIN_BOTTOM
    x0 = _MARGIN_LEFT
    y0 = _MARGIN_TOP
    right = _px(x0 + horizon * px)

    out = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}" '
        f'font-family="monospace" font-size="11">',
        f'<rect width="{width}" height="{height}" fill="white"/>',
    ]

    axis_bottom = y0 + rows * _LANE_HEIGHT
    # Time axis with a tick every period gridline plus the horizon ends.
    out.append(
        f'<line x1="{x0}" y1="{axis_bottom}" x2="{right}" y2="{axis_bottom}" '
        f'stroke="#333" stroke-width="1"/>'
    )
    for label, t in (("0", 0), (str(horizon), horizon)):
        x = _px(x0 + t * px)
        out.append(
            f'<text x="{x}" y="{axis_bottom + 16}" text-anchor="middle" fill="#333">{label}</text>'
        )

    drawn = 0
    for dag in ts.dags:
        releases = ts.hyperperiod // dag.period
        if dag.period * px < _GRID_MIN_PX or drawn + releases > _GRID_MAX_LINES:
            continue
        drawn += releases
        color = _PALETTE[(dag.dag_id - 1) % len(_PALETTE)]
        for k in range(1, releases + 1):
            x = _px(x0 + k * dag.period * px)
            out.append(
                f'<line x1="{x}" y1="{y0}" x2="{x}" y2="{axis_bottom}" stroke="{color}" '
                f'stroke-width="1" stroke-dasharray="3,3" opacity="0.6"/>'
            )

    for core in range(shown):
        y = y0 + core * _LANE_HEIGHT
        out.append(
            f'<text x="{x0 - 8}" y="{y + _LANE_HEIGHT // 2 + 4}" text-anchor="end" '
            f'fill="#333">core {core}</text>'
        )
        out.append(
            f'<line x1="{x0}" y1="{y}" x2="{right}" y2="{y}" '
            f'stroke="#ddd" stroke-width="1"/>'
        )
        for e in mp.cores[core]:
            color = _PALETTE[(e.dag_id - 1) % len(_PALETTE)]
            bx = x0 + e.start * px
            bw = (e.finish - e.start) * px
            by = y + (_LANE_HEIGHT - _BAR_HEIGHT) // 2
            out.append(
                f'<rect x="{_px(bx)}" y="{by}" width="{_px(bw)}" height="{_BAR_HEIGHT}" '
                f'fill="{color}" stroke="#333" stroke-width="1">'
                f"<title>dag {e.dag_id} node {e.node_id} job {e.job}: "
                f"[{e.start},{e.finish})</title></rect>"
            )
            if bw >= 24:
                out.append(
                    f'<text x="{_px(bx + bw // 2)}" y="{by + _BAR_HEIGHT - 8}" '
                    f'text-anchor="middle" fill="white">{e.dag_id}.{e.node_id}</text>'
                )
    if idle:
        y = y0 + shown * _LANE_HEIGHT
        what = f"core {shown}" if idle == 1 else f"{idle} cores {shown}..{mp.num_cores - 1}"
        out.append(
            f'<text x="{x0 + 4}" y="{y + _LANE_HEIGHT // 2 + 4}" fill="#999">{what} idle</text>'
        )
        out.append(
            f'<line x1="{x0}" y1="{y}" x2="{right}" y2="{y}" '
            f'stroke="#ddd" stroke-width="1"/>'
        )

    out.append("</svg>")
    return "\n".join(out) + "\n"
