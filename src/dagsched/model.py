"""Domain types for periodic DAG task sets, schedule maps, and validation.

All times are integer ticks and must stay within 64-bit range.  Deadlines are
implicit (equal to the period), all DAGs release their first job at time 0,
and node executions are non-preemptable: a schedule entry occupies one core
for exactly its worst-case execution time.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from fractions import Fraction
from operator import itemgetter
from typing import Iterable, Mapping, NamedTuple

TICK_MAX = 2**64 - 1
# Job instances per hyperperiod a task set may expand to: extension, the
# validator and the GEDF-NP simulator each materialise every one of them.
# It also bounds a core count, since no schedule needs more cores than jobs
# and a schedule map or a simulation allocates one lane per core.
JOB_BUDGET = 10**6

# Violation kinds reported by validate_schedule.
OVERLAP = "overlap"
PRECEDENCE = "precedence"
DEADLINE = "deadline"
RELEASE = "release"
DURATION = "duration"
MISSING_JOB = "missing_job"
UNKNOWN_NODE = "unknown_node"


class TaskSetError(ValueError):
    """Malformed task-set or schedule document."""


class TickOverflowError(OverflowError):
    """A derived tick value exceeded the 64-bit tick range."""


def hyperperiod(periods: Iterable[int]) -> int:
    """Least common multiple of the given periods, in exact integer arithmetic.

    Raises TickOverflowError if the result would not fit in 64 bits; the
    result is never silently wrapped.
    """
    result = 1
    for p in periods:
        if not isinstance(p, int) or isinstance(p, bool) or p < 1:
            raise TaskSetError(f"period must be a positive integer, got {p!r}")
        result = math.lcm(result, p)
        if result > TICK_MAX:
            raise TickOverflowError(f"hyperperiod exceeds {TICK_MAX}")
    return result


class TaskNode(NamedTuple):
    """One non-preemptable vertex of a DAG.

    A named tuple: immutable, and equal to a plain tuple of the same five
    fields in this order.
    """

    dag_id: int
    node_id: int
    wcet: int
    parents: tuple[int, ...]
    children: tuple[int, ...]


@dataclass(frozen=True)
class DagSpec:
    """One periodic DAG with derived totals.

    The deadline is the period; total_work is the sum of node wcets and
    cp_length the weight of the heaviest directed path.  topo_order is the
    node ids in the topological order build_dag's cycle check found, and
    est the earliest start of each node in nodes, the heaviest path ending
    at its parents, found by the same pass (DagAnalysis.est maps node ids
    to it).  est is a tuple, a fifth of a dict's size, because every DAG
    holds it for as long as its task set lives.
    """

    dag_id: int
    period: int
    total_work: int
    cp_length: int
    nodes: tuple[TaskNode, ...]
    topo_order: tuple[int, ...] = field(repr=False, compare=False)
    est: tuple[int, ...] = field(repr=False, compare=False)
    _by_id: dict = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "_by_id", {n.node_id: n for n in self.nodes})

    def node(self, node_id: int) -> TaskNode:
        return self._by_id[node_id]

    @property
    def deadline(self) -> int:
        return self.period

    @property
    def node_ids(self) -> tuple[int, ...]:
        return tuple(n.node_id for n in self.nodes)

    @property
    def entry_ids(self) -> tuple[int, ...]:
        return tuple(n.node_id for n in self.nodes if not n.parents)

    @property
    def utilization(self) -> Fraction:
        return Fraction(self.total_work, self.period)


@dataclass(frozen=True)
class TaskSet:
    """A set of periodic DAGs plus the derived hyperperiod.

    build admits at most JOB_BUDGET jobs over the hyperperiod.
    """

    dags: tuple[DagSpec, ...]
    hyperperiod: int
    _by_id: dict = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "_by_id", {d.dag_id: d for d in self.dags})

    def dag(self, dag_id: int) -> DagSpec:
        return self._by_id[dag_id]

    @classmethod
    def build(cls, dags: Iterable[DagSpec]) -> "TaskSet":
        dags = tuple(sorted(dags, key=lambda d: d.dag_id))
        ids = [d.dag_id for d in dags]
        if ids != list(range(1, len(dags) + 1)):
            raise TaskSetError(f"dag ids must be dense 1..n, got {ids}")
        h = hyperperiod(d.period for d in dags)
        jobs = [len(d.nodes) * (h // d.period) for d in dags]
        if sum(jobs) > JOB_BUDGET:
            counts = ", ".join(f"dag {d.dag_id}: {n}" for d, n in zip(dags, jobs))
            raise TaskSetError(
                f"hyperperiod {h} expands to {sum(jobs)} jobs, over the budget of "
                f"{JOB_BUDGET} ({counts})"
            )
        return cls(dags=dags, hyperperiod=h)


def _find_cycle(dag_id: int, remaining: set[int], parents: Mapping[int, set[int]]) -> str:
    # Every node left over by Kahn's algorithm has a parent among the
    # leftovers, so walking parent links must revisit a node.
    start = min(remaining)
    path = [start]
    seen = {start}
    cur = start
    while True:
        cur = min(p for p in parents[cur] if p in remaining)
        if cur in seen:
            cycle = path[path.index(cur):] + [cur]
            arrow = " -> ".join(str(n) for n in reversed(cycle))
            raise TaskSetError(f"dag {dag_id}: cycle detected: {arrow}")
        seen.add(cur)
        path.append(cur)


def build_dag(
    dag_id: int,
    period: int,
    wcets: Mapping[int, int],
    edges: Iterable[tuple[int, int]] = (),
) -> DagSpec:
    """Assemble a DagSpec from raw node weights and precedence edges.

    wcets maps node id to execution time; edges are (parent, child) pairs.
    Derived fields (total work, critical-path length, topological order,
    earliest starts) are computed here.
    Raises TaskSetError for ids and edge endpoints that are not integers
    (bools included: True == 1 would pass every id lookup), non-positive
    weights or periods, dangling edge endpoints, and cycles (the error names
    one offending cycle).
    """
    _as_int(dag_id, "dag id")
    if not isinstance(period, int) or isinstance(period, bool) or period < 1:
        raise TaskSetError(f"dag {dag_id}: period must be a positive integer, got {period!r}")
    for nid, w in wcets.items():
        if type(nid) is not int:
            _as_int(nid, "dag %d: node id", dag_id)
        if not isinstance(w, int) or isinstance(w, bool) or w < 1:
            raise TaskSetError(f"dag {dag_id}: node {nid}: wcet must be >= 1, got {w!r}")
    ids = sorted(wcets)
    parents: dict[int, set[int]] = {nid: set() for nid in ids}
    children: dict[int, set[int]] = {nid: set() for nid in ids}
    for u, v in edges:
        if type(u) is not int or type(v) is not int:
            _as_int(u, "dag %d: edge src", dag_id)
            _as_int(v, "dag %d: edge dst", dag_id)
        if u not in parents or v not in parents:
            raise TaskSetError(f"dag {dag_id}: edge {u} -> {v} references a missing node")
        if u == v:
            raise TaskSetError(f"dag {dag_id}: cycle detected: {u} -> {u}")
        children[u].add(v)
        parents[v].add(u)
    kids = {nid: tuple(sorted(children[nid])) for nid in ids}

    # Kahn's algorithm: topological order, doubling as the cycle check.  The
    # order list is its own queue: the loop visits nodes appended behind it.
    # By a node's turn every parent has pushed its finish into the node's
    # earliest start, so the same loop finds the longest path.
    indeg = {nid: len(parents[nid]) for nid in ids}
    start = dict.fromkeys(ids, 0)
    order = [nid for nid in ids if not indeg[nid]]
    cp_length = 0
    for nid in order:
        finish = start[nid] + wcets[nid]
        if finish > cp_length:
            cp_length = finish
        for c in kids[nid]:
            if finish > start[c]:
                start[c] = finish
            indeg[c] -= 1
            if not indeg[c]:
                order.append(c)
    if len(order) < len(ids):
        _find_cycle(dag_id, set(ids) - set(order), parents)

    nodes = tuple(
        TaskNode(dag_id, nid, wcets[nid], tuple(sorted(parents[nid])), kids[nid]) for nid in ids
    )
    return DagSpec(
        dag_id=dag_id,
        period=period,
        total_work=sum(wcets.values()),
        cp_length=cp_length,
        nodes=nodes,
        topo_order=tuple(order),
        est=tuple(start.values()),  # start is keyed by ids in order, as nodes is
    )


class ScheduleEntry(NamedTuple):
    """One placed job execution: node instance `job` of a DAG on a core.

    A named tuple: immutable, and equal (with an equal hash) to any entry or
    plain tuple of the same six fields in this order.
    """

    dag_id: int
    node_id: int
    job: int
    core: int
    start: int
    finish: int


# Sort keys over ScheduleEntry fields: within a lane (start, finish, dag,
# node, job); in a schedule document (core, then the lane order).
_LANE_ORDER = itemgetter(4, 5, 0, 1, 2)
_DOC_ORDER = itemgetter(3, 4, 5, 0, 1, 2)


@dataclass(frozen=True)
class ScheduleMap:
    """Per-core, start-ordered lists of schedule entries."""

    num_cores: int
    cores: tuple[tuple[ScheduleEntry, ...], ...]

    @classmethod
    def from_entries(cls, num_cores: int, entries: Iterable[ScheduleEntry]) -> "ScheduleMap":
        # Only cores that hold entries get a lane of their own; the rest
        # share one empty tuple, so a large declared core count costs little.
        by_core: dict[int, list[ScheduleEntry]] = {}
        for e in entries:
            if not 0 <= e.core < num_cores:
                raise TaskSetError(f"entry core {e.core} out of range 0..{num_cores - 1}")
            by_core.setdefault(e.core, []).append(e)
        cores: list[tuple[ScheduleEntry, ...]] = [()] * num_cores
        for core, lane in by_core.items():
            lane.sort(key=_LANE_ORDER)
            cores[core] = tuple(lane)
        return cls(num_cores=num_cores, cores=tuple(cores))

    def entries(self) -> Iterable[ScheduleEntry]:
        for lane in self.cores:
            yield from lane

    @property
    def used_cores(self) -> int:
        return sum(1 for lane in self.cores if lane)


@dataclass(frozen=True)
class Violation:
    kind: str
    where: str


@dataclass(frozen=True)
class ValidationReport:
    """Outcome of validate_schedule: the violations found, in sorted order.

    violations is the one stored field; ok is derived, True iff it is empty.
    """

    violations: tuple[Violation, ...]

    @property
    def ok(self) -> bool:
        return not self.violations


def _locus(e: ScheduleEntry, core_idx: int) -> str:
    return f"dag {e.dag_id} node {e.node_id} job {e.job} on core {core_idx}"


def _integral(job) -> int | None:
    """The int that job equals (1 for True or 1.0), or None."""
    try:
        return int(job) if int(job) == job else None
    except (TypeError, ValueError, OverflowError):
        return None


def validate_schedule(mp: ScheduleMap, ts: TaskSet) -> ValidationReport:
    """Check a schedule map against every rule of the task model.

    Over one hyperperiod: each job instance of each node appears exactly
    once, runs for exactly its wcet inside its own period window, cores
    never run two entries at once, and a job's parents finish before its
    children start.  Violations are collected exhaustively; entries that
    match no known job instance (or duplicate one) are reported as
    ``unknown_node`` and skipped by the remaining checks.

    Jobs are read off the DAGs: one pass files each entry into a slot per
    (DAG, job), node id -> entry, and only short slots are walked.
    """
    violations: list[Violation] = []
    # dag id -> (period, nodes by id, releases, job -> slot)
    known = {d.dag_id: (d.period, d._by_id, ts.hyperperiod // d.period, {}) for d in ts.dags}
    for core_idx, lane in enumerate(mp.cores):
        for e in lane:
            dag_id, node_id, job, _, start, finish = e
            spec = known.get(dag_id)
            node = spec and spec[1].get(node_id)
            if type(job) is not int:
                job = _integral(job)
            if node is None or job is None or not 0 <= job < spec[2]:
                violations.append(
                    Violation(UNKNOWN_NODE, f"{_locus(e, core_idx)}: no such job instance")
                )
                continue
            slot = spec[3].get(job)
            if slot is None:
                slot = spec[3][job] = {}
            elif node.node_id in slot:
                violations.append(
                    Violation(UNKNOWN_NODE, f"{_locus(e, core_idx)}: duplicate placement")
                )
                continue
            slot[node.node_id] = e
            release = job * spec[0]
            deadline = release + spec[0]
            if finish - start != node.wcet:
                violations.append(Violation(
                    DURATION,
                    f"{_locus(e, core_idx)}: runs {finish - start} ticks, wcet is {node.wcet}",
                ))
            if start < release:
                violations.append(Violation(
                    RELEASE, f"{_locus(e, core_idx)}: starts {start} before release {release}"
                ))
            if finish > deadline:
                violations.append(Violation(
                    DEADLINE, f"{_locus(e, core_idx)}: finishes {finish} after deadline {deadline}",
                ))

    # Per-core overlap: compare each entry against the latest finish so far
    # so nested intervals are caught, not just adjacent ones.
    for core_idx, lane in enumerate(mp.cores):
        if not lane:
            continue
        ordered = iter(sorted(lane, key=_LANE_ORDER))
        prev = next(ordered)
        for e in ordered:
            if e.start < prev.finish:
                violations.append(
                    Violation(
                        OVERLAP,
                        f"core {core_idx}: dag {e.dag_id} node {e.node_id} job {e.job} "
                        f"[{e.start},{e.finish}) overlaps dag {prev.dag_id} node "
                        f"{prev.node_id} job {prev.job} [{prev.start},{prev.finish})",
                    )
                )
            if e.finish > prev.finish:
                prev = e

    # Per DAG: a job whose slot is short of the node count misses nodes,
    # and same-job precedence is checked only where both ends were placed.
    for dag in ts.dags:
        dag_id, width = dag.dag_id, len(dag.nodes)
        _, nodes, releases, jobs = known[dag_id]
        for k in range(releases) if width else ():
            slot = jobs.get(k, ())
            if len(slot) < width:
                violations.extend(
                    Violation(MISSING_JOB, f"dag {dag_id} node {nid} job {k}: never scheduled")
                    for nid in nodes if nid not in slot
                )
        arcs = [(n.node_id, n.children) for n in dag.nodes if n.children]
        for k, slot in jobs.items():
            for node_id, children in arcs:
                pe = slot.get(node_id)
                if pe is None:
                    continue
                for child in children:
                    ce = slot.get(child)
                    if ce is not None and pe.finish > ce.start:
                        violations.append(Violation(
                            PRECEDENCE, f"dag {dag_id} job {k}: node {node_id} finishes "
                            f"{pe.finish} after child {child} starts {ce.start}",
                        ))

    violations.sort(key=lambda v: (v.kind, v.where))
    return ValidationReport(violations=tuple(violations))


# --- document formats -------------------------------------------------------
#
# Task-set document:
#   {"dags": [{"id": 1, "period": 10,
#              "nodes": [{"id": 1, "wcet": 2}, ...],
#              "edges": [[1, 2], ...]}, ...]}
# Schedule document:
#   {"num_cores": 2, "entries": [{"dag": 1, "node": 1, "job": 0,
#                                 "core": 0, "start": 0, "finish": 2}, ...]}
# Entries are sorted by (core, start) so serialization is byte-stable.


def _as_int(value, what: str, *args) -> int:
    """value itself if it is an integer (not a bool).

    Otherwise raises TaskSetError naming ``what % args``: the text is only
    built for the error.
    """
    if type(value) is int:
        return value
    if not isinstance(value, int) or isinstance(value, bool):
        raise TaskSetError(f"{what % args} must be an integer, got {value!r}")
    return value


def _load_json(data: bytes | str):
    """The parsed document; malformed JSON raises TaskSetError("invalid JSON: ...")."""
    try:
        return json.loads(data)
    except (json.JSONDecodeError, RecursionError) as exc:  # RecursionError: nested too deeply
        raise TaskSetError(f"invalid JSON: {exc}") from exc


def load_taskset(data: bytes | str) -> TaskSet:
    """Parse a task-set document and compute all derived fields."""
    doc = _load_json(data)
    if not isinstance(doc, dict) or not isinstance(doc.get("dags"), list):
        raise TaskSetError('task-set document must be an object with a "dags" list')
    dags = []
    for i, d in enumerate(doc["dags"]):
        if not isinstance(d, dict):
            raise TaskSetError(f"dag entry {i}: must be an object")
        dag_id = _as_int(d.get("id"), "dag entry %d: id", i)
        period = d.get("period")
        nodes = d.get("nodes")
        if not isinstance(nodes, list):
            raise TaskSetError(f"dag {dag_id}: nodes must be a list")
        wcets: dict[int, int] = {}
        for n in nodes:
            if not isinstance(n, dict):
                raise TaskSetError(f"dag {dag_id}: node entries must be objects")
            nid = _as_int(n.get("id"), "dag %d: node id", dag_id)
            if nid in wcets:
                raise TaskSetError(f"dag {dag_id}: duplicate node id {nid}")
            wcets[nid] = n.get("wcet")
        edges = d.get("edges", [])
        if not isinstance(edges, list):
            raise TaskSetError(f"dag {dag_id}: edges must be a list")
        for e in edges:
            if not (isinstance(e, list) and len(e) == 2):
                raise TaskSetError(f"dag {dag_id}: edges must be [src, dst] pairs")
        # build_dag rejects endpoints that are not integers
        dags.append(build_dag(dag_id, period, wcets, edges))
    return TaskSet.build(dags)


# One node, one edge and one DAG as json.dumps(..., indent=2) lays them out
# inside the "nodes", "edges" and "dags" lists.
_NODE_TEMPLATE = '        {\n          "id": %d,\n          "wcet": %d\n        }'
_EDGE_TEMPLATE = '        [\n          %d,\n          %d\n        ]'
_DAG_TEMPLATE = (
    '    {\n      "id": %d,\n      "period": %d,\n      "nodes": %s,\n      "edges": %s\n    }'
)


def _dag_list(items: list[str]) -> str:
    """A list inside a DAG object: its items one per line, or []."""
    body = ",\n".join(items)
    return "[\n%s\n      ]" % body if body else "[]"


def dumps_taskset(ts: TaskSet) -> str:
    """Serialize a task set as its task-set document.

    The bytes equal json.dumps(doc, indent=2) + "\\n" of the document with
    DAGs by id, each DAG's nodes by id and its edges by (parent, child).  The
    text is written from fixed templates because json's indented encoder runs
    in pure Python, one call per value.
    """
    if not ts.dags:
        return '{\n  "dags": []\n}\n'
    dags = [
        _DAG_TEMPLATE % (
            dag.dag_id,
            dag.period,
            _dag_list([_NODE_TEMPLATE % (n.node_id, n.wcet) for n in dag.nodes]),
            _dag_list([_EDGE_TEMPLATE % (n.node_id, c) for n in dag.nodes for c in n.children]),
        )
        for dag in ts.dags
    ]
    # The first and last DAG carry the document's head and tail, so the one
    # join is the only copy of the whole text: copying it once more raised
    # the replay benchmark's peak memory by 0.4 MiB.
    dags[0] = '{\n  "dags": [\n' + dags[0]
    dags[-1] += "\n  ]\n}\n"
    return ",\n".join(dags)


# One schedule entry as json.dumps(..., indent=2) lays it out inside the
# "entries" list; the fields follow ScheduleEntry's order.
_ENTRY_TEMPLATE = (
    '    {\n      "dag": %d,\n      "node": %d,\n      "job": %d,\n'
    '      "core": %d,\n      "start": %d,\n      "finish": %d\n    }'
)


def dumps_schedule(mp: ScheduleMap) -> str:
    """Serialize a schedule map as its schedule document.

    The bytes equal json.dumps(doc, indent=2) + "\\n" of the document with
    entries ordered by (core, start, finish, dag, node, job).  The text is
    written from fixed templates because json's indented encoder runs in
    pure Python, one call per value.
    """
    ordered = sorted(mp.entries(), key=_DOC_ORDER)
    if not ordered:
        return '{\n  "num_cores": %d,\n  "entries": []\n}\n' % mp.num_cores
    body = ",\n".join(map(_ENTRY_TEMPLATE.__mod__, ordered))
    return '{\n  "num_cores": %d,\n  "entries": [\n%s\n  ]\n}\n' % (mp.num_cores, body)


def load_schedule(data: bytes | str) -> ScheduleMap:
    """Parse a schedule document back into a ScheduleMap."""
    doc = _load_json(data)
    if not isinstance(doc, dict):
        raise TaskSetError("schedule document must be an object")
    num_cores = _as_int(doc.get("num_cores"), "num_cores")
    if not 0 <= num_cores <= JOB_BUDGET:
        raise TaskSetError(f"num_cores must be in 0..{JOB_BUDGET}, got {num_cores}")
    raw = doc.get("entries")
    if not isinstance(raw, list):
        raise TaskSetError('schedule document must carry an "entries" list')
    entries = []
    for i, e in enumerate(raw):
        if not isinstance(e, dict):
            raise TaskSetError(f"entry {i}: must be an object")
        entries.append(
            ScheduleEntry(
                dag_id=_as_int(e.get("dag"), "entry %d: dag", i),
                node_id=_as_int(e.get("node"), "entry %d: node", i),
                job=_as_int(e.get("job"), "entry %d: job", i),
                core=_as_int(e.get("core"), "entry %d: core", i),
                start=_as_int(e.get("start"), "entry %d: start", i),
                finish=_as_int(e.get("finish"), "entry %d: finish", i),
            )
        )
    return ScheduleMap.from_entries(num_cores, entries)
