"""Offline scheduling of periodic DAG task sets: a table first, then the pipeline.

Every DAG is analysed once.  The first candidate map is a list-scheduled
table: the baseline's engine run with each node keyed by its job's release
plus the node's latest start (ALAP priority), at ceil(total utilization)
cores and the count above it.  When that table meets the bound no map
can use fewer cores, and it is the map.  Otherwise the five-step pipeline
runs on the same analyses and the map with fewer cores wins, ties going to
the pipeline's map, the more partitioned one.

The pipeline works per DAG, heaviest utilization first: place nodes backward
from the deadline (exit nodes first, highest prior-plus load first), pulling
each task as late as its children's placements allow, so the front of every
core stays free for tighter work.  A gap-filling compaction pass then migrates
low-priority tasks into earlier holes and drops emptied cores, the one-period
map is repeated across the hyperperiod, and a final compaction pass over all
DAGs merges their core blocks (semi-partitioned: most cores keep one DAG's
tasks, merged cores host several).  Either map uses as many cores as it
needs; a caller accepts the task set on m cores iff the map's num_cores is at
most m.
"""

from __future__ import annotations

from bisect import bisect_right
from heapq import heappop, heappush
from operator import attrgetter
from typing import Sequence

# prior_plus is unused here, but perfbench/tracer.py binds scheduler.prior_plus.
from .analysis import DagAnalysis, analyze_dag, prior_plus
from .baseline import list_schedule
from .model import DagSpec, ScheduleEntry, ScheduleMap, TaskSet

# Restretch+sweep cycles per restretch trial of compact.  Two keep every map
# of seeds 1-10 and 1009 but cost 4 cores and 4 m = 5 successes on 11-30.
_RESTRETCH_CYCLES = 3
# Core counts the table tries, from the bound up.  Success is not monotone
# in the core count (Graham's anomalies), so the first success may lie above
# a failure.  A bound + 2 try was never the map on the 6200 default sets of
# seeds 1-30 and 1009 or on the scale and hyperperiod ladders: where the
# table first met every deadline there, the pipeline used no more cores.
_TABLE_TRIES = 2
_WIDTH = attrgetter("width")


class DagInfeasibleError(Exception):
    """A DAG has an ancestor chain no core count can fit before the deadline."""

    def __init__(self, dag_id: int, node_id: int):
        super().__init__(f"dag {dag_id}: node {node_id} cannot meet the deadline on any core")
        self.dag_id = dag_id
        self.node_id = node_id


def _check_feasible(dag: DagSpec, analysis: DagAnalysis) -> None:
    """Raise DagInfeasibleError unless analysis.feasible.

    The error names the exit node with the lowest rank_pos among those whose
    earliest start plus wcet exceeds the deadline: the node the backward
    placement, which takes exit nodes in rank_pos order, would first find
    no room for.  The critical path ends at an exit node, so a DAG is
    infeasible iff some exit node is late.
    """
    if analysis.feasible:
        return
    late = [n.node_id for n in dag.nodes
            if not n.children and analysis.est[n.node_id] + n.wcet > dag.deadline]
    raise DagInfeasibleError(dag.dag_id, min(late, key=analysis.rank_pos.__getitem__))


class Placement:
    """One placed job execution; mutable while the schedule is being shaped.

    rank is the job's effective prior-plus load, the node's prior-plus plus
    job times the DAG's total work: compaction moves lower ranks first.
    lo and hi bound the job's static window, [release + earliest start,
    release + latest finish] from the DAG analysis: no legal layout starts
    the job before lo or finishes it after hi.

    The last five slots are set by compact on the placements it is given.
    ups and downs are the same job's parent and child entries, so the earliest
    legal start (the latest of lo and the parents' finishes) and the latest
    legal finish (the earliest of hi and the children's starts) are read
    off the current placements in place.  The static window stands in for
    the period window there: an entry node's lo is its release and an exit
    node's hi its deadline, and in a legal layout every other node has a
    parent finishing at or after its lo and a child starting at or before
    its hi (see _Compactor._fill), so the results are the same.  width
    never changes; efin = lo + width and lstart = hi - width are the
    earliest finish and the latest start that the static window allows.
    """

    __slots__ = ("dag_id", "node_id", "job", "start", "finish", "rank", "lo", "hi",
                 "ups", "downs", "width", "efin", "lstart")

    def __init__(
        self, dag_id: int, node_id: int, job: int, start: int, finish: int, rank: int,
        lo: int, hi: int,
    ):
        self.dag_id = dag_id
        self.node_id = node_id
        self.job = job
        self.start = start
        self.finish = finish
        self.rank = rank
        self.lo = lo
        self.hi = hi

    def __repr__(self):
        return (
            f"Placement(dag={self.dag_id}, node={self.node_id}, job={self.job}, "
            f"[{self.start},{self.finish}))"
        )


def primary_schedule(
    dag: DagSpec, analysis: DagAnalysis, trace: list[str] | None = None
) -> list[list[Placement]]:
    """Build the one-period schedule of a single DAG, stretching to the deadline.

    Nodes are taken bottom-up: the ready queue starts with the exit nodes and
    a node joins once all its children are placed.  Each node goes to the core
    maximizing alpha = min(latest finish, start of the core's earliest entry),
    finishing exactly at alpha; a node's latest finish is its children's
    earliest start, or the deadline for an exit node.  A fresh core is opened
    only when no existing core leaves room above the node's earliest start.

    Raises DagInfeasibleError iff not analysis.feasible (the critical path
    exceeds the deadline), before placing anything (see _check_feasible).
    A feasible DAG always finds room: a node's latest finish is the
    deadline or a child's start, and either leaves its wcet above its
    earliest start, so a fresh core always fits it.

    analysis is the caller's analyze_dag(dag): this function never runs
    the analysis itself, and analyze_taskset is the only place the
    scheduler calls analyze_dag.
    Returns one list of placements per core used (job index 0), each ranked
    by its node's prior-plus load and bounded by its earliest start and
    latest finish from the analysis.
    """
    _check_feasible(dag, analysis)
    if not dag.nodes:
        return []
    est, lft = analysis.est, analysis.lft
    rank_pos, prior = analysis.rank_pos, analysis.prior_plus

    deadline = dag.deadline
    cores = analysis.min_cores or 1
    lanes: list[list[Placement]] = [[] for _ in range(cores)]
    free_until = [deadline] * cores  # start of each core's earliest entry

    start_of: dict[int, int] = {}  # placed node id -> its start
    waiting = {n.node_id: len(n.children) for n in dag.nodes}
    ready: list[tuple[int, int]] = []
    for nid, count in waiting.items():
        if count == 0:
            heappush(ready, (rank_pos[nid], nid))

    while ready:
        _, nid = heappop(ready)
        node = dag.node(nid)
        latest = min((start_of[c] for c in node.children), default=deadline)

        best_core = 0
        best_alpha = min(latest, free_until[0])
        for i in range(1, len(lanes)):
            alpha = min(latest, free_until[i])
            if alpha > best_alpha:
                best_core, best_alpha = i, alpha
        if best_alpha - node.wcet < est[nid]:
            # No existing core leaves room; a fresh one frees the whole period.
            lanes.append([])
            free_until.append(deadline)
            best_core, best_alpha = len(lanes) - 1, latest

        start = best_alpha - node.wcet
        lanes[best_core].insert(
            0, Placement(dag.dag_id, nid, 0, start, best_alpha, prior[nid], est[nid], lft[nid])
        )
        free_until[best_core] = start
        start_of[nid] = start
        if trace is not None:
            trace.append(
                f"dag {dag.dag_id} node {nid} -> core {best_core}: "
                f"alpha={best_alpha} start={start} finish={best_alpha}"
            )
        for p in node.parents:
            waiting[p] -= 1
            if waiting[p] == 0:
                heappush(ready, (rank_pos[p], p))

    return lanes


class _Compactor:
    """Sweep machinery over the placements of one compact call.

    One compactor serves a whole compact call: it links the placements once,
    in copies of the input's lane lists, and every retry trial moves them in
    place, rolled back by restore when it is rejected (see trial).

    Invariant: every lane is sorted by start and no two of its entries
    overlap.  So the hole before an entry starts at its predecessor's
    finish, and a lane's idle tail starts at its last entry's finish.
    Every entry is linked to its job's parents and children (see Placement),
    so a move needs no bookkeeping beyond the lanes themselves.
    Alongside each lane, movers holds the same entries in nondecreasing
    width, so a fill's walk of a lane stops at the first mover too wide
    for its hole.  It changes only when a fill moves an entry to another
    lane, and restore rebuilds it.
    """

    def __init__(self, cores: Sequence[Sequence[Placement]], ts: TaskSet):
        self.horizon = ts.hyperperiod
        self.lanes = [list(lane) for lane in cores]
        jobs: dict[tuple[int, int], dict[int, Placement]] = {}  # (dag, job) -> node id -> entry
        for lane in self.lanes:
            for p in lane:
                entry = jobs.get((p.dag_id, p.job))
                if entry is None:
                    entry = jobs[(p.dag_id, p.job)] = {}
                entry[p.node_id] = p
        for (dag_id, job), entry in jobs.items():
            linked = entry.__getitem__
            for node in ts.dag(dag_id).nodes:
                p = entry[node.node_id]
                p.ups = [*map(linked, node.parents)]
                p.downs = [*map(linked, node.children)]
                width = p.width = p.finish - p.start
                p.efin, p.lstart = p.lo + width, p.hi - width
        self.top_rank = max((p.rank for lane in self.lanes for p in lane), default=0)
        self._index()

    def _index(self) -> None:
        self.movers = [sorted(lane, key=_WIDTH) for lane in self.lanes]

    def used(self) -> int:
        return sum(1 for lane in self.lanes if lane)

    def restore(self, saved: list[list[tuple[Placement, int]]]) -> None:
        """Put every entry back at its saved lane and start."""
        for lane in saved:
            for p, start in lane:
                p.start, p.finish = start, start + p.width
        self.lanes = [[p for p, _ in lane] for lane in saved]
        self._index()

    def _fill(
        self,
        ci: int,
        at: int,
        gap_start: int,
        gap_end: int,
        cands: list[tuple[list[Placement], int]],
    ) -> bool:
        """Migrate the preferred fitting entry from a higher core into the hole.

        Returns whether an entry moved.

        The hole is [gap_start, gap_end) just before index at of lane ci,
        and cands holds the (movers, lane index) of the non-empty lanes
        above ci.  Each lane's movers are in nondecreasing width, so its
        walk stops at the first mover wider than the hole: every later one
        is at least as wide.  The key ends in the mover's unique (dag,
        node, job), so it is a strict total order: the choice never depends
        on the order in which movers of equal width are visited, and
        restore may rebuild the width order in any such order.

        A mover whose static window rules out the hole is skipped before
        its links are read.  The test is exact.  In a legal layout a job's
        earliest legal start is at least lo and its latest legal finish at
        most hi, by induction along the DAG from its entries and from its
        exits, and every rung keeps the layout legal.  So a mover with
        efin = lo + width > gap_end cannot finish by gap_end, and a mover
        with lstart = hi - width < gap_start cannot start at or after
        gap_start and still finish by its latest legal finish.  Either way
        the full check would reject it, so the chosen mover is the same.

        A mover whose rank exceeds the best rank found so far in this fill
        is skipped before its window and links are read: the key starts
        with the rank, so its key would be larger than the best key.  The
        best rank starts at top_rank, the largest rank in the compactor.
        """
        room = gap_end - gap_start
        best: Placement | None = None
        best_core = -1
        best_key: tuple | None = None
        best_rank = self.top_rank
        best_start = 0
        for movers, cj in cands:
            for cand in movers:
                w = cand.width
                if w > room:
                    break
                if cand.rank > best_rank or cand.efin > gap_end or cand.lstart < gap_start:
                    continue
                d = cand.lo
                for q in cand.ups:
                    if q.finish > d:
                        d = q.finish
                chosen = d if d > gap_start else gap_start
                fin = chosen + w
                if fin > gap_end or fin > cand.hi:
                    continue
                for c in cand.downs:
                    if c.start < fin:
                        break
                else:
                    key = (cand.rank, d + w, cand.dag_id, cand.node_id, cand.job)
                    if best_key is None or key < best_key:
                        best, best_core, best_key, best_start = cand, cj, key, chosen
                        best_rank = cand.rank
        if best is None:
            return False
        w = best.width
        self.lanes[best_core].remove(best)
        self.movers[best_core].remove(best)
        movers = self.movers[ci]
        movers.insert(bisect_right(movers, w, key=_WIDTH), best)
        best.start, best.finish = best_start, best_start + w
        self.lanes[ci].insert(at, best)
        return True

    def sweep(self, shift_any: bool) -> bool:
        """One walk over every gap; returns whether anything acted.

        Each entry gets at most one action: the best-fitting mover from a
        higher-indexed core migrates into the hole before it, or, failing
        that, the entry itself slides left to its earliest legal start.
        With shift_any False the slide is allowed only when the hole is the
        core's free prefix (the first entry of the core).  The idle stretch
        after a non-empty core's last entry counts as one more fillable
        hole, bounded by the schedule horizon.
        """
        horizon, movers = self.horizon, self.movers
        acted = False
        for ci, lane in enumerate(self.lanes):
            if not lane:
                continue
            cands = [(movers[cj], cj) for cj in range(ci + 1, len(movers)) if movers[cj]]
            gap_start = 0
            at = 0
            n = len(lane)
            while at < n:
                temp = lane[at]
                gap_end = temp.start
                if gap_end > gap_start:
                    if cands and self._fill(ci, at, gap_start, gap_end, cands):
                        acted = True
                        at += 1  # the mover now sits just before temp
                        n += 1
                    elif shift_any or gap_start == 0:
                        # slide temp to its earliest legal start, if that is earlier
                        target = temp.lo
                        for q in temp.ups:
                            if q.finish > target:
                                target = q.finish
                        if target < gap_start:
                            target = gap_start
                        if target < gap_end:
                            temp.start, temp.finish = target, target + temp.width
                            acted = True
                gap_start = temp.finish
                at += 1
            if cands and gap_start < horizon and self._fill(ci, n, gap_start, horizon, cands):
                acted = True
        return acted

    def run(self, shift_any: bool) -> None:
        while self.sweep(shift_any=shift_any):
            pass

    def trial(self, cycles: int) -> bool:
        """Retry from the current layout; keep the result only if it frees a core.

        Runs cycles or 1 rounds, each a restretch (only when cycles > 0)
        followed by the loosened sweeps, and returns True at the first round
        that lowers used().  If none does, every entry goes back to the lane
        and start it had, and the trial returns False.
        """
        saved = [[(p, p.start) for p in lane] for lane in self.lanes]
        target = self.used()
        for _ in range(cycles or 1):
            if cycles:
                self.restretch()
            self.run(shift_any=True)
            if self.used() < target:
                return True
        self.restore(saved)
        return False

    def restretch(self) -> None:
        """Push every entry as late as children, deadline, and core allow.

        The mirror of left-shifting: slack accumulates again at the front
        of each core, where the gap walk can reach it.  Processing in
        descending start order visits children and core successors before
        the entries they constrain, so the result stays valid.  An entry's
        new finish is capped at its lane successor's new start and every
        width is at least 1, so each lane keeps its order and needs no
        re-sort.
        """
        # (start, lane) pairs are unique, so the sort never compares entries
        order = [(p.start, ci, p) for ci, lane in enumerate(self.lanes) for p in lane]
        order.sort(reverse=True)
        head = [self.horizon] * len(self.lanes)  # new start of each lane's successor
        for _, ci, p in order:
            # the earliest of hi, the children's starts and the successor's new start
            limit = head[ci] if head[ci] < p.hi else p.hi
            for c in p.downs:
                if c.start < limit:
                    limit = c.start
            p.start, p.finish = limit - p.width, limit
            head[ci] = p.start


def compact(cores: Sequence[Sequence[Placement]], ts: TaskSet) -> list[list[Placement]]:
    """Fill schedule gaps by migrating tasks toward earlier cores and times.

    Walks cores in ascending index.  For each entry, the gap is the hole
    between its predecessor's finish on that core (the core's start, for
    the first entry) and its own start.  One action fills it: the
    best-fitting task from a higher-indexed core moves in — lowest
    effective prior-plus load first, then earliest feasible finish, then
    lowest (dag, node, job) — or, when no mover fits, the entry itself
    shifts left to its earliest legal start.  A move must respect the
    mover's parents' finishes, its children's starts, and its static
    window.  Three exact prunings, the static window, the rank skip and
    the width-ordered early stop, leave every move as it would be without
    them (see _Compactor._fill).

    Sweeps repeat until none acts.  The baseline sweeps restrict the
    self-shift to each core's free prefix; the loosened sweeps also slide
    interior entries left, loosening the holes for more migration.  After
    the baseline sweeps the retry ladder runs trials on the same
    _Compactor (see _Compactor.trial), each kept only when it strictly
    reduces the core count and otherwise rolled back.  Its first rung is
    one loosened trial; its second is restretch trials of up to three
    cycles, where a cycle pushes every entry as late as it may go and
    re-runs the loosened sweeps, rebuilding walkable holes at the front of
    left-welded layouts.  A kept trial ends at the loosened sweeps'
    fixpoint, so only a trial that restretches can gain by running again:
    the loosened trial runs at most once and restretch trials repeat until
    one is rejected.  The result is stable: compacting a compacted
    schedule is a no-op.

    No lane holds more work than the latest deadline of the entries, since
    every entry starts at or after 0 and ends by its own deadline, so the
    core count never drops below bound = ceil(busy time / latest deadline).
    A trial is kept only when it strictly lowers the core count, so once
    the count equals the bound no later trial can be kept: compact returns
    after the baseline sweeps, or after a kept trial, as soon as the bound
    is reached, with the same lanes the rejected trials would have left.
    Emptied cores are dropped and the rest renumbered.
    compact moves the placements it is given and returns them, busy time
    and entry multiset preserved.  Only the lane lists are copied, so the
    caller's sequence and lane lists keep their length and members and only
    the placements' start and finish change.  The returned placements have
    their links (ups and downs) cleared to None: the links form reference
    cycles, and with them in place one pass of the default sweep left about
    100k objects, and 55 ms of collections, to the cyclic garbage collector.
    Without them the placements are freed by reference counting.

    Every input lane must be sorted by start with no overlapping entries,
    and the layout legal (as primary_schedule and extend produce it).
    """
    work = _Compactor(cores, ts)
    entries = [p for lane in work.lanes for p in lane]
    busy = sum(p.width for p in entries)
    # every job's exit nodes have hi = deadline, so this is the latest deadline
    bound = -(-busy // max((p.hi for p in entries), default=1))
    work.run(shift_any=False)
    for cycles in (0, _RESTRETCH_CYCLES):
        while work.used() > bound and work.trial(cycles) and cycles:
            pass
    for p in entries:
        p.ups = p.downs = None
    return [lane for lane in work.lanes if lane]


def extend(
    cores: Sequence[Sequence[Placement]], dag: DagSpec, horizon: int
) -> list[list[Placement]]:
    """Repeat a one-period schedule across the hyperperiod.

    Copy k carries job index k with all starts and finishes, and its static
    window, shifted by k periods and its rank by k times the DAG's total
    work; the core layout is unchanged.  Each input lane must be sorted by
    start with every entry inside [0, period), as compact leaves a
    one-period schedule; then copy k lies in [k*period, (k+1)*period), so
    the job-major concatenation is already sorted by start.
    """
    if horizon % dag.period != 0:
        raise ValueError(
            f"hyperperiod {horizon} is not a multiple of dag {dag.dag_id}'s period {dag.period}"
        )
    copies = horizon // dag.period
    period, work = dag.period, dag.total_work
    out: list[list[Placement]] = []
    for lane in cores:
        extended = [
            Placement(p.dag_id, p.node_id, k, p.start + shift, p.finish + shift,
                      p.rank + k * work, p.lo + shift, p.hi + shift)
            for k, shift in zip(range(copies), range(0, horizon, period))
            for p in lane
        ]
        out.append(extended)
    return out


def analyze_taskset(ts: TaskSet) -> list[tuple[DagSpec, DagAnalysis]]:
    """Each DAG with nodes and its analysis, heaviest utilization first.

    This order is the pipeline's stacking order.  Raises DagInfeasibleError
    for the first DAG in it whose critical path exceeds its deadline (see
    _check_feasible), before any DAG after it is analysed.
    """
    analyses = []
    for dag in sorted(ts.dags, key=lambda d: (-d.utilization, d.dag_id)):
        if dag.nodes:
            analysis = analyze_dag(dag)
            _check_feasible(dag, analysis)
            analyses.append((dag, analysis))
    return analyses


def stack_extended_schedules(
    ts: TaskSet, analyses: Sequence[tuple[DagSpec, DagAnalysis]], trace: list[str] | None = None
) -> list[list[Placement]]:
    """Per-DAG pipeline up to (but not including) the final global compaction.

    analyses is analyze_taskset(ts): DAGs are processed in descending
    utilization so the heaviest ones claim the lowest core indices; each is
    primary-scheduled, compacted within its own cores, extended over the
    hyperperiod, and its core block appended.
    """
    stacked: list[list[Placement]] = []
    for dag, analysis in analyses:
        lanes = primary_schedule(dag, analysis=analysis, trace=trace)
        lanes = compact(lanes, ts)
        lanes = extend(lanes, dag, ts.hyperperiod)
        stacked.extend(lanes)
    return stacked


def pipeline_schedule(
    ts: TaskSet, analyses: Sequence[tuple[DagSpec, DagAnalysis]], trace: list[str] | None = None
) -> ScheduleMap:
    """The five-step pipeline's map, on as many cores as it needs.

    Builds every DAG's stretched-and-compacted hyperperiod block, then runs
    one compaction pass across all of them.  analyses is
    analyze_taskset(ts); trace, when given, receives one line per primary
    placement.

    A compacted lane is sorted by start with no overlap, so no two of its
    entries share a start and start order is the map's (start, finish,
    dag, node, job) order: the lanes need no regrouping or re-sort.
    """
    lanes = compact(stack_extended_schedules(ts, analyses, trace=trace), ts)
    new = tuple.__new__  # builds an entry without the named tuple's Python-level __new__
    cores = tuple(
        tuple([new(ScheduleEntry, (p.dag_id, p.node_id, p.job, core, p.start, p.finish))
               for p in lane])
        for core, lane in enumerate(lanes)
    )
    return ScheduleMap(num_cores=len(lanes), cores=cores)


def table_schedule(
    ts: TaskSet, analyses: Sequence[tuple[DagSpec, DagAnalysis]], bound: int,
    trace: list[str] | None = None,
) -> ScheduleMap | None:
    """The ALAP list-scheduled table on the fewest cores it meets every deadline on.

    Runs the baseline's engine with each node's offset its latest start
    (latest finish less wcet, from analyses, which is analyze_taskset(ts))
    at bound and bound + 1 (_TABLE_TRIES core counts), and returns the
    first run with no miss, its num_cores cut to the cores it used.  That
    table is frozen, so it serves every larger core count too.  Returns
    None when every try misses.  trace, when given, receives one line per
    try.
    """
    offsets = {dag.dag_id: tuple(a.lft[n.node_id] - n.wcet for n in dag.nodes)
               for dag, a in analyses}
    for cores in range(max(bound, 1), bound + _TABLE_TRIES):
        run = list_schedule(ts, cores, offsets)
        miss = run.first_miss
        if trace is not None:
            trace.append(
                f"table on {cores} cores: ok" if miss is None else
                f"table on {cores} cores: dag {miss.dag_id} node {miss.node_id} job {miss.job} "
                f"finishes {miss.finish}, deadline {miss.deadline}"
            )
        if miss is None:
            used = run.trace.used_cores
            return ScheduleMap(num_cores=used, cores=run.trace.cores[:used])
    return None


def schedule_taskset(ts: TaskSet, trace: list[str] | None = None) -> ScheduleMap:
    """Schedule a whole task set on as many cores as it needs.

    Analyses every DAG once (raising DagInfeasibleError when a DAG's
    critical path exceeds its deadline), then tries the list-scheduled
    table (see table_schedule).  No map uses fewer cores than bound =
    ceil(total utilization), so a table at the bound is the map and the
    pipeline does not run.  Otherwise the pipeline runs on the same
    analyses and its map is returned unless the table uses fewer cores.
    Returns the map, whose num_cores is the core count the set needs: the
    set fits m cores iff num_cores <= m.  trace, when given, receives one
    line per table try, then, when the pipeline runs, one line per primary
    placement and one with its core count, and last one line naming the
    map returned.
    """
    analyses = analyze_taskset(ts)
    bound = -(-ts.busy // ts.hyperperiod)
    mp = table_schedule(ts, analyses, bound, trace=trace)
    name = "table"
    if mp is None or mp.num_cores > bound:
        pipeline = pipeline_schedule(ts, analyses, trace=trace)
        if trace is not None:
            trace.append(f"pipeline on {pipeline.num_cores} cores")
        if mp is None or pipeline.num_cores <= mp.num_cores:
            mp, name = pipeline, "pipeline"
    if trace is not None:
        trace.append(f"map: {name} on {mp.num_cores} cores (bound {bound})")
    return mp
