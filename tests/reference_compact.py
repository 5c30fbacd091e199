"""Reference compaction: the straightforward rescanning implementation.

This is the earlier, unoptimized `compact` kept verbatim in its logic so the
tests can require byte-identical lanes from the production version.  Every
hole bound is found by rescanning the whole lane, every fill looks at every
entry on every higher core, each retry rung replays from a fresh copy and
the lookup context is rebuilt on each call.  Do not optimize it.
"""

from __future__ import annotations

from typing import Sequence

from dagsched.analysis import prior_plus
from dagsched.model import TaskSet
from dagsched.scheduler import Placement


class _CompactContext:
    __slots__ = ("wcet", "parents", "children", "prior", "period", "work", "min_wcet")

    def __init__(self, ts: TaskSet):
        self.wcet: dict[tuple[int, int], int] = {}
        self.parents: dict[tuple[int, int], tuple[int, ...]] = {}
        self.children: dict[tuple[int, int], tuple[int, ...]] = {}
        self.prior: dict[tuple[int, int], int] = {}
        self.period: dict[int, int] = {}
        self.work: dict[int, int] = {}
        for dag in ts.dags:
            self.period[dag.dag_id] = dag.period
            self.work[dag.dag_id] = dag.total_work
            pp = prior_plus(dag)
            for node in dag.nodes:
                key = (dag.dag_id, node.node_id)
                self.wcet[key] = node.wcet
                self.parents[key] = node.parents
                self.children[key] = node.children
                self.prior[key] = pp[node.node_id]
        self.min_wcet = min(self.wcet.values(), default=1)


class _Compactor:
    def __init__(self, lanes, ctx: _CompactContext, lo: int, hi: int, horizon: int):
        self.lanes = lanes
        self.ctx = ctx
        self.lo = lo
        self.hi = hi
        self.horizon = horizon
        self.pos = {}
        for lane in lanes:
            for p in lane:
                self.pos[(p.dag_id, p.node_id, p.job)] = p
        self.dest_cache = {}
        self.gate_cache = {}

    def dest_of(self, p):
        key = (p.dag_id, p.node_id, p.job)
        got = self.dest_cache.get(key)
        if got is None:
            parents = self.ctx.parents[(p.dag_id, p.node_id)]
            if not parents:
                got = p.job * self.ctx.period[p.dag_id]
            else:
                got = max(self.pos[(p.dag_id, q, p.job)].finish for q in parents)
            self.dest_cache[key] = got
        return got

    def gate_of(self, p):
        key = (p.dag_id, p.node_id, p.job)
        if key in self.gate_cache:
            return self.gate_cache[key]
        children = self.ctx.children[(p.dag_id, p.node_id)]
        got = min((self.pos[(p.dag_id, c, p.job)].start for c in children), default=None)
        self.gate_cache[key] = got
        return got

    def _moved(self, p):
        for c in self.ctx.children[(p.dag_id, p.node_id)]:
            self.dest_cache.pop((p.dag_id, c, p.job), None)
        for q in self.ctx.parents[(p.dag_id, p.node_id)]:
            self.gate_cache.pop((p.dag_id, q, p.job), None)

    def _shift(self, temp, gap_start):
        target = self.dest_of(temp)
        if target < gap_start:
            target = gap_start
        if target >= temp.start:
            return False
        width = temp.finish - temp.start
        temp.start, temp.finish = target, target + width
        self._moved(temp)
        return True

    def _fill(self, ci, gap_start, gap_end):
        lanes, ctx = self.lanes, self.ctx
        best = None
        best_core = -1
        best_key = None
        best_start = 0
        for cj in range(ci + 1, self.hi + 1):
            for cand in lanes[cj]:
                w = ctx.wcet[(cand.dag_id, cand.node_id)]
                if gap_end - gap_start < w:
                    continue
                d = self.dest_of(cand)
                chosen = d if d > gap_start else gap_start
                fin = chosen + w
                if fin > gap_end:
                    continue
                gate = self.gate_of(cand)
                if gate is not None and fin > gate:
                    continue
                if fin > (cand.job + 1) * ctx.period[cand.dag_id]:
                    continue
                key = (
                    ctx.prior[(cand.dag_id, cand.node_id)] + cand.job * ctx.work[cand.dag_id],
                    d + w,
                    chosen - gap_start,
                    cand.dag_id,
                    cand.node_id,
                    cand.job,
                )
                if best_key is None or key < best_key:
                    best, best_core, best_key, best_start = cand, cj, key, chosen
        if best is None:
            return False
        lanes[best_core].remove(best)
        width = best.finish - best.start
        best.start, best.finish = best_start, best_start + width
        lane = lanes[ci]
        at = 0
        while at < len(lane) and lane[at].start < best.start:
            at += 1
        lane.insert(at, best)
        self._moved(best)
        return True

    def sweep(self, shift_any):
        lanes, ctx = self.lanes, self.ctx
        acted = False
        for ci in range(self.lo, min(self.hi, len(lanes) - 1) + 1):
            for temp in list(lanes[ci]):
                gap_end = temp.start
                gap_start = 0
                for e in lanes[ci]:
                    if e is not temp and e.start < gap_end and e.finish > gap_start:
                        gap_start = e.finish
                if gap_end <= gap_start:
                    continue
                if gap_end - gap_start >= ctx.min_wcet and self._fill(ci, gap_start, gap_end):
                    acted = True
                elif (shift_any or gap_start == 0) and self._shift(temp, gap_start):
                    acted = True
            if lanes[ci]:
                tail = max(e.finish for e in lanes[ci])
                if self.horizon - tail >= ctx.min_wcet and self._fill(ci, tail, self.horizon):
                    acted = True
        return acted

    def run(self, shift_any):
        while self.sweep(shift_any=shift_any):
            pass

    def restretch(self):
        order = []
        for ci in range(self.lo, min(self.hi, len(self.lanes) - 1) + 1):
            for idx, p in enumerate(self.lanes[ci]):
                order.append((p.start, ci, idx, p))
        order.sort(key=lambda t: (-t[0], -t[1], -t[2]))
        head = [None] * len(self.lanes)
        for _, ci, _, p in order:
            limit = (p.job + 1) * self.ctx.period[p.dag_id]
            for c in self.ctx.children[(p.dag_id, p.node_id)]:
                limit = min(limit, self.pos[(p.dag_id, c, p.job)].start)
            if head[ci] is not None:
                limit = min(limit, head[ci])
            width = p.finish - p.start
            p.start, p.finish = limit - width, limit
            head[ci] = limit - width
        for lane in self.lanes:
            lane.sort(key=lambda p: p.start)
        self.dest_cache.clear()
        self.gate_cache.clear()


def _copy_lanes(cores):
    return [
        [Placement(p.dag_id, p.node_id, p.job, p.start, p.finish, p.rank, p.lo, p.hi)
         for p in lane]
        for lane in cores
    ]


def reference_compact(
    cores: Sequence[Sequence[Placement]],
    ts: TaskSet,
    a_index: int = 0,
    b_index: int | None = None,
) -> list[list[Placement]]:
    lanes = _copy_lanes(cores)
    if not lanes:
        return []
    hi = len(lanes) - 1 if b_index is None else b_index
    ctx = _CompactContext(ts)
    horizon = ts.hyperperiod

    def used(ls):
        return sum(1 for lane in ls if lane)

    _Compactor(lanes, ctx, a_index, hi, horizon).run(shift_any=False)
    improved = True
    while improved:
        improved = False
        for restretch_first, cycles in ((False, 1), (True, 1), (True, 2), (True, 3)):
            trial = _copy_lanes(lanes)
            worker = _Compactor(trial, ctx, a_index, hi, horizon)
            for cycle in range(cycles):
                if restretch_first or cycle > 0:
                    worker.restretch()
                worker.run(shift_any=True)
                if used(trial) < used(lanes):
                    break
            if used(trial) < used(lanes):
                lanes = trial
                improved = True
                break

    return [lane for lane in lanes if lane]
