"""In-memory span tracer that wraps dagsched's public functions.

Tracing is installed by rebinding module attributes: each call site in the
package looks its callee up in its own module namespace at call time (for
example ``bench.run_experiment`` calls ``bench.schedule_taskset``), so
rebinding those names puts a span around every call without touching the
package's code.  ``Tracer.uninstall`` restores every original binding.

A span records its name, start, end, parent span and item id (the
collection or replay set being processed).  Self time is a span's
duration minus the time covered by its child spans.  Per-layer counts are
gathered at the same boundaries by hooks that look at a call's arguments
and result.
"""

from __future__ import annotations

import json
from time import perf_counter

STACK_EXTENDED = "scheduler.stack_extended_schedules"


class Layer:
    """Aggregated calls, self time and counters for one span name."""

    __slots__ = ("calls", "self_s", "counts")

    def __init__(self):
        self.calls = 0
        self.self_s = 0.0
        self.counts: dict[str, int] = {}

    def add(self, counter: str, value: int) -> None:
        self.counts[counter] = self.counts.get(counter, 0) + value


def _entries(mp) -> int:
    return sum(len(lane) for lane in mp.cores)


def _on_generate(layer, args, kwargs, result):
    layer.add("redraws", result[1])


def _on_analyze(layer, args, kwargs, result):
    layer.add("nodes", len(args[0].nodes))


def _on_primary(layer, args, kwargs, result):
    layer.add("cores", len(result))
    analysis = kwargs.get("analysis")
    if analysis is not None and analysis.min_cores:
        layer.add("min_cores", analysis.min_cores)


def _on_compact(layer, args, kwargs, result):
    layer.add("cores_in", len(args[0]))
    layer.add("cores_out", len(result))


def _on_extend(layer, args, kwargs, result):
    layer.add("jobs_out", sum(len(lane) for lane in result))


def _on_simulate(layer, args, kwargs, result):
    layer.add("entries", _entries(result.trace))


def _on_validate(layer, args, kwargs, result):
    layer.add("entries", _entries(args[0]))
    layer.add("violations", len(result.violations))


def _on_load(layer, args, kwargs, result):
    data = args[0]
    layer.add("bytes", len(data if isinstance(data, bytes) else data.encode()))


def _on_dumps(layer, args, kwargs, result):
    layer.add("bytes", len(result.encode()))


class Tracer:
    """Records spans around dagsched calls while installed."""

    def __init__(self):
        # (span id, name, start, end, parent span id, item id)
        self.spans: list[tuple[int, str, float, float, int | None, str | None]] = []
        self.layers: dict[str, Layer] = {}
        self.item: str | None = None
        self._stack: list[list] = []  # [span id, name, child seconds]
        self._started = 0
        self._patched: list[tuple[object, str, object]] = []

    def layer(self, name: str) -> Layer:
        got = self.layers.get(name)
        if got is None:
            got = self.layers[name] = Layer()
        return got

    def _call(self, name, fn, args, kwargs, hook):
        parent = self._stack[-1] if self._stack else None
        frame = [self._started, name, 0.0]
        self._started += 1
        self._stack.append(frame)
        start = perf_counter()
        try:
            result = fn(*args, **kwargs)
        finally:
            end = perf_counter()
            self._stack.pop()
            if parent is not None:
                parent[2] += end - start
            layer = self.layer(name)
            layer.calls += 1
            layer.self_s += end - start - frame[2]
            self.spans.append(
                (frame[0], name, start, end, parent[0] if parent else None, self.item)
            )
        if hook is not None:
            hook(self.layer(name), args, kwargs, result)
        return result

    def _wrap(self, module, attr: str, name: str, hook=None) -> None:
        fn = getattr(module, attr)

        def traced(*args, **kwargs):
            return self._call(name, fn, args, kwargs, hook)

        self._patched.append((module, attr, fn))
        setattr(module, attr, traced)

    def _wrap_compact(self, scheduler) -> None:
        # Per-DAG compaction runs inside stack_extended_schedules; the
        # global pass runs directly under schedule_taskset.
        fn = scheduler.compact

        def traced(*args, **kwargs):
            inside = bool(self._stack) and self._stack[-1][1] == STACK_EXTENDED
            name = "scheduler.compact_dag" if inside else "scheduler.compact_global"
            return self._call(name, fn, args, kwargs, _on_compact)

        self._patched.append((scheduler, "compact", fn))
        scheduler.compact = traced

    def install(self, pkg) -> None:
        """Wrap every measured layer of the loaded package."""
        bench, model, analysis = pkg.bench, pkg.model, pkg.analysis
        scheduler, baseline = pkg.scheduler, pkg.baseline
        self._wrap(bench, "run_experiment", "bench.run_experiment")
        self._wrap(bench, "generate_taskset", "bench.generate_taskset", _on_generate)
        for module in (bench, scheduler):
            self._wrap(module, "schedule_taskset", "scheduler.schedule_taskset")
        self._wrap(scheduler, "stack_extended_schedules", STACK_EXTENDED)
        for module in (scheduler, analysis):
            self._wrap(module, "analyze_dag", "analysis.analyze_dag", _on_analyze)
        self._wrap(scheduler, "primary_schedule", "scheduler.primary_schedule", _on_primary)
        self._wrap_compact(scheduler)
        self._wrap(scheduler, "extend", "scheduler.extend", _on_extend)
        # prior_plus as called from the scheduler: one context rebuild per
        # compact call and DAG.
        self._wrap(scheduler, "prior_plus", "scheduler.prior_plus")
        for module in (bench, baseline):
            self._wrap(module, "gedf_np_simulate", "baseline.gedf_np_simulate", _on_simulate)
        for module in (bench, model):
            self._wrap(module, "validate_schedule", "model.validate_schedule", _on_validate)
        self._wrap(model, "load_taskset", "model.load_taskset", _on_load)
        self._wrap(model, "dumps_schedule", "model.dumps_schedule", _on_dumps)

    def uninstall(self) -> None:
        while self._patched:
            module, attr, fn = self._patched.pop()
            setattr(module, attr, fn)

    def write(self, path) -> None:
        """Write every recorded span as one JSON line."""
        with open(path, "w", encoding="utf-8") as fh:
            for span_id, name, start, end, parent, item in self.spans:
                record = {"id": span_id, "name": name, "start": start, "end": end,
                          "parent": parent, "item": item}
                fh.write(json.dumps(record) + "\n")
