"""Benchmark-side tracing: spans around the public entry points of each layer.

Nothing in ``src/`` knows about this module.  :class:`Tracer` replaces
selected functions and methods of the ``repro`` modules with wrappers that
record a span (name, start, end, parent, iteration id, track) for every
call, keeps the spans in memory, and derives the per-layer metrics from
them when the run ends.  A layer here is a ``src/repro/`` package:

==========  ===========================================================
layer       entry points wrapped
==========  ===========================================================
core        ``LLMServingSim.run`` / ``LLMServingSim.step``
scheduler   ``next_iteration`` / ``complete_iteration`` of each scheduler
models      ``build_iteration_graph``
engine      ``ExecutionEngineStack.simulate_iteration``;
            ``iteration_signature`` and ``IterationReuseCache.lookup/store``
graph       ``GraphConverter.convert``
system      ``SystemSimulator.simulate``
cluster     ``ClusterSimulator.run``, ``Replica.step``, ``select`` of each
            router, ``Autoscaler.observe_arrival``, ``SerialBackend.advance``
==========  ===========================================================

Spans of one serving iteration share the id opened by its
``LLMServingSim.step`` span; spans outside an iteration carry id ``-1``.
The track is the replica a span ran on (``0`` for the cluster loop,
``replica index + 1`` otherwise), so the Chrome trace-event export shows one
track per replica.
"""

from __future__ import annotations

import functools
import json
import statistics
import sys
import time
from pathlib import Path
from typing import Callable, Dict, List, Optional

__all__ = ["Tracer"]

#: Field indices of one recorded span (a list, for cheap in-place updates).
_NAME, _START, _END, _PARENT, _ITERATION, _TRACK = range(6)

#: Slack for float rounding when summing child durations.
_ROUNDING_S = 1e-9


def _rebind_everywhere(original: Callable, replacement: Callable) -> None:
    """Point every ``repro`` module attribute bound to ``original`` at ``replacement``.

    Module-level functions are imported by name into their callers
    (``from ..models.graph import build_iteration_graph``), so patching the
    defining module alone would miss those call sites.
    """
    for name, module in list(sys.modules.items()):
        if name == "repro" or name.startswith("repro."):
            for attr, value in list(vars(module).items()):
                if value is original:
                    setattr(module, attr, replacement)


class Tracer:
    """In-memory span recorder wrapping the layer entry points of ``repro``."""

    def __init__(self) -> None:
        self.spans: List[list] = []
        self._stack: List[int] = []
        self._iteration = -1
        self._iterations = 0
        self._track = 1
        self.nodes_per_convert: List[int] = []
        self.batch_sizes: List[int] = []
        self.evictions = 0
        self.iter_cache_hits = 0
        self.iter_cache_lookups = 0
        self.advanced_replicas = 0

    # -- wrapping ----------------------------------------------------------------

    def _wrapper(self, original: Callable, name: str,
                 on_exit: Optional[Callable] = None, opens_iteration: bool = False,
                 track_of: Optional[Callable] = None) -> Callable:
        spans, stack, clock = self.spans, self._stack, time.perf_counter
        tracer = self

        @functools.wraps(original)
        def traced(*args, **kwargs):
            if stack and spans[stack[-1]][_NAME] == name:
                # A subclass method calling its wrapped base: one span, not two.
                return original(*args, **kwargs)
            saved = (tracer._iteration, tracer._track)
            if track_of is not None:
                tracer._track = track_of(args)
            if opens_iteration:
                tracer._iteration = tracer._iterations
                tracer._iterations += 1
            index = len(spans)
            spans.append([name, clock(), 0.0, stack[-1] if stack else -1,
                          tracer._iteration, tracer._track])
            stack.append(index)
            try:
                result = original(*args, **kwargs)
            finally:
                spans[index][_END] = clock()
                stack.pop()
                tracer._iteration, tracer._track = saved
            if on_exit is not None:
                on_exit(args, result)
            return result

        return traced

    def _wrap_method(self, cls, attr: str, name: str, **options) -> None:
        setattr(cls, attr, self._wrapper(cls.__dict__[attr], name, **options))

    def _wrap_function(self, function: Callable, name: str, **options) -> None:
        _rebind_everywhere(function, self._wrapper(function, name, **options))

    def install(self) -> None:
        """Wrap every entry point listed in the module docstring."""
        from repro.cluster import router as router_module
        from repro.cluster.autoscaler import Autoscaler
        from repro.cluster.backend import SerialBackend
        from repro.cluster.simulator import ClusterSimulator, Replica
        from repro.core.simulator import LLMServingSim
        from repro.engine.iteration_cache import (IterationReuseCache, SharedIterationCache,
                                                  iteration_signature)
        from repro.engine.stack import ExecutionEngineStack
        from repro.graph.converter import GraphConverter
        from repro.models.graph import build_iteration_graph
        from repro.scheduler.scheduler import IterationLevelScheduler, StaticBatchScheduler
        from repro.system.simulator import SystemSimulator

        def on_plan(args, plan):
            if plan is not None:
                self.batch_sizes.append(plan.num_requests)
                self.evictions += sum(1 for e in plan.memory_events
                                      if e.event_type.value == "evict")

        def on_lookup(args, entry):
            self.iter_cache_lookups += 1
            self.iter_cache_hits += entry is not None

        def on_convert(args, graph):
            self.nodes_per_convert.append(args[0].stats.total_nodes)

        def on_advance(args, result):
            self.advanced_replicas += len(args[1])

        self._wrap_method(LLMServingSim, "run", "core.run")
        self._wrap_method(LLMServingSim, "step", "core.step", opens_iteration=True)
        for scheduler in (IterationLevelScheduler, StaticBatchScheduler):
            self._wrap_method(scheduler, "next_iteration", "scheduler.next_iteration",
                              on_exit=on_plan)
            self._wrap_method(scheduler, "complete_iteration", "scheduler.complete_iteration")
        self._wrap_function(build_iteration_graph, "models.build_iteration_graph")
        self._wrap_method(ExecutionEngineStack, "simulate_iteration", "engine.stack")
        self._wrap_function(iteration_signature, "engine.iteration_signature")
        for cache in (IterationReuseCache, SharedIterationCache):
            self._wrap_method(cache, "lookup", "engine.iter_cache.lookup", on_exit=on_lookup)
            self._wrap_method(cache, "store", "engine.iter_cache.store")
        self._wrap_method(GraphConverter, "convert", "graph.convert", on_exit=on_convert)
        self._wrap_method(SystemSimulator, "simulate", "system.simulate")
        self._wrap_method(ClusterSimulator, "run", "cluster.run",
                          track_of=lambda args: 0)
        self._wrap_method(Replica, "step", "cluster.replica_step",
                          track_of=lambda args: args[0].replica_id + 1)
        for value in vars(router_module).values():
            if (isinstance(value, type) and issubclass(value, router_module.RequestRouter)
                    and "select" in value.__dict__):
                self._wrap_method(value, "select", "cluster.route")
        self._wrap_method(Autoscaler, "observe_arrival", "cluster.autoscale")
        self._wrap_method(SerialBackend, "advance", "cluster.advance", on_exit=on_advance)

    # -- analysis ----------------------------------------------------------------

    def _durations(self, name: str) -> List[float]:
        return [s[_END] - s[_START] for s in self.spans if s[_NAME] == name]

    def total(self, *names: str) -> float:
        return sum(s[_END] - s[_START] for s in self.spans if s[_NAME] in names)

    def count(self, name: str) -> int:
        return sum(1 for s in self.spans if s[_NAME] == name)

    def child_seconds(self) -> List[float]:
        """Seconds each span's direct children cover, indexed like ``spans``."""
        covered = [0.0] * len(self.spans)
        for span in self.spans:
            if span[_PARENT] >= 0:
                covered[span[_PARENT]] += span[_END] - span[_START]
        return covered

    def nesting_violations(self) -> int:
        """Spans lying outside their parent, or whose children overfill them."""
        covered = self.child_seconds()
        violations = 0
        for index, span in enumerate(self.spans):
            if (span[_END] < span[_START]
                    or covered[index] > span[_END] - span[_START] + _ROUNDING_S):
                violations += 1
            parent = span[_PARENT]
            if parent >= 0 and (span[_START] < self.spans[parent][_START]
                                or span[_END] > self.spans[parent][_END]):
                violations += 1
        return violations

    def self_seconds(self, name: str) -> float:
        covered = self.child_seconds()
        return sum(s[_END] - s[_START] - covered[i]
                   for i, s in enumerate(self.spans) if s[_NAME] == name)

    def layer_metrics(self) -> Dict[str, float]:
        """The per-layer metrics of one traced run (see the README's table)."""
        system_s = self.total("system.simulate")
        convert_s = self.total("graph.convert")
        nodes = sum(self.nodes_per_convert)
        steps_ms = sorted(1000.0 * d for d in self._durations("core.step"))
        if len(steps_ms) >= 2:
            step_p50 = statistics.median(steps_ms)
            step_p99 = statistics.quantiles(steps_ms, n=100, method="inclusive")[98]
        else:
            step_p50 = step_p99 = steps_ms[0] if steps_ms else 0.0
        routes = self.count("cluster.route")
        return {
            "system.simulate_s": system_s,
            "system.calls": float(self.count("system.simulate")),
            "system.us_per_node": 1e6 * system_s / nodes if nodes else 0.0,
            "graph.convert_s": convert_s,
            "graph.nodes_per_iter": nodes / len(self.nodes_per_convert)
            if self.nodes_per_convert else 0.0,
            "graph.ns_per_node": 1e9 * convert_s / nodes if nodes else 0.0,
            "models.graph_build_s": self.total("models.build_iteration_graph"),
            "models.graph_build_calls": float(self.count("models.build_iteration_graph")),
            "engine.stack_s": self.total("engine.stack"),
            "engine.iter_cache_s": self.total("engine.iteration_signature",
                                              "engine.iter_cache.lookup",
                                              "engine.iter_cache.store"),
            "engine.iter_cache_lookups": float(self.iter_cache_lookups),
            "engine.iter_cache_hit_ratio": self.iter_cache_hits / self.iter_cache_lookups
            if self.iter_cache_lookups else 0.0,
            "scheduler.s": self.total("scheduler.next_iteration",
                                      "scheduler.complete_iteration"),
            "scheduler.batch_mean": statistics.fmean(self.batch_sizes)
            if self.batch_sizes else 0.0,
            "scheduler.evictions": float(self.evictions),
            "core.step_ms_p50": step_p50,
            "core.step_ms_p99": step_p99,
            "core.self_s": self.self_seconds("core.step"),
            "cluster.route_s": self.total("cluster.route"),
            "cluster.autoscale_s": self.total("cluster.autoscale"),
            "cluster.advanced_per_arrival": self.advanced_replicas / routes if routes else 0.0,
            "cluster.loop_self_s": self.total("cluster.run") - self.total("cluster.replica_step"),
        }

    def component_seconds(self) -> Dict[str, float]:
        """Traced seconds per :class:`repro.core.simtime.ComponentTimes` field."""
        return {
            "scheduler": self.total("scheduler.next_iteration", "scheduler.complete_iteration"),
            "engine": self.total("engine.stack"),
            "graph_converter": self.total("graph.convert"),
            "system_sim": self.total("system.simulate"),
        }

    # -- export --------------------------------------------------------------------

    def write_chrome_trace(self, path: Path, label: str, replicas: int) -> None:
        """Write the spans as Chrome trace-event JSON (loads in Perfetto)."""
        origin = min((s[_START] for s in self.spans), default=0.0)
        events = [{"ph": "M", "pid": 1, "tid": 0, "name": "process_name",
                   "args": {"name": f"repro ({label})"}},
                  {"ph": "M", "pid": 1, "tid": 0, "name": "thread_name",
                   "args": {"name": "cluster"}}]
        events += [{"ph": "M", "pid": 1, "tid": r + 1, "name": "thread_name",
                    "args": {"name": f"replica {r}"}} for r in range(replicas)]
        for index, span in enumerate(self.spans):
            events.append({
                "ph": "X", "pid": 1, "tid": span[_TRACK], "name": span[_NAME],
                "ts": 1e6 * (span[_START] - origin),
                "dur": 1e6 * (span[_END] - span[_START]),
                "args": {"span": index, "parent": span[_PARENT],
                         "iteration": span[_ITERATION]},
            })
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps({"traceEvents": events, "displayTimeUnit": "ms"}))
