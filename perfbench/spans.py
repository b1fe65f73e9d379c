"""Layer spans installed from outside the package.

The tracer wraps the public entry point of every layer (see ``LAYERS``)
for the duration of one traced repetition and restores the originals
afterwards, so ``src/`` stays untouched and an untraced repetition runs
the unmodified code.

Each span records its name (``layer.operation``), thread, start, end,
parent and nesting depth. Parents come from a per-thread stack; a sweep
task started by ``SweepExecutor.map`` in a pool thread takes the map's
span as its parent, so work fanned out to threads stays attributed to
the call that fanned it out.

Self time is computed after the repetition, by a sweep over span
boundaries: in every interval, each thread's innermost open span is
running unless it is waiting on a child in another thread, and the
interval is shared equally among the running spans (one interpreter
lock, so concurrent Python threads split the wall clock). The self
times of all spans therefore add up to the covered wall time, and
``coverage`` below 1 means time spent outside every span.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import sys
import threading
import time
from collections import defaultdict
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Tuple


@dataclass
class Span:
    sid: int
    name: str
    tid: int
    depth: int
    parent: Optional[int]
    cross: bool  # parent lives in another thread
    start: float
    end: float = 0.0

    @property
    def layer(self) -> str:
        return self.name.split(".", 1)[0]


def _one(counter: str) -> Callable:
    return lambda args, kwargs, result: {counter: 1}


def _step(args, kwargs, result):
    shards = args[3] if len(args) > 3 else kwargs["shards"]
    return {"trainer.steps": 1, "trainer.samples": sum(map(len, shards))}


#: (span name, module, attribute, counter hook). The attribute is a
#: module-level function or ``Class.method``; functions are replaced in
#: every ``repro`` module that imported them by name. A hook maps the
#: call's arguments and result to counter increments.
LAYERS: Tuple[Tuple[str, str, str, Optional[Callable]], ...] = (
    ("dsl.parse", "repro.dsl.parser", "parse", None),
    ("dsl.analyze", "repro.dsl.semantic", "analyze", None),
    (
        "dfg.translate",
        "repro.dfg.translate",
        "translate",
        lambda args, kwargs, result: {"dfg.nodes": len(result.dfg.nodes)},
    ),
    ("dfg.optimize", "repro.dfg.optimize", "optimize", None),
    ("dfg.scalarize", "repro.dfg.scalarize", "scalarize", None),
    ("dfg.interp", "repro.dfg.interpreter", "Interpreter.run", None),
    (
        "compiler.compile",
        "repro.compiler.program",
        "compile_thread",
        lambda args, kwargs, result: {
            "compiler.ops": len(result.schedule.ops)
        },
    ),
    ("circuit.construct", "repro.circuit.constructor", "construct", None),
    (
        "planner.plan",
        "repro.planner.plan",
        "Planner.plan",
        _one("planner.plans"),
    ),
    ("planner.sweep", "repro.planner.plan", "Planner.sweep", None),
    (
        "planner.evaluate",
        "repro.planner.plan",
        "Planner.evaluate",
        _one("planner.points"),
    ),
    ("hw.scaled", "repro.hw.spec", "ChipSpec.scaled", None),
    (
        "baselines.spark",
        "repro.baselines.spark",
        "SparkModel.iteration",
        None,
    ),
    (
        "baselines.spark_epoch",
        "repro.baselines.spark",
        "SparkModel.epoch_seconds",
        None,
    ),
    (
        "baselines.gpu",
        "repro.baselines.gpu",
        "GpuModel.compute_seconds",
        None,
    ),
    ("baselines.tabla", "repro.baselines.tabla", "TablaModel.plan", None),
    (
        "baselines.tabla_speedup",
        "repro.baselines.tabla",
        "cosmic_vs_tabla_speedup",
        None,
    ),
    (
        "cluster.iteration",
        "repro.runtime.cluster",
        "ClusterSimulator.iteration",
        lambda args, kwargs, result: {
            "cluster.iterations": 1,
            "cluster.node_iters": args[0].topology.nodes,
        },
    ),
    (
        "schedule.record",
        "repro.runtime.schedule",
        "record_schedule",
        _one("schedule.records"),
    ),
    (
        "schedule.replay",
        "repro.runtime.schedule",
        "replay_iteration",
        _one("schedule.replays"),
    ),
    (
        "trainer.train",
        "repro.runtime.trainer",
        "DistributedTrainer.train",
        None,
    ),
    (
        "trainer.step",
        "repro.runtime.trainer",
        "DistributedTrainer.step",
        _step,
    ),
    (
        "recovery.chaos",
        "repro.runtime.recovery",
        "chaos_train",
        lambda args, kwargs, result: {
            "recovery.events": len(result.events)
        },
    ),
)

#: Counters the hooks above maintain, reported even when they stay 0.
COUNTERS = (
    "cluster.iterations",
    "cluster.node_iters",
    "schedule.records",
    "schedule.replays",
    "planner.plans",
    "planner.points",
    "dfg.nodes",
    "compiler.ops",
    "trainer.steps",
    "trainer.samples",
    "recovery.events",
    "sweep.points",
)


class Tracer:
    """Collects spans and counters for one repetition at a time."""

    def __init__(self):
        self.spans: List[Span] = []
        self.counts: Dict[str, int] = dict.fromkeys(COUNTERS, 0)
        self._ids = itertools.count()
        self._local = threading.local()
        self._lock = threading.Lock()
        self._restore: List[Tuple[object, str, object]] = []

    # -- spans ------------------------------------------------------------
    def _stack(self) -> List[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def open(self, name: str, parent: Optional[Span] = None) -> Span:
        stack = self._stack()
        cross = parent is not None and not (stack and stack[-1] is parent)
        if parent is None and stack:
            parent = stack[-1]
        span = Span(
            sid=next(self._ids),
            name=name,
            tid=threading.get_ident(),
            depth=len(stack),
            parent=parent.sid if parent is not None else None,
            cross=cross,
            start=time.perf_counter(),
        )
        stack.append(span)
        return span

    def close(self, span: Span):
        span.end = time.perf_counter()
        self._stack().pop()
        self.spans.append(span)

    def current(self) -> Optional[Span]:
        stack = self._stack()
        return stack[-1] if stack else None

    def reset(self):
        self.spans = []
        self.counts = dict.fromkeys(COUNTERS, 0)

    # -- installation -----------------------------------------------------
    def install(self):
        """Wrap every entry point in ``LAYERS`` plus ``SweepExecutor.map``."""
        if self._restore:
            raise RuntimeError("tracer already installed")
        for name, module, attr, hook in LAYERS:
            owner = importlib.import_module(module)
            if "." in attr:
                cls_name, method = attr.split(".")
                cls = getattr(owner, cls_name)
                wrapper = self._wrap(name, getattr(cls, method), hook)
                self._replace(cls, method, wrapper)
            else:
                original = getattr(owner, attr)
                wrapper = self._wrap(name, original, hook)
                for mod_name, mod in list(sys.modules.items()):
                    if mod_name.split(".")[0] != "repro" or mod is None:
                        continue
                    for key, value in list(vars(mod).items()):
                        if value is original:
                            self._replace(mod, key, wrapper)
        from repro.perf.cache import ArtifactCache
        from repro.perf.parallel import SweepExecutor

        self._replace(
            ArtifactCache,
            "get_or_compute",
            self._wrap_cache(ArtifactCache.get_or_compute),
        )
        self._replace(SweepExecutor, "map", self._wrap_map(SweepExecutor.map))

    def uninstall(self):
        for owner, key, original in reversed(self._restore):
            setattr(owner, key, original)
        self._restore = []

    def _replace(self, owner, key: str, value):
        self._restore.append((owner, key, getattr(owner, key)))
        setattr(owner, key, value)

    def _wrap(self, name: str, fn: Callable, hook: Optional[Callable]):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = tracer.open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.close(span)
            if hook is not None:
                increments = hook(args, kwargs, result)
                with tracer._lock:
                    for key, value in increments.items():
                        tracer.counts[key] += value
            return result

        return wrapper

    def _caller_name(self, default: str, suffix: str) -> str:
        """Span name for work done on behalf of the calling layer: a
        cache miss's compute function or a sweep task is the caller's
        work, not the cache's or the executor's."""
        caller = self.current()
        return (caller.layer if caller else default) + suffix

    def _in_span(self, fn: Callable, name: str, parent=None) -> Callable:
        def run(*args):
            span = self.open(name, parent=parent)
            try:
                return fn(*args)
            finally:
                self.close(span)

        return run

    def _wrap_cache(self, original: Callable):
        tracer = self

        @functools.wraps(original)
        def traced_get(cache, kind, key, compute, *args, **kwargs):
            name = tracer._caller_name("cache", ".compute")
            span = tracer.open("cache.get")
            try:
                return original(
                    cache, kind, key, tracer._in_span(compute, name),
                    *args, **kwargs,
                )
            finally:
                tracer.close(span)

        return traced_get

    def _wrap_map(self, original: Callable):
        tracer = self

        @functools.wraps(original)
        def traced_map(executor, fn, items):
            points = list(items)
            name = tracer._caller_name("sweep", ".task")
            span = tracer.open("sweep.map")
            with tracer._lock:
                tracer.counts["sweep.points"] += len(points)
            # Only serial and thread pools run the (unpicklable) closure;
            # in a pool thread the task's parent is this map span.
            if executor.resolved_mode() in ("serial", "thread"):
                fn = tracer._in_span(fn, name, parent=span)
            try:
                return original(executor, fn, points)
            finally:
                tracer.close(span)

        return traced_map


def self_times(
    spans: List[Span], t0: float, t1: float
) -> Tuple[Dict[str, float], float]:
    """Per-span-name self time over ``[t0, t1]`` and the covered time."""
    events = []
    for s in spans:
        events.append((s.start, 1, s))
        events.append((s.end, 0, s))
    events.sort(key=lambda e: (e[0], e[1]))
    open_spans: Dict[int, Dict[int, Span]] = defaultdict(dict)
    waiting: Dict[int, int] = defaultdict(int)
    out: Dict[str, float] = defaultdict(float)
    covered = 0.0
    prev = t0
    for t, opening, span in events:
        if t > prev:
            running = [
                by_depth[max(by_depth)]
                for by_depth in open_spans.values()
                if by_depth
            ]
            running = [s for s in running if not waiting[s.sid]]
            if running:
                share = (t - prev) / len(running)
                for s in running:
                    out[s.name] += share
                covered += t - prev
            prev = t
        if opening:
            open_spans[span.tid][span.depth] = span
            if span.cross:
                waiting[span.parent] += 1
        else:
            del open_spans[span.tid][span.depth]
            if span.cross:
                waiting[span.parent] -= 1
    return dict(out), covered


def outermost_duration(spans: List[Span], name: str) -> float:
    """Summed duration of ``name`` spans not nested in another one."""
    by_id = {s.sid: s for s in spans}
    total = 0.0
    for s in spans:
        if s.name != name:
            continue
        parent = by_id.get(s.parent)
        while parent is not None and parent.name != name:
            parent = by_id.get(parent.parent)
        if parent is None:
            total += s.end - s.start
    return total
