"""Host-time spans around the calls into each ``repro`` layer.

A traced phase patches the public callables listed in :data:`TARGETS`
with timing wrappers and restores the originals when it ends, so an
untraced phase runs the program exactly as shipped.  Nothing under
``src/`` changes: every wrapper is installed from here.

Each wrapper records one span (name, phase, start, end, self time).
Spans go on a per-thread stack, because the sharded executor runs shard
work on worker threads; a span's self time is its duration minus the
part its child spans cover.  Spans are kept in memory and rolled up at
the end (:meth:`Recorder.write_spans` writes them out on request).

A function imported by name into other modules (``lower`` into
``repro.core.base``, ``plan_cache_key`` into ``repro.serve.caches``) is
patched in every loaded ``repro`` module that holds it, because that is
where its callers look it up.
"""

from __future__ import annotations

import functools
import json
import sys
import threading
import time
from collections import defaultdict
from dataclasses import dataclass
from importlib import import_module
from typing import Callable, Dict, List, Optional, Tuple

#: The ``repro`` subpackages timed as layers (``tpch`` is data
#: generation and counts as set-up; ``obs`` is not timed).
LAYERS = ("relational", "plans", "model", "gpu", "core", "serve", "shard")

#: Attribute every wrapper carries, pointing at the callable it replaced.
WRAPPED_ATTR = "__perfbench_original__"


def _probe_rows(recorder, args, result, before) -> None:
    keys = args[1]
    recorder.add("plans.probe_rows", float(len(keys)))


def _cycles_before(args):
    return args[0].counters.elapsed_cycles


def _sim_cycles(recorder, args, result, before) -> None:
    recorder.add("gpu.cycles", args[0].counters.elapsed_cycles - before)


def _segment_restore(recorder, args, result, before) -> None:
    recorder.add("core.segment_attempts", 1.0)
    if result:
        recorder.add("core.segment_hits", 1.0)


def _resilient_attempts(recorder, args, result, before) -> None:
    report = getattr(result, "resilience", None)
    if report is not None:
        recorder.add("core.resilience_attempts", float(len(report.attempts)))


def _shard_report(recorder, args, result, before) -> None:
    report = getattr(result, "shard", None)
    if report is not None:
        recorder.add("shard.skew", float(report.skew))
        recorder.add("shard.relocations", float(report.relocations))


@dataclass(frozen=True)
class Target:
    """One callable to time: ``attr`` is ``"func"`` or ``"Class.method"``."""

    span: str
    module: str
    attr: str
    before: Optional[Callable] = None
    after: Optional[Callable] = None


TARGETS: Tuple[Target, ...] = (
    Target("relational.stats", "repro.relational.database", "Database.stats"),
    Target("relational.partition", "repro.relational.partition", "partition_table"),
    Target("relational.partition", "repro.relational.partition", "partition_database"),
    Target("plans.optimize", "repro.plans.optimizer", "SelingerOptimizer.optimize"),
    Target("plans.lower", "repro.plans.lowering", "lower"),
    Target("plans.key", "repro.plans.lowering", "plan_cache_key"),
    Target("plans.probe", "repro.plans.runtime", "HashTable.probe", after=_probe_rows),
    Target("plans.probe", "repro.plans.runtime", "PartitionedHashTable.probe"),
    Target("plans.build", "repro.plans.runtime", "HashTable.insert"),
    Target("plans.build", "repro.plans.runtime", "HashTable.finalize"),
    Target("plans.build", "repro.plans.runtime", "PartitionedHashTable.insert"),
    Target("plans.build", "repro.plans.runtime", "PartitionedHashTable.finalize"),
    Target("plans.groupagg", "repro.plans.runtime", "GroupAggState.update"),
    Target("plans.groupagg", "repro.plans.runtime", "GroupAggState.result"),
    Target("model.calibrate", "repro.model.calibration", "calibrate_channels"),
    Target("model.search", "repro.model.search", "ConfigurationSearch.best_for_segment"),
    Target("model.search", "repro.model.search", "ConfigurationSearch.optimize_plan"),
    Target(
        "gpu.sim", "repro.gpu.simulator", "Simulator.run_pipeline",
        before=_cycles_before, after=_sim_cycles,
    ),
    Target(
        "gpu.sim", "repro.gpu.simulator", "Simulator.run_exclusive",
        before=_cycles_before, after=_sim_cycles,
    ),
    Target("core.execute", "repro.core.base", "EngineBase.execute"),
    Target("core.execute_plan", "repro.core.base", "EngineBase.execute_plan"),
    Target(
        "core.segment_restore", "repro.core.checkpoint", "SegmentCache.restore",
        after=_segment_restore,
    ),
    Target(
        "core.resilient", "repro.core.resilience", "ResilientExecutor.execute",
        after=_resilient_attempts,
    ),
    Target("wait.pool", "repro.core.parallel", "PoolTask.wait"),
    Target("serve.drain", "repro.serve.service", "QueryService.drain"),
    Target("serve.cache", "repro.serve.caches", "ResultCache.lookup"),
    Target("serve.cache", "repro.serve.caches", "ResultCache.store"),
    Target(
        "shard.execute", "repro.shard.executor", "ShardedExecutor.execute",
        after=_shard_report,
    ),
    Target("shard.decompose", "repro.shard.planner", "decompose"),
    Target("shard.merge", "repro.shard.executor", "ShardedExecutor._merge"),
)


def _repro_modules():
    """The loaded ``repro`` modules, in name order."""
    return [
        module
        for name, module in sorted(sys.modules.items())
        if module is not None and (name == "repro" or name.startswith("repro."))
    ]


def _bindings(target: Target) -> List[Tuple[object, str, object]]:
    """Every ``(namespace, name, original)`` the wrapper must replace."""
    module = import_module(target.module)
    if "." in target.attr:
        class_name, method = target.attr.split(".")
        owner = getattr(module, class_name)
        return [(owner, method, owner.__dict__[method])]
    original = getattr(module, target.attr)
    return [
        (module, attr, original)
        for module in _repro_modules()
        for attr, value in vars(module).items()
        if value is original
    ]


class Recorder:
    """In-memory span store with one span stack per thread."""

    def __init__(self) -> None:
        self.phase = "setup"
        #: ``(name, phase, thread id, start ns, end ns, self ns, root)``.
        self.spans: List[Tuple[str, str, int, int, int, int, bool]] = []
        self.main_thread = threading.get_ident()
        self.counts: Dict[Tuple[str, str], float] = defaultdict(float)
        self._local = threading.local()
        self._lock = threading.Lock()
        self._installed: List[Tuple[object, str, object]] = []

    # -- recording --------------------------------------------------------

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def add(self, key: str, amount: float) -> None:
        with self._lock:
            self.counts[(self.phase, key)] += amount

    def _wrap(self, target: Target, original: Callable) -> Callable:
        recorder = self
        name, before_hook, after_hook = target.span, target.before, target.after
        clock = time.perf_counter_ns
        ident = threading.get_ident

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            stack = recorder._stack()
            before = before_hook(args) if before_hook is not None else None
            frame = [0]
            stack.append(frame)
            start = clock()
            try:
                result = original(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                duration = end - start
                if stack:
                    stack[-1][0] += duration
                recorder.spans.append(
                    (name, recorder.phase, ident(), start, end,
                     duration - frame[0], not stack)
                )
            if after_hook is not None:
                after_hook(recorder, args, result, before)
            return result

        setattr(wrapper, WRAPPED_ATTR, original)
        return wrapper

    # -- install / remove -------------------------------------------------

    def install(self) -> None:
        if self._installed:
            raise RuntimeError("trace wrappers are already installed")
        for target in TARGETS:
            for owner, attr, original in _bindings(target):
                setattr(owner, attr, self._wrap(target, original))
                self._installed.append((owner, attr, original))

    def remove(self) -> None:
        while self._installed:
            owner, attr, original = self._installed.pop()
            setattr(owner, attr, original)
        # A module imported while the wrappers were in place copied one.
        for module in _repro_modules():
            for attr, value in list(vars(module).items()):
                if hasattr(value, WRAPPED_ATTR):
                    setattr(module, attr, getattr(value, WRAPPED_ATTR))

    def write_spans(self, path: str) -> None:
        """One JSON object per span, in completion order."""
        with open(path, "w") as handle:
            for name, phase, thread, start, end, self_ns, root in self.spans:
                handle.write(json.dumps({
                    "name": name, "phase": phase, "thread": thread,
                    "start_ns": start, "end_ns": end, "self_ns": self_ns,
                    "root": root,
                }) + "\n")

    # -- roll-up ----------------------------------------------------------

    def totals(self, phase: str) -> Dict[str, Dict[str, float]]:
        """Per span name: ``calls``, inclusive ``ms`` and ``self_ms``."""
        rolled: Dict[str, Dict[str, float]] = defaultdict(
            lambda: {"calls": 0.0, "ms": 0.0, "self_ms": 0.0}
        )
        for name, span_phase, _, start, end, self_ns, _ in self.spans:
            if span_phase != phase:
                continue
            entry = rolled[name]
            entry["calls"] += 1
            entry["ms"] += (end - start) / 1e6
            entry["self_ms"] += self_ns / 1e6
        return rolled

    def busy_ms(self, phase: str, wall_ms: float) -> float:
        """Thread time spent working: the main thread's wall time minus
        its pool waits, plus the root spans of worker threads."""
        busy = wall_ms
        for name, span_phase, thread, start, end, _, root in self.spans:
            if span_phase != phase:
                continue
            if thread == self.main_thread:
                if name == "wait.pool":
                    busy -= (end - start) / 1e6
            elif root:
                busy += (end - start) / 1e6
        return busy

    def count(self, phase: str, key: str) -> float:
        return self.counts.get((phase, key), 0.0)


def wrapped_targets() -> List[str]:
    """Every ``repro`` function or method that is still a wrapper.

    Scans all loaded ``repro`` modules and the classes they define, so a
    binding missed by :meth:`Recorder.remove` shows up here.
    """
    found = []
    for module in _repro_modules():
        name = module.__name__
        for attr, value in vars(module).items():
            if hasattr(value, WRAPPED_ATTR):
                found.append(f"{name}.{attr}")
            elif isinstance(value, type) and value.__module__ == name:
                for method, member in vars(value).items():
                    if hasattr(member, WRAPPED_ATTR):
                        found.append(f"{name}.{attr}.{method}")
    return found
