"""End-to-end and per-layer metrics from timed windows and spans."""

from __future__ import annotations

import resource
from typing import Dict, List, Sequence

import numpy as np

from .layers import LAYERS, Recorder
from .workloads import Window, Workload

#: ``name -> unit`` of every end-to-end metric (untraced run).
END_TO_END = {
    "qps": "1/s",
    "p50_ms": "ms",
    "tail_ms": "ms",
    "sim_ms_per_query": "ms",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}

#: ``name -> unit`` of every per-layer metric (traced run).  ``/query``
#: values are divided by the queries the traced window completed.
PER_LAYER = {
    "relational.stats_ms": "ms/query",
    "relational.partition_ms": "ms",
    "plans.optimize_ms": "ms/query",
    "plans.optimize_calls": "count/query",
    "plans.lower_ms": "ms/query",
    "plans.probe_ms": "ms/query",
    "plans.probe_rows": "rows/query",
    "plans.build_ms": "ms/query",
    "plans.groupagg_ms": "ms/query",
    "plans.key_us": "us/call",
    "plans.key_calls": "count/query",
    "model.calibrate_ms": "ms",
    "model.search_ms": "ms/query",
    "model.search_hit_ratio": "ratio",
    "gpu.sim_ms": "ms/query",
    "gpu.sim_calls": "count/query",
    "gpu.cycles_per_host_s": "cycles/s",
    "gpu.gpl_over_kbe": "x",
    "core.execute_self_ms": "ms/query",
    "core.segment_hit_ratio": "ratio",
    "core.resilience_attempts": "count/call",
    "core.pool_busy_s": "s",
    "core.pool_util": "ratio",
    "core.pool_wait_ms": "ms/query",
    "serve.drain_self_ms": "ms/query",
    "serve.result_hit_ratio": "ratio",
    "serve.plan_hit_ratio": "ratio",
    "serve.dedupe_total": "count",
    "serve.rounds": "count",
    "serve.shared_scan_rounds": "count",
    "serve.results_retained": "count",
    "shard.execute_ms": "ms/query",
    "shard.decompose_ms": "ms/query",
    "shard.merge_ms": "ms/query",
    "shard.skew": "ratio",
    "shard.relocations": "count",
    **{f"{layer}.self_ms": "ms/query" for layer in LAYERS},
    "trace.wall_ms": "ms/query",
    "trace.busy_ms": "ms/query",
    "trace.unattributed_ms": "ms/query",
    "trace.overhead_frac": "ratio",
}


def peak_rss_mb() -> float:
    """Peak resident set of this process so far (Linux reports KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def percentile(values: Sequence[float], pct: float) -> float:
    return float(np.percentile(np.asarray(values, dtype=float), pct))


def end_to_end(
    window: Window, setup_times: List[float], rss_mb: float, tail_pct: float
) -> Dict[str, float]:
    latencies = window.latencies_ms
    return {
        "qps": window.qps,
        "p50_ms": percentile(latencies, 50.0),
        "tail_ms": percentile(latencies, tail_pct),
        "sim_ms_per_query": window.sim_ms_per_query,
        "setup_s": float(np.median(setup_times)),
        "peak_rss_mb": rss_mb,
    }


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def per_layer(
    recorder: Recorder, traced: Window, untraced: Window, workload: Workload
) -> Dict[str, float]:
    """Per-layer metrics of the traced window (and the traced set-up)."""
    spans = recorder.totals("window")
    setup = recorder.totals("setup")
    queries = max(1, traced.completed)

    def self_ms(name: str) -> float:
        return spans[name]["self_ms"] if name in spans else 0.0

    def incl_ms(name: str) -> float:
        return spans[name]["ms"] if name in spans else 0.0

    def calls(name: str) -> float:
        return spans[name]["calls"] if name in spans else 0.0

    def count(key: str) -> float:
        return recorder.count("window", key)

    layer_self = {
        layer: sum(
            entry["self_ms"]
            for name, entry in spans.items()
            if name.split(".")[0] == layer
        )
        for layer in LAYERS
    }
    wall_ms = traced.timed_s * 1e3
    busy_ms = recorder.busy_ms("window", wall_ms)
    counters = traced.counters
    sim_s = self_ms("gpu.sim") / 1e3
    shard_calls = calls("shard.execute")
    metrics = {
        "relational.stats_ms": self_ms("relational.stats") / queries,
        "relational.partition_ms": (
            setup["relational.partition"]["self_ms"]
            if "relational.partition" in setup else 0.0
        ),
        "plans.optimize_ms": self_ms("plans.optimize") / queries,
        "plans.optimize_calls": calls("plans.optimize") / queries,
        "plans.lower_ms": self_ms("plans.lower") / queries,
        "plans.probe_ms": self_ms("plans.probe") / queries,
        "plans.probe_rows": count("plans.probe_rows") / queries,
        "plans.build_ms": self_ms("plans.build") / queries,
        "plans.groupagg_ms": self_ms("plans.groupagg") / queries,
        "plans.key_us": _ratio(incl_ms("plans.key") * 1e3, calls("plans.key")),
        "plans.key_calls": calls("plans.key") / queries,
        "model.calibrate_ms": (
            setup["model.calibrate"]["ms"] if "model.calibrate" in setup else 0.0
        ),
        "model.search_ms": self_ms("model.search") / queries,
        "model.search_hit_ratio": _ratio(
            counters.get("search_hits", 0.0),
            counters.get("search_hits", 0.0) + counters.get("search_misses", 0.0),
        ),
        "gpu.sim_ms": self_ms("gpu.sim") / queries,
        "gpu.sim_calls": calls("gpu.sim") / queries,
        "gpu.cycles_per_host_s": _ratio(count("gpu.cycles"), sim_s),
        "gpu.gpl_over_kbe": workload.info().get("gpl_over_kbe", 0.0),
        "core.execute_self_ms": self_ms("core.execute_plan") / queries,
        "core.segment_hit_ratio": _ratio(
            count("core.segment_hits"), count("core.segment_attempts")
        ),
        "core.resilience_attempts": _ratio(
            count("core.resilience_attempts"), calls("core.resilient")
        ),
        "core.pool_busy_s": traced.pool_busy_s,
        "core.pool_util": _ratio(
            traced.pool_busy_s, traced.timed_s * traced.workers
        ),
        "core.pool_wait_ms": incl_ms("wait.pool") / queries,
        "serve.drain_self_ms": self_ms("serve.drain") / queries,
        "serve.result_hit_ratio": _ratio(
            counters.get("result_hits", 0.0),
            counters.get("result_hits", 0.0) + counters.get("result_misses", 0.0),
        ),
        "serve.plan_hit_ratio": _ratio(
            counters.get("plan_hits", 0.0),
            counters.get("plan_hits", 0.0) + counters.get("plan_misses", 0.0),
        ),
        "serve.dedupe_total": counters.get("dedupe", 0.0),
        "serve.rounds": counters.get("rounds", 0.0),
        "serve.shared_scan_rounds": counters.get("shared_scan_rounds", 0.0),
        "serve.results_retained": counters.get("results_retained", 0.0),
        "shard.execute_ms": incl_ms("shard.execute") / queries,
        "shard.decompose_ms": incl_ms("shard.decompose") / queries,
        "shard.merge_ms": incl_ms("shard.merge") / queries,
        "shard.skew": _ratio(count("shard.skew"), shard_calls),
        "shard.relocations": count("shard.relocations"),
        **{f"{layer}.self_ms": layer_self[layer] / queries for layer in LAYERS},
        "trace.wall_ms": wall_ms / queries,
        "trace.busy_ms": busy_ms / queries,
        "trace.unattributed_ms": (busy_ms - sum(layer_self.values())) / queries,
        "trace.overhead_frac": (
            1.0 - _ratio(traced.qps, untraced.qps) if untraced.qps else 0.0
        ),
    }
    assert set(metrics) == set(PER_LAYER)
    return metrics


def layer_table(metrics: Dict[str, float]) -> List[str]:
    """Host self-time by layer, as shares of the busy thread time."""
    busy = metrics["trace.busy_ms"]
    lines = [f"{'layer':<14}{'self ms/query':>15}{'share':>9}"]
    rows = [(layer, metrics[f"{layer}.self_ms"]) for layer in LAYERS]
    rows.append(("unattributed", metrics["trace.unattributed_ms"]))
    rows.append(("busy", busy))
    for layer, value in rows:
        share = 100.0 * value / busy if busy else 0.0
        lines.append(f"{layer:<14}{value:>15.3f}{share:>8.1f}%")
    lines.append(f"{'wall':<14}{metrics['trace.wall_ms']:>15.3f}")
    return lines
