"""Tests of the benchmark itself, at tiny scale.

Run from the repository root::

    PYTHONPATH=src python -m pytest perfbench/tests -q
"""

import json
import pathlib
import sys

import pytest

ROOT = pathlib.Path(__file__).resolve().parents[2]
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

from repro.tpch import query_by_name  # noqa: E402

from perfbench import run as bench_run  # noqa: E402
from perfbench.layers import Recorder, wrapped_targets  # noqa: E402
from perfbench.workloads import (  # noqa: E402
    DEVICE,
    SIM_ANCHOR,
    WORKLOADS,
    ServeZipf,
    TpchCold,
    fresh_database,
)

BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())
TINY = ["--seed", "3", "--scale", "0.01", "--seconds", "0.5"]


def _run(capsys, workload, trace):
    argv = ["--workload", workload, "--trace", str(trace), *TINY]
    assert bench_run.main(argv) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    return json.loads(lines[-2])["info"], json.loads(lines[-1])


def _units(section):
    return {metric["name"]: metric["unit"] for metric in BENCHMARK[section]}


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_untraced_run_emits_every_end_to_end_metric(capsys, workload):
    info, result = _run(capsys, workload, trace=0)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] >= 1
    metrics = result["metrics"]
    assert {name: m["unit"] for name, m in metrics.items()} == _units("end_to_end")
    assert all(m["value"] > 0 for m in metrics.values()), metrics
    assert info["seed"] == 3 and info["scale"] == 0.01
    assert sum(info["composition"].values()) >= result["attempted"]
    for key in ("git_rev", "nproc", "python", "numpy", "tail_percentile"):
        assert info[key]


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_traced_run_emits_every_per_layer_metric(capsys, workload):
    info, result = _run(capsys, workload, trace=1)
    assert result["correct"]
    metrics = result["metrics"]
    assert {name: m["unit"] for name, m in metrics.items()} == _units("per_layer")
    # Each metric the workload exercises has calls; nothing stays patched.
    assert info["selfcheck_zero"] == []
    assert wrapped_targets() == []
    if workload == "tpch-cold":
        bypassed = {
            name: m["value"] for name, m in metrics.items()
            if name.startswith(("serve.", "shard."))
        }
        assert bypassed and not any(bypassed.values()), bypassed


def test_untraced_window_runs_without_wrappers(capsys, monkeypatch):
    seen = []
    original = TpchCold.window

    def spy(self, seconds):
        seen.append(wrapped_targets())
        return original(self, seconds)

    monkeypatch.setattr(TpchCold, "window", spy)
    _run(capsys, "tpch-cold", trace=1)
    untraced, traced = seen
    assert untraced == []
    assert traced
    assert wrapped_targets() == []


def test_wrappers_patch_names_where_callers_look_them_up():
    recorder = Recorder()
    recorder.install()
    try:
        patched = set(wrapped_targets())
    finally:
        recorder.remove()
    for name in (
        "repro.core.base.lower",
        "repro.serve.caches.plan_cache_key",
        "repro.shard.executor.decompose",
        "repro.shard.executor.partition_database",
        "repro.serve.service.calibrate_channels",
        "repro.plans.runtime.HashTable.probe",
    ):
        assert name in patched
    assert wrapped_targets() == []


def test_corrupted_cached_answer_raises_failed_frac(capsys, monkeypatch):
    original = ServeZipf.window

    def corrupting(self, seconds):
        window = original(self, seconds)
        ticket = next(t for shape, t in window.answers if shape == "Q5")
        result = self.service.result_for(ticket)
        name = result.columns[-1]
        # A caller rebinding a column of a shared cached answer.
        result.batch[name] = result.batch[name] + 1.0
        return window

    monkeypatch.setattr(ServeZipf, "window", corrupting)
    info, result = _run(capsys, "serve-zipf", trace=0)
    assert not result["correct"]
    assert result["failed"] > 0
    assert info["failed_frac"] > 0


def test_same_seed_gives_same_inputs_and_simulated_time():
    runs = []
    for _ in range(2):
        workload = ServeZipf(seed=5, scale=0.01)
        workload.setup()
        workload.after_setup()
        window = workload.window(1e-9)  # exactly one block
        runs.append((workload.composition, window.sim_ms_per_query))
        workload.discard()
    assert runs[0] == runs[1]
    assert runs[0][1] > 0


def test_sim_anchor_matches_committed_baseline():
    """Seed 0 is dbgen's default data: Q5/Q9 cycles as in BENCH_baseline."""
    workload = TpchCold(seed=0)
    workload.setup()
    engines = dict(TpchCold.ENGINES)
    for (query, label), expected in SIM_ANCHOR.items():
        engine = engines[label](fresh_database(workload.database), DEVICE)
        result = engine.execute(query_by_name(query))
        assert round(result.counters.elapsed_cycles, 1) == expected
