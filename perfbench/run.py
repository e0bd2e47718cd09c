"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload tpch-cold --seed 1 --seconds 15 --trace 0

Workloads: ``tpch-cold``, ``serve-zipf``, ``pool-scatter`` (see
``perfbench/README.md``).  The last line of standard output is one JSON
object ``{"correct", "attempted", "failed", "metrics"}``: with
``--trace 0`` the end-to-end metrics, with ``--trace 1`` the per-layer
metrics of a traced window.  The line before it is a JSON ``info``
object (seed, input composition, versions, tail percentile, ...).
"""

from __future__ import annotations

import argparse
import json
import os
import pathlib
import platform
import sys
import time

ROOT = pathlib.Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


def git_rev(root: pathlib.Path) -> str:
    """The checked-out commit, read from ``.git`` without running git."""
    head = root / ".git" / "HEAD"
    try:
        text = head.read_text().strip()
        if text.startswith("ref: "):
            ref = text[5:]
            loose = root / ".git" / ref
            if loose.exists():
                return loose.read_text().strip()[:12]
            for line in (root / ".git" / "packed-refs").read_text().splitlines():
                if line.endswith(" " + ref):
                    return line.split()[0][:12]
            return "unknown"
        return text[:12]
    except OSError:
        return "unknown"


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--scale", type=float, default=None,
        help="override the workload's TPC-H scale factor (smoke tests)",
    )
    parser.add_argument(
        "--spans", default=None,
        help="write the traced spans to this file (JSON lines)",
    )
    return parser


def timed_window(workload, seconds: float):
    """One window, plus the configuration-search memo's hit counts."""
    from repro.model import search_cache_stats

    before = search_cache_stats()
    window = workload.window(seconds)
    after = search_cache_stats()
    window.counters["search_hits"] = float(after["hits"] - before["hits"])
    window.counters["search_misses"] = float(after["misses"] - before["misses"])
    return window


def run(args) -> dict:
    """Run the workload; returns the result object of the last line."""
    import numpy

    from perfbench import metrics as bench_metrics
    from perfbench.layers import Recorder, wrapped_targets
    from perfbench.workloads import WORKLOADS, dbgen_seed

    if args.workload not in WORKLOADS:
        raise SystemExit(
            f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}"
        )
    workload = WORKLOADS[args.workload](args.seed, scale=args.scale)
    # Keep the scheduler from migrating a single-threaded run between
    # CPUs mid-window: a migration leaves the caches of the hit path cold.
    pinnable = hasattr(os, "sched_setaffinity")
    if pinnable:
        allowed = os.sched_getaffinity(0)
        os.sched_setaffinity(0, sorted(allowed)[-workload.host_threads:])
    recorder = Recorder() if args.trace else None
    windows = []
    try:
        setup_times = []
        if recorder is not None:
            recorder.install()
        try:
            for _ in range(1 if recorder is not None else workload.setups):
                workload.discard()
                start = time.perf_counter()
                workload.setup()
                setup_times.append(time.perf_counter() - start)
        finally:
            if recorder is not None:
                recorder.remove()
        workload.after_setup()
        leftover = wrapped_targets()
        if leftover:
            raise RuntimeError(f"untraced window with wrappers: {leftover}")
        # A traced run splits its time between an untraced window (the
        # tracing-overhead baseline) and the traced one.
        seconds = args.seconds / 2 if recorder is not None else args.seconds
        untraced = timed_window(workload, seconds)
        rss_mb = bench_metrics.peak_rss_mb()
        windows.append(untraced)
        if recorder is not None:
            recorder.phase = "window"
            recorder.install()
            try:
                traced = timed_window(workload, seconds)
            finally:
                recorder.remove()
            windows.append(traced)
        attempted = failed = wrong = 0
        notes = []
        for window in windows:
            mismatches, window_notes = workload.check(window)
            attempted += window.attempted
            failed += window.failed + mismatches
            wrong += mismatches
            notes.extend(window.errors + window_notes)
        info = {
            "workload": workload.name,
            "seed": args.seed,
            "dbgen_seed": dbgen_seed(args.seed),
            "scale": workload.scale,
            "seconds": args.seconds,
            "trace": args.trace,
            "composition": dict(sorted(workload.composition.items())),
            "samples": len(untraced.latencies_ms),
            "tail_percentile": f"p{workload.tail_pct:g}",
            "timed_s": untraced.timed_s,
            "setup_times_s": setup_times,
            "failed_frac": failed / attempted if attempted else 0.0,
            "wrong_answers": wrong,
            "notes": notes[:10],
            "git_rev": git_rev(ROOT),
            "nproc": os.cpu_count(),
            "python": platform.python_version(),
            "numpy": numpy.__version__,
            **workload.info(),
        }
        if recorder is None:
            values = bench_metrics.end_to_end(
                untraced, setup_times, rss_mb, workload.tail_pct
            )
            info["samples_beyond_tail"] = sum(
                1 for v in untraced.latencies_ms if v > values["tail_ms"]
            )
            units = bench_metrics.END_TO_END
        else:
            values = bench_metrics.per_layer(recorder, traced, untraced, workload)
            units = bench_metrics.PER_LAYER
            info["selfcheck_zero"] = [
                name for name in workload.traced_on if not values[name]
            ]
            info["layer_table"] = bench_metrics.layer_table(values)
            if args.spans:
                recorder.write_spans(args.spans)
        print(json.dumps({"info": info}, sort_keys=True))
        return {
            "correct": failed == 0,
            "attempted": attempted,
            "failed": failed,
            "metrics": {
                name: {"value": values[name], "unit": unit}
                for name, unit in units.items()
            },
        }
    finally:
        workload.discard()
        if pinnable:
            os.sched_setaffinity(0, allowed)


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    if args.seconds <= 0:
        print("error: --seconds must be positive", file=sys.stderr)
        return 2
    if not (SRC / "repro").is_dir():
        print(f"error: no repro sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(ROOT))
    result = run(args)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
