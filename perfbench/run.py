#!/usr/bin/env python3
"""Run one workload of the repository benchmark and print its metrics.

    python3 perfbench/run.py --workload fleet_day --seed 1 --seconds 30 --trace 0

Builds perfbench/ (the arv libraries plus the arv_perfbench binary) in
Release under $CARGO_TARGET_DIR (default .bench_build), runs the binary for
--seconds of wall time, checks its outputs, and prints one line per metric,
a provenance line, and finally one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

--trace 0 reports the end-to-end metrics (wall times are the fastest seen
over the untraced episodes); --trace 1 alternates untraced and traced
episodes and reports the per-layer metrics. See perfbench/README.md for the
workloads, the metric map and how a run measures.
"""

import argparse
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

WORKLOADS = ("host_colocation", "fleet_day", "fleet_sparse")
DEFAULT_SEED = 1
# Never used while the benchmark or a change was tuned; re-check claims on it.
HELD_OUT_SEED = 20190624

END_TO_END = {
    "sim_s_per_wall_s": "sim-s/wall-s",
    "setup_s": "s",
    "peak_rss_mb": "MiB",
    "sim_app_runtime_s": "sim-s",
    "sim_goodput_rps": "1/sim-s",
    "sim_p99_ms": "sim-ms",
}

PER_LAYER = {
    # cluster engine
    "cluster.step_ms": "ms",
    "cluster.step_us_p50": "us",
    "cluster.step_us_p99": "us",
    "cluster.host_phase_ms": "ms",
    "cluster.serial_ms": "ms",
    "cluster.serial_other_ms": "ms",
    "cluster.skip_ratio": "ratio",
    "cluster.fleet_rows_reused": "count",
    "cluster.migrations": "count",
    "cluster.failovers": "count",
    # cluster components (self time)
    "cluster.router.tick_ms": "ms",
    "cluster.overload.tick_ms": "ms",
    "cluster.hpa.tick_ms": "ms",
    "cluster.vpa.tick_ms": "ms",
    "cluster.ca.tick_ms": "ms",
    "cluster.rebalancer.tick_ms": "ms",
    "cluster.recovery.tick_ms": "ms",
    "cluster.faults.tick_ms": "ms",
    "cluster.router.generated": "count",
    "cluster.router.routed": "count",
    "cluster.router.completed": "count",
    "cluster.router.retries": "count",
    "cluster.router.dropped": "count",
    "cluster.router.shed": "count",
    "cluster.router.rejected": "count",
    "cluster.router.completed_ratio": "ratio",
    "cluster.overload.rejected": "count",
    "cluster.overload.brownout_entries": "count",
    "cluster.hpa.scale_ups": "count",
    "cluster.vpa.rewrites": "count",
    "cluster.ca.hosts_added": "count",
    # load
    "load.driver.tick_ms": "ms",
    "load.slo.tick_ms": "ms",
    "load.driver.self_ms": "ms",
    "load.compile_ms": "ms",
    # host / sched / mem / core / jvm / omp
    "host.step_us_p50": "us",
    "host.step_us_p99": "us",
    "core.monitor.update_rounds": "count",
    "core.ns.cpu_updates": "count",
    "core.ns.mem_updates": "count",
    "mem.kswapd_wakeups": "count",
    "mem.direct_reclaims": "count",
    "mem.oom_kills": "count",
    "jvm.gc_time_s": "sim-s",
    "jvm.jobs_completed": "count",
    "omp.jobs_completed": "count",
    # vfs / container
    "vfs.reads": "count",
    "vfs.writes": "count",
    "vfs.read_us_p50": "us",
    "vfs.write_us_p50": "us",
    "vfs.render_cache_hit_ratio": "ratio",
    "container.create_us_p50": "us",
    "container.stop_us_p50": "us",
    # tracing itself
    "trace_overhead_pct": "%",
}

# Per-layer metrics measured in wall time: their value is the median over
# the traced episodes. Everything else repeats exactly across episodes.
WALL_UNITS = ("ms", "us")


def log(message):
    print(message, file=sys.stderr, flush=True)


def build_dir():
    target = Path(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    if not target.is_absolute():
        target = ROOT / target
    return target / "perfbench"


def build(out_dir):
    """Configure (once) and build the binary; returns its path or None."""
    generator = ["-G", "Ninja"] if shutil.which("ninja") else []
    steps = [
        ["cmake", "-S", str(HERE), "-B", str(out_dir), *generator,
         "-DCMAKE_BUILD_TYPE=Release"],
        ["cmake", "--build", str(out_dir), "-j", str(min(4, os.cpu_count() or 1))],
    ]
    if (out_dir / "CMakeCache.txt").exists():
        steps = steps[1:]
    for step in steps:
        done = subprocess.run(step, cwd=ROOT, stdout=sys.stderr, stderr=sys.stderr)
        if done.returncode != 0:
            log(f"perfbench: build step failed: {' '.join(step)}")
            return None
    binary = out_dir / "arv_perfbench"
    return binary if binary.exists() else None


def git_sha():
    try:
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return done.stdout.strip() if done.returncode == 0 else "unknown"


def median(values):
    return statistics.median(values) if values else 0.0


def best_rate(episodes):
    """Simulated seconds per wall second, timing each segment of the timed
    phase by its fastest run over `episodes`.

    Every episode of a seed simulates the same segments, and contention
    from other tenants of the machine only ever adds wall time, so the
    fastest run of each segment is the program's own speed."""
    segments = list(zip(*(e["segment_ns"] for e in episodes)))
    wall_s = sum(min(runs) for runs in segments) / 1e9
    return episodes[0]["sim_s"] / wall_s


def summarize(raw, trace):
    """Turn the binary's per-episode results into the benchmark's metrics.

    Returns (correct, attempted, failed, metrics, notes)."""
    episodes = raw["episodes"]
    untraced = [e for e in episodes if not e["traced"]]
    traced = [e for e in episodes if e["traced"]]
    first = episodes[0]
    notes = []

    digests = {e["sim_digest"] for e in episodes}
    if len(digests) != 1:
        notes.append(f"sim_digest differs between episodes: {sorted(digests)}")
    for e in episodes:
        notes.extend(f"check failed: {c}" for c in e["checks"])
    if len({len(e["segment_ns"]) for e in episodes}) != 1:
        notes.append("episodes differ in their number of timed segments")
        return False, int(first["ops"]), 0, {}, notes

    rate = best_rate(untraced)
    if trace:
        metrics = {}
        for name, unit in PER_LAYER.items():
            values = [e["layers"][name]["value"] for e in traced
                      if name in e["layers"]]
            if not values:
                value = 0.0  # the layer does not run in this workload
            elif unit in WALL_UNITS:
                value = median(values)
            else:
                value = values[0]
            metrics[name] = {"value": value, "unit": unit}
        metrics["trace_overhead_pct"]["value"] = (
            100.0 * (1.0 - best_rate(traced) / rate))
    else:
        values = {
            "sim_s_per_wall_s": rate,
            # Like the rate: the fastest of the run's set-ups.
            "setup_s": min(e["setup_s"] for e in untraced),
            "peak_rss_mb": raw["peak_rss_mb"],
        }
        for name in ("sim_app_runtime_s", "sim_goodput_rps", "sim_p99_ms"):
            values[name] = first["outcome"][name]["value"]
        metrics = {name: {"value": values[name], "unit": unit}
                   for name, unit in END_TO_END.items()}
        for name, metric in metrics.items():
            value = metric["value"]
            if value is None or not math.isfinite(value) or value <= 0:
                notes.append(f"end-to-end metric {name} is {value}")

    correct = not notes
    failed = max(e["call_errors"] for e in episodes)
    return correct, int(first["ops"]), int(failed), metrics, notes


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    out_dir = build_dir()
    binary = build(out_dir)
    if binary is None:
        return 1
    spans = out_dir / "spans" / f"{args.workload}.csv"  # the latest traced run
    spans.parent.mkdir(parents=True, exist_ok=True)
    command = [str(binary), "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.trace:
        command += ["--spans-out", str(spans)]
    try:
        done = subprocess.run(command, cwd=ROOT, capture_output=True, text=True,
                              timeout=max(170.0, args.seconds * 3))
    except subprocess.TimeoutExpired:
        log("perfbench: arv_perfbench did not finish in time")
        return 1
    sys.stderr.write(done.stderr)
    if done.returncode != 0:
        log(f"perfbench: arv_perfbench exited with {done.returncode}")
        return 1
    raw = json.loads(done.stdout.strip().splitlines()[-1])

    correct, attempted, failed, metrics, notes = summarize(raw, args.trace)
    first = raw["episodes"][0]
    provenance = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "build_type": raw["build_type"],
        "compiler": raw["compiler"],
        "hardware_threads": raw["hardware_threads"],
        "git_sha": git_sha(),
        "episodes": len(raw["episodes"]),
    }
    if raw["build_type"] != "Release":
        log("*" * 72)
        log(f"WARNING: {raw['build_type']} build — timings are not comparable "
            "with Release results")
        log("*" * 72)
    for note in notes:
        log(f"perfbench: {note}")

    print(f"provenance {json.dumps(provenance)}")
    print(f"ops {first['ops']}")
    print(f"ops_failed {first['ops_failed']}")
    print(f"sim_digest {first['sim_digest']}")
    for name, metric in metrics.items():
        print(f"{name} {metric['value']:.6g} {metric['unit']}")

    result = {"correct": correct, "attempted": attempted, "failed": failed,
              "metrics": metrics}
    results = out_dir / "results"
    results.mkdir(parents=True, exist_ok=True)
    record = dict(provenance, ops=first["ops"], ops_failed=first["ops_failed"],
                  sim_digest=first["sim_digest"], notes=notes, result=result,
                  raw=raw)
    (results / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
