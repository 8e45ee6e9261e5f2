"""Same-machine benchmark of the repro program: one workload, one run.

Run from the repository root::

    python3 perfbench/run.py --workload mix_run --seed 1 --seconds 24 --trace 0

``--trace 0`` measures the end-to-end metrics with nothing instrumented.
``--trace 1`` measures half the window untraced and half traced, and
reports the per-layer metrics plus the tracing overhead.  Metric names and
units come from ``BENCHMARK.json``.  The last line of standard output is
one JSON object: ``correct``, ``attempted``, ``failed`` and ``metrics``.
See ``perfbench/README.md`` for what each metric means.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import subprocess
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import inputs  # noqa: E402
from harness import (  # noqa: E402
    BenchError,
    Context,
    median,
    p90,
    ratio,
)
from hook.pbtrace import LAYERS  # noqa: E402
from workloads import CLIENTS, POLL_S, WORKLOADS  # noqa: E402

#: Set-up is timed this many times per run; ``setup_s`` is the median.
SETUP_REPEATS = 5

#: Fresh-interpreter imports timed for ``cli.import_s``.
IMPORT_REPEATS = 5

#: ``latency_p90_s`` needs this many samples to count as measured.
P90_MIN_SAMPLES = 100

#: Passes a window runs even past its budget, so that a traced half holds
#: passes to compare and ``bench.trace_overhead_frac`` is a ratio of medians.
MIN_PASSES = 2

IN_RUN_LAYERS = LAYERS + ("other",)
COUNTS = (
    "vm.hard_faults", "vm.soft_faults", "vm.rescues", "vm.releaser_pages_freed",
    "vm.daemon_pages_scanned", "vm.daemon_pages_stolen", "disk.demand_reads",
    "disk.prefetch_reads", "disk.writebacks",
)


def window(workload, budget, first_index, trace_root=None):
    """Run passes until the next one would overrun ``budget`` seconds,
    and at least ``MIN_PASSES``."""
    passes = []
    started = time.perf_counter()
    while True:
        trace_dir = None
        if trace_root is not None:
            trace_dir = trace_root / f"pass{first_index + len(passes)}"
            trace_dir.mkdir(parents=True)
        passes.append(workload.run_pass(first_index + len(passes), trace_dir))
        elapsed = time.perf_counter() - started
        if len(passes) >= MIN_PASSES and elapsed + median([p.wall for p in passes]) > budget:
            return passes


def end_to_end(passes, setups, cpu_s, rss_mb):
    wall = sum(p.wall for p in passes)
    specs = sum(p.specs for p in passes)
    return {
        "setup_s": median(setups),
        "wall_s": median([p.wall for p in passes]),
        "specs_per_s": ratio(specs, wall),
        "sim_s_per_wall_s": ratio(sum(p.sim_s for p in passes), wall),
        "latency_p50_s": median([x for p in passes for x in p.latencies]),
        "cpu_s_per_spec": ratio(cpu_s, specs),
        "peak_rss_mb": rss_mb,
    }


def per_layer(t, jobs):
    """Per-layer metrics of one traced pass from its trace totals ``t``."""
    g = t.get
    run_s = g("machine.run.s", 0.0)
    m = {f"{layer}.self_s": g("layer." + layer, 0.0) for layer in IN_RUN_LAYERS}
    m["bench.sampled_frac"] = ratio(sum(m.values()), run_s)
    m["sim.events"] = g("sim.events", 0)
    m["sim.ns_per_event"] = ratio(run_s * 1e9, m["sim.events"])
    m.update({name: g(name, 0) for name in COUNTS})
    m["core.runtime.prefetch_enqueued_ratio"] = ratio(
        g("runtime.prefetch_enqueued", 0), g("runtime.prefetch_hints", 0))
    m["core.runtime.release_issued_ratio"] = ratio(
        g("runtime.release_pages_issued", 0), g("runtime.release_pages_hinted", 0))
    bulk = g("fastlane.bulk_pages", 0)
    m["vm.fastlane.bulk_hit_rate"] = ratio(bulk, bulk + g("fastlane.slow_pages", 0))
    m["machine.build_s"] = g("machine.build.s", 0.0)
    m["machine.run_s"] = run_s
    m["machine.result_s"] = g("machine.result.s", 0.0)
    hits = g("machine.template_hits", 0)
    m["machine.template_hit_rate"] = ratio(hits, hits + g("machine.template_misses", 0))
    m["runner.spec_key_s"] = g("runner.spec_key.s", 0.0)
    m["runner.cache_load_s"] = g("runner.cache_load.s", 0.0)
    m["runner.cache_store_s"] = g("runner.cache_store.s", 0.0)
    m["runner.cache_hit_ratio"] = ratio(g("runner.cache_hits", 0), g("runner.cache_load.calls", 0))
    m["runner.cache_bytes"] = g("runner.cache_bytes", 0)
    m["serialize.s"] = g("serialize.s", 0.0)
    m["wire.encode_s"] = g("wire.encode.s", 0.0)
    m["wire.decode_s"] = g("wire.decode.s", 0.0)
    m["wire.bytes"] = g("wire.bytes", 0)
    dispatches = g("pool.dispatches", 0)
    m["pool.run_s"] = g("pool.run.s", 0.0)
    m["pool.dispatches"] = dispatches
    m["pool.specs_per_dispatch"] = ratio(g("pool.specs_dispatched", 0), dispatches)
    m["pool.worker_reuse_rate"] = ratio(g("pool.warm_dispatches", 0), dispatches)
    snap_hits = g("pool.snapshot_hits", 0)
    m["pool.snapshot_hit_rate"] = ratio(snap_hits, snap_hits + g("pool.snapshot_misses", 0))
    m["pool.crashes"] = g("pool.crashes", 0)
    m["pool.worker_busy_frac"] = ratio(g("pool.worker_busy.s", 0.0), g("pool.worker_life_s", 0.0))
    m["sweep.journal_append_s"] = g("sweep.journal_append.s", 0.0)
    m["sweep.journal_lines"] = g("sweep.journal_append.calls", 0)
    m["sweep.shard_spawns"] = g("sweep.worker_spawns", 0)
    m["sweep.worker_busy_frac"] = ratio(
        g("sweep.worker_busy.s", 0.0), g("sweep.worker_life_s", 0.0))
    m["sweep.status_s"] = g("sweep.status_s", 0.0)
    m["scenarios.compile_s"] = g("scenarios.compile.s", 0.0)
    m["service.submit_s"] = g("client.submit_s", 0.0)
    m["service.poll_s"] = g("client.poll_s", 0.0)
    m["service.fetch_s"] = g("client.fetch_s", 0.0)
    m["service.polls_per_job"] = ratio(g("client.polls", 0), jobs)
    m["service.queue_wait_s"] = g("service.queue_wait_s", 0.0)
    m["service.exec_s"] = g("service.exec_s", 0.0)
    m["service.journal_s"] = g("service.journal.s", 0.0)
    m["service.cache_hits"] = g("client.cache_hits", 0)
    m["service.dedup_waits"] = g("client.dedup_waits", 0)
    m["service.executed"] = g("client.executed", 0)
    return m


def measure(workload, seconds, trace):
    """Set up, measure, check; returns (metrics, samples, attempted, failed)."""
    ctx = workload.ctx
    setups = []
    for _ in range(SETUP_REPEATS):
        started = time.perf_counter()
        workload.setup()
        setups.append(time.perf_counter() - started)
    workload.prepare()
    varying = []
    if not trace:
        cpu_before, _rss = workload.usage()
        passes = window(workload, seconds, 0)
        cpu_after, rss = workload.usage()
        metrics = end_to_end(passes, setups, cpu_after - cpu_before, rss)
        latencies = [x for p in passes for x in p.latencies]
        traced = []
    else:
        passes = window(workload, seconds / 2, 0)
        trace_root = ctx.work / "trace"
        workload.begin_traced(trace_root)
        traced = window(workload, seconds / 2, len(passes), trace_root)
        rows = [per_layer(p.layers, p.attempted) for p in traced]
        metrics = {name: median([row[name] for row in rows]) for name in rows[0]}
        # Simulated counts of a pass are exact: any spread is a defect.
        varying = [n for n in COUNTS + ("sim.events",) if len({row[n] for row in rows}) > 1]
        metrics["cli.import_s"] = median([ctx.import_seconds() for _ in range(IMPORT_REPEATS)])
        metrics["bench.trace_overhead_frac"] = (
            median([p.wall for p in traced]) / median([p.wall for p in passes]) - 1.0
        )
        latencies = [x for p in passes for x in p.latencies]
        metrics["latency_p90_s"] = p90(latencies)
    final_attempted, final_failed = workload.finish()
    every = passes + traced
    attempted = sum(p.attempted for p in every) + final_attempted
    failed = sum(p.failed for p in every) + final_failed
    samples = {
        "counts_varying": varying,
        "passes": len(passes),
        "pass_walls": [round(p.wall, 4) for p in passes],
        "traced_pass_walls": [round(p.wall, 4) for p in traced],
        "traced_passes": len(traced),
        "latencies": len(latencies),
        "setups": len(setups),
        "attempted": attempted,
    }
    if varying:
        workload.fail(f"simulated counts differ between passes: {', '.join(varying)}")
        failed += 1
    metrics["error_rate"] = ratio(failed, attempted)
    if not trace and len(latencies) >= P90_MIN_SAMPLES:
        metrics["latency_p90_s"] = p90(latencies)
    return metrics, samples, attempted, failed


def commit(root):
    try:
        out = subprocess.run(
            ["git", "-C", str(root), "rev-parse", "HEAD"],
            capture_output=True, text=True, timeout=10,
        )
    except (OSError, subprocess.SubprocessError):
        return None
    return out.stdout.strip() or None


def sample_count(name, samples):
    """How many measurements a reported value summarises."""
    if name == "setup_s":
        return samples["setups"]
    if name.startswith("latency_"):
        return samples["latencies"]
    if name == "cli.import_s":
        return IMPORT_REPEATS
    if name == "error_rate":
        return samples["attempted"]
    return samples["traced_passes"] or samples["passes"]


def report(name, declared, metrics, samples, meta):
    """Human-readable lines; the JSON result line follows them."""
    print(f"# meta {json.dumps(meta, sort_keys=True)}")
    print(f"# samples {json.dumps(samples, sort_keys=True)}")
    if name == "served_jobs":
        print(f"# served: poll interval {POLL_S} s, {CLIENTS} closed-loop client threads")
    rows = [(m["name"], m["unit"]) for m in declared]
    rows += [(extra, "") for extra in ("error_rate", "latency_p90_s")
             if extra in metrics and all(m["name"] != extra for m in declared)]
    width = max(len(name) for name, _unit in rows)
    for name, unit in rows:
        count = sample_count(name, samples)
        print(f"{name:<{width}}  {metrics[name]:>14.6g} {unit:<6} n={count}")
    if "latency_p90_s" not in metrics:
        print(f"latency_p90_s: not reported ({samples['latencies']} < "
              f"{P90_MIN_SAMPLES} latency samples)")


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    root = Path.cwd()
    try:
        if not (root / "src" / "repro" / "__init__.py").is_file():
            raise BenchError(f"no program to measure: {root / 'src' / 'repro'} is missing")
        declared_all = json.loads((root / "BENCHMARK.json").read_text(encoding="utf-8"))
        pins = inputs.load_pins(root)
    except (OSError, ValueError, BenchError, inputs.PinError) as exc:
        print(f"perfbench: error: {exc}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(root / "src"))
    declared = declared_all["per_layer" if args.trace else "end_to_end"]
    ctx = Context(root, args.seed)
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    loadavg_before = os.getloadavg()
    workload = WORKLOADS[args.workload](ctx, pins)
    try:
        ctx.work.mkdir(parents=True, exist_ok=True)
        metrics, samples, attempted, failed = measure(workload, args.seconds, args.trace)
        from repro.experiments.runner import code_version

        code = code_version()
    except BenchError as exc:
        print(f"perfbench: error: {exc}", file=sys.stderr)
        return 1
    finally:
        workload.close()
        shutil.rmtree(ctx.work, ignore_errors=True)
        try:
            ctx.work.parent.rmdir()
        except OSError:
            pass
    meta = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "nproc": os.cpu_count(),
        "loadavg_before": loadavg_before,
        "loadavg_after": os.getloadavg(),
        "commit": commit(root),
        "code_version": code,
        "python": sys.version.split()[0],
    }
    report(args.workload, declared, metrics, samples, meta)
    for problem in workload.problems:
        print(f"# check failed: {problem}")
    result = {
        "correct": failed == 0 and not workload.problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            metric["name"]: {"value": metrics[metric["name"]], "unit": metric["unit"]}
            for metric in declared
        },
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
