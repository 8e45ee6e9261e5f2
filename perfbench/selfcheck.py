"""Steadiness self-check and A/B comparison for the benchmark.

Run the benchmark several times per workload, each run a fresh process
with its own seed, and print each metric's run-to-run spread::

    python3 perfbench/selfcheck.py --seeds 5 --out runs.json
    python3 perfbench/selfcheck.py --workloads served_jobs --seeds 5 --trace 1

The spread is the distance between the first and third quartile of the
runs' values (``statistics.quantiles(values, n=4)``) as a share of their
median.  A spread above a tenth is flagged, and so is an end-to-end spread
above a third of the metric's bound in ``BENCHMARK.json``.

Measure two checkouts with this checkout's benchmark files, alternating
between them run by run so that drift in machine speed hits both alike,
then compare the two saved sets::

    python3 perfbench/selfcheck.py --seeds 10 --root ../parent --out base.json \
        --root . --out head.json
    python3 perfbench/selfcheck.py --compare base.json head.json

prints, per workload, each metric's median change and flags end-to-end
metrics that got worse by more than their bound.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent


def spread(values):
    """(median, interquartile distance / median)."""
    middle = statistics.median(values)
    if len(values) < 2:
        return middle, 0.0
    q1, _q2, q3 = statistics.quantiles(values, n=4)
    return middle, (q3 - q1) / middle if middle else 0.0


def run_once(root, workload, seed, seconds, trace):
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=str(root), capture_output=True, text=True, timeout=600,
    )
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise SystemExit(f"{workload} seed {seed}: exit {proc.returncode}\n{proc.stderr}")
    result = json.loads(lines[-1])
    result["seed"] = seed
    result["notes"] = [line for line in lines[:-1] if line.startswith("#")]
    return result


def collect(args):
    """Runs per root, per workload; roots alternate run by run."""
    sets = [{name: [] for name in args.workloads} for _ in args.root]
    for seed in args.seeds:
        for workload in args.workloads:
            for root, runs in zip(args.root, sets):
                result = run_once(root, workload, seed, args.seconds, args.trace)
                runs[workload].append(result)
                status = "ok" if result["correct"] else "INCORRECT"
                print(f"{root} {workload} seed {seed}: {status} "
                      f"({result['failed']}/{result['attempted']} failed)", flush=True)
    return sets


def print_spreads(runs, declared):
    bounds = {m["name"]: m.get("bound") for m in declared}
    for workload, results in runs.items():
        print(f"\n{workload} ({len(results)} runs)")
        for name in results[0]["metrics"]:
            values = [r["metrics"][name]["value"] for r in results]
            middle, share = spread(values)
            flags = []
            if share > 0.1:
                flags.append("spread > 0.1")
            bound = bounds.get(name)
            if bound and share > bound / 3:
                flags.append(f"spread > bound/3 ({bound / 3:.3f})")
            print(f"  {name:<38} median {middle:<12.6g} spread {share:7.4f}  "
                  f"{' '.join(flags)}")


def compare(base_path, head_path, declared):
    base = json.loads(Path(base_path).read_text())
    head = json.loads(Path(head_path).read_text())
    meta = {m["name"]: m for m in declared}
    for workload in base["runs"]:
        if workload not in head["runs"]:
            continue
        print(f"\n{workload}")
        names = base["runs"][workload][0]["metrics"]
        for name in names:
            a = statistics.median(r["metrics"][name]["value"] for r in base["runs"][workload])
            b = statistics.median(r["metrics"][name]["value"] for r in head["runs"][workload])
            change = (b - a) / a if a else 0.0
            flag = ""
            info = meta.get(name)
            if info and "bound" in info:
                worse = change if info["better"] == "lower" else -change
                flag = "WORSE BEYOND BOUND" if worse > info["bound"] else "within bound"
            print(f"  {name:<38} {a:<12.6g} -> {b:<12.6g} {change:+8.2%}  {flag}")


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads", default=None, help="comma-separated (default: all)")
    parser.add_argument("--seeds", type=int, default=5, help="runs per workload")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--root", type=Path, action="append",
                        help="checkout to measure (repeat once to alternate two)")
    parser.add_argument("--out", type=Path, action="append", default=[],
                        help="save the runs as JSON (one per --root)")
    parser.add_argument("--compare", nargs=2, metavar=("BASE", "HEAD"), default=None)
    args = parser.parse_args(argv)
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    declared = spec["per_layer" if args.trace else "end_to_end"]
    if args.compare:
        compare(*args.compare, spec["end_to_end"] + spec["per_layer"])
        return 0
    args.workloads = (
        args.workloads.split(",") if args.workloads else [w["name"] for w in spec["workloads"]]
    )
    args.seeds = list(range(1, args.seeds + 1))
    args.seconds = spec["run_seconds"]
    args.root = args.root or [Path.cwd()]
    if len(args.root) > 2 or (args.out and len(args.out) != len(args.root)):
        parser.error("give one or two --root, and one --out per --root")
    sets = collect(args)
    for out, runs in zip(args.out, sets):
        out.write_text(json.dumps({"trace": args.trace, "runs": runs}, indent=1))
    for root, runs in zip(args.root, sets):
        print(f"\n== {root}")
        print_spreads(runs, declared)
    return 0


if __name__ == "__main__":
    sys.exit(main())
