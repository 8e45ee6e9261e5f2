"""``repro bench``: time the simulator's hot paths."""

from __future__ import annotations

import argparse
import os
import sys
from pathlib import Path

from repro import bench
from repro.experiments.report import format_table


def cmd_bench(args: argparse.Namespace) -> int:
    known = bench.all_case_names()
    if args.all or not args.case:
        names = known
    else:
        names = list(dict.fromkeys(args.case))
    unknown = [name for name in names if name not in known]
    if unknown:
        print(
            f"unknown case(s) {', '.join(unknown)}; known: {', '.join(known)}",
            file=sys.stderr,
        )
        return 2
    baseline_cases = {}
    if os.path.exists(args.baseline):
        baseline_cases = bench.load_baseline(args.baseline)
    elif args.check:
        print(f"--check given but no baseline at {args.baseline}", file=sys.stderr)
        return 2
    rows = []
    records = []
    failures = []
    for name in names:
        record, profile_text = bench.run_case(
            name, repeats=args.repeats, profile=args.profile
        )
        records.append(record)
        ok, message = bench.compare_to_baseline(
            record,
            baseline_cases,
            tolerance=args.tolerance,
            min_speedup=args.min_speedup,
        )
        if not ok:
            failures.append(message)
        path = bench.write_record(record, args.out_dir)
        print(f"{message}  -> {path}")
        if profile_text:
            print(profile_text)
            # Keep a copy next to the records so CI can archive profiles.
            profile_path = Path(args.out_dir) / f"PROFILE_{name}.txt"
            profile_path.write_text(profile_text, encoding="utf-8")
            print(f"profile written: {profile_path}")
        meta = record.meta
        ops_per_s = meta.get("ops_per_s", 0.0)
        hit_rate = meta.get("bulk_hit_rate")
        pooled = "pool_workers" in meta
        rows.append(
            (
                record.name,
                f"{record.wall_s:.3f}",
                record.engine_steps,
                f"{record.events_per_s:,.0f}",
                "-" if not ops_per_s else f"{ops_per_s:,.0f}",
                "-"
                if not meta.get("bulk_runs")
                else f"{hit_rate:.1%}",
                f"{record.sim_s_per_wall_s:.2f}",
                f"{record.peak_rss_mb:.1f}",
                "-"
                if not pooled
                else f"{meta.get('pool_worker_reuse_rate', 0.0):.0%}",
                "-"
                if not pooled
                else f"{meta.get('pool_snapshot_hit_rate', 0.0):.0%}",
                "-"
                if not pooled
                else f"{meta.get('pool_specs_per_dispatch', 0.0):.1f}",
                "-"
                if record.speedup_vs_baseline is None
                else f"{record.speedup_vs_baseline:.2f}x",
            )
        )
    print(
        format_table(
            [
                "case",
                "wall s",
                "events",
                "events/s",
                "ops/s",
                "bulk hit",
                "sim s / wall s",
                "rss MB",
                "reuse",
                "snap",
                "specs/disp",
                "vs baseline",
            ],
            rows,
            title=f"repro bench (best of {args.repeats}, lane "
            f"{records[0].meta.get('lane', '?') if records else '?'})",
        )
    )
    if args.update_baseline:
        from repro.ioutil import atomic_write_json

        payload = {
            "note": (
                "committed wall-clock baselines for `repro bench --check`; "
                "rewrite with `repro bench --all --update-baseline` on a "
                "quiet machine"
            ),
            # Cases not rerun this invocation keep their old entries.
            "cases": {
                **baseline_cases,
                **{
                    record.name: {
                        "wall_s": record.wall_s,
                        "engine_steps": record.engine_steps,
                        "sim_s": record.sim_s,
                        "specs": record.specs,
                        "events_per_s": record.events_per_s,
                        "ops_per_s": record.meta.get("ops_per_s", 0.0),
                        "bulk_hit_rate": record.meta.get("bulk_hit_rate", 0.0),
                        "sim_s_per_wall_s": record.sim_s_per_wall_s,
                        "peak_rss_mb": record.peak_rss_mb,
                    }
                    for record in records
                },
            },
        }
        atomic_write_json(args.baseline, payload)
        print(f"baseline updated: {args.baseline}")
    if failures and args.check:
        for message in failures:
            print(message, file=sys.stderr)
        return 1
    return 0
