"""``repro sweep run|resume|status`` and ``repro ensemble``."""

from __future__ import annotations

import argparse
import json
import sys

from repro.cli.common import load_json_argument, scale_from
from repro.core.runtime.policies import VERSIONS
from repro.experiments.ensemble import EnsembleSpec, format_ensemble_table, run_ensemble
from repro.experiments.harness import multiprogram_spec
from repro.experiments.report import format_table
from repro.experiments.sweep import (
    SweepAborted,
    SweepError,
    SweepOptions,
    collect_report,
    expand_grid,
    run_sweep,
    specs_from_meta,
    sweep_status,
    synthetic_specs,
)
from repro.scenarios import compile_faults
from repro.workloads import benchmark


def _sweep_options_from(args: argparse.Namespace) -> SweepOptions:
    return SweepOptions(
        jobs=args.jobs,
        timeout_s=args.timeout,
        retries=args.retries,
        backoff_base_s=args.backoff_base,
        heartbeat_s=args.heartbeat,
        hang_timeout_s=args.hang_timeout,
        max_failures=args.max_failures,
        batch_size=args.batch_size,
    )


def _print_sweep_report(report) -> int:
    counts = report.counts()
    print(
        f"sweep complete: {counts['ok']}/{counts['total']} ok, "
        f"{counts['failure']} failed, {counts['quarantined']} quarantined"
    )
    for outcome in report.failures:
        print(
            f"  - spec {outcome.index} [{outcome.status}/{outcome.kind}] "
            f"after {outcome.attempts} attempt(s): {outcome.message}",
            file=sys.stderr,
        )
    print(f"merged digest: {report.digest}")
    return 1 if report.failures else 0


def cmd_sweep_run(args: argparse.Namespace) -> int:
    if args.synthetic is not None:
        if args.synthetic < 1:
            raise SweepError(f"--synthetic needs a positive count, got {args.synthetic}")
        specs = synthetic_specs(
            args.synthetic,
            fail_every=args.synthetic_fail_every,
            sleep_s=args.synthetic_sleep,
        )
        describe = {
            "synthetic": {
                "count": args.synthetic,
                "fail_every": args.synthetic_fail_every,
                "sleep_s": args.synthetic_sleep,
            }
        }
    elif args.grid is not None:
        grid = load_json_argument(args.grid)
        specs = expand_grid(grid, default_scale=args.scale)
        describe = {"grid": {**grid, "scale": grid.get("scale", args.scale)}}
    else:
        raise SweepError("sweep run: give --grid or --synthetic")
    print(f"sweep: {len(specs)} specs -> {args.state_dir}")
    try:
        report = run_sweep(
            specs,
            args.state_dir,
            options=_sweep_options_from(args),
            resume=False,
            describe=describe,
        )
    except SweepAborted as exc:
        print(f"repro sweep: {exc}", file=sys.stderr)
        return 1
    return _print_sweep_report(report)


def cmd_sweep_resume(args: argparse.Namespace) -> int:
    specs = specs_from_meta(args.state_dir)
    print(f"sweep resume: {len(specs)} specs <- {args.state_dir}")
    try:
        report = run_sweep(
            specs,
            args.state_dir,
            options=_sweep_options_from(args),
            resume=True,
        )
    except SweepAborted as exc:
        print(f"repro sweep: {exc}", file=sys.stderr)
        return 1
    return _print_sweep_report(report)


def cmd_sweep_status(args: argparse.Namespace) -> int:
    if args.expect is not None and not args.digest:
        raise SweepError("sweep status: --expect needs --digest")
    info = sweep_status(args.state_dir)
    digest = None
    if args.digest:
        report = collect_report(specs_from_meta(args.state_dir), args.state_dir)
        digest = report.digest
    if args.json:
        payload = dict(info)
        payload["state_dir"] = str(payload["state_dir"])
        if digest is not None:
            payload["digest"] = digest
            payload["digest_partial"] = bool(info["pending"])
        print(json.dumps(payload, indent=2, sort_keys=True))
    else:
        rows = [
            ("total", info["total"]),
            ("done", info["done"]),
            ("pending", info["pending"]),
            ("ok", info["ok"]),
            ("failed", info["failure"]),
            ("quarantined", info["quarantined"]),
            ("attempts", info["attempts"]),
            ("aborted", "yes" if info["aborted"] else "no"),
        ]
        rows += [
            (f"ran on {worker}", count) for worker, count in info["by_shard"].items()
        ]
        pool = info.get("pool")
        if pool:
            rows += [
                ("pool workers", pool.get("workers", "-")),
                ("pool batch size", pool.get("batch_size", "-")),
                ("pool dispatches", pool.get("dispatches", "-")),
                (
                    "pool specs/dispatch",
                    f"{pool.get('specs_per_dispatch', 0.0):.2f}",
                ),
            ]
        print(
            format_table(
                ["field", "value"],
                rows,
                title=f"sweep checkpoint at {info['state_dir']}",
            )
        )
        if digest is not None:
            if info["pending"]:
                print(f"digest: (partial — {info['pending']} specs still pending)")
            print(f"merged digest: {digest}")
    if args.expect is not None and digest != args.expect:
        # The reproducibility gate: CI pins the expected merged digest and
        # any drift (different results, partial sweep) fails the build.
        print(
            f"repro sweep status: digest mismatch — expected {args.expect}, "
            f"got {digest}",
            file=sys.stderr,
        )
        return 1
    return 0


def cmd_ensemble(args: argparse.Namespace) -> int:
    scale = scale_from(args)
    spec = multiprogram_spec(
        scale,
        benchmark(args.benchmark),
        VERSIONS[args.version],
        sleep_time_s=args.sleep,
    )
    spec = spec.with_faults(compile_faults(load_json_argument(args.faults)))
    if args.policy is not None:
        spec = spec.with_policy(args.policy)
    ensemble = EnsembleSpec(
        base=spec, seeds=args.seeds, base_seed=args.fault_seed or 0
    )
    try:
        report = run_ensemble(
            ensemble,
            state_dir=args.state_dir,
            options=_sweep_options_from(args),
            resume=args.resume,
            resamples=args.resamples,
            alpha=args.alpha,
        )
    except SweepAborted as exc:
        print(f"repro ensemble: {exc}", file=sys.stderr)
        return 1
    print(
        f"{args.benchmark} version {args.version} at scale '{scale.name}': "
        f"{report.members_ok}/{args.seeds} fault seeds "
        f"(base seed {args.fault_seed or 0}, "
        f"{args.resamples} bootstrap resamples)"
    )
    print(format_ensemble_table(report, alpha=args.alpha))
    if report.failed_members:
        print(
            f"ensemble: {len(report.failed_members)} of {args.seeds} members "
            "failed and are excluded from the intervals:",
            file=sys.stderr,
        )
        for outcome in report.failed_members:
            print(
                f"  - member {outcome.index} [{outcome.kind}]: {outcome.message}",
                file=sys.stderr,
            )
        return 1
    return 0
