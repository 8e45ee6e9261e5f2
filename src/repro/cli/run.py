"""``repro run``, ``validate`` and ``scenarios``: one experiment in-process."""

from __future__ import annotations

import argparse
import json
from pathlib import Path

from repro.cli.common import (
    faults_from_args,
    print_process_table,
    registry_from,
    scale_from,
    scenario_document,
    spec_from_argument,
)
from repro.core.runtime.policies import VERSIONS
from repro.experiments.harness import multiprogram_spec, to_multiprogram
from repro.experiments.report import format_table
from repro.machine import run_experiment
from repro.obs import TraceRecorder
from repro.scenarios import compile_scenario
from repro.service.jobs import run_direct
from repro.workloads import benchmark


def _run_spec(args: argparse.Namespace) -> int:
    spec = spec_from_argument(args.spec, args.scale)
    if args.faults is not None:
        spec = spec.with_faults(faults_from_args(args))
    elif args.fault_seed is not None:
        spec = spec.with_faults(spec.faults.with_seed(args.fault_seed))
    if args.policy is not None:
        spec = spec.with_policy(args.policy)
    recorder = TraceRecorder() if args.trace else None
    result = run_experiment(spec, sinks=(recorder,) if recorder else ())
    print_process_table(result, "custom mix")
    if spec.faults.enabled:
        swap = result.swap
        print(
            f"faults: io_errors={swap['io_errors']} "
            f"io_timeouts={swap['io_timeouts']} io_retries={swap['io_retries']} "
            f"spindles_failed={swap['spindles_failed']} "
            f"online_disks={swap['online_disks']}"
        )
    if recorder is not None:
        print()
        print(recorder.format(last=args.trace_last))
    return 0


def _run_scenario(args: argparse.Namespace) -> int:
    registry = registry_from(args)
    document, name = scenario_document(args.scenario, registry)
    compiled = compile_scenario(document, registry=registry, name=name)
    outcomes, digest = run_direct(
        compiled,
        cache_dir=Path(args.cache_dir) if getattr(args, "cache_dir", None) else None,
    )
    failures = 0
    for index, outcome in enumerate(outcomes):
        if index:
            print()
        if getattr(outcome, "failed", False):
            failures += 1
            print(f"spec {index}: FAILED {outcome}")
        else:
            print_process_table(outcome, f"{compiled.name}[{index}]")
    if args.digest:
        print(f"scenario digest: {digest}")
    return 1 if failures else 0


def cmd_run(args: argparse.Namespace) -> int:
    if args.scenario is not None:
        return _run_scenario(args)
    if args.spec is not None:
        return _run_spec(args)
    if args.benchmark is None:
        raise SystemExit("repro run: give --benchmark, --spec, or --scenario")
    scale = scale_from(args)
    spec = multiprogram_spec(
        scale,
        benchmark(args.benchmark),
        VERSIONS[args.version],
        sleep_time_s=args.sleep,
    )
    plan = faults_from_args(args)
    if plan.enabled:
        spec = spec.with_faults(plan)
    if args.policy is not None:
        spec = spec.with_policy(args.policy)
    recorder = TraceRecorder() if args.trace else None
    experiment = run_experiment(spec, sinks=(recorder,) if recorder else ())
    result = to_multiprogram(experiment)
    buckets = result.app_buckets
    rows = [
        ("elapsed_s", round(result.elapsed_s, 3)),
        ("user_s", round(buckets.user, 3)),
        ("system_s", round(buckets.system, 3)),
        ("stall_memory_s", round(buckets.stall_memory, 3)),
        ("stall_io_s", round(buckets.stall_io, 3)),
        ("hard_faults", result.app_stats.hard_faults),
        ("soft_faults", result.app_stats.soft_faults),
        ("rescues", result.app_stats.rescues),
        ("daemon_runs", result.vm.daemon_runs),
        ("daemon_pages_stolen", result.vm.daemon_pages_stolen),
        ("pages_released", result.vm.releaser_pages_freed),
        ("interactive_response_ms", round(result.mean_response() * 1e3, 3)),
        (
            "interactive_hard_faults_per_sweep",
            round(result.mean_interactive_hard_faults(), 2),
        ),
    ]
    if plan.enabled:
        rows += [
            ("io_errors", result.swap["io_errors"]),
            ("io_timeouts", result.swap["io_timeouts"]),
            ("io_retries", result.swap["io_retries"]),
            ("spindles_failed", result.swap["spindles_failed"]),
            ("online_disks", result.swap["online_disks"]),
        ]
    print(
        format_table(
            ["metric", "value"],
            rows,
            title=(
                f"{args.benchmark} version {args.version} "
                f"at scale '{scale.name}'"
            ),
        )
    )
    if recorder is not None:
        print()
        print(recorder.format(last=args.trace_last))
    return 0


def cmd_validate(args: argparse.Namespace) -> int:
    registry = registry_from(args)
    for text in args.scenario:
        document, name = scenario_document(text, registry)
        compiled = compile_scenario(document, registry=registry, name=name)
        print(
            f"scenario '{compiled.name}': OK — {len(compiled.specs)} spec(s), "
            f"digest {compiled.digest}"
        )
    return 0


def cmd_scenarios(args: argparse.Namespace) -> int:
    registry = registry_from(args)
    entries = registry.entries()
    if args.json:
        print(json.dumps({"scenarios": entries}, indent=2, sort_keys=True))
        return 0
    rows = [
        (
            row["name"],
            row["origin"],
            row["extends"] or "-",
            row["description"][:60],
        )
        for row in entries
    ]
    print(
        format_table(
            ["name", "origin", "extends", "description"],
            rows,
            title=f"{len(entries)} registered scenario template(s)",
        )
    )
    return 0
