"""``repro trace record|replay|info|diff|import|verify``."""

from __future__ import annotations

import argparse
import json
from pathlib import Path

from repro.cli.common import print_process_table, scale_from, spec_from_argument
from repro.core.runtime.policies import VERSIONS
from repro.experiments.harness import multiprogram_spec
from repro.machine import (
    INTERACTIVE,
    ExperimentSpec,
    SpecError,
    WorkloadProcessSpec,
    run_experiment,
)
from repro.trace.analyze import (
    diff_traces,
    format_diff,
    format_info,
    trace_info,
    verify_against_code,
)
from repro.trace.format import read_header
from repro.trace.importer import import_text
from repro.trace.record import record_experiment
from repro.trace.workload import trace_process_spec
from repro.workloads import benchmark


def cmd_trace_record(args: argparse.Namespace) -> int:
    if args.spec is not None:
        spec = spec_from_argument(args.spec, args.scale)
    elif args.benchmark is not None:
        spec = multiprogram_spec(
            scale_from(args),
            benchmark(args.benchmark),
            VERSIONS[args.version],
            sleep_time_s=args.sleep,
        )
    else:
        raise SpecError("trace record: give --benchmark or --spec")
    result, paths = record_experiment(
        spec,
        args.out,
        processes=args.process or None,
        include_faults=args.include_faults,
    )
    for name in sorted(paths):
        path = paths[name]
        header = read_header(path)
        print(
            f"recorded {name} -> {path} "
            f"({Path(path).stat().st_size} bytes, "
            f"{header.workload}/{header.version} @ {header.scale})"
        )
    print(f"elapsed_s={result.elapsed_s:.3f} engine_steps={result.engine_steps}")
    return 0


def cmd_trace_replay(args: argparse.Namespace) -> int:
    processes = [trace_process_spec(path) for path in args.trace]
    if args.interactive:
        processes.append(
            WorkloadProcessSpec(workload=INTERACTIVE, sleep_time_s=args.sleep)
        )
    spec = ExperimentSpec(scale=scale_from(args), processes=tuple(processes))
    if args.record_to is not None:
        result, paths = record_experiment(spec, args.record_to)
        for name in sorted(paths):
            print(f"re-recorded {name} -> {paths[name]}")
    else:
        result = run_experiment(spec)
    print_process_table(result, "trace replay")
    return 0


def cmd_trace_info(args: argparse.Namespace) -> int:
    for index, path in enumerate(args.trace):
        if index:
            print()
        info = trace_info(path)
        if args.json:
            print(json.dumps(info, indent=2, sort_keys=True))
        else:
            print(format_info(info))
    return 0


def cmd_trace_diff(args: argparse.Namespace) -> int:
    diff = diff_traces(
        args.trace_a,
        args.trace_b,
        expand=args.expand,
        include_faults=args.include_faults,
    )
    print(format_diff(diff))
    return 0 if diff.equal else 1


def cmd_trace_import(args: argparse.Namespace) -> int:
    header, path, count = import_text(args.source, args.out, name=args.name)
    print(
        f"imported {args.source} -> {path} "
        f"({count} ops, {header.footprint_pages} pages, "
        f"version {header.version})"
    )
    return 0


def cmd_trace_verify(args: argparse.Namespace) -> int:
    status = 0
    for path in args.trace:
        summary = verify_against_code(path)
        if summary["equal"]:
            print(
                f"{path}: OK — {summary['recorded_ops']} recorded ops match "
                f"the current compiler ({summary['workload']}/"
                f"{summary['version']} @ {summary['scale']})"
            )
        else:
            status = 1
            mismatch = summary.get("first_mismatch")
            print(
                f"{path}: MISMATCH — recorded {summary['recorded_ops']} ops, "
                f"regenerated {summary['regenerated_ops']}"
            )
            if mismatch:
                print(
                    f"  first at index {mismatch['index']}: "
                    f"recorded {mismatch['recorded']} vs "
                    f"regenerated {mismatch['regenerated']}"
                )
    return status
