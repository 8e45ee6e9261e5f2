"""The paper's artifacts: ``repro list``, ``compile``, ``suite``, ``figure``
and ``table``."""

from __future__ import annotations

import argparse

from repro.cli import _FIGURES
from repro.cli.common import scale_from
from repro.core.compiler import compile_program
from repro.experiments.harness import run_version_suite
from repro.experiments.report import format_table
from repro.experiments.table3 import format_table3, run_table3
from repro.workloads import benchmark, table2_rows


def cmd_list(args: argparse.Namespace) -> int:
    scale = scale_from(args)
    rows = [
        (r["benchmark"], r["description"], r["data_set_mb"], r["analysis_hazard"])
        for r in table2_rows(scale)
    ]
    print(
        format_table(
            ["benchmark", "description", "MB", "hazard"],
            rows,
            title=f"Benchmarks at scale '{scale.name}' (the paper's Table 2)",
        )
    )
    return 0


def cmd_compile(args: argparse.Namespace) -> int:
    scale = scale_from(args)
    instance = benchmark(args.benchmark).build(scale)
    compiled = compile_program(instance.program, scale.compiler)
    for name, nest in compiled.nests.items():
        print(f"nest {name}:")
        for spec in nest.plan.prefetches:
            print(
                f"  prefetch {spec.target.ref!r}  "
                f"distance={spec.distance_pages} pages  tag={spec.tag}"
            )
        for spec in nest.plan.releases:
            extra = " (despite reuse)" if spec.despite_reuse else ""
            print(
                f"  release  {spec.target.ref!r}  priority={spec.priority}"
                f"  tag={spec.tag}{extra}"
            )
    return 0


def cmd_suite(args: argparse.Namespace) -> int:
    scale = scale_from(args)
    suite = run_version_suite(
        scale,
        benchmark(args.benchmark),
        args.versions,
        jobs=args.jobs,
        cache_dir=args.cache_dir,
        timeout_s=args.timeout,
        retries=args.retries,
    )
    base = suite.get("O")
    rows = []
    for version, run in suite.items():
        normalized = (
            run.app_buckets.total / base.app_buckets.total if base else float("nan")
        )
        rows.append(
            (
                version,
                round(run.elapsed_s, 3),
                round(normalized, 3),
                run.vm.daemon_pages_stolen,
                run.vm.releaser_pages_freed,
                round(run.mean_response() * 1e3, 3),
            )
        )
    print(
        format_table(
            [
                "ver",
                "elapsed_s",
                "normalized",
                "daemon_stole",
                "released",
                "interactive_ms",
            ],
            rows,
            title=f"{args.benchmark} at scale '{scale.name}'",
        )
    )
    return 0


def cmd_figure(args: argparse.Namespace) -> int:
    scale = scale_from(args)
    print(
        _FIGURES[args.number](
            scale,
            jobs=args.jobs,
            cache_dir=args.cache_dir,
            timeout_s=args.timeout,
            retries=args.retries,
        )
    )
    return 0


def cmd_table(args: argparse.Namespace) -> int:
    scale = scale_from(args)
    if args.number == "1":
        print(
            format_table(
                ["characteristic", "value"],
                list(scale.describe().items()),
                title="Table 1 — simulated platform",
            )
        )
    elif args.number == "2":
        return cmd_list(args)
    else:
        print(
            format_table3(
                run_table3(
                    scale,
                    jobs=args.jobs,
                    cache_dir=args.cache_dir,
                    timeout_s=args.timeout,
                    retries=args.retries,
                )
            )
        )
    return 0
