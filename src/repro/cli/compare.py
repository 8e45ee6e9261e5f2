"""``repro compare-policies``: one mix under each memory policy."""

from __future__ import annotations

import argparse
import json
import sys

from repro.cli.common import scale_from
from repro.core.runtime.policies import VERSIONS
from repro.experiments.compare import compare_policies, format_policy_table
from repro.experiments.harness import multiprogram_spec
from repro.policies import policy_names
from repro.workloads import benchmark


def cmd_compare_policies(args: argparse.Namespace) -> int:
    scale = scale_from(args)
    spec = multiprogram_spec(
        scale,
        benchmark(args.benchmark),
        VERSIONS[args.version],
        sleep_time_s=args.sleep,
    )
    policies = args.policy or list(policy_names())
    rows = compare_policies(
        spec,
        policies=policies,
        jobs=args.jobs,
        cache_dir=args.cache_dir,
        timeout_s=args.timeout,
        retries=args.retries,
    )
    failed = [row for row in rows if row.failed]
    if args.json:
        payload = {
            "benchmark": args.benchmark,
            "version": args.version,
            "scale": scale.name,
            "rows": [
                {**row.snapshot(), "failed": row.failed} for row in rows
            ],
        }
        print(json.dumps(payload, indent=2, sort_keys=True))
        return 1 if failed else 0
    print(
        f"{args.benchmark} version {args.version} at scale '{scale.name}' "
        "across memory policies:"
    )
    print(format_policy_table(rows))
    if failed:
        # A partial table must not masquerade as a complete comparison:
        # summarise what failed and exit non-zero.
        print(
            f"compare-policies: {len(failed)} of {len(rows)} policy cells "
            "failed:",
            file=sys.stderr,
        )
        for row in failed:
            print(f"  - {row}", file=sys.stderr)
        return 1
    return 0
