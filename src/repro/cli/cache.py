"""``repro cache``: inspect or prune a result cache directory."""

from __future__ import annotations

import argparse
import json

from repro.experiments.report import format_table
from repro.experiments.runner import cache_entries, prune_cache


def cmd_cache(args: argparse.Namespace) -> int:
    if args.action == "prune":
        removed = prune_cache(args.cache_dir)
        freed = sum(entry.size_bytes for entry in removed)
        for entry in removed:
            print(f"removed {entry.path.name}  [{entry.status}]")
        print(f"pruned {len(removed)} entries, {freed} bytes")
        return 0
    entries = cache_entries(args.cache_dir)
    if args.json:
        payload = {
            "cache_dir": str(args.cache_dir),
            "entries": [
                {
                    "name": entry.path.name,
                    "status": entry.status,
                    "size_bytes": entry.size_bytes,
                    "prunable": entry.prunable,
                }
                for entry in entries
            ],
        }
        print(json.dumps(payload, indent=2, sort_keys=True))
        return 0
    if not entries:
        print(f"cache at {args.cache_dir} is empty")
        return 0
    rows = [
        (entry.path.name, entry.status, entry.size_bytes) for entry in entries
    ]
    prunable = sum(1 for entry in entries if entry.prunable)
    print(
        format_table(
            ["entry", "status", "bytes"],
            rows,
            title=(
                f"result cache at {args.cache_dir}: {len(entries)} entries, "
                f"{prunable} prunable"
            ),
        )
    )
    return 0
