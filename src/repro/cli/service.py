"""The experiment server and its client: ``repro serve|submit|jobs|watch|fetch``."""

from __future__ import annotations

import argparse
import json
from pathlib import Path

from repro.cli.common import registry_from, scenario_document
from repro.experiments.report import format_table
from repro.service.client import ServiceClient, ServiceError


def _client_from(args: argparse.Namespace) -> ServiceClient:
    timeout = getattr(args, "http_timeout", None) or 300.0
    if getattr(args, "url", None):
        return ServiceClient(args.url, timeout=timeout)
    if getattr(args, "state_dir", None):
        return ServiceClient.discover(Path(args.state_dir), timeout=timeout)
    raise ServiceError("give --url or --state-dir to locate the server")


def cmd_serve(args: argparse.Namespace) -> int:
    from repro.service.server import serve

    serve(
        Path(args.state_dir),
        host=args.host,
        port=args.port,
        workers=args.workers,
        pool_workers=args.pool_workers,
        timeout_s=args.timeout,
        retries=args.retries,
        registry=registry_from(args),
    )
    return 0


def _watch_job(client: ServiceClient, job_id: str, as_json: bool) -> int:
    for event in client.stream_events(job_id):
        if as_json:
            print(json.dumps(event, sort_keys=True))
        else:
            kind = event.get("kind", "?")
            detail = {
                k: v for k, v in event.items() if k not in ("kind", "t", "job")
            }
            print(f"[{job_id}] {kind}  {json.dumps(detail, sort_keys=True)}")
    final = client.wait(job_id, timeout=30)
    if not as_json:
        print(
            f"[{job_id}] {final['status']}: executed={final['executed']} "
            f"cache_hits={final['cache_hits']} digest={final.get('digest', '')}"
        )
    return 0 if final["status"] == "done" else 1


def cmd_submit(args: argparse.Namespace) -> int:
    client = _client_from(args)
    if args.template is not None:
        snapshot = client.submit(template=args.template)
    else:
        if args.scenario is None:
            raise ServiceError("submit needs a scenario argument or --template")
        document, _name = scenario_document(args.scenario, registry_from(args))
        snapshot = client.submit(document=document)
    if args.json:
        print(json.dumps(snapshot, indent=2, sort_keys=True))
    else:
        print(
            f"job {snapshot['id']} submitted: '{snapshot['name']}', "
            f"{snapshot['total_specs']} spec(s)"
        )
    if args.watch:
        return _watch_job(client, snapshot["id"], args.json)
    return 0


def cmd_jobs(args: argparse.Namespace) -> int:
    client = _client_from(args)
    snapshots = client.jobs()
    if args.json:
        print(json.dumps({"jobs": snapshots}, indent=2, sort_keys=True))
        return 0
    rows = [
        (
            snap["id"],
            snap["name"],
            snap["status"],
            f"{snap['done_specs']}/{snap['total_specs']}",
            snap["executed"],
            snap["cache_hits"],
            snap.get("digest", "")[:12] or "-",
        )
        for snap in snapshots
    ]
    print(
        format_table(
            ["job", "scenario", "status", "specs", "executed", "cached", "digest"],
            rows,
            title=f"{len(snapshots)} job(s)",
        )
    )
    return 0


def cmd_watch(args: argparse.Namespace) -> int:
    return _watch_job(_client_from(args), args.job, args.json)


def cmd_fetch(args: argparse.Namespace) -> int:
    client = _client_from(args)
    if args.what == "result":
        payload = client.result(args.job)
        text = json.dumps(payload, indent=2, sort_keys=True)
    elif args.what == "serialized":
        text = client.serialized(args.job)
    elif args.what == "figure":
        text = client.figure(args.job)
    else:  # trace
        manifest = client.trace_manifest(args.job)
        if args.out is None:
            print(json.dumps({"traces": manifest}, indent=2))
            return 0
        out = Path(args.out)
        out.mkdir(parents=True, exist_ok=True)
        for name in manifest:
            target = out / name.replace("/", "_")
            target.write_bytes(client.trace(args.job, name))
            print(f"fetched {name} -> {target}")
        return 0
    if args.out is not None:
        Path(args.out).write_text(
            text if text.endswith("\n") else text + "\n", encoding="utf-8"
        )
        print(f"fetched {args.what} -> {args.out}")
    else:
        print(text, end="" if text.endswith("\n") else "\n")
    return 0
