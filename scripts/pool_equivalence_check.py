#!/usr/bin/env python
"""CI check: the warm execution pool adds no behavior, only speed.

Three phases, all under a dispatcher peak-RSS budget:

1. **Grid parity** — a real experiment grid runs serially (``jobs=1``,
   the reference) and through the warm pool.  Every result must
   serialize byte-identically.
2. **Sweep scale** — a 1k-spec synthetic sweep (successes *and*
   failures) runs inline, then on the pool with batched dispatch
   (``jobs=4, batch_size=8``); the merged digests must match.
3. **Crash chaos** — the same pooled sweep with workers killed
   mid-batch (``SweepChaos.crash_keys``) must converge to the same
   digest: only the blamed spec is retried, batchmates are requeued at
   the same attempt.

Exits non-zero with a diagnostic on any divergence.  Run from the repo
root with ``PYTHONPATH=src``.
"""

import os
import resource
import sys
import tempfile
from pathlib import Path

RSS_BUDGET_MB = 512
SWEEP_SPECS = 1000
FAIL_EVERY = 137


def fail(message: str) -> None:
    print(f"pool-equivalence-check: FAIL: {message}", file=sys.stderr)
    sys.exit(1)


def check_rss(phase: str) -> None:
    peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    print(f"{phase}: dispatcher peak RSS {peak_mb:.0f} MB")
    if peak_mb > RSS_BUDGET_MB:
        fail(
            f"{phase}: dispatcher peaked at {peak_mb:.0f} MB "
            f"(budget {RSS_BUDGET_MB} MB)"
        )


def grid_parity() -> None:
    from repro.bench import _grid_wide, serialize_result
    from repro.experiments import pool as pool_mod
    from repro.experiments.runner import run_specs

    specs = _grid_wide()[:12]

    serial = [
        serialize_result(r) for r in run_specs(specs, jobs=1)
    ]

    pooled = [
        serialize_result(r) for r in run_specs(specs, jobs=4)
    ]
    pool_mod.shutdown_shared_pool()

    for index, (a, b) in enumerate(zip(serial, pooled)):
        if a != b:
            fail(f"grid parity: pooled result {index} diverged from serial")
    print(f"grid parity: {len(specs)} specs byte-identical across "
          "serial / warm pool")
    check_rss("grid parity")


def sweep_digest(root: Path, name: str, options) -> str:
    from repro.experiments.sweep import run_sweep, synthetic_specs

    report = run_sweep(
        synthetic_specs(SWEEP_SPECS, fail_every=FAIL_EVERY),
        root / name,
        options=options,
    )
    counts = report.counts()
    if counts["total"] != SWEEP_SPECS:
        fail(f"{name}: sweep miscounted: {counts}")
    print(f"{name}: {counts} digest={report.digest[:16]}…")
    return report.digest


def sweep_scale(root: Path) -> str:
    from repro.experiments.sweep import SweepOptions

    inline = sweep_digest(
        root, "inline", SweepOptions(fsync_journal=False)
    )
    sharded = sweep_digest(
        root,
        "sharded",
        SweepOptions(jobs=4, batch_size=8, heartbeat_s=0.1, fsync_journal=False),
    )
    if sharded != inline:
        fail(
            f"1k-spec pooled digest diverged from inline: "
            f"{sharded} != {inline}"
        )
    check_rss("sweep scale")
    return inline


def sweep_chaos(root: Path, reference: str) -> None:
    from repro.experiments.sweep import (
        SweepChaos,
        SweepOptions,
        sweep_spec_key,
        synthetic_specs,
    )

    specs = synthetic_specs(SWEEP_SPECS, fail_every=FAIL_EVERY)
    # Kill the worker on a handful of spread-out specs; max_attempt=1
    # models an environmental flake, so the requeued attempt succeeds
    # and the digest must not notice the crashes.
    crash_keys = tuple(sweep_spec_key(specs[i]) for i in range(50, 1000, 200))
    chaos = SweepChaos(crash_keys=crash_keys, max_attempt=1)
    digest = sweep_digest(
        root,
        "chaos",
        SweepOptions(
            jobs=4,
            batch_size=8,
            heartbeat_s=0.1,
            retries=1,
            fsync_journal=False,
            chaos=chaos,
        ),
    )
    if digest != reference:
        fail(
            f"crash-chaos pooled digest diverged from inline: "
            f"{digest} != {reference}"
        )
    check_rss("sweep chaos")


def main() -> int:
    os.environ.setdefault("PYTHONPATH", "src")
    grid_parity()
    with tempfile.TemporaryDirectory(prefix="pool-equivalence-") as tmp:
        root = Path(tmp)
        reference = sweep_scale(root)
        sweep_chaos(root, reference)
    print(
        "pool-equivalence-check: OK (warm pool and serial runs are "
        "byte-identical; batched + crashed sweeps merge to the inline "
        "digest)"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
