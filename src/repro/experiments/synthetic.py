"""Test seams for the execution stack: synthetic cells and worker chaos.

A :class:`SyntheticSpec` executes in microseconds, so a 10k-cell sweep
stresses the journal, the warm pool and the watchdog instead of the
simulator.  :class:`PoolChaos` injects worker deaths and hangs.  Both sit
below the pool and the sweep, so neither has to import the other to use
them.
"""

from __future__ import annotations

import hashlib
import time
from dataclasses import dataclass
from typing import List, Tuple

__all__ = [
    "EMPTY_POOL_CHAOS",
    "PoolChaos",
    "SyntheticResult",
    "SyntheticSpec",
    "run_synthetic",
    "synthetic_key",
    "synthetic_specs",
]


@dataclass(frozen=True)
class SyntheticSpec:
    """A no-op cell for exercising the orchestration itself at scale.

    Optionally sleeps ``sleep_s`` to model a slow cell, or fails
    deterministically with ``fail=True``.
    """

    index: int
    payload: str = "noop"
    sleep_s: float = 0.0
    fail: bool = False


@dataclass
class SyntheticResult:
    """What a :class:`SyntheticSpec` produces; cached like a real result."""

    key: str
    index: int
    value: int
    from_cache: bool = False


def synthetic_specs(
    count: int, fail_every: int = 0, sleep_s: float = 0.0
) -> List[SyntheticSpec]:
    """``count`` distinct no-op specs; every ``fail_every``-th one fails."""
    return [
        SyntheticSpec(
            index=i,
            sleep_s=sleep_s,
            fail=bool(fail_every) and (i + 1) % fail_every == 0,
        )
        for i in range(count)
    ]


def synthetic_key(spec: SyntheticSpec) -> str:
    """Content key of a synthetic cell (no code hash: it runs no physics)."""
    digest = hashlib.sha256()
    digest.update(b"synthetic/")
    digest.update(repr(spec).encode())
    return digest.hexdigest()


def run_synthetic(spec: SyntheticSpec) -> SyntheticResult:
    if spec.sleep_s > 0:
        time.sleep(spec.sleep_s)
    if spec.fail:
        raise RuntimeError(f"synthetic failure (spec {spec.index})")
    key = synthetic_key(spec)
    return SyntheticResult(key=key, index=spec.index, value=int(key[:8], 16))


@dataclass(frozen=True)
class PoolChaos:
    """Fault injection for pool workers, in the spirit of
    :mod:`repro.faults`: declarative, deterministic, zero machinery when
    empty.

    ``crash_keys`` makes a worker die (``os._exit``) when it picks up one
    of those items; ``hang_keys`` makes it wedge with its heartbeat thread
    silenced — the beyond-SIGALRM hang the pool's watchdog exists for.
    Injection applies only while the item's attempt number is
    ``<= max_attempt``, so ``max_attempt=1`` models an environmental flake
    (the requeue succeeds) and the default models a poison item (the
    requeue fails too).  Only workers honor it, never an inline run.
    """

    crash_keys: Tuple[str, ...] = ()
    hang_keys: Tuple[str, ...] = ()
    max_attempt: int = 10**9
    hang_s: float = 3600.0

    @property
    def enabled(self) -> bool:
        return bool(self.crash_keys or self.hang_keys)


EMPTY_POOL_CHAOS = PoolChaos()
