"""Deterministic fault injection across the simulated I/O stack.

The paper's central robustness claim is that compiler hints are *advisory*:
the OS must "perform reasonably even when the compiler's predictions are
wrong".  This module lets an experiment perturb every layer the claim
touches and observe the degradation:

- **disk faults** — latency spikes, permanently degraded spindles, transient
  I/O errors, and whole-spindle failures (a disk drops out of the
  :class:`~repro.disk.swap.StripedSwap` stripe at a scheduled time).  The
  kernel responds with capped exponential-backoff retries, a per-request
  timeout, and failover to the surviving spindles — prefetch parallelism
  degrades instead of crashing;
- **hint corruption** — dropped, spurious, and mistimed compiler
  prefetch/release hints injected at the run-time layer, which directly
  tests the "bad hints must not hurt" property.

Everything is declared up front as a frozen :class:`FaultPlan` on the
:class:`~repro.machine.ExperimentSpec`.  Injection decisions come from
:class:`random.Random` streams derived from ``(plan.seed, layer, instance)``
via SHA-256, so the same plan produces the same injected-fault schedule on
every run, independent of Python hash randomisation — fault experiments are
exactly as reproducible and cacheable as fault-free ones.

The zero-fault plan (:data:`EMPTY_PLAN`, the default) attaches no models
anywhere: every hook is an ``is not None`` check on a ``None`` attribute, so
default results are bit-identical to a build without this module.
"""

from __future__ import annotations

import hashlib
import random
from dataclasses import asdict, dataclass, field, is_dataclass, replace
from typing import Dict, List, Optional, Sequence, Tuple, get_args, get_origin, get_type_hints

from repro.jsontypes import PathError, expect, reject_unknown

__all__ = [
    "DiskFailure",
    "DiskFaultModel",
    "DiskFaultSpec",
    "DiskIOError",
    "EMPTY_PLAN",
    "FaultInjector",
    "FaultPlanError",
    "FaultPlan",
    "HintFaultModel",
    "HintFaultSpec",
    "seed_stream",
]


class FaultPlanError(PathError):
    """A :class:`FaultPlan` that cannot be realised (``path`` is the dotted
    path of the offending value inside the plan, e.g. ``disk.io_error_prob``)."""


class DiskIOError(Exception):
    """A disk request failed (injected transient error, or no spindle left).

    Raised into whoever awaits the request; the swap layer's retry loop is
    normally the only consumer.
    """

    def __init__(self, disk_id: int, block: int, is_write: bool, detail: str = "") -> None:
        self.disk_id = disk_id
        self.block = block
        self.is_write = is_write
        op = "write" if is_write else "read"
        message = f"disk {disk_id}: {op} of block {block} failed"
        if detail:
            message = f"{message} ({detail})"
        super().__init__(message)


def _derive_seed(*parts: object) -> int:
    """A stable 64-bit stream seed from ``(plan seed, layer, instance)``.

    SHA-256 rather than ``hash()`` so streams survive interpreter restarts
    and hash randomisation.
    """
    text = "/".join(str(part) for part in parts)
    digest = hashlib.sha256(text.encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "big")


def seed_stream(base_seed: int, count: int) -> Tuple[int, ...]:
    """``count`` distinct 64-bit seeds deterministically derived from one.

    Used by :mod:`repro.experiments.ensemble` to expand a single fault
    plan into a Monte Carlo ensemble; SHA-256 derivation means the stream
    is stable across interpreters and hash randomisation, like every
    other stream in this module.
    """
    if count < 0:
        raise FaultPlanError(f"seed_stream needs count >= 0, got {count}")
    return tuple(_derive_seed(base_seed, "ensemble", i) for i in range(count))


def _check_probability(name: str, value: float) -> None:
    if not 0.0 <= value <= 1.0:
        raise FaultPlanError(f"{name} must be a probability in [0, 1], got {value}")


@dataclass(frozen=True)
class DiskFailure:
    """One spindle dropping out of the stripe at a scheduled time."""

    disk: int
    at_s: float = 0.0

    def validate(self) -> None:
        if self.disk < 0:
            raise FaultPlanError(f"negative disk id: {self.disk}")
        if self.at_s < 0:
            raise FaultPlanError(f"negative failure time: {self.at_s}")


@dataclass(frozen=True)
class DiskFaultSpec:
    """Per-request disk perturbations plus spindle-level degradation.

    ``latency_spike_prob`` multiplies a request's service time by
    ``latency_spike_multiplier`` (a recovered-read / thermal-recalibration
    event).  ``io_error_prob`` fails the request outright after it was
    serviced — transient, so a retry may succeed.  ``degraded_disks`` always
    pay ``degraded_multiplier`` on every request; ``failures`` remove whole
    spindles from the stripe at a scheduled simulated time.
    """

    latency_spike_prob: float = 0.0
    latency_spike_multiplier: float = 4.0
    io_error_prob: float = 0.0
    degraded_disks: Tuple[int, ...] = ()
    degraded_multiplier: float = 3.0
    failures: Tuple[DiskFailure, ...] = ()

    @property
    def enabled(self) -> bool:
        return bool(
            self.latency_spike_prob > 0
            or self.io_error_prob > 0
            or self.degraded_disks
            or self.failures
        )

    def validate(self) -> None:
        _check_probability("latency_spike_prob", self.latency_spike_prob)
        _check_probability("io_error_prob", self.io_error_prob)
        if self.latency_spike_multiplier < 1.0:
            raise FaultPlanError(
                f"latency_spike_multiplier must be >= 1, got {self.latency_spike_multiplier}"
            )
        if self.degraded_multiplier < 1.0:
            raise FaultPlanError(
                f"degraded_multiplier must be >= 1, got {self.degraded_multiplier}"
            )
        for disk in self.degraded_disks:
            if disk < 0:
                raise FaultPlanError(f"negative degraded disk id: {disk}")
        for failure in self.failures:
            failure.validate()

    def max_disk_id(self) -> int:
        """Largest spindle this spec names (-1 when it names none)."""
        ids = [f.disk for f in self.failures] + list(self.degraded_disks)
        return max(ids) if ids else -1


@dataclass(frozen=True)
class HintFaultSpec:
    """Corruption of compiler hints at the run-time layer boundary.

    Per hint call: ``drop_prob`` discards the hint entirely (a release or
    prefetch the compiler should have emitted but didn't); ``spurious_prob``
    appends a uniformly random in-range page (a hint for data the program
    never touches — a spurious release throws away a live page);
    ``mistime_prob`` shifts every page by ``mistime_shift_pages`` (the hint
    fires against the wrong iteration's pages — a mistimed release frees
    pages still in use, a mistimed prefetch fetches too far ahead).
    """

    drop_prob: float = 0.0
    spurious_prob: float = 0.0
    mistime_prob: float = 0.0
    mistime_shift_pages: int = 8

    @property
    def enabled(self) -> bool:
        return bool(self.drop_prob > 0 or self.spurious_prob > 0 or self.mistime_prob > 0)

    def validate(self) -> None:
        _check_probability("drop_prob", self.drop_prob)
        _check_probability("spurious_prob", self.spurious_prob)
        _check_probability("mistime_prob", self.mistime_prob)
        if self.mistime_shift_pages == 0 and self.mistime_prob > 0:
            raise FaultPlanError("mistime_prob > 0 requires a non-zero shift")


@dataclass(frozen=True)
class FaultPlan:
    """The complete, declarative fault schedule for one experiment.

    Frozen and built from primitives, so — exactly like
    :class:`~repro.machine.ExperimentSpec` — its ``repr`` is a deterministic
    serialisation and fault experiments content-hash into the runner's
    result cache.
    """

    seed: int = 0
    disk: DiskFaultSpec = field(default_factory=DiskFaultSpec)
    hints: HintFaultSpec = field(default_factory=HintFaultSpec)

    @property
    def enabled(self) -> bool:
        return self.disk.enabled or self.hints.enabled

    def validate(self) -> None:
        self.disk.validate()
        self.hints.validate()

    def with_seed(self, seed: int) -> "FaultPlan":
        return replace(self, seed=seed)

    def fan_out(self, count: int, base_seed: Optional[int] = None) -> Tuple["FaultPlan", ...]:
        """``count`` copies of this plan on independent derived seed streams.

        The Monte Carlo primitive: member ``i`` gets seed
        ``derive(base, "ensemble", i)``, so ensemble members are mutually
        independent (no seed collisions, no overlap with the base stream)
        yet the whole ensemble is a pure function of ``base_seed`` —
        re-running it re-produces every member bit-for-bit, which keeps
        ensemble cells exactly as cacheable as single experiments.
        """
        if count < 1:
            raise FaultPlanError(f"fan_out needs count >= 1, got {count}")
        base = self.seed if base_seed is None else base_seed
        return tuple(self.with_seed(seed) for seed in seed_stream(base, count))

    # -- serialisation (CLI --faults) --------------------------------------
    def to_dict(self) -> Dict[str, object]:
        return asdict(self)

    @classmethod
    def from_dict(cls, data: Dict[str, object]) -> "FaultPlan":
        """Build a plan from the CLI's JSON shape, values kept as written.

        Unknown keys and mistyped values raise errors naming their path."""
        plan = _decode(cls, data, "")
        plan.validate()
        return plan


def _decode(cls, data: object, path: str):
    """One plan dataclass from JSON, each field checked against its type."""
    data = expect(data, dict, path, FaultPlanError)
    types = get_type_hints(cls)
    reject_unknown(data, tuple(types), path, FaultPlanError, "fault plan key(s)")
    values = {
        key: _decode_value(types[key], value, f"{path}.{key}" if path else key)
        for key, value in data.items()
    }
    if cls is DiskFailure and "disk" not in values:
        raise FaultPlanError("a failure needs a 'disk' id", path)
    return cls(**values)


def _decode_value(kind, value: object, path: str):
    if get_origin(kind) is tuple:
        item = get_args(kind)[0]
        values = expect(value, list, path, FaultPlanError)
        return tuple(_decode_value(item, v, f"{path}[{i}]") for i, v in enumerate(values))
    if kind is DiskFailure and not isinstance(value, dict):
        return DiskFailure(expect(value, int, path, FaultPlanError))  # a bare spindle id
    if is_dataclass(kind):
        return _decode(kind, value, path)
    return expect(value, kind, path, FaultPlanError)


#: The default plan: nothing is ever injected, and no fault machinery is
#: constructed — results are bit-identical to a fault-free build.
EMPTY_PLAN = FaultPlan()


class DiskFaultModel:
    """Per-spindle injection decisions, on an independent deterministic stream.

    Each :class:`~repro.disk.device.DiskDevice` owns one model seeded from
    ``(plan.seed, "disk", disk_id)``: injection on one spindle never
    perturbs another spindle's stream, so adding traffic to disk 3 cannot
    change what happens on disk 5.
    """

    __slots__ = ("spec", "disk_id", "degraded", "_rng", "obs")

    def __init__(self, spec: DiskFaultSpec, seed: int, disk_id: int, obs=None) -> None:
        self.spec = spec
        self.disk_id = disk_id
        self.degraded = disk_id in spec.degraded_disks
        self._rng = random.Random(_derive_seed(seed, "disk", disk_id))
        self.obs = obs

    def perturb(self, service_s: float) -> Tuple[float, bool]:
        """Decide this request's fate: ``(service time, failed?)``.

        A failed request still occupies the spindle for its (possibly
        spiked) service time — the platters spun either way.
        """
        spec = self.spec
        if self.degraded:
            service_s *= spec.degraded_multiplier
        if spec.latency_spike_prob > 0 and self._rng.random() < spec.latency_spike_prob:
            service_s *= spec.latency_spike_multiplier
            if self.obs is not None:
                self.obs.emit(
                    "fault.disk_latency",
                    {"disk": self.disk_id, "service_s": service_s},
                )
        failed = spec.io_error_prob > 0 and self._rng.random() < spec.io_error_prob
        if failed and self.obs is not None:
            self.obs.emit("fault.disk_error", {"disk": self.disk_id})
        return service_s, failed


class HintFaultModel:
    """Per-process hint corruption, on an independent deterministic stream.

    Corruption happens where real compiler bugs would surface: at the entry
    to :meth:`~repro.core.runtime.layer.RuntimeLayer.handle_prefetch` /
    ``handle_release``, *before* the layer's own filters — the filters and
    the kernel then have to cope, which is the property under test.
    Corrupted pages are clamped to the policy module's covered range so the
    injection exercises bad *policy*, not out-of-range syscalls.
    """

    __slots__ = ("spec", "name", "_rng", "obs")

    def __init__(self, spec: HintFaultSpec, seed: int, name: str, obs=None) -> None:
        self.spec = spec
        self.name = name
        self._rng = random.Random(_derive_seed(seed, "hints", name))
        self.obs = obs

    def _emit(self, op: str, mode: str, pages: int) -> None:
        if self.obs is not None:
            self.obs.emit(
                "fault.hint",
                {"process": self.name, "op": op, "mode": mode, "pages": pages},
            )

    def corrupt(
        self, op: str, vpns: Sequence[int], domain: range, stats
    ) -> Optional[Tuple[int, ...]]:
        """Corrupt one hint's page list.

        Returns ``None`` when the whole hint is dropped, else the (possibly
        perturbed) pages.  ``stats`` is the owning layer's
        :class:`~repro.core.runtime.layer.RuntimeStats`.
        """
        spec = self.spec
        rng = self._rng
        if spec.drop_prob > 0 and rng.random() < spec.drop_prob:
            stats.hints_dropped += 1
            self._emit(op, "drop", len(vpns))
            return None
        pages: List[int] = list(vpns)
        if spec.spurious_prob > 0 and rng.random() < spec.spurious_prob:
            pages.append(rng.randrange(domain.start, max(domain.start + 1, domain.stop)))
            stats.hints_spurious += 1
            self._emit(op, "spurious", 1)
        if pages and spec.mistime_prob > 0 and rng.random() < spec.mistime_prob:
            low, high = domain.start, max(domain.start, domain.stop - 1)
            pages = [
                min(high, max(low, vpn + spec.mistime_shift_pages)) for vpn in pages
            ]
            stats.hints_mistimed += 1
            self._emit(op, "mistime", len(pages))
        return tuple(pages)


class FaultInjector:
    """Realises one :class:`FaultPlan` for one machine: the model factory.

    Built by :class:`~repro.machine.Machine` only when the plan is enabled
    and threaded down through the kernel; layers whose slice of the plan is
    empty receive ``None`` and keep their zero-overhead fast path.
    """

    def __init__(self, plan: FaultPlan, obs=None) -> None:
        plan.validate()
        self.plan = plan
        self.obs = obs

    @property
    def disk_enabled(self) -> bool:
        return self.plan.disk.enabled

    @property
    def hints_enabled(self) -> bool:
        return self.plan.hints.enabled

    def disk_model(self, disk_id: int) -> Optional[DiskFaultModel]:
        if not self.disk_enabled:
            return None
        return DiskFaultModel(self.plan.disk, self.plan.seed, disk_id, obs=self.obs)

    def hint_model(self, name: str) -> Optional[HintFaultModel]:
        if not self.hints_enabled:
            return None
        return HintFaultModel(self.plan.hints, self.plan.seed, name, obs=self.obs)
