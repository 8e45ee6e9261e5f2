"""The kernel façade: wires the VM, swap, daemons, and policy modules.

:class:`Kernel` is the single object experiments construct; it owns the
simulated machine.  :class:`KernelProcess` is the handle a workload driver
uses: it couples an address space with a :class:`~repro.sim.task.SimTask`
and provides the batched touch interface that keeps resident accesses (the
overwhelmingly common case) off the event queue.
"""

from __future__ import annotations

from typing import Optional

from repro.config import SimScale
from repro.disk.swap import StripedSwap
from repro.kernel.paging_directed import PagingDirectedPm
from repro.kernel.policy_module import PolicyRegistry
from repro.sim.engine import Engine
from repro.sim.task import SimTask
from repro.vm import fastlane
from repro.vm.frames import F_DIRTY, F_IN_TRANSIT, F_REFERENCED, F_SW_VALID
from repro.vm.system import VmSystem

__all__ = ["Kernel", "KernelProcess"]


class KernelProcess:
    """A simulated process: address space + execution context.

    Touch protocol (performance-critical):

    - ``touch(vpn, write)`` returns ``None`` on a resident hit, after
      accumulating the per-touch cost into a pending user-time batch;
    - otherwise it returns a generator the caller must ``yield from`` —
      the fault path, which first flushes the pending batch so simulated
      time stays causally ordered.

    Callers should also periodically ``yield from flush_if_due()`` so that
    long stretches of resident compute become visible to the daemons.
    """

    def __init__(self, kernel: "Kernel", name: str) -> None:
        self.kernel = kernel
        self.engine = kernel.engine
        self.name = name
        self.aspace = kernel.vm.create_address_space(name)
        self.task = SimTask(kernel.engine, name)
        self.pending_user = 0.0
        self._quantum = kernel.scale.time_quantum_s
        # Hot-path bindings: touch() runs once per page touch, so the
        # kernel.vm / kernel.scale.machine attribute chains are hoisted here.
        self._touch_fast = kernel.vm.touch_fast
        self._resident_touch_s = kernel.scale.machine.resident_touch_s

    # -- time batching ---------------------------------------------------
    def charge(self, seconds: float) -> None:
        """Accumulate user compute time without touching the event queue."""
        self.pending_user += seconds

    def flush(self):
        """Process generator: emit the pending user-time batch."""
        pending = self.pending_user
        if pending > 0:
            self.pending_user = 0.0
            yield self.engine.timeout(pending)
            self.task.buckets.user += pending

    def flush_if_due(self):
        if self.pending_user >= self._quantum:
            yield from self.flush()

    # -- memory access ------------------------------------------------------
    def touch(self, vpn: int, write: bool = False):
        """Fast-path touch; returns None on hit, else the fault generator."""
        if self._touch_fast(self.aspace, vpn, write):
            self.pending_user += self._resident_touch_s
            return None
        return self._fault(vpn, write)

    def _fault(self, vpn: int, write: bool):
        # flush() inlined: the batch is almost always non-empty here, and
        # the fault path runs often enough that the extra generator frame
        # (plus task.user's) showed up in profiles.
        pending = self.pending_user
        if pending > 0:
            self.pending_user = 0.0
            yield self.engine.timeout(pending)
            self.task.buckets.user += pending
        kind = yield from self.kernel.vm.fault(self.task, self.aspace, vpn, write)
        return kind

    def run_touches(self, start: int, count: int, write: bool, secs_per_page: float):
        """Process generator: execute one ``('T', start, count, write, s)``
        run-length op — ``count`` sequential full-page touches, each charged
        ``s`` of compute.

        Semantically identical to the historical per-page loop (charge,
        flush-if-due, touch, flush-if-due per page; the fault path on a
        miss), and byte-identical in simulated time: quantum flushes land
        on the same checkpoints with bit-identical accumulated values.  The
        difference is the cost model: with the bulk lane on, the resident
        stretches between flush boundaries and faults are classified in
        one pass (:meth:`VmSystem.touch_run`) and their compute charged as
        one accumulated sum, so a fully-resident window costs O(1) engine
        events and a handful of array ops.

        Lane selection is per-run via :func:`repro.vm.fastlane.lane_mode`:
        ``REPRO_FAST_LANE=0`` reproduces the per-page ``touch_fast`` loop,
        no NumPy means the pure-Python slice scan.
        """
        counters = fastlane.COUNTERS
        counters["runs"] += 1
        mode = fastlane.lane_mode()
        quantum = self._quantum
        r = self._resident_touch_s
        s = secs_per_page
        aspace = self.aspace
        task = self.task
        buckets = task.buckets
        timeout = self.engine.timeout
        vm_fault = self.kernel.vm.fault
        vpn = start
        end = start + count
        pending = self.pending_user
        if (
            mode == fastlane.LANE_NUMPY
            and count >= fastlane.NUMPY_MIN_RUN
            and fastlane.load_numpy() is not None
        ):
            touch_run = self.kernel.vm.touch_run
            touch_fast = self._touch_fast
            charge_plan = fastlane.charge_plan
            while vpn < end:
                limit = end - vpn
                counters["windows"] += 1
                # Flush plan for the window assuming every page hits: cum[k]
                # is the pending value after the k-th add (bit-identical to
                # the sequential adds), m the first add whose checkpoint
                # reaches the quantum.
                cum, m = charge_plan(pending, s, r, limit, quantum)
                if m >= 2 * limit:
                    window = limit
                    crossing = 0
                else:
                    page, odd = divmod(m, 2)
                    if odd:
                        # Crossing at the post-touch checkpoint of `page`:
                        # that page is touched before the flush.
                        window = page + 1
                        crossing = 2
                    else:
                        # Crossing right after `page`'s compute charge, before
                        # its touch: the touch happens after the flush.
                        window = page
                        crossing = 1
                hits = touch_run(aspace, vpn, window, write) if window else 0
                counters["bulk_pages"] += hits
                if hits < window:
                    # A page needs the slow path before any flush checkpoint
                    # fires.  Its compute charge lands first (and cannot
                    # cross the quantum: the plan says the first crossing is
                    # at or after `window`), then the fault flushes.
                    counters["slow_pages"] += 1
                    # _fault inlined (flush, then the kernel fault path).
                    p = float(cum[2 * hits]) + s
                    self.pending_user = 0.0
                    if p > 0:
                        yield timeout(p)
                        buckets.user += p
                    yield from vm_fault(task, aspace, vpn + hits, write)
                    pending = 0.0
                    vpn += hits + 1
                    continue
                if crossing == 0:
                    pending = float(cum[2 * limit])
                    vpn = end
                    break
                # flush() inlined: the checkpoint value crossed the quantum,
                # which is positive, so the batch is always non-empty.
                p = float(cum[m + 1])
                self.pending_user = 0.0
                yield timeout(p)
                buckets.user += p
                pending = 0.0
                vpn += window
                if crossing == 1:
                    # Touch the charged-but-untouched page now, after the
                    # flush — the world may have moved while we yielded.
                    if touch_fast(aspace, vpn, write):
                        counters["bulk_pages"] += 1
                        pending += r
                        if pending >= quantum:
                            self.pending_user = 0.0
                            yield timeout(pending)
                            buckets.user += pending
                            pending = 0.0
                    else:
                        counters["slow_pages"] += 1
                        self.pending_user = 0.0
                        if pending > 0:
                            yield timeout(pending)
                            buckets.user += pending
                        yield from vm_fault(task, aspace, vpn, write)
                        pending = 0.0
                    vpn += 1
            self.pending_user = pending
            return
        if mode != fastlane.LANE_OFF:
            # Pure lane: the same per-page accounting with the hit test
            # inlined to one page-table probe and one mask compare.
            pt = aspace.pt
            flags = self.kernel.vm._flags
            mask = F_SW_VALID | F_IN_TRANSIT
            bits = (F_REFERENCED | F_DIRTY) if write else F_REFERENCED
            npt = len(pt)
            bulk = 0
            while vpn < end:
                pending += s
                if pending >= quantum:
                    self.pending_user = 0.0
                    yield timeout(pending)
                    buckets.user += pending
                    pending = 0.0
                index = pt[vpn] if vpn < npt else -1
                if index >= 0 and flags[index] & mask == F_SW_VALID:
                    flags[index] |= bits
                    bulk += 1
                    pending += r
                    if pending >= quantum:
                        self.pending_user = 0.0
                        yield timeout(pending)
                        buckets.user += pending
                        pending = 0.0
                else:
                    counters["slow_pages"] += 1
                    self.pending_user = 0.0
                    if pending > 0:
                        yield timeout(pending)
                        buckets.user += pending
                    yield from vm_fault(task, aspace, vpn, write)
                    pending = 0.0
                    npt = len(pt)
                vpn += 1
            counters["bulk_pages"] += bulk
            self.pending_user = pending
            return
        # Lane off: the historical per-page touch_fast loop, verbatim.
        touch_fast = self._touch_fast
        while vpn < end:
            pending += s
            if pending >= quantum:
                self.pending_user = pending
                yield from self.flush()
                pending = 0.0
            if touch_fast(aspace, vpn, write):
                pending += r
                if pending >= quantum:
                    self.pending_user = pending
                    yield from self.flush()
                    pending = 0.0
            else:
                self.pending_user = pending
                yield from self._fault(vpn, write)
                pending = self.pending_user
            vpn += 1
        self.pending_user = pending

    def touch_now(self, vpn: int, write: bool = False):
        """Process generator: touch unconditionally (used by simple tasks
        like the interactive toucher, where batching doesn't matter)."""
        fault = self.touch(vpn, write)
        if fault is not None:
            kind = yield from fault
            return kind
        return None

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"KernelProcess({self.name})"


class Kernel:
    """The simulated machine: VM + swap + daemons + policy modules."""

    def __init__(
        self, engine: Engine, scale: SimScale, obs=None, faults=None, policy=None
    ) -> None:
        self.engine = engine
        self.scale = scale
        self.obs = obs
        # Fault injector (:class:`repro.faults.FaultInjector`), or None for
        # the ordinary fault-free machine.
        self.faults = faults
        if policy is None:
            # Imported lazily: repro.policies imports this module's siblings.
            from repro.policies import DEFAULT_POLICY, build_policy

            policy = build_policy(DEFAULT_POLICY)
        # The memory-policy triple (:class:`repro.policies.MemoryPolicy`)
        # decides what daemons exist and what PM each process gets.
        self.policy = policy
        self.swap = StripedSwap(engine, scale.disk, faults=faults)
        self.swap.obs = obs
        self.vm = VmSystem(engine, scale, self.swap)
        self.vm.obs = obs
        policy.configure(self)
        # Construction order matters for determinism: each daemon owns a
        # SimTask whose creation consumes engine sequence numbers, and the
        # golden digests pin the releaser-before-daemon order.
        self.releaser = policy.build_releaser(self)
        self.paging_daemon = policy.build_paging_daemon(self)
        self.vm.releaser = self.releaser
        self.vm.paging_daemon = self.paging_daemon
        self.registry = PolicyRegistry()
        self._started = False

    @classmethod
    def boot(
        cls, engine: Engine, scale: SimScale, obs=None, faults=None, policy=None
    ) -> "Kernel":
        """Construct and start the system daemons."""
        kernel = cls(engine, scale, obs=obs, faults=faults, policy=policy)
        kernel.start()
        return kernel

    def start(self) -> None:
        if not self._started:
            if self.paging_daemon is not None:
                self.paging_daemon.start()
            if self.releaser is not None:
                self.releaser.start()
            self._started = True

    # -- processes ------------------------------------------------------------
    def create_process(self, name: str) -> KernelProcess:
        return KernelProcess(self, name)

    def attach_policy(
        self, process: KernelProcess, mapped_range: Optional[range] = None
    ) -> PagingDirectedPm:
        """Attach the kernel's configured memory policy's PM to a process."""
        return self.policy.attach_process(self, process, mapped_range)

    def attach_paging_directed(
        self, process: KernelProcess, mapped_range: Optional[range] = None
    ) -> PagingDirectedPm:
        """Create a PagingDirected PM over the given page range (default:
        everything the process has mapped so far).

        This always attaches the paper's PM regardless of the kernel's
        configured policy — unit tests use it to poke the PagingDirected
        syscalls directly; experiment plumbing goes through
        :meth:`attach_policy`.
        """
        if mapped_range is None:
            mapped_range = range(0, process.aspace.mapped_pages)
        pm = PagingDirectedPm(self.vm, process.aspace, mapped_range)
        self.registry.attach(pm)
        return pm

    # -- reporting ------------------------------------------------------------
    @property
    def free_pages(self) -> int:
        return self.vm.freelist.free_count
