"""The warm execution pool: wire fidelity, reuse hygiene, crash containment.

Byte-identity is the bar throughout: anything the pool touches — codec,
worker reuse, env knobs, deadlines, crash requeues — must leave results
indistinguishable from the inline path.
"""

import signal
import time

import pytest

from repro.bench import serialize_result
from repro.experiments import pool as pool_mod
from repro.experiments import wire
from repro.experiments.pool import (
    EMPTY_POOL_CHAOS,
    PoolChaos,
    WarmPool,
    item_key,
)
from repro.experiments.runner import (
    ExperimentFailure,
    _SpecTimeout,
    call_with_deadline,
    run_specs,
    spec_key,
)
from repro.experiments.sweep import SweepOptions, run_sweep
from repro.experiments.synthetic import SyntheticResult, SyntheticSpec, synthetic_specs
from repro.machine import ExperimentSpec


def _spec(scale, version="R"):
    return ExperimentSpec.multiprogram(scale, "MATVEC", version)


@pytest.fixture
def warm_pool():
    """A private single-worker pool (deterministic worker assignment)."""
    pool = WarmPool(1)
    try:
        yield pool
    finally:
        pool.shutdown()


# -- the wire codec ----------------------------------------------------------


class TestWire:
    def test_spec_round_trip_is_lossless(self, scale):
        spec = _spec(scale)
        back = wire.decode(wire.encode(spec))
        assert back == spec
        assert repr(back) == repr(spec)
        assert spec_key(back) == spec_key(spec)

    def test_result_round_trip_serializes_identically(self, scale):
        result = run_specs([_spec(scale)])[0]
        back = wire.decode(wire.encode(result))
        assert serialize_result(back) == serialize_result(result)

    def test_container_fidelity(self):
        value = {
            "tuple": (1, 2.5, None, "x"),
            "nested": [True, (0.1, (2,))],
            "empty": (),
        }
        back = wire.decode(wire.encode(value))
        assert back == value
        assert isinstance(back["tuple"], tuple)
        assert isinstance(back["nested"][1], tuple)
        assert isinstance(back["tuple"][1], float)

    def test_marker_key_collision_is_rejected(self):
        with pytest.raises(wire.WireError):
            wire.encode({"!": "sneaky"})

    def test_non_string_keys_are_rejected(self):
        with pytest.raises(wire.WireError):
            wire.encode({1: "a"})

    def test_unknown_types_are_rejected(self):
        with pytest.raises(wire.WireError):
            wire.encode(object())


# -- determinism on reused workers -------------------------------------------


class TestWarmReuse:
    def test_same_spec_twice_on_same_worker_is_byte_identical(
        self, scale, warm_pool
    ):
        spec = _spec(scale)
        first = warm_pool.run_one(spec)
        second = warm_pool.run_one(spec)
        assert serialize_result(first) == serialize_result(second)
        telemetry = warm_pool.telemetry()
        assert telemetry["workers_spawned"] == 1
        assert telemetry["warm_dispatches"] >= 1
        # The second run reuses the worker's workload template.
        assert telemetry["snapshot_hits"] >= 1

    def test_mixed_grid_matches_inline(self, scale, warm_pool):
        specs = [_spec(scale, v) for v in "RB"]
        inline = [serialize_result(r) for r in run_specs(specs, jobs=1)]
        pooled = [serialize_result(r) for r in warm_pool.run(specs)]
        assert pooled == inline

    def test_pool_on_off_grids_are_byte_identical(self, scale):
        # jobs=1 runs inline (pool off), the byte-identity reference.
        specs = [_spec(scale, v) for v in "OR"]
        inline = [serialize_result(r) for r in run_specs(specs, jobs=1)]
        pooled = [serialize_result(r) for r in run_specs(specs, jobs=2)]
        assert pooled == inline

    def test_batched_sweep_matches_inline_digest(self, tmp_path):
        specs = synthetic_specs(60, fail_every=13)
        inline = run_sweep(
            specs, tmp_path / "inline", options=SweepOptions(fsync_journal=False)
        )
        sharded = run_sweep(
            specs,
            tmp_path / "sharded",
            options=SweepOptions(
                jobs=2, batch_size=4, heartbeat_s=0.1, fsync_journal=False
            ),
        )
        assert sharded.digest == inline.digest
        assert sharded.counts() == inline.counts()

    def test_deadline_applies_alike_inline_and_pooled(self, tmp_path):
        """Synthetic cells get the same SIGALRM budget inline and on
        workers, so a sweep with ``timeout_s`` merges to one digest."""
        specs = [
            SyntheticSpec(index=i, sleep_s=5.0 if i % 3 == 0 else 0.0)
            for i in range(6)
        ]
        inline = run_sweep(
            specs,
            tmp_path / "inline",
            options=SweepOptions(timeout_s=0.2, fsync_journal=False),
        )
        pooled = run_sweep(
            specs,
            tmp_path / "pooled",
            options=SweepOptions(
                jobs=2, timeout_s=0.2, heartbeat_s=0.1, fsync_journal=False
            ),
        )
        assert pooled.digest == inline.digest
        assert [o.kind for o in inline.failures] == ["timeout", "timeout"]


# -- env-knob hygiene across dispatches --------------------------------------


def test_env_knob_flip_between_specs_on_one_worker():
    """A worker must re-apply the dispatcher's knob profile per item:
    before the fix, the first spec's lane leaked into every later spec
    dispatched to that (reused) worker."""
    ctx = pool_mod._mp_context()
    parent, child = ctx.Pipe()
    process = ctx.Process(
        target=pool_mod.worker_entry,
        args=(child, "w0", None, EMPTY_POOL_CHAOS),
    )
    process.start()
    child.close()
    try:
        spec = SyntheticSpec(index=0)
        item = {
            "index": 0,
            "attempt": 1,
            "key": item_key(spec),
            "spec": spec,
            "timeout_s": None,
            "retries": 0,
            "env": {"REPRO_FAST_LANE": None},
        }
        pool_mod.send_frame(parent, {"frame": "batch", "items": [item]})
        default_lane = pool_mod.recv_frame(parent)["lane"]
        assert default_lane in ("numpy", "pure")

        item = dict(item, env={"REPRO_FAST_LANE": "0"})
        pool_mod.send_frame(parent, {"frame": "batch", "items": [item]})
        assert pool_mod.recv_frame(parent)["lane"] == "off"

        # Flip back: the override must not stick to the worker.
        item = dict(item, env={"REPRO_FAST_LANE": None})
        pool_mod.send_frame(parent, {"frame": "batch", "items": [item]})
        assert pool_mod.recv_frame(parent)["lane"] == default_lane

        pool_mod.send_frame(parent, {"frame": "stop"})
    finally:
        process.join(timeout=10)
        if process.is_alive():
            process.kill()
            process.join(timeout=10)


def test_capture_env_covers_only_live_knobs(monkeypatch):
    monkeypatch.setenv("REPRO_FAST_LANE", "0")
    assert pool_mod.capture_env() == {"REPRO_FAST_LANE": "0"}
    monkeypatch.delenv("REPRO_FAST_LANE")
    assert pool_mod.capture_env() == {"REPRO_FAST_LANE": None}


# -- deadlines on persistent workers -----------------------------------------


class TestDeadlineReuse:
    def test_timeout_then_success_on_the_same_worker(self, warm_pool):
        slow = SyntheticSpec(index=0, sleep_s=30.0)
        failure = warm_pool.run_one(slow, timeout_s=0.1)
        assert isinstance(failure, ExperimentFailure)
        assert failure.kind == "timeout"
        # The same worker (workers=1) must be clean for the next spec: no
        # armed itimer, no leaked handler.
        ok = warm_pool.run_one(SyntheticSpec(index=1))
        assert isinstance(ok, SyntheticResult)
        assert warm_pool.telemetry()["workers_spawned"] == 1

    def test_call_with_deadline_restores_handler_after_timeout(self):
        def handler(signum, frame):  # pragma: no cover - must never fire
            raise AssertionError("sentinel SIGALRM handler invoked")

        previous = signal.signal(signal.SIGALRM, handler)
        try:
            with pytest.raises(_SpecTimeout):
                call_with_deadline(lambda: time.sleep(30), 0.05)
            assert signal.getsignal(signal.SIGALRM) is handler
            assert signal.setitimer(signal.ITIMER_REAL, 0.0) == (0.0, 0.0)
            # And again: the restore path must be reusable, not one-shot.
            assert call_with_deadline(lambda: 42, 5.0) == 42
            assert signal.getsignal(signal.SIGALRM) is handler
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0.0)
            signal.signal(signal.SIGALRM, previous)


# -- crash containment -------------------------------------------------------


class TestCrashContainment:
    def test_flaky_crash_requeues_and_converges(self):
        specs = [SyntheticSpec(index=i) for i in range(6)]
        chaos = PoolChaos(crash_keys=(item_key(specs[2]),), max_attempt=1)
        pool = WarmPool(2, chaos=chaos)
        try:
            outcomes = pool.run(specs, batch_size=3)
            assert all(isinstance(o, SyntheticResult) for o in outcomes)
            assert [o.index for o in outcomes] == list(range(6))
            assert pool.telemetry()["crashes"] >= 1
        finally:
            pool.shutdown()

    def test_poison_spec_fails_alone_batchmates_survive(self):
        specs = [SyntheticSpec(index=i) for i in range(6)]
        chaos = PoolChaos(crash_keys=(item_key(specs[2]),))  # crashes forever
        pool = WarmPool(2, chaos=chaos)
        try:
            outcomes = pool.run(specs, batch_size=3)
            poisoned = outcomes[2]
            assert isinstance(poisoned, ExperimentFailure)
            assert poisoned.kind == "crash"
            rest = outcomes[:2] + outcomes[3:]
            assert all(isinstance(o, SyntheticResult) for o in rest)
        finally:
            pool.shutdown()

    def test_crashed_results_never_rerun_finished_items(self):
        # Crash on the LAST item of a batch: the first two results of
        # that batch are already home and must not be re-executed.
        specs = [SyntheticSpec(index=i) for i in range(3)]
        chaos = PoolChaos(crash_keys=(item_key(specs[2]),), max_attempt=1)
        pool = WarmPool(1, chaos=chaos)
        try:
            outcomes = pool.run(specs, batch_size=3)
            assert all(isinstance(o, SyntheticResult) for o in outcomes)
            telemetry = pool.telemetry()
            # Items 0 and 1 complete once on the first pass; only the
            # suspect re-runs. A naive requeue would re-execute all 3.
            assert telemetry["specs_done"] == 3
        finally:
            pool.shutdown()


def test_worker_dies_on_sigterm_despite_inherited_handler():
    """``repro serve`` installs a SIGTERM handler that only sets an event.
    A forked worker inheriting it would shrug off ``terminate()`` and wedge
    the parent's exit-time join — workers must reset to SIG_DFL."""
    previous = signal.signal(signal.SIGTERM, lambda *_args: None)
    try:
        pool = WarmPool(1)
        try:
            # Running a spec proves the worker reached its loop (and so has
            # already restored the default disposition).
            pool.run([SyntheticSpec(index=0)])
            worker = pool._idle[0]
            worker.process.terminate()
            worker.process.join(timeout=5.0)
            assert not worker.process.is_alive()
        finally:
            pool.shutdown()
    finally:
        signal.signal(signal.SIGTERM, previous)


# -- the hang watchdog -------------------------------------------------------


class TestWatchdog:
    def test_poison_hang_fails_alone_as_hang(self):
        specs = [SyntheticSpec(index=i) for i in range(4)]
        chaos = PoolChaos(hang_keys=(item_key(specs[1]),))  # hangs every time
        pool = WarmPool(2, chaos=chaos, heartbeat_s=0.05, hang_timeout_s=0.4)
        try:
            outcomes = pool.run(specs, batch_size=2)
            hung = outcomes[1]
            assert isinstance(hung, ExperimentFailure)
            assert hung.kind == "hang" and hung.attempts == 2
            rest = outcomes[:1] + outcomes[2:]
            assert all(isinstance(o, SyntheticResult) for o in rest)
            assert pool.telemetry()["crashes"] == 2
        finally:
            pool.shutdown()

    def test_hang_flake_recovers_on_requeue(self):
        specs = [SyntheticSpec(index=i) for i in range(4)]
        chaos = PoolChaos(hang_keys=(item_key(specs[0]),), max_attempt=1)
        pool = WarmPool(2, chaos=chaos, heartbeat_s=0.05, hang_timeout_s=0.4)
        try:
            outcomes = pool.run(specs, batch_size=2)
            assert all(isinstance(o, SyntheticResult) for o in outcomes)
            assert [o.index for o in outcomes] == list(range(4))
            assert pool.telemetry()["crashes"] == 1
        finally:
            pool.shutdown()

    def test_hang_timeout_needs_heartbeats(self):
        with pytest.raises(ValueError):
            WarmPool(1, hang_timeout_s=1.0)


# -- sizing edges ------------------------------------------------------------


def test_rejects_nonpositive_workers():
    with pytest.raises(ValueError):
        WarmPool(0)


def test_empty_run_is_a_noop(warm_pool):
    assert warm_pool.run([]) == []
    assert warm_pool.telemetry()["dispatches"] == 0
