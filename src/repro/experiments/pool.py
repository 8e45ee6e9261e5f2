"""The warm-worker execution pool: the one multi-process executor.

Every throughput surface in the repository — grid figures through
:func:`~repro.experiments.runner.run_specs`, sweeps
(:mod:`repro.experiments.sweep`), and the service JobManager
(:mod:`repro.service.jobs`) — runs its cells here rather than paying
per-grid process churn (spawn, import ``repro`` in every worker, rebuild
workload state per spec, pickle every result back, tear down):

- **Warm workers** — long-lived child processes that import once and stay
  resident.  A process-wide shared pool (:func:`get_pool`) survives across
  grids, bench repeats, and service jobs, so only the first dispatch pays
  interpreter startup.
- **Batched, pipelined dispatch** — many small specs ride one pipe
  round-trip (``{"frame": "batch", "items": [...]}``), and each worker
  keeps a second batch buffered so it never idles on the round trip.
- **Zero-pickle frames** — specs and results travel as canonical-JSON
  frames (:mod:`repro.experiments.wire`), not pickles.
- **Snapshot/reset** — workers keep :mod:`repro.machine`'s workload
  template cache warm across same-family specs; hit/miss deltas ride back
  on every result frame as telemetry.
- **Containment** — a worker that dies mid-batch, or (with a hang timeout)
  stops sending heartbeats while busy and is killed by the watchdog, makes
  the first unfinished item of its batch the suspect: requeued once,
  alone, on an otherwise idle worker, and on a second loss reported with
  ``kind="crash"`` or ``"hang"``.  The rest of the batch requeues
  unblamed; finished items are never re-run.

Byte-identity is the contract: a spec executed here produces exactly the
result the inline path (``jobs=1``) produces.

Worker reuse raises a hygiene problem process churn used to hide: state a
spec leaves behind (an env-var lane override, a leaked ``SIGALRM``
handler) would flow into the next spec.  So every dispatched item carries
the parent's env-knob profile, applied (plus
:func:`repro.vm.fastlane.refresh_from_env`) before the spec runs, and the
deadline timer is forcibly disarmed between items.

A caller that needs outcomes as they arrive (the sweep journals each one)
opens a :class:`Session` on the pool; :meth:`WarmPool.run` is a session
that collects every outcome in input order.
"""

from __future__ import annotations

import atexit
import multiprocessing
import os
import signal
import threading
import time
from collections import deque
from multiprocessing.connection import wait as conn_wait
from typing import Dict, List, Optional, Sequence, Tuple, Union

from repro import machine as machine_mod
from repro.experiments import wire
from repro.experiments.runner import (
    ExperimentFailure,
    execute_guarded,
    item_key,
    store_cached,
)
from repro.experiments.synthetic import EMPTY_POOL_CHAOS, PoolChaos
from repro.machine import ExperimentResult

__all__ = [
    "EMPTY_POOL_CHAOS",
    "PoolChaos",
    "REQUEUE_LIMIT",
    "Session",
    "WarmPool",
    "capture_env",
    "get_pool",
    "item_key",
    "recv_frame",
    "send_frame",
    "shutdown_shared_pool",
    "worker_entry",
]

#: How many times a crash or hang suspect goes back to the queue before it
#: is blamed.  The paper's simulations are deterministic, so one requeue
#: distinguishes environmental flakes (OOM kill, stray signal) from items
#: that reliably take their worker down.
REQUEUE_LIMIT = 1

_LOSS_DETAIL = {
    "crash": "worker process died while running this spec",
    "hang": "worker heartbeat lost (hung beyond the SIGALRM deadline)",
}


# -- env-knob hygiene -------------------------------------------------------
#
# The knobs that change *how* a spec executes without being part of the
# spec.  (REPRO_ENGINE died with the heap backend in the policy-seam PR.)

ENV_KNOBS: Tuple[str, ...] = ("REPRO_FAST_LANE",)


def capture_env() -> Dict[str, Optional[str]]:
    """The dispatching process's knob profile, shipped with every item."""
    return {knob: os.environ.get(knob) for knob in ENV_KNOBS}


def _apply_env(profile: Optional[Dict[str, Optional[str]]]) -> None:
    if profile is None:
        return
    for knob, value in profile.items():
        if value is None:
            os.environ.pop(knob, None)
        else:
            os.environ[knob] = value
    from repro.vm import fastlane

    fastlane.refresh_from_env()


# -- wire frames ------------------------------------------------------------


def send_frame(conn, frame: Dict[str, object]) -> None:
    conn.send_bytes(wire.encode(frame))


def recv_frame(conn) -> Dict[str, object]:
    return wire.decode(conn.recv_bytes())


def _mp_context():
    methods = multiprocessing.get_all_start_methods()
    return multiprocessing.get_context("fork" if "fork" in methods else "spawn")


# -- worker side ------------------------------------------------------------


def _disarm_deadline() -> None:
    """Defense in depth between items: whatever the previous spec did,
    no timer may survive into the next one."""
    if hasattr(signal, "SIGALRM"):
        try:
            signal.setitimer(signal.ITIMER_REAL, 0.0)
        except (OSError, ValueError):
            pass


def _execute_item(spec, timeout_s: Optional[float], retries: int):
    """``("ok", result)`` or ``("failure", {"kind", "message", "attempts"})``."""
    outcome = execute_guarded(spec, timeout_s, retries)
    if isinstance(outcome, ExperimentFailure):
        return "failure", {
            "kind": outcome.kind,
            "message": outcome.message,
            "attempts": outcome.attempts,
        }
    return "ok", outcome


def _execute_sweep_item(cache_dir: str, key: str, spec, timeout_s, retries: int):
    """Store-through execution, for batches that name a ``cache_dir``.

    A success is stored under ``key`` *before* its result frame is sent,
    so a dispatcher killed between the two finds the result on resume;
    the frame then carries no result.  Sweeps dispatch this way.
    """
    status, payload = _execute_item(spec, timeout_s, retries)
    if status == "ok":
        store_cached(cache_dir, key, payload)
        return "ok", None
    return status, payload


def worker_entry(
    conn,
    name: str,
    heartbeat_s: Optional[float],
    chaos: PoolChaos,
) -> None:
    """Persistent worker loop.

    Pulls batch frames off the pipe, runs each item, pushes one result
    frame per item.  With ``heartbeat_s`` set a thread beats on the pipe
    so the dispatcher's watchdog can see hangs; either way the thread
    watches ``os.getppid()`` and exits if the parent dies, so a SIGKILLed
    dispatcher never leaves orphans.
    """
    # The fork copies the dispatcher's signal dispositions.  `repro serve`
    # installs a SIGTERM handler that merely sets an event — inherited by a
    # worker it would turn terminate() into a no-op, and exit-time joins in
    # the parent would block forever.  Workers answer to the pipe protocol:
    # SIGTERM must kill, and a terminal's Ctrl-C SIGINT is the parent's to
    # coordinate, not ours to crash on.
    if hasattr(signal, "SIGTERM"):
        signal.signal(signal.SIGTERM, signal.SIG_DFL)
    if hasattr(signal, "SIGINT"):
        signal.signal(signal.SIGINT, signal.SIG_IGN)
    parent = os.getppid()
    send_lock = threading.Lock()
    beats_stopped = threading.Event()

    def _send(frame) -> bool:
        try:
            payload = wire.encode(frame)
            with send_lock:
                conn.send_bytes(payload)
            return True
        except (BrokenPipeError, OSError):
            return False

    def _beats() -> None:
        period = heartbeat_s if heartbeat_s else 1.0
        while not beats_stopped.wait(period):
            if os.getppid() != parent:
                os._exit(2)  # dispatcher died; do not linger as an orphan
            if heartbeat_s is not None:
                if not _send({"frame": "heartbeat", "worker": name}):
                    os._exit(2)

    threading.Thread(target=_beats, daemon=True).start()

    stop = False
    while not stop:
        try:
            frame = recv_frame(conn)
        except (EOFError, OSError, wire.WireError):
            break
        if frame.get("frame") == "stop":
            break
        if frame.get("frame") != "batch":
            continue
        cache_dir = frame.get("cache_dir")
        for item in frame["items"]:
            index = item["index"]
            attempt = item.get("attempt", 1)
            key = item["key"]
            spec = item["spec"]
            if chaos.enabled and attempt <= chaos.max_attempt:
                if key in chaos.crash_keys:
                    os._exit(3)  # stands in for a segfault / OOM kill
                if key in chaos.hang_keys:
                    beats_stopped.set()  # a wedge the watchdog must catch
                    time.sleep(chaos.hang_s)
            _apply_env(item.get("env"))
            _disarm_deadline()
            snap_before = machine_mod.template_counters()
            started = time.monotonic()
            if cache_dir is None:
                status, payload = _execute_item(
                    spec, item.get("timeout_s"), item.get("retries", 0)
                )
            else:
                status, payload = _execute_sweep_item(
                    cache_dir, key, spec, item.get("timeout_s"), item.get("retries", 0)
                )
            elapsed = time.monotonic() - started
            snap_after = machine_mod.template_counters()
            result_frame: Dict[str, object] = {
                "frame": "result",
                "worker": name,
                "index": index,
                "attempt": attempt,
                "status": status,
                "elapsed_s": elapsed,
                "snap_hits": snap_after["hits"] - snap_before["hits"],
                "snap_misses": snap_after["misses"] - snap_before["misses"],
            }
            try:
                from repro.vm import fastlane

                result_frame["lane"] = fastlane.lane_name()
            except Exception:
                result_frame["lane"] = "unknown"
            if status != "ok":
                result_frame.update(payload)
            elif payload is None:
                result_frame["stored"] = True
            else:
                # Detach the spec: the dispatcher reattaches its own
                # object, so the frame carries only the result data.
                if isinstance(payload, ExperimentResult):
                    payload.spec = None
                result_frame["result"] = payload
            if not _send(result_frame):
                stop = True
                break
    try:
        conn.close()
    except OSError:
        pass


# -- dispatcher side --------------------------------------------------------


class _Worker:
    __slots__ = ("name", "process", "conn", "dispatches", "last_beat")

    def __init__(self, name, process, conn) -> None:
        self.name = name
        self.process = process
        self.conn = conn
        self.dispatches = 0
        self.last_beat = time.monotonic()


Outcome = Union[ExperimentResult, ExperimentFailure, object]


class WarmPool:
    """A leasable set of persistent workers plus a batching dispatcher.

    Thread-safe: the service's job threads each lease workers through
    :meth:`run`/:meth:`run_one` concurrently (a worker pipe is only ever
    read and written by the session that holds its lease).  Workers are
    spawned lazily up to ``workers`` and returned warm; the pool grows on
    demand (:meth:`grow`) and never shrinks until :meth:`shutdown`.

    ``heartbeat_s`` makes workers beat on their pipe at that period, and
    ``hang_timeout_s`` (which needs it) arms the watchdog: a busy worker
    silent for that long is killed and its suspect blamed for a hang.
    ``chaos`` injects worker faults (tests only).
    """

    def __init__(
        self,
        workers: int,
        chaos: Optional[PoolChaos] = None,
        heartbeat_s: Optional[float] = None,
        hang_timeout_s: Optional[float] = None,
    ) -> None:
        if workers < 1:
            raise ValueError(f"pool needs at least 1 worker, got {workers}")
        if hang_timeout_s is not None and heartbeat_s is None:
            raise ValueError("a hang timeout needs worker heartbeats")
        self._target = int(workers)
        self._chaos = chaos if chaos is not None else EMPTY_POOL_CHAOS
        self._heartbeat_s = heartbeat_s
        self.hang_timeout_s = hang_timeout_s
        self._ctx = _mp_context()
        self._cv = threading.Condition()
        self._idle: List[_Worker] = []
        self._alive = 0  # leased + idle
        self._seq = 0
        self._closed = False
        self._tlock = threading.Lock()
        self._counters = {
            "workers_spawned": 0,
            "dispatches": 0,
            "warm_dispatches": 0,
            "specs_dispatched": 0,
            "max_batch": 0,
            "crashes": 0,
            "snapshot_hits": 0,
            "snapshot_misses": 0,
            "specs_done": 0,
        }

    # -- lifecycle ---------------------------------------------------------

    @property
    def workers(self) -> int:
        return self._target

    @property
    def closed(self) -> bool:
        return self._closed

    def grow(self, workers: int) -> None:
        with self._cv:
            if workers > self._target:
                self._target = int(workers)
                self._cv.notify_all()

    def shutdown(self) -> None:
        with self._cv:
            if self._closed:
                return
            self._closed = True
            idle, self._idle = self._idle, []
            self._alive -= len(idle)
            self._cv.notify_all()
        for worker in idle:
            self._stop_worker(worker)

    def _stop_worker(self, worker: _Worker) -> None:
        try:
            send_frame(worker.conn, {"frame": "stop"})
        except (BrokenPipeError, OSError, wire.WireError):
            pass
        try:
            worker.conn.close()
        except OSError:
            pass
        worker.process.join(timeout=1.0)
        if worker.process.is_alive():
            worker.process.terminate()
            worker.process.join(timeout=1.0)

    # -- worker leasing ----------------------------------------------------

    def _spawn_locked(self) -> _Worker:
        self._seq += 1
        self._alive += 1
        name = f"pool-{self._seq}"
        parent_conn, child_conn = self._ctx.Pipe()
        process = self._ctx.Process(
            target=worker_entry,
            args=(child_conn, name, self._heartbeat_s, self._chaos),
            daemon=True,
            name=f"repro-{name}",
        )
        process.start()
        child_conn.close()
        with self._tlock:
            self._counters["workers_spawned"] += 1
        return _Worker(name, process, parent_conn)

    def _checkout(self) -> _Worker:
        """Lease a worker, blocking until one is available."""
        with self._cv:
            while True:
                if self._closed:
                    raise RuntimeError("pool is shut down")
                if self._idle:
                    return self._idle.pop()
                if self._alive < self._target:
                    return self._spawn_locked()
                self._cv.wait()

    def _try_checkout(self) -> Optional[_Worker]:
        with self._cv:
            if self._closed:
                return None
            if self._idle:
                return self._idle.pop()
            if self._alive < self._target:
                return self._spawn_locked()
            return None

    def _checkin(self, worker: _Worker) -> None:
        stop = False
        with self._cv:
            if self._closed:
                self._alive -= 1
                stop = True
            else:
                self._idle.append(worker)
                self._cv.notify()
        if stop:
            self._stop_worker(worker)

    def _discard(self, worker: _Worker) -> None:
        """Kill a dead, hung or abandoned worker and free its slot."""
        try:
            worker.conn.close()
        except OSError:
            pass
        worker.process.kill()
        worker.process.join(timeout=5.0)
        with self._cv:
            self._alive -= 1
            self._cv.notify()

    # -- dispatch ----------------------------------------------------------

    def _auto_batch(self, count: int) -> int:
        """Batch so each worker sees ~2 dispatch rounds: enough batching to
        amortize the pipe; the two-deep pipeline rebalances uneven items."""
        rounds = max(1, self._target * 2)
        return max(1, min(8, -(-count // rounds)))

    def run(
        self,
        specs: Sequence[object],
        timeout_s: Optional[float] = None,
        retries: int = 0,
        batch_size: Optional[int] = None,
        env: Optional[Dict[str, Optional[str]]] = None,
    ) -> List[Outcome]:
        """Run ``specs`` on warm workers; outcomes align with input order.

        Never raises for a spec's own sake: failures (error, timeout,
        crash, hang) come back as :class:`ExperimentFailure` values in
        their grid slots, exactly like the inline path.
        """
        specs = list(specs)
        count = len(specs)
        if count == 0:
            return []
        if batch_size is None:
            batch_size = self._auto_batch(count)
        batch_size = max(1, int(batch_size))
        results: List[Optional[Outcome]] = [None] * count
        with Session(
            self,
            workers=min(self._target, -(-count // batch_size)),
            timeout_s=timeout_s,
            retries=retries,
            batch_size=batch_size,
            env=env,
        ) as session:
            for index, spec in enumerate(specs):
                session.submit(index, spec, item_key(spec))
            while session.outstanding:
                for frame in session.poll(0.25):
                    index = frame.get("index")
                    if frame["frame"] == "result" and frame["status"] == "ok":
                        payload = frame["result"]
                        if isinstance(payload, ExperimentResult):
                            payload.spec = specs[index]
                        results[index] = payload
                    elif frame["frame"] == "result":
                        results[index] = ExperimentFailure(
                            specs[index],
                            frame.get("kind", "error"),
                            frame.get("message", ""),
                            attempts=frame.get("attempts", frame["attempt"]),
                        )
                    elif frame["frame"] == "lost" and not frame["requeued"]:
                        results[index] = ExperimentFailure(
                            specs[index],
                            frame["reason"],
                            frame["message"],
                            attempts=frame["attempt"],
                        )
        return results  # type: ignore[return-value]

    def run_one(
        self,
        spec,
        timeout_s: Optional[float] = None,
        retries: int = 0,
    ) -> Outcome:
        """One spec on one leased worker — the service's per-job-thread
        entry point.  Thread-safe against concurrent ``run_one`` calls."""
        return self.run([spec], timeout_s=timeout_s, retries=retries, batch_size=1)[0]

    # -- telemetry ---------------------------------------------------------

    def telemetry(self) -> Dict[str, object]:
        with self._tlock:
            snap = dict(self._counters)
        snap["workers"] = self._target
        dispatches = snap["dispatches"]
        snap["specs_per_dispatch"] = (
            snap["specs_dispatched"] / dispatches if dispatches else 0.0
        )
        snap["worker_reuse_rate"] = (
            snap["warm_dispatches"] / dispatches if dispatches else 0.0
        )
        lookups = snap["snapshot_hits"] + snap["snapshot_misses"]
        snap["snapshot_hit_rate"] = snap["snapshot_hits"] / lookups if lookups else 0.0
        return snap


class Session:
    """One caller's lease on pool workers: :meth:`submit` items, then
    :meth:`poll` for frames as they arrive.

    :meth:`poll` returns, in arrival order:

    - ``{"frame": "result", ...}`` — an item finished (the worker's frame:
      ``index``, ``attempt``, ``worker``, ``status``, ``elapsed_s``, and
      ``result`` or ``stored`` on success, ``kind``/``message``/``attempts``
      on failure);
    - ``{"frame": "heartbeat", "worker"}`` — a liveness beat;
    - ``{"frame": "lost", "index", "attempt", "worker", "reason",
      "message", "requeued"}`` — the item was the suspect of a worker
      crash or hang.  ``requeued`` means it will run again, alone, as
      ``attempt + 1``; otherwise it is finished as a loss.

    With ``cache_dir`` set, workers store each success there before
    replying and the result frame carries no result.  Close the session
    (or use it as a context manager) to hand the workers back.
    """

    def __init__(
        self,
        pool: WarmPool,
        workers: int,
        timeout_s: Optional[float] = None,
        retries: int = 0,
        batch_size: int = 1,
        env: Optional[Dict[str, Optional[str]]] = None,
        cache_dir: Optional[os.PathLike] = None,
    ) -> None:
        self._pool = pool
        self._want = max(1, workers)
        self._timeout_s = timeout_s
        self._retries = retries
        self._batch_size = max(1, batch_size)
        self._env = env if env is not None else capture_env()
        self._cache_dir = None if cache_dir is None else str(cache_dir)
        self._items: Dict[int, list] = {}  # index -> [spec, key, attempt]
        self._pending: deque = deque()
        self._solo: set = set()  # requeued suspects: run alone
        self._losses: Dict[int, int] = {}
        self._inflight: Dict[_Worker, List[int]] = {}  # dispatch order
        self._frames: List[Dict[str, object]] = []
        self._leased: List[_Worker] = [pool._checkout()]

    def __enter__(self) -> "Session":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    @property
    def outstanding(self) -> int:
        """Items submitted and not yet finished."""
        return len(self._items)

    def submit(self, index: int, spec, key: str, attempt: int = 1) -> None:
        self._items[index] = [spec, key, attempt]
        self._pending.append(index)

    def poll(self, timeout: float) -> List[Dict[str, object]]:
        """Dispatch what is pending, then wait up to ``timeout`` for frames."""
        self._top_up()
        for worker in list(self._leased):
            if self._pending and worker in self._leased:
                self._fill(worker)
        if self._leased:
            by_conn = {worker.conn: worker for worker in self._leased}
            for conn in conn_wait(list(by_conn), timeout=timeout):
                if by_conn[conn] in self._leased:
                    self._absorb(by_conn[conn])
        else:
            time.sleep(timeout)
        self._watchdog()
        frames, self._frames = self._frames, []
        return frames

    def close(self) -> None:
        for worker in self._leased:
            if worker in self._inflight:
                # Abandoned mid-batch: the worker may still be executing,
                # so its pipe cannot be reused.
                self._pool._discard(worker)
            else:
                self._pool._checkin(worker)
        self._leased = []
        self._inflight.clear()

    # -- internals ---------------------------------------------------------

    def _top_up(self) -> None:
        while self._pending and len(self._leased) < self._want:
            worker = self._pool._try_checkout()
            if worker is None:
                break
            self._leased.append(worker)
        if self._pending and not self._leased:
            self._leased.append(self._pool._checkout())

    def _fill(self, worker: _Worker) -> None:
        """Top the worker up to two batches of outstanding items.

        Keeping a second batch buffered in the pipe is what removes the
        round-trip stall: while the dispatcher is decoding one result,
        the worker is already executing the next item instead of idling.
        A suspect (``_solo``) is only ever sent to a worker with *nothing*
        outstanding, so a second loss unambiguously blames it.
        """
        pending = self._pending
        while pending and len(self._inflight.get(worker, ())) < 2 * self._batch_size:
            if pending[0] in self._solo:
                if self._inflight.get(worker):
                    return  # suspects need an empty worker
                batch = [pending.popleft()]
            else:
                batch = []
                while (
                    pending
                    and len(batch) < self._batch_size
                    and pending[0] not in self._solo
                ):
                    batch.append(pending.popleft())
            sent = self._dispatch(worker, batch)
            self._inflight.setdefault(worker, []).extend(batch)
            if not sent:
                self._lose(worker, "crash")
                return
            if batch[0] in self._solo:
                return  # nothing may ride along with a suspect

    def _dispatch(self, worker: _Worker, batch: List[int]) -> bool:
        items = []
        for index in batch:
            spec, key, attempt = self._items[index]
            items.append(
                {
                    "index": index,
                    "attempt": attempt,
                    "key": key,
                    "spec": spec,
                    "timeout_s": self._timeout_s,
                    "retries": self._retries,
                    "env": self._env,
                }
            )
        frame: Dict[str, object] = {"frame": "batch", "items": items}
        if self._cache_dir is not None:
            frame["cache_dir"] = self._cache_dir
        try:
            send_frame(worker.conn, frame)
        except (BrokenPipeError, OSError):
            return False
        if not self._inflight.get(worker):
            worker.last_beat = time.monotonic()  # the watchdog starts now
        pool = self._pool
        with pool._tlock:
            pool._counters["dispatches"] += 1
            if worker.dispatches > 0:
                pool._counters["warm_dispatches"] += 1
            pool._counters["specs_dispatched"] += len(items)
            pool._counters["max_batch"] = max(pool._counters["max_batch"], len(items))
        worker.dispatches += 1
        return True

    def _absorb(self, worker: _Worker) -> None:
        """Drain every frame the worker has ready; EOF means a crash."""
        try:
            while True:
                frame = recv_frame(worker.conn)
                worker.last_beat = time.monotonic()
                kind = frame.get("frame")
                if kind == "result":
                    self._finish(worker, frame)
                elif kind == "heartbeat":
                    self._frames.append(frame)
                if not worker.conn.poll():
                    return
        except (EOFError, OSError, wire.WireError):
            self._lose(worker, "crash")

    def _finish(self, worker: _Worker, frame: Dict[str, object]) -> None:
        index = frame["index"]
        batch = self._inflight.get(worker, [])
        if index in batch:
            batch.remove(index)
        if not batch:
            self._inflight.pop(worker, None)
        self._items.pop(index, None)
        self._solo.discard(index)
        pool = self._pool
        with pool._tlock:
            pool._counters["specs_done"] += 1
            pool._counters["snapshot_hits"] += frame.get("snap_hits", 0)
            pool._counters["snapshot_misses"] += frame.get("snap_misses", 0)
        self._frames.append(frame)

    def _lose(self, worker: _Worker, reason: str) -> None:
        """Retire a crashed or hung worker and blame its first unfinished
        item (results stream back in dispatch order, so that is what the
        worker was executing); the rest of its batch requeues unblamed."""
        batch = self._inflight.pop(worker, [])
        with self._pool._tlock:
            self._pool._counters["crashes"] += 1
        self._leased.remove(worker)
        self._pool._discard(worker)
        if not batch:
            return
        suspect = batch[0]
        for index in reversed(batch[1:]):
            self._pending.appendleft(index)  # unblamed, same attempt
        self._losses[suspect] = self._losses.get(suspect, 0) + 1
        item = self._items[suspect]
        requeued = self._losses[suspect] <= REQUEUE_LIMIT
        self._frames.append(
            {
                "frame": "lost",
                "index": suspect,
                "attempt": item[2],
                "worker": worker.name,
                "reason": reason,
                "message": _LOSS_DETAIL[reason],
                "requeued": requeued,
            }
        )
        if requeued:
            item[2] += 1
            self._solo.add(suspect)
            self._pending.appendleft(suspect)
        else:
            del self._items[suspect]
            self._solo.discard(suspect)

    def _watchdog(self) -> None:
        """Kill a busy worker whose heartbeats stopped (a hang SIGALRM
        cannot reach: C code, an uninterruptible syscall)."""
        limit = self._pool.hang_timeout_s
        if limit is None:
            return
        now = time.monotonic()
        for worker in list(self._inflight):
            # Unread frames mean it is alive; the next poll absorbs them.
            if now - worker.last_beat > limit and not worker.conn.poll():
                self._lose(worker, "hang")


# -- the process-wide shared pool -------------------------------------------

_shared: Optional[WarmPool] = None
_shared_lock = threading.Lock()


def get_pool(workers: int = 0) -> WarmPool:
    """The shared warm pool, created on first use; grows, never shrinks."""
    global _shared
    if workers <= 0:
        workers = os.cpu_count() or 2
    with _shared_lock:
        if _shared is None or _shared.closed:
            _shared = WarmPool(workers)
        else:
            _shared.grow(workers)
        return _shared


def shutdown_shared_pool() -> None:
    global _shared
    with _shared_lock:
        pool, _shared = _shared, None
    if pool is not None:
        pool.shutdown()


# multiprocessing's own exit hook joins leftover children with no timeout.
# The module-level `import multiprocessing` above registers that hook before
# this one, so (LIFO) the stop frames below go out first and the workers are
# already gone when it runs.
atexit.register(shutdown_shared_pool)
