"""Resilient sweep orchestration: checkpointed, crash-tolerant grids.

The paper's results are sweeps — every figure is a grid of memory sizes ×
benchmarks × policies — and the fault layer multiplies that grid by fault
seeds.  :func:`~repro.experiments.runner.run_specs` executes such a grid in
one fragile pass: kill the process and every non-cached cell is lost.
This module is a durable journal and queue on top of the warm pool
(:mod:`repro.experiments.pool`):

- **Checkpoint journal** — every per-spec outcome (success, structured
  failure, quarantine) is appended to ``<state_dir>/journal.jsonl`` via the
  single-write append contract of :mod:`repro.ioutil`; successes land in
  the runner's flat result cache, ``<state_dir>/cache/<key>.pkl``.  A
  sweep SIGKILLed mid-flight resumes from the journal and produces merged
  results byte-identical to an uninterrupted run (simulations are
  deterministic; the digest covers every slot in input order).

- **Execution** — ``jobs=1`` runs every cell inline, the byte-identity
  reference.  ``jobs > 1`` opens a session on a private warm pool, whose
  workers store each success before reporting it, so an orchestrator
  killed between the two finds the result on resume.  The pool owns crash
  and hang containment: a dead worker, or a busy one whose heartbeats stop
  for ``hang_timeout_s`` (what the per-spec ``SIGALRM`` deadline cannot
  interrupt: C code, an uninterruptible syscall), has its spec requeued
  once, then quarantined as poison.

- **Retries and budget** — retryable failures back off exponentially with
  *deterministic* jitter (derived from the spec key, so schedules replay);
  a ``max_failures`` budget lets a sweep degrade gracefully into failure
  slots and aborts — resumably — only when the budget is exhausted.

``repro sweep run|resume|status`` is the CLI surface;
:mod:`repro.experiments.ensemble` builds Monte Carlo fault ensembles on
top of :func:`run_sweep`.
"""

from __future__ import annotations

import hashlib
import heapq
import itertools
import json
import os
import time
from collections import deque
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple, Union

from repro.config import SimScale, paper, small, tiny
from repro.experiments import synthetic
from repro.experiments.runner import (
    ExperimentFailure,
    execute_guarded,
    item_key,
    load_cached,
    store_cached,
)
from repro.experiments.synthetic import (
    EMPTY_POOL_CHAOS,
    PoolChaos,
    SyntheticResult,
    SyntheticSpec,
)
from repro.faults import EMPTY_PLAN, FaultPlan
from repro.ioutil import append_journal_line, atomic_write_json, read_journal
from repro.machine import ExperimentResult, ExperimentSpec, SpecError
from repro.obs import Bus, JsonlSink, Sink, WallClock

__all__ = [
    "SweepAborted",
    "SweepChaos",
    "SweepError",
    "SweepOptions",
    "SweepOutcome",
    "SweepReport",
    "SyntheticResult",
    "SyntheticSpec",
    "backoff_delay",
    "collect_report",
    "expand_grid",
    "run_sweep",
    "specs_from_meta",
    "sweep_spec_key",
    "sweep_status",
    "synthetic_specs",
]

JOURNAL_NAME = "journal.jsonl"
META_NAME = "meta.json"
EVENTS_NAME = "events.jsonl"
CACHE_DIRNAME = "cache"

_SCALES = {"tiny": tiny, "small": small, "paper": paper}

#: Worker fault injection for sweeps (tests only): the pool's chaos.
SweepChaos = PoolChaos

AnySpec = Union[ExperimentSpec, SyntheticSpec]

#: Content key for any sweep cell (experiment or synthetic).
sweep_spec_key = item_key


class SweepError(RuntimeError):
    """A sweep that cannot be run, resumed, or collected."""


class SweepAborted(SweepError):
    """The ``max_failures`` budget was exhausted; the sweep is resumable."""

    def __init__(self, failures: int, budget: int) -> None:
        self.failures = failures
        self.budget = budget
        super().__init__(
            f"sweep aborted: {failures} failures exceeded the budget of "
            f"{budget}; raise --max-failures and resume"
        )


def synthetic_specs(
    count: int, fail_every: int = 0, sleep_s: float = 0.0
) -> List[SyntheticSpec]:
    """``count`` distinct no-op specs; every ``fail_every``-th one fails."""
    if count < 1:
        raise SweepError(f"synthetic spec count must be >= 1, got {count}")
    return synthetic.synthetic_specs(count, fail_every=fail_every, sleep_s=sleep_s)


# -- options and outcomes ---------------------------------------------------


@dataclass(frozen=True)
class SweepOptions:
    """Everything that shapes a sweep's execution (not its results).

    None of these fields participates in the merged digest: a sweep run
    with 1 worker and one run with 8 merge byte-identically.
    """

    jobs: int = 1
    batch_size: int = 1
    timeout_s: Optional[float] = None
    retries: int = 0
    backoff_base_s: float = 0.25
    heartbeat_s: float = 1.0
    hang_timeout_s: Optional[float] = None
    max_failures: Optional[int] = None
    progress_every: int = 50
    fsync_journal: bool = True
    chaos: PoolChaos = EMPTY_POOL_CHAOS

    def validate(self) -> None:
        if self.jobs < 1:
            raise SweepError(f"jobs must be >= 1, got {self.jobs}")
        if self.batch_size < 1:
            raise SweepError(f"batch_size must be >= 1, got {self.batch_size}")
        if self.retries < 0:
            raise SweepError(f"retries must be >= 0, got {self.retries}")
        if self.timeout_s is not None and self.timeout_s <= 0:
            raise SweepError(f"timeout_s must be positive, got {self.timeout_s}")
        if self.backoff_base_s < 0:
            raise SweepError(f"backoff_base_s must be >= 0, got {self.backoff_base_s}")
        if self.heartbeat_s <= 0:
            raise SweepError(f"heartbeat_s must be positive, got {self.heartbeat_s}")
        if self.hang_timeout_s is not None and self.hang_timeout_s <= 0:
            raise SweepError(
                f"hang_timeout_s must be positive, got {self.hang_timeout_s}"
            )
        if self.max_failures is not None and self.max_failures < 0:
            raise SweepError(f"max_failures must be >= 0, got {self.max_failures}")


def backoff_delay(key: str, attempt: int, base_s: float) -> float:
    """Exponential backoff with deterministic jitter for one retry.

    ``base_s * 2**(attempt-1) * (1 + j)`` where ``j ∈ [0, 1)`` is derived
    from ``(key, attempt)`` via SHA-256 — the same spec retries on the
    same schedule in every run, so retry storms de-synchronize *and*
    replays stay reproducible (no wall-clock entropy).
    """
    digest = hashlib.sha256(f"{key}/backoff/{attempt}".encode()).digest()
    jitter = int.from_bytes(digest[:4], "big") / 2**32
    return base_s * (2 ** max(0, attempt - 1)) * (1.0 + jitter)


@dataclass
class SweepOutcome:
    """One journal-backed terminal outcome, aligned to its spec's slot."""

    index: int
    key: str
    status: str  # "ok" | "failure" | "quarantined"
    kind: Optional[str] = None  # for failures: error | timeout | crash | hang
    message: Optional[str] = None
    attempts: int = 1
    shard: Optional[str] = None  # the worker that ran it (ok only)
    elapsed_s: Optional[float] = None

    @property
    def failed(self) -> bool:
        return self.status != "ok"

    def digest_line(self) -> str:
        """The canonical per-slot string the merged digest hashes.

        Excludes attempts/shard/elapsed on purpose: how a result was
        obtained (which worker, how many retries, how long it took) must
        not perturb the merged identity — only *what* was obtained.
        """
        if self.status == "ok":
            raise SweepError("digest_line for a success needs the cached result")
        return f"failure key={self.key} kind={self.kind} message={self.message}"


@dataclass
class SweepReport:
    """What :func:`run_sweep` returns: every slot plus the merged digest."""

    outcomes: List[SweepOutcome]
    digest: str
    state_dir: Optional[Path] = None
    aborted: bool = False

    @property
    def ok(self) -> List[SweepOutcome]:
        return [o for o in self.outcomes if o.status == "ok"]

    @property
    def failures(self) -> List[SweepOutcome]:
        return [o for o in self.outcomes if o.failed]

    def counts(self) -> Dict[str, int]:
        out = {"total": len(self.outcomes), "ok": 0, "failure": 0, "quarantined": 0}
        for outcome in self.outcomes:
            out[outcome.status] += 1
        return out


# -- state directory --------------------------------------------------------


@dataclass
class _State:
    """Resolved paths plus the sweep's identity (from ``meta.json``)."""

    root: Path
    journal: Path
    events: Path
    cache: Path
    meta: Dict[str, object] = field(default_factory=dict)

    @classmethod
    def at(cls, state_dir: os.PathLike) -> "_State":
        root = Path(state_dir)
        return cls(
            root=root,
            journal=root / JOURNAL_NAME,
            events=root / EVENTS_NAME,
            cache=root / CACHE_DIRNAME,
        )


def _keys_digest(keys: Sequence[str]) -> str:
    digest = hashlib.sha256()
    for key in keys:
        digest.update(key.encode())
        digest.update(b"\n")
    return digest.hexdigest()


def _read_meta(root: Path, missing_ok: bool = False) -> Optional[Dict[str, object]]:
    """The checkpoint's ``meta.json``; a missing, unreadable or non-object
    file is a :class:`SweepError` (``None`` if missing and ``missing_ok``)."""
    path = root / META_NAME
    try:
        with path.open("r", encoding="utf-8") as handle:
            meta = json.load(handle)
    except FileNotFoundError:
        if missing_ok:
            return None
        raise SweepError(f"no sweep checkpoint at {root} (missing {META_NAME})") from None
    except (OSError, ValueError) as exc:
        raise SweepError(f"{path} is unreadable: {exc}") from exc
    if not isinstance(meta, dict):
        raise SweepError(f"{path} is not a JSON object")
    return meta


def _open_state(
    state_dir: os.PathLike,
    keys: Sequence[str],
    resume: bool,
    describe: Optional[Dict[str, object]] = None,
) -> _State:
    state = _State.at(state_dir)
    root = state.root
    signature = _keys_digest(keys)
    meta = _read_meta(root, missing_ok=not resume)
    if meta is not None:
        if meta.get("keys_digest") != signature or meta.get("count") != len(keys):
            raise SweepError(
                f"{root} holds a different sweep ({meta.get('count')} specs, "
                f"keys digest {str(meta.get('keys_digest'))[:12]}…); refusing "
                "to mix checkpoints"
            )
        if not resume:
            raise SweepError(
                f"{root} already holds this sweep's checkpoint; use "
                "`repro sweep resume` (or resume=True) to continue it"
            )
        state.meta = meta
        return state
    meta = {
        "version": 1,
        "count": len(keys),
        "keys_digest": signature,
    }
    if describe:
        meta.update(describe)
    root.mkdir(parents=True, exist_ok=True)
    atomic_write_json(root / META_NAME, meta)
    state.meta = meta
    return state


# -- journal ----------------------------------------------------------------


def _journal_outcome(state: _State, outcome: SweepOutcome, fsync: bool) -> None:
    record: Dict[str, object] = {
        "event": "spec",
        "index": outcome.index,
        "key": outcome.key,
        "status": outcome.status,
        "attempts": outcome.attempts,
    }
    if outcome.kind is not None:
        record["kind"] = outcome.kind
    if outcome.message is not None:
        record["message"] = outcome.message
    if outcome.shard is not None:
        record["shard"] = outcome.shard
    if outcome.elapsed_s is not None:
        record["elapsed_s"] = round(outcome.elapsed_s, 6)
    append_journal_line(state.journal, record, fsync=fsync)


def _read_journal(state: _State) -> List[Dict[str, object]]:
    try:
        return read_journal(state.journal)
    except ValueError as exc:
        raise SweepError(str(exc)) from exc


def _journal_outcomes(records: Sequence[Dict[str, object]]) -> Dict[int, SweepOutcome]:
    """Terminal outcomes by spec index.

    The last terminal record wins: a resume that re-runs a cell whose
    stored result went missing journals the cell again.
    """
    outcomes: Dict[int, SweepOutcome] = {}
    for record in records:
        if record.get("event") != "spec":
            continue
        index = record.get("index")
        if not isinstance(index, int):
            continue
        outcomes[index] = SweepOutcome(
            index=index,
            key=str(record.get("key")),
            status=str(record.get("status")),
            kind=record.get("kind"),  # type: ignore[arg-type]
            message=record.get("message"),  # type: ignore[arg-type]
            attempts=int(record.get("attempts", 1)),
            shard=record.get("shard"),  # type: ignore[arg-type]
            elapsed_s=record.get("elapsed_s"),  # type: ignore[arg-type]
        )
    return outcomes


# -- the orchestrator -------------------------------------------------------


class _InlineSession:
    """``jobs=1``: each poll runs one cell in this process and stores a
    success before reporting it — the pool session's interface, and the
    byte-identity reference for pooled sweeps.  Chaos never applies here:
    it exists to kill *workers*."""

    def __init__(self, cache: Path, timeout_s: Optional[float]) -> None:
        self._cache = cache
        self._timeout_s = timeout_s
        self._queue: deque = deque()

    @property
    def outstanding(self) -> int:
        return len(self._queue)

    def submit(self, index: int, spec: AnySpec, key: str, attempt: int = 1) -> None:
        self._queue.append((index, spec, key, attempt))

    def poll(self, timeout: float) -> List[Dict[str, object]]:
        if not self._queue:
            time.sleep(timeout)
            return []
        index, spec, key, attempt = self._queue.popleft()
        outcome = execute_guarded(spec, self._timeout_s)
        frame: Dict[str, object] = {
            "frame": "result",
            "worker": "main",
            "index": index,
            "attempt": attempt,
        }
        if isinstance(outcome, ExperimentFailure):
            frame.update(status="failure", kind=outcome.kind, message=outcome.message)
        else:
            store_cached(self._cache, key, outcome)
            frame["status"] = "ok"
        return [frame]


class _Orchestrator:
    """One run/resume pass: owns the journal, the retry queue and the
    budget; a session (inline or pooled) executes what it submits."""

    def __init__(
        self,
        specs: Sequence[AnySpec],
        keys: Sequence[str],
        state: _State,
        options: SweepOptions,
        bus: Bus,
    ) -> None:
        self.specs = specs
        self.keys = keys
        self.state = state
        self.options = options
        self.bus = bus
        self.outcomes: Dict[int, SweepOutcome] = {}
        self.queue: deque = deque()  # (index, attempt) ready now
        self.delayed: List[Tuple[float, int, int]] = []  # (eligible_at, index, attempt)
        self.failure_count = 0
        self.aborting = False
        self.done_since_progress = 0

    def emit(self, kind: str, payload: Optional[Dict[str, object]] = None) -> None:
        self.bus.emit(kind, payload)

    # -- terminal outcomes -------------------------------------------------
    def record(self, outcome: SweepOutcome) -> None:
        self.outcomes[outcome.index] = outcome
        _journal_outcome(self.state, outcome, self.options.fsync_journal)
        if outcome.failed:
            self.failure_count += 1
            budget = self.options.max_failures
            if budget is not None and self.failure_count > budget and not self.aborting:
                self.aborting = True
                self.emit(
                    "sweep.abort",
                    {"failures": self.failure_count, "budget": budget},
                )
                append_journal_line(
                    self.state.journal,
                    {
                        "event": "abort",
                        "failures": self.failure_count,
                        "budget": budget,
                    },
                    fsync=self.options.fsync_journal,
                )
        self.done_since_progress += 1
        if self.done_since_progress >= self.options.progress_every:
            self.done_since_progress = 0
            self.emit(
                "sweep.progress",
                {"done": len(self.outcomes), "total": len(self.specs)},
            )

    def handle_result(self, frame: Dict[str, object]) -> None:
        index = frame["index"]
        attempt = frame["attempt"]
        key = self.keys[index]
        if frame["status"] == "ok":
            self.record(
                SweepOutcome(
                    index=index,
                    key=key,
                    status="ok",
                    attempts=attempt,
                    shard=frame["worker"],
                    elapsed_s=frame.get("elapsed_s"),  # type: ignore[arg-type]
                )
            )
            return
        kind = str(frame.get("kind", "error"))
        if attempt <= self.options.retries:
            delay = backoff_delay(key, attempt, self.options.backoff_base_s)
            self.emit(
                "sweep.requeue",
                {
                    "key": key,
                    "shard": frame["worker"],
                    "reason": kind,
                    "attempt": attempt,
                    "delay_s": round(delay, 6),
                },
            )
            self.push_delayed(index, attempt + 1, delay)
            return
        self.record(
            SweepOutcome(
                index=index,
                key=key,
                status="failure",
                kind=kind,
                message=str(frame.get("message", "")),
                attempts=attempt,
            )
        )

    def handle_loss(self, frame: Dict[str, object]) -> None:
        """The pool lost a worker (``crash``) or shot it (``hang``) with
        this spec as the suspect; it has already requeued or blamed it."""
        from repro.experiments.pool import REQUEUE_LIMIT

        index = frame["index"]
        key = self.keys[index]
        reason = frame["reason"]
        if frame["requeued"]:
            self.emit(
                "sweep.requeue",
                {
                    "key": key,
                    "shard": frame["worker"],
                    "reason": reason,
                    "attempt": frame["attempt"],
                    "delay_s": 0.0,
                },
            )
            return
        self.emit("sweep.quarantine", {"key": key, "shard": frame["worker"], "reason": reason})
        self.record(
            SweepOutcome(
                index=index,
                key=key,
                status="quarantined",
                kind=reason,
                message=f"{frame['message']}; requeued {REQUEUE_LIMIT}x, then quarantined",
                attempts=frame["attempt"],
            )
        )

    # -- queue -------------------------------------------------------------
    def push_delayed(self, index: int, attempt: int, delay_s: float) -> None:
        if delay_s <= 0:
            self.queue.append((index, attempt))
        else:
            heapq.heappush(self.delayed, (time.monotonic() + delay_s, index, attempt))

    def promote_due(self) -> None:
        now = time.monotonic()
        while self.delayed and self.delayed[0][0] <= now:
            _, index, attempt = heapq.heappop(self.delayed)
            self.queue.append((index, attempt))

    def next_wakeup(self) -> float:
        if self.delayed:
            return max(0.01, min(0.25, self.delayed[0][0] - time.monotonic()))
        return 0.25

    def drive(self, session) -> None:
        """Feed ``session`` until every spec has a terminal outcome (or
        the failure budget aborts the pass), journaling as frames arrive."""
        while (
            self.queue or self.delayed or session.outstanding
        ) and not self.aborting:
            self.promote_due()
            while self.queue:
                index, attempt = self.queue.popleft()
                session.submit(index, self.specs[index], self.keys[index], attempt)
            for frame in session.poll(self.next_wakeup()):
                if frame["frame"] == "result":
                    self.handle_result(frame)
                elif frame["frame"] == "lost":
                    self.handle_loss(frame)
                else:
                    self.emit("sweep.heartbeat", {"shard": frame["worker"]})

    def drive_pool(self, workers: int) -> None:
        """Run the queue on a private warm pool, then record its telemetry
        for ``sweep status --json``."""
        from repro.experiments.pool import Session, WarmPool

        options = self.options
        pool = WarmPool(
            workers,
            chaos=options.chaos,
            heartbeat_s=options.heartbeat_s,
            hang_timeout_s=options.hang_timeout_s,
        )
        try:
            with Session(
                pool,
                workers,
                timeout_s=options.timeout_s,
                batch_size=options.batch_size,
                cache_dir=self.state.cache,
            ) as session:
                self.drive(session)
        finally:
            pool.shutdown()
            telemetry = pool.telemetry()
            try:
                append_journal_line(
                    self.state.journal,
                    {
                        "event": "pool",
                        "workers": workers,
                        "workers_spawned": telemetry["workers_spawned"],
                        "batch_size": options.batch_size,
                        "dispatches": telemetry["dispatches"],
                        "specs_dispatched": telemetry["specs_dispatched"],
                        "specs_per_dispatch": round(telemetry["specs_per_dispatch"], 3),
                        "max_batch": telemetry["max_batch"],
                    },
                    fsync=False,
                )
            except OSError:
                pass


# -- digest / report --------------------------------------------------------


def _result_digest_line(key: str, result: object) -> str:
    if isinstance(result, ExperimentResult):
        from repro.bench import serialize_result

        return f"ok key={key}\n{serialize_result(result)}"
    return f"ok key={key} synthetic={result!r}"


def _build_report(
    state: _State,
    keys: Sequence[str],
    outcomes: Dict[int, SweepOutcome],
    aborted: bool,
) -> SweepReport:
    """Merged, input-ordered report with a streaming digest.

    Results are loaded one at a time and dropped after hashing, so a
    10k-spec sweep's report holds outcome rows, never 10k results.
    """
    digest = hashlib.sha256()
    ordered: List[SweepOutcome] = []
    for index in range(len(keys)):
        outcome = outcomes.get(index)
        if outcome is None:
            continue  # incomplete (aborted) sweep: digest covers what ran
        ordered.append(outcome)
        if outcome.status == "ok":
            result = load_cached(state.cache, outcome.key)
            if result is None:
                raise SweepError(
                    f"journal says spec {index} ({outcome.key[:12]}…) "
                    "succeeded but its cached result is missing or corrupt; "
                    "`repro sweep resume` re-runs it"
                )
            digest.update(_result_digest_line(outcome.key, result).encode())
        else:
            digest.update(outcome.digest_line().encode())
        digest.update(b"\n")
    return SweepReport(
        outcomes=ordered,
        digest=digest.hexdigest(),
        state_dir=state.root,
        aborted=aborted,
    )


# -- public API -------------------------------------------------------------


def run_sweep(
    specs: Sequence[AnySpec],
    state_dir: os.PathLike,
    options: SweepOptions = SweepOptions(),
    resume: bool = False,
    sinks: Sequence[Sink] = (),
    describe: Optional[Dict[str, object]] = None,
) -> SweepReport:
    """Run (or resume) a checkpointed sweep over ``specs``.

    Every terminal outcome is journaled before the next dispatch, so the
    orchestrator can be SIGKILLed at any instant and
    ``run_sweep(..., resume=True)`` continues from the checkpoint — merged
    results (and :attr:`SweepReport.digest`) are byte-identical to an
    uninterrupted run.  ``sinks`` receive ``sweep.*`` events on a
    wall-clock bus, in addition to the always-on
    ``<state_dir>/events.jsonl`` log.
    """
    options.validate()
    specs = list(specs)
    if not specs:
        raise SweepError("a sweep needs at least one spec")
    keys = [sweep_spec_key(spec) for spec in specs]
    state = _open_state(state_dir, keys, resume=resume, describe=describe)

    all_sinks: List[Sink] = [JsonlSink(state.events)]
    all_sinks.extend(sinks)
    bus = Bus(WallClock(), all_sinks)

    orch = _Orchestrator(specs, keys, state, options, bus)
    orch.outcomes = _journal_outcomes(_read_journal(state))
    for index, outcome in list(orch.outcomes.items()):
        # A journaled success whose stored result is gone or unreadable
        # (pruned, truncated, bit-flipped) is re-run, not reported.
        if outcome.status == "ok" and load_cached(state.cache, outcome.key) is None:
            del orch.outcomes[index]
    orch.failure_count = sum(1 for o in orch.outcomes.values() if o.failed)

    pending: List[int] = []
    for index, key in enumerate(keys):
        if index in orch.outcomes:
            continue
        # A worker may have cached the result right before the previous
        # orchestrator died without journaling it: adopt, don't re-run.
        if load_cached(state.cache, key) is not None:
            orch.record(SweepOutcome(index=index, key=key, status="ok", attempts=0))
            continue
        pending.append(index)

    orch.emit(
        "sweep.start",
        {"total": len(specs), "pending": len(pending)},
    )
    for index in pending:
        orch.queue.append((index, 1))

    if orch.queue and not orch.aborting:
        if options.jobs <= 1:
            orch.drive(_InlineSession(state.cache, options.timeout_s))
        else:
            orch.drive_pool(min(options.jobs, len(orch.queue)))

    report = _build_report(state, keys, orch.outcomes, aborted=orch.aborting)
    counts = report.counts()
    orch.emit(
        "sweep.done",
        {
            "total": len(specs),
            "ok": counts["ok"],
            "failed": counts["failure"],
            "quarantined": counts["quarantined"],
        },
    )
    if orch.aborting:
        raise SweepAborted(orch.failure_count, options.max_failures or 0)
    return report


def collect_report(
    specs: Sequence[AnySpec], state_dir: os.PathLike
) -> SweepReport:
    """Build the merged report for an existing checkpoint without running."""
    specs = list(specs)
    keys = [sweep_spec_key(spec) for spec in specs]
    state = _open_state(state_dir, keys, resume=True)
    outcomes = _journal_outcomes(_read_journal(state))
    return _build_report(state, keys, outcomes, aborted=False)


def sweep_status(state_dir: os.PathLike) -> Dict[str, object]:
    """Journal/meta summary for ``repro sweep status`` (no results loaded)."""
    state = _State.at(state_dir)
    meta = _read_meta(state.root)
    records = _read_journal(state)
    outcomes = _journal_outcomes(records)
    counts = {"ok": 0, "failure": 0, "quarantined": 0}
    by_shard: Dict[str, int] = {}
    attempts = 0
    for outcome in outcomes.values():
        counts[outcome.status] = counts.get(outcome.status, 0) + 1
        attempts += outcome.attempts
        if outcome.shard:
            by_shard[outcome.shard] = by_shard.get(outcome.shard, 0) + 1
    total = int(meta.get("count", 0))
    aborted = False
    pool: Optional[Dict[str, object]] = None
    for record in records:
        event = record.get("event")
        if event == "abort":
            aborted = True
        elif event == "pool":
            # Last record wins: one per run/resume pass; a resumed sweep's
            # status reflects its most recent pooled pass.
            pool = {k: v for k, v in record.items() if k != "event"}
    return {
        "state_dir": str(state.root),
        "total": total,
        "done": len(outcomes),
        "pending": total - len(outcomes),
        "ok": counts["ok"],
        "failure": counts["failure"],
        "quarantined": counts["quarantined"],
        "attempts": attempts,
        "by_shard": dict(sorted(by_shard.items())),
        "aborted": aborted,
        "pool": pool,
        "meta": meta,
    }


def specs_from_meta(state_dir: os.PathLike) -> List[AnySpec]:
    """Rebuild a checkpoint's spec list from its ``meta.json``.

    ``repro sweep resume|status`` works from the state directory alone:
    ``run`` records the grid (or synthetic shape) in the meta file, and
    this re-expands it — the keys digest then proves the rebuilt list
    matches the journal.
    """
    root = Path(state_dir)
    meta = _read_meta(root)
    if "grid" in meta:
        return list(expand_grid(dict(meta["grid"])))
    if "synthetic" in meta:
        shape = dict(meta["synthetic"])
        return list(
            synthetic_specs(
                int(shape.get("count", 0)),
                fail_every=int(shape.get("fail_every", 0)),
                sleep_s=float(shape.get("sleep_s", 0.0)),
            )
        )
    raise SweepError(
        f"{root / META_NAME} does not describe its specs (created via the "
        "Python API?); resume through run_sweep(..., resume=True) with the "
        "original spec list"
    )


# -- grid expansion (the CLI's sweep-file format) ---------------------------


def expand_grid(data: Dict[str, object], default_scale: str = "tiny") -> List[ExperimentSpec]:
    """Expand a declarative grid file into the cross product of its axes.

    Shape::

        {"scale": "tiny",
         "overrides": {"max_engine_steps": 2000000},
         "faults": {"disk": {"io_error_prob": 0.02}},
         "axes": {
             "benchmark": ["MATVEC", "BUK"],
             "version": ["O", "R"],
             "sleep": [null, 0.1],
             "policy": ["paging-directed", "global-clock"],
             "fault_seed": [1, 2, 3]}}

    Axis order is fixed (benchmark, version, sleep, policy, fault_seed) so
    the same grid file always expands to the same spec list — and hence
    the same sweep identity and merged digest.
    """
    data = dict(data)
    scale_name = str(data.pop("scale", default_scale))
    if scale_name not in _SCALES:
        raise SpecError(
            f"unknown scale {scale_name!r}; choose from {sorted(_SCALES)}"
        )
    scale: SimScale = _SCALES[scale_name]()
    overrides = data.pop("overrides", {})
    if overrides:
        scale = scale.with_overrides(**overrides)
    base_faults = (
        FaultPlan.from_dict(data.pop("faults")) if "faults" in data else EMPTY_PLAN
    )
    axes = dict(data.pop("axes", {}))
    if data:
        raise SpecError(f"unknown sweep grid keys: {sorted(data)}")
    benchmarks = list(axes.pop("benchmark", ()))
    if not benchmarks:
        raise SpecError("sweep grid needs a non-empty 'benchmark' axis")
    versions = list(axes.pop("version", ["R"]))
    sleeps = list(axes.pop("sleep", [None]))
    policies = list(axes.pop("policy", [None]))
    fault_seeds = list(axes.pop("fault_seed", [None]))
    if axes:
        raise SpecError(f"unknown sweep grid axes: {sorted(axes)}")
    specs: List[ExperimentSpec] = []
    for bench_name, version, sleep, policy, seed in itertools.product(
        benchmarks, versions, sleeps, policies, fault_seeds
    ):
        spec = ExperimentSpec.multiprogram(
            scale, str(bench_name).upper(), str(version).upper(), sleep_time_s=sleep
        )
        if seed is not None:
            spec = spec.with_faults(base_faults.with_seed(int(seed)))
        elif base_faults is not EMPTY_PLAN:
            spec = spec.with_faults(base_faults)
        if policy is not None:
            spec = spec.with_policy(str(policy))
        spec.validate()
        specs.append(spec)
    return specs
