"""Wall-clock benchmarks: measure, record, and protect simulator speed.

ROADMAP's north star is "as fast as the hardware allows", and the paper's
full-scale experiments are tractable only while the simulator stays fast.
This module defines the benchmark *cases* (named spec lists mirroring the
standard mix and the per-figure grids), runs them with best-of-N timing,
and writes ``BENCH_<name>.json`` records carrying machine/commit metadata
plus the checked-in baseline for regression comparison.

Throughput metrics reported per case:

- ``wall_s`` — best-of-N wall-clock for the whole case;
- ``events_per_s`` — engine events dispatched per wall second (the
  engine's raw dispatch rate);
- ``sim_s_per_wall_s`` — simulated seconds produced per wall second (how
  much paper-time a second of host time buys);
- ``meta.ops_per_s`` — workload-driver ops consumed per wall second, with
  the bulk-lane telemetry next to it (``lane``, ``bulk_pages``,
  ``bulk_hit_rate``): how much of the run went down the vectorized
  resident-run lane versus the per-page fallback.

``repro bench`` is the CLI front-end; ``benchmarks/perf`` holds the
committed baseline and a smoke test.

Every ``repro run --digest``, sweep and service job hashes
:func:`serialize_result` from this module, so the measuring machinery
(profilers, subprocesses, the experiment harness) is imported inside the
functions that use it, not here.
"""

from __future__ import annotations

import gc
import io
import json
import os
import sys
import time
from dataclasses import asdict, dataclass, field
from pathlib import Path
from typing import Callable, Dict, List, Optional

from repro.config import small, tiny
from repro.ioutil import atomic_write_json
from repro.machine import (
    INTERACTIVE,
    ExperimentResult,
    ExperimentSpec,
    WorkloadProcessSpec,
    run_experiment,
)

__all__ = [
    "BENCH_CASES",
    "MICRO_CASES",
    "POOL_CASES",
    "TRACE_CASES",
    "BenchRecord",
    "all_case_names",
    "bench_filename",
    "compare_to_baseline",
    "load_baseline",
    "run_case",
    "serialize_result",
    "write_record",
]

#: Workload ordering shared by the grid cases (Figure 7's order).
WORKLOAD_ORDER = ["EMBAR", "MATVEC", "BUK", "CGM", "MGRID", "FFTPDE"]


def multiprogram_spec(*args, **kwargs) -> ExperimentSpec:
    """:func:`repro.experiments.harness.multiprogram_spec`, imported on use."""
    from repro.experiments.harness import multiprogram_spec

    return multiprogram_spec(*args, **kwargs)


def _standard_mix() -> List[ExperimentSpec]:
    """The paper's standard mix: MATVEC O/P/R/B + interactive, small scale."""
    return [multiprogram_spec(small(), "MATVEC", v) for v in "OPRB"]


def _standard_mix_global_clock() -> List[ExperimentSpec]:
    """The standard mix rerun under the global-clock policy.

    Same four specs, but the kernel discards release hints and reclaims
    with the plain clock daemon — the no-hint baseline the figures compare
    against, and a bench guard that the competitor policy path stays fast.
    """
    return [spec.with_policy("global-clock") for spec in _standard_mix()]


def _grid_tiny() -> List[ExperimentSpec]:
    """The full benchmark × version grid behind Figures 7-10, tiny scale."""
    return [
        multiprogram_spec(tiny(), w, v) for w in WORKLOAD_ORDER for v in "OPRB"
    ]


def _indirect_tiny() -> List[ExperimentSpec]:
    """The two indirect-reference benchmarks (BUK, CGM), tiny scale."""
    return [
        multiprogram_spec(tiny(), w, v) for w in ("BUK", "CGM") for v in "OPRB"
    ]


def _interactive_sweep_tiny() -> List[ExperimentSpec]:
    """Figure 10's sleep-time sweep for MATVEC R, tiny scale."""
    scale = tiny()
    return [
        multiprogram_spec(scale, "MATVEC", "R", sleep_time_s=t)
        for t in scale.figure_sleep_times_s
    ]


def _grid_wide() -> List[ExperimentSpec]:
    """A 48-spec sweep: the full grid × two interactive sleep settings.

    Twice the surface of ``grid_tiny`` — every workload/version pair is run
    with the scale's default interactive sleep and again with the shortest
    Figure 10 sleep (the most fault-heavy interactive behaviour).  This is
    the widest committed case and the closest proxy for a full figure
    regeneration pass.
    """
    scale = tiny()
    sleeps = (None, scale.figure_sleep_times_s[0])
    return [
        multiprogram_spec(scale, w, v, sleep_time_s=t)
        for w in WORKLOAD_ORDER
        for v in "OPRB"
        for t in sleeps
    ]


BENCH_CASES: Dict[str, Callable[[], List[ExperimentSpec]]] = {
    "standard_mix": _standard_mix,
    "standard_mix_global_clock": _standard_mix_global_clock,
    "grid_tiny": _grid_tiny,
    "grid_wide": _grid_wide,
    "indirect_tiny": _indirect_tiny,
    "interactive_sweep_tiny": _interactive_sweep_tiny,
}


def all_case_names() -> List[str]:
    """Every runnable case: spec lists, trace, micro, and pooled cases."""
    return list(BENCH_CASES) + list(TRACE_CASES) + list(MICRO_CASES) + list(POOL_CASES)


@dataclass
class BenchRecord:
    """One benchmark case's measurement, as written to BENCH_<name>.json."""

    name: str
    wall_s: float
    engine_steps: int
    sim_s: float
    specs: int
    events_per_s: float
    sim_s_per_wall_s: float
    peak_rss_mb: float
    repeats: int
    meta: Dict[str, object] = field(default_factory=dict)
    baseline_wall_s: Optional[float] = None
    speedup_vs_baseline: Optional[float] = None


def machine_metadata() -> Dict[str, object]:
    """Host/commit context so BENCH records are comparable over time."""
    import platform
    import subprocess

    try:
        commit = subprocess.run(
            ["git", "rev-parse", "--short", "HEAD"],
            capture_output=True,
            text=True,
            timeout=10,
        ).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        commit = ""
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "platform": platform.platform(),
        "machine": platform.machine(),
        "commit": commit or None,
    }


# -- per-case memory sampling ----------------------------------------------
def _reset_peak_rss() -> bool:
    """Reset the kernel's RSS high-water mark (``VmHWM``) for this process.

    Writing ``"5"`` to ``/proc/self/clear_refs`` makes VmHWM restart from
    the *current* RSS, which is what makes a per-case peak measurable at
    all.  Returns False where the knob does not exist (non-Linux)."""
    try:
        with open("/proc/self/clear_refs", "w") as handle:
            handle.write("5")
        return True
    except OSError:
        return False


def _peak_rss_kb() -> Optional[int]:
    """Current ``VmHWM`` in KiB from ``/proc/self/status``, or None."""
    try:
        with open("/proc/self/status", "r", encoding="ascii") as handle:
            for line in handle:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1])
    except (OSError, ValueError, IndexError):
        pass
    return None


def _ru_maxrss_kb() -> int:
    """The process-lifetime peak RSS in KiB: the fallback without ``/proc``."""
    import resource

    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


class _RssMeter:
    """Per-case peak-RSS and allocator sampling.

    ``resource.getrusage(...).ru_maxrss`` is a process-lifetime high-water
    mark: in a multi-case run every case after the hungriest one reports
    the same number, so the old per-record ``peak_rss_mb`` was one
    process-wide figure, not a per-case sample.  Here each case collects
    garbage, resets ``VmHWM``, and reports its own growth over its own
    start RSS — the footprint attributable to the case rather than the
    interpreter baseline underneath it.  Where ``/proc`` is unavailable
    the meter falls back to ``ru_maxrss`` deltas (which can only register
    new process-wide highs; ``rss_sampler`` in the record says which mode
    produced the number).
    """

    def __init__(self) -> None:
        gc.collect()
        self._gc_before = [s["collections"] for s in gc.get_stats()]
        self._blocks_before = sys.getallocatedblocks()
        self._hwm = _reset_peak_rss()
        base_kb = _peak_rss_kb() if self._hwm else None
        if base_kb is None:
            self._hwm = False
            base_kb = _ru_maxrss_kb()
        self._base_kb = base_kb

    def finish(self) -> tuple:
        """Returns ``(peak_rss_mb, alloc_meta)`` for the case window."""
        peak_kb = _peak_rss_kb() if self._hwm else None
        if peak_kb is None:
            peak_kb = _ru_maxrss_kb()
        gc_after = [s["collections"] for s in gc.get_stats()]
        alloc = {
            "rss_sampler": "vmhwm" if self._hwm else "ru_maxrss",
            "rss_base_mb": round(self._base_kb / 1024.0, 2),
            "allocated_blocks_delta": (
                sys.getallocatedblocks() - self._blocks_before
            ),
            "gc_collections": [
                after - before
                for after, before in zip(gc_after, self._gc_before)
            ],
        }
        return max(0.0, (peak_kb - self._base_kb) / 1024.0), alloc


def _lane_meta(
    before: Dict[str, int],
    after: Dict[str, int],
    repeats: int,
    wall_s: float,
) -> Dict[str, object]:
    """Bulk-lane telemetry for one case, from counter deltas.

    ``before``/``after`` are :func:`repro.vm.fastlane.snapshot_counters`
    taken around the timed repeat loop; every repeat runs the identical
    deterministic op stream, so dividing the delta by ``repeats`` gives
    exact per-run counts.  ``bulk_hit_rate`` is the fraction of run pages
    the bulk lane advanced (vs pages handed back to the per-page slow
    path); a case whose workloads emit no run ops reports 0 ops through
    the lane and a hit rate of 0.0.
    """
    from repro.vm import fastlane

    runs = max(1, repeats)
    delta = {key: (after[key] - before[key]) // runs for key in after}
    bulk = delta["bulk_pages"]
    slow = delta["slow_pages"]
    return {
        "lane": fastlane.lane_name(),
        "driver_ops": delta["ops"],
        "ops_per_s": round(delta["ops"] / wall_s, 1) if wall_s > 0 else 0.0,
        "bulk_pages": bulk,
        "bulk_slow_pages": slow,
        "bulk_runs": delta["runs"],
        "bulk_windows": delta["windows"],
        "bulk_hit_rate": round(bulk / (bulk + slow), 4) if bulk + slow else 0.0,
    }


def _profile_call(fn: Callable[[], object], profile_top: int) -> str:
    import cProfile
    import pstats

    profiler = cProfile.Profile()
    profiler.enable()
    fn()
    profiler.disable()
    buffer = io.StringIO()
    stats = pstats.Stats(profiler, stream=buffer)
    stats.sort_stats("cumulative").print_stats(profile_top)
    return buffer.getvalue()


def _replay_standard_mix(
    repeats: int = 2, profile: bool = False, profile_top: int = 25
) -> tuple:
    """Record the standard mix once, then time the ways of reproducing it.

    Three timings come out of one recording of MATVEC O/P/R/B + interactive
    at small scale:

    - ``reexec_wall_s`` — re-run the mix live (compiler + interpreter +
      simulation), the cost every figure pays today;
    - ``sim_replay_wall_s`` — replay the traces as scheduled processes.
      This reproduces the live results *byte-for-byte* (asserted here on
      every run) while skipping the compiler and interpreter; the
      simulation itself still runs, so the saving is the hint-generation
      share of the run;
    - ``wall_s`` (the headline, gated against the baseline) — the
      no-simulation trace check: regenerate each trace's op stream from
      the current compiler, re-encode it, and byte-compare against the
      file's record body (one memcmp; the recorded stream is never decoded
      into tuples — see ``verify_bytes_against_code``).  This is the fast
      way to prove the whole hint pipeline still produces the recorded
      streams, and it beats re-execution by well over the 1.5x the trace
      subsystem promises (``check_speedup_vs_reexec`` in meta).
    """
    import tempfile

    from repro.trace.analyze import verify_bytes_against_code
    from repro.trace.record import record_experiment
    from repro.trace.workload import trace_process_spec

    specs = _standard_mix()
    repeats = max(1, repeats)
    meter = _RssMeter()
    with tempfile.TemporaryDirectory(prefix="repro-bench-trace-") as tmp:
        paths = []
        for index, spec in enumerate(specs):
            _result, recorded = record_experiment(spec, Path(tmp) / f"mix-{index}")
            paths.extend(recorded.values())
        replay_specs = [
            ExperimentSpec(
                scale=spec.scale,
                processes=(
                    trace_process_spec(path),
                    WorkloadProcessSpec(workload=INTERACTIVE),
                ),
            )
            for spec, path in zip(specs, paths)
        ]

        def check_all() -> bool:
            ok = True
            for path in paths:
                ok = bool(verify_bytes_against_code(path)["equal"]) and ok
            return ok

        reexec_wall = float("inf")
        live_results: List[ExperimentResult] = []
        for _ in range(repeats):
            started = time.perf_counter()
            live_results = [run_experiment(spec) for spec in specs]
            reexec_wall = min(reexec_wall, time.perf_counter() - started)
        from repro.vm import fastlane

        lane_before = fastlane.snapshot_counters()
        replay_wall = float("inf")
        replay_results: List[ExperimentResult] = []
        for _ in range(repeats):
            started = time.perf_counter()
            replay_results = [run_experiment(spec) for spec in replay_specs]
            replay_wall = min(replay_wall, time.perf_counter() - started)
        lane_after = fastlane.snapshot_counters()
        check_wall = float("inf")
        checks_ok = False
        for _ in range(repeats):
            started = time.perf_counter()
            checks_ok = check_all()
            check_wall = min(check_wall, time.perf_counter() - started)
        profile_text = _profile_call(check_all, profile_top) if profile else None
        byte_identical = all(
            serialize_result(live) == serialize_result(replayed)
            for live, replayed in zip(live_results, replay_results)
        )
        if not byte_identical or not checks_ok:
            raise RuntimeError(
                "replay_standard_mix: trace replay diverged from live "
                "execution (byte_identical="
                f"{byte_identical}, checks_ok={checks_ok})"
            )
    engine_steps = sum(r.engine_steps for r in replay_results)
    sim_s = sum(r.elapsed_s for r in replay_results)
    peak_rss_mb, alloc_meta = meter.finish()
    record = BenchRecord(
        name="replay_standard_mix",
        wall_s=round(check_wall, 4),
        engine_steps=engine_steps,
        sim_s=round(sim_s, 4),
        specs=len(specs),
        # Engine throughput belongs to the simulated replay pass (the
        # headline wall_s does no simulation at all).
        events_per_s=round(engine_steps / replay_wall, 1),
        sim_s_per_wall_s=round(sim_s / replay_wall, 3),
        peak_rss_mb=round(peak_rss_mb, 2),
        repeats=repeats,
        meta={
            **machine_metadata(),
            **alloc_meta,
            # Lane telemetry belongs to the simulated replay pass (the
            # headline trace check drives no workload ops).
            **_lane_meta(lane_before, lane_after, repeats, replay_wall),
            "reexec_wall_s": round(reexec_wall, 4),
            "sim_replay_wall_s": round(replay_wall, 4),
            "trace_check_wall_s": round(check_wall, 4),
            "replay_speedup_vs_reexec": round(reexec_wall / replay_wall, 3),
            "check_speedup_vs_reexec": round(reexec_wall / check_wall, 3),
            "byte_identical": byte_identical,
        },
    )
    return record, profile_text


#: Cases with bespoke measurement loops (record/replay/verify phases)
#: rather than a plain spec list.
TRACE_CASES: Dict[str, Callable[..., tuple]] = {
    "replay_standard_mix": _replay_standard_mix,
}


_CHURN_PROCS = 512
_CHURN_ROUNDS = 200


def _churn_engine():
    """Build and drain the ``engine_churn`` workload; returns the Engine.

    A deliberately scheduler-bound stress: ``_CHURN_PROCS`` concurrent
    processes each race a short timeout against a ~3x-longer "deadline"
    timer, round after round.  The losing deadline stays queued until its
    time comes (lazy cancellation, exactly like the kernel's orphaned SCSI
    commands), so the pending-event population holds at a few thousand
    entries — two orders of magnitude above ``standard_mix``'s typical ~13
    — with over half the queue being dead timers.  Experiment specs never
    reach this regime, which is exactly why the case exists: it is the
    canary for scheduler costs that scale with queue *population* rather
    than dispatch count (a fixed-cadence calendar rebuild, for example, is
    invisible to ``standard_mix`` and an order of magnitude here).

    Delays come from a per-process LCG so the case is deterministic and
    needs no RNG import.
    """
    from repro.sim.engine import Engine

    engine = Engine()

    def churn(seed: int):
        state = seed
        for _ in range(_CHURN_ROUNDS):
            state = (state * 1103515245 + 12345) % (1 << 31)
            deadline = engine.timeout(0.15 + (state % 1000) / 1000 * 0.15)
            state = (state * 1103515245 + 12345) % (1 << 31)
            short = engine.timeout((1 + state % 997) / 9970.0)
            yield engine.any_of([short, deadline])

    for i in range(_CHURN_PROCS):
        engine.process(churn((i * 2654435761 + 1) % (1 << 31)), name="churn")
    engine.run()
    return engine


def _engine_churn(
    repeats: int = 2, profile: bool = False, profile_top: int = 25
) -> tuple:
    """Scheduler micro-stress: dense timeout cancel/reschedule."""
    repeats = max(1, repeats)
    meter = _RssMeter()
    best = float("inf")
    engine = None
    for _ in range(repeats):
        started = time.perf_counter()
        engine = _churn_engine()
        best = min(best, time.perf_counter() - started)
    peak_rss_mb, alloc_meta = meter.finish()
    profile_text = _profile_call(_churn_engine, profile_top) if profile else None
    record = BenchRecord(
        name="engine_churn",
        wall_s=round(best, 4),
        engine_steps=engine.steps,
        sim_s=round(engine.now, 4),
        specs=1,
        events_per_s=round(engine.steps / best, 1),
        sim_s_per_wall_s=round(engine.now / best, 3),
        peak_rss_mb=round(peak_rss_mb, 2),
        repeats=repeats,
        meta={
            **machine_metadata(),
            **alloc_meta,
            "engine_backend": "calendar",
            "processes": _CHURN_PROCS,
            "rounds": _CHURN_ROUNDS,
        },
    )
    return record, profile_text


#: Bespoke micro-benchmarks that exercise one subsystem directly rather
#: than running experiment specs.
MICRO_CASES: Dict[str, Callable[..., tuple]] = {
    "engine_churn": _engine_churn,
}


# -- pooled cases -----------------------------------------------------------


def _pool_meta(
    before: Dict[str, object], after: Dict[str, object]
) -> Dict[str, object]:
    """Warm-pool telemetry for one case, from :meth:`WarmPool.telemetry`
    snapshot deltas around the timed repeat loop."""
    delta = {
        key: int(after[key]) - int(before[key])
        for key in (
            "workers_spawned",
            "dispatches",
            "warm_dispatches",
            "specs_dispatched",
            "snapshot_hits",
            "snapshot_misses",
            "crashes",
        )
    }
    dispatches = delta["dispatches"]
    lookups = delta["snapshot_hits"] + delta["snapshot_misses"]
    return {
        "pool_workers": after["workers"],
        "pool_workers_spawned": delta["workers_spawned"],
        "pool_dispatches": dispatches,
        "pool_specs_per_dispatch": (
            round(delta["specs_dispatched"] / dispatches, 2) if dispatches else 0.0
        ),
        "pool_worker_reuse_rate": (
            round(delta["warm_dispatches"] / dispatches, 4) if dispatches else 0.0
        ),
        "pool_snapshot_hits": delta["snapshot_hits"],
        "pool_snapshot_misses": delta["snapshot_misses"],
        "pool_snapshot_hit_rate": (
            round(delta["snapshot_hits"] / lookups, 4) if lookups else 0.0
        ),
        "pool_crashes": delta["crashes"],
        # Workers are separate processes; peak_rss_mb above covers the
        # dispatching process only.
        "rss_scope": "dispatcher",
    }


def _pool_case(name: str, make_specs: Callable[[], List[ExperimentSpec]]):
    """A spec-list case run through the shared warm pool.

    The pool persists across repeats (and across cases in one bench
    invocation), so with ``repeats >= 2`` the best-of run is fully warm:
    resident workers, hot template cache, batched dispatch.  That is the
    deployment shape — the service and sweeps reuse one pool for their
    whole lifetime — and it is what the pooled baselines gate.
    """

    def run(repeats: int = 2, profile: bool = False, profile_top: int = 25) -> tuple:
        from repro.experiments import pool as pool_mod
        from repro.experiments.runner import ExperimentFailure

        specs = make_specs()
        # Up to 4 workers, never more than the machine has: oversubscribing
        # a small box turns parallelism into pure context-switch overhead.
        workers = max(1, min(4, os.cpu_count() or 1))
        warm = pool_mod.get_pool(workers)
        meter = _RssMeter()
        tel_before = warm.telemetry()
        best = float("inf")
        engine_steps = 0
        sim_s = 0.0
        for _ in range(max(1, repeats)):
            engine_steps = 0
            sim_s = 0.0
            started = time.perf_counter()
            outcomes = warm.run(specs)
            best = min(best, time.perf_counter() - started)
            for outcome in outcomes:
                if isinstance(outcome, ExperimentFailure):
                    raise RuntimeError(f"pooled case {name}: {outcome}")
                engine_steps += outcome.engine_steps
                sim_s += outcome.elapsed_s
        tel_after = warm.telemetry()
        peak_rss_mb, alloc_meta = meter.finish()
        profile_text = (
            _profile_call(lambda: warm.run(specs), profile_top) if profile else None
        )
        record = BenchRecord(
            name=name,
            wall_s=round(best, 4),
            engine_steps=engine_steps,
            sim_s=round(sim_s, 4),
            specs=len(specs),
            events_per_s=round(engine_steps / best, 1),
            sim_s_per_wall_s=round(sim_s / best, 3),
            peak_rss_mb=round(peak_rss_mb, 2),
            repeats=max(1, repeats),
            meta={
                **machine_metadata(),
                **alloc_meta,
                **_pool_meta(tel_before, tel_after),
            },
        )
        return record, profile_text

    return run


#: Pooled twins of the two widest spec-list cases.  Their baselines are
#: pinned to the *serial* twins' committed numbers, so the bench gate's
#: ``--min-speedup`` floor directly encodes "the pool must beat serial by
#: that factor" on the same spec list.
POOL_CASES: Dict[str, Callable[..., tuple]] = {
    "grid_wide_pool": _pool_case("grid_wide_pool", _grid_wide),
    "interactive_sweep_pool": _pool_case("interactive_sweep_pool", _interactive_sweep_tiny),
}


def run_case(
    name: str,
    repeats: int = 2,
    profile: bool = False,
    profile_top: int = 25,
) -> tuple:
    """Run one case; returns ``(BenchRecord, profile_text_or_None)``.

    Timing is best-of-``repeats`` to shed scheduler noise; steps and
    simulated seconds are identical across repeats (the simulator is
    deterministic), so they are taken from the last pass.
    """
    bespoke = TRACE_CASES.get(name) or MICRO_CASES.get(name) or POOL_CASES.get(name)
    if bespoke is not None:
        return bespoke(repeats=repeats, profile=profile, profile_top=profile_top)
    try:
        make_specs = BENCH_CASES[name]
    except KeyError:
        raise KeyError(
            f"unknown bench case {name!r}; known: {sorted(all_case_names())}"
        ) from None
    from repro.vm import fastlane

    specs = make_specs()
    meter = _RssMeter()
    lane_before = fastlane.snapshot_counters()
    best = float("inf")
    engine_steps = 0
    sim_s = 0.0
    for _ in range(max(1, repeats)):
        # Results are reduced spec-by-spec instead of held in a list: a
        # wide case's peak RSS is then one spec's footprint, not the sum
        # of every result's latency buckets (65 MB for grid_wide).  Steps
        # and simulated seconds are deterministic, so last-pass sums are
        # as good as any.
        engine_steps = 0
        sim_s = 0.0
        started = time.perf_counter()
        for spec in specs:
            result = run_experiment(spec)
            engine_steps += result.engine_steps
            sim_s += result.elapsed_s
        best = min(best, time.perf_counter() - started)
    lane_after = fastlane.snapshot_counters()
    peak_rss_mb, alloc_meta = meter.finish()
    profile_text = None
    if profile:
        profile_text = _profile_call(
            lambda: [run_experiment(spec) for spec in specs], profile_top
        )
    record = BenchRecord(
        name=name,
        wall_s=round(best, 4),
        engine_steps=engine_steps,
        sim_s=round(sim_s, 4),
        specs=len(specs),
        events_per_s=round(engine_steps / best, 1),
        sim_s_per_wall_s=round(sim_s / best, 3),
        peak_rss_mb=round(peak_rss_mb, 2),
        repeats=max(1, repeats),
        meta={
            **machine_metadata(),
            **alloc_meta,
            **_lane_meta(lane_before, lane_after, repeats, best),
        },
    )
    return record, profile_text


# -- baseline comparison ---------------------------------------------------
def load_baseline(path) -> Dict[str, Dict[str, float]]:
    """Load ``benchmarks/perf/baseline.json``; returns its ``cases`` map."""
    with open(path, "r", encoding="utf-8") as handle:
        data = json.load(handle)
    return data.get("cases", {})


def compare_to_baseline(
    record: BenchRecord,
    baseline_cases: Dict[str, Dict[str, float]],
    tolerance: float = 2.0,
    min_speedup: Optional[float] = None,
) -> tuple:
    """Annotate ``record`` with the baseline and judge the regression gates.

    Returns ``(ok, message)``.  Two gates:

    - the wall gate fails when the measured wall time exceeds ``tolerance``
      × the committed baseline — a deliberately wide band, since the
      baseline was captured on one particular machine;
    - the speedup floor (when ``min_speedup`` is given) fails when
      ``speedup_vs_baseline`` drops below it.  CI runs with a floor so a
      case that quietly loses its advantage fails the job even while it
      still clears the wide wall band.
    """
    entry = baseline_cases.get(record.name)
    if entry is None:
        return True, f"{record.name}: no baseline entry, skipping the gate"
    baseline_wall = float(entry["wall_s"])
    record.baseline_wall_s = baseline_wall
    record.speedup_vs_baseline = round(baseline_wall / record.wall_s, 3)
    if record.wall_s > baseline_wall * tolerance:
        return False, (
            f"{record.name}: REGRESSION — wall {record.wall_s:.3f}s exceeds "
            f"{tolerance:g}x the baseline {baseline_wall:.3f}s"
        )
    if min_speedup is not None and record.speedup_vs_baseline < min_speedup:
        return False, (
            f"{record.name}: REGRESSION — speedup_vs_baseline "
            f"{record.speedup_vs_baseline:.3f} is below the floor "
            f"{min_speedup:g} (wall {record.wall_s:.3f}s vs baseline "
            f"{baseline_wall:.3f}s)"
        )
    return True, (
        f"{record.name}: wall {record.wall_s:.3f}s vs baseline "
        f"{baseline_wall:.3f}s ({record.speedup_vs_baseline:.2f}x)"
    )


def bench_filename(name: str) -> str:
    return f"BENCH_{name}.json"


def write_record(record: BenchRecord, out_dir=".") -> Path:
    """Write ``BENCH_<name>.json`` atomically; returns the path."""
    path = Path(out_dir) / bench_filename(record.name)
    atomic_write_json(path, asdict(record))
    return path


# -- canonical result serialization ----------------------------------------
def serialize_result(result: ExperimentResult) -> str:
    """A canonical, byte-stable string of everything the figures read.

    Two runs of the same spec must produce identical strings; the
    determinism regression test and the golden-equivalence test compare
    these directly.  Dataclass reprs are stable and cover every field, so
    they are used for the nested stat objects.
    """
    parts = [
        f"scale={result.scale}",
        f"elapsed_s={result.elapsed_s!r}",
        f"engine_steps={result.engine_steps}",
        f"vm={result.vm!r}",
        f"swap={sorted(result.swap.items())!r}",
    ]
    for process in result.processes:
        parts.append(
            "process "
            f"name={process.name} workload={process.workload} "
            f"version={process.version} completed={process.completed} "
            f"interactive={process.interactive} "
            f"sleep_time_s={process.sleep_time_s!r} "
            f"buckets={process.buckets!r} stats={process.stats!r} "
            f"worker_buckets={process.worker_buckets!r} "
            f"runtime={process.runtime!r} sweeps={process.sweeps!r}"
        )
    return "\n".join(parts)
