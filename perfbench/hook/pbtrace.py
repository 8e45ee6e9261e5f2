"""Layer tracer for the benchmark's traced runs.

Installed into every Python process of a traced run by the
``sitecustomize.py`` next to this file (the benchmark puts this directory
on ``PYTHONPATH`` and names an output directory in ``PERFBENCH_TRACE_DIR``).
It changes no program source: it wraps public functions of the ``repro``
package right after each module is imported, and samples the stack while
``Machine.run`` executes.

What one process records (all cumulative since the process started, or
since the fork that created it):

- wrapped calls: inclusive seconds and call counts per layer boundary
  (``Machine.from_spec/run/result``, ``serialize_result``, the runner
  cache, the wire codec, the warm pool and its workers, the journal,
  scenario compile and the job manager's lifecycle events);
- sampled self time inside ``Machine.run``: an ``ITIMER_PROF`` timer raises
  SIGPROF every millisecond of CPU time, and the CPU time since the last
  sample is charged to the innermost frame that belongs to a ``repro``
  package (``repro.sim``, ``repro.vm``, ``repro.core.runtime``, ...);
- exact simulated counts summed over every result ``Machine.result``
  returned, plus the bulk-lane and machine-template counters.

The totals are written as ``<pid>.json`` into the output directory when
the process exits, when a warm-pool worker or sweep shard leaves its loop,
and on SIGUSR1.  A SIGUSR1 flush stamps the record with the number in the
directory's ``epoch`` file, so the benchmark can snapshot a long-lived
server between passes and difference the snapshots.
"""

from __future__ import annotations

import atexit
import functools
import json
import os
import signal
import sys
import threading
import time

#: CPU seconds between stack samples inside ``Machine.run``.
SAMPLE_INTERVAL_S = 0.001

#: Packages the sampler reports on their own; any other ``repro`` module
#: (``repro.machine``, ``repro.faults``, ...) and non-repro code count as
#: ``other``.
LAYERS = (
    "sim",
    "vm",
    "kernel",
    "disk",
    "core.runtime",
    "core.compiler",
    "workloads",
    "policies",
    "obs",
)

_lock = threading.RLock()
_totals = {}
_local = threading.local()
_pools = []
_baselines = {}
_out_dir = None
_installed = False
_sampler = {"depth": 0, "thread": None, "last_cpu": 0.0, "last_layer": "other"}
_job_times = {}
_worker = []  # [prefix, start] while this process runs a worker loop
_missing = []


# -- accumulation ---------------------------------------------------------


def add(name, value):
    with _lock:
        _totals[name] = _totals.get(name, 0.0) + value


def _active():
    active = getattr(_local, "active", None)
    if active is None:
        active = _local.active = set()
    return active


def timed(name, fn, on_return=None):
    """Wrap ``fn``: charge inclusive seconds to ``name`` and count calls.

    A call nested inside another call charged to the same name is not
    charged twice (``WarmPool.run_one`` calls ``WarmPool.run``).
    """

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        active = _active()
        if name in active:
            return fn(*args, **kwargs)
        active.add(name)
        started = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        finally:
            elapsed = time.perf_counter() - started
            active.discard(name)
            with _lock:
                _totals[name + ".s"] = _totals.get(name + ".s", 0.0) + elapsed
                _totals[name + ".calls"] = _totals.get(name + ".calls", 0) + 1
        if on_return is not None:
            on_return(result, args, kwargs)
        return result

    return wrapper


# -- the stack sampler ----------------------------------------------------


def _layer_of(frame):
    while frame is not None:
        name = frame.f_globals.get("__name__", "")
        if name.startswith("repro."):
            parts = name.split(".")
            package = parts[1]
            if package == "core" and len(parts) > 2:
                package = "core." + parts[2]
            return package if package in LAYERS else "other"
        frame = frame.f_back
    return "other"


def _on_sigprof(signum, frame):
    state = _sampler
    if state["depth"] <= 0:
        return
    now = time.process_time()
    spent = now - state["last_cpu"]
    state["last_cpu"] = now
    thread = state["thread"]
    if thread != threading.get_ident():
        frame = sys._current_frames().get(thread)
    layer = _layer_of(frame)
    state["last_layer"] = layer
    with _lock:
        key = "layer." + layer
        _totals[key] = _totals.get(key, 0.0) + spent
        _totals["layer.samples"] = _totals.get("layer.samples", 0) + 1


def _sampler_start():
    state = _sampler
    state["depth"] += 1
    if state["depth"] > 1:
        return
    state["thread"] = threading.get_ident()
    state["last_cpu"] = time.process_time()
    state["last_layer"] = "other"
    try:
        signal.signal(signal.SIGPROF, _on_sigprof)
        signal.setitimer(signal.ITIMER_PROF, SAMPLE_INTERVAL_S, SAMPLE_INTERVAL_S)
    except (ValueError, OSError):
        state["thread"] = None  # not the main thread: no sampling


def _sampler_stop():
    state = _sampler
    state["depth"] -= 1
    if state["depth"] > 0 or state["thread"] is None:
        return
    try:
        signal.setitimer(signal.ITIMER_PROF, 0.0, 0.0)
    except (ValueError, OSError):
        pass
    # The CPU time after the last sample belongs where that sample was.
    add("layer." + state["last_layer"], time.process_time() - state["last_cpu"])
    state["thread"] = None


# -- per-module patches ---------------------------------------------------


def _count_result(result, args, kwargs):
    counts = {
        "sim.events": result.engine_steps,
        "vm.releaser_pages_freed": result.vm.releaser_pages_freed,
        "vm.daemon_pages_scanned": result.vm.daemon_pages_scanned,
        "vm.daemon_pages_stolen": result.vm.daemon_pages_stolen,
        "disk.demand_reads": result.swap["demand_reads"],
        "disk.prefetch_reads": result.swap["prefetch_reads"],
        "disk.writebacks": result.swap["writebacks"],
    }
    for process in result.processes:
        stats = process.stats
        counts["vm.hard_faults"] = counts.get("vm.hard_faults", 0) + stats.hard_faults
        counts["vm.soft_faults"] = counts.get("vm.soft_faults", 0) + stats.soft_faults
        counts["vm.rescues"] = counts.get("vm.rescues", 0) + stats.rescues
        runtime = process.runtime
        if runtime is not None:
            for field in (
                "prefetch_hints",
                "prefetch_enqueued",
                "release_pages_hinted",
                "release_pages_issued",
            ):
                key = "runtime." + field
                counts[key] = counts.get(key, 0) + getattr(runtime, field)
    with _lock:
        for key, value in counts.items():
            _totals[key] = _totals.get(key, 0) + value


def _patch_machine(module):
    machine = module.Machine
    from_spec = machine.__dict__["from_spec"].__func__
    machine.from_spec = classmethod(timed("machine.build", from_spec))
    run = machine.run

    @functools.wraps(run)
    def sampled_run(self, *args, **kwargs):
        _sampler_start()
        try:
            return run(self, *args, **kwargs)
        finally:
            _sampler_stop()

    machine.run = timed("machine.run", sampled_run)
    machine.result = timed("machine.result", machine.result, _count_result)
    _baselines["templates"] = dict(module.template_counters())


def _patch_bench(module):
    module.serialize_result = timed("serialize", module.serialize_result)


def _patch_runner(module):
    def on_load(result, args, kwargs):
        if result is not None:
            add("runner.cache_hits", 1)

    def on_store(result, args, kwargs):
        cache_dir, key = args[0], args[1]
        try:
            add("runner.cache_bytes", os.path.getsize(os.path.join(cache_dir, f"{key}.pkl")))
        except OSError:
            pass

    module.spec_key = timed("runner.spec_key", module.spec_key)
    module.load_cached = timed("runner.cache_load", module.load_cached, on_load)
    module.store_cached = timed("runner.cache_store", module.store_cached, on_store)


def _patch_wire(module):
    def on_encode(result, args, kwargs):
        add("wire.bytes", len(result))

    module.encode = timed("wire.encode", module.encode, on_encode)
    module.decode = timed("wire.decode", module.decode)


def _patch_pool(module):
    pool_class = module.WarmPool

    def remember(result, args, kwargs):
        pool = args[0]
        with _lock:
            if not any(known is pool for known in _pools):
                _pools.append(pool)

    pool_class.run = timed("pool.run", pool_class.run, remember)
    pool_class.run_one = timed("pool.run", pool_class.run_one, remember)
    module._execute_item = timed("pool.worker_busy", module._execute_item)
    module._execute_sweep_item = timed("sweep.worker_busy", module._execute_sweep_item)
    entry = module.worker_entry

    @functools.wraps(entry)
    def traced_entry(conn, name, *args, **kwargs):
        prefix = "sweep" if str(name).startswith("shard") else "pool"
        add(prefix + ".worker_spawns", 1)
        _worker[:] = [prefix, time.perf_counter()]
        try:
            return entry(conn, name, *args, **kwargs)
        finally:
            add(prefix + ".worker_life_s", time.perf_counter() - _worker[1])
            del _worker[:]
            flush()

    module.worker_entry = traced_entry
    recv = module.recv_frame

    @functools.wraps(recv)
    def recv_after_flush(conn):
        # A worker flushes each time it goes idle: its dispatcher may
        # SIGTERM it at exit without a stop frame.
        if _worker:
            flush()
        return recv(conn)

    module.recv_frame = recv_after_flush


_JOURNAL_CALLERS = {
    "repro.experiments.sweep": "sweep.journal_append",
    "repro.service.jobs": "service.journal",
    "repro.obs.sinks": "obs.events_append",
}


def _patch_ioutil(module):
    append = module.append_journal_line
    by_caller = {
        caller: timed(name, append) for caller, name in _JOURNAL_CALLERS.items()
    }
    other = timed("journal.other", append)

    @functools.wraps(append)
    def routed(*args, **kwargs):
        caller = sys._getframe(1).f_globals.get("__name__", "")
        return by_caller.get(caller, other)(*args, **kwargs)

    module.append_journal_line = routed


def _patch_schema(module):
    module.compile_scenario = timed("scenarios.compile", module.compile_scenario)


def _patch_jobs(module):
    manager = module.JobManager
    emit = manager._emit

    @functools.wraps(emit)
    def stamped(self, job_id, kind, payload):
        now = time.monotonic()
        with _lock:
            if kind == "job.submitted":
                _job_times[job_id] = now
            elif kind == "job.start":
                submitted = _job_times.pop(job_id, None)
                if submitted is not None:
                    _totals["service.queue_wait_s"] = (
                        _totals.get("service.queue_wait_s", 0.0) + now - submitted
                    )
                _job_times[job_id] = now
            elif kind == "job.finished":
                started = _job_times.pop(job_id, None)
                if started is not None:
                    _totals["service.exec_s"] = (
                        _totals.get("service.exec_s", 0.0) + now - started
                    )
        return emit(self, job_id, kind, payload)

    manager._emit = stamped


def _patch_fastlane(module):
    _baselines["fastlane"] = dict(module.COUNTERS)


_PATCHES = {
    "repro.machine": _patch_machine,
    "repro.bench": _patch_bench,
    "repro.experiments.runner": _patch_runner,
    "repro.experiments.wire": _patch_wire,
    "repro.experiments.pool": _patch_pool,
    "repro.ioutil": _patch_ioutil,
    "repro.scenarios.schema": _patch_schema,
    "repro.service.jobs": _patch_jobs,
    "repro.vm.fastlane": _patch_fastlane,
}


def _apply(name, module):
    """Patch ``module``; a function the program no longer has is skipped,
    so its metrics read 0 and the record names it under ``missing``."""
    try:
        _PATCHES[name](module)
    except (AttributeError, KeyError) as exc:
        _missing.append(f"{name}: {exc}")


class _PatchingFinder:
    """Meta-path finder that patches a target module right after it runs.

    It finds the module with the remaining finders and replaces the
    loader's ``exec_module`` for that one module, so every later
    ``from module import name`` already sees the wrapped function.
    """

    def find_spec(self, name, path=None, target=None):
        patch = _PATCHES.get(name)
        if patch is None:
            return None
        for finder in sys.meta_path:
            if finder is self or not hasattr(finder, "find_spec"):
                continue
            spec = finder.find_spec(name, path, target)
            if spec is not None:
                break
        else:
            return None
        loader = spec.loader
        original = loader.exec_module

        def exec_module(module):
            original(module)
            _apply(name, module)

        loader.exec_module = exec_module
        return spec


# -- output ---------------------------------------------------------------


def _record():
    with _lock:
        totals = dict(_totals)
        pools = list(_pools)
    if _worker:
        name = _worker[0] + ".worker_life_s"
        totals[name] = totals.get(name, 0.0) + time.perf_counter() - _worker[1]
    modules = sys.modules
    machine = modules.get("repro.machine")
    if machine is not None and "templates" in _baselines:
        now = machine.template_counters()
        base = _baselines["templates"]
        totals["machine.template_hits"] = now["hits"] - base.get("hits", 0)
        totals["machine.template_misses"] = now["misses"] - base.get("misses", 0)
    fastlane = modules.get("repro.vm.fastlane")
    if fastlane is not None and "fastlane" in _baselines:
        base = _baselines["fastlane"]
        for key in ("bulk_pages", "slow_pages"):
            totals["fastlane." + key] = fastlane.COUNTERS[key] - base.get(key, 0)
    for pool in pools:
        telemetry = pool.telemetry()
        for key in (
            "dispatches",
            "warm_dispatches",
            "specs_dispatched",
            "crashes",
            "snapshot_hits",
            "snapshot_misses",
            "workers_spawned",
        ):
            name = "pool." + key
            totals[name] = totals.get(name, 0) + telemetry[key]
    return totals


def _read_epoch():
    try:
        with open(os.path.join(_out_dir, "epoch"), encoding="utf-8") as handle:
            return int(handle.read().strip() or 0)
    except (OSError, ValueError):
        return 0


def flush(epoch=None):
    """Write this process's totals to ``<out_dir>/<pid>.json`` atomically."""
    if _out_dir is None:
        return
    record = {
        "pid": os.getpid(),
        "epoch": _read_epoch() if epoch is None else epoch,
        "argv": sys.argv[:3],
        "missing": _missing,
        "totals": _record(),
    }
    path = os.path.join(_out_dir, f"{os.getpid()}.json")
    tmp = f"{path}.tmp"
    try:
        with open(tmp, "w", encoding="utf-8") as handle:
            json.dump(record, handle)
        os.replace(tmp, path)
    except OSError:
        pass


def _on_sigusr1(signum, frame):
    flush()


def _after_fork_in_child():
    global _lock, _local
    _lock = threading.RLock()
    _local = threading.local()
    _totals.clear()
    _job_times.clear()
    del _pools[:]
    del _worker[:]
    _sampler.update(depth=0, thread=None)
    machine = sys.modules.get("repro.machine")
    if machine is not None:
        _baselines["templates"] = dict(machine.template_counters())
    fastlane = sys.modules.get("repro.vm.fastlane")
    if fastlane is not None:
        _baselines["fastlane"] = dict(fastlane.COUNTERS)


def install(out_dir):
    """Start tracing this process (and the processes it forks)."""
    global _out_dir, _installed
    if _installed:
        return
    _installed = True
    _out_dir = out_dir
    os.makedirs(out_dir, exist_ok=True)
    for name in _PATCHES:
        module = sys.modules.get(name)
        if module is not None:
            _apply(name, module)
    sys.meta_path.insert(0, _PatchingFinder())
    os.register_at_fork(after_in_child=_after_fork_in_child)
    atexit.register(flush)
    if threading.current_thread() is threading.main_thread():
        signal.signal(signal.SIGUSR1, _on_sigusr1)
