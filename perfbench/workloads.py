"""The four workloads: what one pass runs, and how its output is checked.

Each workload runs the program only through the paths users take: the
``repro`` command line and the HTTP service.  A pass is one sweep over the
workload's fixed input; the benchmark repeats passes for the run's
measuring window and reports medians.
"""

from __future__ import annotations

import hashlib
import json
import random
import shutil
import threading
import time
from pathlib import Path

import inputs
from harness import (
    OP_TIMEOUT_S,
    BenchError,
    Pass,
    children_usage,
    read_trace,
    request_flush,
    stop_process,
    subtract,
    tree_usage,
)

#: ``ServiceClient.wait`` poll interval.  The client's 0.2 s default would
#: round every served latency up to a multiple of it.
POLL_S = 0.01

#: Client threads (and so connections) of the served closed loop.
CLIENTS = 2

#: The ``sweep status --expect`` value once a cell has failed its pin: a
#: sha256 hex digest no real sweep produces, so the gate rejects every pass.
UNREACHABLE_DIGEST = "0" * 64


def _registry():
    from repro.scenarios import builtin_registry

    return builtin_registry()


def _spec_key(document, registry):
    from repro.experiments.runner import spec_key
    from repro.scenarios import compile_scenario

    (spec,) = compile_scenario(document, registry=registry).specs
    return spec_key(spec)


class Workload:
    """Interface: ``setup`` (timed, repeatable), ``prepare``, ``run_pass``."""

    name = ""

    def __init__(self, ctx, pins):
        self.ctx = ctx
        self.pins = pins
        self.problems = []

    def setup(self):
        self.ctx.compile_package()

    def prepare(self):
        """Untimed work the checks need, done once after set-up."""

    def run_pass(self, index, trace_dir):
        raise NotImplementedError

    def begin_traced(self, trace_root):
        """Switch to traced passes (a long-lived server restarts traced)."""

    def usage(self):
        """Cumulative (CPU seconds, peak RSS MB) of the workload's processes."""
        return children_usage()

    def finish(self):
        """Final checks after the last pass: (checks attempted, failed)."""
        return 0, 0

    def close(self):
        """Stop everything this workload started."""

    def fail(self, message):
        if len(self.problems) < 20:
            self.problems.append(message)


class MixRun(Workload):
    """``repro run --scenario <file> --digest`` for each standard-mix spec."""

    name = "mix_run"

    def setup(self):
        super().setup()
        documents = inputs.mix_documents()
        random.Random(f"mix_run/{self.ctx.seed}").shuffle(documents)
        folder = self.ctx.work / "mix"
        shutil.rmtree(folder, ignore_errors=True)
        folder.mkdir(parents=True)
        self.files = []
        for document in documents:
            path = folder / f"{document['name']}.json"
            path.write_text(json.dumps(document), encoding="utf-8")
            self.files.append((document, path))

    def prepare(self):
        registry = _registry()
        self.expected = {}
        self.sim_s = 0.0
        for document, _path in self.files:
            serialized = self.pins["mix"][document["name"]]
            key = _spec_key(document, registry)
            self.expected[document["name"]] = inputs.sha256(inputs.digest_line(key, serialized))
            self.sim_s += inputs.elapsed_s(serialized)

    def run_pass(self, index, trace_dir):
        latencies = []
        failed = 0
        for document, path in self.files:
            wall, proc = self.ctx.run(
                ["-m", "repro", "run", "--scenario", str(path), "--digest"], trace_dir
            )
            latencies.append(wall)
            digest = _last_field(proc, "scenario digest:")
            if digest != self.expected[document["name"]]:
                failed += 1
                self.fail(f"{document['name']}: digest {digest} != pinned result")
        return Pass(
            wall=sum(latencies),
            latencies=latencies,
            specs=len(self.files),
            sim_s=self.sim_s,
            attempted=len(self.files),
            failed=failed,
            layers=read_trace(trace_dir) if trace_dir else {},
        )


class FigureGrid(Workload):
    """``repro figure 7|10bc|8|9`` at tiny scale over one fresh shared cache."""

    name = "figure_grid"

    def prepare(self):
        self.order = inputs.figure_order(self.ctx.seed)
        figures = self.pins["figures"]
        self.specs = sum(figures[number]["specs"] for number in self.order)
        self.sim_s = sum(figures[number]["sim_s"] for number in self.order)

    def run_pass(self, index, trace_dir):
        cache = self.ctx.work / "figure-cache" / str(index)
        latencies = []
        failed = 0
        for number in self.order:
            wall, proc = self.ctx.run(
                ["-m", "repro", "figure", number, "--scale", "tiny", "--jobs", "2",
                 "--cache-dir", str(cache)],
                trace_dir,
            )
            latencies.append(wall)
            expected = self.pins["figures"][number]["stdout"]
            if proc is None or proc.returncode != 0 or proc.stdout != expected:
                failed += 1
                self.fail(f"figure {number}: output differs from the pinned figure")
        shutil.rmtree(cache, ignore_errors=True)
        return Pass(
            wall=sum(latencies),
            latencies=[sum(latencies)],
            specs=self.specs,
            sim_s=self.sim_s,
            attempted=len(self.order),
            failed=failed,
            layers=read_trace(trace_dir) if trace_dir else {},
        )


class SweepGrid(Workload):
    """``repro sweep run --grid`` over ``grid_wide``, then ``sweep status``."""

    name = "sweep_grid"

    def setup(self):
        super().setup()
        self.grid = inputs.sweep_grid(self.ctx.seed)
        self.grid_path = self.ctx.work / "grid.json"
        self.grid_path.write_text(json.dumps(self.grid), encoding="utf-8")

    def prepare(self):
        from repro.experiments.sweep import expand_grid

        axes = self.grid["axes"]
        self.cells = [
            inputs.grid_cell_name(benchmark, version, sleep)
            for benchmark in axes["benchmark"]
            for version in axes["version"]
            for sleep in axes["sleep"]
        ]
        self.specs = expand_grid(json.loads(json.dumps(self.grid)))
        self.expected = None
        self.sim_s = 0.0

    def _check_cells(self, state_dir):
        """Check every stored result against its pin.

        Returns (the digest ``sweep status --expect`` must accept, the
        number of cells that failed the check).  The results are read
        through ``collect_report``, the library call behind ``sweep status
        --digest``, with ``serialize_result`` observed so each spec's bytes
        can be checked on their own.  If any cell fails, the digest is
        ``UNREACHABLE_DIGEST``, so every later pass's gate fails too.
        """
        import repro.bench as bench
        from repro.experiments.sweep import collect_report, sweep_spec_key

        captured = []
        original = bench.serialize_result

        def capture(result):
            text = original(result)
            captured.append(text)
            return text

        bench.serialize_result = capture
        try:
            collect_report(self.specs, state_dir)
        finally:
            bench.serialize_result = original
        if len(captured) != len(self.specs):
            self.fail(f"sweep stored {len(captured)} of {len(self.specs)} results")
            return UNREACHABLE_DIGEST, len(self.specs)
        merged = hashlib.sha256()
        mismatched = 0
        for cell, spec, text in zip(self.cells, self.specs, captured):
            if inputs.sha256(text) != self.pins["grid"][cell]:
                mismatched += 1
                self.fail(f"sweep cell {cell}: result differs from its pin")
            merged.update(inputs.digest_line(sweep_spec_key(spec), text).encode("utf-8"))
            self.sim_s += inputs.elapsed_s(text)
        if mismatched:
            return UNREACHABLE_DIGEST, mismatched
        return merged.hexdigest(), 0

    def run_pass(self, index, trace_dir):
        state = self.ctx.work / "sweep" / str(index)
        run_wall, proc = self.ctx.run(
            ["-m", "repro", "sweep", "run", "--grid", str(self.grid_path), "--jobs", "2",
             "--state-dir", str(state)],
            trace_dir,
        )
        attempted = 2
        failed = 0
        if proc is None or proc.returncode != 0:
            failed += 1
            self.fail("sweep run failed")
        elif self.expected is None:
            self.expected, mismatched = self._check_cells(state)
            attempted += len(self.specs)
            failed += mismatched
        status_wall, proc = self.ctx.run(
            ["-m", "repro", "sweep", "status", "--state-dir", str(state), "--digest",
             "--expect", str(self.expected)],
            trace_dir,
        )
        if proc is None or proc.returncode != 0:
            failed += 1
            self.fail("sweep status --expect rejected the merged digest")
        shutil.rmtree(state, ignore_errors=True)
        layers = read_trace(trace_dir) if trace_dir else {}
        layers["sweep.status_s"] = status_wall
        return Pass(
            wall=run_wall + status_wall,
            latencies=[run_wall + status_wall],
            specs=len(self.specs),
            sim_s=self.sim_s,
            attempted=attempted,
            failed=failed,
            layers=layers,
        )


class ServedJobs(Workload):
    """Two closed-loop clients submitting scenario documents to ``repro serve``."""

    name = "served_jobs"

    def __init__(self, ctx, pins):
        super().__init__(ctx, pins)
        self.server = None
        self.trace_dir = None
        self.snapshot = {}
        self.starts = 0
        self.last = {}

    def setup(self):
        super().setup()
        self._start_server()

    def _start_server(self, trace_dir=None):
        from repro.service.client import ServiceClient, ServiceError

        self.close()
        self.starts += 1
        state = self.ctx.work / "served" / str(self.starts)
        state.mkdir(parents=True)
        log = state.with_suffix(".log")
        self.server = self.ctx.spawn(
            ["-m", "repro", "serve", "--state-dir", str(state), "--pool-workers", "2"],
            log,
            trace_dir,
        )
        deadline = time.monotonic() + 60
        while True:
            if self.server.poll() is not None or time.monotonic() > deadline:
                raise BenchError(f"repro serve did not come up: {log.read_text()[-500:]}")
            try:
                self.client = ServiceClient.discover(state, timeout=OP_TIMEOUT_S)
                self.client.healthz()
                break
            except (ServiceError, OSError):
                time.sleep(0.01)
        # One discarded job per client warms both pool workers.
        warm = inputs.served_documents(-1)[:CLIENTS]
        errors = []
        threads = [threading.Thread(target=self._warm, args=(doc, errors)) for doc in warm]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        if errors:
            raise BenchError(f"warm-up job failed: {errors[0]}")

    def _warm(self, document, errors):
        client = type(self.client)(self.client.base_url, timeout=OP_TIMEOUT_S)
        try:
            job = client.submit(document=document)
            client.wait(job["id"], timeout=OP_TIMEOUT_S, poll=POLL_S)
            client.serialized(job["id"])
        except Exception as exc:  # reported by the caller, which raises
            errors.append(repr(exc))

    def begin_traced(self, trace_root):
        self.trace_dir = Path(trace_root) / "server"
        self.trace_dir.mkdir(parents=True)
        self._start_server(self.trace_dir)
        self.snapshot = request_flush(self.trace_dir, self.server.pid, 0)

    def usage(self):
        return tree_usage(self.server.pid)

    def run_pass(self, index, trace_dir):
        registry = _registry()
        salt = index + 1
        documents = inputs.served_documents(salt)
        keys = [_spec_key(document, registry) for document in documents]
        # A new schedule each pass: a run's median then spans many
        # schedules, so the seed barely moves it.
        schedule = inputs.served_schedule(f"{self.ctx.seed}/{index}", len(documents))
        queue = list(reversed(schedule))
        lock = threading.Lock()
        records = []

        def client_loop():
            client = type(self.client)(self.client.base_url, timeout=OP_TIMEOUT_S)
            calls = {"polls": 0, "poll_s": 0.0}
            poll = client.job

            def counted(job_id):
                started = time.perf_counter()
                try:
                    return poll(job_id)
                finally:
                    calls["polls"] += 1
                    calls["poll_s"] += time.perf_counter() - started

            client.job = counted
            while True:
                with lock:
                    if not queue:
                        return
                    doc = queue.pop()
                records.append(self._one_job(client, calls, documents[doc], keys[doc]))

        started = time.perf_counter()
        threads = [threading.Thread(target=client_loop) for _ in range(CLIENTS)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        wall = time.perf_counter() - started
        layers = {}
        if self.trace_dir is not None:
            snapshot = request_flush(self.trace_dir, self.server.pid, index + 1)
            layers = subtract(snapshot, self.snapshot)
            self.snapshot = snapshot
        for name in ("submit_s", "poll_s", "fetch_s", "polls", "executed", "cache_hits",
                     "dedup_waits"):
            layers["client." + name] = sum(record[name] for record in records)
        return Pass(
            wall=wall,
            latencies=[record["latency"] for record in records],
            specs=len(records),
            sim_s=sum(record["sim_s"] for record in records),
            attempted=len(records),
            failed=sum(record["failed"] for record in records),
            layers=layers,
        )

    def _one_job(self, client, calls, document, key):
        name = document["name"]
        polls_before, poll_s_before = calls["polls"], calls["poll_s"]
        record = {"failed": 1, "sim_s": 0.0, "executed": 0, "cache_hits": 0, "dedup_waits": 0}
        started = time.perf_counter()
        try:
            job = client.submit(document=document)
            submitted = time.perf_counter()
            snapshot = client.wait(job["id"], timeout=OP_TIMEOUT_S, poll=POLL_S)
            waited = time.perf_counter()
            text = client.serialized(job["id"])
        except Exception as exc:  # any failure is this job's, counted below
            self.fail(f"{name}: {exc!r}")
            record.update(latency=time.perf_counter() - started, submit_s=0.0,
                          fetch_s=0.0, polls=0, poll_s=0.0)
            return record
        finished = time.perf_counter()
        record.update(
            latency=finished - started,
            submit_s=submitted - started,
            fetch_s=finished - waited,
            polls=calls["polls"] - polls_before,
            poll_s=calls["poll_s"] - poll_s_before,
            executed=snapshot.get("executed", 0),
            cache_hits=snapshot.get("cache_hits", 0),
            dedup_waits=snapshot.get("dedup_waits", 0),
        )
        header = f"# spec 0 key={key}\n"
        serialized = text[len(header):-1]
        pin = self.pins["served"][name]
        if (
            snapshot.get("status") != "done"
            or not text.startswith(header)
            or inputs.sha256(serialized) != pin["digest"]
            or snapshot.get("digest") != inputs.sha256(inputs.digest_line(key, serialized))
        ):
            self.fail(f"{name}: served result differs from its pin")
            return record
        record.update(failed=0, sim_s=pin["sim_s"])
        self.last[name] = (document, snapshot["digest"])
        return record

    def finish(self):
        """Each served digest must equal ``repro run --scenario --digest``'s.

        ``run_direct`` is the library call behind that command; it runs
        the last pass's documents again in this process.
        """
        from repro.scenarios import compile_scenario
        from repro.service.jobs import run_direct

        registry = _registry()
        failed = 0
        for name, (document, served) in sorted(self.last.items()):
            _outcomes, direct = run_direct(compile_scenario(document, registry=registry))
            if direct != served:
                failed += 1
                self.fail(f"{name}: served digest differs from repro run --scenario --digest")
        return len(self.last), failed

    def close(self):
        if self.server is not None:
            stop_process(self.server)
            self.server = None


WORKLOADS = {cls.name: cls for cls in (MixRun, FigureGrid, SweepGrid, ServedJobs)}


def _last_field(proc, prefix):
    if proc is None or proc.returncode != 0:
        return None
    for line in reversed(proc.stdout.splitlines()):
        if line.startswith(prefix):
            return line[len(prefix):].strip()
    return None
