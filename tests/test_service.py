"""Tests for the experiment service: dedupe, restart adoption, HTTP API."""

import json
import threading
import time

import pytest

from repro.scenarios import builtin_registry, compile_scenario
from repro.service import (
    ExperimentServer,
    JobChaos,
    JobError,
    JobManager,
    ServiceClient,
    ServiceError,
    run_direct,
)

MATVEC_DOC = {
    "scenario": 1,
    "name": "matvec-b",
    "scale": "tiny",
    "benchmark": "MATVEC",
    "version": "B",
}

SWEEP_DOC = {
    "scenario": 1,
    "name": "two-versions",
    "scale": "tiny",
    "sweep": {"axes": {"benchmark": ["MATVEC"], "version": ["O", "B"]}},
}


def wait_all(manager, snapshots, timeout=180):
    return [manager.wait(snap["id"], timeout=timeout) for snap in snapshots]


class TestDedupe:
    def test_concurrent_identical_submissions_execute_once(self, tmp_path):
        """Two racing submitters of the same spec: one execution, two jobs."""
        with JobManager(tmp_path / "state", workers=2) as manager:
            barrier = threading.Barrier(2)
            snapshots = [None, None]

            def submitter(slot):
                barrier.wait()
                snapshots[slot] = manager.submit(document=dict(MATVEC_DOC))

            threads = [
                threading.Thread(target=submitter, args=(slot,)) for slot in (0, 1)
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()
            first, second = wait_all(manager, snapshots)
            assert first.status == "done" and second.status == "done"
            # Exactly one execution across both jobs; the other job saw a
            # cache hit — the dedupe is visible in the job metadata.
            assert first.executed + second.executed == 1
            assert first.cache_hits + second.cache_hits == 1
            # And the results are byte-identical, not merely both present.
            assert manager.serialized_text(first.id) == manager.serialized_text(
                second.id
            )
            assert first.digest == second.digest

    def test_digest_matches_direct_run(self, tmp_path):
        with JobManager(tmp_path / "state", workers=1) as manager:
            snap = manager.submit(document=dict(MATVEC_DOC))
            record = manager.wait(snap["id"], timeout=180)
        compiled = compile_scenario(dict(MATVEC_DOC))
        _outcomes, digest = run_direct(compiled)
        assert record.digest == digest

    def test_submit_by_template(self, tmp_path):
        with JobManager(tmp_path / "state", workers=1) as manager:
            snap = manager.submit(template="standard-mix")
            record = manager.wait(snap["id"], timeout=180)
            assert record.status == "done"
            assert record.name == "standard-mix"


class TestRestartAdoption:
    def test_killed_manager_resumes_without_rework(self, tmp_path):
        """Die after one journaled spec; the restart adopts, skips it, and
        produces the same digest a clean run would."""
        state = tmp_path / "state"
        crashed = JobManager(state, workers=1, chaos=JobChaos(die_after_specs=1))
        crashed.start()
        snap = crashed.submit(document=dict(SWEEP_DOC))
        # The chaos point fires after the first spec's journal line lands.
        deadline = threading.Event()
        for _ in range(600):
            if crashed._dead:
                break
            deadline.wait(0.1)
        assert crashed._dead, "chaos death did not fire"
        crashed.stop()
        assert not crashed.job(snap["id"]).terminal  # mid-flight, no terminal

        with JobManager(state, workers=1) as revived:
            record = revived.wait(snap["id"], timeout=180)
            assert record.status == "done"
            assert record.adopted
            # One spec was adopted from the dead session's cache, one ran.
            assert record.cache_hits == 1
            assert record.executed == 1
        compiled = compile_scenario(dict(SWEEP_DOC))
        _outcomes, digest = run_direct(compiled)
        assert record.digest == digest

    def test_terminal_jobs_survive_restart(self, tmp_path):
        state = tmp_path / "state"
        with JobManager(state, workers=1) as manager:
            snap = manager.submit(document=dict(MATVEC_DOC))
            done = manager.wait(snap["id"], timeout=180)
        reloaded = JobManager(state, workers=1)
        record = reloaded.job(snap["id"])
        assert record.status == "done"
        assert record.digest == done.digest
        assert not record.adopted  # finished jobs are recalled, not re-run

    def test_lost_scenario_document_fails_the_job(self, tmp_path):
        """A queued job whose scenario.json is gone is marked failed on
        restart; the manager still starts and records job.finished."""
        state = tmp_path / "state"
        snap = JobManager(state).submit(document=dict(MATVEC_DOC))  # never started
        (state / "jobs" / snap["id"] / "scenario.json").unlink()
        revived = JobManager(state, workers=1)
        record = revived.job(snap["id"])
        assert record.status == "failed"
        assert "unrecoverable" in record.error
        kinds = [
            json.loads(line)["kind"]
            for line in revived.events_path(snap["id"]).read_text().splitlines()
        ]
        assert kinds == ["job.submitted", "job.finished"]

    def test_unknown_job_raises(self, tmp_path):
        manager = JobManager(tmp_path / "state")
        with pytest.raises(JobError, match="unknown job"):
            manager.job("j-999999")


class TestEventClock:
    def test_event_times_count_from_submit(self, tmp_path):
        """Each job's events share one clock started at submit, so ``t``
        grows through the lifecycle and covers the time the job waited."""
        manager = JobManager(tmp_path / "state", workers=1)
        snap = manager.submit(document=dict(MATVEC_DOC))  # queued: no workers yet
        submitted = time.monotonic()
        time.sleep(0.05)
        queued_for = time.monotonic() - submitted
        with manager:
            assert manager.wait(snap["id"], timeout=180).status == "done"
            path = manager.events_path(snap["id"])
            for _ in range(100):  # job.finished lands just after the wait
                events = {
                    entry["kind"]: entry["t"]
                    for entry in map(json.loads, path.read_text().splitlines())
                }
                if "job.finished" in events:
                    break
                time.sleep(0.05)
        assert events["job.submitted"] < events["job.start"] < events["job.finished"]
        assert events["job.start"] >= queued_for
        assert events["job.finished"] >= queued_for


class TestHTTP:
    def test_healthz_reports_version(self, server):
        from repro import __version__

        client = ServiceClient(server.url)
        payload = client.healthz()
        assert payload["status"] == "ok"
        assert payload["version"] == __version__

    def test_discovery_file(self, server):
        client = ServiceClient.discover(server.state_dir)
        assert client.healthz()["status"] == "ok"

    def test_scenarios_listing(self, server):
        names = {row["name"] for row in ServiceClient(server.url).scenarios()}
        assert "standard-mix" in names

    def test_submit_stream_fetch_roundtrip(self, server):
        client = ServiceClient(server.url)
        snap = client.submit(document=dict(MATVEC_DOC))
        kinds = [event["kind"] for event in client.stream_events(snap["id"])]
        assert kinds[0] == "job.submitted"
        assert "job.spec_done" in kinds
        assert kinds[-1] == "job.finished"
        final = client.wait(snap["id"], timeout=30)
        assert final["status"] == "done"
        result = client.result(snap["id"])
        # The HTTP path adds no behavior: digest equals the direct run's.
        compiled = compile_scenario(dict(MATVEC_DOC))
        _outcomes, digest = run_direct(compiled)
        assert result["digest"] == digest
        assert client.serialized(snap["id"]).startswith("# spec 0 key=")
        assert "MATVEC" in client.figure(snap["id"])

    def test_invalid_scenario_is_400_with_path(self, server):
        client = ServiceClient(server.url)
        with pytest.raises(ServiceError) as excinfo:
            client.submit(document={"scenario": 1, "benchmark": "NOPE"})
        assert excinfo.value.status == 400
        assert excinfo.value.path == "benchmark"
        assert "NOPE" in str(excinfo.value)

    def test_unknown_job_is_404(self, server):
        with pytest.raises(ServiceError) as excinfo:
            ServiceClient(server.url).job("j-424242")
        assert excinfo.value.status == 404

    def test_result_before_done_is_409(self, tmp_path):
        # A manager that never starts workers: the job stays queued.
        server = ExperimentServer(tmp_path / "state", workers=1)
        server.manager.start = lambda: None  # type: ignore[method-assign]
        with server:
            client = ServiceClient(server.url)
            snap = client.submit(document=dict(MATVEC_DOC))
            with pytest.raises(ServiceError) as excinfo:
                client.result(snap["id"])
            assert excinfo.value.status == 409

    def test_trace_endpoints(self, server):
        client = ServiceClient(server.url)
        doc = dict(MATVEC_DOC)
        doc["record_trace"] = True
        snap = client.submit(document=doc)
        client.wait(snap["id"], timeout=60)
        manifest = client.trace_manifest(snap["id"])
        assert manifest, "trace job produced no trace files"
        blob = client.trace(snap["id"], manifest[0])
        assert blob.startswith(b"RPROTRC1")

    def test_server_restart_adopts_over_http(self, tmp_path):
        state = tmp_path / "state"
        first = ExperimentServer(
            state, workers=1
        )
        first.manager._chaos = JobChaos(die_after_specs=1)
        first.start()
        try:
            client = ServiceClient(first.url)
            snap = client.submit(document=dict(SWEEP_DOC))
            for _ in range(600):
                if first.manager._dead:
                    break
                threading.Event().wait(0.1)
            assert first.manager._dead
        finally:
            first.stop()
        with ExperimentServer(state, workers=1) as second:
            final = ServiceClient(second.url).wait(snap["id"], timeout=180)
            assert final["status"] == "done"
            assert final["adopted"]
            assert final["cache_hits"] == 1


class TestTraceFormat:
    def test_trace_magic_matches_recorder(self, tmp_path):
        """Guard the magic-byte assertion above against format drift."""
        from repro.trace import record_experiment

        registry = builtin_registry()
        compiled = compile_scenario(
            registry.get("standard-mix"), registry=registry, name="standard-mix"
        )
        _result, paths = record_experiment(compiled.specs[0], tmp_path)
        path = next(iter(paths.values()))
        with open(path, "rb") as handle:
            assert handle.read(8) == b"RPROTRC1"


class TestJournalShape:
    def test_journal_orders_spec_before_terminal(self, tmp_path):
        state = tmp_path / "state"
        with JobManager(state, workers=1) as manager:
            snap = manager.submit(document=dict(MATVEC_DOC))
            manager.wait(snap["id"], timeout=180)
        events = [
            json.loads(line)
            for line in (state / "jobs.jsonl").read_text().splitlines()
        ]
        kinds = [(entry["event"], entry.get("status")) for entry in events]
        submitted = kinds.index(("job", "submitted"))
        spec = kinds.index(("spec", "ok"))
        done = kinds.index(("job", "done"))
        assert submitted < spec < done
