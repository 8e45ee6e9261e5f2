"""The resilient sweep orchestrator: journal, shards, chaos, kill/resume."""

import os
import signal
import subprocess
import sys
import textwrap
import time

import pytest

from repro.experiments import sweep as sweep_mod
from repro.experiments.sweep import (
    SweepAborted,
    SweepChaos,
    SweepError,
    SweepOptions,
    backoff_delay,
    collect_report,
    expand_grid,
    run_sweep,
    specs_from_meta,
    sweep_spec_key,
    sweep_status,
    synthetic_specs,
)
from repro.ioutil import append_journal_line, read_journal
from repro.machine import ExperimentSpec, SpecError


def _quick(jobs=1, **kwargs):
    """Options tuned for tests: no fsync stalls, tight heartbeats."""
    kwargs.setdefault("heartbeat_s", 0.05)
    kwargs.setdefault("fsync_journal", False)
    kwargs.setdefault("backoff_base_s", 0.0)
    return SweepOptions(jobs=jobs, **kwargs)


# -- journal primitives ------------------------------------------------------


class TestJournal:
    def test_round_trip(self, tmp_path):
        journal = tmp_path / "j.jsonl"
        records = [{"event": "spec", "index": i} for i in range(5)]
        for record in records:
            append_journal_line(journal, record, fsync=False)
        assert read_journal(journal) == records

    def test_missing_journal_reads_empty(self, tmp_path):
        assert read_journal(tmp_path / "absent.jsonl") == []

    def test_torn_tail_is_dropped(self, tmp_path):
        journal = tmp_path / "j.jsonl"
        append_journal_line(journal, {"index": 0}, fsync=False)
        append_journal_line(journal, {"index": 1}, fsync=False)
        with journal.open("ab") as handle:
            handle.write(b'{"index": 2, "status": "o')  # crash mid-append
        assert read_journal(journal) == [{"index": 0}, {"index": 1}]

    def test_mid_file_corruption_raises(self, tmp_path):
        journal = tmp_path / "j.jsonl"
        journal.write_bytes(b'{"index": 0}\ngarbage\n{"index": 2}\n')
        with pytest.raises(ValueError, match="line 2"):
            read_journal(journal)

    def test_non_object_line_raises(self, tmp_path):
        journal = tmp_path / "j.jsonl"
        journal.write_bytes(b'{"index": 0}\n[1, 2]\n{"index": 2}\n')
        with pytest.raises(ValueError):
            read_journal(journal)


# -- backoff -----------------------------------------------------------------


class TestBackoff:
    def test_deterministic(self):
        assert backoff_delay("k", 2, 0.25) == backoff_delay("k", 2, 0.25)

    def test_exponential_envelope(self):
        # base * 2^(n-1) <= delay < base * 2^n (jitter in [0, 1)).
        for attempt in (1, 2, 3, 4):
            delay = backoff_delay("key", attempt, 0.25)
            floor = 0.25 * 2 ** (attempt - 1)
            assert floor <= delay < 2 * floor

    def test_jitter_desynchronizes_keys(self):
        delays = {backoff_delay(f"key-{i}", 1, 1.0) for i in range(8)}
        assert len(delays) == 8


# -- synthetic specs and grid expansion --------------------------------------


class TestSpecs:
    def test_synthetic_fail_every(self):
        specs = synthetic_specs(10, fail_every=3)
        assert [s.fail for s in specs] == [
            False, False, True, False, False, True, False, False, True, False,
        ]
        assert len({sweep_spec_key(s) for s in specs}) == 10

    def test_synthetic_rejects_empty(self):
        with pytest.raises(SweepError):
            synthetic_specs(0)

    def test_expand_grid_cross_product(self):
        specs = expand_grid(
            {
                "scale": "tiny",
                "axes": {"benchmark": ["MATVEC", "EMBAR"], "version": ["B", "R"]},
            }
        )
        assert len(specs) == 4
        assert all(isinstance(s, ExperimentSpec) for s in specs)
        # Fixed axis order: benchmark varies slowest.
        assert [s.processes[0].workload for s in specs] == [
            "MATVEC", "MATVEC", "EMBAR", "EMBAR",
        ]

    def test_expand_grid_is_deterministic(self):
        grid = {
            "scale": "tiny",
            "faults": {"disk": {"io_error_prob": 0.01}},
            "axes": {"benchmark": ["MATVEC"], "fault_seed": [1, 2]},
        }
        first = [sweep_spec_key(s) for s in expand_grid(dict(grid))]
        second = [sweep_spec_key(s) for s in expand_grid(dict(grid))]
        assert first == second
        assert len(set(first)) == 2  # the seed axis discriminates

    def test_expand_grid_rejects_unknown_keys(self):
        with pytest.raises(SpecError, match="unknown sweep grid keys"):
            expand_grid({"benchmark": ["MATVEC"]})
        with pytest.raises(SpecError, match="unknown sweep grid axes"):
            expand_grid({"axes": {"benchmark": ["MATVEC"], "bogus": [1]}})
        with pytest.raises(SpecError, match="'benchmark' axis"):
            expand_grid({"axes": {}})


# -- inline sweeps -----------------------------------------------------------


class TestInlineSweep:
    def test_complete_run_and_digest(self, tmp_path):
        specs = synthetic_specs(12, fail_every=5)
        report = run_sweep(specs, tmp_path / "a", options=_quick())
        counts = report.counts()
        assert counts == {"total": 12, "ok": 10, "failure": 2, "quarantined": 0}
        # Same specs, fresh state dir: byte-identical merged digest.
        again = run_sweep(specs, tmp_path / "b", options=_quick())
        assert again.digest == report.digest

    def test_failures_are_never_cached(self, tmp_path):
        specs = synthetic_specs(6, fail_every=2)
        run_sweep(specs, tmp_path / "s", options=_quick())
        cached = {p.stem for p in (tmp_path / "s" / "cache").rglob("*.pkl")}
        for spec in specs:
            key = sweep_spec_key(spec)
            assert (key in cached) == (not spec.fail)

    def test_resume_skips_completed_work(self, tmp_path, monkeypatch):
        specs = synthetic_specs(8)
        first = run_sweep(specs, tmp_path / "s", options=_quick())
        # Everything is journaled: a resume must not execute a single cell.
        def forbidden(spec, timeout_s):
            raise AssertionError("resume re-ran a completed spec")

        monkeypatch.setattr(sweep_mod, "execute_guarded", forbidden)
        resumed = run_sweep(specs, tmp_path / "s", options=_quick(), resume=True)
        assert resumed.digest == first.digest

    def test_resume_adopts_unjournaled_cached_results(self, tmp_path, monkeypatch):
        specs = synthetic_specs(4)
        first = run_sweep(specs, tmp_path / "s", options=_quick())
        journal = tmp_path / "s" / "journal.jsonl"
        # Drop the final journal line: the classic crash window — result
        # cached, outcome not yet journaled.
        lines = journal.read_bytes().splitlines(keepends=True)
        journal.write_bytes(b"".join(lines[:-1]))

        def forbidden(spec, timeout_s):
            raise AssertionError("adoptable cached result was re-run")

        monkeypatch.setattr(sweep_mod, "execute_guarded", forbidden)
        resumed = run_sweep(specs, tmp_path / "s", options=_quick(), resume=True)
        assert resumed.digest == first.digest
        adopted = [o for o in resumed.outcomes if o.attempts == 0]
        assert len(adopted) == 1

    def test_resume_tolerates_torn_journal_tail(self, tmp_path):
        specs = synthetic_specs(5)
        first = run_sweep(specs, tmp_path / "s", options=_quick())
        with (tmp_path / "s" / "journal.jsonl").open("ab") as handle:
            handle.write(b'{"event": "spec", "ind')  # SIGKILL mid-append
        resumed = run_sweep(specs, tmp_path / "s", options=_quick(), resume=True)
        assert resumed.digest == first.digest

    def test_retries_and_attempt_accounting(self, tmp_path):
        specs = synthetic_specs(3, fail_every=3)
        report = run_sweep(
            specs, tmp_path / "s", options=_quick(retries=2)
        )
        failed = report.failures
        assert len(failed) == 1
        assert failed[0].attempts == 3  # 1 + 2 retries, then a terminal slot
        assert failed[0].status == "failure"

    def test_refuses_wrong_checkpoint(self, tmp_path):
        run_sweep(synthetic_specs(3), tmp_path / "s", options=_quick())
        with pytest.raises(SweepError, match="different sweep"):
            run_sweep(
                synthetic_specs(4), tmp_path / "s", options=_quick(), resume=True
            )

    def test_refuses_rerun_without_resume(self, tmp_path):
        specs = synthetic_specs(3)
        run_sweep(specs, tmp_path / "s", options=_quick())
        with pytest.raises(SweepError, match="resume"):
            run_sweep(specs, tmp_path / "s", options=_quick())

    def test_resume_requires_checkpoint(self, tmp_path):
        with pytest.raises(SweepError, match="no sweep checkpoint"):
            run_sweep(
                synthetic_specs(3), tmp_path / "void", options=_quick(), resume=True
            )

    def test_max_failures_aborts_then_resumes(self, tmp_path):
        specs = synthetic_specs(10, fail_every=1)  # every spec fails
        with pytest.raises(SweepAborted):
            run_sweep(specs, tmp_path / "s", options=_quick(max_failures=2))
        status = sweep_status(tmp_path / "s")
        assert status["aborted"] is True
        assert status["done"] < 10
        # Raising the budget resumes to completion; failures stay failures.
        report = run_sweep(specs, tmp_path / "s", options=_quick(), resume=True)
        assert report.counts()["failure"] == 10
        baseline = run_sweep(specs, tmp_path / "b", options=_quick())
        assert report.digest == baseline.digest

    def test_events_log_records_lifecycle(self, tmp_path):
        run_sweep(synthetic_specs(3), tmp_path / "s", options=_quick())
        kinds = [e["kind"] for e in read_journal(tmp_path / "s" / "events.jsonl")]
        assert kinds[0] == "sweep.start"
        assert kinds[-1] == "sweep.done"

    def test_status_and_collect(self, tmp_path):
        specs = synthetic_specs(6, fail_every=3)
        report = run_sweep(specs, tmp_path / "s", options=_quick())
        status = sweep_status(tmp_path / "s")
        assert status["total"] == 6
        assert status["pending"] == 0
        assert status["ok"] == 4 and status["failure"] == 2
        collected = collect_report(specs, tmp_path / "s")
        assert collected.digest == report.digest

    def test_specs_from_meta_round_trip(self, tmp_path):
        specs = synthetic_specs(5, fail_every=2)
        run_sweep(
            specs,
            tmp_path / "s",
            options=_quick(),
            describe={"synthetic": {"count": 5, "fail_every": 2, "sleep_s": 0.0}},
        )
        rebuilt = specs_from_meta(tmp_path / "s")
        assert [sweep_spec_key(s) for s in rebuilt] == [
            sweep_spec_key(s) for s in specs
        ]

    @pytest.mark.parametrize("meta", [b'{"version": 1, "cou', b"[1, 2]"])
    def test_corrupt_meta_is_a_sweep_error(self, tmp_path, meta):
        specs = synthetic_specs(2)
        run_sweep(specs, tmp_path / "s", options=_quick())
        (tmp_path / "s" / "meta.json").write_bytes(meta)
        with pytest.raises(SweepError, match="meta.json"):
            sweep_status(tmp_path / "s")
        with pytest.raises(SweepError, match="meta.json"):
            specs_from_meta(tmp_path / "s")
        with pytest.raises(SweepError, match="meta.json"):
            run_sweep(specs, tmp_path / "s", options=_quick(), resume=True)

    def test_results_share_the_runner_cache_layout(self, tmp_path):
        from repro.experiments.runner import cache_entries

        specs = synthetic_specs(4, fail_every=2)
        run_sweep(specs, tmp_path / "s", options=_quick())
        cache = tmp_path / "s" / "cache"
        entries = cache_entries(cache)
        assert {e.path.stem for e in entries} == {
            sweep_spec_key(s) for s in specs if not s.fail
        }
        assert {e.status for e in entries} == {"ok"}
        # A synthetic result filed under a key other than its own is stale.
        entries[0].path.rename(cache / ("0" * 64 + ".pkl"))
        assert sorted(e.status for e in cache_entries(cache)) == ["ok", "stale"]

    def test_specs_from_meta_requires_description(self, tmp_path):
        run_sweep(synthetic_specs(2), tmp_path / "s", options=_quick())
        with pytest.raises(SweepError, match="does not describe"):
            specs_from_meta(tmp_path / "s")


# -- sharded execution and chaos ---------------------------------------------


class TestShardedSweep:
    def test_sharded_matches_inline_digest(self, tmp_path):
        specs = synthetic_specs(24, fail_every=7)
        inline = run_sweep(specs, tmp_path / "a", options=_quick())
        sharded = run_sweep(specs, tmp_path / "b", options=_quick(jobs=3))
        assert sharded.digest == inline.digest
        # Work actually spread across pool workers.
        shards = {o.shard for o in sharded.ok}
        assert len(shards) > 1

    def test_worker_crash_requeues_once_then_recovers(self, tmp_path):
        specs = synthetic_specs(8)
        flaky = sweep_spec_key(specs[3])
        chaos = SweepChaos(crash_keys=(flaky,), max_attempt=1)  # flake, not poison
        report = run_sweep(
            specs, tmp_path / "s", options=_quick(jobs=2, chaos=chaos)
        )
        assert report.counts()["ok"] == 8
        events = read_journal(tmp_path / "s" / "events.jsonl")
        requeues = [e for e in events if e["kind"] == "sweep.requeue"]
        assert any(e["reason"] == "crash" for e in requeues)

    def test_poison_crash_is_quarantined(self, tmp_path):
        specs = synthetic_specs(6)
        poison = sweep_spec_key(specs[2])
        chaos = SweepChaos(crash_keys=(poison,))  # crashes on every attempt
        report = run_sweep(
            specs, tmp_path / "s", options=_quick(jobs=2, chaos=chaos)
        )
        counts = report.counts()
        assert counts["ok"] == 5 and counts["quarantined"] == 1
        bad = [o for o in report.outcomes if o.status == "quarantined"][0]
        assert bad.key == poison and bad.kind == "crash"
        # The poison spec must not have left a cached "result" anywhere.
        cached = {p.stem for p in (tmp_path / "s" / "cache").rglob("*.pkl")}
        assert poison not in cached
        events = read_journal(tmp_path / "s" / "events.jsonl")
        assert sum(1 for e in events if e["kind"] == "sweep.requeue") == 1
        assert sum(1 for e in events if e["kind"] == "sweep.quarantine") == 1

    def test_hung_worker_is_shot_and_quarantined(self, tmp_path):
        specs = synthetic_specs(6)
        wedged = sweep_spec_key(specs[1])
        chaos = SweepChaos(hang_keys=(wedged,))  # heartbeat silenced + sleep
        report = run_sweep(
            specs,
            tmp_path / "s",
            options=_quick(jobs=2, hang_timeout_s=0.4, chaos=chaos),
        )
        counts = report.counts()
        assert counts["ok"] == 5 and counts["quarantined"] == 1
        bad = [o for o in report.outcomes if o.status == "quarantined"][0]
        assert bad.key == wedged and bad.kind == "hang"

    def test_hang_flake_recovers_on_requeue(self, tmp_path):
        specs = synthetic_specs(4)
        wedged = sweep_spec_key(specs[0])
        chaos = SweepChaos(hang_keys=(wedged,), max_attempt=1)
        report = run_sweep(
            specs,
            tmp_path / "s",
            options=_quick(jobs=2, hang_timeout_s=0.4, chaos=chaos),
        )
        assert report.counts()["ok"] == 4


# -- kill/resume equivalence -------------------------------------------------


_KILL_SCRIPT = textwrap.dedent(
    """
    import sys
    from repro.experiments.sweep import SweepOptions, run_sweep, synthetic_specs

    state_dir = sys.argv[1]
    specs = synthetic_specs(30, fail_every=11, sleep_s=0.15)
    run_sweep(
        specs,
        state_dir,
        options=SweepOptions(jobs=2, heartbeat_s=0.05),
    )
    """
)


class TestKillResume:
    def test_sigkill_then_resume_is_byte_identical(self, tmp_path):
        """SIGKILL the orchestrator mid-sweep; resume must converge on the
        exact merged digest of an uninterrupted run."""
        specs = synthetic_specs(30, fail_every=11, sleep_s=0.15)
        state = tmp_path / "interrupted"
        from pathlib import Path

        env = dict(os.environ)
        src_root = str(Path(sweep_mod.__file__).resolve().parents[2])
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in (src_root, env.get("PYTHONPATH", "")) if p
        )
        proc = subprocess.Popen(
            [sys.executable, "-c", _KILL_SCRIPT, str(state)], env=env
        )
        journal = state / "journal.jsonl"
        deadline = time.monotonic() + 30
        # Kill once real progress is journaled but well before completion.
        while time.monotonic() < deadline:
            if journal.exists() and len(read_journal(journal)) >= 4:
                break
            if proc.poll() is not None:
                pytest.fail("sweep finished before it could be killed")
            time.sleep(0.02)
        proc.send_signal(signal.SIGKILL)
        proc.wait(timeout=10)
        done_at_kill = len(read_journal(journal))
        assert 0 < done_at_kill < 30

        resumed = run_sweep(
            specs, state, options=_quick(jobs=2), resume=True
        )
        clean = run_sweep(specs, tmp_path / "clean", options=_quick())
        assert resumed.digest == clean.digest
        assert resumed.counts() == clean.counts()
        # No journaled work was re-executed: the journal only grew.
        assert len(resumed.outcomes) == 30


# -- options validation ------------------------------------------------------


class TestOptions:
    @pytest.mark.parametrize(
        "kwargs",
        [
            {"jobs": 0},
            {"retries": -1},
            {"timeout_s": 0},
            {"heartbeat_s": 0},
            {"hang_timeout_s": 0},
            {"batch_size": 0},
            {"max_failures": -1},
            {"backoff_base_s": -0.1},
        ],
    )
    def test_rejects_bad_options(self, kwargs, tmp_path):
        with pytest.raises(SweepError):
            run_sweep(
                synthetic_specs(1), tmp_path / "s", options=SweepOptions(**kwargs)
            )

    def test_rejects_empty_sweep(self, tmp_path):
        with pytest.raises(SweepError):
            run_sweep([], tmp_path / "s", options=_quick())


# -- scale: many specs, bounded memory ---------------------------------------


def test_thousand_spec_sweep_completes_quickly(tmp_path):
    """The journal/cache path must stay O(1) per spec: a four-digit sweep
    of no-op cells is seconds, not minutes (the CI job runs 10k)."""
    specs = synthetic_specs(1000, fail_every=97)
    report = run_sweep(specs, tmp_path / "s", options=_quick())
    counts = report.counts()
    assert counts["total"] == 1000
    assert counts["failure"] == 1000 // 97
    status = sweep_status(tmp_path / "s")
    assert status["pending"] == 0
