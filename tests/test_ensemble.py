"""Monte Carlo fault ensembles: seed streams, bootstrap CIs, end-to-end."""

import pytest

from repro.experiments.ensemble import (
    EnsembleSpec,
    bootstrap_ci,
    ensemble_metrics,
    format_ensemble_table,
    run_ensemble,
)
from repro.experiments.sweep import SweepOptions
from repro.faults import FaultPlan, FaultPlanError, seed_stream
from repro.machine import ExperimentSpec, SpecError


def _faulty_spec(scale):
    plan = FaultPlan.from_dict({"disk": {"io_error_prob": 0.02}})
    return ExperimentSpec.multiprogram(scale, "MATVEC", "R").with_faults(plan)


class TestSeedStream:
    def test_deterministic_and_distinct(self):
        first = seed_stream(7, 16)
        assert first == seed_stream(7, 16)
        assert len(set(first)) == 16

    def test_prefix_property(self):
        # Growing an ensemble keeps the existing members' seeds.
        assert seed_stream(7, 32)[:8] == seed_stream(7, 8)

    def test_base_seed_discriminates(self):
        assert set(seed_stream(1, 8)).isdisjoint(seed_stream(2, 8))

    def test_fan_out(self):
        plan = FaultPlan.from_dict({"disk": {"io_error_prob": 0.02}})
        plans = plan.fan_out(4, base_seed=9)
        assert [p.seed for p in plans] == list(seed_stream(9, 4))
        assert all(p.disk.io_error_prob == 0.02 for p in plans)

    def test_rejects_bad_count(self):
        with pytest.raises(FaultPlanError):
            seed_stream(0, -1)


class TestBootstrap:
    def test_deterministic_for_fixed_seed(self):
        values = [1.0, 2.0, 3.0, 4.0, 5.0]
        first = bootstrap_ci(values, resamples=500, seed=3, label="x")
        assert first == bootstrap_ci(values, resamples=500, seed=3, label="x")

    def test_seed_and_label_discriminate(self):
        # Few resamples so the percentile endpoints expose the stream: the
        # 2.5% index of 25 sorted means is the minimum resampled mean.
        values = [0.93, 2.17, 3.01, 4.44, 5.38, 7.77]
        a = bootstrap_ci(values, resamples=25, seed=3, label="x")
        b = bootstrap_ci(values, resamples=25, seed=4, label="x")
        c = bootstrap_ci(values, resamples=25, seed=3, label="y")
        assert a != b and a != c

    def test_interval_brackets_mean(self):
        values = [10.0, 12.0, 9.0, 11.0, 13.0, 10.5]
        ci = bootstrap_ci(values, resamples=2000, seed=0)
        assert min(values) <= ci["lo"] <= ci["mean"] <= ci["hi"] <= max(values)

    def test_single_value_degenerates(self):
        assert bootstrap_ci([4.2]) == {"mean": 4.2, "lo": 4.2, "hi": 4.2}

    def test_validation(self):
        with pytest.raises(FaultPlanError):
            bootstrap_ci([])
        with pytest.raises(FaultPlanError):
            bootstrap_ci([1.0], alpha=1.5)
        with pytest.raises(FaultPlanError):
            bootstrap_ci([1.0], resamples=0)


class TestEnsembleSpec:
    def test_expand_uses_derived_seeds(self, scale):
        ensemble = EnsembleSpec(base=_faulty_spec(scale), seeds=4, base_seed=5)
        members = ensemble.expand()
        assert [m.faults.seed for m in members] == list(seed_stream(5, 4))
        # Everything but the fault seed is shared.
        assert len({m.processes for m in members}) == 1

    def test_requires_two_seeds(self, scale):
        with pytest.raises(SpecError, match=">= 2 seeds"):
            EnsembleSpec(base=_faulty_spec(scale), seeds=1).expand()

    def test_requires_enabled_faults(self, scale):
        base = ExperimentSpec.multiprogram(scale, "MATVEC", "R")
        with pytest.raises(SpecError, match="no enabled fault plan"):
            EnsembleSpec(base=base, seeds=4).expand()


class TestRunEnsemble:
    def test_end_to_end_deterministic(self, scale, tmp_path):
        ensemble = EnsembleSpec(base=_faulty_spec(scale), seeds=3, base_seed=1)
        first = run_ensemble(
            ensemble, state_dir=tmp_path / "a", resamples=100
        )
        second = run_ensemble(
            ensemble, state_dir=tmp_path / "b", resamples=100
        )
        assert first.members_ok == 3
        assert not first.failed_members
        assert first.sweep.digest == second.sweep.digest
        assert first.metrics == second.metrics
        names = [m.name for m in first.metrics]
        assert "elapsed_s" in names and "hard_faults" in names
        for metric in first.metrics:
            assert metric.n == 3
            assert metric.lo <= metric.mean <= metric.hi

    def test_resume_reuses_members(self, scale, tmp_path):
        ensemble = EnsembleSpec(base=_faulty_spec(scale), seeds=3, base_seed=1)
        first = run_ensemble(ensemble, state_dir=tmp_path / "s", resamples=100)
        resumed = run_ensemble(
            ensemble, state_dir=tmp_path / "s", resume=True, resamples=100
        )
        assert resumed.metrics == first.metrics
        # Resumed members came from the checkpoint, not fresh simulation.
        assert all(o.attempts <= 1 for o in resumed.sweep.outcomes)

    def test_all_members_failing_is_an_error(self, scale, tmp_path):
        ensemble = EnsembleSpec(base=_faulty_spec(scale), seeds=2, base_seed=1)
        with pytest.raises(SpecError, match="members succeeded"):
            run_ensemble(
                ensemble,
                state_dir=tmp_path / "s",
                options=SweepOptions(timeout_s=1e-4),
                resamples=50,
            )

    def test_table_renders(self, scale, tmp_path):
        ensemble = EnsembleSpec(base=_faulty_spec(scale), seeds=2, base_seed=1)
        report = run_ensemble(ensemble, state_dir=tmp_path / "s", resamples=50)
        table = format_ensemble_table(report, alpha=0.1)
        assert "ci90_lo" in table
        assert "unusable_free_index" in table


def test_ensemble_metrics_match_manual_bootstrap(scale, tmp_path):
    ensemble = EnsembleSpec(base=_faulty_spec(scale), seeds=2, base_seed=3)
    report = run_ensemble(ensemble, state_dir=tmp_path / "s", resamples=64)
    recomputed = ensemble_metrics(
        _collect_results(tmp_path / "s", report), base_seed=3, resamples=64
    )
    assert recomputed == report.metrics


def _collect_results(state_dir, report):
    from repro.experiments.runner import load_cached

    results = []
    for outcome in report.sweep.ok:
        result = load_cached(state_dir / "cache", outcome.key)
        assert result is not None
        results.append(result)
    return results
