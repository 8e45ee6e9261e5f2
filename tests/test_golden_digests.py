"""Golden byte-identity: serialized results are pinned to committed digests.

``tests/golden/serialized_digests.json`` holds the SHA-256 of
``bench.serialize_result(run_experiment(spec))`` for every spec of every
committed benchmark case, captured on the tree *before* the memory-policy
seam (and before the heap engine backend was removed).  These tests re-run
each case on the current tree under the default policy and compare digests
— so the policy refactor, and any future engine or VM change, is held to
the "byte-identical results" contract rather than a fuzzy tolerance.

Each result is also stored in the runner's cache and loaded back.  A
loaded result serializes from the sweep-log text stored with it (see
:class:`repro.workloads.interactive.SweepLog`), so it must match too.

This supersedes ``test_engine_equivalence.py``: the heap scheduler these
goldens were originally A/B'd against is gone, and the frozen digests are
now the single source of truth for event-order identity.
"""

import hashlib
import json
from pathlib import Path

import pytest

from repro import bench
from repro.experiments.runner import load_cached, spec_key, store_cached
from repro.machine import run_experiment

GOLDEN_PATH = Path(__file__).parent / "golden" / "serialized_digests.json"
GOLDEN = json.loads(GOLDEN_PATH.read_text(encoding="utf-8"))

#: Only the cases frozen in the golden file: new bench cases (e.g. the
#: global-clock mix) assert determinism elsewhere, not pre-refactor bytes.
CASES = sorted(GOLDEN["cases"])


def _digests(spec, cache):
    """Digests of the fresh result and of the same result stored in the
    runner's cache and loaded back, which serializes from stored text."""
    result = run_experiment(spec)
    key = spec_key(spec)
    store_cached(cache, key, result)
    loaded = load_cached(cache, key)
    return [
        hashlib.sha256(bench.serialize_result(r).encode("utf-8")).hexdigest()
        for r in (result, loaded)
    ]


def test_golden_covers_committed_cases():
    """Every golden case must still exist as a runnable bench case."""
    for case in CASES:
        assert case in bench.BENCH_CASES, f"golden case {case} disappeared"


@pytest.mark.parametrize("case", CASES)
def test_serialized_results_match_golden(case, tmp_path):
    specs = bench.BENCH_CASES[case]()
    expected = GOLDEN["cases"][case]
    assert len(specs) == len(expected), (
        f"{case}: spec count changed ({len(specs)} vs {len(expected)} "
        "golden digests) — regenerate tests/golden/serialized_digests.json "
        "deliberately if the case itself changed"
    )
    for index, spec in enumerate(specs):
        fresh, stored = _digests(spec, tmp_path)
        assert fresh == expected[index], (
            f"{case}[{index}]: serialized result diverged from the "
            "pre-refactor golden digest"
        )
        assert stored == expected[index], (
            f"{case}[{index}]: a stored-then-loaded result serializes "
            "differently from a fresh one"
        )
