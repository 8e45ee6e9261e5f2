"""Seam tests for the bulk resident-run lane (:mod:`repro.vm.fastlane`).

The lane's contract is byte-identity: with the lane on (NumPy or pure),
off (``REPRO_FAST_LANE=0``), or degraded (NumPy absent), every simulated
trajectory must match the per-page path bit for bit.  These tests pin the
seams where that could break:

- the primitive (``touch_segment``/``charge_plan``) against a sequential
  reference on randomized frame-table states;
- ``VmSystem.touch_run`` against n sequential ``touch_fast`` calls;
- forced fallbacks: NumPy monkeypatched away, the env knob set to 0;
- mid-run interruption: a page is yanked from under a run (the injected
  corruption a fault plan's reclaim pressure produces) and the bulk path
  must split, fault, and resume exactly like the per-page loop;
- whole experiments and trace replays against the frozen golden digests
  under every lane mode, with and without an active fault plan;
- the lazy NumPy import: the lane reports NumPy before importing it, and
  the import happens at the first run long enough to use it.
"""

import hashlib
import importlib.util
import os
import random
import subprocess
import sys
import textwrap
from contextlib import contextmanager
from pathlib import Path

import pytest

from repro import bench
from repro.config import tiny
from repro.experiments.harness import multiprogram_spec
from repro.kernel import Kernel
from repro.machine import run_experiment
from repro.sim.engine import Engine
from repro.vm import fastlane
from repro.vm.frames import (
    F_DIRTY,
    F_IN_TRANSIT,
    F_REFERENCED,
    F_RELEASE_PENDING,
    F_SW_VALID,
)

from tests.helpers import drive
from tests.test_golden_digests import GOLDEN


@contextmanager
def lane_env(value):
    """Temporarily set ``REPRO_FAST_LANE`` and refresh the lane mode."""
    old = os.environ.get("REPRO_FAST_LANE")
    try:
        if value is None:
            os.environ.pop("REPRO_FAST_LANE", None)
        else:
            os.environ["REPRO_FAST_LANE"] = value
        fastlane.refresh_from_env()
        yield
    finally:
        if old is None:
            os.environ.pop("REPRO_FAST_LANE", None)
        else:
            os.environ["REPRO_FAST_LANE"] = old
        fastlane.refresh_from_env()


#: Flag words covering every hit/miss classification the mask test sees.
_FLAG_WORDS = (
    0,
    F_SW_VALID,
    F_SW_VALID | F_REFERENCED,
    F_SW_VALID | F_REFERENCED | F_DIRTY,
    F_SW_VALID | F_IN_TRANSIT,
    F_IN_TRANSIT,
    F_SW_VALID | F_RELEASE_PENDING | F_REFERENCED,
)

_MASK = F_SW_VALID | F_IN_TRANSIT


def _reference_touch_segment(seg, flags, bits):
    """Sequential twin of ``touch_segment``: per-page mask test + OR."""
    hits = 0
    for index in seg:
        if index >= 0:
            word = flags[index]
            if word & _MASK == F_SW_VALID:
                flags[index] = word | bits
                hits += 1
                continue
        break
    return hits


class TestTouchSegmentProperty:
    @pytest.mark.parametrize("seed", range(8))
    @pytest.mark.parametrize("use_numpy", [True, False], ids=["numpy", "pure"])
    def test_matches_sequential_reference(self, seed, use_numpy):
        rng = random.Random(seed)
        nframes = 256
        for trial in range(20):
            n = rng.choice((1, 3, 17, 48, 64, 200))
            frames = rng.sample(range(nframes), min(n, nframes))
            seg = [
                -1 if rng.random() < 0.05 else frames[i % len(frames)]
                for i in range(n)
            ]
            flags = [rng.choice(_FLAG_WORDS) for _ in range(nframes)]
            bits = (
                F_REFERENCED | F_DIRTY
                if rng.random() < 0.5
                else F_REFERENCED
            )
            expected_flags = list(flags)
            expected_hits = _reference_touch_segment(
                seg, expected_flags, bits
            )
            got_hits = fastlane.touch_segment(
                list(seg), flags, _MASK, F_SW_VALID, bits, use_numpy
            )
            assert got_hits == expected_hits
            assert flags == expected_flags

    def test_numpy_absent_falls_back(self, monkeypatch):
        monkeypatch.setattr(fastlane, "np", None)
        seg = [0, 1, 2]
        flags = [F_SW_VALID] * 3
        hits = fastlane.touch_segment(
            seg, flags, _MASK, F_SW_VALID, F_REFERENCED, True
        )
        assert hits == 3
        assert flags == [F_SW_VALID | F_REFERENCED] * 3

    @pytest.mark.parametrize("seed", range(4))
    def test_charge_plan_matches_sequential_adds(self, seed):
        if fastlane.np is None:
            pytest.skip("charge_plan requires numpy")
        rng = random.Random(seed)
        for _ in range(20):
            n = rng.randrange(1, 80)
            pending = rng.random() * 0.01
            s = rng.random() * 1e-4
            r = rng.random() * 1e-5
            quantum = rng.random() * 0.005
            cum, m = fastlane.charge_plan(pending, s, r, n, quantum)
            # Bit-identical sequential twin.
            value = pending
            seq = [value]
            for _ in range(n):
                value += s
                seq.append(value)
                value += r
                seq.append(value)
            assert list(cum) == seq
            crossings = [i for i in range(1, 2 * n + 1) if seq[i] >= quantum]
            expected_m = crossings[0] - 1 if crossings else 2 * n
            assert m == expected_m


class TestLazyNumpy:
    """NumPy is imported by the first bulk run, not by the lane module."""

    def _fresh(self, body):
        if importlib.util.find_spec("numpy") is None:
            pytest.skip("numpy not installed")
        src = str(Path(fastlane.__file__).resolve().parents[2])
        env = dict(os.environ, REPRO_FAST_LANE="1")
        env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
        code = "import sys\nfrom repro.vm import fastlane\n" + textwrap.dedent(body)
        proc = subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True, env=env, timeout=120
        )
        assert proc.returncode == 0, proc.stderr

    def test_primitive_imports_numpy_at_first_long_run(self):
        self._fresh(
            f"""
            from repro.vm.frames import F_REFERENCED, F_SW_VALID
            assert "numpy" not in sys.modules
            assert fastlane.lane_mode() == fastlane.LANE_NUMPY
            n = fastlane.NUMPY_MIN_RUN
            flags = [F_SW_VALID] * n
            short = fastlane.touch_segment(
                list(range(n - 1)), flags, {_MASK}, F_SW_VALID, F_REFERENCED, True
            )
            assert short == n - 1 and "numpy" not in sys.modules
            hits = fastlane.touch_segment(
                list(range(n)), flags, {_MASK}, F_SW_VALID, F_REFERENCED, True
            )
            assert hits == n and "numpy" in sys.modules
            """
        )

    def test_simulation_imports_numpy_only_for_bulk_runs(self):
        self._fresh(
            """
            from repro.config import tiny
            from repro.experiments.harness import multiprogram_spec
            from repro.machine import run_experiment
            run_experiment(multiprogram_spec(tiny(), "MATVEC", "R"))  # hinted: no runs
            assert fastlane.COUNTERS["runs"] == 0 and "numpy" not in sys.modules
            run_experiment(multiprogram_spec(tiny(), "EMBAR", "O"))
            assert fastlane.COUNTERS["runs"] > 0 and "numpy" in sys.modules
            """
        )


class TestTouchRunEquivalence:
    @pytest.mark.parametrize("seed", range(6))
    def test_touch_run_equals_sequential_touch_fast(self, kernel, seed):
        vm = kernel.vm
        rng = random.Random(seed)
        flags = vm.frame_table.flags
        nframes = len(flags)
        npages = min(96, nframes)
        aspace = vm.create_address_space(f"prop{seed}")
        aspace.map_segment("a", npages)
        frames = rng.sample(range(nframes), npages)
        for vpn in range(npages):
            if rng.random() < 0.1:
                continue  # leave unmapped
            frame = frames[vpn]
            aspace.pt[vpn] = frame
            flags[frame] = rng.choice(_FLAG_WORDS)
        start = rng.randrange(0, npages // 2)
        count = rng.randrange(1, npages - start + 8)  # may overrun the pt
        write = rng.random() < 0.5

        # Sequential reference on a cloned world.
        ref_flags = list(flags)
        expected = 0
        for vpn in range(start, start + count):
            index = aspace.pt[vpn] if vpn < len(aspace.pt) else -1
            if index >= 0:
                word = ref_flags[index]
                if word & _MASK == F_SW_VALID:
                    ref_flags[index] = word | (
                        (F_REFERENCED | F_DIRTY) if write else F_REFERENCED
                    )
                    expected += 1
                    continue
            break

        hits = vm.touch_run(aspace, start, count, write)
        assert hits == expected
        assert list(flags) == ref_flags


def _interrupted_world(lane_value):
    """One deterministic world: fault a segment in, yank a mid-run page,
    then re-run the whole run so the bulk path must split around it."""
    with lane_env(lane_value):
        engine = Engine()
        kernel = Kernel.boot(engine, tiny())
        proc = kernel.create_process("victim")
        segment = proc.aspace.map_segment("a", 64)
        base = segment.start
        outcome = {}

        def driver():
            yield from proc.run_touches(base, 64, True, 1e-4)
            # Injected corruption: reclaim a page mid-run behind the
            # process's back (what fault-plan-driven pressure does).
            proc.aspace.pt[base + 31] = -1
            yield from proc.run_touches(base, 64, False, 1e-4)
            yield from proc.flush()
            outcome["now"] = engine.now
            outcome["steps"] = engine.steps
            outcome["user"] = proc.task.buckets.user
            outcome["pt"] = list(proc.aspace.pt)

        drive(engine, engine.process(driver(), name="drv"))
    return outcome


class TestMidRunInterruption:
    def test_all_lanes_agree_after_midrun_yank(self):
        baseline = _interrupted_world("0")
        assert baseline["steps"] > 0
        for value in ("1", None):
            assert _interrupted_world(value) == baseline

    def test_pure_lane_agrees_without_numpy(self, monkeypatch):
        baseline = _interrupted_world("0")
        monkeypatch.setattr(fastlane, "np", None)
        assert _interrupted_world("1") == baseline


def _digest(spec) -> str:
    serialized = bench.serialize_result(run_experiment(spec))
    return hashlib.sha256(serialized.encode("utf-8")).hexdigest()


class TestLaneEquivalenceGolden:
    """The frozen digests hold under every lane mode.

    ``grid_tiny`` spec 0 is EMBAR O — the only committed spec family whose
    live driver exercises the run-length ('T') path (hinted versions never
    batch), so it is the one that can diverge if the bulk lane miscounts.
    """

    GOLDEN_EMBAR_O = GOLDEN["cases"]["grid_tiny"][0]

    def _spec(self):
        return multiprogram_spec(tiny(), "EMBAR", "O")

    def test_lane_off_matches_golden(self):
        with lane_env("0"):
            assert fastlane.lane_mode() == fastlane.LANE_OFF
            assert _digest(self._spec()) == self.GOLDEN_EMBAR_O

    def test_pure_lane_matches_golden(self, monkeypatch):
        monkeypatch.setattr(fastlane, "np", None)
        with lane_env("1"):
            assert fastlane.lane_mode() == fastlane.LANE_PURE
            assert _digest(self._spec()) == self.GOLDEN_EMBAR_O

    def test_numpy_lane_matches_golden(self):
        if fastlane.np is None:
            pytest.skip("numpy not installed")
        with lane_env("1"):
            assert fastlane.lane_mode() == fastlane.LANE_NUMPY
            assert _digest(self._spec()) == self.GOLDEN_EMBAR_O

    def test_lanes_agree_under_fault_plan(self):
        # An active fault plan perturbs paging timing, which moves the
        # interruption points inside runs — the lanes must still agree
        # byte for byte (there is no frozen digest for faulted runs, so
        # the lanes are compared against each other).
        from repro.faults import FaultPlan

        plan = FaultPlan.from_dict(
            {
                "seed": 7,
                "disk": {
                    "latency_spike_prob": 0.2,
                    "latency_spike_multiplier": 4.0,
                },
            }
        )
        spec = self._spec().with_faults(plan)
        with lane_env("0"):
            off = bench.serialize_result(run_experiment(spec))
        with lane_env("1"):
            on = bench.serialize_result(run_experiment(spec))
        assert on == off


class TestReplayLaneSeams:
    """Trace replay reproduces live results under every replay lane."""

    @pytest.fixture(scope="class")
    def recorded(self, tmp_path_factory):
        from repro.trace.record import record_experiment

        spec = multiprogram_spec(tiny(), "EMBAR", "O")
        out = tmp_path_factory.mktemp("lane-replay")
        result, paths = record_experiment(spec, out / "embar")
        return spec, bench.serialize_result(result), list(paths.values())

    def _replay_spec(self, spec, path):
        from repro.machine import INTERACTIVE, ExperimentSpec, WorkloadProcessSpec
        from repro.trace.workload import trace_process_spec

        return ExperimentSpec(
            scale=spec.scale,
            processes=(
                trace_process_spec(path),
                WorkloadProcessSpec(workload=INTERACTIVE),
            ),
        )

    def test_columns_replay_matches_live(self, recorded):
        spec, live, paths = recorded
        replayed = run_experiment(self._replay_spec(spec, paths[0]))
        assert bench.serialize_result(replayed) == live

    def test_legacy_replay_matches_live(self, recorded):
        spec, live, paths = recorded
        with lane_env("0"):
            replayed = run_experiment(self._replay_spec(spec, paths[0]))
        assert bench.serialize_result(replayed) == live

    def test_pure_columns_replay_matches_live(self, recorded, monkeypatch):
        spec, live, paths = recorded
        monkeypatch.setattr(fastlane, "np", None)
        with lane_env("1"):
            replayed = run_experiment(self._replay_spec(spec, paths[0]))
        assert bench.serialize_result(replayed) == live
