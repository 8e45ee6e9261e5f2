"""Process, timing and statistics helpers shared by the benchmark's workloads."""

from __future__ import annotations

import compileall
import json
import os
import resource
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

HOOK_DIR = Path(__file__).resolve().parent / "hook"

#: Longest any single program invocation may take before it counts as failed.
OP_TIMEOUT_S = 120.0

#: Fixed for every child: hash randomisation alone moved cross-process
#: timings by about 17% (6% with it fixed).
HASH_SEED = "0"


class BenchError(RuntimeError):
    """The benchmark cannot run here (no program, broken set-up)."""


@dataclass
class Pass:
    """One pass over a workload's fixed input."""

    wall: float
    latencies: list
    specs: int
    sim_s: float
    attempted: int = 0
    failed: int = 0
    layers: dict = field(default_factory=dict)


class Context:
    """Paths and child-process environment for one benchmark run."""

    def __init__(self, root, seed):
        self.root = Path(root)
        self.src = self.root / "src"
        self.seed = seed
        self.work = self.root / ".perfbench_work" / str(os.getpid())

    def child_env(self, trace_dir=None):
        env = {
            key: value
            for key, value in os.environ.items()
            if not key.startswith(("PYTHON", "REPRO_", "PERFBENCH_"))
        }
        env["PYTHONPATH"] = str(self.src)
        env["PYTHONHASHSEED"] = HASH_SEED
        if trace_dir is not None:
            env["PYTHONPATH"] += os.pathsep + str(HOOK_DIR)
            env["PERFBENCH_TRACE_DIR"] = str(trace_dir)
        return env

    def compile_package(self):
        """Byte-compile the package, as a fresh install or checkout does once.

        Every later interpreter reads these ``__pycache__`` files; without
        this step the first timed invocation would pay the compile.
        """
        if not compileall.compile_dir(str(self.src / "repro"), quiet=2, force=True):
            raise BenchError("the package does not byte-compile")

    def run(self, args, trace_dir=None):
        """Run ``python <args>``; returns (wall seconds, CompletedProcess)."""
        started = time.perf_counter()
        try:
            proc = subprocess.run(
                [sys.executable, *args],
                env=self.child_env(trace_dir),
                cwd=str(self.work),
                capture_output=True,
                text=True,
                timeout=OP_TIMEOUT_S,
            )
        except subprocess.TimeoutExpired:
            return OP_TIMEOUT_S, None
        return time.perf_counter() - started, proc

    def spawn(self, args, log_path, trace_dir=None):
        """Start a long-lived ``python <args>``; its output goes to ``log_path``."""
        with open(log_path, "wb") as log:
            return subprocess.Popen(
                [sys.executable, *args],
                env=self.child_env(trace_dir),
                cwd=str(self.work),
                stdout=log,
                stderr=subprocess.STDOUT,
            )

    def import_seconds(self):
        """Fresh-interpreter import time of ``repro.cli``."""
        code = (
            "import time; t = time.perf_counter(); import repro.cli; "
            "print(time.perf_counter() - t)"
        )
        _wall, proc = self.run(["-c", code])
        if proc is None or proc.returncode != 0:
            raise BenchError("cannot import repro.cli")
        return float(proc.stdout.strip().splitlines()[-1])


def stop_process(proc, timeout=30.0):
    """SIGTERM, wait, then SIGKILL: the process is gone when this returns."""
    if proc.poll() is None:
        proc.send_signal(signal.SIGTERM)
        try:
            proc.wait(timeout=timeout)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()


def children_usage():
    """(user+sys CPU seconds, peak RSS in MB) of all waited-for children."""
    usage = resource.getrusage(resource.RUSAGE_CHILDREN)
    return usage.ru_utime + usage.ru_stime, usage.ru_maxrss / 1024.0


# -- /proc views of a live process tree -----------------------------------

_TICKS = os.sysconf("SC_CLK_TCK")


def child_pids(pid):
    pids = []
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat", encoding="ascii") as handle:
                fields = handle.read().rsplit(")", 1)[1].split()
        except OSError:
            continue
        if int(fields[1]) == pid:
            pids.append(int(entry))
    return pids


def tree_usage(pid):
    """(CPU seconds, peak RSS MB) of ``pid``, its live children and the
    children it has already waited for."""
    cpu = 0.0
    rss = 0.0
    for index, member in enumerate([pid, *child_pids(pid)]):
        try:
            with open(f"/proc/{member}/stat", encoding="ascii") as handle:
                fields = handle.read().rsplit(")", 1)[1].split()
            with open(f"/proc/{member}/status", encoding="ascii") as handle:
                status = handle.read()
        except OSError:
            continue
        ticks = int(fields[11]) + int(fields[12])
        if index == 0:
            ticks += int(fields[13]) + int(fields[14])
        cpu += ticks / _TICKS
        for line in status.splitlines():
            if line.startswith("VmHWM:"):
                rss = max(rss, int(line.split()[1]) / 1024.0)
    return cpu, rss


# -- trace records ----------------------------------------------------------


def read_trace(trace_dir, epoch=None):
    """Sum the per-process totals a traced pass left in ``trace_dir``."""
    totals = {}
    for path in Path(trace_dir).glob("*.json"):
        try:
            record = json.loads(path.read_text(encoding="utf-8"))
        except (OSError, ValueError):
            continue
        if epoch is not None and record.get("epoch") != epoch:
            continue
        for key, value in record["totals"].items():
            totals[key] = totals.get(key, 0) + value
    return totals


def request_flush(trace_dir, pid, epoch, timeout=10.0):
    """Make a live traced process tree write its totals, stamped ``epoch``."""
    (Path(trace_dir) / "epoch").write_text(str(epoch), encoding="utf-8")
    pids = [pid, *child_pids(pid)]
    for member in pids:
        os.kill(member, signal.SIGUSR1)
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        done = 0
        for member in pids:
            try:
                record = json.loads((Path(trace_dir) / f"{member}.json").read_text("utf-8"))
            except (OSError, ValueError):
                continue
            done += record.get("epoch") == epoch
        if done == len(pids):
            return read_trace(trace_dir, epoch)
        time.sleep(0.005)
    raise BenchError("traced server did not flush its trace")


def subtract(after, before):
    return {key: value - before.get(key, 0) for key, value in after.items()}


# -- statistics -------------------------------------------------------------


def median(values):
    return statistics.median(values) if values else 0.0


def p90(values):
    if len(values) < 2:
        return values[0]
    return statistics.quantiles(values, n=10, method="inclusive")[8]


def ratio(numerator, denominator):
    return numerator / denominator if denominator else 0.0
