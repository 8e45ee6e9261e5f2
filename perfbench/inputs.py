"""The benchmark's fixed inputs and the digests its outputs are checked against.

Every workload draws its input from here; ``--seed`` only reorders it (and,
on ``served_jobs``, decides which submissions repeat and which run
concurrently), so every seed does the same amount of work.

``pins.json`` holds what the outputs must be, captured by ``make_pins.py``
on the commit that created the benchmark: the serialized standard-mix
results, the ``repro figure`` stdouts, and the result digest of every
served document and grid cell.  Where ``tests/golden/serialized_digests.json``
covers a spec, the pin must equal the golden digest; :func:`load_pins`
refuses pins that disagree with it.
"""

from __future__ import annotations

import hashlib
import json
import random
from pathlib import Path

PINS_PATH = Path(__file__).resolve().parent / "pins.json"
GOLDEN_RELPATH = Path("tests") / "golden" / "serialized_digests.json"

#: Figure 7's workload order; golden ``grid_wide`` is benchmark-major over
#: it, then version O/P/R/B, then interactive sleep (default, shortest).
WORKLOADS = ("EMBAR", "MATVEC", "BUK", "CGM", "MGRID", "FFTPDE")
VERSIONS = ("O", "P", "R", "B")

# -- mix_run --------------------------------------------------------------

MIX_POLICIES = ("paging-directed", "global-clock")


def mix_documents():
    """The standard mix (MATVEC O/P/R/B, small scale) under both policies."""
    return [
        {
            "scenario": 1,
            "name": f"mix-{version}-{policy}",
            "scale": "small",
            "benchmark": "MATVEC",
            "version": version,
            "policy": policy,
        }
        for policy in MIX_POLICIES
        for version in VERSIONS
    ]


# -- figure_grid ----------------------------------------------------------

#: Figures 7 and 10bc simulate into the shared cache; 8 and 9 read it.
FIGURE_FILLERS = ("7", "10bc")
FIGURE_READERS = ("8", "9")


def figure_order(seed):
    rng = random.Random(f"figure_grid/{seed}")
    fillers = list(FIGURE_FILLERS)
    readers = list(FIGURE_READERS)
    rng.shuffle(fillers)
    rng.shuffle(readers)
    return fillers + readers


# -- sweep_grid -----------------------------------------------------------

#: ``tiny().figure_sleep_times_s[0]``: the shortest Figure 10 sleep.
SHORTEST_SLEEP_S = 0.0


def sweep_grid(seed):
    """The 48-cell ``grid_wide`` grid with seeded axis order."""
    rng = random.Random(f"sweep_grid/{seed}")
    benchmarks = list(WORKLOADS)
    versions = list(VERSIONS)
    rng.shuffle(benchmarks)
    rng.shuffle(versions)
    return {
        "scale": "tiny",
        "axes": {
            "benchmark": benchmarks,
            "version": versions,
            "sleep": [None, SHORTEST_SLEEP_S],
        },
    }


def grid_cell_name(benchmark, version, sleep):
    return f"{benchmark}-{version}-{'default' if sleep is None else sleep}"


def golden_grid_index(benchmark, version, sleep):
    """Position of a grid cell in golden ``grid_wide``."""
    return (
        WORKLOADS.index(benchmark) * 8
        + VERSIONS.index(version) * 2
        + (0 if sleep is None else 1)
    )


# -- served_jobs ----------------------------------------------------------

#: Tiny grid cells, policy variants and the fault-storm template.
SERVED_CELLS = (
    ("EMBAR", "O"),
    ("MATVEC", "R"),
    ("BUK", "B"),
    ("CGM", "P"),
    ("MGRID", "R"),
    ("FFTPDE", "B"),
)
SERVED_POLICIES = ("global-clock", "user-mode")
FAULT_STORM = {"seed": 7, "disk": {"io_error_prob": 0.02}}


def served_documents(salt):
    """The served document set, made distinct per ``salt``.

    The salt sets the disk latency-spike multiplier while the spike
    probability stays zero: the spec (and so its cache key) changes, but
    no spike can happen, so the result bytes do not.  Each pass uses a new
    salt, so its first submission of a document misses the server's cache
    and its repeats hit it, pass after pass.
    """
    multiplier = 4.0 + salt

    def faults(base=None):
        plan = json.loads(json.dumps(base or {}))
        plan.setdefault("disk", {})["latency_spike_multiplier"] = multiplier
        return plan

    documents = []
    for benchmark, version in SERVED_CELLS:
        documents.append(
            {
                "scenario": 1,
                "name": f"cell-{benchmark}-{version}",
                "scale": "tiny",
                "benchmark": benchmark,
                "version": version,
                "faults": faults(),
            }
        )
    for policy in SERVED_POLICIES:
        documents.append(
            {
                "scenario": 1,
                "name": f"policy-{policy}",
                "scale": "tiny",
                "benchmark": "MATVEC",
                "version": "R",
                "policy": policy,
                "faults": faults(),
            }
        )
    documents.append(
        {
            "scenario": 1,
            "name": "fault-storm",
            "extends": "fault-storm",
            "faults": faults(FAULT_STORM),
        }
    )
    return documents


def served_schedule(seed, count):
    """A submission order in which every document comes twice.

    The first submission of a document always precedes its repeat.  About
    a third of the repeats directly follow their first submission, so the
    two client threads submit them concurrently and the server's dedupe
    lock is exercised.
    """
    rng = random.Random(f"served_jobs/{seed}")
    firsts = list(range(count))
    rng.shuffle(firsts)
    schedule = []
    waiting = []
    for doc in firsts:
        schedule.append(doc)
        if rng.random() < 1 / 3:
            schedule.append(doc)
        else:
            waiting.append(doc)
    rng.shuffle(waiting)
    for doc in waiting:
        earliest = min(schedule.index(doc) + 2, len(schedule))
        slot = rng.randint(earliest, len(schedule))
        schedule.insert(slot, doc)
    return schedule


# -- pins -----------------------------------------------------------------


def sha256(text):
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def elapsed_s(serialized):
    """Simulated seconds recorded in a serialized result."""
    for line in serialized.splitlines():
        if line.startswith("elapsed_s="):
            return float(line.split("=", 1)[1])
    raise ValueError("serialized result without elapsed_s")


def digest_line(key, serialized):
    """One spec's line of the merged result digest.

    ``repro run --scenario --digest``, a service job and ``repro sweep
    status --digest`` all hash these lines in spec order.
    """
    return f"ok key={key}\n{serialized}\n"


class PinError(RuntimeError):
    """The pins are missing or disagree with the golden digests."""


def load_pins(root):
    """Read ``pins.json`` and check it against the golden digests in ``root``."""
    try:
        pins = json.loads(PINS_PATH.read_text(encoding="utf-8"))
    except (OSError, ValueError) as exc:
        raise PinError(f"cannot read {PINS_PATH.name}: {exc}") from None
    golden_path = Path(root) / GOLDEN_RELPATH
    try:
        golden = json.loads(golden_path.read_text(encoding="utf-8"))["cases"]
    except (OSError, ValueError, KeyError):
        golden = {}
    checks = []
    standard_mix = golden.get("standard_mix", [])
    for index, version in enumerate(VERSIONS):
        name = f"mix-{version}-paging-directed"
        if index < len(standard_mix):
            checks.append((name, sha256(pins["mix"][name]), standard_mix[index]))
    grid_wide = golden.get("grid_wide", [])
    for name, digest in pins["grid"].items():
        benchmark, version, sleep = name.split("-")
        index = golden_grid_index(
            benchmark, version, None if sleep == "default" else float(sleep)
        )
        if index < len(grid_wide):
            checks.append((name, digest, grid_wide[index]))
    for benchmark, version in SERVED_CELLS:
        name = f"cell-{benchmark}-{version}"
        cell = grid_cell_name(benchmark, version, None)
        checks.append((name, pins["served"][name]["digest"], pins["grid"][cell]))
    for name, pinned, expected in checks:
        if pinned != expected:
            raise PinError(f"pinned digest for {name} disagrees with {GOLDEN_RELPATH}")
    pins["golden_checked"] = len(checks)
    return pins
