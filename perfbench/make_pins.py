"""Regenerate ``pins.json``: the outputs the benchmark checks its runs against.

Run from the repository root, on a commit whose results are known good::

    PYTHONPATH=src python3 perfbench/make_pins.py

It runs every benchmark input once in-process (figures through the CLI),
checks each result against ``tests/golden/serialized_digests.json`` where
that file covers it, and writes ``perfbench/pins.json``.  Regenerating the
pins is a deliberate act: results are meant to stay byte-identical, so a
change that moves them must say so.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import inputs  # noqa: E402


def _run(spec):
    from repro.bench import serialize_result
    from repro.machine import run_experiment

    return serialize_result(run_experiment(spec))


def _figure_pins(root):
    """Stdout plus the count and simulated seconds of results per figure."""
    import repro.experiments.runner as runner
    from repro.cli import _FIGURES
    from repro.config import tiny

    delivered = []
    original = runner.run_specs

    def counting(specs, *args, **kwargs):
        outcomes = original(specs, *args, **kwargs)
        delivered.extend(outcomes)
        return outcomes

    for module in list(sys.modules.values()):
        if getattr(module, "run_specs", None) is original:
            module.run_specs = counting
    figures = {}
    env = dict(os.environ, PYTHONPATH=str(root / "src"), PYTHONHASHSEED="0")
    with tempfile.TemporaryDirectory() as scratch:
        for number in inputs.FIGURE_FILLERS + inputs.FIGURE_READERS:
            stdout = subprocess.run(
                [sys.executable, "-m", "repro", "figure", number, "--scale", "tiny",
                 "--jobs", "2", "--cache-dir", os.path.join(scratch, "cli")],
                env=env, cwd=scratch, capture_output=True, text=True, check=True,
            ).stdout
            del delivered[:]
            _FIGURES[number](tiny(), jobs=1, cache_dir=os.path.join(scratch, "lib"))
            figures[number] = {
                "stdout": stdout,
                "specs": len(delivered),
                "sim_s": sum(outcome.elapsed_s for outcome in delivered),
            }
    return figures


def main():
    root = Path.cwd()
    from repro.experiments.sweep import expand_grid
    from repro.scenarios import builtin_registry, compile_scenario

    registry = builtin_registry()
    pins = {"mix": {}, "grid": {}, "served": {}, "figures": {}}
    for document in inputs.mix_documents():
        (spec,) = compile_scenario(document, registry=registry).specs
        pins["mix"][document["name"]] = _run(spec)
    grid = inputs.sweep_grid(0)
    grid["axes"]["benchmark"] = list(inputs.WORKLOADS)
    grid["axes"]["version"] = list(inputs.VERSIONS)
    cells = [
        (benchmark, version, sleep)
        for benchmark in inputs.WORKLOADS
        for version in inputs.VERSIONS
        for sleep in grid["axes"]["sleep"]
    ]
    for (benchmark, version, sleep), spec in zip(cells, expand_grid(grid)):
        serialized = _run(spec)
        pins["grid"][inputs.grid_cell_name(benchmark, version, sleep)] = inputs.sha256(serialized)
    for salt in (0, 1):
        for document in inputs.served_documents(salt):
            (spec,) = compile_scenario(document, registry=registry).specs
            serialized = _run(spec)
            entry = {"digest": inputs.sha256(serialized), "sim_s": inputs.elapsed_s(serialized)}
            name = document["name"]
            if salt and pins["served"][name] != entry:
                raise SystemExit(f"salting changed the result of {name}")
            pins["served"][name] = entry
    pins["figures"] = _figure_pins(root)
    inputs.PINS_PATH.write_text(json.dumps(pins, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    checked = inputs.load_pins(root)["golden_checked"]
    print(f"wrote {inputs.PINS_PATH} ({checked} pins checked against golden digests)")


if __name__ == "__main__":
    main()
