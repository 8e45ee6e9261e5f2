"""Helpers the subcommand modules share: scales, JSON arguments, specs."""

from __future__ import annotations

import argparse
import json
import os
from pathlib import Path

from repro.config import SimScale, paper, small, tiny
from repro.experiments.report import format_process_table
from repro.faults import EMPTY_PLAN, FaultPlan
from repro.jsontypes import expect, reject_unknown
from repro.machine import ExperimentSpec, SpecError
from repro.scenarios import (
    ScenarioError,
    builtin_registry,
    compile_faults,
    compile_scenario,
    load_scenario_file,
)

SCALES = {"tiny": tiny, "small": small, "paper": paper}


def scale_from(args: argparse.Namespace) -> SimScale:
    return SCALES[args.scale]()


def load_json_argument(text: str):
    """Parse a JSON argument given as a file path or an inline literal.

    A value that *looks* like a path (no JSON bracket in sight) but does
    not exist is reported as a missing file rather than falling through to
    a JSON syntax error about its first character.
    """
    if os.path.exists(text):
        try:
            with open(text, "r", encoding="utf-8") as handle:
                return json.load(handle)
        except json.JSONDecodeError as exc:
            raise SpecError(f"{text} is not valid JSON: {exc}") from exc
    stripped = text.lstrip()
    if not stripped.startswith(("{", "[", '"')):
        raise SpecError(f"no such file: {text}")
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise SpecError(f"inline JSON argument is invalid: {exc}") from exc


def faults_from_args(args: argparse.Namespace) -> FaultPlan:
    """The fault plan requested by ``--faults`` / ``--fault-seed``."""
    plan = EMPTY_PLAN
    if getattr(args, "faults", None) is not None:
        plan = compile_faults(load_json_argument(args.faults))
    if getattr(args, "fault_seed", None) is not None:
        plan = plan.with_seed(args.fault_seed)
    return plan


#: The keys of a ``--spec`` document: a subset of the scenario format.
SPEC_KEYS = ("scale", "overrides", "faults", "processes", "policy")


def spec_from_argument(text: str, default_scale: str) -> ExperimentSpec:
    """Build an :class:`ExperimentSpec` from a JSON file path or literal.

    Shape::

        {"scale": "tiny",
         "overrides": {"max_engine_steps": 1000000},
         "faults": {"seed": 7, "disk": {"io_error_prob": 0.05}},
         "policy": "global-clock",
         "processes": [
             {"workload": "MATVEC", "version": "R"},
             {"workload": "EMBAR", "version": "P", "start_offset_s": 0.05},
             {"trace": "traces/MATVEC.trace"},
             {"workload": "interactive", "sleep_s": 0.1, "sweeps": 6}]}

    A spec is the ``processes`` form of a scenario, compiled by
    :mod:`repro.scenarios.schema` (``scale`` defaults to ``default_scale``).
    A ``{"trace": path}`` entry replays a recorded trace file as one of the
    mix's processes (hint version and layout come from the trace header).
    """
    data = expect(load_json_argument(text), dict, "", ScenarioError)
    reject_unknown(data, SPEC_KEYS, "", ScenarioError)
    if "processes" not in data:
        raise ScenarioError("a spec needs a 'processes' list", "processes")
    document = {"scenario": 1, "scale": default_scale, **data}
    return compile_scenario(document).specs[0]


def print_process_table(result, label: str) -> None:
    """The per-process summary table shared by ``run --spec`` and replay."""
    print(format_process_table(result, label))


def registry_from(args: argparse.Namespace):
    return builtin_registry(scenario_dirs=getattr(args, "scenario_dir", None) or ())


def scenario_document(text: str, registry):
    """Resolve a scenario argument: template name, file path, or inline JSON."""
    if text in registry:
        return registry.get(text), text
    if text.lstrip().startswith("{") and not os.path.exists(text):
        return load_json_argument(text), None
    return load_scenario_file(text), Path(text).stem
