"""Helpers the subcommand modules share: scales, JSON arguments, specs."""

from __future__ import annotations

import argparse
import json
import os
from pathlib import Path

from repro.config import SimScale, paper, small, tiny
from repro.experiments.report import format_process_table
from repro.faults import EMPTY_PLAN, FaultPlan
from repro.machine import ExperimentSpec, SpecError, WorkloadProcessSpec
from repro.scenarios import ScenarioError, builtin_registry
from repro.trace.workload import trace_process_spec

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
        plan = FaultPlan.from_dict(load_json_argument(args.faults))
    if getattr(args, "fault_seed", None) is not None:
        plan = plan.with_seed(args.fault_seed)
    return plan


def spec_from_argument(text: str, default_scale: str) -> ExperimentSpec:
    """Build an :class:`ExperimentSpec` from a JSON file path or literal.

    Shape::

        {"scale": "tiny",
         "overrides": {"max_engine_steps": 1000000},
         "faults": {"seed": 7, "disk": {"io_error_prob": 0.05}},
         "processes": [
             {"workload": "MATVEC", "version": "R"},
             {"workload": "EMBAR", "version": "P", "start_offset_s": 0.05},
             {"trace": "traces/MATVEC.trace"},
             {"workload": "interactive", "sleep_s": 0.1, "sweeps": 6}]}

    A ``{"trace": path}`` entry replays a recorded trace file as one of the
    mix's processes (hint version and layout come from the trace header).
    """
    data = load_json_argument(text)
    scale = SCALES[data.get("scale", default_scale)]()
    overrides = data.get("overrides", {})
    if overrides:
        scale = scale.with_overrides(**overrides)
    processes = []
    for entry in data.get("processes", ()):
        if "trace" in entry:
            processes.append(
                trace_process_spec(
                    entry["trace"],
                    start_offset_s=entry.get("start_offset_s", 0.0),
                    name=entry.get("name"),
                )
            )
        elif "workload" in entry:
            processes.append(
                WorkloadProcessSpec(
                    workload=entry["workload"],
                    version=entry.get("version", "O"),
                    start_offset_s=entry.get("start_offset_s", 0.0),
                    sleep_time_s=entry.get("sleep_s"),
                    sweeps=entry.get("sweeps"),
                    name=entry.get("name"),
                )
            )
        else:
            raise SpecError(
                f"process entry needs a 'workload' or 'trace' key: {entry!r}"
            )
    faults = FaultPlan.from_dict(data["faults"]) if "faults" in data else EMPTY_PLAN
    spec = ExperimentSpec(scale=scale, processes=tuple(processes), faults=faults)
    if "policy" in data:
        spec = spec.with_policy(str(data["policy"]))
    return spec


def print_process_table(result, label: str) -> None:
    """The per-process summary table shared by ``run --spec`` and replay."""
    print(format_process_table(result, label))


def registry_from(args: argparse.Namespace):
    return builtin_registry(scenario_dirs=getattr(args, "scenario_dir", None) or ())


def scenario_document(text: str, registry):
    """Resolve a scenario argument: template name, file path, or inline JSON."""
    if text in registry:
        return registry.get(text), text
    data = load_json_argument(text)
    if not isinstance(data, dict):
        raise ScenarioError("a scenario must be a JSON object")
    name = Path(text).stem if os.path.exists(text) else None
    return data, name
