"""The scenario-file format: strict validation, template inheritance, compile.

Format (version 1)::

    {"scenario": 1,
     "name": "fault-storm",
     "description": "MATVEC release build under disk-error chaos",
     "extends": "standard-mix",          // optional: a registered template
     "scale": "tiny",                    // tiny | small | paper
     "overrides": {"max_engine_steps": 2000000},
     "benchmark": "MATVEC",              // shorthand: one hog + interactive
     "version": "R",
     "sleep": 0.1,                       // interactive sleep (null: default)
     "interactive": true,                // include the interactive task
     "policy": "global-clock",
     "faults": {"seed": 7, "disk": {"io_error_prob": 0.02}},
     "record_trace": false}

Instead of the ``benchmark`` shorthand a scenario may carry an explicit
``processes`` list or a ``sweep`` object with axes, in which case it
compiles to one spec per grid cell (the cross product in the fixed axis
order benchmark, version, sleep, policy, fault_seed).  Exactly one of
``benchmark`` / ``processes`` / ``sweep`` must be present after
``extends`` resolution.

This module is the only code that turns JSON into experiment specs: a
``--spec`` document (``spec_from_argument``) and a ``--grid`` document
(``expand_grid``) are rewritten into scenarios and compiled here.

Validation is strict and fail-fast: unknown keys, wrong types, unknown
benchmarks/versions/policies/scales, mistyped overrides, sweep axis
values and malformed fault plans are all rejected — before any spec is
built — with a :class:`ScenarioError` whose message starts with the
JSON path of the offending value (``processes[1].version: ...``), so a
`repro validate` failure points at the exact line to fix.

Compilation is deterministic: a scenario document always expands to the
same tuple of frozen :class:`~repro.machine.ExperimentSpec` values, so
scenario identity (:func:`scenario_digest`) and the runner's
content-addressed cache keys are stable across submitters and restarts.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import os
from dataclasses import dataclass, fields
from functools import partial
from typing import Callable, Dict, Optional, Tuple

from repro.config import SimScale, paper, small, tiny
from repro.core.runtime.policies import VERSIONS
from repro.faults import EMPTY_PLAN, FaultPlan, FaultPlanError
from repro.jsontypes import PathError, expect, reject_unknown
from repro.machine import (
    INTERACTIVE,
    TRACE,
    ExperimentSpec,
    SpecError,
    WorkloadProcessSpec,
)
from repro.policies import PolicyError, PolicySpec, validate_policy
from repro.workloads import BENCHMARKS

__all__ = [
    "SCENARIO_FORMAT_VERSION",
    "CompiledScenario",
    "ScenarioError",
    "compile_faults",
    "compile_scenario",
    "load_scenario_file",
    "merge_documents",
    "scenario_digest",
    "validate_scenario",
]

#: The one format version this tree understands.  Bump when the schema
#: changes incompatibly; old documents then fail loudly instead of being
#: reinterpreted.
SCENARIO_FORMAT_VERSION = 1

_SCALES = {"tiny": tiny, "small": small, "paper": paper}

_TOP_LEVEL_KEYS = {
    "scenario",
    "name",
    "description",
    "extends",
    "scale",
    "overrides",
    "benchmark",
    "version",
    "sleep",
    "interactive",
    "processes",
    "sweep",
    "policy",
    "faults",
    "record_trace",
}

_PROCESS_KEYS = {
    "workload",
    "version",
    "sleep_s",
    "sweeps",
    "start_offset_s",
    "name",
    "trace",
}

_SWEEP_AXES = ("benchmark", "version", "sleep", "policy", "fault_seed")

_WORKLOADS = {*BENCHMARKS, INTERACTIVE}

#: ``SimScale`` field name -> annotated type name, for ``overrides``.
_SCALE_FIELDS = {f.name: getattr(f.type, "__name__", f.type) for f in fields(SimScale)}


class ScenarioError(PathError):
    """A scenario that cannot be loaded, validated, or compiled (``path``
    is the JSON path of the offending value)."""


@dataclass(frozen=True)
class CompiledScenario:
    """What a scenario document expands to.

    ``document`` is the merged (post-``extends``), validated document —
    the canonical form :func:`scenario_digest` hashes.  ``specs`` is the
    deterministic expansion: one spec for single scenarios, one per grid
    cell for sweep scenarios (fixed axis order: benchmark, version, sleep,
    policy, fault_seed).
    """

    name: str
    description: str
    document: Dict[str, object]
    specs: Tuple[ExperimentSpec, ...]
    record_trace: bool = False

    @property
    def digest(self) -> str:
        return scenario_digest(self.document)


def scenario_digest(document: Dict[str, object]) -> str:
    """Content identity of a (merged) scenario document."""
    canonical = json.dumps(
        document, sort_keys=True, separators=(",", ":"), ensure_ascii=True
    )
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


def load_scenario_file(path: os.PathLike) -> Dict[str, object]:
    """Read one scenario document from disk (errors are path-precise)."""
    try:
        with open(path, "r", encoding="utf-8") as handle:
            document = json.load(handle)
    except FileNotFoundError:
        raise ScenarioError(f"no such scenario file: {path}") from None
    except json.JSONDecodeError as exc:
        raise ScenarioError(f"{path} is not valid JSON: {exc}") from exc
    except OSError as exc:
        raise ScenarioError(f"cannot read scenario file {path}: {exc}") from exc
    if not isinstance(document, dict):
        raise ScenarioError(f"{path}: a scenario must be a JSON object")
    return document


# -- type helpers (every check names its path) ------------------------------


def _expect(kind: type, value, path: str):
    return expect(value, kind, path, ScenarioError)


_expect_str = partial(_expect, str)
_expect_bool = partial(_expect, bool)
_expect_dict = partial(_expect, dict)
_expect_list = partial(_expect, list)
_expect_int = partial(_expect, int)
_expect_number = partial(_expect, float)


def _member(value, path: str, what: str, known) -> str:
    """``value`` upper-cased, if it names one of ``known``."""
    name = _expect_str(value, path).upper()
    if name not in known:
        raise ScenarioError(
            f"unknown {what} {name!r} (choose from {', '.join(sorted(known))})", path
        )
    return name


_benchmark_name = partial(_member, what="benchmark", known=BENCHMARKS)
_version_name = partial(_member, what="version", known=VERSIONS)


def _sleep_value(value, path: str) -> Optional[float]:
    """Null (the scale's default) or a number >= 0, as written: a sweep's
    ``0`` stays ``0``, since sweep identity is the repr of its specs."""
    if value is not None and _expect_number(value, path) < 0:
        raise ScenarioError(f"expected null or a number >= 0, got {value!r}", path)
    return value


def _policy_spec(value, path: str) -> PolicySpec:
    text = _expect_str(value, path)
    try:
        policy = PolicySpec.from_string(text)
        # Eagerly resolve so an unregistered name fails at validate time,
        # not at run time inside the service.
        validate_policy(policy)
    except PolicyError as exc:
        raise ScenarioError(str(exc), path) from exc
    return policy


# -- extends resolution -----------------------------------------------------


def _merge_dicts(base: Dict[str, object], overlay: Dict[str, object]) -> Dict[str, object]:
    """Recursive dict merge: overlay wins, nested objects merge key-wise."""
    merged = dict(base)
    for key, value in overlay.items():
        if isinstance(value, dict) and isinstance(merged.get(key), dict):
            merged[key] = _merge_dicts(merged[key], value)  # type: ignore[arg-type]
        else:
            merged[key] = value
    return merged


def merge_documents(
    base: Dict[str, object], child: Dict[str, object]
) -> Dict[str, object]:
    """Apply ``extends`` inheritance: ``child`` over ``base``.

    Top-level scalar keys replace; ``overrides`` and ``faults`` deep-merge
    so a child can tweak one knob without restating the parent's plan.
    The parent's ``name``/``description`` are dropped (a derived scenario
    is not its template), and choosing a workload shape (``benchmark`` /
    ``processes`` / ``sweep``) in the child *replaces* the parent's shape
    entirely — inheriting half a process list would be a trap.
    """
    base = {k: v for k, v in base.items() if k not in ("name", "description", "extends")}
    shapes = ("benchmark", "version", "sleep", "interactive", "processes", "sweep")
    if any(key in child for key in ("processes", "sweep", "benchmark")):
        base = {k: v for k, v in base.items() if k not in shapes}
    merged = dict(base)
    for key, value in child.items():
        if key == "extends":
            continue
        if key in ("overrides", "faults") and isinstance(value, dict) and isinstance(
            merged.get(key), dict
        ):
            merged[key] = _merge_dicts(merged[key], value)  # type: ignore[arg-type]
        else:
            merged[key] = value
    return merged


def _resolve_extends(
    document: Dict[str, object], registry, chain: Tuple[str, ...] = ()
) -> Dict[str, object]:
    parent_name = document.get("extends")
    if parent_name is None:
        return dict(document)
    path = "extends"
    parent_name = _expect_str(parent_name, path)
    if parent_name in chain:
        cycle = " -> ".join(chain + (parent_name,))
        raise ScenarioError(f"template inheritance cycle: {cycle}", path)
    if registry is None:
        raise ScenarioError(
            f"cannot resolve template {parent_name!r} (no registry available)", path
        )
    try:
        parent = registry.get(parent_name)
    except KeyError:
        raise ScenarioError(
            f"unknown template {parent_name!r} "
            f"(registered: {', '.join(registry.names())})",
            path,
        ) from None
    parent = _resolve_extends(parent, registry, chain + (parent_name,))
    return merge_documents(parent, document)


# -- compilation ------------------------------------------------------------


def _compile_process(entry: object, index: int) -> WorkloadProcessSpec:
    path = f"processes[{index}]"
    entry = _expect_dict(entry, path)
    reject_unknown(entry, sorted(_PROCESS_KEYS), path, ScenarioError)
    start = float(_expect_number(entry.get("start_offset_s", 0.0), f"{path}.start_offset_s"))
    if start < 0:
        raise ScenarioError(f"negative start offset: {start}", f"{path}.start_offset_s")
    name = _expect_str(entry["name"], f"{path}.name") if "name" in entry else None
    if "trace" in entry:
        if "workload" in entry:
            raise ScenarioError("give 'workload' or 'trace', not both", path)
        trace_path = _expect_str(entry["trace"], f"{path}.trace")
        from repro.trace import TraceError, trace_process_spec

        try:
            return trace_process_spec(trace_path, start_offset_s=start, name=name)
        except (TraceError, OSError, ValueError) as exc:
            raise ScenarioError(str(exc), f"{path}.trace") from exc
    if "workload" not in entry:
        raise ScenarioError("a process needs a 'workload' or 'trace' key", path)
    if _expect_str(entry["workload"], f"{path}.workload").upper() == TRACE:
        raise ScenarioError(
            "replay processes are written as {'trace': path}", f"{path}.workload"
        )
    upper = _member(entry["workload"], f"{path}.workload", "workload", _WORKLOADS)
    version = entry.get("version", "O")
    if upper == INTERACTIVE:
        version = _expect_str(version, f"{path}.version").upper()
    else:
        version = _version_name(version, f"{path}.version")
    sleep_s = _sleep_value(entry.get("sleep_s"), f"{path}.sleep_s")
    if sleep_s is not None:
        sleep_s = float(sleep_s)
    sweeps = entry.get("sweeps")
    if sweeps is not None and _expect_int(sweeps, f"{path}.sweeps") <= 0:
        raise ScenarioError(f"expected a positive integer, got {sweeps!r}", f"{path}.sweeps")
    return WorkloadProcessSpec(
        workload=upper,
        version=version,
        start_offset_s=start,
        sleep_time_s=sleep_s,
        sweeps=sweeps,
        name=name,
    )


def _compile_scale(document: Dict[str, object]) -> SimScale:
    scale_name = document.get("scale", "tiny")
    scale_name = _expect_str(scale_name, "scale")
    if scale_name not in _SCALES:
        raise ScenarioError(
            f"unknown scale {scale_name!r} (choose from "
            f"{', '.join(sorted(_SCALES))})",
            "scale",
        )
    scale = _SCALES[scale_name]()
    overrides = _expect_dict(document.get("overrides", {}), "overrides")
    values = {key: _override_value(key, value) for key, value in overrides.items()}
    return scale.with_overrides(**values) if values else scale


def _override_value(key: str, value: object) -> object:
    """``value`` checked against the type of the ``SimScale`` field ``key``."""
    path = f"overrides.{key}"
    kind = _SCALE_FIELDS.get(key)
    if kind is None:
        raise ScenarioError(f"unknown platform knob {key!r}", path)
    if kind == "tuple":
        items = _expect_list(value, path)
        return tuple(_expect_number(item, f"{path}[{i}]") for i, item in enumerate(items))
    checks = {"int": _expect_int, "float": _expect_number, "str": _expect_str}
    if kind not in checks:
        raise ScenarioError(f"{key!r} holds a nested {kind} and cannot be overridden", path)
    return checks[kind](value, path)


def compile_faults(value: object, path: str = "faults") -> FaultPlan:
    """A scenario's ``faults`` or a ``--faults`` plan; errors name
    ``path`` joined with the plan's own path (``faults.seed``)."""
    faults = _expect_dict(value, path)
    try:
        return FaultPlan.from_dict(faults)
    except FaultPlanError as exc:
        raise ScenarioError(
            exc.problem, f"{path}.{exc.path}" if exc.path else path
        ) from exc


def _spec(
    scale: SimScale,
    processes: Tuple[WorkloadProcessSpec, ...],
    faults: FaultPlan,
    policy: Optional[PolicySpec],
    path: str = "",
) -> ExperimentSpec:
    spec = ExperimentSpec(scale=scale, processes=processes, faults=faults)
    if policy is not None:
        spec = spec.with_policy(policy)
    try:
        spec.validate()
    except SpecError as exc:
        raise ScenarioError(str(exc), path) from exc
    return spec


def _compile_single(
    document: Dict[str, object],
    scale: SimScale,
    faults: FaultPlan,
    policy: Optional[PolicySpec],
) -> Tuple[ExperimentSpec, ...]:
    if "processes" in document:
        for key in ("benchmark", "version", "sleep", "interactive"):
            if key in document:
                raise ScenarioError(
                    f"'{key}' is the benchmark shorthand; a scenario with "
                    "'processes' must not also use it",
                    key,
                )
        entries = _expect_list(document["processes"], "processes")
        if not entries:
            raise ScenarioError("needs at least one process", "processes")
        processes = tuple(
            _compile_process(entry, index) for index, entry in enumerate(entries)
        )
    else:
        benchmark = _benchmark_name(document["benchmark"], "benchmark")
        version = _version_name(document.get("version", "R"), "version")
        sleep = _sleep_value(document.get("sleep"), "sleep")
        if sleep is not None:
            sleep = float(sleep)
        with_interactive = _expect_bool(document.get("interactive", True), "interactive")
        processes = ExperimentSpec.multiprogram(
            scale, benchmark, version, sleep_time_s=sleep,
            with_interactive=with_interactive,
        ).processes
    return (_spec(scale, processes, faults, policy),)


def _compile_sweep(
    document: Dict[str, object],
    scale: SimScale,
    faults: FaultPlan,
    policy: Optional[PolicySpec],
) -> Tuple[ExperimentSpec, ...]:
    for key in ("benchmark", "version", "sleep", "interactive", "processes"):
        if key in document:
            raise ScenarioError(
                f"a sweep scenario puts {key!r} under sweep.axes, not at "
                "the top level",
                key,
            )
    if policy is not None:
        raise ScenarioError(
            "a sweep scenario selects policies via sweep.axes.policy", "policy"
        )
    sweep = _expect_dict(document["sweep"], "sweep")
    reject_unknown(sweep, ("axes",), "sweep", ScenarioError)
    axes = _expect_dict(sweep.get("axes", {}), "sweep.axes")
    reject_unknown(axes, _SWEEP_AXES, "sweep.axes", ScenarioError, "sweep grid axes:")

    def axis(name: str, default: list, check: Callable[[object, str], object]) -> list:
        if name not in axes:
            return default
        path = f"sweep.axes.{name}"
        values = _expect_list(axes[name], path)
        return [check(value, f"{path}[{index}]") for index, value in enumerate(values)]

    # Every value is checked before any spec is built.
    benchmarks = axis("benchmark", [], _benchmark_name)
    if not benchmarks:
        raise ScenarioError(
            "a sweep needs a non-empty 'benchmark' axis", "sweep.axes.benchmark"
        )
    versions = axis("version", ["R"], _version_name)
    sleeps = axis("sleep", [None], _sleep_value)
    policies = axis("policy", [None], _policy_spec)
    seeds = axis("fault_seed", [None], _expect_int)
    return tuple(
        _spec(
            scale,
            ExperimentSpec.multiprogram(scale, benchmark, version, sleep_time_s=sleep).processes,
            faults if seed is None else faults.with_seed(seed),
            cell_policy,
            "sweep",
        )
        for benchmark, version, sleep, cell_policy, seed in itertools.product(
            benchmarks, versions, sleeps, policies, seeds
        )
    )


def compile_scenario(
    document: Dict[str, object],
    registry=None,
    name: Optional[str] = None,
) -> CompiledScenario:
    """Validate ``document`` and expand it into experiment specs.

    ``registry`` (a :class:`~repro.scenarios.templates.ScenarioRegistry`)
    resolves ``extends`` chains; ``name`` overrides the document's own
    name (used when submitting a registered template by name).  Raises
    :class:`ScenarioError` — with the offending JSON path — on the first
    problem found.
    """
    document = _expect_dict(document, "")
    merged = _resolve_extends(document, registry)
    reject_unknown(merged, sorted(_TOP_LEVEL_KEYS), "", ScenarioError)
    if "scenario" not in merged:
        raise ScenarioError(
            f"missing 'scenario' format version (current: {SCENARIO_FORMAT_VERSION})"
        )
    version = merged["scenario"]
    if isinstance(version, bool) or not isinstance(version, int):
        raise ScenarioError(f"expected an integer, got {version!r}", "scenario")
    if version != SCENARIO_FORMAT_VERSION:
        raise ScenarioError(
            f"unsupported scenario format {version} "
            f"(this tree reads version {SCENARIO_FORMAT_VERSION})",
            "scenario",
        )
    shapes = [key for key in ("benchmark", "processes", "sweep") if key in merged]
    if not shapes:
        raise ScenarioError(
            "a scenario needs a workload shape: 'benchmark', 'processes', "
            "or 'sweep'"
        )
    if len(shapes) > 1 and "sweep" in shapes:
        raise ScenarioError(
            f"give exactly one of benchmark/processes/sweep, got "
            f"{', '.join(shapes)}"
        )
    if "benchmark" in shapes and "processes" in shapes:
        raise ScenarioError(
            "give exactly one of benchmark/processes/sweep, got "
            "benchmark, processes"
        )
    record_trace = _expect_bool(merged.get("record_trace", False), "record_trace")
    scale = _compile_scale(merged)
    faults = compile_faults(merged["faults"]) if "faults" in merged else EMPTY_PLAN
    policy = _policy_spec(merged["policy"], "policy") if "policy" in merged else None
    scenario_name = name or merged.get("name")
    if scenario_name is not None:
        scenario_name = _expect_str(scenario_name, "name")
    description = merged.get("description", "")
    description = _expect_str(description, "description") if description else ""
    if "sweep" in merged:
        if record_trace:
            raise ScenarioError(
                "trace recording applies to single scenarios, not sweeps",
                "record_trace",
            )
        specs = _compile_sweep(merged, scale, faults, policy)
    else:
        specs = _compile_single(merged, scale, faults, policy)
    return CompiledScenario(
        name=scenario_name or "inline",
        description=description,
        document=merged,
        specs=specs,
        record_trace=record_trace,
    )


def validate_scenario(
    document: Dict[str, object], registry=None, name: Optional[str] = None
) -> CompiledScenario:
    """Alias of :func:`compile_scenario` for intent at call sites that
    only care about the yes/no answer (``repro validate``)."""
    return compile_scenario(document, registry=registry, name=name)
