"""Declarative scenarios: versioned JSON experiment descriptions.

A *scenario* is a JSON document that names everything an experiment run
needs — scale, workload mix (or sweep axes), memory policy, fault plan —
in one validated, versioned file.  Scenarios are the currency of the
experiment service (:mod:`repro.service`): clients submit them over HTTP,
`repro validate` checks them without running anything, and the template
registry ships named scenarios for the paper's canonical runs so
``repro submit standard-mix`` works with no file at all.

The contract that makes the service's shared result cache meaningful:
compiling a scenario is deterministic — the same document always expands
to the same tuple of frozen :class:`~repro.machine.ExperimentSpec` values,
and therefore the same content-addressed cache keys — so any two
submitters of one scenario share one execution.

See :mod:`repro.scenarios.schema` for the format and the validation
rules, and :mod:`repro.scenarios.templates` for the built-in library.
"""

from repro.scenarios.schema import (
    SCENARIO_FORMAT_VERSION,
    CompiledScenario,
    ScenarioError,
    compile_faults,
    compile_scenario,
    load_scenario_file,
    scenario_digest,
    validate_scenario,
)
from repro.scenarios.templates import (
    BUILTIN_TEMPLATES,
    ScenarioRegistry,
    builtin_registry,
)

__all__ = [
    "BUILTIN_TEMPLATES",
    "CompiledScenario",
    "SCENARIO_FORMAT_VERSION",
    "ScenarioError",
    "ScenarioRegistry",
    "builtin_registry",
    "compile_faults",
    "compile_scenario",
    "load_scenario_file",
    "scenario_digest",
    "validate_scenario",
]
