"""One input language: every JSON entry point answers a bad value the same way.

``repro run --spec``, ``repro trace record --spec``, ``repro sweep run
--grid``, ``repro validate`` and ``POST /v1/jobs`` all compile through
:mod:`repro.scenarios.schema`.  A bad value must get a structured answer
naming its path: an exit-2 ``repro: error: <path>: ...`` one-liner with no
traceback on the CLI, an HTTP 400 with ``path`` set over the wire — never
a traceback, a 500, a silent default, or a started run.
"""

import copy
import hashlib
import json
from dataclasses import dataclass
from typing import Optional

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.cli import main
from repro.cli.common import spec_from_argument
from repro.experiments import runner
from repro.experiments.sweep import expand_grid, sweep_spec_key
from repro.faults import FaultPlanError
from repro.machine import SpecError
from repro.scenarios import ScenarioError, builtin_registry, compile_scenario

HOG = {"workload": "MATVEC", "version": "R"}


@dataclass(frozen=True)
class Probe:
    """One bad input, written once per document form it applies to.

    ``spec`` / ``grid`` / ``scenario`` are the probe as a ``--spec``
    document, a ``--grid`` document and a scenario document (``None``:
    the form cannot express it).  ``path`` is the path the error must
    name in the spec and grid forms; ``scenario_path`` overrides it for
    the scenario form (a grid's ``axes`` sit under ``sweep`` there).
    An empty path means a document-level problem, checked by ``needle``.
    """

    name: str
    path: str
    spec: Optional[object] = None
    grid: Optional[object] = None
    scenario: Optional[object] = None
    scenario_path: Optional[str] = None
    needle: str = ""


def _axes_probe(name, path, **axes):
    """A bad sweep axis, as a grid and as a sweep scenario."""
    axes = {"benchmark": ["MATVEC"], **axes}
    return Probe(
        name,
        path,
        grid={"axes": axes},
        scenario={"scenario": 1, "sweep": {"axes": axes}},
        scenario_path=f"sweep.{path}",
    )


def _top_probe(name, path, key, value):
    """A bad shared top-level value (overrides, faults) in every form."""
    return Probe(
        name,
        path,
        spec={key: value, "processes": [HOG]},
        grid={key: value, "axes": {"benchmark": ["MATVEC"]}},
        scenario={"scenario": 1, "benchmark": "MATVEC", key: value},
    )


PROBES = [
    Probe("processes-not-a-list", "processes", spec={"processes": 3}),
    Probe("scale-not-a-string", "scale", spec={"scale": 7, "processes": [HOG]}),
    Probe("spec-not-an-object", "", spec=[1], needle="expected an object"),
    Probe(
        "process-sleep-not-a-number",
        "processes[1].sleep_s",
        spec={"processes": [HOG, {"workload": "interactive", "sleep_s": "a"}]},
        scenario={
            "scenario": 1,
            "processes": [HOG, {"workload": "interactive", "sleep_s": "a"}],
        },
    ),
    Probe(
        "misspelled-spec-keys",
        "",
        spec={"polcy": "global-clock", "fault": {}, "processes": [HOG]},
        needle="'polcy'",
    ),
    Probe(
        "process-level-sleep",
        "processes[1]",
        spec={"processes": [HOG, {"workload": "interactive", "sleep": 0.1}]},
    ),
    Probe("axes-not-an-object", "axes", grid={"axes": 5}),
    Probe(
        "benchmark-axis-not-a-list",
        "axes.benchmark",
        grid={"axes": {"benchmark": "MATVEC"}},
        scenario={"scenario": 1, "sweep": {"axes": {"benchmark": "MATVEC"}}},
        scenario_path="sweep.axes.benchmark",
    ),
    _axes_probe("fault-seed-not-an-int", "axes.fault_seed[0]", fault_seed=["q"]),
    _axes_probe("fault-seed-bool", "axes.fault_seed[0]", fault_seed=[True, 2]),
    _axes_probe("fault-seed-float", "axes.fault_seed[1]", fault_seed=[1, 2.7]),
    _axes_probe("sleep-not-a-number", "axes.sleep[0]", sleep=["x"]),
    _axes_probe("sleep-negative", "axes.sleep[1]", sleep=[None, -1]),
    _axes_probe("version-not-a-string", "axes.version[0]", version=[3]),
    _axes_probe("policy-not-a-string", "axes.policy[0]", policy=[None]),
    _axes_probe("policy-unknown", "axes.policy[0]", policy=["nope"]),
    _top_probe("override-unknown", "overrides.bogus", "overrides", {"bogus": 1}),
    _top_probe(
        "override-mistyped",
        "overrides.max_engine_steps",
        "overrides",
        {"max_engine_steps": "x"},
    ),
    _top_probe("override-nested", "overrides.machine", "overrides", {"machine": 5}),
    _top_probe("faults-not-an-object", "faults", "faults", 5),
    _top_probe("faults-disk-not-an-object", "faults.disk", "faults", {"disk": 5}),
    _top_probe(
        "faults-probability-mistyped",
        "faults.disk.io_error_prob",
        "faults",
        {"disk": {"io_error_prob": "x"}},
    ),
    _top_probe("faults-seed-mistyped", "faults.seed", "faults", {"seed": "q"}),
]


def _cases():
    """(probe, entry point) pairs for the CLI surfaces."""
    for probe in PROBES:
        if probe.spec is not None:
            yield pytest.param(probe, "run", id=f"{probe.name}-run")
            yield pytest.param(probe, "trace", id=f"{probe.name}-trace")
        if probe.grid is not None:
            yield pytest.param(probe, "sweep", id=f"{probe.name}-sweep")
        if probe.scenario is not None:
            yield pytest.param(probe, "validate", id=f"{probe.name}-validate")


def _argv(probe, entry, tmp_path):
    if entry == "run":
        return ["run", "--spec", json.dumps(probe.spec)]
    if entry == "trace":
        return ["trace", "record", "--out", str(tmp_path / "traces"),
                "--spec", json.dumps(probe.spec)]
    if entry == "sweep":
        return ["sweep", "run", "--state-dir", str(tmp_path / "sweep"),
                "--grid", json.dumps(probe.grid)]
    return ["validate", json.dumps(probe.scenario)]


def _expected_path(probe, entry):
    if entry == "validate":
        return probe.path if probe.scenario_path is None else probe.scenario_path
    return probe.path


@pytest.mark.parametrize("probe, entry", list(_cases()))
def test_cli_probe_is_a_one_line_path_error(probe, entry, tmp_path, capsys):
    assert main(_argv(probe, entry, tmp_path)) == 2
    err = capsys.readouterr().err
    assert "Traceback" not in err
    assert err.count("\n") == 1
    path = _expected_path(probe, entry)
    if path:
        assert err.startswith(f"repro: error: {path}: "), err
    else:
        assert err.startswith("repro: error: ") and probe.needle in err, err
    # Nothing ran: no trace was recorded and no sweep state was created.
    assert not (tmp_path / "traces").exists()
    assert not (tmp_path / "sweep").exists()


@pytest.mark.parametrize(
    "argv",
    [
        ["run", "--benchmark", "MATVEC", "--scale", "tiny", "--faults", "[1]"],
        ["run", "--benchmark", "MATVEC", "--scale", "tiny",
         "--faults", '{"disk": {"io_error_prob": "x"}}'],
        ["ensemble", "--benchmark", "MATVEC", "--scale", "tiny", "--seeds", "2",
         "--faults", '{"seed": "q"}'],
    ],
    ids=["run-not-an-object", "run-mistyped-probability", "ensemble-mistyped-seed"],
)
def test_faults_flag_is_a_path_error(argv, capsys):
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("repro: error: faults")
    assert "Traceback" not in err


def test_validate_accepts_inline_json(capsys):
    document = {"scenario": 1, "benchmark": "MATVEC", "scale": "tiny"}
    assert main(["validate", json.dumps(document)]) == 0
    assert "OK" in capsys.readouterr().out


def test_http_probes_are_400_with_path(server):
    from repro.service import ServiceClient, ServiceError

    client = ServiceClient(server.url)
    answers = {}
    for probe in PROBES:
        if probe.scenario is None:
            continue
        with pytest.raises(ServiceError) as excinfo:
            client.submit(document=copy.deepcopy(probe.scenario))
        answers[probe.name] = (excinfo.value.status, excinfo.value.path)
    expected = {
        probe.name: (400, _expected_path(probe, "validate"))
        for probe in PROBES
        if probe.scenario is not None
    }
    assert answers == expected
    assert client.jobs() == []


# -- identity: the rewrites compile well-typed documents byte-identically ----

#: SHA-256 of the ``sweep_spec_key`` list (under a fixed code version, since
#: the key also hashes the source tree).  The values are what the separate
#: grid and spec parsers produced before the schema took over, so a match
#: means old sweep state directories keep their identity.
GRID_PINS = {
    # ``perfbench.inputs.sweep_grid(0)``: the benchmark's 48-cell grid.
    "grid_wide": (
        {"scale": "tiny", "axes": {
            "benchmark": ["FFTPDE", "MGRID", "CGM", "EMBAR", "MATVEC", "BUK"],
            "version": ["O", "R", "P", "B"],
            "sleep": [None, 0.0]}},
        "9b050792226d2e709d2d23d6a99d91dc294174055c049565567f5c85abc00994",
    ),
    "experiments_md": (
        {"scale": "tiny", "axes": {
            "benchmark": ["MATVEC", "BUK"], "version": ["O", "R", "P"]}},
        "519c0d9fceb84fcc789a48d2249c7fd7af39fd652b0a4a1af3e245f7b583bdc8",
    ),
    "fault_seeded": (
        {"scale": "tiny", "overrides": {"max_engine_steps": 2000000},
         "faults": {"disk": {"io_error_prob": 0.02}},
         "axes": {"benchmark": ["MATVEC", "BUK"], "version": ["O", "R"],
                  "sleep": [None, 0.1],
                  "policy": ["paging-directed", "global-clock"],
                  "fault_seed": [1, 2, 3]}},
        "af5f1d139fbb2f0e59dea4c848ff0c96c84cc1719cffef44bdf5779d0c886ba7",
    ),
}

TEMPLATE_PINS = {
    "version-suite": "d444435ae5401d8844f64369ede01a0aec4e94307a12df9b015e3de2c611e2a4",
    "policy-shootout": "2e95f96749494b9570ad3ed3232991bc06a6154ab100c838cb76880d376c3d4f",
}

SPEC_PIN = (
    {"scale": "tiny", "overrides": {"max_engine_steps": 1000000},
     "faults": {"seed": 7, "disk": {"io_error_prob": 0.05}},
     "policy": "global-clock",
     "processes": [
         {"workload": "MATVEC", "version": "R"},
         {"workload": "EMBAR", "version": "P", "start_offset_s": 0.05},
         {"workload": "INTERACTIVE", "sleep_s": 0.1, "sweeps": 6}]},
    "a09dc3ac86b5c76183e0a268a8a009eddbfeed6bcea4b0c578db9c60f57f480c",
)


@pytest.fixture()
def pinned_code_version(monkeypatch):
    monkeypatch.setattr(runner, "_code_version", "pinned")


def _keys_digest(specs):
    text = "\n".join(sweep_spec_key(spec) for spec in specs)
    return hashlib.sha256(text.encode()).hexdigest()


@pytest.mark.parametrize("name", sorted(GRID_PINS))
def test_grid_spec_keys_are_pinned(name, pinned_code_version):
    grid, digest = GRID_PINS[name]
    assert _keys_digest(expand_grid(copy.deepcopy(grid))) == digest


@pytest.mark.parametrize("name", sorted(TEMPLATE_PINS))
def test_template_spec_keys_are_pinned(name, pinned_code_version):
    registry = builtin_registry()
    compiled = compile_scenario(registry.get(name), registry=registry, name=name)
    assert _keys_digest(compiled.specs) == TEMPLATE_PINS[name]


def test_spec_document_key_is_pinned(pinned_code_version):
    document, digest = SPEC_PIN
    spec = spec_from_argument(json.dumps(document), "small")
    assert hashlib.sha256(sweep_spec_key(spec).encode()).hexdigest() == digest


# -- property: mutated documents compile or fail with a structured error -----

_KEYS = sorted(
    {"scenario", "name", "extends", "scale", "overrides", "benchmark", "version",
     "sleep", "interactive", "processes", "sweep", "policy", "faults", "axes",
     "workload", "sleep_s", "sweeps", "start_offset_s", "trace", "fault_seed",
     "seed", "disk", "hints", "io_error_prob", "failures", "degraded_disks",
     "max_engine_steps", "machine", "figure_sleep_times_s", "disk", "at_s"}
)
_LEAVES = (
    st.none()
    | st.booleans()
    | st.integers(min_value=-3, max_value=10**6)
    | st.floats(allow_nan=True, allow_infinity=True)
    | st.text(max_size=6)
    | st.sampled_from(
        ["MATVEC", "BUK", "R", "o", "tiny", "interactive", "global-clock",
         "paging-directed:frag_extent=4", "standard-mix", "."]
    )
)
_JSON = st.recursive(
    _LEAVES,
    lambda children: st.lists(children, max_size=3)
    | st.dictionaries(st.sampled_from(_KEYS) | st.text(max_size=4), children, max_size=3),
    max_leaves=6,
)

_BASES = {
    "spec": {"scale": "tiny", "overrides": {"max_engine_steps": 1000},
             "faults": {"seed": 1, "disk": {"io_error_prob": 0.1, "failures": [1]}},
             "policy": "global-clock",
             "processes": [dict(HOG), {"workload": "interactive", "sleep_s": 0.1,
                                       "sweeps": 2, "start_offset_s": 0.0}]},
    "grid": {"scale": "tiny", "overrides": {"max_engine_steps": 1000},
             "faults": {"hints": {"drop_prob": 0.1}},
             "axes": {"benchmark": ["MATVEC"], "version": ["O", "R"],
                      "sleep": [None, 0.1], "policy": ["global-clock"],
                      "fault_seed": [1, 2]}},
    "scenario": {"scenario": 1, "name": "x", "extends": "release-only",
                 "scale": "tiny", "benchmark": "MATVEC", "sleep": 0.1,
                 "faults": {"seed": 3}, "overrides": {"rng_seed": 5}},
}


def _locations(node, prefix=()):
    yield prefix
    if isinstance(node, dict):
        for key, value in node.items():
            yield from _locations(value, prefix + (key,))
    elif isinstance(node, list):
        for index, value in enumerate(node):
            yield from _locations(value, prefix + (index,))


@st.composite
def _mutated(draw):
    form = draw(st.sampled_from(sorted(_BASES)))
    document = copy.deepcopy(_BASES[form])
    for _ in range(draw(st.integers(min_value=1, max_value=3))):
        where = draw(st.sampled_from(list(_locations(document))))
        if not where:
            document = draw(_JSON)
            continue
        parent = document
        for step in where[:-1]:
            parent = parent[step]
        action = draw(st.sampled_from(["replace", "delete", "add"]))
        if action == "replace":
            parent[where[-1]] = draw(_JSON)
        elif action == "delete":
            del parent[where[-1]]
        elif isinstance(parent[where[-1]], dict):
            parent[where[-1]][draw(st.sampled_from(_KEYS))] = draw(_JSON)
        elif isinstance(parent[where[-1]], list):
            parent[where[-1]].append(draw(_JSON))
    return form, document


@settings(
    max_examples=300,
    deadline=2000,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(_mutated())
def test_mutated_documents_compile_or_fail_structurally(case):
    form, document = case
    try:
        if form == "spec":
            specs = [spec_from_argument(json.dumps(document), "tiny")]
        elif form == "grid":
            specs = expand_grid(document)
        else:
            specs = compile_scenario(document, registry=builtin_registry()).specs
    except (ScenarioError, SpecError, FaultPlanError):
        return
    for spec in specs:
        spec.validate()
