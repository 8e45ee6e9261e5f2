"""Start-up cost: each entry point imports only the subsystem it runs.

The import checks run in a fresh interpreter, because this test process
has long since imported everything.  A module that the bare interpreter
already loads at start-up (through ``site``) is not charged to repro.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import repro
from repro._version import detect_version

SRC = str(Path(repro.__file__).resolve().parents[1])

#: Nothing a ``repro run`` needs: the bulk lane's NumPy, the service's HTTP
#: stack, the pool's processes, the bench profilers, the version lookup,
#: and the sweep, pool, server and trace-analysis modules.
FORBIDDEN = (
    "numpy",
    "http.server",
    "urllib.request",
    "multiprocessing",
    "cProfile",
    "pstats",
    "importlib.metadata",
    "repro.service.server",
    "repro.experiments.sweep",
    "repro.experiments.pool",
    "repro.trace.analyze",
)

TINY_SCENARIO = {
    "scenario": 1,
    "name": "tiny",
    "scale": "tiny",
    "benchmark": "MATVEC",
    "version": "R",
}

_DUMP = "\nimport json, sys\nprint(json.dumps(sorted(sys.modules)))\n"


def _env():
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + os.pathsep + env.get("PYTHONPATH", "")
    return env


def _python(code, cwd):
    proc = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True,
        text=True,
        env=_env(),
        cwd=cwd,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def _modules_after(code, cwd):
    """Modules loaded by ``code`` beyond what a bare interpreter loads."""
    bare = set(json.loads(_python(_DUMP, cwd).splitlines()[-1]))
    loaded = set(json.loads(_python(code + _DUMP, cwd).splitlines()[-1]))
    return loaded - bare


def _run_main(argv):
    """``python -m repro <argv>``, then the module dump."""
    return (
        "import runpy, sys\n"
        f"sys.argv = ['repro'] + {argv!r}\n"
        "try:\n"
        "    runpy.run_module('repro', run_name='__main__', alter_sys=True)\n"
        "except SystemExit as exc:\n"
        "    assert not exc.code, exc.code\n"
    )


@pytest.mark.parametrize(
    "entry",
    ["import repro", "import repro.cli", "python -m repro run --scenario"],
)
def test_entry_point_imports_stay_in_budget(entry, tmp_path):
    runs = entry.startswith("python -m")
    if runs:
        doc = tmp_path / "tiny.json"
        doc.write_text(json.dumps(TINY_SCENARIO), encoding="utf-8")
        code = _run_main(["run", "--scenario", str(doc), "--digest"])
    else:
        code = entry
    loaded = _modules_after(code, tmp_path)
    assert "repro" in loaded
    assert sorted(set(FORBIDDEN) & loaded) == []
    if runs:
        # The digest still hashes repro.bench.serialize_result.
        assert "repro.bench" in loaded


@pytest.mark.parametrize(
    "package", ["repro", "repro.experiments", "repro.service", "repro.trace"]
)
def test_star_import_resolves_all(package, tmp_path):
    code = (
        f"import {package} as package\n"
        "names = {}\n"
        f"exec('from {package} import *', names)\n"
        "missing = sorted(set(package.__all__) - set(names))\n"
        "assert not missing, missing\n"
        "assert set(package.__all__) <= set(dir(package))\n"
    )
    _python(code, tmp_path)


def test_pool_does_not_import_the_sweep(tmp_path):
    """The sweep sits on top of the pool, never the other way round."""
    loaded = _modules_after("import repro.experiments.pool", tmp_path)
    assert "repro.experiments.pool" in loaded
    assert "repro.experiments.sweep" not in loaded


def test_unknown_attribute_is_an_attribute_error():
    with pytest.raises(AttributeError):
        repro.no_such_name  # noqa: B018
    assert getattr(repro, "no_such_name", None) is None


def test_version_flag_prints_package_version(tmp_path):
    out = _python(_run_main(["--version"]), tmp_path)
    assert out.splitlines()[0] == f"repro {detect_version()}"
    assert detect_version() == repro.__version__
