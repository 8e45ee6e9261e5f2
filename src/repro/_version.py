"""Single-source version detection.

The canonical version lives in ``pyproject.toml`` alone.  Installed
distributions read it back through :mod:`importlib.metadata`; a source
checkout run via ``PYTHONPATH=src`` (the repo's own test invocation)
falls back to parsing ``pyproject.toml`` directly, so the two paths can
never disagree about what the version *is* — there is only one place it
is written.

``repro --version`` and the service's ``/v1/healthz`` both report this
value, which is how a client discovers what code produced its results.
It is detected on first access to ``__version__`` (or the first
:func:`detect_version` call), so a process that never asks does not
import :mod:`importlib.metadata`.
"""

from __future__ import annotations

import re
from functools import lru_cache
from pathlib import Path

__all__ = ["__version__", "detect_version"]

_FALLBACK = "0.0.0+unknown"


def _from_metadata() -> str:
    try:
        from importlib.metadata import PackageNotFoundError, version
    except ImportError:  # pragma: no cover - importlib.metadata is 3.8+
        return ""
    try:
        return version("repro")
    except PackageNotFoundError:
        return ""


def _from_pyproject() -> str:
    # src/repro/_version.py -> repo root is two parents above the package.
    pyproject = Path(__file__).resolve().parents[2] / "pyproject.toml"
    try:
        text = pyproject.read_text(encoding="utf-8")
    except OSError:
        return ""
    # A regex keeps 3.9 support (tomllib is 3.11+); the version line is
    # ours to format, so the anchored match is reliable.
    match = re.search(r'^version\s*=\s*"([^"]+)"', text, flags=re.MULTILINE)
    return match.group(1) if match else ""


@lru_cache(maxsize=None)
def detect_version() -> str:
    """The package version: installed metadata first, pyproject fallback."""
    return _from_metadata() or _from_pyproject() or _FALLBACK


def __getattr__(name: str) -> str:
    if name == "__version__":
        return detect_version()
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
