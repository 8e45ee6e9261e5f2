"""Lazy package exports (PEP 562).

A package lists its public names by defining module; each name is
imported on first access, so ``import repro`` or
``import repro.experiments.runner`` loads only what the caller touches.
"""

from __future__ import annotations

import importlib
from typing import Callable, Dict, List, Sequence, Tuple


def lazy_exports(
    package: str, namespace: dict, exports: Dict[str, Sequence[str]]
) -> Tuple[List[str], Callable[[str], object], Callable[[], List[str]]]:
    """``(__all__, __getattr__, __dir__)`` for ``package``.

    ``exports`` maps a module to the names the package re-exports from it;
    ``namespace`` is the package's ``globals()``, where a resolved name is
    cached so later lookups bypass ``__getattr__``.
    """
    origin = {name: module for module, names in exports.items() for name in names}

    def __getattr__(name: str) -> object:
        module = origin.get(name)
        if module is None:
            raise AttributeError(f"module {package!r} has no attribute {name!r}")
        value = getattr(importlib.import_module(module), name)
        namespace[name] = value
        return value

    def __dir__() -> List[str]:
        return sorted(set(namespace) | set(origin))

    return sorted(origin), __getattr__, __dir__
