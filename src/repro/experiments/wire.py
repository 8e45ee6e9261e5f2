"""Canonical-JSON wire codec for the warm-worker pool.

The pool (:mod:`repro.experiments.pool`) keeps worker processes resident
and ships work to them over pipes.  Pickle would be the easy wire format,
but it is opaque, version-fragile, and — for the result objects a sweep
sends back thousands of times — measurably slower than a flat JSON frame.
This module encodes the small closed world of spec and result dataclasses
as compact canonical JSON instead, following the trace format's discipline
(:mod:`repro.trace`): an explicit registry, positional fields, and exact
round-tripping as the bar.

Format
------
A frame is one ``bytes`` payload: UTF-8 canonical JSON
(``separators=(",", ":")``) of a value built from:

- JSON scalars (``None``/bool/int/float/str) encode as themselves.
  Floats round-trip exactly: Python's ``json`` emits ``repr``-shortest
  forms, and ``float(repr(x)) == x`` for all finite floats.
- Lists encode as JSON arrays.
- Tuples encode as ``{"!": "t", "v": [...]}`` — the marker is what lets a
  decoded spec keep tuple-typed fields tuple-typed, which matters because
  ``repr(spec)`` is the cache key and ``('a',) != ['a']``.
- Registered dataclasses encode as ``{"!": "<ClassName>", "f": [...]}``
  with values in :func:`dataclasses.fields` order (including
  ``repr=False`` fields); decode reconstructs positionally.
- Plain dicts pass through as JSON objects.  A plain dict containing the
  reserved ``"!"`` key cannot be distinguished from a marker, so encoding
  one raises :class:`WireError` instead of corrupting silently.

Anything else — sets, arbitrary objects, non-string dict keys — raises
:class:`WireError`.  The registry is deliberately closed: both ends of the
pipe run the same code (workers are children of the dispatching process),
so an unknown class name on decode means a programming error, not a
version skew to paper over.
"""

from __future__ import annotations

import json
from dataclasses import fields, is_dataclass
from typing import Any, Dict, Type

__all__ = ["WireError", "decode", "encode", "register"]


class WireError(ValueError):
    """A value could not be encoded to, or decoded from, the wire format."""


_REGISTRY: Dict[str, Type] = {}
_BY_CLASS: Dict[Type, str] = {}
_core_loaded = False


def register(cls: Type) -> Type:
    """Add a dataclass to the wire registry; usable as a decorator.

    Reconstruction is positional — ``cls(*values)`` — so every field must
    be an init field, in declaration order.
    """
    if not is_dataclass(cls):
        raise WireError(f"only dataclasses can be registered: {cls!r}")
    name = cls.__name__
    existing = _REGISTRY.get(name)
    if existing is not None and existing is not cls:
        raise WireError(f"wire name collision: {name!r}")
    _REGISTRY[name] = cls
    _BY_CLASS[cls] = name
    return cls


def _register_core() -> None:
    """Register the spec- and result-side dataclasses.

    Imported lazily so this module stays importable from anywhere in the
    package without cycles.
    """
    from repro.config import (
        CompilerParams,
        DiskParams,
        MachineConfig,
        OsTunables,
        RuntimeParams,
        SimScale,
    )
    from repro.core.runtime.layer import RuntimeStats
    from repro.experiments.runner import ExperimentFailure
    from repro.experiments.synthetic import SyntheticResult, SyntheticSpec
    from repro.faults import DiskFailure, DiskFaultSpec, FaultPlan, HintFaultSpec
    from repro.machine import (
        ExperimentResult,
        ExperimentSpec,
        ProcessResult,
        WorkloadProcessSpec,
    )
    from repro.policies.base import PolicySpec
    from repro.sim.stats import TimeBuckets
    from repro.vm.fragmentation import FragmentationSample, FragmentationStats
    from repro.vm.stats import AddressSpaceStats, VmStats
    from repro.workloads.interactive import SweepSample

    for cls in (
        # Spec side: the full frozen ExperimentSpec tree.
        ExperimentSpec,
        WorkloadProcessSpec,
        SimScale,
        MachineConfig,
        DiskParams,
        OsTunables,
        CompilerParams,
        RuntimeParams,
        FaultPlan,
        DiskFaultSpec,
        HintFaultSpec,
        DiskFailure,
        PolicySpec,
        # Result side: everything reachable from an ExperimentResult.
        ExperimentResult,
        ProcessResult,
        TimeBuckets,
        AddressSpaceStats,
        VmStats,
        FragmentationStats,
        FragmentationSample,
        RuntimeStats,
        SweepSample,
        ExperimentFailure,
        # Synthetic cells, which exercise the pool and sweep at scale.
        SyntheticSpec,
        SyntheticResult,
    ):
        register(cls)


def _ensure_registry() -> None:
    # Guarded by its own flag: other modules may have register()ed their
    # classes already, so a non-empty registry does not mean core ran.
    global _core_loaded
    if not _core_loaded:
        _core_loaded = True
        _register_core()


def _enc(value: Any) -> Any:
    if value is None or isinstance(value, (bool, int, float, str)):
        return value
    if isinstance(value, list):
        return [_enc(item) for item in value]
    if isinstance(value, tuple):
        return {"!": "t", "v": [_enc(item) for item in value]}
    if isinstance(value, dict):
        if "!" in value:
            raise WireError('plain dicts with a "!" key are not encodable')
        out = {}
        for key, item in value.items():
            if not isinstance(key, str):
                raise WireError(f"dict keys must be strings, got {key!r}")
            out[key] = _enc(item)
        return out
    cls = type(value)
    name = _BY_CLASS.get(cls)
    if name is not None:
        return {
            "!": name,
            "f": [_enc(getattr(value, f.name)) for f in fields(value)],
        }
    raise WireError(f"cannot encode {cls.__name__!r} value: {value!r}")


def _dec(value: Any) -> Any:
    if value is None or isinstance(value, (bool, int, float, str)):
        return value
    if isinstance(value, list):
        return [_dec(item) for item in value]
    if isinstance(value, dict):
        marker = value.get("!")
        if marker is None:
            return {key: _dec(item) for key, item in value.items()}
        if marker == "t":
            return tuple(_dec(item) for item in value["v"])
        cls = _REGISTRY.get(marker)
        if cls is None:
            raise WireError(f"unknown wire class: {marker!r}")
        values = [_dec(item) for item in value["f"]]
        try:
            return cls(*values)
        except TypeError as exc:
            raise WireError(f"cannot rebuild {marker}: {exc}") from exc
    raise WireError(f"cannot decode wire value: {value!r}")


def encode(value: Any) -> bytes:
    """Encode ``value`` to a canonical-JSON frame."""
    _ensure_registry()
    try:
        return json.dumps(_enc(value), separators=(",", ":")).encode("utf-8")
    except WireError:
        raise
    except (TypeError, ValueError) as exc:
        raise WireError(str(exc)) from exc


def decode(data: bytes) -> Any:
    """Decode a frame produced by :func:`encode`."""
    _ensure_registry()
    try:
        payload = json.loads(data.decode("utf-8"))
    except (UnicodeDecodeError, ValueError) as exc:
        raise WireError(f"malformed wire frame: {exc}") from exc
    return _dec(payload)
