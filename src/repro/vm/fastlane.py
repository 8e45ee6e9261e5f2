"""The bulk execution lane: classify whole resident runs in one pass.

The per-page touch path costs a method call, a page-table probe, and a
flags test per page; a run-length ``('T', start, count, ...)`` op at small
scale covers hundreds of pages, almost all of them resident in steady
state.  This module supplies the primitives that let
:meth:`repro.vm.system.VmSystem.touch_run` and
:meth:`repro.kernel.kernel.KernelProcess.run_touches` advance such a run
as a handful of array operations instead:

- :func:`touch_segment` — classify-and-touch the longest hit prefix of a
  page-table slice in one pass over the flat ``flags`` column (the
  ``F_IN_TRANSIT`` mirror bit makes hit/miss a single mask compare);
- :func:`charge_plan` — the quantum-flush arithmetic for a window of
  all-hit pages as one ``cumsum`` + ``searchsorted`` (NumPy's cumulative
  sum is a strict left-to-right reduction, so every prefix value is
  bit-identical to the sequential Python adds it replaces — asserted by
  the lane property tests).

Lane selection:

- ``REPRO_FAST_LANE=0`` (or ``off``/``false``) disables the lane: drivers
  fall back to the historical per-page ``touch_fast`` loop.
- With the lane on, NumPy is used when installed and the run is long
  enough to amortise array setup (:data:`NUMPY_MIN_RUN`); otherwise a
  tight pure-Python slice scan runs.  ``pip install repro[fast]`` pulls
  NumPy in; without it the pure lane is the permanent fallback.
- NumPy is imported by the first run of at least :data:`NUMPY_MIN_RUN`
  pages (:func:`load_numpy`), not when this module loads: a process whose
  runs are all short or hinted never pays for it.

Everything here is trajectory-neutral by construction: resident touches
emit no events, flush boundaries are computed with bit-identical float
arithmetic, and the first page that needs the slow path (unmapped page,
in-flight I/O, invalidated or release-pending frame) is handed back to
the caller untouched.  The frozen golden digests and the lane-equivalence
suite hold the lane to byte identity with the per-page path.
"""

from __future__ import annotations

import os
from importlib.util import find_spec
from typing import List

__all__ = [
    "COUNTERS",
    "LANE_OFF",
    "LANE_NUMPY",
    "LANE_PURE",
    "NUMPY_MIN_RUN",
    "charge_plan",
    "lane_mode",
    "lane_name",
    "load_numpy",
    "refresh_from_env",
    "reset_counters",
    "snapshot_counters",
    "touch_segment",
]

LANE_OFF = 0
LANE_PURE = 1
LANE_NUMPY = 2

_LANE_NAMES = {LANE_OFF: "off", LANE_PURE: "pure", LANE_NUMPY: "numpy"}

#: Below this run length the array setup costs more than the scan saves;
#: measured crossover on CPython 3.11 is ~32-48 pages.
NUMPY_MIN_RUN = 48

#: ``np`` before the first bulk run: NumPy is installed but not imported.
_UNLOADED = object()

#: NumPy once :func:`load_numpy` has imported it, ``_UNLOADED`` before
#: that, None when it is not installed (the optional repro[fast] extra).
#: Tests set it to None to force the pure lane.
np = _UNLOADED if find_spec("numpy") is not None else None


def load_numpy():
    """NumPy, imported on the first call; None when the lane has none."""
    global np
    if np is _UNLOADED:
        try:
            import numpy
        except ImportError:  # pragma: no cover - a broken installation
            numpy = None
        np = numpy
    return np


#: Process-wide lane telemetry (bench reads deltas around a case; nothing
#: here feeds serialized results, so the counters can never perturb the
#: golden digests).
COUNTERS = {
    "ops": 0,           # driver ops dispatched
    "bulk_pages": 0,    # pages advanced through the bulk lane
    "slow_pages": 0,    # run pages that dropped to the fault slow path
    "runs": 0,          # ('T', ...) ops handled
    "windows": 0,       # bulk windows classified
}


def reset_counters() -> None:
    for key in COUNTERS:
        COUNTERS[key] = 0


def snapshot_counters() -> dict:
    return dict(COUNTERS)


def _enabled_from_env() -> bool:
    value = os.environ.get("REPRO_FAST_LANE", "1").strip().lower()
    return value not in ("0", "off", "false", "no")


_ENABLED = _enabled_from_env()


def refresh_from_env() -> int:
    """Re-read ``REPRO_FAST_LANE`` (tests flip the knob mid-process)."""
    global _ENABLED
    _ENABLED = _enabled_from_env()
    return lane_mode()


def lane_mode() -> int:
    """The lane this process runs: LANE_OFF, LANE_PURE, or LANE_NUMPY."""
    if not _ENABLED:
        return LANE_OFF
    return LANE_NUMPY if np is not None else LANE_PURE


def lane_name() -> str:
    return _LANE_NAMES[lane_mode()]


def touch_segment(
    seg: List[int],
    flags: List[int],
    valid_mask: int,
    valid_value: int,
    bits: int,
    use_numpy: bool,
) -> int:
    """Touch the longest hit prefix of one page-table slice.

    ``seg`` is ``pt[start:start+n]`` (frame indices, -1 for unmapped);
    a page hits when its index is mapped and
    ``flags[index] & valid_mask == valid_value``.  Every hit frame gets
    ``bits`` OR-ed into its flags word — exactly ``touch_fast``'s side
    effect — and the first miss stops the scan with the frame untouched.
    Returns the hit count.
    """
    numpy = load_numpy() if use_numpy and len(seg) >= NUMPY_MIN_RUN else None
    if numpy is not None:
        idx = numpy.array(seg, dtype=numpy.intp)
        # Gather the flags words at C speed; unmapped (-1) entries wrap to
        # flags[-1], which is harmless because the mapped test cuts the
        # prefix off at the first negative index anyway.
        words = numpy.array(list(map(flags.__getitem__, seg)), dtype=numpy.int64)
        ok = (idx >= 0) & ((words & valid_mask) == valid_value)
        hits = len(seg) if bool(ok.all()) else int(ok.argmin())
        if hits:
            # Only frames still missing a bit need a write-back; in steady
            # state a rescanned run has referenced/dirty already set and
            # this loop is empty.
            pend = idx[:hits][(words[:hits] & bits) != bits]
            for i in pend.tolist():
                flags[i] |= bits
        return hits
    hits = 0
    for i in seg:
        if i >= 0:
            fl = flags[i]
            if fl & valid_mask == valid_value:
                flags[i] = fl | bits
                hits += 1
                continue
        break
    return hits


def charge_plan(
    pending: float, s: float, r: float, n: float, quantum: float
):
    """Flush plan for a window of ``n`` all-hit pages.

    Models the per-page accounting ``pending += s; check; pending += r;
    check`` as one cumulative sum and finds the first checkpoint that
    reaches ``quantum``.  Returns ``(cum, m)``: ``cum[0] == pending``,
    ``cum[k]`` is the value after the k-th add (bit-identical to the
    sequential Python adds), and ``m`` is the index of the first add whose
    checkpoint crosses (``m >= 2n`` when none does).  Requires NumPy.
    """
    numpy = load_numpy()
    full = numpy.empty(2 * n + 1, dtype=numpy.float64)
    full[0] = pending
    full[1::2] = s
    full[2::2] = r
    cum = numpy.cumsum(full)
    m = int(numpy.searchsorted(cum[1:], quantum, side="left"))
    return cum, m
