"""The simulated interactive task (Section 1.1).

"A simple program emulates the memory system behavior of an interactive
task by repeatedly touching a 1 MB data set, then sleeping for a fixed
amount of time. ... The 'response time' is the time to touch the entire
data set."

The task runs under the OS's *default* policies — no policy module, no
hints — because the whole point of the paper is that the interactive task
needs no modification: only the memory hog changes its behaviour.
"""

from __future__ import annotations

import itertools
import zlib
from dataclasses import dataclass, field
from typing import Iterator, List, Optional, Union

from repro.config import SimScale
from repro.kernel.kernel import Kernel, KernelProcess

__all__ = ["InteractiveTask", "SweepLog", "SweepSample"]


@dataclass
class SweepSample:
    """One sweep through the data set."""

    start_time: float
    response_time: float
    hard_faults: int
    soft_faults: int
    rescues: int


#: One row of ``repr(List[SweepSample])``; ``%r`` is the dataclass repr's
#: own ``{value!r}``, so the text is byte-identical to the list's.
_ROW_FORMAT = (
    "SweepSample(start_time=%r, response_time=%r, hard_faults=%r, "
    "soft_faults=%r, rescues=%r)"
)


@dataclass(eq=False, repr=False)
class SweepLog:
    """Every sweep of one interactive task, as five parallel columns.

    Behaves like the ``List[SweepSample]`` it replaces: ``len``, truth,
    iteration and integer indexing yield :class:`SweepSample` rows, a
    slice is another log, and a log equals the list of its rows.  Its
    ``repr`` is byte-identical to that list's, which is what
    :func:`repro.bench.serialize_result` hashes.

    A long log at sleep 0 holds tens of thousands of sweeps, so that text
    is expensive: nearly all of it is float ``repr``.  It is computed
    once and kept in ``_text`` (the memo); :meth:`record` clears it.
    Pickling stores the columns plus the memo, zlib-compressed, so a
    result stored by a worker serializes for free wherever it is loaded.
    The wire codec carries the memo too, as the last field.
    """

    start_time: List[float] = field(default_factory=list)
    response_time: List[float] = field(default_factory=list)
    hard_faults: List[int] = field(default_factory=list)
    soft_faults: List[int] = field(default_factory=list)
    rescues: List[int] = field(default_factory=list)
    _text: Optional[str] = None

    def __post_init__(self) -> None:
        # zip() would silently drop rows past the shortest column.
        if len(set(map(len, self._columns()))) > 1:
            raise ValueError("SweepLog columns must have equal lengths")

    def _columns(self):
        return (
            self.start_time,
            self.response_time,
            self.hard_faults,
            self.soft_faults,
            self.rescues,
        )

    def record(
        self,
        start_time: float,
        response_time: float,
        hard_faults: int,
        soft_faults: int,
        rescues: int,
    ) -> None:
        """Append one sweep; the memoized text no longer describes the log."""
        self.start_time.append(start_time)
        self.response_time.append(response_time)
        self.hard_faults.append(hard_faults)
        self.soft_faults.append(soft_faults)
        self.rescues.append(rescues)
        self._text = None

    def copy(self) -> "SweepLog":
        return SweepLog(*map(list, self._columns()), self._text)

    def __len__(self) -> int:
        return len(self.start_time)

    def __iter__(self) -> Iterator[SweepSample]:
        return map(SweepSample, *self._columns())

    def __getitem__(
        self, index: Union[int, slice]
    ) -> Union[SweepSample, "SweepLog"]:
        if isinstance(index, slice):
            return SweepLog(*(column[index] for column in self._columns()))
        return SweepSample(*(column[index] for column in self._columns()))

    def __eq__(self, other: object) -> bool:
        if isinstance(other, SweepLog):
            return self._columns() == other._columns()
        if isinstance(other, list):
            return list(self) == other
        return NotImplemented

    def __repr__(self) -> str:
        if self._text is None:
            # One format over every row at once: no per-row string objects,
            # which makes this about 40% faster than formatting row by row.
            template = ", ".join([_ROW_FORMAT] * len(self))
            values = tuple(itertools.chain.from_iterable(zip(*self._columns())))
            self._text = "[" + template % values + "]"
        return self._text

    def __reduce__(self):
        packed = zlib.compress(repr(self).encode("utf-8"), 1)
        return (_unpack_log, self._columns() + (packed,))


def _unpack_log(start_time, response_time, hard_faults, soft_faults, rescues, packed):
    """Pickle's constructor for :class:`SweepLog` (see ``__reduce__``)."""
    text = zlib.decompress(packed).decode("utf-8")
    return SweepLog(start_time, response_time, hard_faults, soft_faults, rescues, text)


class InteractiveTask:
    """Touch ``pages`` pages, sleep, repeat; record per-sweep response."""

    #: Minimum gap between sweeps even at sleep 0 — a zero-sleep toucher
    #: re-touches its (resident) pages thousands of times per second; one
    #: millisecond between sweeps keeps the pages just as hot while keeping
    #: the event count finite.
    MIN_CYCLE_S = 0.001

    def __init__(
        self,
        kernel: Kernel,
        scale: SimScale,
        sleep_time_s: float,
        name: str = "interactive",
    ) -> None:
        self.kernel = kernel
        self.scale = scale
        self.sleep_time_s = sleep_time_s
        self.process: KernelProcess = kernel.create_process(name)
        self.pages = scale.interactive_pages
        self.segment = self.process.aspace.map_segment("data", self.pages)
        self.samples = SweepLog()
        self._stop = False

    def stop(self) -> None:
        self._stop = True

    # -- steady-state statistics -------------------------------------------
    def mean_response(self, skip_warmup: int = 1) -> float:
        """Mean response over sweeps after the cold-start warmup."""
        samples = self.samples[skip_warmup:] or self.samples
        if not samples:
            return 0.0
        return sum(samples.response_time) / len(samples)

    def mean_hard_faults(self, skip_warmup: int = 1) -> float:
        samples = self.samples[skip_warmup:] or self.samples
        if not samples:
            return 0.0
        return sum(samples.hard_faults) / len(samples)

    # -- the task body --------------------------------------------------------
    def run(self):
        """Process generator: sweep, record, sleep, repeat until stopped."""
        process = self.process
        stats = process.aspace.stats
        touch = process.touch
        while not self._stop:
            start = self.kernel.engine.now
            hard0 = stats.hard_faults
            soft0 = stats.soft_faults
            rescues0 = stats.rescues
            for vpn in self.segment:
                fault = touch(vpn, write=False)
                if fault is not None:
                    yield from fault
            yield from process.flush()
            self.samples.record(
                start,
                self.kernel.engine.now - start,
                stats.hard_faults - hard0,
                stats.soft_faults - soft0,
                stats.rescues - rescues0,
            )
            yield from process.task.sleep(
                max(self.sleep_time_s, self.MIN_CYCLE_S)
            )
