"""The reference kernel that turns wall-clock timings into reference-speed
timings.

The host this benchmark runs on is shared: how fast the program runs moves
by a quarter or more from one run to the next, mostly with how busy the
shared caches and memory are, so a raw wall-clock figure moves between runs
however long the run is.  The benchmark therefore times this fixed
pure-Python kernel before and after every short round of timed work and
reports each timing as ``raw × NOMINAL_S / kernel_s``.

The kernel has two parts.  The larger is a memory probe: reads at
pseudo-random offsets of a 32 MiB buffer, which is slowed by the same cache
and memory contention that slows the program's large encodings (on a shared
2-vCPU x86_64 host its time explained a cold load's time with an elasticity
of about 0.9, where a cache-resident loop managed about 0.6).  The smaller
is interpreter-bound work of the kinds the program does.  A single kernel
timing is still noisy, so ``kernel_s`` for a round is the median of the
kernel timings taken within ``WINDOW_S`` seconds of the round's midpoint.

The kernel imports nothing from the program under test and runs with the
garbage collector disabled, so neither the program's code nor its live heap
can change it.  It is part of the benchmark: changing the kernel,
``NOMINAL_S`` or ``WINDOW_S`` is a benchmark change, and numbers taken
before and after it do not compare.  Its buffer adds 32 MiB to every
workload's ``peak_rss_mb``.
"""

from __future__ import annotations

import gc
import statistics
import time
from typing import List, Tuple

#: the kernel time the normalised figures are expressed at
NOMINAL_S = 0.008

#: half-width of the window of kernel timings that normalises one round
WINDOW_S = 2.5

PROBE_BYTES = 1 << 25
PROBE_READS = 30000


class _Cell:
    __slots__ = ("key", "weight")

    def __init__(self, key: int, weight: int) -> None:
        self.key = key
        self.weight = weight


def _interpreter_work() -> int:
    """Integer arithmetic, tuple hashing, dict and set traffic, attribute
    access, list sorting and string joins."""
    table = {}
    seen = set()
    cells = []
    total = 0
    for i in range(1200):
        key = (i * 7919) % 1031
        pair = (key, i & 15)
        table[pair] = table.get(pair, 0) + i
        seen.add(key ^ (i >> 2))
        cells.append(_Cell(key, i))
        total += (key * key) % 97
    cells.sort(key=lambda cell: (cell.key, -cell.weight))
    for cell in cells[::3]:
        total += cell.weight if cell.key in seen else -cell.key
    total += len("-".join(str(k) for k, _ in list(table)[:200]))
    return total


def _memory_probe(buffer: bytearray) -> int:
    """Reads at pseudo-random offsets of *buffer* (a linear congruential
    walk, the same on every call)."""
    mask = len(buffer) - 1
    offset = 12345
    total = 0
    for _ in range(PROBE_READS):
        offset = (offset * 1103515245 + 12345) & mask
        total += buffer[offset]
    return total


def kernel_time(buffer: bytearray) -> float:
    """Seconds one pass of the kernel takes now, with the collector off."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        started = time.perf_counter()
        _interpreter_work()
        _memory_probe(buffer)
        return time.perf_counter() - started
    finally:
        if enabled:
            gc.enable()


class ReferenceClock:
    """Kernel timings of one run, and the normalisation factors they give.

    Call :meth:`sample` at every round boundary; afterwards :meth:`factor`
    gives the factor that raw timings taken between two instants are
    multiplied by.  With ``normalise`` false the kernel is still timed and
    recorded, but the factor is 1: ``serve-closed`` spends its time in
    inter-process wake-ups and pickling, which the kernel does not track
    (on the same host its raw request latency spread 1% across ten runs,
    and 22% once normalised).
    """

    def __init__(self, normalise: bool = True) -> None:
        self.normalise = normalise
        # filled with non-zero bytes, so every page is really backed
        self._buffer = bytearray(bytes(range(1, 256)) * (PROBE_BYTES // 255 + 1))[:PROBE_BYTES]
        #: (perf_counter instant, kernel seconds)
        self.samples: List[Tuple[float, float]] = []
        self.sample()

    def sample(self) -> None:
        self.samples.append((time.perf_counter(), kernel_time(self._buffer)))

    @property
    def kernel_times(self) -> List[float]:
        return [seconds for _, seconds in self.samples]

    def factor(self, start: float, end: float) -> float:
        """``NOMINAL_S`` over the median kernel time within ``WINDOW_S`` of
        the midpoint of ``[start, end]`` (the nearest timing when none
        falls inside)."""
        if not self.normalise:
            return 1.0
        middle = (start + end) / 2
        near = [s for at, s in self.samples if abs(at - middle) <= WINDOW_S]
        if not near:
            near = [min(self.samples, key=lambda sample: abs(sample[0] - middle))[1]]
        return NOMINAL_S / statistics.median(near)
