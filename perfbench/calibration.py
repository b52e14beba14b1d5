"""A fixed reference kernel, timed between inputs, that the benchmark's
timings are scaled by.

On a shared machine the speed a process gets moves by half and more over
seconds to minutes, because other tenants share the cores and caches.
That slowdown reaches CPU time as well as wall time, so no clock removes
it.  The kernel below is plain Python shaped like cofib's own work:
backtracking over dicts of frozensets, table lookups, and building,
grouping and sorting many small objects.  It is timed every
``EVERY_S`` seconds between inputs, and each input's CPU time is scaled
by ``REFERENCE_MS`` over the kernel's median CPU time within
``WINDOW_S`` seconds of that input, and so is each set-up.  A timing
then reads as the time the input would take at the speed where
the kernel takes ``REFERENCE_MS``.

The kernel does not depend on ``cofib``, so a change to the program
cannot move it.
"""

from __future__ import annotations

import bisect
import random
import statistics
import time

# Inputs and the kernel are both timed in the process's CPU time: time the
# process spends descheduled is not the program's cost.
clock = time.process_time

REFERENCE_MS = 6.0
EVERY_S = 0.2
WINDOW_S = 1.0

_rng = random.Random(20261017)
_NODES = 48
_GRAPH = {v: {label: frozenset(_rng.sample(range(_NODES), 3)) for label in "abc"}
          for v in range(_NODES)}
_PATTERN = tuple("abca")
_FACES = [frozenset((i % 97, i % 89)) for i in range(183)]
_TABLE = {(i, i * 7 % 1013): _FACES[i % 183] for i in range(20000)}
_KEYS = [(i, i * 7 % 1013) for i in _rng.sample(range(20000), 5000)]


class _Cell:
    def __init__(self, name, faces):
        self.name = name
        self.faces = faces


def kernel() -> int:
    """3–8 ms of CPU time on the 2.1 GHz Xeon the benchmark was written
    on: nearer 3 ms run back to back, nearer 7 ms between inputs, when
    the workload has evicted its tables from the caches."""
    count = 0
    stack = [(v, 0) for v in range(_NODES)]
    while stack:
        v, depth = stack.pop()
        if depth == len(_PATTERN):
            count += 1
            continue
        for w in _GRAPH[v][_PATTERN[depth]]:
            stack.append((w, depth + 1))
    for key in _KEYS:
        count += len(_TABLE[key])
    cells = [_Cell(f"c{i}", frozenset((i % 13, (i * 5) % 17))) for i in range(1500)]
    groups: dict = {}
    for cell in cells:
        groups.setdefault(cell.faces, []).append(cell.name)
    return count + len(sorted((len(names), faces) for faces, names in groups.items()))


class Calibration:
    """Kernel samples over one run: ``(wall time, kernel CPU seconds)``."""

    def __init__(self):
        self.at: list[float] = []
        self.cpu: list[float] = []

    def tick(self) -> None:
        """Time the kernel if the last sample is ``EVERY_S`` old; called
        between inputs, outside every timed region."""
        now = time.perf_counter()
        if self.at and now - self.at[-1] < EVERY_S:
            return
        start = clock()
        kernel()
        self.cpu.append(clock() - start)
        self.at.append(now)

    def scale(self, when: float) -> float:
        """The factor that turns a CPU time measured at wall time ``when``
        into reference time."""
        lo = bisect.bisect_left(self.at, when - WINDOW_S)
        hi = bisect.bisect_right(self.at, when + WINDOW_S)
        if hi == lo:  # no sample that close: take the nearest one
            lo = min(lo, len(self.at) - 1)
            hi = lo + 1
        return REFERENCE_MS / 1e3 / statistics.median(self.cpu[lo:hi])
