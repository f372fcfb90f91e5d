"""Host-speed calibration: a fixed pure-Python loop timed beside the ops.

The benchmark's host is shared: whole runs land in phases, minutes
long, where it runs up to 2.5x slower, and a fixed CPU loop slows down
with them. Medians within one run cannot remove a slowdown that covers
the whole run. So each
process times :func:`sample` before every op (and once after the last),
and every time the benchmark reports is scaled by ``REFERENCE_S`` over
the loop's local time around it. The reported times read as on a host
where the loop takes ``REFERENCE_S``: the machine the benchmark was
defined on, a 2-vCPU VM running CPython 3.11. The raw times are kept in
the details line.

The loop uses no code of the program and allocates no object the
garbage collector tracks, so a change to the program, or to collector
settings made by the program, cannot move it. Its dict and key list
fit in the core's private caches, so how much of them an op evicted
does not move it either.
"""

from __future__ import annotations

import statistics
import time
from typing import List, Sequence

#: Median :func:`sample` on the machine the benchmark was defined on.
REFERENCE_S = 0.0041
#: Calibration samples on each side of an op that its scale is taken from.
WINDOW = 3

_TABLE = {(i * 2654435761) & 0xFFFFFFFF: i for i in range(1 << 10)}
_KEYS = list(_TABLE)
_PASSES = range(64)


def _loop(keys=_KEYS, table=_TABLE) -> int:
    total = 0
    for _ in _PASSES:
        for key in keys:
            total += table[key] ^ (key >> 3)
    return total


def sample() -> float:
    """Seconds the calibration loop takes now."""
    start = time.perf_counter()
    _loop()
    return time.perf_counter() - start


def samples(count: int) -> List[float]:
    return [sample() for _ in range(count)]


_loop()  # let the interpreter specialise the loop before it is timed


def op_scales(calibration: Sequence[float]) -> List[float]:
    """One scale per op, from the calibration samples around it.

    ``calibration[i]`` is taken just before op *i* and the last one after
    the last op. Op *i* is scaled by the mean of the ``2 * WINDOW``
    samples nearest to it. A mean, not a median: when the host shares
    the core out in time slices, the share of samples that were cut
    short is the share of the op that was, and a median would drop them.
    """
    ops = len(calibration) - 1
    width = min(2 * WINDOW, len(calibration))
    scales = []
    for i in range(ops):
        low = max(0, min(i + 1 - WINDOW, len(calibration) - width))
        window = calibration[low:low + width]
        scales.append(REFERENCE_S / statistics.fmean(window))
    return scales
