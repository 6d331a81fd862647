"""Machine-speed calibration for the end-to-end timings.

On a small shared host the speed of the same code drifts by 10-40 % from
one run to the next, more than the regressions the benchmark should catch.
A fixed kernel that never calls the library is timed between the phases of
the pipeline, never inside one. Each phase's time is scaled by
``NOMINAL_S`` over the mean of the readings before and after it, so that
it reads as seconds on a machine that runs the kernel in ``NOMINAL_S``.
The unscaled medians are reported next to the scaled ones.

The kernel mixes what the pipeline spends its time on: interpreter-bound
dictionary and string work, small numpy calls, and a gather from an 8 MB
table, which is what tracks the memory contention of a shared host. A
reading builds its inputs, runs the kernel ``REPEATS`` times, drops the
first run, which refills the caches, takes the median of the rest and frees
the inputs again. The cache state the library leaves behind therefore does
not move the reading, and nothing of the kernel is live while the library
runs, so it adds nothing to the pipeline's peak memory.
"""

from __future__ import annotations

import statistics
import time

import numpy as np

NOMINAL_S = 0.004
REPEATS = 4
TABLE_SIZE = 1_000_000


def _kernel(table: np.ndarray, index: np.ndarray, small: np.ndarray) -> float:
    t0 = time.perf_counter()
    counts: dict[int, int] = {}
    for i in range(8_000):
        counts[i % 977] = counts.get(i % 977, 0) + i
    sorted(str(i) for i in range(2_000))
    for row in small[:24]:
        np.linalg.norm(small - row, axis=1).max()
    float(table[index].sum())
    return time.perf_counter() - t0


def reading() -> float:
    """Seconds of one kernel run on the machine as it is now."""
    rng = np.random.Generator(np.random.Philox(key=20230221))
    inputs = (np.arange(TABLE_SIZE, dtype=np.float64),
              rng.integers(0, TABLE_SIZE, size=80_000), rng.standard_normal((64, 3)))
    runs = [_kernel(*inputs) for _ in range(REPEATS)]
    return statistics.median(runs[1:])


def scales(readings: list[float]) -> list[float]:
    """Scale factor of each interval between consecutive readings."""
    return [NOMINAL_S / ((a + b) / 2.0) for a, b in zip(readings, readings[1:])]
