"""A fixed reference loop that tracks how fast the machine runs right now.

On a shared host the same code runs up to twice as slow from one second to
the next, and the reference loop slows by the same factor as the library
does. The harness times the reference between ops and divides each op's
wall time by the reference time interpolated at the op, so the reported
times read as milliseconds on a machine where the reference takes exactly
``REFERENCE_MS``. The reference never calls the library, so a change to the
library moves the normalised times as it moves the raw ones.

The reference is timed in CPU time of the calling thread: a library that
made the process wait (on a lock, another thread or the disk) slows its ops
in wall time without speeding up the reference, so waiting still counts.
"""

from __future__ import annotations

from time import perf_counter, thread_time

import numpy as np

#: What the reference loop is taken to cost, in ms, at reference speed.
REFERENCE_MS = 1.0
#: The reference is timed this many times in a row; the fastest counts.
REPEATS = 3
#: A fresh reference time is taken between ops once this much wall time has passed.
INTERVAL_S = 0.05

_MATRIX = np.arange(36.0).reshape(6, 6) / 36.0


def reference_loop() -> float:
    """Interpreted arithmetic mixed with small numpy calls, like the library's inner loops."""
    total = 0.0
    matrix = _MATRIX
    for i in range(120):
        product = matrix @ matrix.T
        total += float(product[1, 2]) * 1e-9 + float(np.hypot(product[0, 0], i))
        for j in range(12):
            total += (i * j) % 7 * 0.5
    return total


def reference_ms() -> float:
    """Thread CPU time of one reference loop, in ms: the fastest of ``REPEATS``."""
    best = float("inf")
    for _ in range(REPEATS):
        t0 = thread_time()
        reference_loop()
        best = min(best, thread_time() - t0)
    return best * 1e3


class Calibration:
    """Reference times sampled along a pass, and the speed factor they give each op."""

    def __init__(self) -> None:
        self.times: list[float] = []
        self.reference: list[float] = []
        self.sample()

    def sample(self) -> None:
        t = perf_counter()
        self.reference.append(reference_ms())
        self.times.append(t)

    def maybe_sample(self) -> None:
        if perf_counter() - self.times[-1] >= INTERVAL_S:
            self.sample()

    def factors(self, midpoints) -> np.ndarray:
        """``REFERENCE_MS`` over the reference time interpolated at each op's midpoint."""
        at = np.interp(np.asarray(midpoints, dtype=float), self.times, self.reference)
        return REFERENCE_MS / at
