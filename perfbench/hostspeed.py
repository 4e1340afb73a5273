"""Correction of measured times for the host's drifting speed.

On the 2-core host where the reference figures were taken, speed drifts by
tens of percent within a minute while CPU time stays 0.93 to 0.99 of wall
time: the host itself runs faster or slower.  A fixed pure-Python reference
loop, timed after every task, slows down and speeds up with the program
(over one minute, their 2 s window averages correlated at 0.94), so every
time the benchmark reports is multiplied by
REFERENCE_S / (median reference-loop time in the run): the time the run
would have taken on a host where the reference loop takes REFERENCE_S.
A change to the program does not change the reference loop, so it shows
in full.
"""

from __future__ import annotations

import statistics
import time

REFERENCE_S = 160e-6  # the reference loop's median time on the benchmark's 2-core host
_ROWS = tuple(tuple((i * 7 + j * 3) % 5 - 2 for j in range(23)) for i in range(8))


def reference_loop() -> int:
    """Integer work shaped like hilblat's kernels: sums of zipped tuples."""
    total = 0
    for row in _ROWS:
        for col in _ROWS:
            total += sum(x * y for x, y in zip(row, col) if x)
    return total


class HostSpeed:
    """Reference-loop samples of one process."""

    def __init__(self, warmup: int = 30):
        self.samples: list[float] = []
        for _ in range(warmup):
            self.sample()

    def sample(self) -> None:
        start = time.perf_counter()
        reference_loop()
        elapsed = time.perf_counter() - start
        self.samples.append(elapsed)

    def factor(self) -> float:
        """Multiply a time measured in this process by this."""
        return REFERENCE_S / statistics.median(self.samples)
