"""Wall-clock accumulators for phase/kernel timing attribution.

A `Timings` object collects seconds under string keys ("kernels"). Solver
components accept an optional `Timings` and charge their work to named
kernels; the benchmark layer wraps whole phases around them and derives
coverage ratios. Keys follow the convention ``rlx(l=0)``, ``transfer``,
``coarse``, ``residual``, ``schur``; anything unattributed inside a measured
phase shows up as the difference against the phase wall time.
"""

import time
from contextlib import contextmanager

__all__ = ["Timings"]


class Timings:
    """Additive wall-clock accumulator keyed by kernel name."""

    def __init__(self):
        self.seconds = {}

    def add(self, kernel, dt):
        self.seconds[kernel] = self.seconds.get(kernel, 0.0) + dt

    @contextmanager
    def scope(self, kernel):
        t0 = time.perf_counter()
        try:
            yield
        finally:
            self.add(kernel, time.perf_counter() - t0)

    def get(self, kernel):
        return self.seconds.get(kernel, 0.0)

    def total(self):
        return sum(self.seconds.values())
