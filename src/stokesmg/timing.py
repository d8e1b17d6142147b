"""Wall-clock accumulators for phase/kernel timing attribution.

A `Timings` object collects seconds under string keys ("kernels"). Solver
components accept an optional `Timings` and charge their work to named
kernels; the benchmark layer wraps whole phases around them and derives
coverage ratios. Keys follow the convention ``rlx(l=0)``, ``transfer``,
``coarse``, ``residual``, ``schur``; anything unattributed inside a measured
phase shows up as the difference against the phase wall time.
"""

import time

__all__ = ["Timings"]


class Timings:
    """Additive wall-clock accumulator keyed by kernel name."""

    def __init__(self):
        self.seconds = {}

    def scope(self, kernel):
        """Context manager adding the wall time of its block to `kernel`; a
        plain class, as a generator-based one costs microseconds per block."""
        return _Scope(self.seconds, kernel)

    def get(self, kernel):
        return self.seconds.get(kernel, 0.0)

    def total(self):
        return sum(self.seconds.values())


class _Scope:
    def __init__(self, seconds, kernel):
        self.seconds, self.kernel = seconds, kernel

    def __enter__(self):
        self.t0 = time.perf_counter()

    def __exit__(self, *exc):
        dt = time.perf_counter() - self.t0
        self.seconds[self.kernel] = self.seconds.get(self.kernel, 0.0) + dt
