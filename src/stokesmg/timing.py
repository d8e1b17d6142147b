"""Wall-clock accumulators for phase/kernel timing attribution.

A `Timings` object collects seconds and call counts under string keys
("kernels"). Solver components accept an optional `Timings` and charge
their work to named kernels; the benchmark layer wraps whole phases around
them and derives coverage ratios. Keys follow the convention ``rlx(l=0)``,
``transfer``, ``coarse``, ``residual``, ``schur``; anything unattributed
inside a measured phase shows up as the difference against the phase wall
time.
"""

import time

__all__ = ["Timings"]


class Timings:
    """Additive wall-clock accumulator keyed by kernel name; `calls` counts
    the scopes entered per kernel."""

    def __init__(self):
        self.seconds = {}
        self.calls = {}

    def scope(self, kernel):
        """Context manager adding the wall time of its block to `kernel` and
        one to its call count; a plain class, as a generator-based one costs
        microseconds per block."""
        return _Scope(self, kernel)

    def get(self, kernel):
        return self.seconds.get(kernel, 0.0)

    def total(self):
        return sum(self.seconds.values())


class _Scope:
    def __init__(self, timings, kernel):
        self.timings, self.kernel = timings, kernel

    def __enter__(self):
        self.t0 = time.perf_counter()

    def __exit__(self, *exc):
        dt = time.perf_counter() - self.t0
        seconds, calls = self.timings.seconds, self.timings.calls
        seconds[self.kernel] = seconds.get(self.kernel, 0.0) + dt
        calls[self.kernel] = calls.get(self.kernel, 0) + 1
