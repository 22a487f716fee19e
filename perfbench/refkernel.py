"""Fixed reference work that measures how fast the machine runs right now.

The kernel uses numpy and scipy only, never lowregret, so no change to the
library moves it.  It mixes the two kinds of work the workloads do: dense
triangular solves with a Cholesky factor (as in a large sweep) and many
tiny numpy calls from a Python loop (as in the audit).  Calling a
``RefKernel`` returns the seconds the fixed work took; the benchmark runs it
right before and after each timed call, in the same process, and divides
its timings by the kernel's, so a slow spell of a shared machine cancels.
"""

from __future__ import annotations

import time

import numpy as np
from scipy.linalg import cho_factor, cho_solve

SOLVES = 500
SMALL_CALLS = 30000


class RefKernel:
    def __init__(self, n: int = 400):
        rng = np.random.default_rng(0)
        a = rng.standard_normal((n, n))
        self.factor = cho_factor(a @ a.T + n * np.eye(n))
        self.b = rng.standard_normal(n)
        self.small = rng.standard_normal((31, 40))

    def __call__(self) -> float:
        factor, b, small = self.factor, self.b, self.small
        started = time.perf_counter()
        for _ in range(SOLVES):
            cho_solve(factor, b)
        acc = 0.0
        for _ in range(SMALL_CALLS):
            acc += float(np.sum(small[1:] * small[1:]))
        return time.perf_counter() - started


if __name__ == "__main__":
    kernel = RefKernel()
    print(" ".join(f"{kernel():.4f}" for _ in range(5)))
