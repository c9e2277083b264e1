"""A fixed reference loop that gauges the machine's speed next to each operation.

On a shared machine the CPU's speed drifts by tens of percent over seconds
and minutes, so a wall time on its own mostly measures the neighbours. The
untraced runner times one pass of this loop right before every operation;
an operation's time divided by the mean of the passes just before and just
after it is its time in "ref" units. The loop is the same kind of work as
the program's (validating point objects and small numpy calls driven from
Python), so a slow spell stretches both by about the same factor and the
quotient keeps only the program's own cost. The loop imports nothing from geodescent: a change to the
program moves the numerator only.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

PASS_ITERATIONS = 700  # about 10 ms per pass on a 2.1 GHz Xeon

_M = np.random.default_rng(20240219).standard_normal((6, 6))
_M = _M @ _M.T


@dataclass(frozen=True)
class _Point:
    """A validating point, built the way the program builds its points."""

    coords: np.ndarray

    def __post_init__(self):
        c = np.asarray(self.coords, dtype=float)
        if c.ndim != 1 or not np.all(np.isfinite(c)):
            raise ValueError("reference loop left the finite reals")
        object.__setattr__(self, "coords", c)


def one_pass() -> float:
    """Normalised gradient steps on a fixed 6x6 quadratic; returns the summed values."""
    x = _Point(np.ones(6))
    total = 0.0
    for _ in range(PASS_ITERATIONS):
        g = _M @ x.coords
        total += float(g @ x.coords)
        x = _Point(x.coords - 0.01 * g / max(1.0, float(np.linalg.norm(g))))
    return total


def timed_pass() -> tuple[float, float]:
    """(wall, process CPU) seconds of one pass."""
    c0 = time.process_time()
    t0 = time.perf_counter()
    one_pass()
    return time.perf_counter() - t0, time.process_time() - c0


def bracketing(passes: list[float]) -> list[float]:
    """For the op after each pass, the mean of that pass and the next one
    (the pass before the op and the pass after it); the last op has only its own."""
    return [(a + b) / 2.0 for a, b in zip(passes, passes[1:])] + passes[-1:]
