"""Machine speed from fixed computations that use no tetralab code.

Wall time on a shared host drifts with the host's load: the same operation
can take 25 % longer a quarter of an hour later, or twice as long.  A run
therefore times a reference computation with the same profile as its
operations right before and right after each operation and each set-up
sample, and scales its median times by NOMINAL_S over the median of
those reference times: the time the work would take on the machine
running at the speed where the reference computation takes NOMINAL_S.
The median over the whole run passes over a reference sample that a
momentary stall hit.  The reference computations do not change with
tetralab, so a change to the program moves the scaled time as much as
the wall time.
"""

import statistics
import time

import numpy as np
from scipy.integrate import solve_ivp
from scipy.ndimage import gaussian_filter

# time of either reference computation at nominal machine speed
NOMINAL_S = 0.045
# timed runs per sample: a stall during one of them does not move the median
RUNS = 3


def _oscillator(t, y):
    return np.array([y[1], -y[0]])


def ode():
    """Interpreter-bound, like the chord searches: DOP853 steps calling a
    Python right-hand side on two-element arrays (about 2 300 calls)."""
    solve_ivp(_oscillator, (0.0, 240.0), [1.0, 0.0], method="DOP853",
              rtol=1e-10, atol=1e-12)


_FIELD = np.random.default_rng(0).standard_normal((256, 256))


def grid():
    """Array-bound, like the pb4 descent: periodic blurs and shifts of a
    256 x 256 field."""
    x = _FIELD
    for _ in range(32):
        x = gaussian_filter(x, 1.5, mode="wrap") + 0.5 * np.roll(x, 1, 0)


class Reference:
    """A reference computation and the times it took in this run."""

    def __init__(self, fn):
        self.fn = fn
        self.samples = []

    def sample(self):
        """Time RUNS runs of the computation and keep the times.  A first,
        untimed run refills the caches that the work before evicted."""
        self.fn()
        for _ in range(RUNS):
            t0 = time.perf_counter()
            self.fn()
            self.samples.append(time.perf_counter() - t0)

    def factor(self):
        """Scale for this run's times: NOMINAL_S over the median sample."""
        return NOMINAL_S / statistics.median(self.samples)
