"""The speed probe: how fast the machine runs at this moment.

The machine this benchmark was written on is a 2-CPU share of a busy host.
Its speed switches between two states every few seconds, for every process
alike: in the slow one a cold 301-price ``sweep`` of ``sys1`` takes about
1.05 s against 0.66 s, and an online step 19 us against 11.4 us. A run of the
benchmark lands in the slow state for any share of its time, so raw times of
the same program spread 25-75% between runs. A probe of fixed work, timed
right next to each measurement, tells which state the measurement ran in;
dividing by the typical probe of that state (``state_probes`` in run.py)
removes the state and leaves the program's speed.

The probe is a mix of interpreter and small matrix work like the program's.
It uses only Python and numpy, never the program, so no change to the
program moves it. Each probe is the least time over TRIES tries, which skips
the tries that an interruption stretched.

The online sessions need a finer probe. Their metric is the median latency
of steps of about 20 us, which the interruptions that stretch a whole
command hit too rarely to move, while the slow state stretches every step.
``step`` is a piece of fixed work about as long as a step; a session times
one after every step, and the median of those tells the state the steps ran
in, in the same way.
"""

from __future__ import annotations

import time

# Iterations of the three parts of one try, and tries per probe.
LOOP, SMALL, GEMM, TRIES = 50_000, 800, 300, 5
# Scaled figures read as times on a machine where the probe takes REF_S. On
# the machine above (Intel Xeon, Python 3.11.7, numpy 2.4.6, OpenBLAS 0.3.31,
# one BLAS thread) it took 8.4 ms in the fast state and 13-14 ms in the slow.
REF_S = 0.010
# Iterations of the 3x3 product in ``step``, and the median time of one
# ``step`` that scaled step latencies refer to. On the machine above a
# ``step`` took 11.5 us alone and 20-22 us between controller steps.
STEP_ITERS = 3
STEP_REF_US = 20.0


class SpeedProbe:
    """Callable: seconds of the fastest of TRIES tries of the fixed work."""

    def __init__(self):
        import numpy as np  # imported here so that the caller can pin BLAS threads first

        self.np = np
        self.a = np.random.default_rng(0).standard_normal((50, 50)) / 8.0
        self.small = np.random.default_rng(1).standard_normal((3, 3))

    def once(self) -> float:
        np, a, small = self.np, self.a, self.small
        t0 = time.perf_counter()
        acc = 0
        for i in range(LOOP):
            acc += i * i
        x = small
        for _ in range(SMALL):
            x = small @ x + small
            x = x / np.abs(x).max()
        y = a
        for _ in range(GEMM):
            y = a @ y
            y = y / np.abs(y).max()
        return time.perf_counter() - t0

    def __call__(self) -> float:
        return min(self.once() for _ in range(TRIES))

    def step(self) -> None:
        """Fixed work about as long as one online controller step."""
        np, small = self.np, self.small
        x = small
        for _ in range(STEP_ITERS):
            x = small @ x + small
            x = x / np.abs(x).max()
