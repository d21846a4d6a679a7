"""Machine speed, measured around each timed section.

On a shared host the same code can run at very different speeds from one
minute to the next.  On the 2-vCPU host this benchmark was tuned on, one
`certify` pass took anywhere from 25 s to 39 s, and every suite in a slow
pass was slower by the same factor.  Raw wall times of one pass therefore
spread more than any useful bound.

The reference is a fixed load that does not touch e8lie.  It mixes the
kinds of work e8lie does: dense BLAS products, sparse integer products,
interpreted Python and plane rotations of matrix rows.  It is timed just before and just after each section.
The gated times are the raw seconds scaled to a nominal reference speed:

    seconds at reference speed = raw seconds * NOMINAL_S / (mean reference time)

A change to e8lie moves them as it moves the raw times.  A slow minute of
the host moves the reference as well, and so cancels out.  The raw times
are reported next to them.
"""

from __future__ import annotations

import time

import numpy as np
import scipy.sparse as sp

NOMINAL_S = 0.15  # the reference load's time on a quiet host of the tuning machine


class Reference:
    def __init__(self):
        rng = np.random.default_rng(0)
        self._a = rng.random((256, 256))
        s = sp.random(248, 248, density=0.02, random_state=0, format="csr")
        self._s = (s * 7).astype(np.int64)
        self._g = rng.random((248, 248))
        pairs = rng.permutation(248)
        self._src, self._dst = pairs[:120], pairs[120:240]
        theta = rng.random(120)[:, None]
        self._cos, self._sin = np.cos(theta), np.sin(theta)
        self.samples: list[float] = []
        self.measure()  # the first run pays one-off costs (BLAS start, first allocations)
        self.samples.clear()

    def measure(self) -> float:
        t0 = time.perf_counter()
        for _ in range(20):
            self._a @ self._a
        x = 0
        for i in range(200_000):
            x += i * i
        for _ in range(200):
            (self._s @ self._s - self._s @ self._s).nnz
        g = self._g.copy()
        for _ in range(300):  # plane rotations of row pairs, as in the chart
            gb, gc = g[self._src], g[self._dst]
            g[self._src] = self._cos * gb - self._sin * gc
            g[self._dst] = self._sin * gb + self._cos * gc
        self.samples.append(time.perf_counter() - t0)
        return self.samples[-1]

    def scale(self, raw_s: float) -> float:
        """raw_s at the nominal speed.  The reference must have been measured
        just before the section; it is measured again now, just after it."""
        before = self.samples[-1]
        return raw_s * NOMINAL_S / (0.5 * (before + self.measure()))
