"""Reference kernel: the yardstick for host speed.

The benchmark's hosts are shared, and their speed drifts by tens of percent
over minutes. The reference kernel is timed between operations throughout a
run, and around each cold start; every end-to-end time is reported in seconds
at reference speed, that is multiplied by ``NOMINAL_S / mean(kernel time)``
over the matching kernel runs, so that host drift cancels and runs made
minutes or commits apart can be compared.

The mean, not the median: a shared host's speed can switch between a fast
and a slow state every few seconds. The kernel times then fall in two
clusters, and their median jumps from one to the other with the share of
time spent in each, whereas the operations are slowed in proportion to it.

The kernel does not use ``ambrose`` and is a fixed mix like the engine's own
inner loops: small numpy calls (inverse, einsum, norm, allclose, stack) and
plain Python (dict updates, integer arithmetic). Do not change it: it defines
the unit of every end-to-end time.
"""

from __future__ import annotations

import statistics
import time

# seconds one kernel run takes at reference speed (about the 2-core Xeon
# development host); a scale for readability, it cancels in every comparison
NOMINAL_S = 0.1
# the kernel runs once per this many seconds of operations
EVERY_S = 1.0


class Reference:
    """Times the kernel; ``scale()`` turns wall seconds into reference seconds."""

    def __init__(self) -> None:
        import numpy as np

        rng = np.random.default_rng(0)
        self._np = np
        self._m = rng.standard_normal((3, 3)) + 3.0 * np.eye(3)
        self._t = rng.standard_normal((3, 3, 3, 3))
        self.samples: list[float] = []
        self._due = 0.0
        self._kernel()  # warm up

    def _kernel(self) -> float:
        np = self._np
        acc = 0.0
        for _ in range(1000):
            a = np.linalg.inv(self._m)
            b = np.einsum("ij,jklm->iklm", a, self._t)
            acc += float(np.linalg.norm(b))
            np.allclose(a, a.T)
            np.stack([a, a])
        counts: dict[int, int] = {}
        total = 0
        for i in range(200_000):
            counts[i % 97] = counts.get(i % 97, 0) + i
            total += i * i % 7
        return acc + total

    def sample(self) -> float:
        t0 = time.perf_counter()
        self._kernel()
        self.samples.append(time.perf_counter() - t0)
        return self.samples[-1]

    def tick(self, spent: float) -> None:
        """Keep one sample per EVERY_S of the ``spent`` seconds of operations
        so far; after a long operation the kernel runs several times."""
        while spent >= self._due:
            self.sample()
            self._due += EVERY_S

    def seconds(self) -> float:
        """Mean time of one kernel run."""
        return statistics.mean(self.samples)

    def scale(self) -> float:
        return NOMINAL_S / self.seconds()
