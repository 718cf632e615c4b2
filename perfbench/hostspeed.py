"""Host speed, measured with a fixed reference kernel during each operation.

On a shared host the same operation can take 1.5 to 1.8 times longer for
minutes at a time, and for a few seconds at a time, because other work
contends for the core (CPU time grows with wall time, so it is not
descheduling). A fixed kernel timed while an operation runs slows down
with it. The benchmark reports its timings at the speed at which one
kernel call takes ``REFERENCE_S``:

    normalized seconds = measured seconds * REFERENCE_S / kernel seconds

The kernel is part of the benchmark, not of beamcam, so a change to the
program moves the normalized figures as it moves the raw ones. It mixes
interpreter work and small numpy calls, like the truth pass, with a pass
over arrays of the size order-4 enumeration uses.
"""

from __future__ import annotations

import signal
import statistics
from time import perf_counter

import numpy as np

#: Seconds one kernel call takes on the nominal host.
REFERENCE_S = 0.004
#: Seconds between kernel calls while an operation runs.
INTERVAL_S = 0.25

_RNG = np.random.default_rng(12345)
_POINTS = _RNG.standard_normal((64, 3))
_BIG = _RNG.standard_normal((50_000, 3))


def reference_kernel() -> float:
    """A fixed amount of mixed work; never changes between commits.

    It allocates no Python containers, so it does not move the garbage
    collections of the operation it interrupts.
    """
    acc = 0.0
    for i in range(60):
        c = np.cross(_POINTS[i % 64], _POINTS[(i * 7) % 64])
        d = np.einsum("ij,j->i", _POINTS, c)
        acc += float(np.abs(d).max()) + float(np.linalg.norm(c))
    acc += float(np.einsum("ij,ij->i", _BIG, _BIG[::-1]).sum())
    return acc


class Sampler:
    """Times one kernel call at the start, every INTERVAL_S and at the end.

    The calls run in a SIGALRM handler, so they interleave with the
    operation in its own thread; the operation's timings include them
    (about 1.5%, the same for every commit).
    """

    def __init__(self):
        self.samples: list[float] = []
        self._previous = None

    def _tick(self, *_):
        start = perf_counter()
        reference_kernel()
        self.samples.append(perf_counter() - start)

    def __enter__(self):
        self._tick()
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)
        self._tick()

    def factor(self) -> float:
        """REFERENCE_S over the mean kernel time during the operation."""
        return REFERENCE_S / statistics.mean(self.samples)
