"""A fixed reference computation that gauges the host's current speed.

The benchmark runs on a shared host whose speed drifts by tens of
percent over minutes, for every kind of work alike: interpreted Python,
BLAS and memory-bound numpy.  ``probe`` times one pass of a fixed mix of
those three.  It uses numpy only and none of slowcaps, works on buffers
allocated once, and runs with the garbage collector off, so
the program's heap does not change its time.

The benchmark probes between its timed pieces of work and scales each
piece's wall time to the reference speed, at which one probe pass takes
``NOMINAL_S``: ``adjusted = wall * NOMINAL_S / mean(nearby probes)``
(``scales``).  Work done while the host ran slow is thus scaled down by
the same share as the probe was slowed.
"""

from __future__ import annotations

import functools
import gc
import statistics
import time

import numpy as np

# One probe pass at the reference host speed.  A definition, not a
# measurement: it only fixes the scale of the adjusted figures.  A pass
# takes about this long on a quiet 2-vCPU Xeon host, so there adjusted
# figures read close to wall seconds.
NOMINAL_S = 0.07


@functools.cache
def _buffers():
    rng = np.random.default_rng(12345)
    a = rng.standard_normal((320, 576))         # an im2col-sized matmul
    b = rng.standard_normal((576, 64))
    big = rng.standard_normal(1 << 21)          # 16 MiB, past the private caches
    return a, b, big, np.empty_like(big)


def _python(n: int) -> int:
    """Small-object work like the tape's per-op bookkeeping."""
    acc = 0
    nodes = []
    for i in range(n):
        node = (i, [i & 7], {"op": i % 5})
        nodes.append(node)
        acc += node[1][0] + node[2]["op"]
    return acc + len(nodes)


def probe() -> float:
    """Seconds for one pass of the reference mix (about ``NOMINAL_S``).

    The first call also allocates the buffers; discard its time.
    """
    a, b, big, out = _buffers()
    enabled = gc.isenabled()
    gc.disable()
    try:
        t0 = time.perf_counter()
        for _ in range(40):
            a @ b
        for _ in range(3):
            np.tanh(big, out=out)
            np.multiply(out, big, out=out)
        _python(60_000)
        return time.perf_counter() - t0
    finally:
        if enabled:
            gc.enable()


def scales(probes: list[float]) -> list[float]:
    """Factors from wall to reference seconds, one per piece of work.

    Piece ``i`` ran between ``probes[i]`` and ``probes[i + 1]``.  Its
    factor uses the mean of the two probes before it and the two after
    (fewer at the ends): the drift lasts far longer than one piece, and
    four probes average out more of a single probe's own noise than two.
    """
    return [NOMINAL_S / statistics.fmean(probes[max(0, i - 1): i + 3])
            for i in range(len(probes) - 1)]
