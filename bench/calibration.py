"""Speed of the host, measured on fixed work that does not touch tropkern.

The virtual CPU this benchmark was built on changes speed by up to about
2x, within a second and in phases that last from tens of seconds to many
minutes, so two runs of the same code minutes apart can differ by far more
than any change worth measuring.  A run therefore times a short, fixed *probe* between its
operations and reports every time scaled to a reference speed::

    scaled = measured * REFERENCE_PROBE_S / median(probe times around it)

The probe mixes the two kinds of work the program does: an interpreted loop
of float arithmetic, list indexing and calls (like the Bellman-Ford and
per-entry kernel evaluation of ``representer`` and ``kernels``), and numpy
max-plus broadcasts and reductions (like ``linear_theory`` and
``conjugation``).  It uses nothing from tropkern, so a change to the program
cannot move it; only the host can.
"""

from __future__ import annotations

import time

import numpy as np

# Median probe time on a 2-vCPU Intel Xeon virtual machine at 2.1 GHz in a
# phase without slowdown; scaled times read as milliseconds on that host.
REFERENCE_PROBE_S = 0.0072

_RNG = np.random.default_rng(0)
_A = _RNG.integers(-50, 51, (40, 40)).astype(float)
_B = _RNG.integers(-50, 51, (40, 40)).astype(float)
_ROW = [float(v) for v in _RNG.integers(-50, 51, 400)]
# Work buffers, allocated once so that a probe allocates no memory and does
# not depend on the state the preceding operation left the allocator in.
_SUMS = np.empty((40, 40, 40))
_C = np.empty((40, 40))


def _interpreted(row: list[float]) -> float:
    """Relaxation sweeps over a list: Bellman-Ford-like interpreted work."""
    dist = [0.0] * len(row)
    for _ in range(21):
        for i in range(1, len(row)):
            cand = dist[i - 1] + row[i]
            if cand < dist[i]:
                dist[i] = cand
            elif abs(cand - dist[i]) < 1.0:
                dist[i] = max(dist[i], cand - 0.5)
    return sum(dist)


def _vectorized(a: np.ndarray, b: np.ndarray) -> float:
    """Max-plus products by broadcasting: numpy work."""
    np.copyto(_C, a)
    for _ in range(27):
        np.add(_C[:, :, None], b[None, :, :], out=_SUMS)
        np.max(_SUMS, axis=1, out=_C)
        np.subtract(_C, _C.max(), out=_C)
    return float(_C.sum())


def probe() -> float:
    """Seconds taken by one run of the fixed probe work."""
    start = time.perf_counter()
    _interpreted(_ROW)
    _vectorized(_A, _B)
    return time.perf_counter() - start


def scale(probes: list[float]) -> float:
    """Factor that turns times measured next to ``probes`` into reference time.

    Computes the median itself, without ``statistics``: fresh interpreters
    import this module before they time the import of tropkern, which must
    not find a module it would load itself already loaded.
    """
    ordered = sorted(probes)
    mid = len(ordered) // 2
    median = ordered[mid] if len(ordered) % 2 else (ordered[mid - 1] + ordered[mid]) / 2
    return REFERENCE_PROBE_S / median
