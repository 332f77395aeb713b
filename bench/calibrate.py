"""Host-speed calibration: a fixed kernel timed between operations.

The reference host's speed drifts by up to 40% in phases of seconds to
minutes (process CPU time drifts with it, so it is not steal). One run
of the benchmark can fall wholly in a slow or a fast phase, and the
medians of whole runs then spread by more than any useful bound.

`chunk()` is a fixed piece of work with the mix of the operations: FFTs
and products on a 128x65 complex array, a dense 65x65 solve, and a
pure-Python loop. It depends on numpy only, never on stripflow, so a
change to the program cannot change it. The child times it after every
operation. `speed(chunks)` is NOMINAL_CHUNK_S over the median time of
the chunks next to an operation (those after it and after the one
before it, in the same child): 1 on the reference host in a typical
phase, below 1 in a slow phase. Reported times are measured times
multiplied by it, which removes most of the host's drift and keeps
every change of the program.
"""

from __future__ import annotations

import statistics
import time

import numpy as np

#: median chunk time on the reference host (Intel Xeon, 2 cores at
#: 2.1 GHz, numpy 2.4 with OpenBLAS on one thread)
NOMINAL_CHUNK_S = 0.09
#: calibration time after each operation, as a share of its wall time
SHARE = 0.3
ITERATIONS = 100
PY_LOOP = 1000

_rng = np.random.default_rng(20211124)
_A = _rng.standard_normal((128, 65)) + 1j * _rng.standard_normal((128, 65))
_M = _rng.standard_normal((65, 65)) + 65.0 * np.eye(65)


def chunk() -> float:
    """Run the kernel once; return its wall time in seconds."""
    t0 = time.perf_counter()
    x = _A
    for _ in range(ITERATIONS):
        p = np.fft.ifft(np.fft.fft(x, axis=0), axis=0)
        z = np.linalg.solve(_M, (p * x.conj()).T).T
        x = _A + 1e-3 * (z / (1.0 + np.abs(z)))
        s = 0
        for i in range(PY_LOOP):
            s += i & 7
    return time.perf_counter() - t0


def after_operation(op_wall_s: float) -> list[float]:
    """Chunk times of the calibration that follows one operation."""
    times = [chunk()]
    while sum(times) < SHARE * op_wall_s:
        times.append(chunk())
    return times


def speed(chunks: list[float]) -> float:
    """Host speed over `chunks` relative to the reference host's typical phase."""
    return NOMINAL_CHUNK_S / statistics.median(chunks)
