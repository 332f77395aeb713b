"""Thread count of the BLAS that numpy loaded, read and set at run time.

numpy's wheels bundle OpenBLAS (`libscipy_openblas64_`, older ones
`libopenblas64_`), which starts one GEMM thread per core unless
`OPENBLAS_NUM_THREADS` says otherwise.  The environment variable is read
once, when the library loads; afterwards only the library's own
`*_set_num_threads` call changes the count.  The library is found by its
path among the process's mapped files (`/proc/self/maps`), so this works
on Linux and finds nothing elsewhere.
"""

from __future__ import annotations

import ctypes
from contextlib import contextmanager

import numpy  # noqa: F401  (loads the BLAS this module looks for)

# (getter, setter) symbol pairs, newest numpy wheels first
_SYMBOLS = tuple(
    (f"{prefix}_get_num_threads{suffix}", f"{prefix}_set_num_threads{suffix}")
    for prefix in ("scipy_openblas", "openblas")
    for suffix in ("64_", "")
)


def _openblas():
    """(get, set) thread-count functions of the loaded OpenBLAS, or None."""
    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            paths = sorted({line.split(maxsplit=5)[5].strip()
                            for line in fh if "openblas" in line})
    except OSError:
        return None
    for path in paths:
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for get, set_ in _SYMBOLS:
            if hasattr(lib, get) and hasattr(lib, set_):
                getter, setter = getattr(lib, get), getattr(lib, set_)
                getter.restype, getter.argtypes = ctypes.c_int, []
                setter.restype, setter.argtypes = None, [ctypes.c_int]
                return getter, setter
    return None


@contextmanager
def one_blas_thread():
    """Run the body with BLAS on one thread, then restore the old count.

    Yields True when the count could be set; yields False, changing
    nothing, when no thread control was found (another BLAS, another OS).
    A process forked inside the body inherits the one-thread setting.
    """
    api = _openblas()
    if api is None:
        yield False
        return
    get, set_ = api
    old = get()
    set_(1)
    try:
        yield True
    finally:
        set_(old)
