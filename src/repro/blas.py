"""One BLAS thread while a cost model computes: one tuning job, one core.

OpenBLAS hands any GEMM past a few hundred kflops to a helper thread that
busy-waits after the call returns, so an uncapped job alternating small
GEMMs with Python burns two cores for one core's work.  Stdlib only; the
library is looked up on first use, which must come after numpy's import.
"""

from __future__ import annotations

import contextlib
import ctypes
import os
import threading

_LOCK = threading.Lock()
_API = ()  # (basename, get, set) once looked up; basename None = nothing to cap
_DEPTH = 0  # live single_thread() scopes, all threads
_SAVED = 0  # the thread count the outermost scope replaced
_SYMBOLS = [p + "openblas_%s_num_threads" + s for p in ("scipy_", "") for s in ("", "64_", "_64_")]


def _find():
    """Thread-count getter and setter of the OpenBLAS mapped into this process."""
    try:
        with open("/proc/self/maps", encoding="utf-8", errors="replace") as maps:
            paths = {line.split(None, 5)[5].strip() for line in maps if "openblas" in line}
    except OSError:
        paths = ()
    # a numpy wheel vendors its own copy: prefer it to the one scipy may have mapped too
    for path in sorted(paths, key=lambda p: ("numpy" not in p, p)):
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for symbol in _SYMBOLS:
            get, set_ = getattr(lib, symbol % "get", None), getattr(lib, symbol % "set", None)
            if get and set_:
                get.argtypes, get.restype = [], ctypes.c_int
                set_.argtypes, set_.restype = [ctypes.c_int], None
                return os.path.basename(path), get, set_
    return None, lambda: 0, lambda count: None  # no /proc, MKL, Accelerate: a silent no-op


@contextlib.contextmanager
def single_thread():
    """Hold OpenBLAS at one thread until the last concurrent scope exits.

    Yields the capped library's basename — None where the scope is a no-op.
    """
    global _API, _DEPTH, _SAVED
    with _LOCK:
        _API = _API or _find()
        name, get, set_ = _API
        if _DEPTH == 0:
            _SAVED = get()
            set_(1)
        _DEPTH += 1
    try:
        yield name
    finally:
        with _LOCK:
            _DEPTH -= 1
            if _DEPTH == 0:
                set_(_SAVED)
