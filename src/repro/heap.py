"""Keep a tuning run's freed heap for its next allocation (glibc only).

A run allocates and frees numpy temporaries of up to a few MiB over and
over: a PaCM predict over a drafted set, a lowered population, a
minibatch's activations.  Under glibc's defaults a block above 128 KiB
gets its own fresh ``mmap`` until a block that size has been freed, and
the heap is handed back to the OS whenever more than twice that lies
free at its top, so such calls page-fault their memory in again, call
after call.  How often depended on what else sat at the top of the heap:
garbage an earlier fit left for the collector used to pin it.
:func:`retain_freed_heap` fixes both limits for the process instead.
Stdlib only; a no-op where the C library has no ``mallopt``.
"""

from __future__ import annotations

import ctypes

_M_TRIM_THRESHOLD = -1
_M_MMAP_THRESHOLD = -3
#: largest block served from the heap rather than from its own mmap
_MMAP_THRESHOLD = 16 << 20
#: free bytes at the top of the heap kept rather than returned to the OS
_TRIM_THRESHOLD = 32 << 20
_RETAINED: bool | None = None  # set once per process


def _set_limits() -> bool:
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (OSError, AttributeError):
        return False
    mallopt.argtypes, mallopt.restype = [ctypes.c_int, ctypes.c_int], ctypes.c_int
    return bool(
        mallopt(_M_MMAP_THRESHOLD, _MMAP_THRESHOLD)
        and mallopt(_M_TRIM_THRESHOLD, _TRIM_THRESHOLD)
    )


def retain_freed_heap() -> bool:
    """Set both limits, once per process; True where the C library took them.

    Once, because the ctypes lookup itself leaves a reference cycle.
    """
    global _RETAINED
    if _RETAINED is None:
        _RETAINED = _set_limits()
    return _RETAINED
