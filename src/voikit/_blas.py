"""One OpenBLAS thread inside every fit.

numpy and scipy each bundle an OpenBLAS with its own thread pool.  A fit's
BLAS and LAPACK calls are small, so those pools spend more CPU waking and
spinning than they save in wall time, and the bootstrap pool
(``--threads``) already runs replicates side by side.  Inside
:func:`one_blas_thread` every OpenBLAS loaded in the process runs at one
thread; the outermost exit restores the count each had.  A CLI process
starts every OpenBLAS at one thread unless the caller set
``OPENBLAS_NUM_THREADS`` (see :mod:`voikit.cli`), so there the scope finds
each count at 1 already; library callers keep the pool they started with
outside a fit.

The libraries are found in ``/proc/self/maps`` and their thread-count
functions resolved with ctypes.  Where neither turns up (not Linux, not
OpenBLAS, a renamed symbol) the scope does nothing.  The count is
process-wide, so a lock and a depth counter make the outermost entry save
and set and the outermost exit restore; worker threads nested inside a
scope do not race.  An entry at any depth also sets a library loaded since
the last one (scipy's arrives with the first GP fit), found by rescanning
the maps whenever the set of imported modules has grown.
"""

from __future__ import annotations

import ctypes
import os
import sys
import threading
from contextlib import contextmanager

# (getter, setter) per wheel: numpy 2.x, scipy 1.17, then the unprefixed
# names of numpy 1.24 (64-bit integers) and scipy 1.10
_SYMBOLS = (
    ("scipy_openblas_get_num_threads64_", "scipy_openblas_set_num_threads64_"),
    ("scipy_openblas_get_num_threads", "scipy_openblas_set_num_threads"),
    ("openblas_get_num_threads64_", "openblas_set_num_threads64_"),
    ("openblas_get_num_threads", "openblas_set_num_threads"),
)

_lock = threading.Lock()
_depth = 0
_found: dict[str, tuple | None] = {}  # path -> (get, set), None without them
_modules_seen = -1
_saved: dict[str, int] = {}  # path -> the count the outermost exit restores


def _mapped_openblas() -> set[str]:
    """Paths of the OpenBLAS libraries mapped into this process."""
    try:
        with open("/proc/self/maps", "rb") as f:
            lines = f.read().splitlines()
    except OSError:
        return set()
    paths = (line.rsplit(None, 1)[-1] for line in lines if b"openblas" in line)
    return {os.fsdecode(p) for p in paths if b"openblas" in p.rsplit(b"/", 1)[-1]}


def _resolve(path: str) -> tuple | None:
    try:
        lib = ctypes.CDLL(path, mode=os.RTLD_NOLOAD)
    except OSError:
        return None
    for names in _SYMBOLS:
        if all(hasattr(lib, name) for name in names):
            return tuple(getattr(lib, name) for name in names)
    return None


def _libraries() -> dict[str, tuple | None]:
    """Every OpenBLAS mapped so far, with its (get, set) pair or None."""
    global _modules_seen
    if len(sys.modules) != _modules_seen:
        _modules_seen = len(sys.modules)
        for path in _mapped_openblas() - _found.keys():
            _found[path] = _resolve(path)
    return _found


def _thread_counts() -> dict[str, int]:
    """The current thread count of every OpenBLAS the scope controls."""
    with _lock:
        return {path: fns[0]() for path, fns in _libraries().items() if fns}


@contextmanager
def one_blas_thread():
    """Run the body with every loaded OpenBLAS at one thread."""
    global _depth
    with _lock:
        _depth += 1
        for path, fns in _libraries().items():
            if fns and path not in _saved:
                _saved[path] = fns[0]()
                fns[1](1)
    try:
        yield
    finally:
        with _lock:
            _depth -= 1
            if _depth == 0:
                for path, count in _saved.items():
                    _found[path][1](count)
                _saved.clear()
