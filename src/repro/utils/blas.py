"""BLAS thread control: one BLAS thread per compute lane.

A *compute lane* is anything that runs its own GEMMs concurrently with
others: a runner worker process, a data-parallel rank, a serving
replica.  NumPy's OpenBLAS keeps one pool per process.  Two lanes in one
process queue their GEMMs on that pool, and its idle workers spin on the
cores the other lane needs; lanes in separate processes each inherit a
pool as wide as the machine and oversubscribe it.  The rule, the same at
every call site:

* **more than one lane** — every lane's BLAS runs one thread.  Worker
  processes call :func:`pin_single_thread` at start-up; in-process lanes
  (a server's replica threads, a data-parallel trainer's rank 0) hold a
  :func:`single_thread_lease` while they run;
* **one lane** — the pool is left alone: a lone lane has the cores to
  itself, and pinning it only slows its larger GEMMs.

Leases are process-wide and counted: the first one records the thread
count it finds and pins the pool, the last one to end restores that
count, so overlapping holders never undo each other.

The thread count never changes a result: OpenBLAS splits a GEMM's M and N
dimensions across threads, never K, so every output element is summed in
the same order at any width (``tests/test_blas.py`` checks this on the
training and inference paths).
"""

from __future__ import annotations

import ctypes
import threading
from functools import lru_cache
from typing import Callable

import numpy as np  # noqa: F401 - maps NumPy's OpenBLAS before any lookup

__all__ = [
    "BlasLease",
    "openblas_thread_calls",
    "pin_single_thread",
    "single_thread_lease",
]

#: (set, get) thread-count entry points of the OpenBLAS builds NumPy ships
#: with (scipy-openblas wheels, 64-bit and 32-bit integer) or links to.
_OPENBLAS_THREAD_SYMBOLS = (
    ("scipy_openblas_set_num_threads64_", "scipy_openblas_get_num_threads64_"),
    ("scipy_openblas_set_num_threads", "scipy_openblas_get_num_threads"),
    ("openblas_set_num_threads64_", "openblas_get_num_threads64_"),
    ("openblas_set_num_threads", "openblas_get_num_threads"),
)


@lru_cache(maxsize=1)
def openblas_thread_calls() -> tuple[Callable, Callable] | None:
    """``(set_num_threads, get_num_threads)`` of the loaded OpenBLAS.

    Looks only at libraries this process has already mapped (Linux), so
    it finds the pool NumPy itself uses; ``None`` when there is none.
    """
    try:
        with open("/proc/self/maps") as fh:
            paths = sorted({
                line.split()[-1] for line in fh if "openblas" in line.lower()
            })
    except OSError:
        return None
    for path in paths:
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for set_name, get_name in _OPENBLAS_THREAD_SYMBOLS:
            setter = getattr(lib, set_name, None)
            getter = getattr(lib, get_name, None)
            if setter is not None and getter is not None:
                setter.argtypes, setter.restype = [ctypes.c_int], None
                getter.argtypes, getter.restype = [], ctypes.c_int
                return setter, getter
    return None


def pin_single_thread() -> None:
    """Run this process's BLAS on one thread (worker start-up).

    ``OPENBLAS_NUM_THREADS`` would only reach a pool that has not started;
    a forked worker inherits the parent's thread count, and a spawned one
    has imported NumPy before its initializer runs.
    """
    calls = openblas_thread_calls()
    if calls is not None:
        calls[0](1)


_lock = threading.Lock()
_holders = 0
_found = 0


class BlasLease:
    """One holder's share of the single-thread rule; ``release`` is
    idempotent, and a lease taken for a single lane holds nothing."""

    def __init__(self, held: bool):
        self._held = held

    def release(self) -> None:
        global _holders
        with _lock:
            if not self._held:
                return
            self._held = False
            _holders -= 1
            if _holders == 0:
                openblas_thread_calls()[0](_found)


def single_thread_lease(lanes: int) -> BlasLease:
    """Pin this process's BLAS to one thread while ``lanes`` >= 2 run.

    With one lane (or no OpenBLAS found) the pool is left alone.  The
    count found by the first live lease is restored when the last one is
    released.
    """
    global _holders, _found
    calls = openblas_thread_calls() if lanes >= 2 else None
    if calls is None:
        return BlasLease(held=False)
    with _lock:
        if _holders == 0:
            _found = calls[1]()
            calls[0](1)
        _holders += 1
    return BlasLease(held=True)
