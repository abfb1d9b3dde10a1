"""One BLAS thread while a fit runs.

A fit's BLAS calls are small ((32, n) x (n, m) AIPCW products, m x m GEL
systems): a second OpenBLAS thread only adds overhead to them and, in a
pool of worker processes, competes with the other workers for the cores.
More cores are used through processes: on Linux with at least two CPUs
available, a fit outside a worker process forks one process that evaluates
every split's second cross-fitting fold (`moments.fold_worker`),
bit-identical to running the folds in turn, and `run_monte_carlo(threads=)`
runs replications in worker processes, whose fits run their folds in turn.
Pinning also makes a fit independent of the caller's BLAS thread count,
which otherwise moves the last bits of the estimates.

Every BLAS call of a fit goes through numpy, so the pin covers the OpenBLAS
that the numpy wheel bundles (in ``numpy.libs``). It is looked up once, at
the first fit, through its ``*_get_num_threads`` and ``*_set_num_threads``
symbols. Where none is found, the pin does nothing.
"""

from __future__ import annotations

import ctypes
import threading
from collections.abc import Callable
from contextlib import ContextDecorator
from dataclasses import dataclass
from functools import cache
from pathlib import Path

import numpy

_SYMBOLS = ("scipy_openblas_{}64_", "scipy_openblas_{}", "openblas_{}64_", "openblas_{}")


@dataclass(frozen=True)
class OpenBlas:
    """Thread-count controls of one loaded OpenBLAS."""

    package: str
    get: Callable[[], int]
    set: Callable[[int], None]


@cache
def bundled_openblas() -> tuple[OpenBlas, ...]:
    """The OpenBLAS libraries bundled with numpy; empty if none."""
    found = []
    folder = Path(numpy.__file__).parent.parent / "numpy.libs"
    for path in sorted(folder.glob("lib*openblas*.so*")):
        try:
            cdll = ctypes.CDLL(str(path))
        except OSError:
            continue
        for name in _SYMBOLS:
            get = getattr(cdll, name.format("get_num_threads"), None)
            set_ = getattr(cdll, name.format("set_num_threads"), None)
            if get is not None and set_ is not None:
                get.argtypes, get.restype = (), ctypes.c_int
                set_.argtypes, set_.restype = (ctypes.c_int,), None
                found.append(OpenBlas("numpy", get, set_))
                break
    return tuple(found)


def blas_threads() -> dict[str, int]:
    """Current thread count of each bundled OpenBLAS, by package."""
    return {lib.package: lib.get() for lib in bundled_openblas()}


class _OneThread(ContextDecorator):
    """Context manager and decorator: one BLAS thread inside, the earlier
    counts restored when the outermost entry exits. Entries may nest and may
    come from several threads; the count is process-wide, so it is set at
    the first entry and restored at the last exit."""

    def __init__(self, find=bundled_openblas):
        self._find = find
        self._lock = threading.Lock()
        self._depth = 0
        self._saved: list[tuple[OpenBlas, int]] = []

    def __enter__(self):
        with self._lock:
            if self._depth == 0:
                self._saved = [(lib, lib.get()) for lib in self._find()]
                for lib, _ in self._saved:
                    lib.set(1)
            self._depth += 1
        return self

    def __exit__(self, *exc):
        with self._lock:
            self._depth -= 1
            if self._depth == 0:
                for lib, count in self._saved:
                    lib.set(count)
                self._saved = []
        return False


one_blas_thread = _OneThread()
