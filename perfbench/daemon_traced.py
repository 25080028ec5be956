"""The campaign daemon with result-store timers, for traced service runs.

Runs ``python -m repro.serve`` unchanged except that ``ResultStore.get``
and ``ResultStore.put`` accumulate their wall time, and
``ResultStore.snapshot`` reports the totals as ``get_s`` and ``put_s``.
The daemon already returns per-request snapshot deltas in every sweep's
``stats["store"]``, so the client reads the split from there.

Usage: ``python perfbench/daemon_traced.py --workers 2`` (same flags as
``python -m repro.serve``).
"""

from __future__ import annotations

import functools
import threading
import time

from repro.eval.cache import ResultStore
from repro.serve.__main__ import main

_LOCK = threading.Lock()
_SECONDS = {"get_s": 0.0, "put_s": 0.0}


def _timed(original, counter):
    @functools.wraps(original)
    def wrapper(*args, **kwargs):
        start = time.perf_counter()
        try:
            return original(*args, **kwargs)
        finally:
            elapsed = time.perf_counter() - start
            with _LOCK:
                _SECONDS[counter] += elapsed

    return wrapper


def _snapshot_with_seconds(original):
    @functools.wraps(original)
    def wrapper(self):
        snap = original(self)
        with _LOCK:
            snap.update(_SECONDS)
        return snap

    return wrapper


if __name__ == "__main__":
    ResultStore.get = _timed(ResultStore.get, "get_s")
    ResultStore.put = _timed(ResultStore.put, "put_s")
    ResultStore.snapshot = _snapshot_with_seconds(ResultStore.snapshot)
    main()
