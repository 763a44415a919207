"""The shared worker pool of the morsel-driven engine.

One process-wide :class:`~concurrent.futures.ThreadPoolExecutor` serves
every parallel call site (kernel morsels, prepare-stage gathers, and the
plan executor's independent subplan subtrees).  Threads — not processes —
because the engine's hot loops are NumPy ufuncs, fancy-indexing gathers,
dtype casts and argsorts, all of which release the GIL on large arrays;
sharing the address space means columns are never pickled or copied to be
worked on.

Two invariants keep nesting safe:

* **Workers never wait on the pool.**  Work submitted from a worker
  thread runs inline (:func:`in_worker` marks pool threads), so a kernel
  program scheduled inside a concurrently-executing subplan cannot
  deadlock against its own pool, only degrade to serial.
* **The caller is also a worker.**  :func:`run_tasks` and
  :func:`map_chunks` execute the first task on the calling thread while
  the pool handles the rest — with ``k`` tasks only ``k - 1`` handoffs
  happen and the caller's core is never idle.

Results are returned in submission order (never completion order), which
is what makes the chunk-ordered merge deterministic.  The first raised
exception propagates after all tasks finished, exactly as the serial loop
would raise it.
"""

from __future__ import annotations

import os
import threading
from concurrent.futures import ThreadPoolExecutor
from typing import Callable, Sequence, TypeVar

T = TypeVar("T")

_POOL: ThreadPoolExecutor | None = None
_POOL_LOCK = threading.Lock()
_TLS = threading.local()


def pool_size() -> int:
    """Threads in the shared pool (one per CPU, minimum 2)."""
    return max(2, os.cpu_count() or 1)


def _get_pool() -> ThreadPoolExecutor:
    global _POOL
    pool = _POOL
    if pool is None:
        with _POOL_LOCK:
            pool = _POOL
            if pool is None:
                pool = ThreadPoolExecutor(
                    max_workers=pool_size(),
                    thread_name_prefix="repro-morsel")
                _POOL = pool
    return pool


def in_worker() -> bool:
    """Whether the current thread is a pool worker (nested work inlines)."""
    return getattr(_TLS, "worker", False)


def _run_marked(fn: Callable[[], T]) -> T:
    _TLS.worker = True
    try:
        return fn()
    finally:
        _TLS.worker = False


def run_tasks(thunks: Sequence[Callable[[], T]]) -> list[T]:
    """Run independent thunks, results in submission order.

    The calling thread executes the first thunk itself; the shared pool
    runs the rest.  Called from a worker thread (nested parallelism) the
    whole batch runs inline — degraded, never deadlocked.
    """
    if len(thunks) <= 1 or in_worker():
        return [thunk() for thunk in thunks]
    pool = _get_pool()
    futures = [pool.submit(_run_marked, thunk) for thunk in thunks[1:]]
    results: list = [None] * len(thunks)
    first_error: BaseException | None = None
    try:
        results[0] = thunks[0]()
    except BaseException as exc:  # still drain the pool before raising
        first_error = exc
    for i, future in enumerate(futures, start=1):
        try:
            results[i] = future.result()
        except BaseException as exc:
            if first_error is None:
                first_error = exc
    if first_error is not None:
        raise first_error
    return results


def map_chunks(fn: Callable[[T], object], chunks: Sequence[T]) -> list:
    """Apply ``fn`` to every chunk, results in chunk order."""
    return run_tasks([lambda chunk=chunk: fn(chunk) for chunk in chunks])
