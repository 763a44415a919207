"""Morsel-parallel primitives for the prepare stage.

Each function is the parallel twin of a numpy expression the serial
pipeline uses, preserving it bit for bit.  The gather/cast/scatter
primitives preallocate the output once and let every morsel write its own
``[start, stop)`` range (chunk-ordered merge); the argsort primitives
(:func:`parallel_argsort`, :func:`parallel_order_by`) chunk-sort and
stable-merge, with the tie-break fixed by chunk order.  Either way the
result is independent of worker scheduling, and the underlying numpy
kernels (fancy indexing, ``astype``, ``argsort``, ``searchsorted``)
release the GIL, which is where the multi-core speedup comes from.

When the configuration is inactive, the input is too small to split, or
the caller already runs on a pool worker, each function degrades to the
exact serial expression — same code path, same result.
"""

from __future__ import annotations

import numpy as np

from repro.engine.morsel import Morsel, partition
from repro.engine.pool import in_worker, map_chunks


def plan_morsels(n: int, parallel) -> list[Morsel] | None:
    """The morsel partition to use, or None for the serial path.

    The single home of the engine's gating rule (config inactive, caller
    already a pool worker, or input below the morsel floor → serial); the
    kernel stage and the prepare primitives both consult it so their
    thresholds can never drift apart.
    """
    if parallel is None or not parallel.active() or in_worker():
        return None
    morsels = partition(n, parallel.effective_workers(),
                        parallel.min_morsel_rows)
    if len(morsels) <= 1:
        return None
    return morsels


def parallel_gather(values: np.ndarray, positions: np.ndarray,
                    parallel) -> np.ndarray:
    """``values[positions]`` with the output computed per-morsel.

    The morsels range over the *output* (``positions``), so each worker
    reads a slice of the permutation and scatters into its own output
    range — disjoint writes, deterministic merge.
    """
    morsels = plan_morsels(len(positions), parallel)
    if morsels is None:
        return values[positions]
    out = np.empty(len(positions), dtype=values.dtype)

    def run(morsel: Morsel) -> None:
        out[morsel.start:morsel.stop] = \
            values[positions[morsel.start:morsel.stop]]

    map_chunks(run, morsels)
    return out


def parallel_gather_columns(columns, positions: np.ndarray,
                            parallel) -> list:
    """``[col[positions] for col in columns]`` as one pooled batch.

    Flattening the (column x morsel) grid into a single task batch pays
    one fork/join round for the whole application part instead of one
    per column; outputs are disjoint preallocated arrays, so the merge
    stays chunk-ordered and deterministic.
    """
    morsels = plan_morsels(len(positions), parallel)
    if morsels is None or len(columns) <= 1:
        if len(columns) == 1:
            return [parallel_gather(columns[0], positions, parallel)]
        return [col[positions] for col in columns]
    outs = [np.empty(len(positions), dtype=col.dtype) for col in columns]
    units = [(j, morsel) for j in range(len(columns))
             for morsel in morsels]
    # Group the units into at most ``workers`` tasks so the configured
    # worker cap bounds this call's concurrency, not just its morsel
    # count (and so the pool pays one handoff per worker, not per unit).
    n_tasks = min(parallel.effective_workers(), len(units))
    groups = [units[k::n_tasks] for k in range(n_tasks)]

    def run(group) -> None:
        for j, morsel in group:
            outs[j][morsel.start:morsel.stop] = \
                columns[j][positions[morsel.start:morsel.stop]]

    map_chunks(run, groups)
    return outs


def parallel_astype_float(tail: np.ndarray, parallel) -> np.ndarray:
    """``tail.astype(np.float64)`` computed per-morsel."""
    morsels = plan_morsels(len(tail), parallel)
    if morsels is None:
        return tail.astype(np.float64)
    out = np.empty(len(tail), dtype=np.float64)

    def run(morsel: Morsel) -> None:
        out[morsel.start:morsel.stop] = \
            tail[morsel.start:morsel.stop].astype(np.float64)

    map_chunks(run, morsels)
    return out


def _merge_runs(keys: np.ndarray, left: np.ndarray,
                right: np.ndarray) -> np.ndarray:
    """Stable merge of two key-sorted index runs (all of ``left``'s
    indices precede ``right``'s in the original array).

    ``searchsorted(..., side="right")`` places every right-run element
    *after* the equal-key left-run elements, and the ``arange`` offset
    keeps equal right-run elements in their own order — exactly the
    (key, original index) order a stable argsort of the concatenation
    produces.  numpy's binary search uses the sort-order comparison, so
    NaN keys merge consistently with ``argsort`` (NaNs last).
    """
    left_keys = keys[left]
    right_keys = keys[right]
    target = np.searchsorted(left_keys, right_keys, side="right")
    target = target + np.arange(len(right), dtype=np.int64)
    out = np.empty(len(left) + len(right), dtype=np.int64)
    out[target] = right
    mask = np.ones(len(out), dtype=bool)
    mask[target] = False
    out[mask] = left
    return out


def parallel_argsort(keys: np.ndarray, parallel) -> np.ndarray:
    """``np.argsort(keys, kind="stable")`` computed on the worker pool.

    Each morsel stable-argsorts its contiguous slice concurrently; the
    sorted runs are then combined by a pairwise merge tree (runs stay in
    ascending original-index order, so every merge's tie-break — left run
    first — reproduces the stable order).  Bit-identical to the serial
    argsort for every dtype ``order_by`` sorts (ints, floats with NaNs,
    object strings); the engine tests assert it.
    """
    morsels = plan_morsels(len(keys), parallel)
    if morsels is None:
        return np.argsort(keys, kind="stable")
    runs = map_chunks(
        lambda m: np.argsort(keys[m.start:m.stop], kind="stable")
        .astype(np.int64, copy=False) + m.start,
        morsels)
    while len(runs) > 1:
        pairs = [(runs[i], runs[i + 1]) for i in range(0, len(runs) - 1, 2)]
        tail = [runs[-1]] if len(runs) % 2 else []
        runs = map_chunks(lambda pair: _merge_runs(keys, *pair),
                          pairs) + tail
    return runs[0]


def parallel_order_by(bats, parallel) -> np.ndarray:
    """Morsel-parallel twin of :func:`repro.bat.sorting.order_by`.

    Same structure — identity short-circuit from cached properties, then
    repeated stable argsort from the minor to the major key — with the
    argsorts and the permutation gathers running per-morsel on the shared
    pool.  Degrades to the serial function (same code path, same errors)
    when the engine is inactive, the input is below the morsel floor, or
    the caller already runs on a pool worker.
    """
    from repro.bat import sorting
    if not bats or plan_morsels(len(bats[0]), parallel) is None:
        return sorting.order_by(bats)
    n = len(bats[0])
    for b in bats[1:]:
        if len(b) != n:
            return sorting.order_by(bats)  # raises the alignment error
    if sorting._already_ordered(bats):
        return np.arange(n, dtype=np.int64)
    positions = np.arange(n, dtype=np.int64)
    for bat in reversed(bats):
        key = parallel_gather(sorting._sort_key_array(bat), positions,
                              parallel)
        order = parallel_argsort(key, parallel)
        positions = parallel_gather(positions, order, parallel)
    return positions


def parallel_rank_of(positions: np.ndarray, parallel) -> np.ndarray:
    """Inverse permutation (:func:`repro.bat.sorting.rank_of`) per-morsel.

    Each morsel scatters ``start .. stop`` into the rank slots named by
    its slice of ``positions``; a permutation makes those slots disjoint
    across morsels, so writes never overlap.
    """
    n = len(positions)
    morsels = plan_morsels(n, parallel)
    ranks = np.empty(n, dtype=np.int64)
    if morsels is None:
        ranks[positions] = np.arange(n, dtype=np.int64)
        return ranks

    def run(morsel: Morsel) -> None:
        ranks[positions[morsel.start:morsel.stop]] = \
            np.arange(morsel.start, morsel.stop, dtype=np.int64)

    map_chunks(run, morsels)
    return ranks
