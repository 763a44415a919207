"""Morsel-driven parallel execution engine.

The paper's column-store implementation inherits MonetDB's memory
management and intra-operator parallelism (§7, §8.6): MonetDB's engine
slices BATs into chunks and runs kernel instructions over the chunks on a
thread pool.  This package reproduces that execution model on top of our
staged RMA pipeline (prepare → kernel → merge, :mod:`repro.core.ops`):

* :mod:`repro.engine.morsel` — the **partitioner**.  It splits the row
  range of prepared inputs into *morsels* (contiguous ``[start, stop)``
  ranges sized by :class:`~repro.core.config.ParallelConfig`), handed to
  workers as zero-copy ndarray views; property metadata survives
  chunking because contiguous BAT subsetting propagates the cached bits
  (:meth:`repro.bat.bat.BAT.slice`), should a stage ever need per-morsel
  BATs rather than raw tails;

* :mod:`repro.engine.pool` — the **shared worker pool**: one
  process-wide thread pool (NumPy ufuncs, gathers, casts and argsort all
  release the GIL on large arrays, so threads scale without pickling
  columns).  Nested parallelism degrades gracefully instead of
  deadlocking: work submitted *from* a worker thread runs inline, so a
  kernel program scheduled inside a concurrently-executed subplan never
  waits on its own pool;

* :mod:`repro.engine.parallel` — morsel-parallel primitives for the
  pipeline stages: chunked gathers (``values[positions]``), chunked
  float-view materialization, chunked inverse permutations.  Each writes
  into a preallocated output at its morsel's offsets — the **merge is
  chunk-ordered and deterministic**, so parallel results are bit-identical
  to serial execution regardless of scheduling order.

The stages plug in as follows (mirroring the paper's §7 execution model,
where the relational plan drives BAT-algebra instructions over chunks):

=================  ======================================================
pipeline stage     parallel form
=================  ======================================================
prepare            per-input order/key work (argsort, key validation)
                   runs concurrently across the arguments of a binary
                   operation and across the leaves of a fused chain;
                   application-part gathers and INT→float casts run
                   per-morsel (:mod:`repro.core.context`)
kernel             element-wise kernel programs (``add``/``sub``/``emu``
                   and scalar steps) on the BAT backend run per-morsel
                   through the serial step function, each step's backend
                   chosen once over the full inputs
                   (:func:`repro.linalg.kernels.run_program`)
merge              morsel results land in preallocated columns at fixed
                   offsets (chunk-ordered); the relational merge then
                   proceeds exactly as in serial execution
plan               independent subplan subtrees — the two sides of a
                   join, sibling RMA arguments, distinct fused-chain
                   leaves — are scheduled concurrently on the same pool
                   (:mod:`repro.plan.physical`)
=================  ======================================================

Everything is gated by ``RmaConfig.parallel`` (off by default; the
``REPRO_PARALLEL`` environment variable flips the default, which is how CI
runs the whole tier-1 suite a second time under the parallel engine).
``tests/engine/test_parallel_identity.py`` asserts bit-identity between
the two modes.
"""

from repro.engine.morsel import Morsel, partition, slice_columns
from repro.engine.pool import in_worker, map_chunks, run_tasks
from repro.engine.parallel import (
    parallel_astype_float,
    parallel_gather,
    parallel_gather_columns,
    parallel_rank_of,
    plan_morsels,
)

__all__ = [
    "Morsel",
    "partition",
    "plan_morsels",
    "slice_columns",
    "in_worker",
    "map_chunks",
    "run_tasks",
    "parallel_astype_float",
    "parallel_gather",
    "parallel_gather_columns",
    "parallel_rank_of",
]
