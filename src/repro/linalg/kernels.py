"""Element-wise kernel registry and kernel programs.

This module is the *kernel stage* of the staged RMA execution pipeline
(prepare → kernel → merge, see :mod:`repro.core.ops`).  Instead of a single
operation, the kernel stage executes a :class:`KernelProgram`: a sequence of
:class:`KernelStep`\\ s over shared prepared inputs, where each step reads
its operands from numbered *slots* (prepared inputs first, then prior step
results) and appends its own result.  A plain RMA is the one-step program;
a fused element-wise chain (:class:`repro.plan.nodes.FusedRma`) is a
multi-step program over the chain's leaf inputs with every intermediate
relation elided.

The registry maps operation names to vectorized ndarray kernels:

* ``add``/``sub``/``emu`` dispatch through the backend policy exactly like
  the monolithic path did (BAT kernels for linear operations, including the
  sparse-column fast path), so fused and unfused execution are bit-identical
  — fusion elides *materialization*, never changes arithmetic;
* the scalar variants ``sadd``/``ssub``/``smul``/``sdiv`` are direct numpy
  ufuncs
  (no backend round trip — a scalar step inside a fused chain costs one
  whole-column operation);
* any other operation name falls back to the generic backend dispatcher,
  which is how the single-step programs of ``execute_rma`` run every
  Table 2 operation.

New kernels can be added with :func:`register_kernel`; the plan layer's
fusion rule only fuses operations listed in
:data:`repro.opspec.FUSABLE_OPS`.

**Morsel-parallel execution** (:func:`run_program_parallel`): programs
whose steps are all element-wise (exactly the fusable set) are
row-decomposable — every output element depends on one input row only —
so the program can run once per morsel over column *slices* and write
into preallocated result columns at the morsel's offsets (a
deterministic, chunk-ordered merge).  Bit-identity with
:func:`run_program` is preserved by making every data-dependent decision
on the *whole* columns before chunking: the backend choice uses the full
shapes, and ``add``'s sparse/dense routing samples the full input
columns, so each morsel applies the exact per-element function the serial
pass would.  Programs with any non-decomposable step (or an ``add`` over
an intermediate slot on the BAT backend, whose density sample would need
the materialized intermediate) fall back to the serial path.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional, Sequence

import numpy as np

from repro.errors import RmaError
from repro.linalg.matrix import Columns
from repro.opspec import FUSABLE_OPS, spec_of

# A kernel takes (a_columns, b_columns | None, scalar | None, policy) and
# returns the result columns.  ``policy`` is the backend policy of the
# active RmaConfig (duck-typed to avoid an import cycle with repro.core).
Kernel = Callable[[Columns, Optional[Columns], Optional[float], object],
                  Columns]


@dataclass(frozen=True)
class KernelStep:
    """One step of a kernel program.

    ``left``/``right`` are slot indexes: slots ``0 .. n_inputs - 1`` hold
    the prepared inputs' application columns, slot ``n_inputs + j`` holds
    the result of step ``j``.  ``right`` is ``None`` for unary steps;
    ``scalar`` carries the constant of scalar variants.
    """

    op: str
    left: int
    right: int | None = None
    scalar: float | None = None


@dataclass(frozen=True)
class KernelProgram:
    """A sequence of element-wise kernel steps over shared inputs.

    The last step's result is the program's base result.  Programs are
    value-objects (hashable), so plan nodes can embed them.
    """

    n_inputs: int
    steps: tuple[KernelStep, ...]

    @classmethod
    def single(cls, op: str, binary: bool,
               scalar: float | None = None) -> "KernelProgram":
        """The one-step program executing a plain RMA operation."""
        return cls(2 if binary else 1,
                   (KernelStep(op, 0, 1 if binary else None, scalar),))


def _shape(columns: Columns) -> tuple[int, int]:
    return (len(columns[0]) if columns else 0, len(columns))


def _backend_kernel(op: str) -> Kernel:
    """Generic kernel: choose a backend by policy and run the operation.

    This is the one place that decides "same operand": a ``cpd`` whose
    operands are the very same column arrays (a self-operand call, see
    :func:`repro.core.context.prepare_binary`) is rewritten to ``b = a``.
    Both backends then take their symmetric path — one dense copy and
    dsyrk on MKL, the upper triangle on BATs — and the policy charges the
    memory estimate for that one copy.
    """

    def kernel(a: Columns, b: Columns | None, scalar: float | None,
               policy) -> Columns:
        if op == "cpd" and b is not None and _same_columns(a, b):
            b = a
        if b is None or b is a:
            return policy.choose(op, _shape(a)).compute(op, a, b)
        return policy.choose(op, _shape(a), _shape(b)).compute(op, a, b)

    return kernel


def _same_columns(a: Columns, b: Columns) -> bool:
    return len(a) == len(b) and all(x is y for x, y in zip(a, b))


def _scalar_kernel(op: str, fn) -> Kernel:
    def kernel(a: Columns, b: Columns | None, scalar: float | None,
               policy) -> Columns:
        if scalar is None:
            raise RmaError(f"{op} requires a scalar value")
        value = float(scalar)
        return [fn(np.asarray(col, dtype=np.float64), value) for col in a]

    return kernel


KERNELS: dict[str, Kernel] = {
    "add": _backend_kernel("add"),
    "sub": _backend_kernel("sub"),
    "emu": _backend_kernel("emu"),
    "sadd": _scalar_kernel("sadd", lambda col, v: col + v),
    "ssub": _scalar_kernel("ssub", lambda col, v: col - v),
    "smul": _scalar_kernel("smul", lambda col, v: col * v),
    "sdiv": _scalar_kernel("sdiv", lambda col, v: col / v),
}
"""Registry: operation name -> vectorized ndarray kernel."""


def register_kernel(name: str, kernel: Kernel) -> None:
    """Register (or replace) a kernel under an operation name."""
    KERNELS[name.lower()] = kernel


def kernel_for(name: str) -> Kernel:
    """The registered kernel, or the generic backend dispatcher."""
    key = name.lower()
    kernel = KERNELS.get(key)
    if kernel is None:
        spec_of(key)  # raise early on unknown operations
        kernel = _backend_kernel(key)
        KERNELS[key] = kernel
    return kernel


def run_program(program: KernelProgram, inputs: Sequence[Columns],
                policy) -> Columns:
    """Execute a kernel program over prepared inputs; returns base columns.

    ``inputs`` must hold exactly ``program.n_inputs`` column lists, all in
    the same (already aligned) row order.
    """
    if len(inputs) != program.n_inputs:
        raise RmaError(
            f"kernel program expects {program.n_inputs} inputs, "
            f"got {len(inputs)}")
    if not program.steps:
        raise RmaError("kernel program has no steps")
    slots: list[Columns] = list(inputs)
    for step in program.steps:
        if not 0 <= step.left < len(slots):
            raise RmaError(f"kernel step reads unknown slot {step.left}")
        a = slots[step.left]
        b = None
        if step.right is not None:
            if not 0 <= step.right < len(slots):
                raise RmaError(
                    f"kernel step reads unknown slot {step.right}")
            b = slots[step.right]
        slots.append(kernel_for(step.op)(a, b, step.scalar, policy))
    return slots[-1]


# -- morsel-parallel execution ------------------------------------------------

_SCALAR_UFUNCS = {"sadd": np.add, "ssub": np.subtract,
                  "smul": np.multiply, "sdiv": np.divide}

# A chunk kernel maps the current slot list (column *slices*) to the
# step's result columns for that morsel.
_ChunkKernel = Callable[[list], Columns]


def _chunk_kernels(program: KernelProgram, inputs: Sequence[Columns],
                   policy) -> "tuple[list[_ChunkKernel], int] | None":
    """(per-step morsel kernels, result width), or None → run serial.

    Every data-dependent decision is taken here, over the *full* inputs,
    so the per-morsel functions are pure element maps and the chunked run
    is bit-identical to the serial one.
    """
    if not program.steps or len(inputs) != program.n_inputs:
        return None
    n = len(inputs[0][0]) if inputs and inputs[0] else 0
    widths = [len(cols) for cols in inputs]
    kernels: list[_ChunkKernel] = []
    for step in program.steps:
        op = step.op
        if op not in FUSABLE_OPS or not 0 <= step.left < len(widths):
            return None
        if op in _SCALAR_UFUNCS:
            if step.right is not None or step.scalar is None:
                return None
            ufunc = _SCALAR_UFUNCS[op]
            value = float(step.scalar)

            def kernel(slots, left=step.left, ufunc=ufunc,
                       value=value) -> Columns:
                return [ufunc(np.asarray(col, dtype=np.float64), value)
                        for col in slots[left]]

            kernels.append(kernel)
            widths.append(widths[step.left])
            continue
        # binary element-wise: add / sub / emu
        if step.right is None or not 0 <= step.right < len(widths):
            return None
        if op == "sub":
            def kernel(slots, left=step.left, right=step.right) -> Columns:
                return [x - y for x, y in zip(slots[left], slots[right])]
        elif op == "emu":
            def kernel(slots, left=step.left, right=step.right) -> Columns:
                return [x * y for x, y in zip(slots[left], slots[right])]
        elif op == "add":
            # Replicate the backend's sparse/dense routing globally.
            backend = policy.choose("add", (n, widths[step.left]),
                                    (n, widths[step.right]))
            if getattr(backend, "name", None) == "bat":
                if (step.left >= program.n_inputs
                        or step.right >= program.n_inputs):
                    # The density sample needs the full columns; an
                    # intermediate slot never materializes them.
                    return None
                from repro.bat.compression import (
                    SPARSE_DENSITY_THRESHOLD,
                    estimate_density,
                    sparse_add,
                )
                sparse_flags = tuple(
                    estimate_density(x) < SPARSE_DENSITY_THRESHOLD
                    and estimate_density(y) < SPARSE_DENSITY_THRESHOLD
                    for x, y in zip(inputs[step.left], inputs[step.right]))

                def kernel(slots, left=step.left, right=step.right,
                           flags=sparse_flags,
                           sparse_add=sparse_add) -> Columns:
                    return [sparse_add(x, y) if sparse else x + y
                            for x, y, sparse in zip(slots[left],
                                                    slots[right], flags)]
            else:
                def kernel(slots, left=step.left,
                           right=step.right) -> Columns:
                    return [x + y for x, y in zip(slots[left],
                                                  slots[right])]
        else:
            # A fusable binary op this planner has no chunk kernel for
            # (e.g. added later via register_kernel): run serial rather
            # than guess its semantics.
            return None
        kernels.append(kernel)
        widths.append(widths[step.left])
    return kernels, widths[-1]


def run_program_parallel(program: KernelProgram, inputs: Sequence[Columns],
                         policy, parallel) -> Columns:
    """Execute a kernel program morsel-parallel on the shared worker pool.

    Falls back to :func:`run_program` (same results, same errors) whenever
    the program is not row-decomposable, the input is too small to split
    under ``parallel.min_morsel_rows``, or the caller already runs on a
    pool worker.
    """
    from repro.engine.morsel import slice_columns
    from repro.engine.parallel import plan_morsels
    from repro.engine.pool import map_chunks

    if not inputs or not inputs[0]:
        return run_program(program, inputs, policy)
    n = len(inputs[0][0])
    morsels = plan_morsels(n, parallel)
    if morsels is None:
        return run_program(program, inputs, policy)
    planned = _chunk_kernels(program, inputs, policy)
    if planned is None:
        return run_program(program, inputs, policy)
    kernels, width_out = planned
    outs = [np.empty(n, dtype=np.float64) for _ in range(width_out)]

    def run(morsel) -> None:
        slots: list[Columns] = [slice_columns(cols, morsel)
                                for cols in inputs]
        for kernel in kernels:
            slots.append(kernel(slots))
        for out, col in zip(outs, slots[-1]):
            out[morsel.start:morsel.stop] = col

    map_chunks(run, morsels)
    return outs
