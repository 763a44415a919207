"""Kernel programs: the kernel stage of the staged RMA pipeline.

This module is the *kernel stage* of the staged RMA execution pipeline
(prepare → kernel → merge, see :mod:`repro.core.ops`).  Instead of a single
operation, the kernel stage executes a :class:`KernelProgram`: a sequence of
:class:`KernelStep`\\ s over shared prepared inputs, where each step reads
its operands from numbered *slots* (prepared inputs first, then prior step
results) and appends its own result.  A plain RMA is the one-step program;
a fused element-wise chain (:class:`repro.plan.nodes.FusedRma`) is a
multi-step program over the chain's leaf inputs with every intermediate
relation elided.

:func:`run_program` applies one step function to every step:

* the scalar variants ``sadd``/``ssub``/``smul``/``sdiv`` are numpy ufuncs
  (no backend round trip — a scalar step inside a fused chain costs one
  whole-column operation);
* every Table 2 operation, ``add``/``sub``/``emu`` included, runs on the
  backend the policy chooses (BATs for linear operations, MKL for complex
  ones), so fused and unfused execution are bit-identical — fusion elides
  *materialization*, never changes arithmetic.

Every decision is taken once, over the full inputs, before any step runs:
each step's ufunc or backend, and whether the program splits into morsels.
A program whose steps are all element-wise and run on ufuncs or the BAT
backend is row-decomposable — every output element depends on one input
row only — so with the morsel engine active it runs once per morsel over
column *slices*, through the same step function and the same backend
calls, and writes into preallocated result columns at the morsel's
offsets (a deterministic, chunk-ordered merge).  Any other program,
including one routed to MKL, runs serially over whole columns.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from repro.engine import pool
from repro.engine.morsel import slice_columns
from repro.engine.parallel import plan_morsels
from repro.errors import RmaError
from repro.linalg.matrix import Columns
from repro.opspec import FUSABLE_OPS


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


_SCALAR_UFUNCS = {"sadd": np.add, "ssub": np.subtract,
                  "smul": np.multiply, "sdiv": np.divide}


def _shape(columns: Columns) -> tuple[int, int]:
    return (len(columns[0]) if columns else 0, len(columns))


def _same_columns(a: Columns, b: Columns) -> bool:
    return len(a) == len(b) and all(x is y for x, y in zip(a, b))


def _plan(program: KernelProgram, inputs: Sequence[Columns], policy) \
        -> tuple[list[KernelStep], list, tuple[int, int]]:
    """(steps, runners, result shape): each step's ufunc or backend,
    chosen once.  The shape is exact for element-wise programs, the only
    ones that split into morsels.

    This is the one place that decides "same operand": a ``cpd`` whose
    operands are the very same column arrays (a self-operand call, see
    :func:`repro.core.context.prepare_binary`) is rewritten to read one
    slot twice.  Both backends then take their symmetric path — one dense
    copy and dsyrk on MKL, the upper triangle on BATs — and the policy
    charges the memory estimate for that one copy.
    """
    if len(inputs) != program.n_inputs:
        raise RmaError(
            f"kernel program expects {program.n_inputs} inputs, "
            f"got {len(inputs)}")
    if not program.steps:
        raise RmaError("kernel program has no steps")
    if len(program.steps) > 1 and any(step.op not in FUSABLE_OPS
                                      for step in program.steps):
        raise RmaError("only element-wise steps chain in a kernel program")
    # An element-wise result has its left operand's shape.
    shapes = [_shape(cols) for cols in inputs]
    steps, runners = [], []
    for step in program.steps:
        for slot in (step.left, step.right):
            if slot is not None and not 0 <= slot < len(shapes):
                raise RmaError(f"kernel step reads unknown slot {slot}")
        ufunc = _SCALAR_UFUNCS.get(step.op)
        if ufunc is not None:
            if step.scalar is None:
                raise RmaError(f"{step.op} requires a scalar value")
            runners.append(ufunc)
        else:
            if (step.op == "cpd" and step.right is not None
                    and _same_columns(inputs[step.left],
                                      inputs[step.right])):
                step = KernelStep(step.op, step.left, step.left)
            shape_b = (None if step.right in (None, step.left)
                       else shapes[step.right])
            runners.append(policy.choose(step.op, shapes[step.left],
                                         shape_b))
        steps.append(step)
        shapes.append(shapes[step.left])
    return steps, runners, shapes[-1]


def _step(step: KernelStep, runner, slots: list) -> Columns:
    """One step over whole columns or over one morsel's slices."""
    a = slots[step.left]
    if step.op in _SCALAR_UFUNCS:
        value = float(step.scalar)
        return [runner(np.asarray(col, dtype=np.float64), value)
                for col in a]
    b = None if step.right is None else slots[step.right]
    return runner.compute(step.op, a, b)


def _run(steps: list[KernelStep], runners: list,
         slots: list) -> Columns:
    for step, runner in zip(steps, runners):
        slots.append(_step(step, runner, slots))
    return slots[-1]


def run_program(program: KernelProgram, inputs: Sequence[Columns],
                policy, parallel=None) -> Columns:
    """Execute a kernel program over prepared inputs; returns base columns.

    ``inputs`` must hold exactly ``program.n_inputs`` column lists, all in
    the same (already aligned) row order.  ``parallel`` is the active
    :class:`~repro.core.config.ParallelConfig` (or None): a row-decomposable
    program on the BAT backend splits into its morsels; anything else, an
    input below the morsel floor, or a caller already on a pool worker
    runs serially — same step function, same results.
    """
    steps, runners, (n, width) = _plan(program, inputs, policy)
    decomposable = all(step.op in FUSABLE_OPS for step in steps) and all(
        runner is policy.bat or isinstance(runner, np.ufunc)
        for runner in runners)
    morsels = plan_morsels(n, parallel) if decomposable else None
    if morsels is None:
        return _run(steps, runners, list(inputs))
    outs = [np.empty(n, dtype=np.float64) for _ in range(width)]

    def run(morsel) -> None:
        slots = [slice_columns(cols, morsel) for cols in inputs]
        for out, col in zip(outs, _run(steps, runners, slots)):
            out[morsel.start:morsel.stop] = col

    pool.map_chunks(run, morsels)
    return outs
