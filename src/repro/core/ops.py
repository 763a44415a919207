"""Execution of relational matrix operations (paper Table 2 / Alg. 1).

Execution is an explicit three-stage pipeline:

* **prepare** (:func:`prepare_stage`, delegating to
  :mod:`repro.core.context`) — split each argument into order and
  application part and establish the row order the kernel needs;
* **kernel** (:func:`kernel_stage`) — run a *kernel program*
  (:class:`repro.linalg.kernels.KernelProgram`) over the prepared
  application columns.  A plain operation is the one-step program; a fused
  element-wise chain is a multi-step program over shared prepared inputs
  with every intermediate relation elided (:func:`execute_fused`);
* **merge** (:func:`merge_result` / :func:`merge_fused`) — attach the
  morphed contextual information to the base result and pre-warm the
  result's order caches.

``execute_rma`` composes the three stages for one operation, exactly as the
monolithic implementation did; ``execute_fused`` composes them once for a
whole chain.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.bat.bat import BAT, DataType
from repro.bat.properties import properties_enabled
from repro.core.config import RmaConfig, default_config
from repro.core.constructors import gamma, schema_cast
from repro.core.context import (
    FusionFallback,
    PreparedInput,
    prepare_binary,
    prepare_fused,
    prepare_unary,
    sorted_order_values,
)
from repro.errors import RmaError
from repro.linalg.kernels import (
    KernelProgram,
    KernelStep,
    run_program,
    run_program_parallel,
)
from repro.linalg.matrix import Columns
from repro.opspec import OpSpec, spec_of
from repro.relational.relation import Relation

CONTEXT_ATTRIBUTE = "C"
"""Name of the synthesized context attribute (paper Table 2)."""


def prepare_stage(spec: OpSpec, r: Relation, by: str | Sequence[str],
                  s: Relation | None, s_by: str | Sequence[str] | None,
                  config: RmaConfig) \
        -> tuple[PreparedInput, PreparedInput | None]:
    """Stage 1: split/sort/morph the argument relations (paper Alg. 1)."""
    if spec.arity == 2:
        if s is None or s_by is None:
            raise RmaError(f"{spec.name} is binary: supply s and s_by")
        return prepare_binary(r, by, s, s_by, spec, config)
    if s is not None or s_by is not None:
        raise RmaError(f"{spec.name} is unary: s/s_by are not accepted")
    return prepare_unary(r, by, spec, config), None


def kernel_stage(program: KernelProgram, inputs: Sequence[Columns],
                 config: RmaConfig) -> Columns:
    """Stage 2: run a kernel program over prepared application columns.

    With the morsel engine active, row-decomposable (element-wise)
    programs execute partitioned across the shared worker pool —
    bit-identical to the serial pass (see
    :func:`repro.linalg.kernels.run_program_parallel`).
    """
    if config.parallel.active():
        return run_program_parallel(program, inputs, config.policy,
                                    config.parallel)
    return run_program(program, inputs, config.policy)


def execute_rma(name: str, r: Relation, by: str | Sequence[str],
                s: Relation | None = None,
                s_by: str | Sequence[str] | None = None,
                config: RmaConfig | None = None,
                scalar: float | None = None) -> Relation:
    """Run relational matrix operation ``name`` and return the result.

    ``by`` (and ``s_by`` for binary operations) are the order schemas;
    ``scalar`` is the constant of the scalar variants (``sadd``/``ssub``/
    ``smul``) and is rejected for every other operation.
    """
    spec = spec_of(name)
    config = config or default_config()
    if spec.scalar and scalar is None:
        raise RmaError(f"{name} requires a scalar value")
    if not spec.scalar and scalar is not None:
        raise RmaError(f"{name} does not accept a scalar value")
    prepared_r, prepared_s = prepare_stage(spec, r, by, s, s_by, config)
    program = KernelProgram.single(spec.name, binary=prepared_s is not None,
                                   scalar=scalar)
    inputs = [prepared_r.app_columns]
    if prepared_s is not None:
        inputs.append(prepared_s.app_columns)
    base = kernel_stage(program, inputs, config)
    return merge_result(spec, prepared_r, prepared_s, base)


def execute_fused(steps: Sequence[KernelStep],
                  relations: Sequence[Relation],
                  bys: Sequence[Sequence[str]],
                  config: RmaConfig | None = None) -> Relation:
    """Run a fused element-wise chain as one prepare/kernel/merge pass.

    ``steps`` reference slots ``0 .. len(relations) - 1`` (the chain's leaf
    inputs, each split by its order schema in ``bys``) and
    ``len(relations) + j`` (the result of step ``j``).  All leaves are
    aligned into the first leaf's storage order by the prepare stage, the
    kernel program runs over the aligned application columns, and a single
    merge attaches every leaf's order part — bit-identical to executing the
    chain operation by operation, with the intermediate relations elided.

    Raises :class:`repro.core.context.FusionFallback` when the fused
    preconditions do not hold; callers then replay the chain unfused.
    """
    config = config or default_config()
    prepared = prepare_fused(relations, bys, config)
    program = KernelProgram(len(prepared), tuple(steps))
    base = kernel_stage(program, [p.app_columns for p in prepared], config)
    return merge_fused(prepared, base)


def merge_result(spec: OpSpec, r: PreparedInput,
                 s: PreparedInput | None, base: Columns) -> Relation:
    """Merge step: attach morphed context to the base result (Table 2).

    The shape type decides the row context (order parts, a ∆-cast context
    column, or the literal ``'r'``) and the base-result attribute names
    (inherited application schemas, ▽-cast order values, or the operation
    name).
    """
    x, y = spec.shape_type
    names: list[str] = []
    columns: list[BAT] = []

    # -- row context (x) ----------------------------------------------------
    if x == "r1":
        names += r.order_names
        columns += r.order_bats
    elif x == "r*":
        assert s is not None
        names += r.order_names + s.order_names
        columns += r.order_bats + s.order_bats
    elif x == "c1":
        names.append(CONTEXT_ATTRIBUTE)
        columns.append(schema_cast(r.app_names))
    elif x == "1":
        names.append(CONTEXT_ATTRIBUTE)
        columns.append(BAT.from_values(["r"], DataType.STR))
    else:  # pragma: no cover - no operation uses other row types
        raise RmaError(f"unhandled row shape type {x!r}")

    # -- base result attribute names (y) -------------------------------------
    if y == "c1" or y == "c*":
        base_names = list(r.app_names)
    elif y == "c2":
        assert s is not None
        base_names = list(s.app_names)
    elif y == "r1":
        base_names = sorted_order_values(r)
    elif y == "r2":
        assert s is not None
        base_names = sorted_order_values(s)
    elif y == "1":
        base_names = [spec.name]
    else:  # pragma: no cover
        raise RmaError(f"unhandled column shape type {y!r}")

    if len(base_names) != len(base):
        raise RmaError(
            f"{spec.name}: base result has {len(base)} columns but "
            f"{len(base_names)} names were derived — shape type "
            f"{spec.shape_type} violated")

    # Element-wise operations carry both order parts (schema U ∘ V ∘ U-bar).
    if x == "r*":
        pass  # both order parts already attached above
    names += base_names
    columns += [BAT(DataType.DBL, np.asarray(col, dtype=np.float64))
                for col in base]
    result = gamma(columns, names)
    _seed_result_order(result, spec, r, s)
    return result


def merge_fused(prepared: Sequence[PreparedInput],
                base: Columns) -> Relation:
    """Merge step of a fused chain: all order parts plus the base result.

    The result schema is ``U1 ∘ U2 ∘ ... ∘ Uk ∘ U1-bar`` — exactly what the
    last step of the unfused chain produces (each step contributes its
    second argument's order part; base-result names come from the first
    leaf's application schema).

    Order-cache seeding mirrors the unfused final merge: the first leaf's
    cached :class:`OrderInfo` is shared for ``U1``, and — because every
    leaf's order schema was verified to be a key by the prepare stage — the
    first leaf's sort positions are the result's sort by every aligned
    schema ``Ui`` and by every combined prefix ``U1 ∘ ... ∘ Ui``.
    """
    first = prepared[0]
    names: list[str] = []
    columns: list[BAT] = []
    for p in prepared:
        names += p.order_names
        columns += p.order_bats
    base_names = list(first.app_names)
    if len(base_names) != len(base):
        raise RmaError(
            f"fused chain: base result has {len(base)} columns but "
            f"{len(base_names)} names were derived")
    names += base_names
    columns += [BAT(DataType.DBL, np.asarray(col, dtype=np.float64))
                for col in base]
    result = gamma(columns, names)
    if properties_enabled():
        n = result.nrows
        _seed_order_part(result, first, n)
        info = first.relation.cached_order_info(tuple(first.order_names))
        positions = info.known_positions if info is not None else None
        combined = tuple(first.order_names)
        for p in prepared[1:]:
            key = tuple(p.order_names)
            combined = combined + key
            if positions is not None:
                result.seed_order(key, positions=positions, is_key=True)
                result.seed_order(combined, positions=positions,
                                  is_key=True)
            if len(key) == 1:
                result.column(key[0])._seed_props(tkey=True)
    return result


def _seed_result_order(result: Relation, spec: OpSpec,
                       r: PreparedInput, s: PreparedInput | None) -> None:
    """Pre-warm the result's order cache — derived relations start warm.

    The merge step knows exactly how the result rows relate to the order
    schemas but used to discard that knowledge, so every chained operation
    re-sorted from scratch (the PR 1 ROADMAP follow-up).  Three cases:

    * rows were physically sorted by the order schema (FULL-sort class):
      the order is the identity permutation, and a validated order schema
      is a key — seed both, plus the single-attribute ``tkey`` bit;
    * rows are in the first input's storage order (equivariant/relative
      classes): the input's cached :class:`OrderInfo` applies verbatim to
      the result, so the result *shares* it;
    * the aligned second argument of an element-wise operation: its rows
      were permuted into the first input's storage order, and sorting the
      result by the second order schema is exactly the first input's sort
      permutation (``aligned = s_pos[r_ranks]`` implies
      ``aligned[r_pos] = s_pos``).  Seeded only when the second schema is
      a *known* key — with duplicates the derived permutation is valid but
      not bit-identical to a fresh stable sort, and bit-identity with the
      cold path is the contract here.
    """
    if not properties_enabled():
        return
    x = spec.shape_type[0]
    if x not in ("r1", "r*"):
        return
    n = result.nrows
    _seed_order_part(result, r, n)
    if x == "r*" and s is not None:
        if s.sorted_storage:
            _seed_order_part(result, s, n)
        else:
            _seed_aligned_part(result, r, s)
        _seed_combined_part(result, r, s, n)


def _seed_order_part(result: Relation, prepared: PreparedInput,
                     n: int) -> None:
    key = tuple(prepared.order_names)
    if prepared.sorted_storage:
        identity = np.arange(n, dtype=np.int64)
        result.seed_order(key, positions=identity,
                          is_key=True if prepared.validated else None)
    else:
        info = prepared.relation.cached_order_info(key)
        if info is not None:
            result.seed_order(key, info=info)
    if len(key) == 1 and prepared.validated:
        result.column(key[0])._seed_props(tkey=True)


def _seed_combined_part(result: Relation, r: PreparedInput,
                        s: PreparedInput, n: int) -> None:
    """Seed the concatenated order schema U ∘ V of element-wise results.

    Chained element-wise operations must order the derived relation by its
    *whole* order part (U and V together — the schemas must stay disjoint
    between arguments).  When U is a validated key, a stable lexicographic
    sort by U ∘ V never reaches the V tie-breakers, so it is bit-identical
    to the sort by U alone — which is known: identity for sorted storage,
    the first input's cached permutation otherwise.
    """
    if not r.validated:
        return
    combined = tuple(r.order_names) + tuple(s.order_names)
    if r.sorted_storage:
        result.seed_order(combined,
                          positions=np.arange(n, dtype=np.int64),
                          is_key=True)
        return
    info = r.relation.cached_order_info(tuple(r.order_names))
    if info is not None and info.known_positions is not None:
        result.seed_order(combined, positions=info.known_positions,
                          is_key=True)


def _seed_aligned_part(result: Relation, r: PreparedInput,
                       s: PreparedInput) -> None:
    r_info = r.relation.cached_order_info(tuple(r.order_names))
    s_info = s.relation.cached_order_info(tuple(s.order_names))
    if r_info is None or s_info is None:
        return
    key = tuple(s.order_names)
    if r_info.known_positions is not None and s_info.known_is_key:
        result.seed_order(key, positions=r_info.known_positions,
                          is_key=True)
    if len(key) == 1 and s.validated:
        result.column(key[0])._seed_props(tkey=True)
