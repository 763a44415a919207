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
* **merge** (:func:`merge_result`) — attach the morphed contextual
  information to the base result and pre-warm the result's order caches.
  Every element-wise result, shape type ``(r*, c*)``, is merged by
  :func:`merge_fused`, whether it has the two arguments of one operation
  or the k leaves of a fused chain.

``execute_rma`` composes the three stages for one operation, exactly as the
monolithic implementation did; ``execute_fused`` composes them once for a
whole chain.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.bat.bat import BAT, DataType
from repro.core.config import RmaConfig, default_config
from repro.core.constructors import schema_cast
from repro.core.context import (
    FusionFallback,
    PreparedInput,
    prepare_binary,
    prepare_fused,
    prepare_unary,
    sorted_order_values,
)
from repro.errors import RmaError
from repro.linalg.kernels import KernelProgram, KernelStep, run_program
from repro.linalg.matrix import Columns
from repro.opspec import CONTEXT_ATTRIBUTE, OpSpec, spec_of
from repro.relational.relation import Relation
from repro.relational.schema import Attribute, Schema


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

    With the morsel engine active, an element-wise program on the BAT
    backend runs per morsel on the shared worker pool, bit-identical to
    the serial pass (see :func:`repro.linalg.kernels.run_program`).
    """
    return run_program(program, inputs, config.policy, config.parallel)


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
    name).  Element-wise results go to :func:`merge_fused`.
    """
    x, y = spec.shape_type
    if x == "r*":
        assert s is not None
        return merge_fused([r, s], base)
    attributes: list[Attribute] = []
    columns: list[BAT] = []

    # -- row context (x) ----------------------------------------------------
    if x == "r1":
        attributes += r.order_attributes
        columns += r.order_bats
    elif x == "c1":
        attributes.append(_CONTEXT)
        columns.append(schema_cast(r.app_names))
    elif x == "1":
        attributes.append(_CONTEXT)
        columns.append(BAT.from_values(["r"], DataType.STR))
    else:  # pragma: no cover - no operation uses other row types
        raise RmaError(f"unhandled row shape type {x!r}")

    # -- base result attributes (y) -------------------------------------------
    if y == "c1":
        base_attributes = _as_double(r.app_attributes)
    elif y == "c2":
        assert s is not None
        base_attributes = _as_double(s.app_attributes)
    elif y == "r1":
        base_attributes = _double_named(sorted_order_values(r))
    elif y == "r2":
        assert s is not None
        base_attributes = _double_named(sorted_order_values(s))
    elif y == "1":
        base_attributes = _double_named([spec.name])
    else:  # pragma: no cover
        raise RmaError(f"unhandled column shape type {y!r}")

    if len(base_attributes) != len(base):
        raise RmaError(
            f"{spec.name}: base result has {len(base)} columns but "
            f"{len(base_attributes)} names were derived — shape type "
            f"{spec.shape_type} violated")

    result = _merged(attributes + base_attributes, columns, base)
    if x == "r1":
        # Rows in the order the argument was prepared in: sorted, or its
        # storage order (see _seed_order_part).
        _seed_order_part(result, r, result.nrows)
    return result


def merge_fused(prepared: Sequence[PreparedInput],
                 base: Columns) -> Relation:
    """Merge step of an element-wise result: every order part plus the
    base result.

    ``prepared`` are the k arguments, two for one operation or the leaves
    of a fused chain.  The result schema is ``U1 ∘ U2 ∘ ... ∘ Uk ∘
    U1-bar``, exactly what the last step of the unfused chain produces
    (each step contributes its second argument's order part; base-result
    names come from the first argument's application schema).

    The result starts with a warm order cache; every seed is what a fresh
    sort gives:

    * ``U1`` — the first argument's order (see :func:`_seed_order_part`);
    * ``Ui`` of an argument aligned into the first one's storage order by
      ``positions_i[ranks_1]`` — sorting the result by ``Ui`` is the first
      argument's sort permutation, provided ``Ui`` is a *known* key (with
      duplicates the derived permutation is valid but not bit-identical to
      a fresh stable sort); a sorted argument gets the identity instead;
    * every prefix ``U1 ∘ ... ∘ Ui`` — when ``U1`` is a validated key, a
      stable lexicographic sort never reaches the tie-breakers, so it is
      the sort by ``U1`` alone.
    """
    first = prepared[0]
    attributes: list[Attribute] = []
    columns: list[BAT] = []
    for p in prepared:
        attributes += p.order_attributes
        columns += p.order_bats
    base_attributes = _as_double(first.app_attributes)
    if len(base_attributes) != len(base):
        raise RmaError(
            f"element-wise merge: base result has {len(base)} columns but "
            f"{len(base_attributes)} names were derived")
    result = _merged(attributes + base_attributes, columns, base)
    n = result.nrows
    _seed_order_part(result, first, n)
    if first.sorted_storage:
        positions = np.arange(n, dtype=np.int64)
    else:
        info = first.relation.cached_order_info(tuple(first.order_names))
        positions = info.known_positions if info is not None else None
    combined = tuple(first.order_names)
    for p in prepared[1:]:
        key = tuple(p.order_names)
        if p.sorted_storage:
            _seed_order_part(result, p, n)
        else:
            if positions is not None and _known_key(p):
                result.seed_order(key, positions=positions, is_key=True)
            if len(key) == 1 and p.validated:
                result.column(key[0])._seed_props(tkey=True)
        combined += key
        if positions is not None and first.validated:
            result.seed_order(combined, positions=positions, is_key=True)
    return result


_CONTEXT = Attribute(CONTEXT_ATTRIBUTE, DataType.STR)


def _as_double(attributes: list[Attribute]) -> list[Attribute]:
    """The attributes with type DBL, the type of every base-result column
    (the attribute objects themselves where they already are)."""
    return [attr if attr.dtype is DataType.DBL
            else Attribute(attr.name, DataType.DBL) for attr in attributes]


def _double_named(names: Sequence[str]) -> list[Attribute]:
    return [Attribute(name, DataType.DBL) for name in names]


def _merged(attributes: list[Attribute], context: list[BAT],
            base: Columns) -> Relation:
    """The relation constructor γ over the context columns and the base
    result: the attributes come from the operands' schemas, so only a name
    clash between them can make the schema invalid."""
    columns = context + [BAT(DataType.DBL, np.asarray(col, dtype=np.float64))
                         for col in base]
    return Relation(Schema.derived(tuple(attributes)), columns)


def _seed_order_part(result: Relation, prepared: PreparedInput,
                     n: int) -> None:
    """Seed the result's order by ``prepared``'s order schema: the
    identity for rows physically sorted by it (a key when validated), the
    input's cached :class:`OrderInfo` verbatim for rows in its storage
    order."""
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


def _known_key(prepared: PreparedInput) -> bool:
    """Whether the argument's order schema is known to be a key, without
    computing anything."""
    if prepared.validated:
        return True
    info = prepared.relation.cached_order_info(tuple(prepared.order_names))
    return info is not None and info.known_is_key is True
