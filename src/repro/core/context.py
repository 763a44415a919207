"""Split, sort, morph: contextual-information handling (paper Alg. 1, §8.1).

A relational matrix operation splits each argument relation into order part
and application part, establishes the row order the matrix kernel needs, and
keeps the order part aligned with it so the merge step can attach row
origins.  Sorting is the expensive part, and the paper's §8.1 optimizations
avoid it whenever the operation allows:

* *invariant* operations (``rnk``, ``rqr``, ``dsv``, ``vsv``) skip sorting
  entirely — their base result does not depend on row order;
* *equivariant* operations (``qqr``, ``usv``; first argument of ``mmu`` and
  ``opd``) skip sorting — permuted input rows only permute result rows, and
  the attached order part still identifies them;
* *relative* (element-wise ``add``/``sub``/``emu``, plus ``cpd``/``sol``)
  leave the first relation in storage order and align the second to it with
  one composed permutation — only the second relation is fetchjoined,
  and neither is when both share their order columns.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Container, NamedTuple, Sequence

import numpy as np

from repro.bat.bat import BAT, DataType
# order_by and rank_of stay bound for rmabench/spans.py, which wraps them here.
from repro.bat.sorting import key_violation, order_by, rank_of
from repro.core.config import ParallelConfig, RmaConfig
from repro.engine.parallel import (
    parallel_astype_float,
    parallel_gather,
    parallel_gather_columns,
)
from repro.engine.pool import run_tasks
from repro.errors import (
    ApplicationSchemaError,
    OrderSchemaError,
    RmaError,
)
from repro.linalg.matrix import Columns
from repro.opspec import OpSpec, SortClass
from repro.relational.relation import Relation
from repro.relational.schema import Attribute


class Split(NamedTuple):
    """A relation's schema split into order schema U and application
    schema U-bar, by name and by position."""

    order_names: list[str]
    app_names: list[str]
    order_positions: list[int]
    app_positions: list[int]

    def order_bats(self, relation: Relation) -> list[BAT]:
        return [relation.columns[i] for i in self.order_positions]

    def app_bats(self, relation: Relation) -> list[BAT]:
        return [relation.columns[i] for i in self.app_positions]


@dataclass
class PreparedInput:
    """One argument relation, split and ordered for the kernel.

    ``order_bats`` are the order-part columns in *result row order* (the
    order the kernel sees), so the merge step can concatenate them directly
    with base-result columns.  ``app_columns`` is the matrix µ as float
    columns in the same row order.  ``split`` holds the order and
    application attributes' names and schema positions.
    """

    relation: Relation
    split: Split
    order_bats: list[BAT]
    app_columns: Columns
    sorted_storage: bool  # True when rows were physically sorted
    validated: bool = False  # True when the order schema passed key checks

    @property
    def order_names(self) -> list[str]:
        return self.split.order_names

    @property
    def app_names(self) -> list[str]:
        return self.split.app_names

    @property
    def order_attributes(self) -> list[Attribute]:
        attributes = self.relation.schema.attributes
        return [attributes[i] for i in self.split.order_positions]

    @property
    def app_attributes(self) -> list[Attribute]:
        attributes = self.relation.schema.attributes
        return [attributes[i] for i in self.split.app_positions]

    @property
    def shape(self) -> tuple[int, int]:
        return (self.relation.nrows, len(self.app_names))


def _as_names(by: str | Sequence[str]) -> list[str]:
    if isinstance(by, str):
        return [by]
    names = list(by)
    if not names:
        raise OrderSchemaError("order schema must not be empty")
    return names


def _application_part(relation: Relation, order_positions: list[int]) \
        -> tuple[list[str], list[int]]:
    """Names and positions of the attributes not at ``order_positions``,
    in schema order: the paper's application schema."""
    excluded = set(order_positions)
    positions = [i for i in range(len(relation.schema)) if i not in excluded]
    names = relation.names
    return [names[i] for i in positions], positions


def check_order_names(order_names: Sequence[str], known: Container[str],
                      schema_names: Sequence[str]) -> None:
    """Raise :class:`OrderSchemaError` for the first order attribute, in
    order, that repeats an earlier one or is not ``known``; the schema is
    listed as ``schema_names``."""
    seen: set[str] = set()
    for name in order_names:
        if name in seen:
            raise OrderSchemaError(
                f"duplicate attribute {name!r} in order schema")
        seen.add(name)
        if name not in known:
            raise OrderSchemaError(
                f"order attribute {name!r} not in schema "
                f"({', '.join(schema_names)})")


def split_schema(relation: Relation, by: str | Sequence[str],
                 spec: OpSpec, argument: int) -> Split:
    """Split R into order schema U and application schema U-bar.

    Validates the paper's preconditions: the order schema attributes exist,
    the application schema is non-empty and numeric, and operations that use
    the column cast have a single-attribute order schema.
    """
    order_names = _as_names(by)
    schema = relation.schema
    order_positions = schema.positions(order_names)
    if None in order_positions or len(set(order_names)) != len(order_names):
        check_order_names(order_names, schema, relation.names)
    app_names, app_positions = _application_part(relation, order_positions)
    if not app_names:
        raise ApplicationSchemaError(
            f"{spec.name}: application schema is empty — every attribute "
            "is in the order schema")
    attributes = schema.attributes
    for i in app_positions:
        attr = attributes[i]
        if not attr.dtype.is_numeric:
            raise ApplicationSchemaError(
                f"{spec.name}: application attribute {attr.name!r} has "
                f"non-numeric type {attr.dtype.value}; "
                "drop it with a projection or add it to the order schema")
    if argument in spec.order_card_one and len(order_names) != 1:
        raise OrderSchemaError(
            f"{spec.name}: the column cast requires a single-attribute "
            f"order schema for argument {argument}, got {len(order_names)}")
    return Split(order_names, app_names, order_positions, app_positions)


def _app_floats(relation: Relation, split: Split,
                parallel: ParallelConfig | None) -> Columns:
    """The application columns in storage order, as float arrays; with
    the morsel engine on, INT→float casts run per-morsel."""
    bats = split.app_bats(relation)
    if parallel is None:
        return [bat.as_float() for bat in bats]

    def astype(tail: np.ndarray) -> np.ndarray:
        return parallel_astype_float(tail, parallel)

    return [bat.as_float(astype=astype) for bat in bats]


def _parallel_of(config: RmaConfig) -> ParallelConfig | None:
    parallel = config.parallel
    return parallel if parallel.active() else None


def _prepare_arguments(thunks, config: RmaConfig) -> list:
    """Run independent per-argument prepare thunks, pooled when enabled.

    Error order matches the serial loop: the caller runs the first thunk
    itself, and its exception wins over later arguments' (see
    :func:`repro.engine.pool.run_tasks`).
    """
    if _parallel_of(config) is not None and len(thunks) > 1:
        return run_tasks(thunks)
    return [thunk() for thunk in thunks]


def _prepare_sorted(relation: Relation, split: Split, validate: bool,
                    config: RmaConfig) -> PreparedInput:
    """FULL sorting: argsort the order part, fetchjoin everything.

    The permutation and key check come from the relation's order cache
    (computed once per relation and order schema) and the application part
    is gathered from each column's cached float view instead of
    fetch-then-cast; the morsel engine chunks those gathers across the
    worker pool.
    """
    order_names = split.order_names
    order_bats = split.order_bats(relation)
    parallel = _parallel_of(config)
    info = relation.order_info(order_names)
    # With the engine on, force the (possibly cold) argsort first so it
    # runs chunk-parallel; the key check then reuses the cached order.
    # Serially the check goes first — it may decide from cached property
    # bits without ever sorting.
    positions = info.positions_with(parallel) \
        if parallel is not None else None
    if validate and not info.is_key:
        raise key_violation(order_names)
    if positions is None:
        positions = info.positions
    app_columns = parallel_gather_columns(
        _app_floats(relation, split, parallel), positions, parallel)
    sorted_order = [bat.fetch(positions, positions_key=True)
                    for bat in order_bats]
    if sorted_order:
        _seed_major_key_sorted(sorted_order[0])
    return PreparedInput(relation, split, sorted_order, app_columns,
                         sorted_storage=True, validated=validate)


def _seed_major_key_sorted(bat: BAT) -> None:
    """After a lexicographic sort, the major key column is sorted — except
    in raw-encoding terms for DBL with NaN (argsort puts NaN last, the
    ``tsorted`` contract is nil-free only), so that case is not seeded
    unless the column is known nil-free.  STR columns are safe here:
    ``order_by`` already rejected nil strings.
    """
    if bat.dtype is not DataType.DBL or bat.cached_prop("tnonil"):
        bat._seed_props(tsorted=True)


def _check_key(relation: Relation, order_names: list[str]) -> None:
    """Raise the key violation unless the order part forms a key."""
    if not relation.order_info(order_names).is_key:
        raise key_violation(order_names)


def _prepare_unsorted(relation: Relation, split: Split, validate: bool,
                      config: RmaConfig) -> PreparedInput:
    """No sorting: storage order is the kernel order."""
    order_bats = split.order_bats(relation)
    if validate:
        _check_key(relation, split.order_names)
    app_columns = _app_floats(relation, split, _parallel_of(config))
    return PreparedInput(relation, split, order_bats, app_columns,
                         sorted_storage=False, validated=validate)


def _needs_key(spec: OpSpec, config: RmaConfig) -> bool:
    """Whether the order schema must be validated as a key.

    Order-invariant operations (``rnk``, ``rqr``, ``dsv``, ``vsv``) neither
    use the row order nor attach row origins from the order part, so the key
    requirement does not apply — the paper's own Fig. 9 example
    ``rnk_H(π_{H,W}(r))`` orders by the non-key attribute H.
    """
    return config.validate_keys and spec.sort_class is not SortClass.INVARIANT


def prepare_unary(relation: Relation, by: str | Sequence[str],
                  spec: OpSpec, config: RmaConfig) -> PreparedInput:
    split = split_schema(relation, by, spec, argument=1)
    validate = _needs_key(spec, config)
    if not config.optimize_sorting or spec.sort_class is SortClass.FULL:
        return _prepare_sorted(relation, split, validate, config)
    # INVARIANT and EQUIVARIANT unary operations skip sorting (§8.1).
    return _prepare_unsorted(relation, split, validate, config)


def prepare_binary(r: Relation, r_by: str | Sequence[str], s: Relation,
                   s_by: str | Sequence[str], spec: OpSpec,
                   config: RmaConfig) -> tuple[PreparedInput, PreparedInput]:
    r_split = split_schema(r, r_by, spec, argument=1)
    s_split = split_schema(s, s_by, spec, argument=2)
    r_order, r_app = r_split.order_names, r_split.app_names
    s_order, s_app = s_split.order_names, s_split.app_names
    _check_binary_compat(r, r_order, r_app, s, s_order, s_app, spec)

    if not config.optimize_sorting or spec.sort_class is SortClass.FULL:
        # The two argument preparations are independent (order caches are
        # per relation and thread-safe): with the morsel engine on their
        # argsorts and key checks run concurrently on the pool.
        prepared = _prepare_arguments(
            [lambda: _prepare_sorted(r, r_split, config.validate_keys,
                                     config),
             lambda: _prepare_sorted(s, s_split, config.validate_keys,
                                     config)],
            config)
        return prepared[0], prepared[1]

    if spec.sort_class is SortClass.EQUIVARIANT:
        # First argument keeps storage order; second must still be sorted
        # (its rows align with the first argument's *columns*).
        prepared = _prepare_arguments(
            [lambda: _prepare_unsorted(r, r_split, config.validate_keys,
                                       config),
             lambda: _prepare_sorted(s, s_split, config.validate_keys,
                                     config)],
            config)
        return prepared[0], prepared[1]

    # RELATIVE: align s's rows to r's storage order with one composed
    # permutation; r is never fetchjoined (paper: "only the order part of
    # the second relation requires sorting").
    r_order_bats = r_split.order_bats(r)
    s_order_bats = s_split.order_bats(s)
    parallel = _parallel_of(config)
    if len(r_order_bats) == len(s_order_bats) and all(
            x is y for x, y in zip(r_order_bats, s_order_bats)):
        # Shared order BATs sort identically, so the composed alignment
        # positions[rank_of(positions)] is the identity — even with
        # duplicate keys — and nothing needs sorting or gathering.  A
        # self-operand call thus hands the kernel the very same arrays.
        # r's key verdict is s's too: both order parts are the same BATs.
        if config.validate_keys:
            _check_key(r, r_order)
        s_app_columns = _app_floats(s, s_split, parallel)
    else:
        r_info = r.order_info(r_order)
        s_info = s.order_info(s_order)
        if parallel is not None:
            # Force the two sides' sort work concurrently (cached
            # afterwards); the key checks below then reuse the orders.
            # The first thunk runs on the calling thread, so its argsorts
            # additionally chunk across the pool (inside a worker the
            # parallel primitives inline to serial).
            run_tasks([lambda: r_info.ranks_with(parallel),
                       lambda: s_info.positions_with(parallel)])
        if config.validate_keys:
            if not r_info.is_key:
                raise key_violation(r_order)
            if not s_info.is_key:
                raise key_violation(s_order)
        aligned = parallel_gather(s_info.positions,
                                  r_info.ranks_with(parallel), parallel)
        s_app_columns = parallel_gather_columns(
            _app_floats(s, s_split, parallel), aligned, parallel)
        s_order_bats = [bat.fetch(aligned, positions_key=True)
                        for bat in s_order_bats]
    prepared_r = PreparedInput(
        r, r_split, r_order_bats,
        _app_floats(r, r_split, parallel),
        sorted_storage=False,
        validated=config.validate_keys)
    prepared_s = PreparedInput(
        s, s_split, s_order_bats, s_app_columns,
        sorted_storage=False, validated=config.validate_keys)
    return prepared_r, prepared_s


class FusionFallback(Exception):
    """Internal: fused-execution preconditions do not hold.

    Raised by :func:`prepare_fused` (and callers) when a fused element-wise
    chain cannot be executed as one pass — the executor then replays the
    chain step by step, which either produces the identical unfused result
    or raises the exact error the unfused pipeline would have raised.
    Never user-visible.
    """


def prepare_fused(relations: Sequence[Relation],
                  bys: Sequence[Sequence[str]],
                  config: RmaConfig) -> list[PreparedInput]:
    """Prepare all leaves of a fused element-wise chain in one pass.

    Every leaf is split into order and application part and aligned into the
    *first* leaf's storage order.  Because each chain step keeps its first
    argument's storage order (RELATIVE class) and each intermediate's sort
    by its combined order schema equals its first leaf's sort by its own
    order schema (keyed order schemas: a stable lexicographic sort never
    reaches the tie-breakers), the alignment of leaf ``i`` composes to the
    single permutation ``positions_i[ranks_0]`` — the same relative-sorting
    rule :func:`prepare_binary` applies per step, collapsed over the chain.

    Raises :class:`FusionFallback` when any precondition cannot be
    established cheaply:

    * the sorting optimization is off,
    * cardinalities or application-schema widths disagree,
    * order schemas overlap or contain unknown/non-numeric splits,
    * a leaf's order schema is not a verified key (with duplicate keys the
      per-step sorts are not derivable from the leaf sorts, so only the
      step-by-step path is faithful).
    """
    if not config.optimize_sorting:
        raise FusionFallback("sorting optimization off")
    if not relations or len(relations) != len(bys):
        raise FusionFallback("malformed fused chain")
    n = relations[0].nrows
    seen: set[str] = set()
    splits: list[Split] = []
    for relation, by in zip(relations, bys):
        if relation.nrows != n:
            raise FusionFallback("cardinality mismatch")
        order_names = list(by)
        if not order_names:
            raise FusionFallback("empty order schema")
        order_positions = relation.schema.positions(order_names)
        for name, position in zip(order_names, order_positions):
            if name in seen or position is None:
                raise FusionFallback("order schema overlap or unknown")
            seen.add(name)
        app_names, app_positions = _application_part(relation,
                                                     order_positions)
        if not app_names:
            raise FusionFallback("empty application schema")
        attributes = relation.schema.attributes
        if any(not attributes[i].dtype.is_numeric for i in app_positions):
            raise FusionFallback("non-numeric application attribute")
        splits.append(Split(order_names, app_names, order_positions,
                            app_positions))
    width = len(splits[0].app_names)
    if any(len(split.app_names) != width for split in splits):
        raise FusionFallback("application schema widths differ")

    parallel = _parallel_of(config)
    infos = [relation.order_info(split.order_names)
             for relation, split in zip(relations, splits)]
    if parallel is not None and len(infos) > 1:
        # Per-leaf argsorts and key checks are independent; force them
        # concurrently on the pool (the per-relation order caches are
        # thread-safe, so each computes exactly once).  The first leaf
        # runs on the calling thread, where the argsort itself chunks
        # across the pool.
        run_tasks([lambda info=info: (info.positions_with(parallel),
                                      info.is_key)
                   for info in infos])
    for info in infos:
        if not info.is_key:
            raise FusionFallback("order schema is not a key")

    ranks = infos[0].ranks_with(parallel) if len(relations) > 1 else None

    def prepare_leaf(i: int) -> PreparedInput:
        relation, split = relations[i], splits[i]
        app_floats = _app_floats(relation, split, parallel)
        if i == 0:
            order_bats = split.order_bats(relation)
            app_columns = app_floats
        else:
            aligned = parallel_gather(infos[i].positions, ranks, parallel)
            order_bats = [bat.fetch(aligned, positions_key=True)
                          for bat in split.order_bats(relation)]
            app_columns = parallel_gather_columns(app_floats, aligned,
                                                  parallel)
        return PreparedInput(relation, split, order_bats, app_columns,
                             sorted_storage=False, validated=True)

    # Leaf alignments are independent too: ship them to the pool as
    # whole-leaf tasks (the cheap first leaf runs on the caller); the
    # chunked gathers inside inline when already on a worker.
    if parallel is not None and len(relations) > 1:
        return run_tasks([lambda i=i: prepare_leaf(i)
                          for i in range(len(relations))])
    return [prepare_leaf(i) for i in range(len(relations))]


def _check_binary_compat(r: Relation, r_order: list[str], r_app: list[str],
                         s: Relation, s_order: list[str], s_app: list[str],
                         spec: OpSpec) -> None:
    """Schema-level preconditions of binary operations (paper Table 2)."""
    if spec.same_shape:
        # add/sub/emu: union-compatible application schemas,
        # non-overlapping order schemas (the result carries both).
        if len(r_app) != len(s_app):
            raise ApplicationSchemaError(
                f"{spec.name}: application schemas must be union "
                f"compatible, got {len(r_app)} and {len(s_app)} attributes")
        overlap = set(r_order) & set(s_order)
        if overlap:
            raise OrderSchemaError(
                f"{spec.name}: order schemas overlap on "
                f"{sorted(overlap)}; rename one side first")
        if r.nrows != s.nrows:
            raise RmaError(
                f"{spec.name}: relations have different cardinalities "
                f"({r.nrows} vs {s.nrows})")
    if spec.inner_dims and len(r_app) != s.nrows:
        raise RmaError(
            f"{spec.name}: first application schema has {len(r_app)} "
            f"attributes but second relation has {s.nrows} tuples")
    if spec.same_rows and r.nrows != s.nrows:
        raise RmaError(
            f"{spec.name}: relations have different cardinalities "
            f"({r.nrows} vs {s.nrows})")
    if spec.same_cols and len(r_app) != len(s_app):
        raise ApplicationSchemaError(
            f"{spec.name}: application schemas must have the same width, "
            f"got {len(r_app)} and {len(s_app)}")


def sorted_order_values(prepared: PreparedInput) -> list[str]:
    """▽U for a prepared input: sorted values of the single order attribute.

    Cheap even in the no-sort modes: only the (single) order column is
    argsorted, never the application part.
    """
    if len(prepared.order_names) != 1:
        raise OrderSchemaError(
            "column cast requires a single-attribute order schema")
    bat = prepared.order_bats[0]
    if prepared.sorted_storage:
        values = bat.python_values()
    elif bat.tsorted:
        values = bat.python_values()
    elif bat is prepared.relation.column(prepared.order_names[0]):
        # Storage-order column: reuse (and populate) the relation's order
        # cache instead of argsorting on every call.
        positions = prepared.relation.order_info(
            prepared.order_names[:1]).positions
        values = bat.fetch(positions, positions_key=True).python_values()
    else:
        positions = np.argsort(bat.tail, kind="stable")
        values = bat.fetch(positions).python_values()
    out = []
    for value in values:
        if value is None:
            raise RmaError("column cast over nil values")
        out.append(str(value))
    return out
