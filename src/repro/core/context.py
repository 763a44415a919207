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

Relative sorting works the same for any number of arguments, so one
function (:func:`align_relative`) serves a binary operation and a fused
element-wise chain of k leaves alike: argument ``i`` is aligned to argument
0 by ``positions_i[ranks_0]``.  The two callers differ only in what a
non-key order schema raises: the key violation when keys are validated,
nothing when they are not, and :class:`FusionFallback` for a chain, whose
step-by-step replay then raises the exact unfused error.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Container, NamedTuple, Sequence

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
from repro.opspec import OpSpec, SortClass, spec_of
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
    spec.check_order_schemas(order_names if argument == 1 else None,
                             order_names if argument == 2 else None)
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

    # RELATIVE: r keeps its storage order and s is aligned to it.
    prepared = align_relative(
        [r, s], [r_split, s_split], config,
        key_violation if config.validate_keys else None)
    return prepared[0], prepared[1]


def align_relative(relations: Sequence[Relation], splits: Sequence[Split],
                   config: RmaConfig,
                   non_key: Callable[[list[str]], Exception] | None) \
        -> list[PreparedInput]:
    """Relative sorting (§8.1) of k split arguments.

    Argument 0 keeps its storage order and is never fetchjoined; argument
    ``i`` is aligned to it by the one composed permutation
    ``positions_i[ranks_0]`` (paper: "only the order part of the second
    relation requires sorting").  An argument whose order BATs are
    argument 0's own sorts identically, so its composed alignment is the
    identity, even with duplicate keys: it is neither sorted nor gathered,
    and its key verdict is argument 0's.  A self-operand call thus hands
    the kernel the very same arrays.

    ``non_key`` builds the exception raised for the first order schema, in
    argument order, that is not a key; ``None`` checks nothing, and an
    order schema that nothing else needs is then left cold.
    """
    first = splits[0].order_bats(relations[0])
    gathered = [i for i in range(1, len(relations))
                if not _same_bats(splits[i].order_bats(relations[i]), first)]
    parallel = _parallel_of(config)
    infos = {}
    if non_key is not None or gathered:
        infos = {i: relations[i].order_info(splits[i].order_names)
                 for i in [0] + gathered}
    if parallel is not None and gathered:
        # Force the arguments' sort work concurrently (cached afterwards);
        # the key checks below then reuse the orders.  The first thunk runs
        # on the calling thread, so its argsort additionally chunks across
        # the pool (inside a worker the parallel primitives inline to
        # serial).
        run_tasks([lambda: infos[0].ranks_with(parallel)]
                  + [lambda info=infos[i]: info.positions_with(parallel)
                     for i in gathered])
    if non_key is not None:
        for i, info in infos.items():
            if not info.is_key:
                raise non_key(splits[i].order_names)
    ranks = infos[0].ranks_with(parallel) if gathered else None

    def prepare(i: int) -> PreparedInput:
        relation, split = relations[i], splits[i]
        order_bats = split.order_bats(relation)
        app_columns = _app_floats(relation, split, parallel)
        if i in gathered:
            aligned = parallel_gather(infos[i].positions, ranks, parallel)
            order_bats = [bat.fetch(aligned, positions_key=True)
                          for bat in order_bats]
            app_columns = parallel_gather_columns(app_columns, aligned,
                                                  parallel)
        return PreparedInput(relation, split, order_bats, app_columns,
                             sorted_storage=False,
                             validated=non_key is not None)

    thunks = [lambda i=i: prepare(i) for i in range(len(relations))]
    if len(gathered) > 1:
        # Independent gathers: ship whole arguments to the pool (the cheap
        # first one runs on the caller); the chunked gathers inside inline
        # when already on a worker.
        return _prepare_arguments(thunks, config)
    return [thunk() for thunk in thunks]


def _same_bats(xs: Sequence[BAT], ys: Sequence[BAT]) -> bool:
    return len(xs) == len(ys) and all(x is y for x, y in zip(xs, ys))


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
    *first* leaf's storage order by :func:`align_relative`, the relative
    sorting :func:`prepare_binary` applies per step, collapsed over the
    chain: each step keeps its first argument's storage order, and each
    intermediate's sort by its combined order schema equals its first
    leaf's sort by its own order schema (keyed order schemas: a stable
    lexicographic sort never reaches the tie-breakers), so leaf ``i``'s
    alignment composes to the single permutation ``positions_i[ranks_0]``.

    Raises :class:`FusionFallback` when a precondition does not hold:

    * the sorting optimization is off,
    * a leaf fails the checks of a binary element-wise step against the
      first leaf (:func:`split_schema`, :func:`_check_binary_compat`), or
      two leaves share an order attribute,
    * a leaf's order schema is not a key (with duplicate keys the per-step
      sorts are not derivable from the leaf sorts, so only the step-by-step
      path is faithful).
    """
    if not config.optimize_sorting:
        raise FusionFallback("sorting optimization off")
    spec = spec_of("add")
    try:
        splits = [split_schema(relation, by, spec, argument=1 if i == 0
                               else 2)
                  for i, (relation, by) in enumerate(zip(relations, bys))]
        first = splits[0]
        for relation, split in zip(relations[1:], splits[1:]):
            _check_binary_compat(relations[0], first.order_names,
                                 first.app_names, relation,
                                 split.order_names, split.app_names, spec)
    except RmaError as exc:
        raise FusionFallback(str(exc)) from exc
    names = [name for split in splits for name in split.order_names]
    if len(set(names)) != len(names):
        raise FusionFallback("order schemas overlap")
    return align_relative(relations, splits, config, _not_a_key)


def _not_a_key(order_names: list[str]) -> FusionFallback:
    return FusionFallback(f"order schema {order_names} is not a key")


def _check_binary_compat(r: Relation, r_order: list[str], r_app: list[str],
                         s: Relation, s_order: list[str], s_app: list[str],
                         spec: OpSpec) -> None:
    """Schema-level preconditions of binary operations (paper Table 2).

    add/sub/emu need union-compatible application schemas, disjoint order
    schemas (the result carries both) and equal cardinalities.
    """
    if spec.same_shape and len(r_app) != len(s_app):
        raise ApplicationSchemaError(
            f"{spec.name}: application schemas must be union "
            f"compatible, got {len(r_app)} and {len(s_app)} attributes")
    spec.check_order_schemas(r_order, s_order)
    if spec.inner_dims and len(r_app) != s.nrows:
        raise RmaError(
            f"{spec.name}: first application schema has {len(r_app)} "
            f"attributes but second relation has {s.nrows} tuples")
    if (spec.same_shape or spec.same_rows) and r.nrows != s.nrows:
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
