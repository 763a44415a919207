"""Grouped aggregation ϑ.

Groups are identified by the join encoder's key codes
(:func:`repro.relational.joins.key_codes`): integer keys in a small span
are coded by offset and composite keys folded by multiplication, without
sorting.  Aggregates are computed with segmented numpy reductions
(``bincount`` and friends), never per-row python loops.

When every key column is coded by offset (the codes have a layout, at
most ``DENSE_SPAN_FACTOR`` times the rows), aggregation runs at the code
domain: the codes themselves are the bins, ``bincount`` of the codes
counts the groups, and the groups are the codes that occur, in code order
(which is key order).  The key values are decoded from those codes, so
no row is gathered, scattered or ranked for them.  Each bin reduces the
same values in the same row order as a dense group id would, so the
results are bit-identical to the compacted path, which the other keys
(STR, DBL, wide spans, a fold that needed compaction) keep: their codes
are compacted into dense group ids once, and each group's first row gives
its key values.  COUNT(DISTINCT x) groups the (group, value) pairs with
the same encoder and counts each group's pairs.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from repro.bat.bat import BAT, DataType, NIL_INT, _encode_value
from repro.errors import PlanError, RelationError
from repro.relational.joins import KeyCodes, group_codes, group_ids, key_codes
from repro.relational.relation import Relation
from repro.relational.schema import Attribute, Schema

SUPPORTED_AGGREGATES = ("count", "sum", "avg", "min", "max", "var", "std")


@dataclass(frozen=True)
class AggregateSpec:
    """One aggregate to compute: ``func([DISTINCT] argument) AS alias``.

    ``argument`` is an attribute name, or ``"*"`` for ``count(*)``;
    ``distinct`` is supported for ``count`` only.
    """

    func: str
    argument: str
    alias: str
    distinct: bool = False

    def __post_init__(self):
        if self.func not in SUPPORTED_AGGREGATES:
            raise PlanError(f"unsupported aggregate {self.func!r}")
        if self.argument == "*" and self.func != "count":
            raise PlanError(f"{self.func}(*) is not valid")
        if self.distinct and (self.func != "count" or self.argument == "*"):
            raise PlanError("DISTINCT is only supported for COUNT")


class _Groups:
    """Group ids per row in ``[0, domain)``; ``keep`` lists the ids that
    are groups, in key order (``None``: every id is one).  ``sizes`` is
    the rows per id, when it was counted."""

    __slots__ = ("gids", "domain", "keep", "sizes")

    def __init__(self, gids: np.ndarray, domain: int,
                 keep: np.ndarray | None = None,
                 sizes: np.ndarray | None = None):
        self.gids, self.domain, self.keep = gids, domain, keep
        self.sizes = sizes

    def binned(self, gids: np.ndarray | None = None,
               weights: np.ndarray | None = None) -> np.ndarray:
        """``bincount`` over the domain, at the groups."""
        if gids is None:
            gids = self.gids
        if gids is self.gids and weights is None and self.sizes is not None:
            out = self.sizes
        else:
            out = np.bincount(gids, weights=weights, minlength=self.domain)
        return out if self.keep is None else out[self.keep]

    def at_groups(self, out: np.ndarray) -> np.ndarray:
        return out if self.keep is None else out[self.keep]


def _segmented(func: str, values: np.ndarray, gids: np.ndarray,
               groups: _Groups) -> np.ndarray:
    """Segmented reduction of ``values`` by group id, at the groups."""
    if func == "sum":
        return groups.binned(gids, values)
    if func == "count":
        return groups.binned(gids).astype(np.float64)
    if func == "avg":
        # A group without values (all NULL) divides 0 by 0; it reads nil.
        with np.errstate(invalid="ignore"):
            return groups.binned(gids, values) / groups.binned(gids)
    if func in ("min", "max"):
        fill = np.inf if func == "min" else -np.inf
        out = np.full(groups.domain, fill, dtype=np.float64)
        ufunc = np.minimum if func == "min" else np.maximum
        ufunc.at(out, gids, values)
        return groups.at_groups(out)
    if func in ("var", "std"):
        counts = groups.binned(gids)
        sums = groups.binned(gids, values)
        sq = groups.binned(gids, values * values)
        with np.errstate(invalid="ignore"):
            means = sums / counts
        denominator = np.maximum(counts - 1, 1)
        var = (sq - counts * means * means) / denominator
        var = np.maximum(var, 0.0)
        return np.sqrt(var) if func == "std" else var
    raise PlanError(f"unsupported aggregate {func!r}")  # pragma: no cover


def _decode(keep: np.ndarray, layout: tuple[tuple[int, int], ...],
            dtypes: Sequence[DataType]) -> list[BAT]:
    """The key columns of the codes ``keep`` (ascending) in ``layout``:
    the last column is the lowest digit.  The first column comes out
    sorted, and a single key column is a key."""
    columns = []
    rest = keep
    for (low, span), dtype in zip(reversed(layout), reversed(dtypes)):
        digit = rest % span if len(layout) > 1 else rest
        column = BAT(dtype, (digit + low).astype(dtype.numpy_dtype,
                                                 copy=False))
        columns.append(column)
        rest = rest // span
    columns.reverse()
    columns[0]._seed_props(tsorted=True, tkey=len(columns) == 1 or None)
    return columns


def group_by(relation: Relation, keys: Sequence[str],
             aggregates: Sequence[AggregateSpec],
             coded: KeyCodes | None = None) -> Relation:
    """Grouped aggregation; with no keys, a single global group.

    Output schema: the key attributes followed by one attribute per
    aggregate.  The keys are coded by
    :func:`repro.relational.joins.key_codes`, unless ``coded`` holds their
    codes with a layout (:func:`repro.relational.joins.base_codes`
    gathered at the rows, which a join over the same rows gathers too):
    the key columns are then decoded from them and not read, so
    ``relation`` need not hold them.
    """
    n = relation.nrows
    if n == 0 and not keys:
        # Global aggregate over empty input: count() is 0, others are null.
        columns, attrs = [], []
        for spec in aggregates:
            if spec.func == "count":
                columns.append(BAT.from_values([0], DataType.INT))
            else:
                columns.append(BAT.from_values([None], DataType.DBL))
            attrs.append(Attribute(spec.alias, columns[-1].dtype))
        return Relation(Schema(attrs), columns)

    attrs: list[Attribute] = []
    columns: list[BAT] = []
    if not keys:
        groups = _Groups(np.zeros(n, dtype=np.int64), 1)
    else:
        if coded is None:
            coded = key_codes(relation.bats(keys))
        if coded.layout is not None:
            sizes = np.bincount(coded.codes, minlength=coded.k)
            keep = np.flatnonzero(sizes)
            groups = _Groups(coded.codes, coded.k, keep, sizes)
            columns += _decode(keep, coded.layout, coded.dtypes)
        else:
            gids, first, ngroups = group_ids(coded.codes, coded.k)
            groups = _Groups(gids, ngroups)
            columns += [bat.fetch(first) for bat in relation.bats(keys)]
        attrs += [Attribute(name, dtype)
                  for name, dtype in zip(keys, coded.dtypes)]

    gids = groups.gids
    for spec in aggregates:
        if spec.distinct:
            bat = _count_distinct(relation.column(spec.argument), groups)
            attrs.append(Attribute(spec.alias, bat.dtype))
            columns.append(bat)
            continue
        row_gids = gids
        values = None
        if spec.argument == "*":
            source_dtype = DataType.INT
        else:
            source = relation.column(spec.argument)
            if not source.dtype.is_numeric and spec.func not in ("count",
                                                                 "min",
                                                                 "max"):
                raise RelationError(
                    f"aggregate {spec.func} over non-numeric attribute "
                    f"{spec.argument!r}")
            if spec.func == "count":
                # COUNT(x) counts non-null values: sum a 0/1 mask.
                values = (~source.is_nil()).astype(np.float64)
                source_dtype = DataType.INT
            else:
                if not source.tnonil:
                    # NULLs take no part; a group without values is NULL.
                    present = np.flatnonzero(~source.is_nil())
                    source, row_gids = source.fetch(present), gids[present]
                if not source.dtype.is_numeric:
                    # min/max over non-numeric: sort-based fallback.
                    bat = _minmax_generic(source, row_gids, groups.domain,
                                          spec.func)
                    if groups.keep is not None:
                        bat = bat.fetch(groups.keep)
                    columns.append(bat)
                    attrs.append(Attribute(spec.alias, source.dtype))
                    continue
                values = source.as_float()
                source_dtype = source.dtype
        func = spec.func
        if spec.func == "count" and spec.argument != "*":
            func = "sum"
        out = _segmented(func, values, row_gids, groups)
        empty = None
        if row_gids is not gids:
            empty = groups.binned(row_gids) == 0
            out[empty] = 0.0  # made nil below
        if spec.func == "count":
            bat = BAT(DataType.INT, out.astype(np.int64))
        elif spec.func in ("sum", "min", "max") \
                and source_dtype is DataType.INT:
            tail = out.astype(np.int64)
            if empty is not None:
                tail[empty] = NIL_INT
            bat = BAT(DataType.INT, tail)
        else:
            tail = out.astype(np.float64)
            if empty is not None:
                tail[empty] = np.nan
            bat = BAT(DataType.DBL, tail)
        attrs.append(Attribute(spec.alias, bat.dtype))
        columns.append(bat)

    return Relation(Schema(attrs), columns)


def _count_distinct(values: BAT, groups: _Groups) -> BAT:
    """COUNT(DISTINCT values) per group: the distinct (group, value) pairs
    are grouped by the key encoder, and each pair's first row names its
    group, so one ``bincount`` counts them.  NULL is not a value."""
    gids = groups.gids
    if not values.tnonil:
        present = np.flatnonzero(~values.is_nil())
        values, gids = values.fetch(present), gids[present]
    _, first, _ = group_codes([BAT(DataType.INT, gids.astype(np.int64,
                                                             copy=False)),
                               values])
    return BAT(DataType.INT, groups.binned(gids[first]).astype(np.int64))


def _minmax_generic(source: BAT, gids: np.ndarray, ngroups: int,
                    func: str) -> BAT:
    """min/max for non-numeric columns via a value-ordered scan; a group
    without rows gets nil."""
    value_order = np.argsort(source.tail, kind="stable")
    sorted_gids = gids[value_order]
    positions = np.full(ngroups, -1, dtype=np.int64)
    if func == "min":
        for pos, gid in zip(value_order, sorted_gids):
            if positions[gid] < 0:
                positions[gid] = pos
    else:
        for pos, gid in zip(value_order, sorted_gids):
            positions[gid] = pos
    empty = positions < 0
    if not empty.any():
        return source.fetch(positions)
    tail = np.empty(ngroups, dtype=source.dtype.numpy_dtype)
    tail[~empty] = source.tail[positions[~empty]]
    tail[empty] = _encode_value(None, source.dtype)
    return BAT(source.dtype, tail)
