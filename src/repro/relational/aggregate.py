"""Grouped aggregation ϑ.

Groups are identified by the join encoder's key codes
(:func:`repro.relational.joins.group_codes`): integer keys in a small span
are coded by offset and composite keys folded by multiplication, without
sorting, and the codes are compacted once into dense group ids in key
order.  Aggregates are computed with segmented numpy reductions
(``bincount`` and friends), never per-row python loops.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from repro.bat.bat import BAT, DataType, NIL_INT, _encode_value
from repro.errors import PlanError, RelationError
from repro.relational.joins import group_codes
from repro.relational.relation import Relation
from repro.relational.schema import Attribute, Schema

SUPPORTED_AGGREGATES = ("count", "sum", "avg", "min", "max", "var", "std")


@dataclass(frozen=True)
class AggregateSpec:
    """One aggregate to compute: ``func(argument) AS alias``.

    ``argument`` is an attribute name, or ``"*"`` for ``count(*)``.
    """

    func: str
    argument: str
    alias: str

    def __post_init__(self):
        if self.func not in SUPPORTED_AGGREGATES:
            raise PlanError(f"unsupported aggregate {self.func!r}")
        if self.argument == "*" and self.func != "count":
            raise PlanError(f"{self.func}(*) is not valid")


def _group_codes(relation: Relation,
                 keys: Sequence[str]) -> tuple[np.ndarray, np.ndarray, int]:
    """(group id per row, first-row position per group, #groups)."""
    if not keys:
        n = relation.nrows
        return np.zeros(n, dtype=np.int64), np.zeros(1, dtype=np.int64), 1
    return group_codes(relation.bats(keys))


def _segmented(func: str, values: np.ndarray, gids: np.ndarray,
               ngroups: int) -> np.ndarray:
    """Segmented reduction of ``values`` by group id."""
    if func == "sum":
        return np.bincount(gids, weights=values, minlength=ngroups)
    if func == "count":
        return np.bincount(gids, minlength=ngroups).astype(np.float64)
    if func == "avg":
        sums = np.bincount(gids, weights=values, minlength=ngroups)
        counts = np.bincount(gids, minlength=ngroups)
        return sums / counts
    if func in ("min", "max"):
        fill = np.inf if func == "min" else -np.inf
        out = np.full(ngroups, fill, dtype=np.float64)
        ufunc = np.minimum if func == "min" else np.maximum
        ufunc.at(out, gids, values)
        return out
    if func in ("var", "std"):
        counts = np.bincount(gids, minlength=ngroups)
        sums = np.bincount(gids, weights=values, minlength=ngroups)
        sq = np.bincount(gids, weights=values * values, minlength=ngroups)
        means = sums / counts
        denominator = np.maximum(counts - 1, 1)
        var = (sq - counts * means * means) / denominator
        var = np.maximum(var, 0.0)
        return np.sqrt(var) if func == "std" else var
    raise PlanError(f"unsupported aggregate {func!r}")  # pragma: no cover


def group_by(relation: Relation, keys: Sequence[str],
             aggregates: Sequence[AggregateSpec]) -> Relation:
    """Grouped aggregation; with no keys, a single global group.

    Output schema: the key attributes (first-row representatives) followed by
    one attribute per aggregate.
    """
    gids, first, ngroups = _group_codes(relation, keys)
    if relation.nrows == 0 and not keys:
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
    for name in keys:
        source = relation.column(name)
        attrs.append(Attribute(name, source.dtype))
        columns.append(source.fetch(first))

    for spec in aggregates:
        row_gids = gids
        if spec.argument == "*":
            values = np.ones(relation.nrows, dtype=np.float64)
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
                    columns.append(_minmax_generic(source, row_gids,
                                                   ngroups, spec.func))
                    attrs.append(Attribute(spec.alias, source.dtype))
                    continue
                values = source.as_float()
                source_dtype = source.dtype
        func = spec.func
        if spec.func == "count" and spec.argument != "*":
            func = "sum"
        out = _segmented(func, values, row_gids, ngroups)
        empty = None
        if row_gids is not gids:
            empty = np.bincount(row_gids, minlength=ngroups) == 0
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
