"""PIVOT: turn attribute values into attributes.

The paper's DBLP workload builds its publication table as "the result of SQL
PIVOT over a count-aggregate by conference and author" (§8.6(3)).  This is
that operator: the distinct values of the pivot column become new numeric
attributes, filled from the value column (missing combinations get a
default).
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.bat.bat import BAT, DataType
from repro.errors import RelationError
from repro.relational.joins import group_codes
from repro.relational.relation import Relation
from repro.relational.schema import Attribute, Schema


def pivot(relation: Relation, index: Sequence[str], on: str, value: str,
          default: float = 0.0, aggregate: str = "sum") -> Relation:
    """Pivot ``relation`` so each distinct value of ``on`` becomes a column.

    ``index`` attributes identify the output rows, ``value`` supplies the
    cell values.  Duplicate (index, on) combinations are combined with
    ``aggregate`` ("sum" or "count").
    """
    if aggregate not in ("sum", "count"):
        raise RelationError(f"unsupported pivot aggregate {aggregate!r}")
    if relation.nrows == 0:
        raise RelationError("cannot pivot an empty relation")
    on_bat = relation.column(on)
    value_bat = relation.column(value)
    if not value_bat.dtype.is_numeric:
        raise RelationError(
            f"pivot value attribute {value!r} must be numeric")

    row_inverse, row_first, nrows = group_codes(relation.bats(index))
    # Pivot columns appear in value order: the codes are value ranks and
    # each column is named after its first row's value.
    col_inverse, col_first, ncols = group_codes([on_bat])
    col_values_sorted = on_bat.tail[col_first]

    cell = row_inverse * ncols + col_inverse
    values = value_bat.as_float()
    if aggregate == "count":
        values = np.ones(len(values), dtype=np.float64)
    grid = np.full(nrows * ncols, default, dtype=np.float64)
    sums = np.bincount(cell, weights=values, minlength=nrows * ncols)
    touched = np.bincount(cell, minlength=nrows * ncols) > 0
    grid[touched] = sums[touched]
    grid = grid.reshape(nrows, ncols)

    attrs: list[Attribute] = []
    columns: list[BAT] = []
    for name in index:
        source = relation.column(name)
        attrs.append(Attribute(name, source.dtype))
        columns.append(source.fetch(row_first))
    for j in range(ncols):
        col_name = str(on_bat.decode_value(col_values_sorted[j]))
        attrs.append(Attribute(col_name, DataType.DBL))
        columns.append(BAT(DataType.DBL, grid[:, j].copy()))
    return Relation(Schema(attrs), columns)


def unpivot(relation: Relation, index: Sequence[str],
            value_columns: Sequence[str], var_name: str = "variable",
            value_name: str = "value") -> Relation:
    """Inverse of :func:`pivot`: melt value columns into (name, value) rows."""
    n = relation.nrows
    k = len(value_columns)
    if k == 0:
        raise RelationError("unpivot requires at least one value column")
    positions = np.repeat(np.arange(n, dtype=np.int64), k)
    attrs: list[Attribute] = []
    columns: list[BAT] = []
    for name in index:
        source = relation.column(name)
        attrs.append(Attribute(name, source.dtype))
        columns.append(source.fetch(positions))
    var_values = np.array(list(value_columns) * n, dtype=object)
    attrs.append(Attribute(var_name, DataType.STR))
    columns.append(BAT(DataType.STR, var_values))
    stacked = np.empty(n * k, dtype=np.float64)
    for j, name in enumerate(value_columns):
        stacked[j::k] = relation.column(name).as_float()
    attrs.append(Attribute(value_name, DataType.DBL))
    columns.append(BAT(DataType.DBL, stacked))
    return Relation(Schema(attrs), columns)
