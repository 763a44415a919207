"""Core relational algebra operators (selection, projection, ...).

All operators are pure functions from relations to relations, implemented as
BAT-level candidate propagation and fetchjoins — the MonetDB execution style.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.bat.bat import BAT, DataType
from repro.bat.kernels import Candidates, mask_to_candidates
from repro.bat.sorting import order_by
from repro.errors import RelationError, SchemaError
from repro.relational.relation import Relation
from repro.relational.schema import Attribute, Schema


def select_mask(relation: Relation, mask: np.ndarray) -> Relation:
    """Selection σ by a boolean mask over the storage order."""
    if len(mask) != relation.nrows:
        raise RelationError(
            f"selection mask has {len(mask)} entries for "
            f"{relation.nrows} rows")
    candidates = mask_to_candidates(mask)
    return select_candidates(relation, candidates)


def select_candidates(relation: Relation,
                      candidates: Candidates) -> Relation:
    """Selection by an explicit candidate list (sorted positions)."""
    return Relation(relation.schema,
                    [col.fetch(candidates) for col in relation.columns])


def project(relation: Relation, names: Sequence[str]) -> Relation:
    """Projection π preserving the given attribute order.

    Like SQL (and like the paper's use of π), duplicates are *not*
    eliminated; use :func:`distinct` for set semantics.
    """
    schema = relation.schema.project(names)
    return Relation(schema, relation.bats(names))


def extend(relation: Relation, name: str, column: BAT) -> Relation:
    """Add a computed column (the workhorse behind SELECT expressions)."""
    if name in relation.schema:
        raise SchemaError(f"attribute {name!r} already exists")
    if relation.nrows != len(column) and len(relation.columns) > 0:
        raise RelationError(
            f"new column {name!r} has {len(column)} rows, relation has "
            f"{relation.nrows}")
    schema = relation.schema.concat(Schema([Attribute(name, column.dtype)]))
    return Relation(schema, list(relation.columns) + [column])


def rename(relation: Relation, mapping: dict[str, str]) -> Relation:
    """Rename ρ."""
    return Relation(relation.schema.rename(mapping), relation.columns)


def cross(left: Relation, right: Relation) -> Relation:
    """Cross product ×; attribute names must not clash."""
    overlap = set(left.names) & set(right.names)
    if overlap:
        raise SchemaError(
            f"cross product with overlapping attributes {sorted(overlap)}; "
            "rename first")
    nl, nr = left.nrows, right.nrows
    lpos = np.repeat(np.arange(nl, dtype=np.int64), nr)
    rpos = np.tile(np.arange(nr, dtype=np.int64), nl)
    columns = ([col.fetch(lpos) for col in left.columns] +
               [col.fetch(rpos) for col in right.columns])
    return Relation(left.schema.concat(right.schema), columns)


def union_all(left: Relation, right: Relation) -> Relation:
    """Bag union (UNION ALL); schemas must be union compatible."""
    if not left.schema.union_compatible(right.schema):
        raise SchemaError(
            f"union of incompatible schemas {left.schema!r} and "
            f"{right.schema!r}")
    columns = []
    for lcol, attr, rcol in zip(left.columns, left.schema, right.columns):
        if rcol.dtype is not lcol.dtype:
            rcol = rcol.cast(lcol.dtype)
        columns.append(lcol.append(rcol))
    return Relation(left.schema, columns)


def distinct(relation: Relation) -> Relation:
    """Duplicate elimination (set semantics)."""
    if relation.nrows == 0:
        return relation
    order = order_by(list(relation.columns))
    # In sorted order, a row is a duplicate iff it equals its predecessor on
    # *all* columns.
    duplicate = np.ones(relation.nrows, dtype=bool)
    duplicate[0] = False
    for col in relation.columns:
        sorted_tail = col.tail[order]
        if col.dtype.numpy_dtype == object:
            eq = np.array([sorted_tail[i] == sorted_tail[i - 1]
                           for i in range(1, relation.nrows)], dtype=bool)
        else:
            eq = sorted_tail[1:] == sorted_tail[:-1]
            if col.dtype is DataType.DBL:  # nil (NaN) equals nil here
                eq |= np.isnan(sorted_tail[1:]) & np.isnan(sorted_tail[:-1])
        duplicate[1:] &= np.asarray(eq, dtype=bool)
    candidates = np.sort(order[~duplicate])
    return select_candidates(relation, candidates)


def limit(relation: Relation, n: int, offset: int = 0) -> Relation:
    """LIMIT/OFFSET over the storage order."""
    return Relation(relation.schema,
                    [col.slice(offset, offset + n)
                     for col in relation.columns])


def stable_argsort(key: np.ndarray, descending: bool = False) -> np.ndarray:
    """Stable argsort of ``key``: equal keys keep their input order in
    either direction, so sorting by the last ORDER BY key first and the
    first key last gives the lexicographic order."""
    if not descending:
        return np.argsort(key, kind="stable")
    # Sort the reversed input ascending and read it back to front: values
    # come out descending and ties in their input order.
    return (len(key) - 1 - np.argsort(key[::-1], kind="stable"))[::-1]


def sort(relation: Relation, names: Sequence[str],
         descending: Sequence[bool] | None = None) -> Relation:
    """ORDER BY: reorder storage by the given attributes."""
    if descending is None or not any(descending):
        return relation.sorted_by(names)
    positions = np.arange(relation.nrows, dtype=np.int64)
    for name, desc in reversed(list(zip(
            names, descending or [False] * len(names)))):
        key = relation.column(name).tail[positions]
        positions = positions[stable_argsort(key, desc)]
    return Relation(relation.schema,
                    [col.fetch(positions) for col in relation.columns])
