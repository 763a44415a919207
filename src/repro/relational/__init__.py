"""Relational algebra over BATs.

Relations are schemas plus aligned BATs; the operators here (selection,
projection, join, aggregation, pivot, ...) are the relational half of the
mixed workloads.  The relational *matrix* operations live in
:mod:`repro.core`.
"""

from repro.relational.schema import Attribute, Schema
from repro.relational.relation import Relation
from repro.relational.ops import (
    cross,
    distinct,
    extend,
    limit,
    project,
    rename,
    select_mask,
    sort,
    union_all,
)
from repro.relational.joins import join
from repro.relational.aggregate import AggregateSpec, group_by
from repro.relational.pivot import pivot
from repro.relational.csv_io import read_csv, write_csv

__all__ = [
    "Attribute",
    "Schema",
    "Relation",
    "select_mask",
    "project",
    "extend",
    "rename",
    "cross",
    "union_all",
    "distinct",
    "limit",
    "sort",
    "join",
    "group_by",
    "AggregateSpec",
    "pivot",
    "read_csv",
    "write_csv",
]
