"""The paper's constructors: µ, γ, ∆ (schema cast), ▽ (column cast).

These map between relations and matrices (paper §3, §4.1) and are the formal
vocabulary the relational matrix operations are defined with.  The engine's
fast path (:mod:`repro.core.context`) fuses them; the explicit versions here
are the specification and are exercised directly by the tests.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.bat.bat import BAT, DataType
from repro.bat.sorting import order_by, require_key
from repro.errors import OrderSchemaError, RmaError, SchemaError
from repro.linalg.matrix import Columns
from repro.relational.relation import Relation
from repro.relational.schema import Attribute, Schema


def mu(relation: Relation, order_names: Sequence[str],
       take_names: Sequence[str]) -> Columns:
    """Matrix constructor µ (Definition 4.2), numeric variant.

    Returns the values of ``take_names`` sorted by ``order_names`` as float
    columns — the matrix ``µ_take(r)`` with the order imposed by the order
    schema.
    """
    bats = mu_bats(relation, order_names, take_names)
    return [bat.as_float() for bat in bats]


def matrix_constructor(relation: Relation, order_names: Sequence[str],
                       take_names: Sequence[str]) -> np.ndarray:
    """µ as a dense array (convenient for reducibility checks, Def. 6.1)."""
    columns = mu(relation, order_names, take_names)
    return np.column_stack(columns) if columns else np.empty((0, 0))


def mu_bats(relation: Relation, order_names: Sequence[str],
            take_names: Sequence[str]) -> list[BAT]:
    """µ over BATs of any type (used for order parts)."""
    if not order_names:
        raise OrderSchemaError("order schema must not be empty")
    positions = order_by(relation.bats(order_names))
    return [relation.column(name).fetch(positions) for name in take_names]


def gamma(columns: Sequence[BAT], names: Sequence[str]) -> Relation:
    """Relation constructor γ (Definition 4.4).

    Combines aligned columns and a schema into a relation.  The paper
    requires the matrix rows to be unique; we follow the implementation
    (Alg. 1's Concat) and do not re-verify uniqueness here — the inputs
    are produced from keyed order schemas, which guarantees it.
    """
    if len(columns) != len(names):
        raise SchemaError(
            f"relation constructor got {len(columns)} columns for "
            f"{len(names)} attribute names")
    schema = Schema(Attribute(str(name), col.dtype)
                    for name, col in zip(names, columns))
    return Relation(schema, list(columns))


def schema_cast(names: Sequence[str]) -> BAT:
    """Schema cast ∆U: a single string column holding attribute names.

    (Equation 4: creates a one-column matrix from the names of U.)
    """
    if not names:
        raise RmaError("schema cast of an empty attribute list")
    return BAT(DataType.STR, np.array([str(n) for n in names], dtype=object))


def column_cast(relation: Relation, order_name: str,
                validate: bool = True) -> list[str]:
    """Column cast ▽U: sorted values of a key attribute as names.

    (Equation 2: generates a schema from the values of a single-attribute
    key.)  Used by ``tra``, ``usv`` and ``opd`` to name result columns.
    """
    bat = relation.column(order_name)
    if bat.is_nil().any():
        raise RmaError("column cast over nil values cannot name attributes")
    positions = np.argsort(bat.tail, kind="stable")
    if validate:
        require_key([bat], [order_name], positions)
    sorted_bat = bat.fetch(positions)
    return [_name_of(v) for v in sorted_bat.python_values()]


def _name_of(value) -> str:
    if value is None:
        raise RmaError("column cast over nil values cannot name attributes")
    return str(value)
