"""The ``col``/``lit`` expression DSL for Python-built plans.

``col("YoB") > 1966`` builds the same :mod:`repro.sql.ast` expression the
SQL parser produces for ``YoB > 1966``, so predicates and projections
written in Python (:meth:`repro.api.matrix.Matrix.filter`, ``select``,
``join``) compile into exactly the plan nodes SQL text does.
"""

from __future__ import annotations

from typing import Any

from repro.sql import ast


class Col:
    """A small expression wrapper so predicates read like Python.

    ``col("YoB") > 1966`` builds the same :mod:`repro.sql.ast` expression
    the SQL parser would for ``YoB > 1966``.  Comparison operators return
    new :class:`Col` objects (not booleans), so these wrappers must not be
    used as dict keys or in sets.
    """

    def __init__(self, expr: ast.Expr, alias: str | None = None):
        self.expr = expr
        self.out_name = alias

    def alias(self, name: str) -> "Col":
        """Name this expression in a ``select``."""
        return Col(self.expr, name)

    # comparisons -----------------------------------------------------------
    def _binary(self, op: str, other: Any) -> "Col":
        return Col(ast.BinaryOp(op, self.expr, as_expr(other)))

    def __eq__(self, other):  # type: ignore[override]
        return self._binary("=", other)

    def __ne__(self, other):  # type: ignore[override]
        return self._binary("<>", other)

    def __lt__(self, other):
        return self._binary("<", other)

    def __le__(self, other):
        return self._binary("<=", other)

    def __gt__(self, other):
        return self._binary(">", other)

    def __ge__(self, other):
        return self._binary(">=", other)

    __hash__ = None  # comparisons build expressions, not truth values

    # arithmetic ------------------------------------------------------------
    def __add__(self, other):
        return self._binary("+", other)

    def __radd__(self, other):
        return Col(ast.BinaryOp("+", as_expr(other), self.expr))

    def __sub__(self, other):
        return self._binary("-", other)

    def __rsub__(self, other):
        return Col(ast.BinaryOp("-", as_expr(other), self.expr))

    def __mul__(self, other):
        return self._binary("*", other)

    def __rmul__(self, other):
        return Col(ast.BinaryOp("*", as_expr(other), self.expr))

    def __truediv__(self, other):
        return self._binary("/", other)

    def __mod__(self, other):
        return self._binary("%", other)

    def __neg__(self):
        return Col(ast.UnaryOp("-", self.expr))

    # boolean connectives ----------------------------------------------------
    def __and__(self, other):
        return self._binary("AND", other)

    def __or__(self, other):
        return self._binary("OR", other)

    def __invert__(self):
        return Col(ast.UnaryOp("NOT", self.expr))

    # predicates -------------------------------------------------------------
    def is_null(self) -> "Col":
        return Col(ast.IsNull(self.expr))

    def is_not_null(self) -> "Col":
        return Col(ast.IsNull(self.expr, negated=True))

    def isin(self, *values: Any) -> "Col":
        return Col(ast.InList(self.expr,
                              tuple(as_expr(v) for v in values)))

    def between(self, low: Any, high: Any) -> "Col":
        return Col(ast.Between(self.expr, as_expr(low), as_expr(high)))

    def like(self, pattern: str) -> "Col":
        return Col(ast.BinaryOp("LIKE", self.expr, ast.Literal(pattern)))

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"Col({self.expr.to_sql()})"


def col(name: str, table: str | None = None) -> Col:
    """Reference a column, optionally qualified by a scan alias."""
    return Col(ast.ColumnRef(name, table))


def lit(value: Any) -> Col:
    """A literal value as an expression."""
    return Col(ast.Literal(value))


def as_expr(value: Any) -> ast.Expr:
    """Coerce a Col / ast.Expr / python scalar into an AST expression."""
    if isinstance(value, Col):
        return value.expr
    if isinstance(value, ast.Expr):
        return value
    return ast.Literal(value)
