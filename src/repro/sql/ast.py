"""Abstract syntax tree for the SQL dialect.

Expression nodes render back to SQL via ``to_sql()`` so tests can assert
parse/render round trips.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Optional, Sequence


class Node:
    """Base class for AST nodes."""

    def to_sql(self) -> str:  # pragma: no cover - overridden
        raise NotImplementedError


# -- expressions ------------------------------------------------------------

class Expr(Node):
    pass


@dataclass(frozen=True, eq=False)
class Literal(Expr):
    """A constant.

    Equality and hash include the value's type: ``1``, ``1.0`` and
    ``TRUE`` are equal in Python but type their expressions differently,
    and plan caches and expression memos are keyed by these nodes.
    Floats compare by bit pattern, so ``-0.0`` differs from ``0.0`` and
    a NaN literal equals itself.
    """

    value: Any  # int, float, str, bool, datetime.date/time, or None

    def _key(self) -> tuple:
        value = self.value
        if isinstance(value, float):
            value = value.hex()
        return type(self.value), value

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Literal):
            return NotImplemented
        return self._key() == other._key()

    def __hash__(self) -> int:
        return hash(self._key())

    def to_sql(self) -> str:
        if self.value is None:
            return "NULL"
        if isinstance(self.value, bool):
            return "TRUE" if self.value else "FALSE"
        if isinstance(self.value, str):
            escaped = self.value.replace("'", "''")
            return f"'{escaped}'"
        import datetime
        if isinstance(self.value, datetime.date):
            return f"DATE '{self.value.isoformat()}'"
        if isinstance(self.value, datetime.time):
            return f"TIME '{self.value.isoformat()}'"
        return repr(self.value)


@dataclass(frozen=True)
class Param(Expr):
    """A literal of a statement template, by slot.

    The session parses a statement once per shape (its token stream with
    the literals taken out) and runs the template with the literals'
    values bound per execution.  Equal literals of one statement share a
    slot, so templates compare sub-expressions exactly as the literals
    did.
    """

    slot: int

    def to_sql(self) -> str:
        return f"${self.slot}"


@dataclass(frozen=True)
class ColumnRef(Expr):
    name: str
    table: Optional[str] = None

    def to_sql(self) -> str:
        return f"{self.table}.{self.name}" if self.table else self.name


@dataclass(frozen=True)
class Star(Expr):
    table: Optional[str] = None

    def to_sql(self) -> str:
        return f"{self.table}.*" if self.table else "*"


@dataclass(frozen=True)
class BinaryOp(Expr):
    op: str
    left: Expr
    right: Expr

    def to_sql(self) -> str:
        return f"({self.left.to_sql()} {self.op} {self.right.to_sql()})"


@dataclass(frozen=True)
class UnaryOp(Expr):
    op: str  # "-", "+", "NOT"
    operand: Expr

    def to_sql(self) -> str:
        if self.op == "NOT":
            return f"(NOT {self.operand.to_sql()})"
        return f"({self.op}{self.operand.to_sql()})"


@dataclass(frozen=True)
class FunctionCall(Expr):
    name: str  # upper-cased
    args: tuple[Expr, ...]
    distinct: bool = False

    def to_sql(self) -> str:
        inner = ", ".join(a.to_sql() for a in self.args)
        prefix = "DISTINCT " if self.distinct else ""
        return f"{self.name}({prefix}{inner})"


@dataclass(frozen=True)
class IsNull(Expr):
    operand: Expr
    negated: bool = False

    def to_sql(self) -> str:
        suffix = "IS NOT NULL" if self.negated else "IS NULL"
        return f"({self.operand.to_sql()} {suffix})"


@dataclass(frozen=True)
class Between(Expr):
    operand: Expr
    low: Expr
    high: Expr
    negated: bool = False

    def to_sql(self) -> str:
        word = "NOT BETWEEN" if self.negated else "BETWEEN"
        return (f"({self.operand.to_sql()} {word} {self.low.to_sql()} "
                f"AND {self.high.to_sql()})")


@dataclass(frozen=True)
class InList(Expr):
    operand: Expr
    items: tuple[Expr, ...]
    negated: bool = False

    def to_sql(self) -> str:
        word = "NOT IN" if self.negated else "IN"
        inner = ", ".join(i.to_sql() for i in self.items)
        return f"({self.operand.to_sql()} {word} ({inner}))"


@dataclass(frozen=True)
class CaseWhen(Expr):
    branches: tuple[tuple[Expr, Expr], ...]
    otherwise: Optional[Expr] = None

    def to_sql(self) -> str:
        parts = ["CASE"]
        for cond, value in self.branches:
            parts.append(f"WHEN {cond.to_sql()} THEN {value.to_sql()}")
        if self.otherwise is not None:
            parts.append(f"ELSE {self.otherwise.to_sql()}")
        parts.append("END")
        return " ".join(parts)


# -- table expressions --------------------------------------------------------

class TableExpr(Node):
    pass


@dataclass(frozen=True)
class TableRef(TableExpr):
    name: str
    alias: Optional[str] = None

    def to_sql(self) -> str:
        return f"{self.name} AS {self.alias}" if self.alias else self.name


@dataclass(frozen=True)
class SubqueryRef(TableExpr):
    query: "Select"
    alias: str

    def to_sql(self) -> str:
        return f"({self.query.to_sql()}) AS {self.alias}"


@dataclass(frozen=True)
class RmaArg(Node):
    """One ``<table expr> BY <attrs>`` argument of an RMA call."""

    table: TableExpr
    by: tuple[str, ...]

    def to_sql(self) -> str:
        by = ", ".join(self.by)
        if len(self.by) > 1:
            by = f"({by})"
        return f"{self.table.to_sql()} BY {by}"


@dataclass(frozen=True)
class RmaCall(TableExpr):
    """A relational matrix operation in the FROM clause."""

    op: str  # lower-cased operation name
    args: tuple[RmaArg, ...]
    alias: Optional[str] = None

    def to_sql(self) -> str:
        inner = ", ".join(a.to_sql() for a in self.args)
        sql = f"{self.op.upper()}({inner})"
        return f"{sql} AS {self.alias}" if self.alias else sql


@dataclass(frozen=True)
class Join(TableExpr):
    kind: str  # "inner", "left", "cross"
    left: TableExpr
    right: TableExpr
    condition: Optional[Expr] = None

    def to_sql(self) -> str:
        if self.kind == "cross":
            return f"{self.left.to_sql()} CROSS JOIN {self.right.to_sql()}"
        word = {"inner": "JOIN", "left": "LEFT JOIN"}[self.kind]
        return (f"{self.left.to_sql()} {word} {self.right.to_sql()} "
                f"ON {self.condition.to_sql()}")


# -- statements ----------------------------------------------------------------

@dataclass(frozen=True)
class SelectItem(Node):
    expr: Expr
    alias: Optional[str] = None

    def to_sql(self) -> str:
        sql = self.expr.to_sql()
        return f"{sql} AS {self.alias}" if self.alias else sql


@dataclass(frozen=True)
class OrderItem(Node):
    expr: Expr
    descending: bool = False

    def to_sql(self) -> str:
        return f"{self.expr.to_sql()}{' DESC' if self.descending else ''}"


@dataclass(frozen=True)
class Select(Node):
    items: tuple[SelectItem, ...]
    source: Optional[TableExpr] = None
    where: Optional[Expr] = None
    group_by: tuple[Expr, ...] = field(default=())
    having: Optional[Expr] = None
    order_by: tuple[OrderItem, ...] = field(default=())
    limit: Optional[int] = None
    offset: int = 0
    distinct: bool = False

    def to_sql(self) -> str:
        parts = ["SELECT"]
        if self.distinct:
            parts.append("DISTINCT")
        parts.append(", ".join(i.to_sql() for i in self.items))
        if self.source is not None:
            parts.append(f"FROM {self.source.to_sql()}")
        if self.where is not None:
            parts.append(f"WHERE {self.where.to_sql()}")
        if self.group_by:
            parts.append("GROUP BY "
                         + ", ".join(e.to_sql() for e in self.group_by))
        if self.having is not None:
            parts.append(f"HAVING {self.having.to_sql()}")
        if self.order_by:
            parts.append("ORDER BY "
                         + ", ".join(o.to_sql() for o in self.order_by))
        if self.limit is not None:
            parts.append(f"LIMIT {self.limit}")
            if self.offset:
                parts.append(f"OFFSET {self.offset}")
        return " ".join(parts)


@dataclass(frozen=True)
class ColumnDef(Node):
    name: str
    type_name: str  # INT, DOUBLE, VARCHAR/STRING/TEXT, DATE, TIME, BOOLEAN

    def to_sql(self) -> str:
        return f"{self.name} {self.type_name}"


@dataclass(frozen=True)
class CreateTable(Node):
    name: str
    columns: tuple[ColumnDef, ...] = field(default=())
    source: Optional[Select] = None  # CREATE TABLE ... AS SELECT

    def to_sql(self) -> str:
        if self.source is not None:
            return f"CREATE TABLE {self.name} AS {self.source.to_sql()}"
        cols = ", ".join(c.to_sql() for c in self.columns)
        return f"CREATE TABLE {self.name} ({cols})"


@dataclass(frozen=True)
class DropTable(Node):
    name: str
    if_exists: bool = False

    def to_sql(self) -> str:
        clause = "IF EXISTS " if self.if_exists else ""
        return f"DROP TABLE {clause}{self.name}"


@dataclass(frozen=True)
class Explain(Node):
    """EXPLAIN <select>: show the optimized logical/physical plan."""

    query: Select

    def to_sql(self) -> str:
        return f"EXPLAIN {self.query.to_sql()}"


@dataclass(frozen=True)
class InsertValues(Node):
    table: str
    rows: tuple[tuple[Expr, ...], ...]
    columns: tuple[str, ...] = field(default=())

    def to_sql(self) -> str:
        cols = f" ({', '.join(self.columns)})" if self.columns else ""
        rows = ", ".join(
            "(" + ", ".join(v.to_sql() for v in row) + ")"
            for row in self.rows)
        return f"INSERT INTO {self.table}{cols} VALUES {rows}"


Statement = Select | CreateTable | DropTable | InsertValues | Explain
