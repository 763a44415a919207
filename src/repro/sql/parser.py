"""Recursive-descent SQL parser with the RMA FROM-clause extension.

:func:`literal_slots` splits a token stream into its *shape* and its
literal values: sessions key their statement templates by the shape and
parse each shape once, with ``parse_sql(text, template=True)`` turning
every literal into an :class:`~repro.sql.ast.Param` slot.
"""

from __future__ import annotations

import datetime as _dt
from typing import Any, Sequence

from repro.errors import SqlSyntaxError
from repro.opspec import OPS
from repro.sql import ast
from repro.sql.lexer import LITERAL_RUNS, Token, tokenize

_RMA_OPS = frozenset(OPS)

_AGGREGATES = frozenset({"AVG", "SUM", "COUNT", "MIN", "MAX", "VAR",
                         "STDDEV"})


class Parser:
    """One-pass recursive descent over the token stream."""

    def __init__(self, tokens: list[Token],
                 slots: dict[int, int] | None = None):
        self.tokens = tokens
        self.pos = 0
        # Token index -> parameter slot, for template parses.
        self.slots = slots or {}

    # -- token helpers -------------------------------------------------------

    def peek(self, ahead: int = 0) -> Token:
        index = min(self.pos + ahead, len(self.tokens) - 1)
        return self.tokens[index]

    def advance(self) -> Token:
        token = self.tokens[self.pos]
        if token.kind != "EOF":
            self.pos += 1
        return token

    def error(self, message: str) -> SqlSyntaxError:
        token = self.peek()
        return SqlSyntaxError(f"{message}, found {token.value!r}",
                              token.line, token.column)

    def accept_keyword(self, *words: str) -> Token | None:
        if self.peek().is_keyword(*words):
            return self.advance()
        return None

    def expect_keyword(self, word: str) -> Token:
        token = self.accept_keyword(word)
        if token is None:
            raise self.error(f"expected {word}")
        return token

    def accept_symbol(self, *symbols: str) -> Token | None:
        if self.peek().is_symbol(*symbols):
            return self.advance()
        return None

    def expect_symbol(self, symbol: str) -> Token:
        token = self.accept_symbol(symbol)
        if token is None:
            raise self.error(f"expected {symbol!r}")
        return token

    def expect_ident(self, what: str = "identifier") -> str:
        token = self.peek()
        if token.kind == "IDENT":
            return self.advance().value
        # Unreserved use of soft keywords as identifiers (e.g. a column
        # called "date") is not supported; quoted identifiers are.
        raise self.error(f"expected {what}")

    # -- entry points ---------------------------------------------------------

    def parse_statement(self) -> ast.Statement:
        token = self.peek()
        # EXPLAIN is a soft keyword, recognized only here: no statement can
        # start with a bare identifier, so this never shadows a column or
        # table named 'explain'.
        if token.kind == "IDENT" and token.value.upper() == "EXPLAIN":
            self.advance()
            if not self.peek().is_keyword("SELECT"):
                raise self.error("EXPLAIN supports SELECT statements only")
            stmt: ast.Statement = ast.Explain(self.parse_select())
        elif token.is_keyword("SELECT"):
            stmt = self.parse_select()
        elif token.is_keyword("CREATE"):
            stmt = self.parse_create()
        elif token.is_keyword("DROP"):
            stmt = self.parse_drop()
        elif token.is_keyword("INSERT"):
            stmt = self.parse_insert()
        else:
            raise self.error(
                "expected SELECT, EXPLAIN, CREATE, DROP or INSERT")
        self.accept_symbol(";")
        if self.peek().kind != "EOF":
            raise self.error("unexpected trailing input")
        return stmt

    # -- SELECT -----------------------------------------------------------------

    def parse_select(self) -> ast.Select:
        self.expect_keyword("SELECT")
        distinct = self.accept_keyword("DISTINCT") is not None
        items = [self.parse_select_item()]
        while self.accept_symbol(","):
            items.append(self.parse_select_item())
        source = None
        if self.accept_keyword("FROM"):
            source = self.parse_table_expr()
        where = None
        if self.accept_keyword("WHERE"):
            where = self.parse_expr()
        group_by: list[ast.Expr] = []
        if self.accept_keyword("GROUP"):
            self.expect_keyword("BY")
            group_by.append(self.parse_expr())
            while self.accept_symbol(","):
                group_by.append(self.parse_expr())
        having = None
        if self.accept_keyword("HAVING"):
            having = self.parse_expr()
        order_by: list[ast.OrderItem] = []
        if self.accept_keyword("ORDER"):
            self.expect_keyword("BY")
            order_by.append(self.parse_order_item())
            while self.accept_symbol(","):
                order_by.append(self.parse_order_item())
        limit, offset = None, 0
        if self.accept_keyword("LIMIT"):
            limit = self.parse_int_literal("LIMIT")
            if self.accept_keyword("OFFSET"):
                offset = self.parse_int_literal("OFFSET")
        return ast.Select(tuple(items), source, where, tuple(group_by),
                          having, tuple(order_by), limit, offset, distinct)

    def parse_int_literal(self, what: str) -> int:
        token = self.peek()
        if token.kind != "NUMBER" or "." in token.value:
            raise self.error(f"expected integer after {what}")
        self.advance()
        return int(token.value)

    def parse_select_item(self) -> ast.SelectItem:
        if self.peek().is_symbol("*"):
            self.advance()
            return ast.SelectItem(ast.Star())
        if (self.peek().kind == "IDENT" and self.peek(1).is_symbol(".")
                and self.peek(2).is_symbol("*")):
            table = self.advance().value
            self.advance()
            self.advance()
            return ast.SelectItem(ast.Star(table))
        expr = self.parse_expr()
        alias = None
        if self.accept_keyword("AS"):
            alias = self.expect_ident("alias")
        elif self.peek().kind == "IDENT":
            alias = self.advance().value
        return ast.SelectItem(expr, alias)

    def parse_order_item(self) -> ast.OrderItem:
        expr = self.parse_expr()
        descending = False
        if self.accept_keyword("DESC"):
            descending = True
        else:
            self.accept_keyword("ASC")
        return ast.OrderItem(expr, descending)

    # -- FROM clause ---------------------------------------------------------

    def parse_table_expr(self) -> ast.TableExpr:
        left = self.parse_table_primary()
        while True:
            if self.accept_symbol(","):
                right = self.parse_table_primary()
                left = ast.Join("cross", left, right)
            elif self.peek().is_keyword("CROSS"):
                self.advance()
                self.expect_keyword("JOIN")
                right = self.parse_table_primary()
                left = ast.Join("cross", left, right)
            elif self.peek().is_keyword("JOIN", "INNER", "LEFT"):
                kind = "inner"
                if self.accept_keyword("LEFT"):
                    self.accept_keyword("OUTER")
                    kind = "left"
                else:
                    self.accept_keyword("INNER")
                self.expect_keyword("JOIN")
                right = self.parse_table_primary()
                self.expect_keyword("ON")
                condition = self.parse_expr()
                left = ast.Join(kind, left, right, condition)
            else:
                return left

    def parse_table_primary(self) -> ast.TableExpr:
        token = self.peek()
        if token.is_symbol("("):
            self.advance()
            if self.peek().is_keyword("SELECT"):
                query = self.parse_select()
                self.expect_symbol(")")
                alias = self.parse_optional_alias(required=True)
                return ast.SubqueryRef(query, alias)
            inner = self.parse_table_expr()
            self.expect_symbol(")")
            alias = self.parse_optional_alias()
            if alias and isinstance(inner, ast.TableRef):
                return ast.TableRef(inner.name, alias)
            return inner
        if token.kind == "IDENT" and token.value.lower() in _RMA_OPS \
                and self.peek(1).is_symbol("("):
            return self.parse_rma_call()
        if token.kind == "IDENT":
            name = self.advance().value
            alias = self.parse_optional_alias()
            return ast.TableRef(name, alias)
        raise self.error("expected a table name, subquery or RMA call")

    def parse_optional_alias(self, required: bool = False) -> str | None:
        if self.accept_keyword("AS"):
            return self.expect_ident("alias")
        if self.peek().kind == "IDENT":
            # Bare alias, but not if it starts the next clause of an RMA
            # argument list (`... BY a`, handled elsewhere).
            return self.advance().value
        if required:
            raise self.error("subquery requires an alias")
        return None

    def parse_rma_call(self) -> ast.RmaCall:
        op = self.advance().value.lower()
        self.expect_symbol("(")
        args = [self.parse_rma_arg()]
        while self.accept_symbol(","):
            args.append(self.parse_rma_arg())
        self.expect_symbol(")")
        alias = None
        if self.accept_keyword("AS"):
            alias = self.expect_ident("alias")
        elif self.peek().kind == "IDENT":
            alias = self.advance().value
        return ast.RmaCall(op, tuple(args), alias)

    def parse_rma_arg(self) -> ast.RmaArg:
        table = self.parse_rma_arg_table()
        self.expect_keyword("BY")
        by = self.parse_by_list()
        return ast.RmaArg(table, tuple(by))

    def parse_rma_arg_table(self) -> ast.TableExpr:
        """A table primary *without* alias consumption (BY follows)."""
        token = self.peek()
        if token.is_symbol("("):
            self.advance()
            if self.peek().is_keyword("SELECT"):
                query = self.parse_select()
                self.expect_symbol(")")
                return ast.SubqueryRef(query, "_rma_subquery")
            inner = self.parse_table_expr()
            self.expect_symbol(")")
            return inner
        if token.kind == "IDENT" and token.value.lower() in _RMA_OPS \
                and self.peek(1).is_symbol("("):
            return self.parse_rma_call_nested()
        if token.kind == "IDENT":
            return ast.TableRef(self.advance().value)
        raise self.error("expected a table in RMA argument")

    def parse_rma_call_nested(self) -> ast.RmaCall:
        op = self.advance().value.lower()
        self.expect_symbol("(")
        args = [self.parse_rma_arg()]
        while self.accept_symbol(","):
            args.append(self.parse_rma_arg())
        self.expect_symbol(")")
        return ast.RmaCall(op, tuple(args))

    def parse_by_list(self) -> list[str]:
        """Order-schema attribute list after BY.

        Either parenthesized — ``BY (a, b)`` — or bare.  A bare list stops
        before ``, <table> BY``: a comma followed by something that starts
        the next RMA argument.
        """
        if self.accept_symbol("("):
            names = [self.expect_ident("order attribute")]
            while self.accept_symbol(","):
                names.append(self.expect_ident("order attribute"))
            self.expect_symbol(")")
            return names
        names = [self.expect_ident("order attribute")]
        while self.peek().is_symbol(","):
            # Lookahead: `, IDENT BY` or `, ( ...` starts the next argument.
            next_token = self.peek(1)
            after = self.peek(2)
            if next_token.is_symbol("("):
                break
            if next_token.kind == "IDENT" and (
                    after.is_keyword("BY") or after.is_symbol("(")):
                break
            if next_token.kind != "IDENT":
                break
            self.advance()  # consume ','
            names.append(self.expect_ident("order attribute"))
        return names

    # -- expressions ------------------------------------------------------------

    def parse_expr(self) -> ast.Expr:
        return self.parse_or()

    def parse_or(self) -> ast.Expr:
        left = self.parse_and()
        while self.accept_keyword("OR"):
            left = ast.BinaryOp("OR", left, self.parse_and())
        return left

    def parse_and(self) -> ast.Expr:
        left = self.parse_not()
        while self.accept_keyword("AND"):
            left = ast.BinaryOp("AND", left, self.parse_not())
        return left

    def parse_not(self) -> ast.Expr:
        if self.accept_keyword("NOT"):
            return ast.UnaryOp("NOT", self.parse_not())
        return self.parse_predicate()

    def parse_predicate(self) -> ast.Expr:
        left = self.parse_additive()
        token = self.peek()
        if token.is_symbol("=", "<>", "!=", "<", "<=", ">", ">="):
            op = self.advance().value
            return ast.BinaryOp(op, left, self.parse_additive())
        if token.is_keyword("IS"):
            self.advance()
            negated = self.accept_keyword("NOT") is not None
            self.expect_keyword("NULL")
            return ast.IsNull(left, negated)
        negated = False
        if token.is_keyword("NOT"):
            nxt = self.peek(1)
            if nxt.is_keyword("BETWEEN", "IN", "LIKE"):
                self.advance()
                negated = True
                token = self.peek()
        if token.is_keyword("BETWEEN"):
            self.advance()
            low = self.parse_additive()
            self.expect_keyword("AND")
            high = self.parse_additive()
            return ast.Between(left, low, high, negated)
        if token.is_keyword("IN"):
            self.advance()
            self.expect_symbol("(")
            items = [self.parse_additive()]
            while self.accept_symbol(","):
                items.append(self.parse_additive())
            self.expect_symbol(")")
            return ast.InList(left, tuple(items), negated)
        if token.is_keyword("LIKE"):
            self.advance()
            pattern = self.parse_additive()
            return ast.BinaryOp("LIKE" if not negated else "NOT LIKE",
                                left, pattern)
        return left

    def parse_additive(self) -> ast.Expr:
        left = self.parse_multiplicative()
        while True:
            token = self.peek()
            if token.is_symbol("+", "-", "||"):
                op = self.advance().value
                left = ast.BinaryOp(op, left, self.parse_multiplicative())
            else:
                return left

    def parse_multiplicative(self) -> ast.Expr:
        left = self.parse_unary()
        while True:
            token = self.peek()
            if token.is_symbol("*", "/", "%"):
                op = self.advance().value
                left = ast.BinaryOp(op, left, self.parse_unary())
            else:
                return left

    def parse_unary(self) -> ast.Expr:
        if self.accept_symbol("-"):
            return ast.UnaryOp("-", self.parse_unary())
        if self.accept_symbol("+"):
            return self.parse_unary()
        return self.parse_primary()

    def parse_primary(self) -> ast.Expr:
        token = self.peek()
        if token.kind == "NUMBER":
            return self.literal(_number(self.advance().value))
        if token.kind == "STRING":
            return self.literal(self.advance().value)
        if token.is_keyword("NULL"):
            self.advance()
            return ast.Literal(None)
        if token.is_keyword("TRUE", "FALSE"):
            self.advance()
            return ast.Literal(token.value == "TRUE")
        if token.is_keyword("DATE", "TIME"):
            self.advance()
            value = self.peek()
            if value.kind != "STRING":
                raise self.error(f"expected string after {token.value}")
            self.advance()
            return self.literal(_TEMPORAL[token.value](value.value))
        if token.is_keyword("CASE"):
            return self.parse_case()
        if token.is_symbol("("):
            self.advance()
            expr = self.parse_expr()
            self.expect_symbol(")")
            return expr
        if token.kind == "IDENT":
            if self.peek(1).is_symbol("("):
                return self.parse_function_call()
            name = self.advance().value
            if self.accept_symbol("."):
                column = self.expect_ident("column name")
                return ast.ColumnRef(column, name)
            return ast.ColumnRef(name)
        raise self.error("expected an expression")

    def literal(self, value: Any) -> ast.Expr:
        """The literal token just consumed: its template slot, if any."""
        slot = self.slots.get(self.pos - 1)
        return ast.Literal(value) if slot is None else ast.Param(slot)

    def parse_case(self) -> ast.Expr:
        self.expect_keyword("CASE")
        branches = []
        while self.accept_keyword("WHEN"):
            condition = self.parse_expr()
            self.expect_keyword("THEN")
            value = self.parse_expr()
            branches.append((condition, value))
        if not branches:
            raise self.error("CASE requires at least one WHEN branch")
        otherwise = None
        if self.accept_keyword("ELSE"):
            otherwise = self.parse_expr()
        self.expect_keyword("END")
        return ast.CaseWhen(tuple(branches), otherwise)

    def parse_function_call(self) -> ast.Expr:
        name = self.advance().value.upper()
        self.expect_symbol("(")
        distinct = False
        args: list[ast.Expr] = []
        if self.accept_symbol("*"):
            args.append(ast.Star())
        elif not self.peek().is_symbol(")"):
            if name in _AGGREGATES and self.accept_keyword("DISTINCT"):
                distinct = True
            args.append(self.parse_expr())
            while self.accept_symbol(","):
                args.append(self.parse_expr())
        self.expect_symbol(")")
        return ast.FunctionCall(name, tuple(args), distinct)

    # -- DDL / DML -----------------------------------------------------------

    def parse_create(self) -> ast.CreateTable:
        self.expect_keyword("CREATE")
        self.expect_keyword("TABLE")
        name = self.expect_ident("table name")
        if self.accept_keyword("AS"):
            query = self.parse_select()
            return ast.CreateTable(name, source=query)
        self.expect_symbol("(")
        columns = [self.parse_column_def()]
        while self.accept_symbol(","):
            columns.append(self.parse_column_def())
        self.expect_symbol(")")
        return ast.CreateTable(name, tuple(columns))

    def parse_column_def(self) -> ast.ColumnDef:
        name = self.expect_ident("column name")
        token = self.peek()
        if token.kind == "IDENT" or token.is_keyword("DATE", "TIME"):
            type_name = self.advance().value.upper()
        else:
            raise self.error("expected a column type")
        # Swallow optional length, e.g. VARCHAR(32).
        if self.accept_symbol("("):
            self.parse_int_literal("type length")
            self.expect_symbol(")")
        return ast.ColumnDef(name, type_name)

    def parse_drop(self) -> ast.DropTable:
        self.expect_keyword("DROP")
        self.expect_keyword("TABLE")
        if_exists = False
        if self.accept_keyword("IF"):
            self.expect_keyword("EXISTS")
            if_exists = True
        name = self.expect_ident("table name")
        return ast.DropTable(name, if_exists)

    def parse_insert(self) -> ast.InsertValues:
        self.expect_keyword("INSERT")
        self.expect_keyword("INTO")
        table = self.expect_ident("table name")
        columns: list[str] = []
        if self.accept_symbol("("):
            columns.append(self.expect_ident("column name"))
            while self.accept_symbol(","):
                columns.append(self.expect_ident("column name"))
            self.expect_symbol(")")
        self.expect_keyword("VALUES")
        rows = [self.parse_value_row()]
        while self.accept_symbol(","):
            rows.append(self.parse_value_row())
        return ast.InsertValues(table, tuple(rows), tuple(columns))

    def parse_value_row(self) -> tuple[ast.Expr, ...]:
        self.expect_symbol("(")
        values = [self.parse_expr()]
        while self.accept_symbol(","):
            values.append(self.parse_expr())
        self.expect_symbol(")")
        return tuple(values)


_TEMPORAL = {"DATE": _dt.date.fromisoformat,
             "TIME": _dt.time.fromisoformat}


_KEPT_COUNTS = ("LIMIT", "OFFSET")
"""Keywords whose count shapes the plan: it stays in a statement's shape."""


def _number(text: str) -> int | float:
    if "." in text or "e" in text or "E" in text:
        return float(text)
    return int(text)


def literal_slots(tokens: Sequence[Token]) \
        -> tuple[tuple, tuple, dict[int, int]]:
    """(shape, values, slots) of a token stream.

    Every number, string and ``DATE``/``TIME`` string is a literal,
    except the counts after ``LIMIT`` and ``OFFSET``: those shape the plan
    and stay in the shape.  Equal literals (same type and value, as
    :class:`~repro.sql.ast.Literal` compares them) share one slot, and
    ``values[slot]`` is the literal's value.  The shape is the token
    stream with each literal replaced by its slot and type, so statements
    of one shape parse into the same template; ``slots`` maps literal
    token indexes to slots.  A malformed ``DATE``/``TIME`` string raises
    the ``ValueError`` parsing it would.
    """
    shape: list[tuple] = []
    values: list[Any] = []
    slots: dict[int, int] = {}
    seen: dict[tuple, int] = {}
    previous = ("", "")
    for index, token in enumerate(tokens):
        kind, text = token.kind, token.value
        if kind == "NUMBER" and not (previous[0] == "KEYWORD"
                                     and previous[1] in _KEPT_COUNTS):
            value = _number(text)
        elif kind == "STRING":
            convert = _TEMPORAL.get(previous[1]) \
                if previous[0] == "KEYWORD" else None
            value = text if convert is None else convert(text)
        else:
            previous = (kind, text)
            shape.append(previous)
            continue
        previous = (kind, text)
        key = (type(value), value.hex() if isinstance(value, float)
               else value)
        slot = seen.setdefault(key, len(values))
        if slot == len(values):
            values.append(value)
        slots[index] = slot
        shape.append(("$", slot, type(value).__name__))
    return tuple(shape), tuple(values), slots


def literal_key(text: str) -> tuple[tuple, tuple] | None:
    """(key, values) of a statement, found without tokenizing it; or
    ``None`` when the text holds a malformed literal or a character no
    token starts with (the full path then raises its error).

    One :data:`~repro.sql.lexer.LITERAL_RUNS` pass splits the text into
    runs of non-literal tokens and the literals between them.  The
    literals, their values, types and shared slots, and the counts kept
    after ``LIMIT``/``OFFSET`` are those of :func:`literal_slots`.  The
    key is the runs' text with each literal replaced by its slot and
    type, so texts with one key have one token stream up to the
    literals' values, and one template.  Texts that differ in spacing,
    comments or keyword case get different keys of one template.
    """
    parts: list = []
    values: list[Any] = []
    seen: dict[tuple, int] = {}
    try:
        for run, last, number, string, bad in LITERAL_RUNS.findall(text):
            parts.append(run)
            if number:
                if last.upper() in _KEPT_COUNTS:
                    parts.append(number)
                    continue
                value = _number(number)
            elif string:
                value = string[1:-1].replace("''", "'")
                convert = _TEMPORAL.get(last.upper())
                if convert is not None:
                    value = convert(value)
            elif bad:
                return None
            else:
                continue
            key = (type(value), value.hex() if isinstance(value, float)
                   else value)
            slot = seen.setdefault(key, len(values))
            if slot == len(values):
                values.append(value)
            parts.append((slot, type(value)))
    except ValueError:
        return None
    return tuple(parts), tuple(values)


def parse_sql(text: str, template: bool = False) -> ast.Statement:
    """Parse one SQL statement.

    With ``template=True`` its literals (see :func:`literal_slots`) parse
    as :class:`~repro.sql.ast.Param` slots.
    """
    tokens = tokenize(text)
    slots = literal_slots(tokens)[2] if template else None
    return Parser(tokens, slots).parse_statement()
