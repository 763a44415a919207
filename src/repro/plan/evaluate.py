"""Vectorized evaluation of SQL expressions over a frame.

:class:`ExpressionEvaluator` evaluates an AST expression over the rows of
a :class:`~repro.plan.frame.Frame`, returning a BAT or a python scalar.
Each top-level evaluation computes a repeated subexpression once (CSE
slots, :func:`_repeated_subtrees`), and an expression over a star join's
small dimensions runs once per distinct combination of their rows
(:meth:`~repro.plan.frame.Frame.domain`) and is gathered to the rows
once.

An expression compiles into one closure per node (:func:`compile_expr`);
the physical planner records each plan expression's :class:`ExprInfo`,
its compiled form included, once per template (:func:`expr_info`), so
evaluating it dispatches on no node type.  A column reference reads its
frame's layout, which a warm template run resolved before
(:class:`~repro.plan.frame.Layout`).
"""

from __future__ import annotations

import functools
import re
from typing import Any, Callable, NamedTuple, Sequence

import numpy as np

from repro.bat.bat import BAT, DataType, infer_type
from repro.bat import kernels
from repro.errors import BindError, PlanError
from repro.plan import nodes
from repro.plan.frame import Frame
from repro.sql import ast
from repro.sql.functions import SCALAR_FUNCTIONS

_MAX_LIKE_PATTERNS = 256
"""Compiled LIKE patterns kept per process (least recently used go)."""


@functools.lru_cache(maxsize=_MAX_LIKE_PATTERNS)
def _like_pattern(pattern: str) -> re.Pattern:
    regex = re.escape(pattern).replace("%", ".*").replace("_", ".")
    return re.compile(f"^{regex}$", re.IGNORECASE | re.DOTALL)


def _as_mask(value: Any, n: int) -> np.ndarray:
    if isinstance(value, BAT):
        if value.dtype is not DataType.BOOL:
            raise PlanError("predicate did not evaluate to a boolean")
        return value.tail.astype(bool, copy=False)  # read-only: no copy
    if isinstance(value, (bool, np.bool_)):
        return np.full(n, bool(value))
    raise PlanError(f"predicate evaluated to {type(value).__name__}")


def _broadcast(value: Any, n: int) -> BAT:
    if isinstance(value, BAT):
        return value
    return BAT.constant(value, n)


def _compare(op: str, left: Any, right: Any) -> Any:
    """A comparison: a BOOL BAT, or a python bool for two scalars."""
    if isinstance(left, BAT):
        mask = kernels.compare(op, left, right)
    elif isinstance(right, BAT):
        flipped = {"<": ">", "<=": ">=", ">": "<", ">=": "<="}.get(op, op)
        mask = kernels.compare(flipped, right, left)
    else:
        func = {"=": lambda a, b: a == b, "<>": lambda a, b: a != b,
                "!=": lambda a, b: a != b, "<": lambda a, b: a < b,
                "<=": lambda a, b: a <= b, ">": lambda a, b: a > b,
                ">=": lambda a, b: a >= b}[op]
        return func(left, right)
    return BAT(DataType.BOOL, mask)


def _repeated_subtrees(expr: ast.Expr) -> dict[int, int]:
    """``id(node) -> slot`` for the non-leaf subtrees of ``expr`` that
    evaluation would otherwise compute more than once.

    Every occurrence of a structurally repeated subtree maps to the same
    slot.  The walk does not descend into a repeated subtree after its
    first occurrence, so a subtree that repeats only inside a repeated
    parent gets no slot: memoizing the parent already computes it once.
    """
    occurrences: dict[ast.Expr, list[int]] = {}
    stack = [expr]
    while stack:
        node = stack.pop()
        if isinstance(node, (ast.Literal, ast.Param, ast.ColumnRef)):
            continue
        ids = occurrences.setdefault(node, [])
        ids.append(id(node))
        if len(ids) == 1:
            stack.extend(nodes.expr_children(node))
    slots: dict[int, int] = {}
    for slot, ids in enumerate(ids for ids in occurrences.values()
                               if len(ids) > 1):
        slots.update(dict.fromkeys(ids, slot))
    return slots


class ExprInfo(NamedTuple):
    """What evaluating one expression needs to know about its shape."""

    expr: ast.Expr
    run: Callable[["ExpressionEvaluator"], Any]  # compile_expr(expr)
    refs: tuple[ast.ColumnRef, ...]  # the distinct column references
    # Reads a column, is not a bare one, and holds no aggregate: may be
    # evaluated over the domain of the sources it reads.
    per_domain: bool


def expr_info(expr: ast.Expr) -> ExprInfo:
    refs = tuple(dict.fromkeys(nodes.column_refs(expr)))
    per_domain = (bool(refs) and not isinstance(expr, ast.ColumnRef)
                  and not nodes.contains_aggregate(expr))
    return ExprInfo(expr, compile_expr(expr), refs, per_domain)


# -- compilation -------------------------------------------------------------
#
# An expression compiles once (per template, through the planner's
# ExprInfo) into one closure per node; evaluating it calls them, with no
# dispatch on node types.  Compiling never raises: a node that cannot be
# evaluated compiles to a closure that raises what evaluating it would.

Run = Callable[["ExpressionEvaluator"], Any]


def compile_expr(expr: ast.Expr) -> Run:
    """``expr`` as a closure over an :class:`ExpressionEvaluator`.  A
    subexpression that repeats in it (:func:`_repeated_subtrees`) is
    computed once per evaluation, in the evaluator's memo."""
    return _build(expr, _repeated_subtrees(expr))


def _build(node: ast.Expr, slots: dict[int, int]) -> Run:
    # The compilers get a partial, not a closure over itself: a recursive
    # closure is a reference cycle.
    compiler = _COMPILERS.get(type(node))
    if compiler is None:
        run = _fails(PlanError, f"cannot evaluate expression {node!r}")
    else:
        run = compiler(node, functools.partial(_build, slots=slots))
    slot = slots.get(id(node))
    return run if slot is None else _memoized(run, slot)


def _fails(error: type, message: str) -> Run:
    # A new exception per call: a kept one would keep its traceback's
    # frames, and so a statement's arrays, alive with the template.
    def run(ev):
        raise error(message)
    return run


def _memoized(run: Run, slot: int) -> Run:
    def memoized(ev):
        memo = ev._memo
        if slot in memo:
            return memo[slot]
        value = memo[slot] = run(ev)
        return value
    return memoized


def _literal(node: ast.Literal, build) -> Run:
    value = node.value
    return lambda ev: value


def _param(node: ast.Param, build) -> Run:
    slot = node.slot
    return lambda ev: ev.params[slot]


def _column(node: ast.ColumnRef, build) -> Run:
    return lambda ev: ev.frame.column(node)


def _unary(node: ast.UnaryOp, build) -> Run:
    operand = build(node.operand)
    if node.op == "NOT":
        return lambda ev: BAT(DataType.BOOL, ~_as_mask(operand(ev), ev.n))
    if node.op == "-":
        def negate(ev):
            value = operand(ev)
            if isinstance(value, BAT):
                return kernels.neg(value)
            return -value
        return negate
    return operand


def _scalar_arith(op: str, left: Any, right: Any) -> Any:
    if op == "/":
        return left / right
    if op == "%":
        return left % right
    return {"+": left + right, "-": left - right, "*": left * right}[op]


def _binary(node: ast.BinaryOp, build) -> Run:
    op = node.op
    if op in ("LIKE", "NOT LIKE"):
        return _like(node, build)
    left, right = build(node.left), build(node.right)
    if op in ("AND", "OR"):
        conjunction = op == "AND"

        def logical(ev):
            lmask = _as_mask(left(ev), ev.n)
            rmask = _as_mask(right(ev), ev.n)
            return BAT(DataType.BOOL,
                       lmask & rmask if conjunction else lmask | rmask)
        return logical
    if op in ("+", "-", "*", "/", "%"):
        def arith(ev):
            lvalue, rvalue = left(ev), right(ev)
            if isinstance(lvalue, BAT):
                return kernels.binop(op, lvalue, rvalue)
            if isinstance(rvalue, BAT):
                return kernels.rbinop(op, lvalue, rvalue)
            return _scalar_arith(op, lvalue, rvalue)
        return arith
    if op == "||":
        return lambda ev: _concat(left(ev), right(ev), ev.n)
    return lambda ev: _compare(op, left(ev), right(ev))


def _concat(left: Any, right: Any, n: int) -> Any:
    if not isinstance(left, BAT) and not isinstance(right, BAT):
        return str(left) + str(right)
    left_bat = _broadcast(left, n).cast(DataType.STR)
    right_bat = _broadcast(right, n).cast(DataType.STR)
    values = np.array(
        [None if a is None or b is None else a + b
         for a, b in zip(left_bat.tail, right_bat.tail)], dtype=object)
    return BAT(DataType.STR, values)


def _like(node: ast.BinaryOp, build) -> Run:
    operand, pattern_of = build(node.left), build(node.right)
    negated = node.op == "NOT LIKE"

    def like(ev):
        value = operand(ev)
        pattern = pattern_of(ev)
        if isinstance(pattern, BAT):
            raise PlanError("LIKE pattern must be a constant")
        regex = _like_pattern(str(pattern))
        bat = _broadcast(value, ev.n).cast(DataType.STR)
        mask = np.array([v is not None and bool(regex.match(v))
                         for v in bat.tail], dtype=bool)
        if negated:
            mask = ~mask
        return BAT(DataType.BOOL, mask)
    return like


def _is_null(node: ast.IsNull, build) -> Run:
    operand, negated = build(node.operand), node.negated

    def is_null(ev):
        value = operand(ev)
        if isinstance(value, BAT):
            mask = value.is_nil()
        else:
            mask = np.full(ev.n, value is None)
        if negated:
            mask = ~mask
        return BAT(DataType.BOOL, mask)
    return is_null


def _between(node: ast.Between, build) -> Run:
    operand, low, high = (build(node.operand), build(node.low),
                          build(node.high))
    negated = node.negated

    def between(ev):
        value = operand(ev)
        above = _as_mask(_compare(">=", value, low(ev)), ev.n)
        below = _as_mask(_compare("<=", value, high(ev)), ev.n)
        mask = above & below
        if negated:
            mask = ~mask
        return BAT(DataType.BOOL, mask)
    return between


def _in_list(node: ast.InList, build) -> Run:
    operand = build(node.operand)
    items = [build(item) for item in node.items]
    negated = node.negated

    def in_list(ev):
        mask = np.zeros(ev.n, dtype=bool)
        target = operand(ev)
        for item in items:
            value = item(ev)
            if isinstance(target, BAT):
                mask |= kernels.compare("=", target, value)
            elif isinstance(value, BAT):
                mask |= kernels.compare("=", value, target)
            else:
                mask |= np.full(ev.n, target == value)
        if negated:
            mask = ~mask
        return BAT(DataType.BOOL, mask)
    return in_list


def _case_when(node: ast.CaseWhen, build) -> Run:
    branches = [(build(c), build(v)) for c, v in node.branches]
    otherwise_of = (build(node.otherwise) if node.otherwise is not None
                    else None)

    def case_when(ev):
        n = ev.n
        conditions = [_as_mask(c(ev), n) for c, _ in branches]
        values = [v(ev) for _, v in branches]
        otherwise = otherwise_of(ev) if otherwise_of is not None else None
        # Pick a result type from the first columnar/non-null value.
        prototype = next((v for v in values + [otherwise]
                          if isinstance(v, BAT)), None)
        if prototype is not None:
            dtype = prototype.dtype
        else:
            scalars = [v for v in values + [otherwise] if v is not None]
            dtype = infer_type(scalars)
        result = (_broadcast(otherwise, n) if otherwise is not None
                  else BAT.constant(None, n, dtype))
        # Apply branches from last to first so the first match wins.
        for mask, value in reversed(list(zip(conditions, values))):
            value_bat = (_broadcast(value, n) if value is not None
                         else BAT.constant(None, n, dtype))
            result = kernels.ifthenelse(mask, value_bat, result)
        return result
    return case_when


def _function(node: ast.FunctionCall, build) -> Run:
    name = node.name
    args = [build(a) for a in node.args]

    def call(ev):
        if name in nodes.AGGREGATE_FUNCTIONS:
            raise PlanError(
                f"aggregate {name} used outside of SELECT/HAVING "
                "with GROUP BY")
        func = SCALAR_FUNCTIONS.get(name)
        if func is None:
            raise BindError(f"unknown function {name}")
        return func(ev, [arg(ev) for arg in args])
    return call


def _star(node: ast.Star, build) -> Run:
    return _fails(PlanError,
                  "'*' is only valid in SELECT lists and COUNT(*)")


_COMPILERS: dict[type, Callable[[Any, Callable], Run]] = {
    ast.Literal: _literal, ast.Param: _param, ast.ColumnRef: _column,
    ast.UnaryOp: _unary, ast.BinaryOp: _binary, ast.IsNull: _is_null,
    ast.Between: _between, ast.InList: _in_list, ast.CaseWhen: _case_when,
    ast.FunctionCall: _function, ast.Star: _star,
}


class ExpressionEvaluator:
    """Vectorized evaluation of AST expressions over a frame.

    ``params`` binds the :class:`~repro.sql.ast.Param` slots of a
    statement template.  ``infos`` holds the planner's :class:`ExprInfo`
    of the plan's expressions (by ``id``), each compiled once per
    template (:func:`compile_expr`); other expressions are compiled when
    evaluated.  ``count`` is called with ``"domain_evaluations"`` for
    each domain evaluation.

    Each top-level :meth:`eval` computes a subexpression that occurs
    several times in it (``dx * dx``) once.  It evaluates an expression
    over the *domain* of the frame's rows when it can: when the columns
    it reads come from sources with position vectors whose base
    cardinalities multiply to at most an eighth of the rows
    (:meth:`Frame.domain`; a star join's dimension columns), the
    expression runs once per distinct combination of positions, and its
    result is gathered to the rows once.  Element-wise kernels give the
    same bits for an element whatever the array length, and every SQL
    function is deterministic (a volatile one would have to opt out), so
    both ways give the same result; the per-row path is the fallback.
    This is execution on dictionary codes (Abadi, Madden & Ferreira,
    SIGMOD 2006) over the late-materialized positions.
    """

    def __init__(self, frame: Frame, params: Sequence[Any] = (),
                 infos: dict[int, ExprInfo] | None = None,
                 count: Callable[[str], None] | None = None):
        self.frame = frame
        self.params = params
        self.n = frame.nrows
        self._infos = infos or {}
        self._count = count
        self._memo: dict[int, Any] = {}

    def eval(self, expr: ast.Expr) -> Any:
        """Returns a BAT (column result) or a python scalar."""
        info = self._infos.get(id(expr))
        if info is None or info.expr is not expr:
            info = expr_info(expr)
        # Two codes at least: the domain rule needs 16 rows.
        if info.per_domain and self.n >= 16:
            value = self._eval_over_domain(info)
            if value is not None:
                return value
        return self._eval_top(info)

    def _eval_top(self, info: ExprInfo) -> Any:
        try:
            return info.run(self)
        finally:
            self._memo = {}

    def _eval_over_domain(self, info: ExprInfo) -> Any:
        """The expression evaluated over the domain of its sources and
        gathered to the rows, or ``None`` when the domain is too large
        (or a reference does not resolve: the per-row path raises)."""
        internals = [self.frame.find(ref) for ref in info.refs]
        if None in internals:
            return None
        domain = self.frame.domain(internals)
        if domain is None:
            return None
        frame, rows = domain
        value = ExpressionEvaluator(frame, self.params)._eval_top(info)
        if self._count is not None:
            self._count("domain_evaluations")
        if isinstance(value, BAT):
            return value.fetch(rows)
        return value

    def mask(self, expr: ast.Expr) -> np.ndarray:
        return _as_mask(self.eval(expr), self.n)


def _true_positions(mask: np.ndarray) -> np.ndarray:
    return np.flatnonzero(mask).astype(np.int64, copy=False)
