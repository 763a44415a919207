"""Shared logical plan IR — nodes and expression analysis.

Every front end (the SQL parser in :mod:`repro.sql` and the ``Matrix``
expression handle in :mod:`repro.api.matrix`) compiles into the node types
below; the optimizer (:mod:`repro.plan.optimizer`), the physical planner and
executor (:mod:`repro.plan.physical`) and the plan printer
(:mod:`repro.plan.explain`) all operate on this one representation.

Expressions inside plan nodes (filter predicates, projection items, join
conditions) use the expression AST of :mod:`repro.sql.ast` — it is the shared
expression language, not a SQL-only artifact; ``repro.sql.ast`` is a leaf
module with no parser or session dependencies.

Nodes are frozen dataclasses, so plan subtrees are hashable and comparable by
value.  The physical layer exploits that for common-subexpression
elimination: two structurally identical RMA subplans are *equal*, and the
executor memoizes their results by node.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import TYPE_CHECKING, Iterator, Optional

from repro.errors import PlanError
from repro.linalg.kernels import KernelStep
from repro.sql import ast

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.relational.relation import Relation

AGGREGATE_FUNCTIONS = {"AVG": "avg", "SUM": "sum", "COUNT": "count",
                       "MIN": "min", "MAX": "max", "VAR": "var",
                       "STDDEV": "std"}


class Plan:
    """Base class of logical plan nodes."""

    def children(self) -> tuple["Plan", ...]:
        return ()

    def __hash__(self) -> int:
        # Plans are DAGs in practice (Matrix expressions reuse subplan
        # objects on both sides of binary operations), so the generated
        # dataclass hash — which re-hashes every child on every call —
        # would be exponential in nesting depth.  Caching the hash per
        # (immutable) node makes hashing linear in *distinct* nodes; dict
        # probes then short-circuit on object identity before any deep
        # __eq__.
        cached = getattr(self, "_plan_hash", None)
        if cached is None:
            cached = hash((type(self),) + tuple(
                getattr(self, f.name) for f in dataclasses.fields(self)))
            object.__setattr__(self, "_plan_hash", cached)
        return cached


def plan_node(cls):
    """Frozen dataclass whose structural __eq__ pairs with the cached
    DAG-safe __hash__ of :class:`Plan` (the generated hash would shadow
    it)."""
    cls = dataclass(frozen=True)(cls)
    cls.__hash__ = Plan.__hash__
    return cls


@plan_node
class Scan(Plan):
    """Scan of a named catalog table."""

    table: str
    alias: str


@plan_node
class RelScan(Plan):
    """Scan of an in-memory relation (``db.matrix(relation, ...)``'s leaf).

    The relation is compared by identity (``Relation`` does not define value
    equality), so two scans of the same relation object are equal nodes and
    therefore CSE candidates, while scans of distinct objects are not.
    """

    relation: "Relation"
    alias: str


@plan_node
class SubqueryScan(Plan):
    plan: Plan
    alias: str

    def children(self):
        return (self.plan,)


@plan_node
class Rma(Plan):
    """A relational matrix operation node: op over one or two inputs.

    ``scalar`` carries the constant of the scalar variants
    (``sadd``/``ssub``/``smul``); it is ``None`` for Table 2 operations.
    """

    op: str
    inputs: tuple[Plan, ...]
    by: tuple[tuple[str, ...], ...]
    alias: Optional[str]
    scalar: Optional[float] = None

    def children(self):
        return self.inputs


@plan_node
class FusedRma(Plan):
    """A fused chain of relative-class element-wise RMA operations.

    Produced by the optimizer's fusion rule from nested ``Rma`` nodes whose
    order schemas are compatible (each parent orders its input by exactly
    the order part the child produces).  ``steps`` is the kernel program:
    slot ``i < len(inputs)`` is leaf ``i`` split by ``bys[i]``; slot
    ``len(inputs) + j`` is the result of step ``j``.  The executor runs the
    whole chain as one prepare/align/kernel/merge pass
    (:func:`repro.core.ops.execute_fused`), falling back to step-by-step
    execution when the fused preconditions fail at run time.
    """

    steps: tuple[KernelStep, ...]
    inputs: tuple[Plan, ...]
    bys: tuple[tuple[str, ...], ...]
    alias: Optional[str]

    def children(self):
        return self.inputs

    @property
    def member_ops(self) -> tuple[str, ...]:
        return tuple(step.op for step in self.steps)


@plan_node
class Filter(Plan):
    child: Plan
    predicate: ast.Expr

    def children(self):
        return (self.child,)


@plan_node
class JoinPlan(Plan):
    kind: str  # "inner", "left", "cross"
    left: Plan
    right: Plan
    condition: Optional[ast.Expr] = None

    def children(self):
        return (self.left, self.right)


@plan_node
class Project(Plan):
    """Evaluate expressions into named output columns."""

    child: Plan
    items: tuple[ast.SelectItem, ...]

    def children(self):
        return (self.child,)


@dataclass(frozen=True)
class AggregateSpecNode:
    func: str          # relational aggregate name ("sum", "avg", ...)
    argument: ast.Expr | None  # None for count(*)
    distinct: bool
    out_name: str


@plan_node
class Aggregate(Plan):
    child: Plan
    keys: tuple[ast.Expr, ...]
    key_names: tuple[str, ...]
    aggregates: tuple[AggregateSpecNode, ...]

    def children(self):
        return (self.child,)


@plan_node
class Distinct(Plan):
    child: Plan

    def children(self):
        return (self.child,)


@plan_node
class Sort(Plan):
    child: Plan
    items: tuple[ast.OrderItem, ...]

    def children(self):
        return (self.child,)


@plan_node
class Limit(Plan):
    child: Plan
    count: int
    offset: int = 0

    def children(self):
        return (self.child,)


@plan_node
class Prune(Plan):
    """Advisory projection: keep only the named columns (added by the
    optimizer below joins; unqualified names)."""

    child: Plan
    names: tuple[str, ...]

    def children(self):
        return (self.child,)


def walk_plan(plan: Plan) -> Iterator[Plan]:
    """Yield the node and all plan nodes below it (pre-order)."""
    yield plan
    for child in plan.children():
        yield from walk_plan(child)


def unfuse(plan: FusedRma) -> Plan:
    """Rebuild the nested ``Rma`` chain a ``FusedRma`` node was fused from.

    Interior aliases are not reconstructed (they are semantically inert —
    an ``Rma`` parent consumes its child through the plain relation), so
    the rebuilt chain is value-identical, not necessarily node-identical,
    to the pre-fusion plan.
    """
    slots: list[tuple[Plan, tuple[str, ...]]] = list(
        zip(plan.inputs, plan.bys))
    for step in plan.steps:
        left, left_by = slots[step.left]
        if step.right is None:
            node: Plan = Rma(step.op, (left,), (left_by,), None,
                             step.scalar)
            slots.append((node, left_by))
        else:
            right, right_by = slots[step.right]
            node = Rma(step.op, (left, right), (left_by, right_by), None)
            slots.append((node, left_by + right_by))
    root, _ = slots[-1]
    assert isinstance(root, Rma)
    return Rma(root.op, root.inputs, root.by, plan.alias, root.scalar)


# -- expression analysis -------------------------------------------------------

def walk_expr(expr: ast.Expr) -> Iterator[ast.Expr]:
    """Yield the expression and all sub-expressions."""
    yield expr
    if isinstance(expr, ast.BinaryOp):
        yield from walk_expr(expr.left)
        yield from walk_expr(expr.right)
    elif isinstance(expr, ast.UnaryOp):
        yield from walk_expr(expr.operand)
    elif isinstance(expr, ast.FunctionCall):
        for arg in expr.args:
            yield from walk_expr(arg)
    elif isinstance(expr, ast.IsNull):
        yield from walk_expr(expr.operand)
    elif isinstance(expr, ast.Between):
        yield from walk_expr(expr.operand)
        yield from walk_expr(expr.low)
        yield from walk_expr(expr.high)
    elif isinstance(expr, ast.InList):
        yield from walk_expr(expr.operand)
        for item in expr.items:
            yield from walk_expr(item)
    elif isinstance(expr, ast.CaseWhen):
        for cond, value in expr.branches:
            yield from walk_expr(cond)
            yield from walk_expr(value)
        if expr.otherwise is not None:
            yield from walk_expr(expr.otherwise)


def column_refs(expr: ast.Expr) -> list[ast.ColumnRef]:
    return [e for e in walk_expr(expr) if isinstance(e, ast.ColumnRef)]


def contains_aggregate(expr: ast.Expr) -> bool:
    return any(isinstance(e, ast.FunctionCall)
               and e.name in AGGREGATE_FUNCTIONS
               for e in walk_expr(expr))


def aggregate_calls(expr: ast.Expr) -> list[ast.FunctionCall]:
    return [e for e in walk_expr(expr)
            if isinstance(e, ast.FunctionCall)
            and e.name in AGGREGATE_FUNCTIONS]


def split_conjuncts(expr: ast.Expr) -> list[ast.Expr]:
    """Break a predicate into AND-connected conjuncts."""
    if isinstance(expr, ast.BinaryOp) and expr.op == "AND":
        return split_conjuncts(expr.left) + split_conjuncts(expr.right)
    return [expr]


def conjoin(conjuncts: list[ast.Expr]) -> Optional[ast.Expr]:
    if not conjuncts:
        return None
    expr = conjuncts[0]
    for part in conjuncts[1:]:
        expr = ast.BinaryOp("AND", expr, part)
    return expr


def replace_expr(expr: ast.Expr, mapping: dict[ast.Expr, ast.Expr]) \
        -> ast.Expr:
    """Structurally replace sub-expressions (used to rewrite aggregates)."""
    if expr in mapping:
        return mapping[expr]
    if isinstance(expr, ast.BinaryOp):
        return ast.BinaryOp(expr.op, replace_expr(expr.left, mapping),
                            replace_expr(expr.right, mapping))
    if isinstance(expr, ast.UnaryOp):
        return ast.UnaryOp(expr.op, replace_expr(expr.operand, mapping))
    if isinstance(expr, ast.FunctionCall):
        return ast.FunctionCall(
            expr.name,
            tuple(replace_expr(a, mapping) for a in expr.args),
            expr.distinct)
    if isinstance(expr, ast.IsNull):
        return ast.IsNull(replace_expr(expr.operand, mapping), expr.negated)
    if isinstance(expr, ast.Between):
        return ast.Between(replace_expr(expr.operand, mapping),
                           replace_expr(expr.low, mapping),
                           replace_expr(expr.high, mapping), expr.negated)
    if isinstance(expr, ast.InList):
        return ast.InList(replace_expr(expr.operand, mapping),
                          tuple(replace_expr(i, mapping)
                                for i in expr.items), expr.negated)
    if isinstance(expr, ast.CaseWhen):
        return ast.CaseWhen(
            tuple((replace_expr(c, mapping), replace_expr(v, mapping))
                  for c, v in expr.branches),
            replace_expr(expr.otherwise, mapping)
            if expr.otherwise is not None else None)
    return expr


def default_output_name(expr: ast.Expr, index: int) -> str:
    if isinstance(expr, ast.ColumnRef):
        return expr.name
    if isinstance(expr, ast.FunctionCall):
        return expr.name.lower()
    return f"col{index}"


def with_children(plan: Plan, children: tuple[Plan, ...]) -> Plan:
    """Clone a plan node with new children."""
    if isinstance(plan, SubqueryScan):
        return SubqueryScan(children[0], plan.alias)
    if isinstance(plan, Rma):
        return Rma(plan.op, children, plan.by, plan.alias, plan.scalar)
    if isinstance(plan, FusedRma):
        return FusedRma(plan.steps, children, plan.bys, plan.alias)
    if isinstance(plan, Filter):
        return Filter(children[0], plan.predicate)
    if isinstance(plan, JoinPlan):
        return JoinPlan(plan.kind, children[0], children[1], plan.condition)
    if isinstance(plan, Project):
        return Project(children[0], plan.items)
    if isinstance(plan, Aggregate):
        return Aggregate(children[0], plan.keys, plan.key_names,
                         plan.aggregates)
    if isinstance(plan, Distinct):
        return Distinct(children[0])
    if isinstance(plan, Sort):
        return Sort(children[0], plan.items)
    if isinstance(plan, Limit):
        return Limit(children[0], plan.count, plan.offset)
    if isinstance(plan, Prune):
        return Prune(children[0], plan.names)
    if children:
        raise PlanError(f"cannot rebuild plan node {type(plan).__name__}")
    return plan
