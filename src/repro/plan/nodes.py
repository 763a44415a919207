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
    """Scan of the in-memory relation bound to relation slot ``slot``.

    A template's relation slots are bound per run, as its parameter slots
    are (the executor's ``relations``), so a plan holds no relation.
    ``names`` is the relation's schema, which the optimizer reads; it is
    part of the shape, so relations with another schema get another
    template.  :func:`bind_relations` gives every relation one slot, so
    two scans of one relation are equal nodes (CSE candidates), while
    scans of distinct relations are not.
    """

    slot: int
    names: tuple[str, ...]
    alias: str


@plan_node
class InMemory(Plan):
    """A ``Matrix`` expression's in-memory relation, before binding
    (``db.matrix(relation, ...)``'s leaf; ``name`` is its ``name=``).

    Compared by identity, as ``Relation`` defines no value equality.
    :func:`bind_relations` turns it into a :class:`RelScan`; no other
    layer reads it.
    """

    relation: "Relation"
    name: Optional[str]


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


# -- expression analysis -------------------------------------------------------

def expr_children(expr: ast.Expr) -> tuple[ast.Expr, ...]:
    """The direct sub-expressions, in evaluation order."""
    if isinstance(expr, ast.BinaryOp):
        return (expr.left, expr.right)
    if isinstance(expr, (ast.UnaryOp, ast.IsNull)):
        return (expr.operand,)
    if isinstance(expr, ast.FunctionCall):
        return tuple(expr.args)
    if isinstance(expr, ast.Between):
        return (expr.operand, expr.low, expr.high)
    if isinstance(expr, ast.InList):
        return (expr.operand, *expr.items)
    if isinstance(expr, ast.CaseWhen):
        children = tuple(e for branch in expr.branches for e in branch)
        if expr.otherwise is not None:
            children += (expr.otherwise,)
        return children
    return ()


def node_exprs(plan: Plan) -> tuple[ast.Expr, ...]:
    """The expressions a plan node evaluates (not its children's)."""
    if isinstance(plan, Filter):
        return (plan.predicate,)
    if isinstance(plan, JoinPlan):
        return () if plan.condition is None else (plan.condition,)
    if isinstance(plan, (Project, Sort)):
        return tuple(item.expr for item in plan.items)
    if isinstance(plan, Aggregate):
        return plan.keys + tuple(spec.argument for spec in plan.aggregates
                                 if spec.argument is not None)
    return ()


def bound_slots(plan: Plan) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """The sorted :class:`~repro.sql.ast.Param` slots and relation slots
    (:class:`RelScan`) a plan reads."""
    params: set[int] = set()
    relations: set[int] = set()
    seen: set[int] = set()
    stack = [plan]
    while stack:
        node = stack.pop()
        if id(node) in seen:
            continue
        seen.add(id(node))
        if isinstance(node, RelScan):
            relations.add(node.slot)
        for expr in node_exprs(node):
            params.update(e.slot for e in walk_expr(expr)
                          if isinstance(e, ast.Param))
        stack.extend(node.children())
    return tuple(sorted(params)), tuple(sorted(relations))


def bind_relations(plan: Plan) -> tuple[Plan, tuple["Relation", ...]]:
    """A ``Matrix`` plan's shape and the relations its slots bind.

    Every :class:`InMemory` leaf becomes a :class:`RelScan` whose slot
    indexes the returned relations.  Relations are deduplicated by
    identity, and slots are numbered in the order a depth-first walk
    meets them, so one expression shape over fresh relations gives equal
    shapes.  Without ``name=`` a scan's alias is ``_rel<slot>``.  Shared
    subtrees are rebuilt once.
    """
    relations: list["Relation"] = []
    shape = _bind(plan, relations, {}, {})
    return shape, tuple(relations)


def _bind(node: Plan, relations: list, slots: dict, rebuilt: dict) -> Plan:
    """:func:`bind_relations` of one node.  A module function, not a
    closure: a recursive closure is a reference cycle, which would keep
    the relations alive until the cycle collector runs."""
    done = rebuilt.get(id(node))
    if done is not None:
        return done
    if isinstance(node, InMemory):
        slot = slots.get(id(node.relation))
        if slot is None:
            slot = slots[id(node.relation)] = len(relations)
            relations.append(node.relation)
        out: Plan = RelScan(slot, tuple(node.relation.names),
                            node.name or f"_rel{slot}")
    else:
        children = node.children()
        new = tuple(_bind(child, relations, slots, rebuilt)
                    for child in children)
        out = node if all(a is b for a, b in zip(new, children)) \
            else with_children(node, new)
    rebuilt[id(node)] = out
    return out


def bind_params(expr: ast.Expr, params: "tuple | list") -> ast.Expr:
    """``expr`` with each parameter slot replaced by its bound value."""
    if not params:
        return expr
    return replace_expr(expr, {ast.Param(slot): ast.Literal(value)
                               for slot, value in enumerate(params)})


def walk_expr(expr: ast.Expr) -> Iterator[ast.Expr]:
    """Yield the expression and all sub-expressions."""
    yield expr
    for child in expr_children(expr):
        yield from walk_expr(child)


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
