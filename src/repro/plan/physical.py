"""Physical planning and execution of shared logical plans.

Two layers live here:

* :func:`plan_physical` — the physical planner.  It walks an (optimized)
  logical plan and derives *physical* information the executor exploits:

  - **order/key metadata**: which column prefix each node's output is
    sorted by, propagated through order-preserving operators (filters,
    limits, joins on their left side, projections of passthrough columns)
    and *established* by FULL-sort RMA nodes and ORDER BY;
  - **join strategy**: single-key equi-joins whose two inputs are
    already sorted by the join key are marked ``merge`` and binary-search
    the raw key tails
    (:func:`repro.relational.joins.merge_join_positions`), skipping key
    encoding; everything else takes the hash path, which encodes the keys
    of both sides into shared dense codes (direct addressing for small
    integer domains) and probes by counting
    (:func:`repro.relational.joins.join_positions`);
  - **shared subplans** (CSE): structurally identical RMA/subquery
    subtrees are counted; the executor memoizes their result relations so
    a repeated subplan executes once per statement.

* :class:`Executor` — evaluates logical plans against a catalog, one
  method per node type, producing :class:`Frame` objects (rows of base
  relations plus name-resolution bindings).
  :class:`repro.api.database.Database` runs every plan through it,
  whether compiled from SQL text or built by a ``Matrix`` expression.

Frames materialize late, the way MonetDB passes candidate lists and
positional joins between operators.  A frame holds, per source relation,
the base BATs and one position vector; Filter, Sort, LIMIT and joins
compose those vectors, and a column is gathered once, when something
first reads it.  A join whose side matches every row exactly once (the
FK→PK case) keeps that side's vectors and gathered columns unchanged.
Within one statement, Filters with the same predicate over the same scan
share one candidate list, and each expression computes a repeated
subexpression once.

Because relations are immutable, the memoized CSE results share their
per-relation order caches across uses, and ``Frame.to_plain_relation``
returns the *original* relation object whenever the frame is an unmodified
view of it — derived relations produced by ``merge_result`` therefore keep
their seeded order caches all the way to the user (or the next operation).
"""

from __future__ import annotations

import itertools
import re
import threading
from dataclasses import dataclass, field
from typing import Any, Optional, Sequence

import numpy as np

from repro.bat.bat import BAT, DataType, _encode_value
from repro.bat.catalog import Catalog
from repro.bat import kernels
from repro.bat.properties import properties_enabled
from repro.core.config import RmaConfig, default_config
from repro.core.algebra import rma_operation
from repro.core.context import FusionFallback
from repro.core.ops import execute_fused
from repro.engine.pool import in_worker, run_tasks
from repro.errors import BindError, CatalogError, PlanError
from repro.opspec import SortClass, spec_of
from repro.plan.cache import PlanCache
import repro.relational.aggregate as rel_aggregate
import repro.relational.joins as rel_join
import repro.relational.ops as rel_ops
from repro.relational.relation import Relation, is_identity
from repro.relational.schema import Attribute, Schema
from repro.plan import nodes
from repro.plan.optimizer import Optimizer, ref_matches
from repro.sql import ast
from repro.sql.functions import SCALAR_FUNCTIONS


@dataclass(frozen=True)
class Binding:
    """Maps a user-visible (alias, column) pair to an internal column.

    ``hidden`` bindings are resolvable (so ORDER BY can reference source
    columns after projection) but are not part of the visible output.
    """

    alias: Optional[str]
    name: str
    internal: str
    hidden: bool = False


class _Source:
    """One base relation seen through a frame: its columns by internal
    name, plus each frame row's position in them.

    ``positions`` is ``None`` for the identity.  ``nullable`` marks
    positions that may be ``-1`` (LEFT JOIN rows without a match); those
    rows read as nil when a column is gathered.
    """

    __slots__ = ("columns", "positions", "nullable")

    def __init__(self, columns: dict[str, BAT],
                 positions: np.ndarray | None = None,
                 nullable: bool = False):
        self.columns = columns
        self.positions = positions
        self.nullable = nullable

    def take(self, outer: np.ndarray, outer_nullable: bool = False) \
            -> "_Source":
        """This source seen through ``outer``, positions into its rows."""
        if self.positions is None:
            return _Source(self.columns, outer, outer_nullable)
        if not outer_nullable:
            # -1 entries of a nullable source propagate through the gather.
            return _Source(self.columns, self.positions[outer],
                           self.nullable)
        positions = np.full(len(outer), -1, dtype=np.int64)
        hit = outer >= 0
        positions[hit] = self.positions[outer[hit]]
        return _Source(self.columns, positions, True)

    def gather(self, name: str) -> BAT:
        base = self.columns[name]
        if self.positions is None:
            return base
        if self.nullable:
            return _gather_nullable(base, self.positions)
        return base.fetch(self.positions)


def _gather_nullable(base: BAT, positions: np.ndarray) -> BAT:
    """Gather with ``-1`` positions reading as nil.

    BOOL has no nil encoding: its unmatched rows keep whatever value the
    gather produced (False when the source is empty).
    """
    missing = positions < 0
    if not missing.any():
        return base.fetch(positions)
    if len(base):
        tail = base.tail[np.where(missing, 0, positions)]
    else:
        tail = np.zeros(len(positions), dtype=base.dtype.numpy_dtype)
    if base.dtype is not DataType.BOOL:
        tail[missing] = _encode_value(None, base.dtype)
    return BAT(base.dtype, tail)


class Frame:
    """Rows of one or more base relations, with name bindings for
    expression resolution.

    A frame does not copy columns.  It keeps, per source relation, the
    base BATs and one int64 position vector (:class:`_Source`), so
    filters, sorts, limits and joins only compose position vectors.  A
    column is gathered when something first reads it (expression
    evaluation, projection, aggregation, :meth:`to_plain_relation`) and
    then stays cached in the frame.  Internal column names are globally
    unique so joins can combine sources without clashes while
    user-visible names stay resolvable (qualified or unqualified).
    """

    _counter = itertools.count(1)  # itertools: atomic under the GIL, so
    # concurrently evaluated subplans never mint the same internal name

    def __init__(self, bindings: list[Binding], sources: list[_Source],
                 nrows: int, cache: dict[str, BAT] | None = None,
                 origin: Relation | None = None):
        # A later source overrides an earlier one for the names it holds;
        # sources no binding reads from are dropped.
        self._owner = {name: s for s in sources for name in s.columns}
        used = {id(self._owner[b.internal]) for b in bindings}
        self.bindings = bindings
        self.sources = [s for s in sources if id(s) in used]
        self.nrows = nrows
        self.origin = origin  # set only while the frame is an unmodified view
        self._cache = cache if cache is not None else {}

    @classmethod
    def _fresh(cls, hint: str) -> str:
        return f"{hint}#{next(cls._counter)}"

    @classmethod
    def from_relation(cls, relation: Relation,
                      alias: Optional[str]) -> "Frame":
        bindings = [Binding(alias, name, cls._fresh(name))
                    for name in relation.names]
        source = _Source({b.internal: col
                          for b, col in zip(bindings, relation.columns)})
        return cls(bindings, [source], relation.nrows, origin=relation)

    @classmethod
    def wrap(cls, relation: Relation, bindings: list[Binding]) -> "Frame":
        """A frame over a relation whose column names are the internal
        names ``bindings`` refer to."""
        source = _Source(dict(zip(relation.names, relation.columns)))
        return cls(bindings, [source], relation.nrows)

    @classmethod
    def joined(cls, left: "Frame", right: "Frame", lpos: np.ndarray,
               rpos: np.ndarray) -> "Frame":
        """Row ``i`` pairs ``left`` row ``lpos[i]`` with ``right`` row
        ``rpos[i]`` (``-1``: no match, read as nil).

        A side whose positions are the identity keeps its position
        vectors and its already gathered columns.
        """
        cache: dict[str, BAT] = {}
        if len(lpos) == left.nrows and is_identity(lpos):
            sources = list(left.sources)
            cache.update(left._cache)
        else:
            sources = [s.take(lpos) for s in left._reusable_sources()]
        nullable = bool(len(rpos)) and int(rpos.min()) < 0
        if (not nullable and len(rpos) == right.nrows
                and is_identity(rpos)):
            sources += right.sources
            cache.update(right._cache)
        else:
            sources += [s.take(rpos, nullable)
                        for s in right._reusable_sources()]
        return cls(left.bindings + right.bindings, sources, len(lpos), cache)

    # -- resolution ----------------------------------------------------------

    def resolve(self, ref: ast.ColumnRef) -> str:
        def lookup(candidates: list[Binding]) -> list[Binding]:
            return [b for b in candidates
                    if b.name == ref.name
                    and (ref.table is None or b.alias == ref.table)]

        matches = lookup(self.visible_bindings())
        if not matches:
            matches = lookup([b for b in self.bindings if b.hidden])
        if not matches:
            known = sorted({b.name for b in self.bindings})
            raise BindError(
                f"unknown column {ref.to_sql()!r}; available: "
                f"{', '.join(known)}")
        if len(matches) > 1 and ref.table is None:
            aliases = sorted({str(b.alias) for b in matches})
            raise BindError(
                f"ambiguous column {ref.name!r} (in {', '.join(aliases)}); "
                "qualify it")
        return matches[0].internal

    def bat(self, internal: str) -> BAT:
        """The column with this internal name, gathered on first read."""
        column = self._cache.get(internal)
        if column is None:
            column = self._owner[internal].gather(internal)
            self._cache[internal] = column
        return column

    def column(self, ref: ast.ColumnRef) -> BAT:
        return self.bat(self.resolve(ref))

    def dtype(self, internal: str) -> DataType:
        return self._owner[internal].columns[internal].dtype

    def visible_bindings(self) -> list[Binding]:
        return [b for b in self.bindings if not b.hidden]

    def star_bindings(self, table: Optional[str]) -> list[Binding]:
        if table is None:
            return self.visible_bindings()
        matches = [b for b in self.visible_bindings() if b.alias == table]
        if not matches:
            raise BindError(f"unknown table alias {table!r} in star")
        return matches

    def with_bindings(self, bindings: list[Binding]) -> "Frame":
        """The same rows with a subset of the bindings."""
        return Frame(bindings, self.sources, self.nrows, dict(self._cache),
                     self.origin)

    def projected(self, names: list[str], columns: list[BAT]) -> "Frame":
        """A frame whose visible columns are ``columns`` under ``names``.

        This frame's bindings stay resolvable as hidden bindings (so ORDER
        BY above a projection can reference source columns) without
        being gathered.
        """
        bindings = [Binding(None, name, Frame._fresh(name)) for name in names]
        computed = _Source({b.internal: column
                            for b, column in zip(bindings, columns)})
        hidden = [Binding(b.alias, b.name, b.internal, hidden=True)
                  for b in self.bindings]
        return Frame(bindings + hidden, [computed] + self.sources,
                     self.nrows, dict(self._cache))

    def to_relation(self, bindings: list[Binding]) -> Relation:
        """The bound columns under their internal names."""
        schema = Schema(Attribute(b.internal, self.dtype(b.internal))
                        for b in bindings)
        return Relation(schema, [self.bat(b.internal) for b in bindings])

    def to_plain_relation(self) -> Relation:
        """Expose user-visible names (for RMA inputs and final output).

        When the frame is an unmodified view of its source relation the
        source object itself is returned, preserving its (possibly warm)
        order cache — the plan layer's cross-operation cache reuse depends
        on this passthrough.
        """
        visible = self.visible_bindings()
        if (self.origin is not None
                and len(visible) == len(self.origin.columns)
                and all(b.name == n
                        for b, n in zip(visible, self.origin.names))
                and all(self.bat(b.internal) is col
                        for b, col in zip(visible, self.origin.columns))):
            return self.origin
        names = [b.name for b in visible]
        if len(set(names)) != len(names):
            duplicates = sorted({n for n in names if names.count(n) > 1})
            raise BindError(
                f"duplicate output columns {duplicates}; add aliases")
        schema = Schema(Attribute(b.name, self.dtype(b.internal))
                        for b in visible)
        return Relation(schema, [self.bat(b.internal) for b in visible])

    def select_positions(self, positions: np.ndarray) -> "Frame":
        """The frame's rows at ``positions``: composes every source's
        position vector once; no column is gathered."""
        return Frame(self.bindings,
                     [s.take(positions) for s in self._reusable_sources()],
                     len(positions))

    def _reusable_sources(self) -> list[_Source]:
        """The sources plus one over the columns gathered so far, so a
        column read again after new positions is gathered from its
        gathered copy (LEFT JOIN nils are filled once) rather than from
        the base."""
        if not self._cache:
            return self.sources
        return self.sources + [_Source(dict(self._cache))]


# -- expression evaluation -------------------------------------------------------

_LIKE_CACHE: dict[str, re.Pattern] = {}


def _like_pattern(pattern: str) -> re.Pattern:
    if pattern not in _LIKE_CACHE:
        regex = re.escape(pattern).replace("%", ".*").replace("_", ".")
        _LIKE_CACHE[pattern] = re.compile(f"^{regex}$", re.IGNORECASE)
    return _LIKE_CACHE[pattern]


def _as_mask(value: Any, n: int) -> np.ndarray:
    if isinstance(value, BAT):
        if value.dtype is not DataType.BOOL:
            raise PlanError("predicate did not evaluate to a boolean")
        return value.tail.astype(bool)
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
        if isinstance(node, (ast.Literal, ast.ColumnRef)):
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


class ExpressionEvaluator:
    """Vectorized evaluation of AST expressions over a frame.

    Each top-level :meth:`eval` computes a subexpression that occurs
    several times in it (``dx * dx``) once.
    """

    def __init__(self, frame: Frame):
        self.frame = frame
        self.n = frame.nrows
        self._slots: dict[int, int] = {}
        self._memo: dict[int, Any] = {}

    def eval(self, expr: ast.Expr) -> Any:
        """Returns a BAT (column result) or a python scalar."""
        self._slots = _repeated_subtrees(expr)
        try:
            return self._eval(expr)
        finally:
            self._slots, self._memo = {}, {}

    def mask(self, expr: ast.Expr) -> np.ndarray:
        return _as_mask(self.eval(expr), self.n)

    def _eval(self, expr: ast.Expr) -> Any:
        slot = self._slots.get(id(expr))
        if slot is not None and slot in self._memo:
            return self._memo[slot]
        method = getattr(self, f"_eval_{type(expr).__name__.lower()}", None)
        if method is None:
            raise PlanError(f"cannot evaluate expression {expr!r}")
        value = method(expr)
        if slot is not None:
            self._memo[slot] = value
        return value

    # -- node handlers ----------------------------------------------------------

    def _eval_literal(self, expr: ast.Literal) -> Any:
        return expr.value

    def _eval_columnref(self, expr: ast.ColumnRef) -> BAT:
        return self.frame.column(expr)

    def _eval_unaryop(self, expr: ast.UnaryOp) -> Any:
        value = self._eval(expr.operand)
        if expr.op == "NOT":
            mask = _as_mask(value, self.n)
            return BAT(DataType.BOOL, ~mask)
        if expr.op == "-":
            if isinstance(value, BAT):
                return kernels.neg(value)
            return -value
        return value

    def _eval_binaryop(self, expr: ast.BinaryOp) -> Any:
        op = expr.op
        if op in ("AND", "OR"):
            left = _as_mask(self._eval(expr.left), self.n)
            right = _as_mask(self._eval(expr.right), self.n)
            out = left & right if op == "AND" else left | right
            return BAT(DataType.BOOL, out)
        if op in ("LIKE", "NOT LIKE"):
            return self._eval_like(expr)
        left = self._eval(expr.left)
        right = self._eval(expr.right)
        if op in ("+", "-", "*", "/", "%"):
            if isinstance(left, BAT):
                return kernels.binop(op, left, right)
            if isinstance(right, BAT):
                return kernels.rbinop(op, left, right)
            if op == "/":
                return left / right
            if op == "%":
                return left % right
            return {"+": left + right, "-": left - right,
                    "*": left * right}[op]
        if op == "||":
            return self._concat(left, right)
        return _compare(op, left, right)

    def _concat(self, left: Any, right: Any) -> Any:
        if not isinstance(left, BAT) and not isinstance(right, BAT):
            return str(left) + str(right)
        left_bat = _broadcast(left, self.n).cast(DataType.STR)
        right_bat = _broadcast(right, self.n).cast(DataType.STR)
        values = np.array(
            [None if a is None or b is None else a + b
             for a, b in zip(left_bat.tail, right_bat.tail)], dtype=object)
        return BAT(DataType.STR, values)

    def _eval_like(self, expr: ast.BinaryOp) -> BAT:
        value = self._eval(expr.left)
        pattern = self._eval(expr.right)
        if isinstance(pattern, BAT):
            raise PlanError("LIKE pattern must be a constant")
        regex = _like_pattern(str(pattern))
        bat = _broadcast(value, self.n).cast(DataType.STR)
        mask = np.array([v is not None and bool(regex.match(v))
                         for v in bat.tail], dtype=bool)
        if expr.op == "NOT LIKE":
            mask = ~mask
        return BAT(DataType.BOOL, mask)

    def _eval_isnull(self, expr: ast.IsNull) -> BAT:
        value = self._eval(expr.operand)
        if isinstance(value, BAT):
            mask = value.is_nil()
        else:
            mask = np.full(self.n, value is None)
        if expr.negated:
            mask = ~mask
        return BAT(DataType.BOOL, mask)

    def _eval_between(self, expr: ast.Between) -> BAT:
        value = self._eval(expr.operand)
        low = _as_mask(_compare(">=", value, self._eval(expr.low)), self.n)
        high = _as_mask(_compare("<=", value, self._eval(expr.high)), self.n)
        mask = low & high
        if expr.negated:
            mask = ~mask
        return BAT(DataType.BOOL, mask)

    def _eval_inlist(self, expr: ast.InList) -> BAT:
        mask = np.zeros(self.n, dtype=bool)
        operand = self._eval(expr.operand)
        for item in expr.items:
            value = self._eval(item)
            if isinstance(operand, BAT):
                mask |= kernels.compare("=", operand, value)
            else:
                mask |= np.full(self.n, operand == value)
        if expr.negated:
            mask = ~mask
        return BAT(DataType.BOOL, mask)

    def _eval_casewhen(self, expr: ast.CaseWhen) -> Any:
        conditions = [_as_mask(self._eval(c), self.n)
                      for c, _ in expr.branches]
        values = [self._eval(v) for _, v in expr.branches]
        otherwise = (self._eval(expr.otherwise)
                     if expr.otherwise is not None else None)
        # Pick a result type from the first columnar/non-null value.
        prototype = next((v for v in values + [otherwise]
                          if isinstance(v, BAT)), None)
        if prototype is not None:
            dtype = prototype.dtype
        else:
            from repro.bat.bat import infer_type
            scalars = [v for v in values + [otherwise] if v is not None]
            dtype = infer_type(scalars)
        result = (_broadcast(otherwise, self.n) if otherwise is not None
                  else BAT.constant(None, self.n, dtype))
        # Apply branches from last to first so the first match wins.
        for mask, value in reversed(list(zip(conditions, values))):
            value_bat = (_broadcast(value, self.n) if value is not None
                         else BAT.constant(None, self.n, dtype))
            result = kernels.ifthenelse(mask, value_bat, result)
        return result

    def _eval_functioncall(self, expr: ast.FunctionCall) -> Any:
        if expr.name in nodes.AGGREGATE_FUNCTIONS:
            raise PlanError(
                f"aggregate {expr.name} used outside of SELECT/HAVING "
                "with GROUP BY")
        func = SCALAR_FUNCTIONS.get(expr.name)
        if func is None:
            raise BindError(f"unknown function {expr.name}")
        args = [self._eval(a) for a in expr.args]
        return func(self, args)

    def _eval_star(self, expr: ast.Star) -> Any:
        raise PlanError("'*' is only valid in SELECT lists and COUNT(*)")


def _true_positions(mask: np.ndarray) -> np.ndarray:
    return np.flatnonzero(mask).astype(np.int64, copy=False)


def _non_nil_keys(keys: list[BAT]) \
        -> tuple[np.ndarray | None, list[BAT]]:
    """(rows whose keys are all non-nil, those rows' keys); the rows are
    ``None`` when no key holds a nil."""
    nil = None
    for key in keys:
        if not key.tnonil:
            nil = key.is_nil() if nil is None else nil | key.is_nil()
    if nil is None:
        return None, keys
    rows = np.flatnonzero(~nil)
    return rows, [key.fetch(rows, positions_sorted=True, positions_key=True)
                  for key in keys]


def _remap(positions: np.ndarray, rows: np.ndarray | None) -> np.ndarray:
    """Positions into a row subset, mapped back to the full side (``-1``
    stays ``-1``)."""
    if rows is None:
        return positions
    out = np.full(len(positions), -1, dtype=np.int64)
    hit = positions >= 0
    out[hit] = rows[positions[hit]]
    return out


def _pad_unmatched(lpos: np.ndarray, rpos: np.ndarray,
                   nleft: int) -> tuple[np.ndarray, np.ndarray]:
    """Add a ``(row, -1)`` pair for every left row absent from ``lpos``,
    in left-row order (``lpos`` is non-decreasing), as a LEFT JOIN emits
    them."""
    matched = np.zeros(nleft, dtype=bool)
    matched[lpos] = True
    missing = np.flatnonzero(~matched)
    lpos = np.concatenate([lpos, missing])
    rpos = np.concatenate([rpos, np.full(len(missing), -1, dtype=np.int64)])
    order = np.argsort(lpos, kind="stable")
    return lpos[order], rpos[order]


# -- physical planning ---------------------------------------------------------

@dataclass
class PhysicalInfo:
    """Physical annotations the planner derives for an optimized plan.

    All dicts are keyed by plan nodes; structurally identical subtrees
    collapse onto one entry (node equality is structural), which is exactly
    the sharing CSE needs.

    ``keys`` records *declared* key contracts: every r1/r* RMA requires its
    order schema to be a key (the paper's precondition), but the check runs
    only when ``RmaConfig.validate_keys`` is on — like MonetDB trusting
    declared constraints.  Consumers needing a *verified* key must check
    the relation (``OrderInfo.is_key``) at run time.
    """

    join_strategy: dict[nodes.JoinPlan, str] = field(default_factory=dict)
    ordering: dict[nodes.Plan, tuple[str, ...]] = field(default_factory=dict)
    keys: dict[nodes.Plan, tuple[str, ...]] = field(default_factory=dict)
    shared: dict[nodes.Plan, int] = field(default_factory=dict)


def plan_physical(plan: nodes.Plan, catalog: Catalog) -> PhysicalInfo:
    """Derive physical annotations (order metadata, join strategies, CSE)."""
    return _PhysicalPlanner(catalog).annotate(plan)


class _PhysicalPlanner:
    def __init__(self, catalog: Catalog):
        self.catalog = catalog
        self.info = PhysicalInfo()
        self._optimizer = Optimizer(catalog)  # for schema inference
        self._names: dict[nodes.Plan, Optional[set[tuple]]] = {}

    def annotate(self, plan: nodes.Plan) -> PhysicalInfo:
        self._order_of(plan)
        # Walk by reference, not structure: each *occurrence* of a node is
        # counted (that is what CSE sharing means), but an object reused in
        # several places — Matrix expressions share subplan objects — has
        # its subtree descended only once, keeping the walk linear even for
        # deeply diamond-shaped plans.
        visited: set[int] = set()
        stack = [plan]
        while stack:
            node = stack.pop()
            if isinstance(node, nodes.JoinPlan):
                self.info.join_strategy.setdefault(
                    node, self._choose_strategy(node))
            if isinstance(node, (nodes.Rma, nodes.FusedRma,
                                 nodes.SubqueryScan)):
                key = _cse_key(node)
                self.info.shared[key] = self.info.shared.get(key, 0) + 1
            if id(node) in visited:
                continue
            visited.add(id(node))
            stack.extend(node.children())
        self.info.shared = {k: c for k, c in self.info.shared.items()
                            if c > 1}
        return self.info

    # -- order/key metadata ---------------------------------------------------

    def _order_of(self, plan: nodes.Plan) -> tuple[str, ...]:
        cached = self.info.ordering.get(plan)
        if cached is not None:
            return cached
        ordering = self._compute_order(plan)
        self.info.ordering[plan] = ordering
        return ordering

    def _compute_order(self, plan: nodes.Plan) -> tuple[str, ...]:
        if isinstance(plan, (nodes.Scan, nodes.RelScan)):
            relation = self._leaf_relation(plan)
            if relation is None or not properties_enabled():
                return ()
            for name in relation.names:
                if relation.column(name).cached_prop("tsorted"):
                    return (name,)
            return ()
        if isinstance(plan, nodes.SubqueryScan):
            return self._order_of(plan.plan)
        if isinstance(plan, (nodes.Filter, nodes.Limit)):
            return self._order_of(plan.children()[0])
        if isinstance(plan, nodes.Prune):
            child = self._order_of(plan.child)
            kept = set(plan.names)
            prefix = []
            for name in child:
                if name not in kept:
                    break
                prefix.append(name)
            return tuple(prefix)
        if isinstance(plan, nodes.Sort):
            prefix = []
            for item in plan.items:
                if item.descending or not isinstance(item.expr,
                                                     ast.ColumnRef):
                    break
                prefix.append(item.expr.name)
            return tuple(prefix)
        if isinstance(plan, nodes.JoinPlan):
            # Both join paths emit left positions non-decreasing, so the
            # left input's order survives; the right side's does not.
            self._order_of(plan.right)
            return self._order_of(plan.left)
        if isinstance(plan, nodes.Project):
            child = self._order_of(plan.child)
            # Child orderings carry unqualified names, so a qualified
            # passthrough ref (b.x) is only a safe mapping when the child
            # has a single source — above a join, b.x may name the
            # *right* side's column while the ordering belongs to the left.
            qualified_ok = not _contains_join(plan.child)
            out_names = {}
            for index, item in enumerate(plan.items):
                if isinstance(item.expr, ast.ColumnRef) and (
                        item.expr.table is None or qualified_ok):
                    out = item.alias or nodes.default_output_name(
                        item.expr, index)
                    out_names.setdefault(item.expr.name, out)
            prefix = []
            for name in child:
                if name not in out_names:
                    break
                prefix.append(out_names[name])
            return tuple(prefix)
        if isinstance(plan, nodes.Rma):
            for child in plan.children():
                self._order_of(child)
            spec = spec_of(plan.op)
            x, _ = spec.shape_type
            if x == "r1" and spec.sort_class is SortClass.FULL:
                # FULL-sort operations physically order their result rows
                # by the order schema (the warm-cache seed in merge_result
                # records the same fact at run time).
                self.info.keys.setdefault(plan, tuple(plan.by[0]))
                return tuple(plan.by[0])
            if x in ("r1", "r*"):
                self.info.keys.setdefault(plan, tuple(plan.by[0]))
                # Storage order of the first input is preserved; keep the
                # prefix of its ordering that survives into the output.
                child = self._order_of(plan.inputs[0])
                visible = set(plan.by[0])
                if x == "r*":
                    visible |= set(plan.by[1])
                prefix = []
                for name in child:
                    if name not in visible:
                        break
                    prefix.append(name)
                return tuple(prefix)
            return ()
        if isinstance(plan, nodes.FusedRma):
            # Like the element-wise (r*) case collapsed over the chain:
            # the first leaf's storage order is preserved.
            for child in plan.children():
                self._order_of(child)
            self.info.keys.setdefault(plan, tuple(plan.bys[0]))
            child = self._order_of(plan.inputs[0])
            visible = {name for by in plan.bys for name in by}
            prefix = []
            for name in child:
                if name not in visible:
                    break
                prefix.append(name)
            return tuple(prefix)
        if isinstance(plan, nodes.Aggregate):
            self._order_of(plan.child)
            self.info.keys.setdefault(plan, tuple(plan.key_names))
            return ()
        for child in plan.children():
            self._order_of(child)
        return ()

    def _leaf_relation(self, plan: nodes.Plan) -> Relation | None:
        if isinstance(plan, nodes.RelScan):
            return plan.relation
        if isinstance(plan, nodes.Scan):
            try:
                return self.catalog.get(plan.table)
            except CatalogError:
                return None
        return None

    # -- join strategy --------------------------------------------------------

    def _output_names(self, plan: nodes.Plan) -> Optional[set[tuple]]:
        if plan not in self._names:
            self._names[plan] = self._optimizer.output_names(plan)
        return self._names[plan]

    def _choose_strategy(self, plan: nodes.JoinPlan) -> str:
        if plan.condition is None or plan.kind == "cross":
            return "hash"
        equi: list[tuple[str, str]] = []
        matches = ref_matches
        left_names = self._output_names(plan.left)
        right_names = self._output_names(plan.right)
        if left_names is None or right_names is None:
            return "hash"
        for conjunct in nodes.split_conjuncts(plan.condition):
            if not (isinstance(conjunct, ast.BinaryOp)
                    and conjunct.op == "="):
                continue
            if not (isinstance(conjunct.left, ast.ColumnRef)
                    and isinstance(conjunct.right, ast.ColumnRef)):
                return "hash"
            lref, rref = conjunct.left, conjunct.right
            if (matches(lref, left_names)
                    and matches(rref, right_names)):
                equi.append((lref.name, rref.name))
            elif (matches(rref, left_names)
                    and matches(lref, right_names)):
                equi.append((rref.name, lref.name))
            else:
                return "hash"
        if len(equi) != 1:
            # No equality conjunct (a theta join runs as cross + filter) or
            # a composite key: both take the hash path.
            return "hash"
        # The runtime merge path requires same-dtype raw-comparable keys
        # (STR excluded); only predict merge when the leaf column dtypes
        # prove eligibility, so EXPLAIN never claims a strategy the
        # executor would reject.
        (lname, rname), = equi
        ldtype = self._side_key_dtype(plan.left, lname)
        rdtype = self._side_key_dtype(plan.right, rname)
        if (ldtype is None or ldtype is not rdtype
                or ldtype not in rel_join.MERGE_TYPES):
            return "hash"
        if (self._side_sorted_by(plan.left, lname)
                and self._side_sorted_by(plan.right, rname)):
            return "merge"
        return "hash"

    def _side_key_dtype(self, plan: nodes.Plan, name: str):
        relation = self._probe_leaf(plan, name)
        return None if relation is None else relation.schema.dtype(name)

    def _side_sorted_by(self, plan: nodes.Plan, name: str) -> bool:
        ordering = self._order_of(plan)
        if ordering[:1] == (name,):
            return True
        # Fall back to the base scan's column: for join keys (only), the
        # O(n) sortedness check is worth forcing — it can save encoding
        # both sides' keys and the right side's code sort.
        if not properties_enabled():
            return False
        relation = self._probe_leaf(plan, name)
        return relation is not None and relation.column(name).tsorted

    def _probe_leaf(self, plan: nodes.Plan, name: str) -> Relation | None:
        """The base relation behind order-preserving nodes, if it still
        exposes the column (sortedness of the base column survives
        Filter/Limit subsetting and Prune projection)."""
        node = plan
        while isinstance(node, (nodes.Filter, nodes.Prune, nodes.Limit)):
            if isinstance(node, nodes.Prune) and name not in node.names:
                return None
            node = node.children()[0]
        relation = self._leaf_relation(node)
        if relation is None or name not in relation.schema:
            return None
        return relation


def _contains_join(plan: nodes.Plan) -> bool:
    """Whether any JoinPlan occurs in the subtree (id-deduplicated walk,
    DAG-safe; descends into subqueries — their aliases rebind names but a
    join anywhere below still makes qualified-name mapping ambiguous)."""
    stack, seen = [plan], set()
    while stack:
        node = stack.pop()
        if id(node) in seen:
            continue
        seen.add(id(node))
        if isinstance(node, nodes.JoinPlan):
            return True
        stack.extend(node.children())
    return False


def _cse_key(plan: nodes.Plan) -> nodes.Plan:
    """Normalize a shareable node for memoization (strip the top alias)."""
    if isinstance(plan, nodes.Rma):
        return nodes.Rma(plan.op, plan.inputs, plan.by, None, plan.scalar)
    if isinstance(plan, nodes.FusedRma):
        return nodes.FusedRma(plan.steps, plan.inputs, plan.bys, None)
    if isinstance(plan, nodes.SubqueryScan):
        return plan.plan
    return plan


# -- plan execution -----------------------------------------------------------------

@dataclass
class ExecStats:
    """Counters the tests and EXPLAIN ANALYZE-style tooling read."""

    cse_hits: int = 0
    cache_hits: int = 0
    fused_nodes: int = 0
    fusion_fallbacks: int = 0


class Executor:
    """Evaluates logical plans against a catalog.

    ``physical`` carries the planner's annotations (join strategies); when
    omitted every join uses the hash path.  Repeated RMA/subquery subplans
    execute once per statement (CSE; ``stats.cse_hits`` counts the reuses).
    ``result_cache`` is an optional *session-scoped*
    :class:`repro.plan.cache.PlanCache`: shareable subplan results found
    there skip execution entirely, and freshly computed ones are stored for
    later statements (stamped with catalog table versions, so catalog
    mutations invalidate exactly the affected entries).
    """

    def __init__(self, catalog: Catalog, config: RmaConfig | None = None,
                 physical: PhysicalInfo | None = None,
                 result_cache: "PlanCache | None" = None):
        self.catalog = catalog
        self.config = config or default_config()
        self.physical = physical or PhysicalInfo()
        self.result_cache = result_cache
        self.stats = ExecStats()
        self._memo: dict[nodes.Plan, Relation] = {}
        # Filter candidate lists shared within the statement
        # (see _candidate_key).
        self._candidates: dict[tuple, np.ndarray] = {}
        # Guards the CSE memo and the stats counters: with the morsel
        # engine on, sibling subplans execute on pool workers.
        self._lock = threading.Lock()

    def run(self, plan: nodes.Plan) -> Frame:
        method = getattr(self, f"_run_{type(plan).__name__.lower()}")
        return method(plan)

    def _run_siblings(self, plans: "Sequence[nodes.Plan]") -> list[Frame]:
        """Evaluate independent subplan subtrees, concurrently when the
        morsel engine is on.

        Siblings sharing a CSE key (structurally identical up to alias)
        stay serial so the second occurrence hits the CSE memo instead of
        racing the first to compute the same subtree twice.  Shared
        subtrees *below* distinct siblings (the planner's CSE annotation
        knows them) are computed once up front, so the concurrent
        siblings find them in the memo rather than each recomputing the
        diamond.
        """
        if (len(plans) > 1 and self.config.parallel.active()
                and not in_worker()
                and len({_cse_key(p) for p in plans}) == len(plans)):
            self._prerun_shared(plans)
            return run_tasks([lambda p=p: self.run(p) for p in plans])
        return [self.run(p) for p in plans]

    def _prerun_shared(self, plans: "Sequence[nodes.Plan]") -> None:
        """Materialize CSE-shared subtrees that span several siblings."""
        if not self.physical.shared:
            return
        per_sibling: list[set] = []
        for plan in plans:
            keys = set()
            for node in nodes.walk_plan(plan):
                if isinstance(node, (nodes.Rma, nodes.FusedRma,
                                     nodes.SubqueryScan)):
                    key = _cse_key(node)
                    if key in self.physical.shared:
                        keys.add(key)
            per_sibling.append(keys)
        seen: set = set()
        spanning = []
        for i, keys in enumerate(per_sibling):
            for key in keys:
                if key not in seen and any(
                        key in other for other in per_sibling[i + 1:]):
                    spanning.append(key)
                seen.add(key)
        for key in spanning:
            if isinstance(key, (nodes.Rma, nodes.FusedRma)):
                # Normalized nodes are themselves runnable; running them
                # populates the memo under exactly this key.
                self.run(key)
            else:
                self._memoized_relation(
                    key, lambda k=key: self.run(k).to_plain_relation())

    def _sibling_relations(self, plans: "Sequence[nodes.Plan]") \
            -> list[Relation]:
        return [frame.to_plain_relation()
                for frame in self._run_siblings(plans)]

    def _bump(self, counter: str) -> None:
        with self._lock:
            setattr(self.stats, counter, getattr(self.stats, counter) + 1)

    def _memoized_relation(self, key: nodes.Plan, compute) -> Relation:
        """Per-statement CSE memo plus the session-scoped result cache."""
        with self._lock:
            relation = self._memo.get(key)
        if relation is not None:
            self._bump("cse_hits")
            return relation
        if self.result_cache is not None:
            relation = self.result_cache.get(key, self.catalog, self.config)
            if relation is not None:
                self._bump("cache_hits")
                with self._lock:
                    self._memo[key] = relation
                return relation
        relation = compute()
        with self._lock:
            self._memo[key] = relation
        if self.result_cache is not None:
            self.result_cache.put(key, self.catalog, self.config, relation)
        return relation

    # -- leaves -------------------------------------------------------------------

    def _run_scan(self, plan: nodes.Scan) -> Frame:
        if plan.table == "_dual":
            relation = Relation.from_columns({"_one": [1]})
            return Frame.from_relation(relation, None)
        relation = self.catalog.get(plan.table)
        return Frame.from_relation(relation, plan.alias)

    def _run_relscan(self, plan: nodes.RelScan) -> Frame:
        return Frame.from_relation(plan.relation, plan.alias)

    def _run_subqueryscan(self, plan: nodes.SubqueryScan) -> Frame:
        relation = self._memoized_relation(
            plan.plan, lambda: self.run(plan.plan).to_plain_relation())
        return Frame.from_relation(relation, plan.alias)

    def _run_rma(self, plan: nodes.Rma) -> Frame:
        def compute() -> Relation:
            relations = self._sibling_relations(plan.inputs)
            if len(relations) == 1:
                return rma_operation(plan.op, relations[0],
                                     list(plan.by[0]),
                                     config=self.config,
                                     scalar=plan.scalar)
            return rma_operation(plan.op, relations[0],
                                 list(plan.by[0]), relations[1],
                                 list(plan.by[1]),
                                 config=self.config)

        relation = self._memoized_relation(_cse_key(plan), compute)
        return Frame.from_relation(relation, plan.alias)

    def _run_fusedrma(self, plan: nodes.FusedRma) -> Frame:
        relation = self._memoized_relation(
            _cse_key(plan), lambda: self._execute_fused(plan))
        return Frame.from_relation(relation, plan.alias)

    def _execute_fused(self, plan: nodes.FusedRma) -> Relation:
        relations = self._sibling_relations(plan.inputs)
        try:
            result = execute_fused(plan.steps, relations, plan.bys,
                                   self.config)
            self._bump("fused_nodes")
            return result
        except FusionFallback:
            self._bump("fusion_fallbacks")
            return self._replay_unfused(plan, relations)

    def _replay_unfused(self, plan: nodes.FusedRma,
                        relations: list[Relation]) -> Relation:
        """Run a fused chain step by step over the materialized leaves.

        This is exactly what executing the pre-fusion plan would do (the
        leaf subplans are already evaluated), so a runtime fallback is
        bit-identical to never having fused — including raised errors.
        """
        slots: list[tuple[Relation, tuple[str, ...]]] = list(
            zip(relations, plan.bys))
        for step in plan.steps:
            left, left_by = slots[step.left]
            if step.right is None:
                result = rma_operation(step.op, left, list(left_by),
                                       config=self.config,
                                       scalar=step.scalar)
                slots.append((result, left_by))
            else:
                right, right_by = slots[step.right]
                result = rma_operation(step.op, left, list(left_by),
                                       right, list(right_by),
                                       config=self.config)
                slots.append((result, left_by + right_by))
        return slots[-1][0]

    # -- unary nodes -----------------------------------------------------------------

    def _run_filter(self, plan: nodes.Filter) -> Frame:
        frame = self.run(plan.child)
        key = self._candidate_key(plan, frame)
        # dict.get/setdefault are atomic: concurrent siblings at worst
        # compute the same candidate list twice.
        positions = self._candidates.get(key)
        if positions is None:
            positions = _true_positions(
                ExpressionEvaluator(frame).mask(plan.predicate))
            if key is not None:
                positions = self._candidates.setdefault(key, positions)
        if len(positions) == frame.nrows:
            return frame  # every row qualifies
        return frame.select_positions(positions)

    def _candidate_key(self, plan: nodes.Filter, frame: Frame):
        """Key of the statement-scoped candidate list of a Filter directly
        over a table or relation scan, or ``None``.

        Filters with the same predicate over the same leaf share one
        candidate list whatever their ``Prune`` lists and aliases: column
        references lose their qualifier once they are known to resolve.
        """
        leaf = plan.child
        while isinstance(leaf, nodes.Prune):
            leaf = leaf.child
        if isinstance(leaf, nodes.Scan):
            source = leaf.table
        elif isinstance(leaf, nodes.RelScan):
            source = leaf.relation
        else:
            return None
        refs = nodes.column_refs(plan.predicate)
        if not all(self._resolvable(frame, ref) for ref in refs):
            return None  # let evaluation raise its binding error
        return source, nodes.replace_expr(
            plan.predicate, {ref: ast.ColumnRef(ref.name) for ref in refs})

    def _run_prune(self, plan: nodes.Prune) -> Frame:
        frame = self.run(plan.child)
        keep = [b for b in frame.bindings if b.name in plan.names]
        if not keep or len(keep) == len(frame.bindings):
            return frame
        return frame.with_bindings(keep)

    def _run_project(self, plan: nodes.Project) -> Frame:
        frame = self.run(plan.child)
        evaluator = ExpressionEvaluator(frame)
        names: list[str] = []
        columns: list[BAT] = []
        for index, item in enumerate(plan.items):
            if isinstance(item.expr, ast.Star):
                for binding in frame.star_bindings(item.expr.table):
                    names.append(binding.name)
                    columns.append(frame.bat(binding.internal))
                continue
            value = evaluator.eval(item.expr)
            names.append(item.alias
                         or nodes.default_output_name(item.expr, index))
            columns.append(_broadcast(value, frame.nrows))
        return frame.projected(names, columns)

    def _run_distinct(self, plan: nodes.Distinct) -> Frame:
        frame = self.run(plan.child)
        # DISTINCT applies to the visible output only; hidden (source)
        # columns are dropped — referencing them above DISTINCT is invalid.
        visible = frame.visible_bindings()
        return Frame.wrap(rel_ops.distinct(frame.to_relation(visible)),
                          visible)

    def _run_sort(self, plan: nodes.Sort) -> Frame:
        frame = self.run(plan.child)
        evaluator = ExpressionEvaluator(frame)
        positions = np.arange(frame.nrows, dtype=np.int64)
        for item in reversed(plan.items):
            value = evaluator.eval(item.expr)
            column = _broadcast(value, frame.nrows)
            key = column.tail[positions]
            order = np.argsort(key, kind="stable")
            if item.descending:
                order = order[::-1]
            positions = positions[order]
        return frame.select_positions(positions)

    def _run_limit(self, plan: nodes.Limit) -> Frame:
        frame = self.run(plan.child)
        positions = np.arange(frame.nrows, dtype=np.int64)[
            plan.offset:plan.offset + plan.count]
        if len(positions) == frame.nrows:
            return frame
        return frame.select_positions(positions)

    # -- aggregation --------------------------------------------------------------------

    def _run_aggregate(self, plan: nodes.Aggregate) -> Frame:
        frame = self.run(plan.child)
        evaluator = ExpressionEvaluator(frame)
        n = frame.nrows

        data: dict[str, BAT] = {}
        key_bindings: list[tuple[str, ast.Expr]] = []
        for key_expr, key_name in zip(plan.keys, plan.key_names):
            data[key_name] = _broadcast(evaluator.eval(key_expr), n)
            key_bindings.append((key_name, key_expr))

        specs: list[rel_aggregate.AggregateSpec] = []
        distinct_specs: list[nodes.AggregateSpecNode] = []
        for spec in plan.aggregates:
            if spec.distinct:
                if spec.func != "count":
                    raise PlanError(
                        "DISTINCT is only supported for COUNT")
                distinct_specs.append(spec)
                continue
            if spec.argument is None:
                specs.append(rel_aggregate.AggregateSpec(
                    "count", "*", spec.out_name))
            else:
                arg_name = f"_arg_{spec.out_name}"
                data[arg_name] = _broadcast(evaluator.eval(spec.argument), n)
                specs.append(rel_aggregate.AggregateSpec(
                    spec.func, arg_name, spec.out_name))
        for spec in distinct_specs:
            arg_name = f"_arg_{spec.out_name}"
            data[arg_name] = _broadcast(evaluator.eval(spec.argument), n)

        # COUNT(*) alone reads no column; the work relation then only
        # carries the row count.
        work = Relation.from_columns(data or {"_rows": BAT.dense(n)})
        key_names = [name for name, _ in key_bindings]
        grouped = rel_aggregate.group_by(work, key_names, specs)

        if distinct_specs:
            grouped = self._attach_count_distinct(
                work, grouped, key_names, distinct_specs)

        bindings = []
        for name, expr in key_bindings:
            bindings.append(Binding(None, name, name))
            # Also expose the original column name so un-rewritten
            # references (e.g. qualified GROUP BY keys) still resolve.
            if isinstance(expr, ast.ColumnRef):
                bindings.append(Binding(expr.table, expr.name, name))
        for spec in plan.aggregates:
            bindings.append(Binding(None, spec.out_name, spec.out_name))
        return Frame.wrap(grouped, bindings)

    def _attach_count_distinct(self, work: Relation, grouped: Relation,
                               key_names: list[str],
                               specs: list[nodes.AggregateSpecNode]) \
            -> Relation:
        """COUNT(DISTINCT x): count unique (group, value) pairs per group.

        Group ids are the key codes themselves (dense ranks, in the order
        ``group_by`` emits its rows); distinct pairs are ranked by the same
        encoder, and each pair's group is scattered into a per-pair array
        (duplicates write the same group id) before one ``bincount``.
        """
        if key_names:
            gids = rel_join.factorize(work.bats(key_names))
        else:
            gids = np.zeros(work.nrows, dtype=np.int64)
        # One count per output row: a keyed aggregate over no rows has
        # no groups, a global one always has one.
        ngroups = grouped.nrows if key_names else 1
        for spec in specs:
            values = work.column(f"_arg_{spec.out_name}")
            groups = gids
            if not values.tnonil:  # NULL is not a value: skip its rows
                present = np.flatnonzero(~values.is_nil())
                values, groups = values.fetch(present), gids[present]
            if len(values) == 0:
                counts = np.zeros(ngroups, dtype=np.int64)
            else:
                value_codes = rel_join.factorize([values])
                span = int(value_codes.max()) + 1
                pair_codes = rel_join.dense_ranks(groups * span + value_codes)
                pair_group = np.empty(int(pair_codes.max()) + 1,
                                      dtype=np.int64)
                pair_group[pair_codes] = groups
                counts = np.bincount(pair_group, minlength=ngroups)
            if not key_names:
                column = BAT.from_values([int(counts[0])], DataType.INT)
            else:
                column = BAT(DataType.INT, counts.astype(np.int64))
            grouped = rel_ops.extend(grouped, spec.out_name, column)
        return grouped

    # -- joins ------------------------------------------------------------------------

    def _run_joinplan(self, plan: nodes.JoinPlan) -> Frame:
        left, right = self._run_siblings([plan.left, plan.right])
        equi, residual = self._split_join_condition(plan.condition, left,
                                                    right)
        if not equi:
            if plan.kind == "left":
                raise PlanError(
                    "LEFT JOIN requires at least one equality condition")
            nl, nr = left.nrows, right.nrows
            frame = Frame.joined(
                left, right, np.repeat(np.arange(nl, dtype=np.int64), nr),
                np.tile(np.arange(nr, dtype=np.int64), nl))
            if plan.condition is None:
                return frame
            return frame.select_positions(_true_positions(
                ExpressionEvaluator(frame).mask(plan.condition)))
        left_keys = [ExpressionEvaluator(left).eval(e) for e, _ in equi]
        right_keys = [ExpressionEvaluator(right).eval(e) for _, e in equi]
        left_keys = [_broadcast(k, left.nrows) for k in left_keys]
        right_keys = [_broadcast(k, right.nrows) for k in right_keys]
        # NULL keys match nothing: probe only the rows without one.
        lrows, left_keys = _non_nil_keys(left_keys)
        rrows, right_keys = _non_nil_keys(right_keys)
        outer = plan.kind == "left"
        # A LEFT JOIN whose matches are decided beyond the probe (a residual
        # ON conjunct, NULL left keys) probes as an inner join and gets its
        # unmatched rows added afterwards.
        pad = outer and (bool(residual) or lrows is not None)
        how = "left" if outer and not pad else "inner"
        if self.physical.join_strategy.get(plan, "auto") == "merge":
            lpos, rpos = rel_join.merge_join_positions(left_keys,
                                                       right_keys, how=how)
        else:
            lpos, rpos = rel_join.join_positions(left_keys, right_keys,
                                                 how=how)
        lpos, rpos = _remap(lpos, lrows), _remap(rpos, rrows)
        if residual:
            frame = Frame.joined(left, right, lpos, rpos)
            keep = _true_positions(
                ExpressionEvaluator(frame).mask(nodes.conjoin(residual)))
            lpos, rpos = lpos[keep], rpos[keep]
        if pad:
            lpos, rpos = _pad_unmatched(lpos, rpos, left.nrows)
        return Frame.joined(left, right, lpos, rpos)

    def _split_join_condition(self, condition: Optional[ast.Expr],
                              left: Frame, right: Frame):
        """Separate equi-join conjuncts (left expr, right expr) from the
        residual predicate."""
        if condition is None:
            return [], []
        equi: list[tuple[ast.Expr, ast.Expr]] = []
        residual: list[ast.Expr] = []
        for conjunct in nodes.split_conjuncts(condition):
            if (isinstance(conjunct, ast.BinaryOp)
                    and conjunct.op == "="):
                sides = self._classify_sides(conjunct, left, right)
                if sides is not None:
                    equi.append(sides)
                    continue
            residual.append(conjunct)
        return equi, residual

    def _classify_sides(self, eq: ast.BinaryOp, left: Frame,
                        right: Frame):
        def side_of(expr: ast.Expr) -> str | None:
            refs = nodes.column_refs(expr)
            if not refs:
                return None
            sides = set()
            for ref in refs:
                if self._resolvable(left, ref):
                    sides.add("left")
                elif self._resolvable(right, ref):
                    sides.add("right")
                else:
                    return "unknown"
            if len(sides) == 1:
                return sides.pop()
            return "both"

        left_side = side_of(eq.left)
        right_side = side_of(eq.right)
        if left_side == "left" and right_side == "right":
            return eq.left, eq.right
        if left_side == "right" and right_side == "left":
            return eq.right, eq.left
        return None

    @staticmethod
    def _resolvable(frame: Frame, ref: ast.ColumnRef) -> bool:
        try:
            frame.resolve(ref)
            return True
        except BindError:
            return False
