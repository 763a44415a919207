"""Physical planning and execution of shared logical plans.

Two layers live here:

* :func:`plan_physical` — the physical planner.  It walks an (optimized)
  logical plan and derives what the executor reads from it:

  - **shared subplans** (CSE): structurally identical RMA/subquery
    subtrees are counted; the executor memoizes their result relations so
    a repeated subplan executes once per statement;
  - **per-template analysis**: each expression's CSE slots and column
    references, each shareable subplan's parameter slots and each Filter's
    candidate-list key, so the runs of a statement template do not
    re-derive them.

  It reads no column data and no property bits: the operators read a
  column's sortedness and key properties when they run, as MonetDB's BAT
  operators do.

* :class:`Executor` — evaluates logical plans against a catalog, one
  method per node type, producing :class:`Frame` objects (rows of base
  relations plus name-resolution bindings).
  :class:`repro.api.database.Database` runs every plan through it,
  whether compiled from SQL text or built by a ``Matrix`` expression.
  Every equi-join takes one path,
  :func:`repro.relational.joins.join_positions`: it encodes the keys of
  both sides in one pass into shared codes (offsets for small integer
  domains) and probes a slot table when the right keys are unique, by
  counting otherwise.

Frames materialize late, the way MonetDB passes candidate lists and
positional joins between operators.  A frame holds, per source relation,
the base BATs and one position vector; Filter, Sort, LIMIT and joins
compose those vectors, and a column is gathered once, when something
first reads it.  A join whose side matches every row exactly once (the
FK→PK case) keeps that side's vectors and gathered columns unchanged.
Within one statement, Filters with the same predicate over the same scan
share one candidate list, frames reading one base column through one
position vector gather it once, and each expression computes a repeated
subexpression once.  An expression over a star join's small dimensions
runs once per distinct combination of their rows and is gathered to the
join's rows once (:meth:`Frame.domain`, :class:`ExpressionEvaluator`).

Because relations are immutable, the memoized CSE results share their
per-relation order caches across uses.  A scan or RMA result enters the
executor as a frame *view* of its relation (:meth:`Frame.from_relation`):
building it costs the same at any width, it mints internal names only
when a relational operator first resolves one, and
``Frame.to_plain_relation`` hands the relation object itself back in
constant time.  A relation that only passes from one RMA node to the next
thus reaches the prepare stage as the very same object, and derived
relations produced by ``merge_result`` keep their seeded order caches all
the way to the user (or the next operation).
"""

from __future__ import annotations

import functools
import itertools
import re
import threading
from dataclasses import dataclass, field
from typing import Any, Callable, NamedTuple, Optional, Sequence

import numpy as np

from repro.bat.bat import BAT, DataType, _encode_value
from repro.bat.catalog import Catalog
from repro.bat import kernels
from repro.core.config import RmaConfig, default_config
from repro.core.algebra import rma_operation
from repro.core.context import FusionFallback
from repro.core.ops import execute_fused
from repro.engine.pool import in_worker, run_tasks
from repro.errors import BindError, PlanError
from repro.plan.cache import PlanCache
import repro.relational.aggregate as rel_aggregate
import repro.relational.joins as rel_join
import repro.relational.ops as rel_ops
from repro.relational.relation import Relation, is_identity
from repro.relational.schema import Attribute, Schema
from repro.plan import nodes
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
    rows read as nil when a column is gathered.  ``gathered`` is the
    executor's table of gathered columns: sources that read one base
    column through one position vector object (the frames of a statement
    sharing a Filter's candidate list) gather it once.
    """

    __slots__ = ("columns", "positions", "nullable", "gathered")

    def __init__(self, columns: dict[str, BAT],
                 positions: np.ndarray | None = None,
                 nullable: bool = False,
                 gathered: dict[tuple, tuple] | None = None):
        self.columns = columns
        self.positions = positions
        self.nullable = nullable
        self.gathered = gathered

    def take(self, outer: np.ndarray, outer_nullable: bool = False) \
            -> "_Source":
        """This source seen through ``outer``, positions into its rows."""
        if self.positions is None:
            return _Source(self.columns, outer, outer_nullable,
                           self.gathered)
        if not outer_nullable:
            # -1 entries of a nullable source propagate through the gather.
            return _Source(self.columns, self.positions[outer],
                           self.nullable, self.gathered)
        positions = np.full(len(outer), -1, dtype=np.int64)
        hit = outer >= 0
        positions[hit] = self.positions[outer[hit]]
        return _Source(self.columns, positions, True, self.gathered)

    def gather(self, name: str) -> BAT:
        base = self.columns[name]
        if self.positions is None:
            return base
        if self.gathered is None:
            return self._gather(base)
        key = (id(base), id(self.positions), self.nullable)
        entry = self.gathered.get(key)
        if entry is None:
            # The entry holds the key's objects, so their ids stay unique
            # for as long as the table lives.
            entry = (base, self.positions, self._gather(base))
            self.gathered[key] = entry
        return entry[2]

    def _gather(self, base: BAT) -> BAT:
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
    :meth:`domain` codes rows by the positions of the sources an
    expression reads, so the expression can run over the distinct codes.

    A frame over a relation (:meth:`from_relation`) is a *view*: building
    it costs the same whatever the relation's width, and its bindings,
    sources and internal names are minted only when something first reads
    them (a relational operator resolving a name, a join combining it).
    ``origin`` is set only on a view, which nothing modifies, so
    :meth:`to_plain_relation` hands the relation itself back.  A relation
    that only passes from one RMA node to the next therefore costs no
    Python per column in the plan layer.
    """

    _counter = itertools.count(1)  # itertools: atomic under the GIL, so
    # concurrently evaluated subplans never mint the same internal name
    _mint_lock = threading.Lock()  # one minting per view, whoever asks

    def __init__(self, bindings: list[Binding], sources: list[_Source],
                 nrows: int, cache: dict[str, BAT] | None = None):
        self._bind(bindings, sources)
        self.nrows = nrows
        self.origin: Relation | None = None
        self._cache = cache if cache is not None else {}

    def _bind(self, bindings: list[Binding], sources: list[_Source]) -> None:
        # A later source overrides an earlier one for the names it holds;
        # sources no binding reads from are dropped.
        owner = {name: s for s in sources for name in s.columns}
        used = {id(owner[b.internal]) for b in bindings}
        self._owner = owner
        self.sources = [s for s in sources if id(s) in used]
        self.bindings = bindings

    @classmethod
    def _fresh(cls, hint: str) -> str:
        return f"{hint}#{next(cls._counter)}"

    @classmethod
    def from_relation(cls, relation: Relation, alias: Optional[str],
                      gathered: dict[tuple, tuple] | None = None) -> "Frame":
        """A view of ``relation``; ``gathered`` is the executor's table of
        shared gathers (see :class:`_Source`)."""
        frame = cls.__new__(cls)
        frame.nrows = relation.nrows
        frame.origin = relation
        frame._cache = {}
        frame._view = (alias, gathered)
        return frame

    def __getattr__(self, name: str):
        # Reached only for attributes not set yet: the bindings, sources
        # and owner table of a view before their first use.
        if name not in ("bindings", "sources", "_owner") \
                or "_view" not in self.__dict__:
            raise AttributeError(
                f"{type(self).__name__!r} object has no attribute {name!r}")
        with Frame._mint_lock:
            if "bindings" not in self.__dict__:
                alias, gathered = self._view
                relation = self.origin
                bindings = [Binding(alias, n, Frame._fresh(n))
                            for n in relation.names]
                self._bind(bindings, [_Source(
                    {b.internal: column
                     for b, column in zip(bindings, relation.columns)},
                    gathered=gathered)])
        return self.__dict__[name]

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
        return Frame(bindings, self.sources, self.nrows, dict(self._cache))

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

        A view (:meth:`from_relation`) returns its relation itself, in
        constant time and with its (possibly warm) order cache — the plan
        layer's cross-operation cache reuse depends on this passthrough.
        """
        if self.origin is not None:
            return self.origin
        visible = self.visible_bindings()
        names = [b.name for b in visible]
        if len(set(names)) != len(names):
            duplicates = sorted({n for n in names if names.count(n) > 1})
            raise BindError(
                f"duplicate output columns {duplicates}; add aliases")
        schema = Schema(Attribute(b.name, self.dtype(b.internal))
                        for b in visible)
        return Relation(schema, [self.bat(b.internal) for b in visible])

    def domain(self, internals: Sequence[str]) \
            -> "tuple[Frame, np.ndarray] | None":
        """The distinct rows of the sources ``internals`` are read from,
        as a frame, and each row's index into it; ``None`` unless every
        such source has a position vector and their base cardinalities
        (plus one for ``-1``) multiply to at most ``nrows / 8``.

        A row's code is its sources' positions as the digits of one mixed
        radix number, ``-1`` (a LEFT JOIN miss) a digit of its own.  The
        codes that occur, in code order, are the domain; the domain frame
        reads each source's base columns at their positions only, with the
        bindings of those sources.
        """
        owners: dict[int, tuple[_Source, int]] = {}
        for internal in internals:
            source = self._owner[internal]
            if source.positions is None:
                return None
            owners.setdefault(id(source),
                              (source, len(source.columns[internal])))
        strides = []
        size = 1
        for _, base in owners.values():
            strides.append(size)
            size *= base + 1
        if size * 8 > self.nrows:
            return None
        codes = None
        for (source, _), stride in zip(owners.values(), strides):
            digit = (source.positions + 1 if source.nullable
                     else source.positions)
            if codes is None:
                codes = digit  # the first stride is 1
            else:
                digit = digit * stride
                digit += codes
                codes = digit
        distinct = np.flatnonzero(np.bincount(codes, minlength=size))
        index = np.empty(size, dtype=np.int64)
        index[distinct] = np.arange(len(distinct), dtype=np.int64)
        sources = []
        for (source, base), stride in zip(owners.values(), strides):
            positions = distinct // stride % (base + 1)
            if source.nullable:
                positions -= 1
            sources.append(_Source(source.columns, positions,
                                   source.nullable))
        bindings = [b for b in self.bindings
                    if id(self._owner[b.internal]) in owners]
        return Frame(bindings, sources, len(distinct)), index[codes]

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

_MAX_LIKE_PATTERNS = 256
"""Compiled LIKE patterns kept per process (least recently used go)."""


@functools.lru_cache(maxsize=_MAX_LIKE_PATTERNS)
def _like_pattern(pattern: str) -> re.Pattern:
    regex = re.escape(pattern).replace("%", ".*").replace("_", ".")
    return re.compile(f"^{regex}$", re.IGNORECASE)


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
    slots: dict[int, int]  # CSE slots (_repeated_subtrees)
    refs: tuple[ast.ColumnRef, ...]  # the distinct column references
    # Reads a column, is not a bare one, and holds no aggregate: may be
    # evaluated over the domain of the sources it reads.
    per_domain: bool


def expr_info(expr: ast.Expr) -> ExprInfo:
    refs = tuple(dict.fromkeys(nodes.column_refs(expr)))
    per_domain = (bool(refs) and not isinstance(expr, ast.ColumnRef)
                  and not nodes.contains_aggregate(expr))
    return ExprInfo(expr, _repeated_subtrees(expr), refs, per_domain)


class ExpressionEvaluator:
    """Vectorized evaluation of AST expressions over a frame.

    ``params`` binds the :class:`~repro.sql.ast.Param` slots of a
    statement template.  ``infos`` holds the planner's :class:`ExprInfo`
    of the plan's expressions (by ``id``); other expressions are analysed
    when evaluated.  ``count`` is called with ``"domain_evaluations"``
    for each domain evaluation.

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
        self._slots: dict[int, int] = {}
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
        self._slots = info.slots
        try:
            return self._eval(info.expr)
        finally:
            self._slots, self._memo = {}, {}

    def _eval_over_domain(self, info: ExprInfo) -> Any:
        """The expression evaluated over the domain of its sources and
        gathered to the rows, or ``None`` when the domain is too large
        (or a reference does not resolve: the per-row path raises)."""
        try:
            internals = [self.frame.resolve(ref) for ref in info.refs]
        except BindError:
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

    def _eval_param(self, expr: ast.Param) -> Any:
        return self.params[expr.slot]

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

    ``shared`` counts the occurrences of each shareable subplan (its CSE
    key) that occurs more than once.  The rest is the plan's analysis that
    every run of a statement template would otherwise redo: ``exprs`` maps
    ``id(expr)`` to the :class:`ExprInfo` of each expression the nodes
    evaluate (join conditions down to their conjuncts' sides),
    ``bound_slots`` maps each shareable subplan (its CSE key) to the
    parameter slots its result depends on, and ``filter_keys`` maps each
    Filter to its candidate-list key (:func:`_filter_key`) and the column
    references it must resolve.
    """

    shared: dict[nodes.Plan, int] = field(default_factory=dict)
    exprs: dict[int, ExprInfo] = field(default_factory=dict)
    bound_slots: dict[nodes.Plan, tuple[int, ...]] = field(
        default_factory=dict)
    filter_keys: dict[nodes.Filter, tuple] = field(default_factory=dict)


def plan_physical(plan: nodes.Plan) -> PhysicalInfo:
    """Derive physical annotations (shared subplans, per-template
    analysis)."""
    return _PhysicalPlanner().annotate(plan)


class _PhysicalPlanner:
    def __init__(self):
        self.info = PhysicalInfo()
        self._templated = False  # whether an expression reads a Param

    def annotate(self, plan: nodes.Plan) -> PhysicalInfo:
        # Walk by reference, not structure: each *occurrence* of a node is
        # counted (that is what CSE sharing means), but an object reused in
        # several places — Matrix expressions share subplan objects — has
        # its subtree descended only once, keeping the walk linear even for
        # deeply diamond-shaped plans.
        visited: set[int] = set()
        stack = [plan]
        while stack:
            node = stack.pop()
            if isinstance(node, (nodes.Rma, nodes.FusedRma,
                                 nodes.SubqueryScan)):
                key = _cse_key(node)
                self.info.shared[key] = self.info.shared.get(key, 0) + 1
            if id(node) in visited:
                continue
            visited.add(id(node))
            self._analyse(node)
            stack.extend(node.children())
        if self._templated:
            self.info.bound_slots = {key: nodes.param_slots(key)
                                     for key in self.info.shared}
        self.info.shared = {k: c for k, c in self.info.shared.items()
                            if c > 1}
        return self.info

    def _analyse(self, node: nodes.Plan) -> None:
        """Record the per-template analysis of one node (see
        :class:`PhysicalInfo`)."""
        exprs = list(nodes.node_exprs(node))
        if isinstance(node, nodes.JoinPlan) and node.condition is not None:
            for conjunct in nodes.split_conjuncts(node.condition):
                exprs.append(conjunct)
                exprs.extend(nodes.expr_children(conjunct))
        for expr in exprs:
            if id(expr) not in self.info.exprs:
                self.info.exprs[id(expr)] = expr_info(expr)
                self._templated = self._templated or any(
                    isinstance(e, ast.Param) for e in nodes.walk_expr(expr))
        if isinstance(node, nodes.Filter):
            self.info.filter_keys[node] = (
                _filter_key(node), tuple(nodes.column_refs(node.predicate)))


def _filter_key(plan: nodes.Filter):
    """Key of the statement-scoped candidate list of a Filter directly
    over a table or relation scan, or ``None``.

    Filters with the same predicate over the same leaf share one
    candidate list whatever their ``Prune`` lists and aliases: column
    references lose their qualifier (``Executor._candidate_key`` first
    checks that they resolve).
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
    return source, nodes.replace_expr(
        plan.predicate, {ref: ast.ColumnRef(ref.name) for ref in refs})


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
    # Expressions evaluated over their sources' domain, then gathered.
    domain_evaluations: int = 0
    # Results not stored because their key was seen for the first time.
    deferred_admissions: int = 0


class Executor:
    """Evaluates logical plans against a catalog.

    ``physical`` carries the planner's annotations (shared subplans and
    per-template analysis); when omitted, the executor derives the
    analysis as it goes.  ``params`` binds the
    :class:`~repro.sql.ast.Param` slots of a statement template.
    Repeated RMA/subquery subplans execute once per statement (CSE;
    ``stats.cse_hits`` counts the reuses).  ``result_cache`` is an
    optional *session-scoped* :class:`repro.plan.cache.PlanCache`:
    shareable subplan results found there skip execution entirely, and
    freshly computed ones are stored for later statements (stamped with
    catalog table versions, so catalog mutations invalidate exactly the
    affected entries, and keyed with the values bound to the subplan's
    slots) once their key is sighted a second time
    (:meth:`~repro.plan.cache.PlanCache.sighted`;
    ``stats.deferred_admissions`` counts the first sightings).

    An executor runs one binding: its per-statement state — the CSE memo,
    shared candidate lists and gathered columns — is keyed by plan
    structure alone and lives as long as the executor.
    """

    def __init__(self, catalog: Catalog, config: RmaConfig | None = None,
                 physical: PhysicalInfo | None = None,
                 result_cache: "PlanCache | None" = None,
                 params: Sequence[Any] = ()):
        self.catalog = catalog
        self.config = config or default_config()
        self.physical = physical or PhysicalInfo()
        self.result_cache = result_cache
        self.params = tuple(params)
        self.stats = ExecStats()
        self._memo: dict[nodes.Plan, Relation] = {}
        # Filter candidate lists shared within the statement
        # (see _candidate_key).
        self._candidates: dict[tuple, np.ndarray] = {}
        # Columns gathered through a position vector, shared by every
        # frame that reads the same base column through the same vector.
        self._gathered: dict[tuple, tuple] = {}
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
        racing the first to compute the same subtree twice.  Work shared
        *below* distinct siblings is done once up front
        (:meth:`_prerun_shared`), so the concurrent siblings find it
        rather than each recomputing it.
        """
        if (len(plans) > 1 and self.config.parallel.active()
                and not in_worker()
                and len({_cse_key(p) for p in plans}) == len(plans)):
            self._prerun_shared(plans)
            return run_tasks([lambda p=p: self.run(p) for p in plans])
        return [self.run(p) for p in plans]

    def _prerun_shared(self, plans: "Sequence[nodes.Plan]") -> None:
        """Run the work that occurs in several siblings, once.

        That is CSE-shared subtrees (the planner's annotation knows them)
        and Filters sharing a candidate list (:func:`_filter_key`).  It
        runs on the calling thread before the siblings fan out, so no
        sibling waits on another.
        """
        per_sibling = [self._shareable(plan) for plan in plans]
        seen: set = set()
        for i, work in enumerate(per_sibling):
            for key, run in work.items():
                if key not in seen and any(
                        key in other for other in per_sibling[i + 1:]):
                    run()
                seen.add(key)

    def _shareable(self, plan: nodes.Plan) -> dict:
        """Work in ``plan`` that a sibling may repeat: key -> thunk."""
        work: dict = {}
        for node in nodes.walk_plan(plan):
            if isinstance(node, nodes.Filter):
                key = self._filter_key(node)[0]
                if key is not None:
                    work.setdefault(key, lambda n=node: self.run(n))
            elif isinstance(node, (nodes.Rma, nodes.FusedRma)):
                key = _cse_key(node)
                if key in self.physical.shared:
                    # Normalized nodes are themselves runnable; running
                    # them populates the memo under exactly this key.
                    work.setdefault(key, lambda k=key: self.run(k))
            elif isinstance(node, nodes.SubqueryScan):
                key = _cse_key(node)
                if key in self.physical.shared:
                    work.setdefault(key, functools.partial(
                        self._memoized_relation, key,
                        lambda k=key: self.run(k).to_plain_relation()))
        return work

    def _sibling_relations(self, plans: "Sequence[nodes.Plan]") \
            -> list[Relation]:
        return [frame.to_plain_relation()
                for frame in self._run_siblings(plans)]

    def _evaluator(self, frame: Frame) -> ExpressionEvaluator:
        return ExpressionEvaluator(frame, self.params, self.physical.exprs,
                                   self._bump)

    def _frame(self, relation: Relation, alias: Optional[str]) -> Frame:
        return Frame.from_relation(relation, alias, self._gathered)

    def _bound(self, plan: nodes.Plan) -> tuple:
        """The values bound to the parameter slots ``plan`` reads, as
        literals: they compare by type too, so ``1`` and ``1.0`` bound to
        the same subplan of two templates key different results."""
        if not self.params:
            return ()
        slots = self.physical.bound_slots.get(plan)
        if slots is None:
            slots = nodes.param_slots(plan)
        return tuple(ast.Literal(self.params[slot]) for slot in slots)

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
        admitted = False
        if self.result_cache is not None:
            bound = self._bound(key)
            admitted = self.result_cache.sighted(key, bound)
            if not admitted:
                self._bump("deferred_admissions")
            else:
                relation = self.result_cache.get(key, self.catalog,
                                                 self.config, bound)
                if relation is not None:
                    self._bump("cache_hits")
                    with self._lock:
                        self._memo[key] = relation
                    return relation
        relation = compute()
        with self._lock:
            self._memo[key] = relation
        if admitted:
            self.result_cache.put(key, self.catalog, self.config, relation,
                                  bound)
        return relation

    # -- leaves -------------------------------------------------------------------

    def _run_scan(self, plan: nodes.Scan) -> Frame:
        if plan.table == "_dual":
            relation = Relation.from_columns({"_one": [1]})
            return self._frame(relation, None)
        return self._frame(self.catalog.get(plan.table), plan.alias)

    def _run_relscan(self, plan: nodes.RelScan) -> Frame:
        return self._frame(plan.relation, plan.alias)

    def _run_subqueryscan(self, plan: nodes.SubqueryScan) -> Frame:
        relation = self._memoized_relation(
            plan.plan, lambda: self.run(plan.plan).to_plain_relation())
        return self._frame(relation, plan.alias)

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
        return self._frame(relation, plan.alias)

    def _run_fusedrma(self, plan: nodes.FusedRma) -> Frame:
        relation = self._memoized_relation(
            _cse_key(plan), lambda: self._execute_fused(plan))
        return self._frame(relation, plan.alias)

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
        # A list that concurrent siblings share is already here: it was
        # computed before they fanned out (_prerun_shared).
        positions = self._candidates.get(key)
        if positions is None:
            positions = _true_positions(
                self._evaluator(frame).mask(plan.predicate))
            if key is not None:
                self._candidates[key] = positions
        if len(positions) == frame.nrows:
            return frame  # every row qualifies
        return frame.select_positions(positions)

    def _filter_key(self, plan: nodes.Filter) -> tuple:
        """(:func:`_filter_key`, the predicate's column references), from
        the planner's analysis when it has the node."""
        entry = self.physical.filter_keys.get(plan)
        if entry is None:
            entry = (_filter_key(plan),
                     tuple(nodes.column_refs(plan.predicate)))
        return entry

    def _candidate_key(self, plan: nodes.Filter, frame: Frame):
        """:func:`_filter_key`, or ``None`` when a column reference does
        not resolve in ``frame``: then evaluation raises its binding
        error instead of reusing another Filter's list."""
        key, refs = self._filter_key(plan)
        if key is None or not all(self._resolvable(frame, ref)
                                  for ref in refs):
            return None
        return key

    def _run_prune(self, plan: nodes.Prune) -> Frame:
        frame = self.run(plan.child)
        keep = [b for b in frame.bindings if b.name in plan.names]
        if not keep or len(keep) == len(frame.bindings):
            return frame
        return frame.with_bindings(keep)

    def _run_project(self, plan: nodes.Project) -> Frame:
        frame = self.run(plan.child)
        evaluator = self._evaluator(frame)
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
        evaluator = self._evaluator(frame)
        positions = np.arange(frame.nrows, dtype=np.int64)
        for item in reversed(plan.items):
            value = evaluator.eval(item.expr)
            column = _broadcast(value, frame.nrows)
            key = column.tail[positions]
            positions = positions[rel_ops.stable_argsort(key,
                                                         item.descending)]
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
        evaluator = self._evaluator(frame)
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

        Group ids are the grouping codes themselves (in the order
        ``group_by`` emits its rows).  The distinct pairs are grouped by
        the same encoder, and each pair's first row names its group, so
        one ``bincount`` counts them.
        """
        if key_names:
            gids = rel_join.group_codes(work.bats(key_names))[0]
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
            _, first, _ = rel_join.group_codes(
                [BAT(DataType.INT, groups), values])
            counts = np.bincount(groups[first], minlength=ngroups)
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
                self._evaluator(frame).mask(plan.condition)))
        left_keys = [self._evaluator(left).eval(e) for e, _ in equi]
        right_keys = [self._evaluator(right).eval(e) for _, e in equi]
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
        lpos, rpos = rel_join.join_positions(left_keys, right_keys, how=how)
        lpos, rpos = _remap(lpos, lrows), _remap(rpos, rrows)
        if residual:
            frame = Frame.joined(left, right, lpos, rpos)
            keep = _true_positions(
                self._evaluator(frame).mask(nodes.conjoin(residual)))
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
