"""The ``Matrix`` expression handle: linear algebra over relations, lazily.

A :class:`Matrix` is the paper's central object made first-class: an ordered
relation *is* a matrix, so users write matrix algebra over relations
directly and the column store optimizes the whole expression.  Handles are
created by :meth:`repro.api.database.Database.matrix` and compose through

* **operators** — ``a @ b`` (mmu), ``a + b`` / ``a - b`` / ``a * b``
  (element-wise add/sub/emu), scalar arithmetic ``2.0 * a``, ``a + 1.0``,
  ``-a``, ``a / 3`` (the kernel-layer scalar variants), and ``a.T``
  (transpose);
* **named methods** — one per Table 2 operation and scalar variant,
  generated from the declarative op table (:mod:`repro.opspec`):
  ``a.inv()``, ``a.qqr()``, ``a.sol(rhs)``, ``a.cpd(b)``, ``a.smul(2.0)``,
  ...;
* **relational operators** — ``filter``, ``select``, ``join``, ``sort``,
  ``limit`` and ``distinct``, with predicates and projections written in
  the ``col``/``lit`` DSL (:mod:`repro.plan.expr`).  Each keeps the
  handle's order schema, so the result chains into the next matrix
  operation.

Nothing executes until :meth:`Matrix.collect`.  Every composition step
builds a node of the shared plan IR (:mod:`repro.plan.nodes`) — the same IR
SQL statements compile into — so a chained
"eager-looking" expression gets the whole plan stack for free: element-wise
fusion into one kernel pass (:class:`~repro.plan.nodes.FusedRma`),
common-subexpression elimination, the session's byte-budget plan/result
cache, and the morsel-parallel engine.  :meth:`Matrix.explain` prints the
optimized plan with its physical annotations.

The order schema of every intermediate is inferred from the paper's shape
types (:mod:`repro.api.inference`), which is what lets ``(a @ b + c).T``
chain without re-stating ``BY`` lists at each step.
"""

from __future__ import annotations

import numbers
from typing import TYPE_CHECKING, Optional, Sequence

from repro.api import inference
from repro.core.config import RmaConfig
from repro.errors import PlanError
from repro.opspec import OPS, SCALAR_OPS, spec_of
from repro.plan import nodes
from repro.plan.build import build_rma
from repro.plan.explain import explain_lines
from repro.plan.expr import Col, as_expr
from repro.relational.relation import Relation
from repro.sql import ast

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.api.database import Database


class Matrix:
    """A lazy matrix expression over relations (see module docstring).

    Handles are immutable: every operation returns a new handle wrapping a
    new plan node.  Reusing a handle in two places of one expression builds
    *equal* subplans, which the executor recognizes and runs once (CSE) —
    ``gram = a.cpd(a)`` then ``gram.inv() @ gram`` evaluates the cross
    product a single time.
    """

    __slots__ = ("_db", "_plan", "_by", "_app", "_parts")

    def __init__(self, db: "Database", plan: nodes.Plan,
                 by: Sequence[str], app: Optional[Sequence[str]] = None,
                 parts: Optional[tuple[tuple[str, ...], ...]] = None):
        self._db = db
        self._plan = plan
        self._by = tuple(by)
        self._app = tuple(app) if app is not None else None
        # The order schema grouped by originating operand: element-wise
        # results carry one aligned order part per operand (U ∘ V), and
        # narrow() needs the first *group*, not the first attribute.
        self._parts = parts if parts is not None else (self._by,)

    # -- introspection ------------------------------------------------------

    @property
    def plan(self) -> nodes.Plan:
        """The (un-optimized) logical plan built so far."""
        return self._plan

    @property
    def by(self) -> tuple[str, ...]:
        """The order schema identifying this expression's rows."""
        return self._by

    @property
    def app_names(self) -> Optional[tuple[str, ...]]:
        """The application schema, or None when data-dependent (e.g. after
        a transpose, whose column names are order *values*)."""
        return self._app

    @property
    def database(self) -> "Database":
        return self._db

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        app = ", ".join(self._app) if self._app is not None else "?"
        return (f"Matrix({type(self._plan).__name__}; "
                f"by=({', '.join(self._by)}); app=({app}))")

    # -- expression building ------------------------------------------------

    def _coerce(self, other: "Matrix | Relation", op: str,
                by: "str | Sequence[str] | None") -> "Matrix":
        if isinstance(other, Matrix):
            if other._db is not self._db:
                raise PlanError(
                    f"{op}: operands belong to different databases")
            if by is not None:
                raise PlanError(
                    f"{op}: by= is only for plain-relation operands; the "
                    "Matrix operand already carries its order schema")
            return other
        if isinstance(other, Relation):
            if by is None:
                raise PlanError(
                    f"{op}: a plain Relation operand needs by=...")
            return self._db.matrix(other, by=by)
        raise PlanError(
            f"{op}: expected a Matrix or Relation operand, got "
            f"{type(other).__name__}")

    def _unary(self, op: str, scalar: Optional[float] = None) -> "Matrix":
        spec = spec_of(op)
        lhs = self._narrowed_for(spec, argument=1)
        inference.check_operands(spec, lhs._by)
        plan = build_rma(op, (lhs._plan,), (lhs._by,), scalar=scalar)
        return Matrix(self._db, plan, inference.result_by(spec, lhs._by),
                      inference.result_app(spec, lhs._app),
                      _result_parts(spec, lhs._parts))

    def _binary(self, op: str, other: "Matrix | Relation",
                by: "str | Sequence[str] | None" = None) -> "Matrix":
        spec = spec_of(op)
        rhs = self._coerce(other, op, by)
        lhs = self._narrowed_for(spec, argument=1)
        rhs = rhs._narrowed_for(spec, argument=2)
        inference.check_operands(spec, lhs._by, rhs._by)
        plan = build_rma(op, (lhs._plan, rhs._plan), (lhs._by, rhs._by))
        return Matrix(self._db, plan,
                      inference.result_by(spec, lhs._by, rhs._by),
                      inference.result_app(spec, lhs._app, rhs._app),
                      _result_parts(spec, lhs._parts, rhs._parts))

    def _narrowed_for(self, spec, argument: int) -> "Matrix":
        """Auto-narrow a composite order part for column-cast operands.

        ``(a @ b + 2.0 * c - d).T`` leaves the chain result keyed by the
        concatenation of every operand's order schema; the transpose (and
        the other column-cast operations) need the single identifying
        schema, so the aligned copies the element-wise steps attached are
        projected away first (see :meth:`narrow`).  Only fires when it
        provably helps: a single-part handle is returned unchanged, and
        narrowing a multi-part handle down to a still-composite first
        schema leaves the usual precondition error to ``check_operands``.
        """
        if argument in spec.order_card_one and len(self._parts) > 1:
            return self.narrow()
        return self

    def narrow(self) -> "Matrix":
        """Reduce a composite order part to its first order schema.

        Element-wise results carry one order part per operand (schema
        ``U ∘ V ∘ U-bar``); the parts are aligned key copies identifying
        the same rows, so keeping only the first loses no row identity —
        it drops redundant provenance.  Requires a statically known
        application schema (projection needs column names).
        """
        if len(self._parts) <= 1:
            return self
        if self._app is None:
            raise PlanError(
                "narrow: application schema is data-dependent; project "
                "the relation explicitly (.select(...))")
        keep = self._parts[0] + self._app
        plan = nodes.Prune(self._plan, keep)
        return Matrix(self._db, plan, self._parts[0], self._app,
                      (self._parts[0],))

    def ordered_by(self, by: "str | Sequence[str]") -> "Matrix":
        """The same expression re-keyed by a different order schema.

        The order schema splits the relation into order and application
        part for the *next* operation, so re-keying is free — it only
        changes how subsequent operations read this handle.
        """
        names = (by,) if isinstance(by, str) else tuple(by)
        if not names:
            raise PlanError("ordered_by: order schema must not be empty")
        app = None
        if self._app is not None:
            # Statically known schema: an unknown name is a certain error
            # — surface it here, at the call site, like Database.matrix
            # does for plain relations.  Data-dependent schemas (app is
            # None) can only be checked at execution time.
            known = set(self._by) | set(self._app)
            missing = [n for n in names if n not in known]
            if missing:
                from repro.errors import OrderSchemaError
                raise OrderSchemaError(
                    f"order attribute(s) {', '.join(map(repr, missing))} "
                    f"not in schema ({', '.join(self._by + self._app)})")
            app = tuple(n for n in self._by + self._app
                        if n not in names)
        return Matrix(self._db, self._plan, names, app, (names,))

    # -- operator overloading ----------------------------------------------

    def __matmul__(self, other: "Matrix") -> "Matrix":
        return self._binary("mmu", other)

    def __add__(self, other):
        if isinstance(other, Matrix):
            return self._binary("add", other)
        if isinstance(other, numbers.Real):
            return self._unary("sadd", scalar=float(other))
        return NotImplemented

    def __radd__(self, other):
        if isinstance(other, numbers.Real):
            return self._unary("sadd", scalar=float(other))
        return NotImplemented

    def __sub__(self, other):
        if isinstance(other, Matrix):
            return self._binary("sub", other)
        if isinstance(other, numbers.Real):
            return self._unary("ssub", scalar=float(other))
        return NotImplemented

    def __rsub__(self, other):
        # c - M has no dedicated kernel: negate, then shift (both fuse
        # into the surrounding element-wise chain anyway).
        if isinstance(other, numbers.Real):
            return self._unary("smul", scalar=-1.0) \
                       ._unary("sadd", scalar=float(other))
        return NotImplemented

    def __mul__(self, other):
        if isinstance(other, Matrix):
            return self._binary("emu", other)
        if isinstance(other, numbers.Real):
            return self._unary("smul", scalar=float(other))
        return NotImplemented

    def __rmul__(self, other):
        if isinstance(other, numbers.Real):
            return self._unary("smul", scalar=float(other))
        return NotImplemented

    def __truediv__(self, other):
        if isinstance(other, numbers.Real):
            return self._unary("sdiv", scalar=float(other))
        return NotImplemented

    def __neg__(self) -> "Matrix":
        return self._unary("smul", scalar=-1.0)

    @property
    def T(self) -> "Matrix":
        """Transpose (``tra``); requires a single-attribute order schema."""
        return self._unary("tra")

    # -- relational operators -----------------------------------------------

    def _relational(self, plan: nodes.Plan,
                    app: Optional[Sequence[str]]) -> "Matrix":
        """A handle over ``plan`` keeping this handle's order schema."""
        return Matrix(self._db, plan, self._by, app, self._parts)

    def filter(self, predicate: "Col | ast.Expr") -> "Matrix":
        """The rows satisfying ``predicate`` (e.g. ``col("val") > 1.0``)."""
        return self._relational(
            nodes.Filter(self._plan, as_expr(predicate)), self._app)

    def select(self, *items: "str | Col | ast.Expr") -> "Matrix":
        """Project expressions; strings select columns by name.

        The order attributes must stay in the output (the result is still
        a matrix keyed by them), or :class:`~repro.errors.PlanError` is
        raised.  Selecting plain columns keeps the application schema
        known; computed or renamed columns make it data-dependent.
        """
        select_items = tuple(_select_item(item) for item in items)
        names = [item.alias or nodes.default_output_name(item.expr, i)
                 for i, item in enumerate(select_items)]
        missing = [n for n in self._by if n not in names]
        if missing:
            raise PlanError(
                f"select: order attribute(s) "
                f"{', '.join(map(repr, missing))} must be kept")
        plain = all(isinstance(item.expr, ast.ColumnRef)
                    and item.alias in (None, item.expr.name)
                    for item in select_items)
        app = tuple(n for n in names if n not in self._by) if plain \
            else None
        return self._relational(nodes.Project(self._plan, select_items),
                                app)

    def join(self, other: "Matrix", on: "Col | ast.Expr") -> "Matrix":
        """Inner join with another handle of this database on an expression.

        Qualify column references with the scan aliases
        (``db.matrix(r, by="id", name="l")`` -> ``col("id", "l")``).  The
        result keeps this handle's order schema; its application schema
        becomes data-dependent.
        """
        if not isinstance(other, Matrix):
            raise PlanError(
                f"join: expected a Matrix, got {type(other).__name__}")
        if other._db is not self._db:
            raise PlanError("join: operands belong to different databases")
        return self._relational(
            nodes.JoinPlan("inner", self._plan, other._plan, as_expr(on)), None)

    def sort(self, *names: str) -> "Matrix":
        """Rows in ascending order of the named columns."""
        items = tuple(ast.OrderItem(ast.ColumnRef(n)) for n in names)
        return self._relational(nodes.Sort(self._plan, items), self._app)

    def limit(self, count: int) -> "Matrix":
        """The first ``count`` rows."""
        return self._relational(nodes.Limit(self._plan, count),
                                self._app)

    def distinct(self) -> "Matrix":
        """Duplicate rows removed."""
        return self._relational(nodes.Distinct(self._plan), self._app)

    # -- execution ----------------------------------------------------------

    def collect(self, config: Optional[RmaConfig] = None,
                **overrides) -> Relation:
        """Optimize, plan and execute the expression; returns the relation.

        Runs on the owning database's executor with its session-scoped
        caches (statement-plan and subplan-result).  ``config`` replaces
        the session configuration for this call; keyword overrides patch
        individual knobs (``validate_keys=False``, ``parallel=True``,
        ``fuse_elementwise=False``, ...) on top of it — the same knobs
        :meth:`repro.api.database.Database.configure` accepts.
        """
        return self._db._run(self._plan,
                             self._db._call_config(config, overrides))

    def explain(self, config: Optional[RmaConfig] = None,
                **overrides) -> str:
        """The optimized plan with physical annotations, as text.

        Fused element-wise chains show up as one ``FusedRma`` node;
        repeated subexpressions are annotated ``shared xN``.
        """
        planned, info = self._db._plan(
            self._plan, self._db._call_config(config, overrides))
        return "\n".join(explain_lines(planned, info))


def _select_item(item: "str | Col | ast.Expr") -> ast.SelectItem:
    if isinstance(item, str):
        return ast.SelectItem(ast.ColumnRef(item), None)
    if isinstance(item, Col):
        return ast.SelectItem(item.expr, item.out_name)
    return ast.SelectItem(item, None)


def _result_parts(spec, parts1, parts2=None):
    """Order-schema groups of a result (see ``Matrix._parts``).

    Must stay in lockstep with :func:`repro.api.inference.result_by`:
    ``_parts`` flattened equals ``_by`` on every handle.
    """
    x = spec.shape_type[0]
    if x == "r1":
        return parts1
    if x == "r*":
        assert parts2 is not None
        return parts1 + parts2
    return ((inference.CONTEXT_ATTRIBUTE,),)


def _unary_method(name: str, doc: str):
    def method(self: Matrix) -> Matrix:
        return self._unary(name)
    method.__name__ = name
    method.__qualname__ = f"Matrix.{name}"
    method.__doc__ = doc
    return method


def _binary_method(name: str, doc: str):
    def method(self: Matrix, other: "Matrix | Relation",
               by: "str | Sequence[str] | None" = None) -> Matrix:
        return self._binary(name, other, by)
    method.__name__ = name
    method.__qualname__ = f"Matrix.{name}"
    method.__doc__ = doc
    return method


def _scalar_method(name: str, doc: str):
    def method(self: Matrix, value: float) -> Matrix:
        return self._unary(name, scalar=float(value))
    method.__name__ = name
    method.__qualname__ = f"Matrix.{name}"
    method.__doc__ = doc
    return method


_OPERATOR_HINTS = {
    "add": "a + b", "sub": "a - b", "emu": "a * b", "mmu": "a @ b",
    "tra": "a.T", "sadd": "a + c", "ssub": "a - c", "smul": "c * a",
    "sdiv": "a / c",
}


def _document(spec) -> str:
    """Generate a method docstring from the declarative op table."""
    shape = f"shape type ({spec.shape_type[0]}, {spec.shape_type[1]})"
    if spec.scalar:
        head = (f"Scalar variant ``{spec.name}``: element-wise against a "
                f"constant; {shape}.")
    elif spec.arity == 1:
        head = f"Table 2 operation ``{spec.name}``; {shape}."
    else:
        head = (f"Table 2 operation ``{spec.name}`` over two matrices; "
                f"{shape}.  ``other`` is a Matrix, or a plain Relation "
                "with ``by=...``.")
    hint = _OPERATOR_HINTS.get(spec.name)
    if hint is not None:
        head += f"  Also spelled ``{hint}``."
    head += ("\n\n        Lazy: returns a new expression handle; "
             "``.collect()`` executes.\n        ")
    return head


def install_operations(cls=Matrix) -> None:
    """Attach one method per Table 2 operation / scalar variant to
    :class:`Matrix`, generated from :mod:`repro.opspec` — the op table is
    the single source of truth for arity and documentation."""
    for name, spec in OPS.items():
        factory = _unary_method if spec.arity == 1 else _binary_method
        setattr(cls, name, factory(name, _document(spec)))
    for name, spec in SCALAR_OPS.items():
        setattr(cls, name, _scalar_method(name, _document(spec)))


install_operations()
