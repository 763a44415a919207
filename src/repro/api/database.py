"""The session-scoped front door: ``repro.connect()`` -> :class:`Database`.

A :class:`Database` is the one entry point behind which every lazy user
surface compiles into the shared plan IR (:mod:`repro.plan.nodes`) and
executes on the shared executor (:mod:`repro.plan.physical`):

* :meth:`Database.matrix` returns a lazy :class:`~repro.api.matrix.Matrix`
  expression handle (operator overloading, one method per Table 2
  operation, and the relational operators ``filter``/``select``/``join``/
  ``sort``/``limit``/``distinct``) — chained eager-style code gets
  element-wise fusion, CSE, the byte-budget plan/result cache and the
  morsel-parallel engine for free;
* :meth:`Database.execute` runs SQL statements (the paper's §7.2 front
  end), sharing the same subplan-result cache.

Both go through one planning function (``_plan``: build, optimize,
physically plan, cached) and one run function (``_run``: plan, then
execute on a fresh :class:`~repro.plan.physical.Executor`).  A database
owns three session-scoped caches, all invalidated precisely (catalog
table versions + config cache tokens):

* a **template cache** for SQL: statements are keyed by their shape,
  the token stream with its number, string, ``DATE`` and ``TIME``
  literals taken out (:func:`repro.sql.parser.literal_slots`).  Each
  shape is parsed once into a template whose literals are parameter
  slots, and the template's query is built, optimized and physically
  planned once; every execution binds that statement's literal values
  to the slots.  Statements that differ only in a date window share one
  plan; ``LIMIT``/``OFFSET`` counts and literal types are part of the
  shape.  A warm statement finds its template without the tokenizer,
  by a first-level key of its text (:func:`repro.sql.parser.literal_key`);
* a **plan cache** for ``Matrix`` expressions (plan node -> optimized
  plan + physical annotations);
* a **result cache** (:class:`repro.plan.cache.PlanCache`): repeated
  RMA/subquery subplans — across statements *and* across surfaces —
  return their memoized relations.

``Database(plan_cache=False)`` disables all three (the fully-uncached mode
that replays a stream of statements as a reference, as rmabench's
``sql_session`` check does): each statement is parsed with its literals
in place and planned afresh.

A session has one configuration, an :class:`~repro.core.config.RmaConfig`
(``None`` means the process default).  Set it when connecting or by
assigning ``db.config``; ``Matrix.collect(config=...)`` and
``Matrix.explain(config=...)`` replace it for one call:

>>> db = connect(config=RmaConfig(validate_keys=False))
>>> db.config = RmaConfig(parallel=ParallelConfig(enabled=True))
>>> m.collect(config=RmaConfig())              # this call only

Plans are always optimized, element-wise fusion included.
"""

from __future__ import annotations

import threading
from typing import Any, Optional, Sequence

from repro.bat.bat import DataType
from repro.bat.catalog import Catalog
from repro.core.config import RmaConfig, default_config
from repro.core.context import check_order_names
from repro.errors import BindError, PlanError, SqlError
from repro.plan import nodes
from repro.plan.build import build_select
from repro.plan.cache import LruDict, PlanCache, catalog_stamps
from repro.plan.explain import explain_lines
from repro.plan.optimizer import optimize
from repro.plan.physical import (
    Executor,
    ExpressionEvaluator,
    Frame,
    PhysicalInfo,
    plan_physical,
)
from repro.api.matrix import Matrix
from repro.relational.relation import Relation
from repro.relational.ops import union_all
from repro.sql import ast
from repro.sql.lexer import tokenize
from repro.sql.parser import literal_key, literal_slots, parse_sql

_MAX_CACHED_STATEMENTS = 256

_TYPE_NAMES = {
    "INT": DataType.INT, "INTEGER": DataType.INT, "BIGINT": DataType.INT,
    "SMALLINT": DataType.INT,
    "DOUBLE": DataType.DBL, "FLOAT": DataType.DBL, "REAL": DataType.DBL,
    "DECIMAL": DataType.DBL, "NUMERIC": DataType.DBL,
    "VARCHAR": DataType.STR, "CHAR": DataType.STR, "TEXT": DataType.STR,
    "STRING": DataType.STR,
    "DATE": DataType.DATE, "TIME": DataType.TIME,
    "BOOLEAN": DataType.BOOL, "BOOL": DataType.BOOL,
}

class _Template:
    """A statement parsed with its literals as parameter slots, and the
    planned form of its query (``None`` until first planned)."""

    __slots__ = ("statement", "plan")

    def __init__(self, statement: ast.Statement):
        self.statement = statement
        # (optimized plan, physical info, catalog stamps, config token)
        self.plan: tuple | None = None


def _scans_in_memory_relations(plan: nodes.Plan) -> bool:
    """Whether any leaf is a ``RelScan`` (id-deduplicated walk, DAG-safe:
    expression plans share subtree objects, e.g. a Gram matrix used on
    both sides of a solve)."""
    stack, seen = [plan], set()
    while stack:
        node = stack.pop()
        if id(node) in seen:
            continue
        seen.add(id(node))
        if isinstance(node, nodes.RelScan):
            return True
        stack.extend(node.children())
    return False


class Database:
    """A connection-like object bound to a catalog (see module docstring).

    >>> db = connect()
    >>> db.register("rating", some_relation)
    >>> m = db.matrix("rating", by="User")
    >>> (m.inv() @ m).collect()            # one plan, fused + cached
    >>> db.execute("SELECT * FROM INV(rating BY User)")   # same plan IR
    """

    def __init__(self, catalog: Catalog | None = None,
                 config: RmaConfig | None = None,
                 plan_cache: "bool | PlanCache" = True):
        self.catalog = catalog or Catalog()
        self.config = config
        # ``plan_cache=False`` disables ALL session caching (statement
        # templates, expression plans and results) — the fully-uncached
        # reference mode.
        self._caching = not (plan_cache is False or plan_cache is None)
        if plan_cache is True:
            self.result_cache: PlanCache | None = PlanCache()
        elif not self._caching:
            self.result_cache = None
        else:
            self.result_cache = plan_cache
        self._local = threading.local()
        # Statement shape -> _Template
        self._templates: LruDict = LruDict(_MAX_CACHED_STATEMENTS)
        # First-level key (literal_key) -> the same _Template objects
        self._template_keys: LruDict = LruDict(_MAX_CACHED_STATEMENTS)
        # Expression Plan -> (optimized plan, physical info, stamps,
        # config token)
        self._expression_plans: LruDict = LruDict(_MAX_CACHED_STATEMENTS)

    @property
    def last_stats(self):
        """ExecStats of this thread's most recent execution (None before
        the first): threads sharing a session each see their own."""
        return getattr(self._local, "stats", None)

    # -- catalog helpers -------------------------------------------------------

    def register(self, name: str, relation: Relation,
                 replace: bool = True) -> None:
        """Register an in-memory relation as a table."""
        self.catalog.create(name, relation, replace=replace)

    def table(self, name: str) -> Relation:
        return self.catalog.get(name)

    def tables(self) -> list[str]:
        """The catalog's table names, sorted."""
        return self.catalog.names()

    # -- the matrix-expression surface ----------------------------------------

    def matrix(self, source: "str | Relation | Matrix",
               by: "str | Sequence[str]",
               name: str | None = None) -> Matrix:
        """A lazy :class:`~repro.api.matrix.Matrix` handle over a relation.

        ``source`` is a catalog table name or an in-memory
        :class:`Relation` (or an existing handle, which is re-keyed —
        sugar for :meth:`Matrix.ordered_by`).  ``by`` is the order schema:
        the attributes whose values identify rows; the remaining
        (numeric) attributes form the matrix the operations apply to.
        ``name`` is the scan alias that qualifies column references
        (``col("id", "l")``) in ``filter``/``join`` predicates.
        """
        if isinstance(source, Matrix):
            if name is not None:
                raise PlanError(
                    "matrix: name= applies to new scans only, not when "
                    "re-keying an existing Matrix")
            if source.database is not self:
                # A handle's plan may scan *this* database's tables by
                # name; silently adopting it would resolve them against
                # the wrong catalog and mix caches across sessions.
                raise PlanError(
                    "matrix: the Matrix belongs to a different database; "
                    "re-key it there (or rebuild from the relation)")
            return source.ordered_by(by)
        names = (by,) if isinstance(by, str) else tuple(by)
        if not names:
            raise PlanError("matrix: order schema must not be empty")
        if isinstance(source, str):
            relation = self.catalog.get(source)  # raises CatalogError
            plan: nodes.Plan = nodes.Scan(source, name or source)
        elif isinstance(source, Relation):
            relation = source
            # The default alias is stable per relation *object*, so two
            # handles over one relation build equal leaves (one CSE
            # candidate); node equality also compares the relation itself,
            # so a recycled id is harmless.
            plan = nodes.RelScan(source, name or f"_rel{id(source):x}")
        else:
            raise PlanError(
                "matrix expects a table name, a Relation or a Matrix, "
                f"got {type(source).__name__}")
        check_order_names(names, relation.schema, relation.names)
        order = set(names)
        app = tuple(n for n in relation.names if n not in order)
        return Matrix(self, plan, names, app)

    # -- the plan driver -------------------------------------------------------

    def _plan(self, source: "ast.Select | nodes.Plan",
              config: Optional[RmaConfig] = None,
              template: Optional[_Template] = None) \
            -> tuple[nodes.Plan, PhysicalInfo]:
        """Build, optimize and physically plan a query; cached.

        The one planning function of every surface: ``source`` is a SQL
        ``SELECT`` AST (compiled with ``build_select``) or a ``Matrix``
        expression's plan node.  A SQL query is cached in the statement
        ``template`` it came from, an expression plan in the expression
        plan cache under the structurally hashable plan itself.  Either
        entry is stamped with the catalog versions of the scanned tables
        and the config's cache token — a plan is rebuilt only when
        something it depends on changed.

        SQL SELECTs end in a Project naming their whole visible output, so
        the optimizer may prune below it (``keep_all=False``); expression
        plans may end in any node whose every column is the result.

        Plans with in-memory leaves (``RelScan``) are planned fresh every
        time: their nodes hold strong references to the input relations,
        and unlike the byte-budgeted result cache the plan cache only caps
        entry *count* — caching them would let a long-lived session pin up
        to 256 generations of dead input data.  The result cache still
        serves their repeated subplan results.
        """
        config = config or self.config or default_config()
        token = config.cache_token()
        is_sql = isinstance(source, ast.Select)
        cacheable = self._caching and not is_sql \
            and not _scans_in_memory_relations(source)
        if is_sql:
            entry = template.plan if template is not None else None
        else:
            entry = (self._expression_plans.lookup(source) if cacheable
                     else None)
        if entry is not None:
            planned, info, stamps, entry_token = entry
            if (entry_token == token
                    and all(self.catalog.table_version(name) == version
                            for name, version in stamps)):
                return planned, info
        planned = build_select(source) if is_sql else source
        planned = optimize(planned, self.catalog, keep_all=not is_sql)
        info = plan_physical(planned)
        entry = (planned, info, catalog_stamps(planned, self.catalog), token)
        if template is not None:
            template.plan = entry
        elif cacheable:
            self._expression_plans.store(source, entry)
        return planned, info

    def _run(self, source: "ast.Select | nodes.Plan",
             config: Optional[RmaConfig] = None,
             template: Optional[_Template] = None,
             params: tuple = ()) -> Relation:
        """Plan (see :meth:`_plan`) and execute a query with ``params``
        bound to its parameter slots; the one place a plan
        :class:`~repro.plan.physical.Executor` is constructed.

        An RMA or scan at the plan's root leaves a frame view of its
        relation, so the relation it computed is returned as is, in
        constant time whatever its width."""
        config = config or self.config or default_config()
        planned, info = self._plan(source, config, template)
        executor = Executor(self.catalog, config, physical=info,
                            result_cache=self.result_cache, params=params)
        frame = executor.run(planned)
        self._local.stats = executor.stats
        return frame.to_plain_relation()

    # -- SQL execution ---------------------------------------------------------

    def execute(self, sql: str) -> Relation | None:
        """Execute one SQL statement.

        SELECT returns a relation; DDL/DML return None (INSERT returns
        None after updating the catalog).  The statement runs as its
        shape's cached template (see the module docstring) with its own
        literal values bound.
        """
        statement, template, params = self._statement(sql)
        if isinstance(statement, ast.Select):
            return self._run(statement, template=template, params=params)
        if isinstance(statement, ast.Explain):
            lines = explain_lines(*self._plan(statement.query,
                                              template=template), params)
            return Relation.from_columns({"explain": lines})
        if isinstance(statement, ast.CreateTable):
            return self._run_create(statement, template, params)
        if isinstance(statement, ast.DropTable):
            self.catalog.drop(statement.name, if_exists=statement.if_exists)
            return None
        if isinstance(statement, ast.InsertValues):
            return self._run_insert(statement, params)
        raise SqlError(f"unsupported statement {statement!r}")

    def _statement(self, sql: str) \
            -> tuple[ast.Statement, Optional[_Template], tuple]:
        """(statement, its template, the values bound to its slots).

        A warm statement is found by its first-level key, one regex pass
        over the text (:func:`~repro.sql.parser.literal_key`).  On a miss
        the statement is tokenized and its shape
        (:func:`~repro.sql.parser.literal_slots`) finds or creates the
        template, which the first-level key then maps to as well.  The
        template is parsed on the first statement of its shape only;
        without caching the statement is parsed with its literals in
        place, and has no template and no parameters.
        """
        if not self._caching:
            return parse_sql(sql), None, ()
        fast = literal_key(sql)
        if fast is not None:
            template = self._template_keys.lookup(fast[0])
            if template is not None:
                return template.statement, template, fast[1]
        try:
            shape, params, _ = literal_slots(tokenize(sql))
        except ValueError:
            parse_sql(sql)  # raise the error a parse meets first
            raise
        template = self._templates.lookup(shape)
        if template is None:
            template = _Template(parse_sql(sql, template=True))
            self._templates.store(shape, template)
        if fast is not None:
            self._template_keys.store(fast[0], template)
        return template.statement, template, params

    def _select_statement(self, sql: str) \
            -> tuple[ast.Select, Optional[_Template], tuple]:
        """:meth:`_statement` unwrapped to its SELECT (EXPLAIN peels)."""
        statement, template, params = self._statement(sql)
        if isinstance(statement, ast.Explain):
            statement = statement.query
        if not isinstance(statement, ast.Select):
            raise PlanError("only SELECT statements can be planned")
        return statement, template, params

    def plan(self, sql: str) -> nodes.Plan:
        """Parse and optimize without executing (for tests/EXPLAIN).

        The plan is the statement template's: literals are parameter
        slots."""
        select, template, _ = self._select_statement(sql)
        return self._plan(select, template=template)[0]

    def physical_info(self, sql: str) -> PhysicalInfo:
        """The physical planner's annotations for a statement."""
        select, template, _ = self._select_statement(sql)
        return self._plan(select, template=template)[1]

    def explain(self, sql: str) -> str:
        """The optimized plan with physical annotations, as text."""
        select, template, params = self._select_statement(sql)
        return "\n".join(explain_lines(
            *self._plan(select, template=template), params))

    def _run_create(self, statement: ast.CreateTable,
                    template: Optional[_Template], params: tuple) -> None:
        if statement.source is not None:
            relation = self._run(statement.source, template=template,
                                 params=params)
            self.catalog.create(statement.name, relation)
            return None
        attrs = []
        for column in statement.columns:
            dtype = _TYPE_NAMES.get(column.type_name)
            if dtype is None:
                raise BindError(
                    f"unknown column type {column.type_name!r}")
            attrs.append((column.name, dtype))
        from repro.relational.schema import Attribute, Schema
        schema = Schema(Attribute(n, t) for n, t in attrs)
        self.catalog.create(statement.name, Relation.empty(schema))
        return None

    def _run_insert(self, statement: ast.InsertValues,
                    params: tuple) -> None:
        target = self.catalog.get(statement.table)
        names = list(statement.columns) or target.names
        unknown = set(names) - set(target.names)
        if unknown:
            raise BindError(
                f"unknown columns {sorted(unknown)} in INSERT")
        rows: list[list[Any]] = []
        dual = Relation.from_columns({"_one": [1]})
        frame = Frame.from_relation(dual, None)
        evaluator = ExpressionEvaluator(frame, params)
        for row_exprs in statement.rows:
            if len(row_exprs) != len(names):
                raise PlanError(
                    f"INSERT row has {len(row_exprs)} values for "
                    f"{len(names)} columns")
            row = []
            for expr in row_exprs:
                value = evaluator.eval(expr)
                if hasattr(value, "tail"):
                    raise PlanError("INSERT values must be constants")
                row.append(value)
            rows.append(row)
        # Build a relation in target column order, filling missing with nil.
        data: dict[str, list[Any]] = {n: [] for n in target.names}
        for row in rows:
            provided = dict(zip(names, row))
            for n in target.names:
                data[n].append(provided.get(n))
        types = {n: target.schema.dtype(n) for n in target.names}
        addition = Relation.from_columns(data, types)
        self.catalog.create(statement.table,
                            union_all(target, addition), replace=True)
        return None


def connect(catalog: Catalog | None = None,
            config: RmaConfig | None = None,
            plan_cache: "bool | PlanCache" = True) -> Database:
    """Open a :class:`Database` — the library's front door.

    >>> import repro
    >>> db = repro.connect()
    >>> db.register("rating", rating)
    >>> m = db.matrix("rating", by="User")
    >>> beta = (m.inv() @ m).collect()
    """
    return Database(catalog=catalog, config=config, plan_cache=plan_cache)
