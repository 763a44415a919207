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
  end), sharing the same statement-plan and subplan-result caches.

Both go through one planning function (``_plan``: build, optimize,
physically plan, cached) and one run function (``_run``: plan, then
execute on a fresh :class:`~repro.plan.physical.Executor`).  A database
owns three session-scoped caches, all invalidated precisely (catalog
table versions + config cache tokens):

* a **parse cache** (SQL text -> statement AST — parsing is pure);
* a **plan cache** (SQL ``SELECT`` AST *or* expression plan node ->
  optimized plan + physical annotations);
* a **result cache** (:class:`repro.plan.cache.PlanCache`): repeated
  RMA/subquery subplans — across statements *and* across surfaces —
  return their memoized relations.

``Database(plan_cache=False)`` disables all three (the fully-uncached mode
that replays a stream of statements as a reference, as rmabench's
``sql_session`` check does).

Configuration is session-scoped with per-call override:

>>> db = connect()
>>> db.configure(validate_keys=False)          # persistent for the session
>>> with db.configure(parallel=True):          # scoped to the block
...     m.collect()
>>> m.collect(fuse_elementwise=False)          # this call only
"""

from __future__ import annotations

import dataclasses
from typing import Any, Optional, Sequence

from repro.bat.bat import DataType
from repro.bat.catalog import Catalog
from repro.core.config import ParallelConfig, RmaConfig, default_config
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
from repro.sql.parser import parse_sql

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

_CONFIG_FIELDS = frozenset(
    f.name for f in dataclasses.fields(RmaConfig) if f.name != "parallel")
_PARALLEL_FIELDS = frozenset(
    f.name for f in dataclasses.fields(ParallelConfig) if f.name != "enabled")


def derive_config(base: RmaConfig, overrides: dict) -> RmaConfig:
    """A copy of ``base`` with configuration knobs patched.

    Accepts every :class:`RmaConfig` field by name, plus ``parallel`` as a
    bool (toggling the engine while keeping the sizing knobs) or a full
    :class:`ParallelConfig`, and the engine's sizing knobs ``workers`` /
    ``min_morsel_rows`` directly.  Unknown knobs raise ``TypeError`` — a
    typo must not silently configure nothing.
    """
    overrides = dict(overrides)
    parallel = base.parallel
    if "parallel" in overrides:
        value = overrides.pop("parallel")
        if isinstance(value, ParallelConfig):
            parallel = value
        else:
            parallel = dataclasses.replace(parallel, enabled=bool(value))
    for knob in _PARALLEL_FIELDS:
        if knob in overrides:
            parallel = dataclasses.replace(
                parallel, **{knob: overrides.pop(knob)})
    unknown = set(overrides) - _CONFIG_FIELDS
    if unknown:
        raise TypeError(
            f"unknown configuration knob(s): {', '.join(sorted(unknown))}; "
            f"known: parallel, {', '.join(sorted(_PARALLEL_FIELDS))}, "
            f"{', '.join(sorted(_CONFIG_FIELDS))}")
    return dataclasses.replace(base, parallel=parallel, **overrides)


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


class _ConfigScope:
    """Handle returned by :meth:`Database.configure`.

    The configuration change is applied immediately (session-scoped); used
    as a context manager, leaving the ``with`` block restores the previous
    configuration, turning the same call into a scoped override.
    """

    def __init__(self, db: "Database", previous: Optional[RmaConfig]):
        self._db = db
        self._previous = previous

    def __enter__(self) -> "Database":
        return self._db

    def __exit__(self, *exc_info) -> None:
        self._db.config = self._previous


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
                 optimize_plans: bool = True,
                 plan_cache: "bool | PlanCache" = True):
        self.catalog = catalog or Catalog()
        self.config = config
        self.optimize_plans = optimize_plans
        # ``plan_cache=False`` disables ALL session caching (parse,
        # statement-plan and result) — the fully-uncached reference mode.
        self._caching = not (plan_cache is False or plan_cache is None)
        if plan_cache is True:
            self.result_cache: PlanCache | None = PlanCache()
        elif not self._caching:
            self.result_cache = None
        else:
            self.result_cache = plan_cache
        self.last_stats = None  # ExecStats of the most recent execution
        self._statements: LruDict = LruDict(_MAX_CACHED_STATEMENTS)
        # Select AST or expression Plan -> (optimized plan, physical info,
        # stamps, config token, optimize_plans)
        self._select_plans: LruDict = LruDict(_MAX_CACHED_STATEMENTS)

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

    # -- configuration ---------------------------------------------------------

    def _effective_config(self) -> RmaConfig:
        return self.config or default_config()

    def configure(self, config: RmaConfig | None = None,
                  **knobs) -> _ConfigScope:
        """Set session configuration; usable as a context manager.

        ``db.configure(validate_keys=False)`` patches the session config in
        place (starting from the current effective configuration);
        ``with db.configure(parallel=True): ...`` restores the previous
        configuration when the block exits.  ``config=`` replaces the whole
        configuration before the knobs apply.  Plans and cached results
        produced under other settings are revalidated via config cache
        tokens, never served stale.
        """
        previous = self.config
        base = config or self._effective_config()
        self.config = derive_config(base, knobs) if knobs else base
        return _ConfigScope(self, previous)

    def _call_config(self, config: Optional[RmaConfig],
                     overrides: dict) -> RmaConfig:
        base = config or self._effective_config()
        return derive_config(base, overrides) if overrides else base

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
        missing = [n for n in names if n not in relation.schema]
        if missing:
            from repro.errors import OrderSchemaError
            raise OrderSchemaError(
                f"order attribute(s) {', '.join(map(repr, missing))} not "
                f"in schema ({', '.join(relation.names)})")
        app = tuple(n for n in relation.names if n not in names)
        return Matrix(self, plan, names, app)

    # -- the plan driver -------------------------------------------------------

    def _plan(self, source: "ast.Select | nodes.Plan",
              config: Optional[RmaConfig] = None) \
            -> tuple[nodes.Plan, PhysicalInfo]:
        """Build, optimize and physically plan a query; cached.

        The one planning function of every surface: ``source`` is a SQL
        ``SELECT`` AST (compiled with ``build_select``) or a ``Matrix``
        expression's plan node.  Both kinds share the statement-plan
        cache, keyed by the structurally hashable source itself and
        stamped with the catalog versions of the scanned tables and the
        config's cache token — a plan is rebuilt only when something it
        depends on changed.

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
        config = config or self._effective_config()
        is_sql = isinstance(source, ast.Select)
        key = None
        if self._caching and (is_sql
                              or not _scans_in_memory_relations(source)):
            key = source
            entry = self._select_plans.lookup(key)
            if entry is not None:
                planned, info, stamps, entry_token, entry_optimize = entry
                if (entry_token == config.cache_token()
                        and entry_optimize == self.optimize_plans
                        and all(self.catalog.table_version(name) == version
                                for name, version in stamps)):
                    return planned, info
                self._select_plans.discard(key)
        planned = build_select(source) if is_sql else source
        if self.optimize_plans:
            planned = optimize(planned, self.catalog, keep_all=not is_sql,
                               fuse=config.fuse_elementwise)
        info = plan_physical(planned, self.catalog)
        if key is not None:
            self._select_plans.store(
                key,
                (planned, info, catalog_stamps(planned, self.catalog),
                 config.cache_token(), self.optimize_plans))
        return planned, info

    def _run(self, source: "ast.Select | nodes.Plan",
             config: Optional[RmaConfig] = None) -> Relation:
        """Plan (see :meth:`_plan`) and execute a query; the one place a
        plan :class:`~repro.plan.physical.Executor` is constructed."""
        config = config or self._effective_config()
        planned, info = self._plan(source, config)
        executor = Executor(self.catalog, config, physical=info,
                            result_cache=self.result_cache)
        frame = executor.run(planned)
        self.last_stats = executor.stats
        return frame.to_plain_relation()

    # -- SQL execution ---------------------------------------------------------

    def execute(self, sql: str) -> Relation | None:
        """Execute one SQL statement.

        SELECT returns a relation; DDL/DML return None (INSERT returns
        None after updating the catalog).
        """
        statement = self._parse_cached(sql)
        if isinstance(statement, ast.Select):
            return self._run(statement)
        if isinstance(statement, ast.Explain):
            lines = explain_lines(*self._plan(statement.query))
            return Relation.from_columns({"explain": lines})
        if isinstance(statement, ast.CreateTable):
            return self._run_create(statement)
        if isinstance(statement, ast.DropTable):
            self.catalog.drop(statement.name, if_exists=statement.if_exists)
            return None
        if isinstance(statement, ast.InsertValues):
            return self._run_insert(statement)
        raise SqlError(f"unsupported statement {statement!r}")

    def _parse_cached(self, sql: str) -> ast.Statement:
        """Parse with a per-session cache (parsing is a pure function)."""
        if not self._caching:
            return parse_sql(sql)
        key = sql.strip()
        statement = self._statements.lookup(key)
        if statement is None:
            statement = parse_sql(sql)
            self._statements.store(key, statement)
        return statement

    def _select_statement(self, sql: str) -> ast.Select:
        """Parse one statement and unwrap to its SELECT (EXPLAIN peels)."""
        statement = self._parse_cached(sql)
        if isinstance(statement, ast.Explain):
            statement = statement.query
        if not isinstance(statement, ast.Select):
            raise PlanError("only SELECT statements can be planned")
        return statement

    def plan(self, sql: str) -> nodes.Plan:
        """Parse and optimize without executing (for tests/EXPLAIN)."""
        return self._plan(self._select_statement(sql))[0]

    def physical_info(self, sql: str) -> PhysicalInfo:
        """The physical planner's annotations for a statement."""
        return self._plan(self._select_statement(sql))[1]

    def explain(self, sql: str) -> str:
        """The optimized plan with physical annotations, as text."""
        return "\n".join(explain_lines(
            *self._plan(self._select_statement(sql))))

    def _run_create(self, statement: ast.CreateTable) -> None:
        if statement.source is not None:
            relation = self._run(statement.source)
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

    def _run_insert(self, statement: ast.InsertValues) -> None:
        target = self.catalog.get(statement.table)
        names = list(statement.columns) or target.names
        unknown = set(names) - set(target.names)
        if unknown:
            raise BindError(
                f"unknown columns {sorted(unknown)} in INSERT")
        rows: list[list[Any]] = []
        dual = Relation.from_columns({"_one": [1]})
        frame = Frame.from_relation(dual, None)
        evaluator = ExpressionEvaluator(frame)
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
            optimize_plans: bool = True,
            plan_cache: "bool | PlanCache" = True) -> Database:
    """Open a :class:`Database` — the library's front door.

    >>> import repro
    >>> db = repro.connect()
    >>> db.register("rating", rating)
    >>> m = db.matrix("rating", by="User")
    >>> beta = (m.inv() @ m).collect()
    """
    return Database(catalog=catalog, config=config,
                    optimize_plans=optimize_plans, plan_cache=plan_cache)
