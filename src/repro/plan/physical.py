"""Physical planning and execution of shared logical plans.

* :func:`plan_physical`, the physical planner, walks an (optimized)
  logical plan once per template and records what the executor reads:
  the **shared subplans** (CSE: structurally identical RMA/subquery
  subtrees, whose results the executor memoizes per statement), each
  expression compiled once (:func:`repro.plan.evaluate.expr_info`), each
  shareable subplan's parameter slots, each Filter's candidate-list key,
  and the nodes that run once per statement, whose frame layouts the
  first run records (``PhysicalInfo.layouts``).  It reads no column data
  and no property bits: the operators read a column's sortedness and key
  properties when they run, as MonetDB's BAT operators do.
* :class:`Executor` evaluates a plan against a catalog, one method per
  node type, producing frames (:mod:`repro.plan.frame`, the position
  algebra of late materialization) and evaluating expressions over them
  (:mod:`repro.plan.evaluate`).  :class:`repro.api.database.Database`
  runs every plan through it, compiled from SQL text or built by a
  ``Matrix`` expression.

A warm run of a template does only the work its literals decide: each
node's frames reuse the layout its first run recorded (so no name is
resolved, no binding built and no internal name minted), expressions run
as compiled closures, and nodes dispatch through a table.

Every equi-join takes one path, :func:`repro.relational.joins.
join_positions`: it codes the keys of both sides into shared codes
(offsets for small integer domains) and probes a slot table when the
right keys are unique, by counting otherwise.  Keys that are base columns
of one source of the frame take their codes from the base
(:func:`repro.relational.joins.base_codes`, computed once per base
column tuple), gathered at the frame's rows; a GROUP BY does the same,
so a join over the columns a GROUP BY grouped probes with the codes it
grouped by, as a groupjoin does.  Keys evaluated as expressions are coded
on both sides at the join.
Joins run at the key's own domain where they can (the invisible join of
Abadi, Madden & Hachem, SIGMOD 2008): when a join's left keys are
equivalent (``Frame.classes``) to columns of one source of at most an
eighth of the frame's rows, and the right key is unique, the executor
probes that source's rows and composes the matches through its position
vector, only when a gather needs them: Fig. 15's station joins probe the
~100–600 frequent pairs, not ~50k trips.  Each JoinPlan's condition is
split into equi-join pairs and residual conjuncts once per plan
(``PhysicalInfo.join_sides``).

``Frame`` and ``ExpressionEvaluator`` are bound here by import: the
repository benchmark's trace spans (``rmabench/spans.py``) patch
``physical.Frame.select_positions`` and
``physical.ExpressionEvaluator.mask`` through this module.
"""

from __future__ import annotations

import functools
import threading
import weakref
from dataclasses import dataclass, field
from typing import Any, Callable, Optional, Sequence

import numpy as np

from repro.bat.bat import BAT
from repro.bat.catalog import Catalog
from repro.core.config import RmaConfig, default_config
from repro.core.algebra import rma_operation
from repro.core.context import FusionFallback
from repro.core.ops import execute_fused
from repro.engine.pool import in_worker, run_tasks
from repro.errors import PlanError
from repro.plan.cache import PlanCache
from repro.plan.evaluate import (
    ExprInfo,
    ExpressionEvaluator,
    _broadcast,
    _true_positions,
    expr_info,
)
from repro.plan.frame import (
    Binding,
    Frame,
    Layout,
    cached_layout,
    equate_classes,
    equated_columns,
    split_join_condition,
)
import repro.relational.aggregate as rel_aggregate
import repro.relational.joins as rel_join
import repro.relational.ops as rel_ops
from repro.relational.relation import Relation
from repro.plan import nodes
from repro.sql import ast


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
    parameter and relation slots its result depends on
    (:func:`~repro.plan.nodes.bound_slots`), and ``filter_keys`` maps each
    Filter to its candidate-list key (:func:`_filter_key`) and the column
    references it must resolve.  ``join_sides`` maps each JoinPlan to its
    condition split into equi-join pairs and residual conjuncts; the split
    needs the inputs' bindings, so the first run records it.

    ``tree_nodes`` maps ``id(node)`` to each node reached along one path
    from the root (no ``Matrix`` subplan object reused in several places
    is at or above it), which runs at most once per statement: its frames
    keep one layout across runs (``layouts``, filled by the first run,
    :func:`~repro.plan.frame.cached_layout`).
    """

    shared: dict[nodes.Plan, int] = field(default_factory=dict)
    exprs: dict[int, ExprInfo] = field(default_factory=dict)
    bound_slots: dict[nodes.Plan, tuple] = field(default_factory=dict)
    filter_keys: dict[nodes.Filter, tuple] = field(default_factory=dict)
    join_sides: dict[nodes.JoinPlan, tuple] = field(default_factory=dict)
    tree_nodes: dict[int, nodes.Plan] = field(default_factory=dict)
    layouts: dict[int, tuple] = field(default_factory=dict)


def plan_physical(plan: nodes.Plan) -> PhysicalInfo:
    """Derive physical annotations (shared subplans, per-template
    analysis)."""
    return _PhysicalPlanner().annotate(plan)


class _PhysicalPlanner:
    def __init__(self):
        self.info = PhysicalInfo()

    def annotate(self, plan: nodes.Plan) -> PhysicalInfo:
        # Walk by reference, not structure: each *occurrence* of a node is
        # counted (that is what CSE sharing means), but an object reused in
        # several places — Matrix expressions share subplan objects — has
        # its subtree descended only once, keeping the walk linear even for
        # deeply diamond-shaped plans.
        visited: dict[int, nodes.Plan] = {}
        reused: list[nodes.Plan] = []
        stack = [plan]
        while stack:
            node = stack.pop()
            if isinstance(node, (nodes.Rma, nodes.FusedRma,
                                 nodes.SubqueryScan)):
                key = _cse_key(node)
                self.info.shared[key] = self.info.shared.get(key, 0) + 1
            if id(node) in visited:
                reused.append(node)
                continue
            visited[id(node)] = node
            self._analyse(node)
            stack.extend(node.children())
        # A reused node and everything below it may run more than once.
        while reused:
            node = reused.pop()
            if visited.pop(id(node), None) is not None:
                reused.extend(node.children())
        self.info.tree_nodes = visited
        self.info.bound_slots = {key: nodes.bound_slots(key)
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
        if isinstance(node, nodes.Filter):
            self.info.filter_keys[node] = (
                _filter_key(node), tuple(nodes.column_refs(node.predicate)))


def _filter_key(plan: nodes.Filter):
    """Key of the statement-scoped candidate list of a Filter directly
    over a table or relation scan, or ``None``.  The leaf is keyed by its
    table name or its relation slot (one relation per slot in a run).

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
        source = leaf.slot
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
    :class:`~repro.sql.ast.Param` slots of a statement template and
    ``relations`` the relation slots (:class:`~repro.plan.nodes.RelScan`)
    of a ``Matrix`` template (:func:`~repro.plan.nodes.bind_relations`).
    Repeated RMA/subquery subplans execute once per statement (CSE;
    ``stats.cse_hits`` counts the reuses).  ``result_cache`` is an
    optional *session-scoped* :class:`repro.plan.cache.PlanCache`:
    shareable subplan results found there skip execution entirely, and
    freshly computed ones are stored for later statements (stamped with
    catalog table versions, so catalog mutations invalidate exactly the
    affected entries, and keyed with the values and relations bound to
    the subplan's slots) once their key is sighted a second time
    (:meth:`~repro.plan.cache.PlanCache.sighted`;
    ``stats.deferred_admissions`` counts the first sightings).

    An executor runs one binding: its per-statement state — the CSE memo,
    shared candidate lists and gathered columns — is keyed by plan
    structure alone and lives as long as the executor.
    """

    def __init__(self, catalog: Catalog, config: RmaConfig | None = None,
                 physical: PhysicalInfo | None = None,
                 result_cache: "PlanCache | None" = None,
                 params: Sequence[Any] = (),
                 relations: Sequence[Relation] = ()):
        self.catalog = catalog
        self.config = config or default_config()
        self.physical = physical or PhysicalInfo()
        self.result_cache = result_cache
        self.params = tuple(params)
        self.relations = tuple(relations)
        self.stats = ExecStats()
        self._memo: dict[nodes.Plan, Relation] = {}
        # Filter candidate lists shared within the statement
        # (see _candidate_key).
        self._candidates: dict[tuple, np.ndarray] = {}
        # Columns gathered through a position vector, shared by every
        # frame that reads the same base column through the same vector.
        self._gathered: dict[tuple, tuple] = {}
        # Base key codes gathered at a position vector (Frame.base_codes),
        # shared by the GROUP BYs and joins of the statement.
        self._codes: dict[tuple, tuple] = {}
        # Guards the CSE memo and the stats counters: with the morsel
        # engine on, sibling subplans execute on pool workers.
        self._lock = threading.Lock()

    def run(self, plan: nodes.Plan) -> Frame:
        return _RUNNERS[type(plan)](self, plan)

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

    def _frame(self, relation: Relation, alias: Optional[str],
               plan: nodes.Plan) -> Frame:
        return Frame.from_relation(relation, alias, self._gathered,
                                   self.physical.layouts,
                                   self._layout_key(plan))

    def _layout_key(self, plan: nodes.Plan) -> int | None:
        """The key of ``plan``'s layout in ``PhysicalInfo.layouts``, or
        ``None`` when the node may run more than once per statement."""
        key = id(plan)
        return key if self.physical.tree_nodes.get(key) is plan else None

    def _layout(self, plan: nodes.Plan, parents: tuple,
                build: "Callable[[], list[Binding]]") -> Layout:
        return cached_layout(self.physical.layouts, self._layout_key(plan),
                             parents, build)

    def _bound(self, plan: nodes.Plan) -> tuple:
        """What ``plan``'s slots are bound to: the parameter values, as
        literals (they compare by type too, so ``1`` and ``1.0`` bound to
        the same subplan of two templates key different results), then
        the relations, as weak references (equal while the relation
        lives, so the key pins nothing)."""
        if not self.params and not self.relations:
            return ()
        slots = self.physical.bound_slots.get(plan)
        if slots is None:
            slots = nodes.bound_slots(plan)
        params, relations = slots
        return (tuple(ast.Literal(self.params[slot]) for slot in params)
                + tuple(weakref.ref(self.relations[slot])
                        for slot in relations))

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
            return self._frame(relation, None, plan)
        return self._frame(self.catalog.get(plan.table), plan.alias, plan)

    def _run_relscan(self, plan: nodes.RelScan) -> Frame:
        return self._frame(self.relations[plan.slot], plan.alias, plan)

    def _run_subqueryscan(self, plan: nodes.SubqueryScan) -> Frame:
        relation = self._memoized_relation(
            plan.plan, lambda: self.run(plan.plan).to_plain_relation())
        return self._frame(relation, plan.alias, plan)

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
        return self._frame(relation, plan.alias, plan)

    def _run_fusedrma(self, plan: nodes.FusedRma) -> Frame:
        relation = self._memoized_relation(
            _cse_key(plan), lambda: self._execute_fused(plan))
        return self._frame(relation, plan.alias, plan)

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
        return frame.select_positions(positions, True, True)

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
        if key is None or not all(frame.find(ref) is not None
                                  for ref in refs):
            return None
        return key

    def _run_prune(self, plan: nodes.Prune) -> Frame:
        frame = self.run(plan.child)
        view = frame.pruned(plan.names, self.physical.layouts,
                            self._layout_key(plan))
        if view is not None:
            return view
        layout = self._layout(plan, (frame.layout,), lambda: [
            b for b in frame.bindings if b.name in plan.names])
        if not layout.bindings or len(layout.bindings) == len(frame.bindings):
            return frame
        return frame.with_bindings(layout)

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
        return frame.projected(names, columns, self.physical.layouts,
                               self._layout_key(plan))

    def _run_distinct(self, plan: nodes.Distinct) -> Frame:
        frame = self.run(plan.child)
        # DISTINCT applies to the visible output only; hidden (source)
        # columns are dropped — referencing them above DISTINCT is invalid.
        layout = self._layout(plan, (frame.layout,),
                              frame.visible_bindings)
        return Frame.wrap(rel_ops.distinct(frame.to_relation(
            layout.bindings)), layout)

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
        return frame.select_positions(positions, True, True)

    # -- aggregation --------------------------------------------------------------------

    def _run_aggregate(self, plan: nodes.Aggregate) -> Frame:
        frame = self.run(plan.child)
        evaluator = self._evaluator(frame)
        n = frame.nrows

        data: dict[str, BAT] = {}
        coded = frame.base_codes(plan.keys, self._codes) if plan.keys \
            else None
        if coded is None:
            for key_expr, key_name in zip(plan.keys, plan.key_names):
                data[key_name] = _broadcast(evaluator.eval(key_expr), n)

        specs: list[rel_aggregate.AggregateSpec] = []
        for spec in plan.aggregates:
            if spec.distinct and spec.func != "count":
                raise PlanError("DISTINCT is only supported for COUNT")
            if spec.argument is None:
                specs.append(rel_aggregate.AggregateSpec(
                    "count", "*", spec.out_name))
            else:
                arg_name = f"_arg_{spec.out_name}"
                data[arg_name] = _broadcast(evaluator.eval(spec.argument), n)
                specs.append(rel_aggregate.AggregateSpec(
                    spec.func, arg_name, spec.out_name, spec.distinct))

        # COUNT(*) alone reads no column; the work relation then only
        # carries the row count.
        work = Relation.from_columns(data or {"_rows": BAT.dense(n)})
        grouped = rel_aggregate.group_by(
            work, list(plan.key_names), specs,
            None if coded is None else coded[1])
        return Frame.wrap(grouped, self._layout(
            plan, (), lambda: _aggregate_bindings(plan)))

    # -- joins ------------------------------------------------------------------------

    def _run_joinplan(self, plan: nodes.JoinPlan) -> Frame:
        left, right = self._run_siblings([plan.left, plan.right])
        equi, residual = self._join_sides(plan, left, right)
        if not equi:
            if plan.kind == "left":
                raise PlanError(
                    "LEFT JOIN requires at least one equality condition")
            nl, nr = left.nrows, right.nrows
            frame = Frame.joined(
                left, right, np.repeat(np.arange(nl, dtype=np.int64), nr),
                np.tile(np.arange(nr, dtype=np.int64), nl),
                lpos_sorted=True, lpos_key=nr <= 1)
            if plan.condition is None:
                return frame
            return frame.select_positions(_true_positions(
                self._evaluator(frame).mask(plan.condition)), True, True)
        right_keys = [_broadcast(self._evaluator(right).eval(e), right.nrows)
                      for _, e in equi]
        outer = plan.kind == "left"
        # A LEFT JOIN whose matches are decided beyond the probe (a residual
        # ON conjunct) probes as an inner join and gets its unmatched rows
        # added afterwards.  NULL keys match nothing in the probe itself.
        pad = outer and bool(residual)
        how = "left" if outer and not pad else "inner"
        left_exprs = [e for e, _ in equi]
        probe = self._small_probe(left, left_exprs, right_keys, how,
                                  lazy=not (residual or pad))
        if probe is not None:
            lpos, rpos, root = probe
            lpos_key = True
            if lpos is None and (residual or pad):
                lpos = np.arange(left.nrows, dtype=np.int64)
        else:
            coded = left.base_codes(left_exprs, self._codes)
            if coded is not None and all(
                    r.dtype is b.dtype for r, b in zip(right_keys, coded[0])):
                lpos, rpos = rel_join.join_positions(
                    coded[0], right_keys, how=how, left_codes=coded[1])
            else:
                left_keys = [_broadcast(self._evaluator(left).eval(e),
                                        left.nrows) for e in left_exprs]
                lpos, rpos = rel_join.join_positions(left_keys, right_keys,
                                                     how=how)
            root = None
            lpos_key = any(k.cached_prop("tkey") for k in right_keys)
        if residual:
            frame = Frame.joined(left, right, lpos, rpos)
            keep = _true_positions(
                self._evaluator(frame).mask(nodes.conjoin(residual)))
            lpos, rpos = lpos[keep], rpos[keep]
        if pad:
            lpos, rpos = rel_join.pad_unmatched(lpos, rpos, left.nrows)
            root = None
        classes = left.classes
        if not outer:
            classes = equate_classes(left.classes + right.classes,
                                     equated_columns(equi, left, right))
        return Frame.joined(
            left, right, lpos, rpos, lpos_sorted=True, lpos_key=lpos_key,
            classes=classes, root=root, layout=self._layout(
                plan, (left.layout, right.layout),
                lambda: left.bindings + right.bindings))

    def _small_probe(self, left: Frame, left_exprs: list[ast.Expr],
                     right_keys: list[BAT], how: str, lazy: bool = False):
        """The invisible join (Abadi, Madden & Hachem, SIGMOD 2008):
        ``(lpos, rpos, (source, slot))`` of the join probed at the rows of
        one small source of ``left``, or ``None``.

        It applies when every left key is a column equivalent (``Frame.
        classes``) to a column of one non-nullable source with at most an
        eighth of the frame's rows, and the right key is unique (a cached
        ``tkey`` bit), so each left row keeps at most one match.  The
        source's own rows are probed through ``join_positions``, and
        ``slot`` maps each of them to its match (``-1``: none); the rows'
        matches are ``slot`` at the source's positions, in left-row order,
        as the full probe would pair them.  With ``lazy``, when every
        source row has its match (and the join's rows are not the right
        side's), ``lpos`` and ``rpos`` are ``None``: the right side's
        positions are composed when a gather reads them
        (:meth:`Frame.joined`), and ``slot`` is only checked at the
        source's own rows.
        """
        keys = []  # per left key: its dtype and its equivalent columns
        for expr in left_exprs:
            internal = (left.find(expr) if isinstance(expr, ast.ColumnRef)
                        else None)
            if internal is None:
                return None
            keys.append((left.dtype(internal),
                         next((c for c in left.classes if internal in c),
                              (internal,))))
        best = None
        for source in left.sources:
            if source.nullable or (not source.lazy
                                   and source.positions is None):
                continue
            rows = source.base_rows()
            if rows * 8 > left.nrows or (best is not None
                                         and rows >= best[1]):
                continue
            columns = []
            for dtype, names in keys:
                name = next((m for m in names
                             if left._owner.get(m) is source
                             and source.columns[m].dtype is dtype), None)
                if name is None:
                    break
                columns.append(source.columns[name])
            else:
                best = (source, rows, columns)
        if best is None or not any(k.tkey for k in right_keys):
            return None
        source, rows, columns = best
        spos, rpos = rel_join.join_positions(columns, right_keys, "inner")
        slot = np.full(rows, -1, dtype=np.int64)
        slot[spos] = rpos
        if lazy and len(spos) == rows and left.nrows != len(right_keys[0]):
            return None, None, (source, slot)
        rpos = slot[source.positions]
        lpos = None  # the identity: every left row, once
        if how == "inner" and len(spos) < rows:
            hit = rpos >= 0
            if not hit.all():
                lpos = np.flatnonzero(hit)
                rpos = rpos[lpos]
        return lpos, rpos, (source, slot)

    def _join_sides(self, plan: nodes.JoinPlan, left: Frame, right: Frame):
        """(equi pairs, residual conjuncts) of the join's condition,
        classified once per plan (``PhysicalInfo.join_sides``)."""
        sides = self.physical.join_sides.get(plan)
        if sides is None:
            sides = split_join_condition(plan.condition, left, right)
            self.physical.join_sides[plan] = sides
        return sides


def _aggregate_bindings(plan: nodes.Aggregate) -> list[Binding]:
    """The bindings of an Aggregate's output: its key and aggregate
    columns under their internal names."""
    bindings = []
    for name, expr in zip(plan.key_names, plan.keys):
        bindings.append(Binding(None, name, name))
        # Also expose the original column name so un-rewritten
        # references (e.g. qualified GROUP BY keys) still resolve.
        if isinstance(expr, ast.ColumnRef):
            bindings.append(Binding(expr.table, expr.name, name))
    for spec in plan.aggregates:
        bindings.append(Binding(None, spec.out_name, spec.out_name))
    return bindings


_RUNNERS: dict[type, Callable[[Executor, nodes.Plan], Frame]] = {
    nodes.Scan: Executor._run_scan,
    nodes.RelScan: Executor._run_relscan,
    nodes.SubqueryScan: Executor._run_subqueryscan,
    nodes.Rma: Executor._run_rma,
    nodes.FusedRma: Executor._run_fusedrma,
    nodes.Filter: Executor._run_filter,
    nodes.Prune: Executor._run_prune,
    nodes.Project: Executor._run_project,
    nodes.Distinct: Executor._run_distinct,
    nodes.Sort: Executor._run_sort,
    nodes.Limit: Executor._run_limit,
    nodes.Aggregate: Executor._run_aggregate,
    nodes.JoinPlan: Executor._run_joinplan,
}
"""The executor's method per plan node type."""
