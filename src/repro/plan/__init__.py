"""Shared logical/physical plan layer.

The paper's §8.6 edge over R comes from running matrix operations *inside*
a column store's query pipeline.  This package is that pipeline's plan
layer, shared by both front ends; :class:`repro.api.database.Database` is
the one driver that optimizes, plans and executes what they build.  It
plans each query *shape* once: a SQL statement's literals are parameter
slots, and a ``Matrix`` expression's in-memory relations are relation
slots (``nodes.bind_relations``), both bound per run by the executor:

.. code-block:: text

    SQL text ──parse──> AST ──build_select──┐
                                            ├──> logical plan (plan.nodes)
    Python  ──repro.api.Matrix (db.matrix)──┘          │
                                                       ▼
                                         logical optimizer (plan.optimizer)
                                          pushdown / join rewrite / pruning
                                                       │
                                                       ▼
                                         physical planner (plan.physical)
                                       shared (CSE) subplan detection,
                                       per-template expression analysis
                                                       │
                                                       ▼
                                          Executor (plan.physical) over the
                                          BAT engine -> Relation

Module map
==========

``nodes``
    The logical IR: frozen dataclass plan nodes (``Scan``, ``RelScan``,
    ``Rma``, ``Filter``, ``JoinPlan``, ``Project``, ``Aggregate``, ...)
    plus expression-analysis helpers.  Node equality is structural, which
    makes subplan sharing a dictionary lookup.  A ``RelScan`` holds a
    relation slot and the relation's column names, never the relation;
    ``bind_relations`` turns a ``Matrix`` plan into that shape and the
    relations its slots bind.

``build``
    The SQL front end's compiler: parsed ``SELECT`` AST -> shared IR
    (``build_select``/``build_table_expr``).  Lives here — not in
    ``repro.sql`` — so the IR and everything producing it have one home.

``optimizer``
    Semantics-preserving logical rewrites (predicate pushdown,
    cross-to-inner join conversion, projection pruning, element-wise
    fusion), shared so ``Matrix`` expressions get the same rewrites as
    SQL text.  The fusion rule collapses chains of
    relative-class operations (``add``/``sub``/``emu`` and the scalar
    variants ``sadd``/``ssub``/``smul``) into one ``FusedRma`` node when
    each parent orders its input by exactly the order part the child
    produces; shared subtrees and order-schema boundaries stay unfused.
    The schema of an RMA node comes from the op table's shape-type rule
    (:meth:`repro.opspec.OpSpec.result_parts` and ``result_app``), the
    rule ``Matrix`` handles chain by.

``physical``
    The physical planner and the executor.  Optimizations that fire here:

    * **CSE** — structurally identical RMA/subquery subtrees execute once
      per statement; repeated subplans (``CPD(a,a)`` feeding both ``INV``
      and ``MMU``) hit the memo (``Executor.stats.cse_hits``).
    * **One join path** — every equi-join encodes its keys into shared
      dense codes and probes them
      (:func:`repro.relational.joins.join_positions`); sortedness is read
      when the join runs (an already-sorted right side skips its sort),
      never guessed at planning time.
    * **Fused execution** — ``FusedRma`` nodes run as one
      prepare/align/kernel-program/merge pass
      (:func:`repro.core.ops.execute_fused`) through the same code a
      binary element-wise operation runs: every leaf aligns into the
      first leaf's storage order with a single composed permutation
      (:func:`repro.core.context.align_relative`), the kernel layer
      (:mod:`repro.linalg.kernels`) executes the chain as one program,
      the element-wise merge (:func:`repro.core.ops.merge_fused`)
      attaches every leaf's order part, and no intermediate relation is
      materialized.  A leaf failing a binary step's checks against the
      first leaf (widths, cardinalities, overlapping order schemas) or
      holding a duplicate key makes the executor replay the chain step
      by step, bit-identically and with the unfused error.
    * **Late materialization** — a ``Frame`` holds base columns plus one
      position vector per source relation.  Filters, sorts, limits and
      joins compose the vectors; each column is gathered once, on first
      read.  FK→PK joins keep the matched side's vectors as they are.
    * **Warm order caches, constant cost per node** — a scan or RMA
      result enters the executor as a frame view of its relation, which
      mints its internal names only when a relational operator resolves
      one; ``Frame.to_plain_relation`` of a view returns the original
      relation object, so the order caches seeded by ``merge_result``
      (:mod:`repro.core.ops`) survive from one operation to the next,
      and a relation passing between RMA nodes costs no Python per
      column in the plan layer.

``cache``
    The session-scoped result cache: (canonical subplan, what its slots
    are bound to) -> result relation, stamped with per-table catalog
    versions so ``CREATE``/``INSERT``/``register``/``DROP`` invalidate
    exactly the affected entries.  Bound relations are held weakly, and
    an entry dies with them.  Owned by
    :class:`repro.api.database.Database` (beside its template cache, an
    ``LruDict``), which may share one across sessions.

``expr``
    The ``col``/``lit`` expression DSL that ``Matrix.filter``/``select``/
    ``join`` take: Python operators build :mod:`repro.sql.ast`
    expressions.

``explain``
    Plan pretty-printer used by ``Matrix.explain()`` and the SQL
    ``EXPLAIN`` statement, including the physical annotations (fused
    nodes print their member operations).

The SQL package (:mod:`repro.sql`) is a thin front end: lexer, parser and
AST.
"""

from repro.plan import nodes
from repro.plan.build import build_select, build_table_expr
from repro.plan.cache import PlanCache, catalog_stamps
from repro.plan.explain import explain_lines
from repro.plan.expr import Col, col, lit
from repro.plan.optimizer import Optimizer, optimize
from repro.plan.physical import (
    Executor,
    Frame,
    PhysicalInfo,
    plan_physical,
)

__all__ = [
    "nodes",
    "col", "lit", "Col",
    "build_select", "build_table_expr",
    "optimize", "Optimizer",
    "Executor", "Frame", "PhysicalInfo", "plan_physical",
    "PlanCache", "catalog_stamps",
    "explain_lines",
]
