"""Rule-based logical optimizer over the shared plan IR.

Four rewrites, mirroring what MonetDB's pipeline gives the paper's mixed
workloads for free (and what R lacks, §8.6):

1. **Predicate pushdown** — WHERE conjuncts move below joins to the deepest
   input that can resolve all their columns (below a LEFT JOIN only into
   its preserved, left side);
2. **Cross-to-inner conversion and greedy join ordering** — comma-style
   FROM lists plus equality predicates become hash joins, ordered smallest
   estimated input first;
3. **Projection pruning** — scans keep only the columns the rest of the
   plan references;
4. **Element-wise fusion** — chains of relative-class RMA nodes
   (``add``/``sub``/``emu`` and the scalar variants) whose order schemas
   are compatible collapse into one :class:`~repro.plan.nodes.FusedRma`
   node, executed as a single prepare/align/kernel-program/merge pass with
   every intermediate relation elided.  A chain edge fuses only when the
   parent orders its input by exactly the order part the child produces
   and the child subplan is not shared elsewhere in the statement (shared
   subtrees stay separate nodes so CSE keeps executing them once).

Plans containing RMA operations with data-dependent output schemas
(``tra``/``usv``/``opd``) are left untouched below the RMA node — their
column names are only known at run time.

Common-subexpression elimination and join-strategy choice are *physical*
concerns and live in :mod:`repro.plan.physical`; this module only performs
semantics-preserving logical rewrites.
"""

from __future__ import annotations

from typing import Optional

from repro.bat.catalog import Catalog
from repro.errors import CatalogError
from repro.linalg.kernels import KernelStep
from repro.opspec import FUSABLE_OPS, spec_of
from repro.plan import nodes
from repro.plan.nodes import with_children
from repro.sql import ast

def ref_matches(ref: ast.ColumnRef, names: set[tuple]) -> bool:
    """Whether a (possibly qualified) column reference resolves in a set of
    (alias, name) pairs."""
    for alias, name in names:
        if name != ref.name:
            continue
        if ref.table is None or ref.table == alias:
            return True
    return False


def optimize(plan: nodes.Plan, catalog: Catalog,
             keep_all: bool = False) -> nodes.Plan:
    """Apply all rewrite rules bottom-up.

    ``keep_all`` keeps the *root's* full output: SQL plans always end in a
    Project describing their visible output (so nothing beyond its
    references is needed from below), but ``Matrix`` expressions may end
    in any node — there every column the root produces is part of the
    result.
    Pruning below interior projections still fires either way; only when
    the root's output schema cannot be derived (dynamic-schema RMA) is
    pruning skipped entirely.

    Element-wise fusion always runs last.  A chain that cannot fuse at
    run time replays step by step (``Executor._replay_unfused``); tests
    check fused plans against the built plan run unoptimized.
    """
    opt = Optimizer(catalog)
    plan = opt.rewrite(plan)
    if keep_all and isinstance(plan, (nodes.Rma, nodes.FusedRma)):
        needed = None  # an RMA consumes its inputs whole: nothing to prune
    elif keep_all:
        names = opt.output_names(plan)
        needed = None if names is None else {n for _, n in names}
    else:
        needed = set()
    plan = opt.prune_columns(plan, needed)
    return opt.fuse_chains(plan)


class Optimizer:
    """The rewrite rules over one plan.

    ``output_names``, ``rewrite`` and ``prune_columns`` are memoized by
    node identity (``prune_columns`` also by the names required above),
    so a subplan object that a ``Matrix`` expression reuses in several
    places is analysed and rewritten once, and the rewritten plan shares
    it the same way: planning a diamond-shaped plan stays linear in its
    distinct nodes.  A memo entry holds its node, so the id it is keyed
    by stays that node's while the optimizer lives (one :func:`optimize`
    call).
    """

    def __init__(self, catalog: Catalog):
        self.catalog = catalog
        self._names: dict[int, tuple] = {}
        self._rewritten: dict[int, tuple] = {}
        self._pruned: dict[tuple, tuple] = {}

    # -- schema inference -----------------------------------------------------

    def output_names(self, plan: nodes.Plan) -> Optional[set[tuple]]:
        """(alias, name) pairs a plan produces, or None when unknown."""
        entry = self._names.get(id(plan))
        if entry is None:
            entry = self._names[id(plan)] = (plan, self._output_names(plan))
        return entry[1]

    def _output_names(self, plan: nodes.Plan) -> Optional[set[tuple]]:
        if isinstance(plan, nodes.Scan):
            try:
                relation = self.catalog.get(plan.table)
            except CatalogError:
                return None
            return {(plan.alias, n) for n in relation.names}
        if isinstance(plan, nodes.RelScan):
            return {(plan.alias, n) for n in plan.names}
        if isinstance(plan, nodes.SubqueryScan):
            inner = self.output_names(plan.plan)
            if inner is None:
                return None
            return {(plan.alias, n) for _, n in inner}
        if isinstance(plan, nodes.Rma):
            return self.rma_output_names(plan)
        if isinstance(plan, nodes.FusedRma):
            return self.fused_output_names(plan)
        if isinstance(plan, nodes.JoinPlan):
            left = self.output_names(plan.left)
            right = self.output_names(plan.right)
            if left is None or right is None:
                return None
            return left | right
        if isinstance(plan, (nodes.Filter, nodes.Distinct, nodes.Sort,
                             nodes.Limit, nodes.Prune)):
            return self.output_names(plan.children()[0])
        if isinstance(plan, nodes.Project):
            names = set()
            for index, item in enumerate(plan.items):
                if isinstance(item.expr, ast.Star):
                    inner = self.output_names(plan.child)
                    if inner is None:
                        return None
                    if item.expr.table is None:
                        names |= {(None, n) for _, n in inner}
                    else:
                        names |= {(None, n) for a, n in inner
                                  if a == item.expr.table}
                    continue
                names.add((None, item.alias
                           or nodes.default_output_name(item.expr, index)))
            return names
        if isinstance(plan, nodes.Aggregate):
            names = {(None, k) for k in plan.key_names}
            for key in plan.keys:
                if isinstance(key, ast.ColumnRef):
                    names.add((key.table, key.name))
            names |= {(None, s.out_name) for s in plan.aggregates}
            return names
        return None

    def fused_output_names(self, plan: nodes.FusedRma) \
            -> Optional[set[tuple]]:
        """Schema of a fused chain: all order parts plus the first leaf's
        application schema (shape type (r*, c*) collapsed over the chain)."""
        first = self.output_names(plan.inputs[0])
        if first is None:
            return None
        out = {(plan.alias, n) for by in plan.bys for n in by}
        first_by = set(plan.bys[0])
        out |= {(plan.alias, n) for _, n in first if n not in first_by}
        return out

    def rma_output_names(self, plan: nodes.Rma) -> Optional[set[tuple]]:
        """Schema of an RMA node by the op table's shape-type rule; None
        when an input's schema is unknown or the result's column names are
        order values (the column casts)."""
        apps = []
        for child, by in zip(plan.inputs, plan.by):
            names = self.output_names(child)
            if names is None:
                return None
            order = set(by)
            apps.append(tuple(n for _, n in names if n not in order))
        spec = spec_of(plan.op)
        app = spec.result_app(*apps)
        if app is None:
            return None
        parts = spec.result_parts(*((by,) for by in plan.by))
        return {(plan.alias, n) for part in parts + (app,) for n in part}

    # -- rule 1+2: pushdown and join rewriting -----------------------------------

    def rewrite(self, plan: nodes.Plan) -> nodes.Plan:
        entry = self._rewritten.get(id(plan))
        if entry is None:
            entry = self._rewritten[id(plan)] = (plan, self._rewrite(plan))
        return entry[1]

    def _rewrite(self, plan: nodes.Plan) -> nodes.Plan:
        if isinstance(plan, nodes.Filter):
            child = self.rewrite(plan.child)
            conjuncts = nodes.split_conjuncts(plan.predicate)
            child, remaining = self.push_conjuncts(child, conjuncts)
            predicate = nodes.conjoin(remaining)
            if predicate is None:
                return child
            return nodes.Filter(child, predicate)
        if isinstance(plan, nodes.JoinPlan):
            left = self.rewrite(plan.left)
            right = self.rewrite(plan.right)
            return nodes.JoinPlan(plan.kind, left, right, plan.condition)
        children = plan.children()
        if not children:
            return plan
        rewritten = tuple(self.rewrite(c) for c in children)
        return with_children(plan, rewritten)

    def push_conjuncts(self, plan: nodes.Plan,
                       conjuncts: list[ast.Expr]) \
            -> tuple[nodes.Plan, list[ast.Expr]]:
        """Push filter conjuncts as deep as possible; returns the rewritten
        plan and the conjuncts that could not be pushed."""
        if not conjuncts:
            return plan, []
        if isinstance(plan, nodes.JoinPlan):
            left_names = self.output_names(plan.left)
            right_names = self.output_names(plan.right)
            push_left: list[ast.Expr] = []
            push_right: list[ast.Expr] = []
            join_conds: list[ast.Expr] = []
            keep: list[ast.Expr] = []
            for conjunct in conjuncts:
                target = self._conjunct_target(conjunct, left_names,
                                               right_names)
                if target == "left":
                    # A LEFT JOIN keeps each left row (or its matches) as
                    # it is, so the preserved side may be filtered first.
                    push_left.append(conjunct)
                elif plan.kind == "left":
                    # The right side's columns read NULL in the rows the
                    # join pads: a conjunct over them stays above it.
                    keep.append(conjunct)
                elif target == "right":
                    push_right.append(conjunct)
                elif target == "both" and self._is_equality(conjunct):
                    join_conds.append(conjunct)
                else:
                    keep.append(conjunct)
            left, rest_l = self.push_conjuncts(plan.left, push_left)
            right, rest_r = self.push_conjuncts(plan.right, push_right)
            keep = rest_l + rest_r + keep
            condition = plan.condition
            kind = plan.kind
            if join_conds:
                new_condition = nodes.conjoin(
                    ([condition] if condition is not None else [])
                    + join_conds)
                condition = new_condition
                if kind == "cross":
                    kind = "inner"
            return nodes.JoinPlan(kind, left, right, condition), keep
        if isinstance(plan, nodes.Filter):
            child, rest = self.push_conjuncts(
                plan.child, conjuncts
                + nodes.split_conjuncts(plan.predicate))
            predicate = nodes.conjoin(rest)
            if predicate is None:
                return child, []
            return nodes.Filter(child, predicate), []
        if isinstance(plan, (nodes.Scan, nodes.RelScan, nodes.SubqueryScan,
                             nodes.Rma)):
            names = self.output_names(plan)
            applicable = []
            rest = []
            for conjunct in conjuncts:
                if names is not None and self._covers(conjunct, names):
                    applicable.append(conjunct)
                else:
                    rest.append(conjunct)
            predicate = nodes.conjoin(applicable)
            if predicate is not None:
                return nodes.Filter(plan, predicate), rest
            return plan, rest
        return plan, conjuncts

    def _conjunct_target(self, conjunct: ast.Expr,
                         left_names: Optional[set[tuple]],
                         right_names: Optional[set[tuple]]) -> str:
        if left_names is None or right_names is None:
            return "unknown"
        refs = nodes.column_refs(conjunct)
        if not refs:
            return "unknown"
        sides = set()
        for ref in refs:
            in_left = ref_matches(ref, left_names)
            in_right = ref_matches(ref, right_names)
            if in_left and in_right:
                return "ambiguous"
            if in_left:
                sides.add("left")
            elif in_right:
                sides.add("right")
            else:
                return "unknown"
        if sides == {"left"}:
            return "left"
        if sides == {"right"}:
            return "right"
        return "both"

    def _covers(self, conjunct: ast.Expr, names: set[tuple]) -> bool:
        return all(ref_matches(ref, names)
                   for ref in nodes.column_refs(conjunct))

    @staticmethod
    def _is_equality(conjunct: ast.Expr) -> bool:
        return isinstance(conjunct, ast.BinaryOp) and conjunct.op == "="

    # -- rule 3: projection pruning ------------------------------------------------

    def prune_columns(self, plan: nodes.Plan,
                      needed: Optional[set[str]] = None) -> nodes.Plan:
        """Insert Prune nodes above scans keeping only referenced columns.

        ``needed`` is a set of unqualified column names required above;
        ``None`` means "everything" (e.g. below a SELECT * or an RMA input,
        whose application schema is the complement of the order schema).
        """
        key = (id(plan), None if needed is None else frozenset(needed))
        entry = self._pruned.get(key)
        if entry is None:
            entry = self._pruned[key] = (plan,
                                         self._prune_columns(plan, needed))
        return entry[1]

    def _prune_columns(self, plan: nodes.Plan,
                       needed: Optional[set[str]]) -> nodes.Plan:
        if isinstance(plan, nodes.Project):
            names: Optional[set[str]] = set()
            for item in plan.items:
                if isinstance(item.expr, ast.Star):
                    names = None
                    break
                names.update(r.name for r in nodes.column_refs(item.expr))
            if names is not None and needed is not None:
                # Nodes above the projection (ORDER BY, HAVING) may still
                # reference source columns through hidden bindings.
                names |= needed
            elif needed is None:
                names = None
            return nodes.Project(
                self.prune_columns(plan.child, names), plan.items)
        if isinstance(plan, nodes.Filter):
            if needed is not None:
                needed = needed | {r.name for r in
                                   nodes.column_refs(plan.predicate)}
            return nodes.Filter(self.prune_columns(plan.child, needed),
                                plan.predicate)
        if isinstance(plan, nodes.JoinPlan):
            child_needed = None
            if needed is not None:
                child_needed = set(needed)
                if plan.condition is not None:
                    child_needed |= {r.name for r in
                                     nodes.column_refs(plan.condition)}
            return nodes.JoinPlan(
                plan.kind,
                self.prune_columns(plan.left, child_needed),
                self.prune_columns(plan.right, child_needed),
                plan.condition)
        if isinstance(plan, nodes.Aggregate):
            child_needed: Optional[set[str]] = set()
            for key in plan.keys:
                child_needed.update(r.name
                                    for r in nodes.column_refs(key))
            for spec in plan.aggregates:
                if spec.argument is not None:
                    child_needed.update(
                        r.name for r in nodes.column_refs(spec.argument))
            return nodes.Aggregate(
                self.prune_columns(plan.child, child_needed),
                plan.keys, plan.key_names, plan.aggregates)
        if isinstance(plan, (nodes.Scan, nodes.RelScan)):
            if needed is None:
                return plan
            # Only the leaf's own columns: the names needed above a join
            # include the other sides'.
            leaf = self.output_names(plan)
            if leaf is not None:
                needed = needed & {name for _, name in leaf}
            return nodes.Prune(plan, tuple(sorted(needed)))
        if isinstance(plan, (nodes.Rma, nodes.FusedRma)):
            # RMA consumes its whole input (order + application schema).
            return nodes.with_children(
                plan,
                tuple(self.prune_columns(c, None) for c in plan.children()))
        if isinstance(plan, (nodes.Sort,)):
            if needed is not None:
                needed = needed | {
                    r.name for item in plan.items
                    for r in nodes.column_refs(item.expr)}
            return nodes.Sort(self.prune_columns(plan.child, needed),
                              plan.items)
        children = plan.children()
        if not children:
            return plan
        rewritten = tuple(self.prune_columns(c, needed) for c in children)
        return with_children(plan, rewritten)

    # -- rule 4: element-wise fusion ---------------------------------------------

    def fuse_chains(self, plan: nodes.Plan) -> nodes.Plan:
        """Collapse compatible element-wise RMA chains into FusedRma nodes."""
        counts = _reference_counts(plan)
        memo: dict[int, nodes.Plan] = {}
        return self._fuse(plan, counts, memo)

    def _fuse(self, plan: nodes.Plan, counts: dict[nodes.Plan, int],
              memo: dict[int, nodes.Plan]) -> nodes.Plan:
        cached = memo.get(id(plan))
        if cached is not None:
            return cached
        result = self._fuse_uncached(plan, counts, memo)
        memo[id(plan)] = result
        return result

    def _fuse_uncached(self, plan: nodes.Plan,
                       counts: dict[nodes.Plan, int],
                       memo: dict[int, nodes.Plan]) -> nodes.Plan:
        if isinstance(plan, nodes.Rma) and plan.op in FUSABLE_OPS:
            fused = self._try_fuse(plan, counts, memo)
            if fused is not None:
                return fused
        children = plan.children()
        if not children:
            return plan
        rewritten = tuple(self._fuse(c, counts, memo) for c in children)
        if all(new is old for new, old in zip(rewritten, children)):
            return plan
        return with_children(plan, rewritten)

    def _try_fuse(self, root: nodes.Rma, counts: dict[nodes.Plan, int],
                  memo: dict[int, nodes.Plan]) -> Optional[nodes.FusedRma]:
        """Collect the maximal fusable chain rooted at ``root``.

        A child edge joins the chain only when (a) the child is a fusable
        Rma with its scalar present where required, (b) the parent orders
        that input by exactly the order part the child produces (its
        concatenated order schemas — a permuted or partial order schema
        changes alignment semantics and is a fusion boundary), and (c) the
        child subplan is not referenced outside the chain: a child with
        more references than the chain root is shared with some *other*
        consumer (CSE executes it once; fusing it away would recompute it
        per chain), while a count equal to the root's just means the whole
        chain is duplicated — fusing every copy yields structurally equal
        ``FusedRma`` nodes that CSE still executes once.
        Returns None when fewer than two operations would fuse.
        """
        leaves: list[tuple[nodes.Plan, tuple[str, ...]]] = []
        steps: list[tuple[str, tuple, Optional[tuple],
                          Optional[float]]] = []
        root_count = counts.get(root, 1)

        def full_schema(node: nodes.Rma) -> tuple[str, ...]:
            if len(node.inputs) == 2:
                return node.by[0] + node.by[1]
            return node.by[0]

        def fusable(node: nodes.Plan,
                    expected_by: Optional[tuple[str, ...]]) -> bool:
            if not (isinstance(node, nodes.Rma)
                    and node.op in FUSABLE_OPS):
                return False
            if spec_of(node.op).scalar and node.scalar is None:
                return False
            if expected_by is None:  # the chain root
                return True
            return (counts.get(node, 0) <= root_count
                    and full_schema(node) == expected_by)

        def emit(node: nodes.Plan,
                 expected_by: Optional[tuple[str, ...]]) -> tuple:
            if not fusable(node, expected_by):
                leaves.append((node, expected_by))
                return ("leaf", len(leaves) - 1)
            assert isinstance(node, nodes.Rma)
            left_ref = emit(node.inputs[0], node.by[0])
            right_ref = None
            if len(node.inputs) == 2:
                right_ref = emit(node.inputs[1], node.by[1])
            steps.append((node.op, left_ref, right_ref, node.scalar))
            return ("step", len(steps) - 1)

        emit(root, None)
        if len(steps) < 2:
            return None
        n_leaves = len(leaves)

        def resolve(ref: tuple) -> int:
            kind, index = ref
            return index if kind == "leaf" else n_leaves + index

        kernel_steps = tuple(
            KernelStep(op, resolve(left),
                       resolve(right) if right is not None else None,
                       scalar)
            for op, left, right, scalar in steps)
        inputs = tuple(self._fuse(leaf, counts, memo) for leaf, _ in leaves)
        bys = tuple(by for _, by in leaves)
        return nodes.FusedRma(kernel_steps, inputs, bys, root.alias)


def _reference_counts(plan: nodes.Plan) -> dict[nodes.Plan, int]:
    """How often each (structurally equal) subplan is referenced.

    Each *occurrence* of a node is counted — that is what CSE sharing means
    — but an object reused in several places has its subtree descended only
    once, keeping the walk linear for diamond-shaped lazy plans (the same
    trick :class:`repro.plan.physical._PhysicalPlanner` uses)."""
    counts: dict[nodes.Plan, int] = {}
    seen: set[int] = set()
    stack = [plan]
    while stack:
        node = stack.pop()
        counts[node] = counts.get(node, 0) + 1
        if id(node) in seen:
            continue
        seen.add(id(node))
        stack.extend(node.children())
    return counts
