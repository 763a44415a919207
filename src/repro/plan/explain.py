"""Pretty-printing of logical plans and their physical annotations.

``format_plan`` renders an indented operator tree, one node per line, with
the physical planner's annotations appended in brackets:

.. code-block:: text

    Project [User, Net]
      Filter (YoB > 1966)
        Join inner ON (u.User = r.User) [strategy=merge]
          Scan u AS u [order=(User)]
          Scan r AS r [order=(User)]

Used by ``Matrix.explain()`` and by the SQL ``EXPLAIN`` statement
(:meth:`repro.api.database.Database.explain`).
"""

from __future__ import annotations

from repro.plan import nodes
from repro.plan.physical import PhysicalInfo, _cse_key


def describe_node(plan: nodes.Plan) -> str:
    """One-line description of a plan node (no children)."""
    if isinstance(plan, nodes.Scan):
        return f"Scan {plan.table} AS {plan.alias}"
    if isinstance(plan, nodes.RelScan):
        names = ", ".join(plan.relation.names)
        return (f"RelScan {plan.alias} ({names}; "
                f"{plan.relation.nrows} rows)")
    if isinstance(plan, nodes.SubqueryScan):
        return f"Subquery AS {plan.alias}"
    if isinstance(plan, nodes.Rma):
        parts = []
        for i, by in enumerate(plan.by):
            parts.append(f"arg{i + 1} BY ({', '.join(by)})")
        alias = f" AS {plan.alias}" if plan.alias else ""
        scalar = f" scalar={plan.scalar:g}" if plan.scalar is not None \
            else ""
        return f"Rma {plan.op.upper()} {', '.join(parts)}{alias}{scalar}"
    if isinstance(plan, nodes.FusedRma):
        ops = " -> ".join(
            step.op.upper()
            + (f"({step.scalar:g})" if step.scalar is not None else "")
            for step in plan.steps)
        parts = [f"arg{i + 1} BY ({', '.join(by)})"
                 for i, by in enumerate(plan.bys)]
        alias = f" AS {plan.alias}" if plan.alias else ""
        return (f"FusedRma [{ops}] {', '.join(parts)}{alias}")
    if isinstance(plan, nodes.Filter):
        return f"Filter {plan.predicate.to_sql()}"
    if isinstance(plan, nodes.JoinPlan):
        cond = (f" ON {plan.condition.to_sql()}"
                if plan.condition is not None else "")
        return f"Join {plan.kind}{cond}"
    if isinstance(plan, nodes.Project):
        items = ", ".join(i.to_sql() for i in plan.items)
        return f"Project [{items}]"
    if isinstance(plan, nodes.Aggregate):
        keys = ", ".join(k.to_sql() for k in plan.keys) or "-"
        aggs = ", ".join(f"{s.func}({s.argument.to_sql() if s.argument else '*'})"
                         for s in plan.aggregates) or "-"
        return f"Aggregate keys=[{keys}] aggs=[{aggs}]"
    if isinstance(plan, nodes.Distinct):
        return "Distinct"
    if isinstance(plan, nodes.Sort):
        items = ", ".join(i.to_sql() for i in plan.items)
        return f"Sort [{items}]"
    if isinstance(plan, nodes.Limit):
        offset = f" OFFSET {plan.offset}" if plan.offset else ""
        return f"Limit {plan.count}{offset}"
    if isinstance(plan, nodes.Prune):
        return f"Prune [{', '.join(plan.names)}]"
    return type(plan).__name__


def _annotations(plan: nodes.Plan, info: PhysicalInfo | None) -> str:
    if info is None:
        return ""
    parts = []
    if isinstance(plan, nodes.JoinPlan):
        strategy = info.join_strategy.get(plan)
        if strategy:
            parts.append(f"strategy={strategy}")
    ordering = info.ordering.get(plan)
    if ordering:
        parts.append(f"order=({', '.join(ordering)})")
    key = info.keys.get(plan)
    if key:
        parts.append(f"key=({', '.join(key)})")
    if isinstance(plan, (nodes.Rma, nodes.FusedRma, nodes.SubqueryScan)):
        count = info.shared.get(_cse_key(plan))
        if count:
            parts.append(f"shared x{count}")
    if not parts:
        return ""
    return " [" + ", ".join(parts) + "]"


def format_plan(plan: nodes.Plan,
                info: PhysicalInfo | None = None) -> str:
    """Render a plan (and optional physical annotations) as a tree."""
    return "\n".join(explain_lines(plan, info))


def explain_lines(plan: nodes.Plan,
                  info: PhysicalInfo | None = None) -> list[str]:
    """The EXPLAIN output as a list of lines (one relation row each)."""
    lines: list[str] = []

    def emit(node: nodes.Plan, depth: int) -> None:
        lines.append("  " * depth + describe_node(node)
                     + _annotations(node, info))
        for child in node.children():
            emit(child, depth + 1)

    emit(plan, 0)
    return lines
