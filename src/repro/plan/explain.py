"""Pretty-printing of logical plans and their physical annotations.

``explain_lines`` renders an indented operator tree, one node per line; a
subplan the physical planner found repeated carries its occurrence count
in brackets:

.. code-block:: text

    Project [a.Ann]
      Join cross
        Rma TRA arg1 BY (User) AS a [shared x2]
          Scan r AS r
        Rma TRA arg1 BY (User) AS b [shared x2]
          Scan r AS r

Used by ``Matrix.explain()`` and by the SQL ``EXPLAIN`` statement
(:meth:`repro.api.database.Database.explain`).  A statement template's
parameter slots print as the values bound to them.
"""

from __future__ import annotations

import dataclasses

from repro.plan import nodes
from repro.plan.physical import PhysicalInfo, _cse_key
from repro.sql import ast


def describe_node(plan: nodes.Plan, params: tuple = ()) -> str:
    """One-line description of a plan node (no children); ``params``
    are the values bound to its parameter slots."""

    def sql(expr: ast.Expr) -> str:
        return nodes.bind_params(expr, params).to_sql()

    def item_sql(item: "ast.SelectItem | ast.OrderItem") -> str:
        return dataclasses.replace(
            item, expr=nodes.bind_params(item.expr, params)).to_sql()

    if isinstance(plan, nodes.Scan):
        return f"Scan {plan.table} AS {plan.alias}"
    if isinstance(plan, nodes.RelScan):
        return (f"RelScan {plan.alias} ({', '.join(plan.names)}; "
                f"slot {plan.slot})")
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
        return f"Filter {sql(plan.predicate)}"
    if isinstance(plan, nodes.JoinPlan):
        cond = (f" ON {sql(plan.condition)}"
                if plan.condition is not None else "")
        return f"Join {plan.kind}{cond}"
    if isinstance(plan, nodes.Project):
        items = ", ".join(item_sql(i) for i in plan.items)
        return f"Project [{items}]"
    if isinstance(plan, nodes.Aggregate):
        keys = ", ".join(sql(k) for k in plan.keys) or "-"
        aggs = ", ".join(f"{s.func}({sql(s.argument) if s.argument else '*'})"
                         for s in plan.aggregates) or "-"
        return f"Aggregate keys=[{keys}] aggs=[{aggs}]"
    if isinstance(plan, nodes.Distinct):
        return "Distinct"
    if isinstance(plan, nodes.Sort):
        items = ", ".join(item_sql(i) for i in plan.items)
        return f"Sort [{items}]"
    if isinstance(plan, nodes.Limit):
        offset = f" OFFSET {plan.offset}" if plan.offset else ""
        return f"Limit {plan.count}{offset}"
    if isinstance(plan, nodes.Prune):
        return f"Prune [{', '.join(plan.names)}]"
    return type(plan).__name__


def _annotations(plan: nodes.Plan, info: PhysicalInfo | None) -> str:
    if info is None or not isinstance(
            plan, (nodes.Rma, nodes.FusedRma, nodes.SubqueryScan)):
        return ""
    count = info.shared.get(_cse_key(plan))
    return f" [shared x{count}]" if count else ""


def explain_lines(plan: nodes.Plan, info: PhysicalInfo | None = None,
                  params: tuple = ()) -> list[str]:
    """The EXPLAIN output as a list of lines (one relation row each)."""
    lines: list[str] = []

    def emit(node: nodes.Plan, depth: int) -> None:
        lines.append("  " * depth + describe_node(node, params)
                     + _annotations(node, info))
        for child in node.children():
            emit(child, depth + 1)

    emit(plan, 0)
    return lines
