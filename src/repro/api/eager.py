"""Eager one-op execution: the adapter behind ``repro.rma.*``.

The public eager functions of :mod:`repro.core.algebra` (``rma.add``,
``rma.inv``, ...) run one operation immediately through
:func:`repro.core.ops.execute_rma` — the same prepare/kernel/merge pipeline
the plan executor calls for every RMA node of a SQL statement or
:class:`~repro.api.matrix.Matrix` expression, so results (objects, order
caches, raised errors) are identical across the surfaces; the API
equivalence tests assert it for every operation.

A single operation has nothing for the plan layer to do — no chain to
fuse, no subplan to share, nothing a session cache could serve — so no
plan is built.  Chains belong on a session (:func:`repro.connect`).
"""

from __future__ import annotations

from typing import Optional, Sequence

from repro.core.config import RmaConfig
from repro.core.ops import execute_rma
from repro.relational.relation import Relation


def eager_rma(name: str, r: Relation, by: "str | Sequence[str]",
              s: Relation | None = None,
              s_by: "str | Sequence[str] | None" = None,
              config: RmaConfig | None = None,
              scalar: Optional[float] = None) -> Relation:
    """Run one operation eagerly."""
    return execute_rma(name, r, by, s, s_by, config, scalar=scalar)
