"""Declarative specification of the 19 matrix operations.

This table is the code form of the paper's Tables 1 and 2: for every
operation it records the arity, the *shape type* (which input dimension the
result rows/columns inherit), the dimension preconditions, and the sorting
class used by the §8.1 optimizations.  :mod:`repro.core` (context
morphing) and :mod:`repro.linalg` (kernels, backend policy) read it, and
:class:`OpSpec` codes the one shape-type rule for result schemas
(:meth:`OpSpec.result_parts`, :meth:`OpSpec.result_app`) and the order
schema preconditions (:meth:`OpSpec.check_order_schemas`), which the
``Matrix`` handles of :mod:`repro.api`, the plan optimizer's schema
inference and the execution pipeline all call.

Shape-type symbols (paper Table 1):

* ``r1``/``r2`` — result dimension equals the row count of input 1/2;
* ``c1``/``c2`` — result dimension equals the column count of input 1/2;
* ``r*``/``c*`` — equals both inputs (which must agree);
* ``1``        — scalar dimension.

Deviation from the paper (documented in DESIGN.md): the paper's Table 1/2
lists ``vsv`` with shape type ``(r1,1)``, which is inconsistent with its own
definition of VSV as "the matrix V with the right singular vectors" (V is
``j1 x j1``, not ``i1 x 1``; the ``(r1,1)`` typing would also make the Fig. 14
benchmark of VSV on 500K x 50 relations impossible).  We resolve the
inconsistency by typing ``vsv`` like ``dsv``: shape type ``(c1,c1)``.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Optional, Sequence

from repro.errors import OrderSchemaError

CONTEXT_ATTRIBUTE = "C"
"""Name of the synthesized context attribute (paper Table 2)."""

Parts = tuple[tuple[str, ...], ...]


class SortClass(enum.Enum):
    """How much sorting an operation needs (paper §8.1).

    * ``FULL``        — every argument must be sorted by its order schema.
    * ``INVARIANT``   — the base result does not depend on row order at all
                        (e.g. ``rnk``): skip sorting entirely.
    * ``EQUIVARIANT`` — permuting input rows permutes result rows the same
                        way (``OP(P a) = P OP(a)``, e.g. ``qqr``): skip
                        sorting; row origins keep the storage order.  For
                        binary operations this applies to the first argument
                        only; the second is sorted.
    * ``RELATIVE``    — only the *relative* order of the two arguments
                        matters (element-wise ops, ``cpd``, ``sol``): leave
                        the first argument in storage order and align the
                        second to it.
    """

    FULL = "full"
    INVARIANT = "invariant"
    EQUIVARIANT = "equivariant"
    RELATIVE = "relative"


@dataclass(frozen=True)
class OpSpec:
    """Static description of one matrix operation."""

    name: str
    arity: int
    shape_type: tuple[str, str]
    sort_class: SortClass = SortClass.FULL
    square: bool = False          # application part must be square
    tall: bool = False            # requires nrows >= ncols
    symmetric: bool = False       # requires a symmetric application part
    order_card_one: tuple[int, ...] = field(default=())
    # ^ which arguments (1-based) need |order schema| == 1 (column cast)
    same_shape: bool = False      # binary: application parts same shape
    inner_dims: bool = False      # binary: ncols(a) == nrows(b)
    same_rows: bool = False       # binary: nrows(a) == nrows(b)
    same_cols: bool = False       # binary: ncols(a) == ncols(b)
    linear: bool = False          # "linear" op for the backend policy (§8.6)
    scalar: bool = False          # unary op parameterized by a constant

    @property
    def unary(self) -> bool:
        return self.arity == 1

    def result_parts(self, parts1: Parts,
                     parts2: Optional[Parts] = None) -> Parts:
        """The result's order schema, grouped by originating operand.

        * row shape type ``r1`` — the result keeps the first input's order
          part;
        * ``r*`` — element-wise results carry both order parts (U ∘ V);
        * ``c1``/``1`` — the result rows are identified by the synthesized
          context attribute ``C`` (schema cast ∆ or the literal ``'r'``).
        """
        x = self.shape_type[0]
        if x == "r1":
            return parts1
        if x == "r*":
            assert parts2 is not None
            return parts1 + parts2
        return ((CONTEXT_ATTRIBUTE,),)

    def result_app(self, app1: Optional[tuple[str, ...]],
                   app2: Optional[tuple[str, ...]] = None) \
            -> Optional[tuple[str, ...]]:
        """The result's application schema, or None when data-dependent.

        ``c1``/``c*`` inherit the first input's application schema, ``c2``
        the second's, ``1`` is the single column named after the
        operation, and the column casts ``r1``/``r2`` name their columns
        after *order values*, unknowable before execution.
        """
        y = self.shape_type[1]
        if y in ("c1", "c*"):
            return app1
        if y == "c2":
            return app2
        if y == "1":
            return (self.name,)
        return None

    def check_order_schemas(self, by1: Optional[Sequence[str]],
                            by2: Optional[Sequence[str]] = None) -> None:
        """Raise :class:`OrderSchemaError` unless the order schemas suit
        the operation: a column-cast argument has one order attribute, and
        the two order schemas of an element-wise operation are disjoint (its
        result carries both).  ``None`` skips an argument."""
        for argument, by in ((1, by1), (2, by2)):
            if by is not None and argument in self.order_card_one \
                    and len(by) != 1:
                raise OrderSchemaError(
                    f"{self.name}: the column cast requires a "
                    f"single-attribute order schema for argument "
                    f"{argument}, got {len(by)}")
        if self.same_shape and by1 is not None and by2 is not None:
            overlap = set(by1) & set(by2)
            if overlap:
                raise OrderSchemaError(
                    f"{self.name}: order schemas overlap on "
                    f"{sorted(overlap)}; rename one side first")


def _spec(*args, **kwargs) -> OpSpec:
    return OpSpec(*args, **kwargs)


OPS: dict[str, OpSpec] = {spec.name: spec for spec in [
    # -- element-wise (r*, c*) -------------------------------------------
    _spec("add", 2, ("r*", "c*"), SortClass.RELATIVE, same_shape=True,
          linear=True),
    _spec("sub", 2, ("r*", "c*"), SortClass.RELATIVE, same_shape=True,
          linear=True),
    _spec("emu", 2, ("r*", "c*"), SortClass.RELATIVE, same_shape=True,
          linear=True),
    # -- products ----------------------------------------------------------
    _spec("mmu", 2, ("r1", "c2"), SortClass.EQUIVARIANT, inner_dims=True),
    _spec("opd", 2, ("r1", "r2"), SortClass.EQUIVARIANT, same_cols=True,
          order_card_one=(2,)),
    _spec("cpd", 2, ("c1", "c2"), SortClass.RELATIVE, same_rows=True),
    _spec("sol", 2, ("c1", "c2"), SortClass.RELATIVE, same_rows=True,
          tall=True),
    # -- unary -------------------------------------------------------------
    _spec("tra", 1, ("c1", "r1"), SortClass.FULL, order_card_one=(1,)),
    _spec("inv", 1, ("r1", "c1"), SortClass.FULL, square=True),
    _spec("evc", 1, ("r1", "c1"), SortClass.FULL, square=True),
    _spec("evl", 1, ("r1", "1"), SortClass.FULL, square=True),
    _spec("chf", 1, ("r1", "c1"), SortClass.FULL, square=True,
          symmetric=True),
    _spec("qqr", 1, ("r1", "c1"), SortClass.EQUIVARIANT, tall=True),
    _spec("rqr", 1, ("c1", "c1"), SortClass.INVARIANT, tall=True),
    _spec("usv", 1, ("r1", "r1"), SortClass.EQUIVARIANT,
          order_card_one=(1,)),
    _spec("dsv", 1, ("c1", "c1"), SortClass.INVARIANT, tall=True),
    _spec("vsv", 1, ("c1", "c1"), SortClass.INVARIANT, tall=True),
    _spec("det", 1, ("1", "1"), SortClass.FULL, square=True),
    _spec("rnk", 1, ("1", "1"), SortClass.INVARIANT),
]}

OP_NAMES: tuple[str, ...] = tuple(OPS)

LINEAR_OPS: frozenset[str] = frozenset(
    name for name, spec in OPS.items() if spec.linear)

# -- scalar variants ----------------------------------------------------------
#
# Element-wise operations against a constant (R + c, R - c, R * c, R / c).
# They are
# not part of the paper's Table 2 (OPS stays the paper's 19 operations and is
# what the SQL grammar accepts), but they are first-class citizens of the
# kernel-program layer: a scalar step costs one ufunc inside a fused chain,
# where a full relational round trip would materialize an intermediate
# relation.  Shape type (r1, c1): rows keep the input's storage order (the
# order part is attached verbatim), columns keep the application schema.

SCALAR_OPS: dict[str, OpSpec] = {spec.name: spec for spec in [
    _spec("sadd", 1, ("r1", "c1"), SortClass.EQUIVARIANT, scalar=True),
    _spec("ssub", 1, ("r1", "c1"), SortClass.EQUIVARIANT, scalar=True),
    _spec("smul", 1, ("r1", "c1"), SortClass.EQUIVARIANT, scalar=True),
    _spec("sdiv", 1, ("r1", "c1"), SortClass.EQUIVARIANT, scalar=True),
]}

ELEMENTWISE_OPS: frozenset[str] = frozenset({"add", "sub", "emu"})
"""The relative-class element-wise operations (shape type (r*, c*))."""

FUSABLE_OPS: frozenset[str] = ELEMENTWISE_OPS | frozenset(SCALAR_OPS)
"""Operations the plan optimizer may collapse into one FusedRma node."""


def spec_of(name: str) -> OpSpec:
    """Look up an operation spec; raises ``KeyError`` with the known names."""
    key = name.lower()
    spec = OPS.get(key) or SCALAR_OPS.get(key)
    if spec is None:
        raise KeyError(
            f"unknown matrix operation {name!r}; known operations: "
            f"{', '.join(OP_NAMES + tuple(SCALAR_OPS))}")
    return spec
