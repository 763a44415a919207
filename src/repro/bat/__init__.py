"""Column-store substrate: BATs (binary association tables).

This package is the stand-in for the MonetDB kernel used by the paper.  A
:class:`~repro.bat.bat.BAT` is one column: a dense head of object identifiers
(OIDs) plus a typed tail of values.  Relational and matrix operators are
expressed as sequences of whole-column BAT operations (see
:mod:`repro.bat.kernels`), mirroring how MonetDB executes queries.

Physical properties and order caching
-------------------------------------

BATs and relations are immutable, so physical properties, per-relation
order permutations and float views of integer columns can never go stale:
they are computed on first demand and cached on the instance, exactly like
MonetDB's per-BAT property bits and order indexes, and never invalidated.
Every BAT lazily computes and caches four physical properties:

* ``tsorted`` / ``trevsorted`` — tail is non-decreasing / non-increasing in
  raw encoding order (only set on nil-free DBL/STR columns, where NaN/None
  would break the total order);
* ``tkey`` — all tail values are distinct;
* ``tnonil`` — no nil entries.

Properties are derived for free where the algebra allows it: ``BAT.dense``
and ``BAT.constant`` seed them at construction, ``slice`` inherits all of
them, ``fetch`` through a sorted/unique positions array keeps order and key
bits, ``append`` of disjoint sorted runs stays sorted, and INT <-> DBL
casts keep order bits on nil-free columns.  The engine exploits them in
:func:`~repro.bat.sorting.order_by` (identity permutation for already-sorted
keys), :func:`~repro.bat.sorting.check_key` (cached-bit short-circuits and a
linear adjacent scan instead of a sort).

One level up, each :class:`~repro.relational.relation.Relation` memoizes the
sort permutation, inverse ranks and key-check verdict per order-schema name
tuple (``Relation.order_info``), and ``BAT.as_float`` caches the float64
view of INT columns — so repeated relational matrix operations over the
same relation sort, validate and cast once instead of per call.
"""

from repro.bat.bat import BAT, DataType, NIL_INT
from repro.bat.kernels import binop, compare
from repro.bat.sorting import check_key, order_by
from repro.bat.catalog import Catalog

__all__ = [
    "BAT",
    "DataType",
    "NIL_INT",
    "binop",
    "compare",
    "order_by",
    "check_key",
    "Catalog",
]
