"""One front door: the session-scoped matrix-expression API.

The paper's thesis is that ordered relations *are* matrices; this package
is the surface that makes the whole library behave that way.
:func:`connect` opens a :class:`~repro.api.database.Database`;
:meth:`~repro.api.database.Database.matrix` hands out lazy
:class:`~repro.api.matrix.Matrix` expression handles with operator
overloading:

>>> import repro
>>> db = repro.connect()
>>> a = db.matrix(design, by="trip_id")
>>> v = db.matrix(target, by="trip_id")
>>> beta = (a.cpd(a).inv() @ a.cpd(v)).collect()

Matrix expressions (matrix operations and the relational operators
``filter``/``select``/``join``/``sort``/``limit``/``distinct``) and SQL
statements compile into the one shared plan IR (:mod:`repro.plan.nodes`)
and run through one driver on the database, so chained user code gets
element-wise kernel fusion, cross-statement common-subexpression caching
and morsel-parallel execution regardless of which surface it was written
against.  The module-level eager functions ``repro.rma.*`` run one
operation immediately on the same RMA pipeline the executor uses.

Modules: :mod:`repro.api.database` (Database/connect, config scoping),
:mod:`repro.api.matrix` (the expression handle, op methods generated from
:mod:`repro.opspec`), :mod:`repro.api.inference` (order/application schema
inference for chaining), :mod:`repro.api.eager` (the one-op adapter behind
``repro.rma.*``).
"""

from repro.api.database import Database, connect, derive_config
from repro.api.matrix import Matrix

__all__ = ["connect", "Database", "Matrix", "derive_config"]
