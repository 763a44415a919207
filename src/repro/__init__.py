"""repro — relational matrix algebra (RMA) in a column store.

Reproduction of Dolmatova, Augsten, Böhlen: "A Relational Matrix Algebra
and its Implementation in a Column Store" (SIGMOD 2020).

Quickstart — one front door, three surfaces, one plan
-----------------------------------------------------

:func:`connect` opens a session-scoped :class:`Database`; everything users
write against it compiles into the same logical plan IR and runs on the
same executor, so every surface gets plan-level optimization (element-wise
kernel fusion, common-subexpression caching, order-aware planning, the
morsel-parallel engine):

>>> import repro
>>> rating = repro.Relation.from_rows(
...     ["User", "Balto", "Heat"],
...     [("Ann", 2.0, 1.0), ("Tom", 1.0, 1.0)])
>>> db = repro.connect()
>>> db.register("rating", rating)

1. **Matrix expressions** (the primary surface): lazy handles with
   operator overloading — ``@`` is matrix multiplication, ``+``/``-``/
   ``*`` are element-wise, scalars fuse into the chain, ``.T`` transposes,
   and every Table 2 operation is a method:

   >>> m = db.matrix("rating", by="User")
   >>> result = (m.inv() @ m).collect()
   >>> print((2.0 * m - m).explain())      # one fused kernel pass

2. **SQL** (the paper's §7.2 front end), sharing the same caches:

   >>> db.execute("SELECT * FROM INV(rating BY User)")

3. **Eager functions** — each call runs one operation immediately, on
   the same RMA pipeline the executor runs for every plan node:

   >>> repro.rma.inv(rating, by="User")

All three produce bit-identical relations; the expression and SQL surfaces
additionally optimize whole chains.

Subpackages: :mod:`repro.api` (the expression API), :mod:`repro.bat`
(column store), :mod:`repro.relational` (relational algebra),
:mod:`repro.plan` (shared plan layer), :mod:`repro.linalg` (kernel
backends), :mod:`repro.core` (the RMA operations), :mod:`repro.sql` (SQL
front end), :mod:`repro.engine` (morsel-parallel engine),
:mod:`repro.baselines`, :mod:`repro.data`, :mod:`repro.workloads`,
:mod:`repro.bench`.
"""

from repro.api import Database, Matrix, connect
from repro import core as rma
from repro.core import RmaConfig
from repro.core.config import ParallelConfig
from repro.relational.relation import Relation

__version__ = "2.0.0"

__all__ = [
    "connect",
    "Database",
    "Matrix",
    "Relation",
    "RmaConfig",
    "ParallelConfig",
    "rma",
    "__version__",
]
