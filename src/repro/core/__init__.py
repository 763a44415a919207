"""Relational matrix algebra (RMA) — the paper's contribution.

RMA extends the relational algebra with the 19 relational matrix operations
of Table 2.  Every operation takes relations plus *order schemas* (``BY``
attribute lists), computes the base result of the corresponding matrix
operation over the application part, and morphs contextual information into
a result relation with row and column origins.

>>> from repro.core import inv
>>> from repro.relational import Relation
>>> rating = Relation.from_rows(
...     ["User", "Balto", "Heat"],
...     [("Ann", 2.0, 1.0), ("Tom", 1.0, 1.0)])
>>> print(inv(rating, by="User").names)
['User', 'Balto', 'Heat']
"""

from repro.core.config import RmaConfig, default_config
from repro.core.constructors import (
    column_cast,
    gamma,
    matrix_constructor,
    mu,
    schema_cast,
)
from repro.core.algebra import (
    add,
    chf,
    cpd,
    det,
    dsv,
    emu,
    evc,
    evl,
    inv,
    mmu,
    opd,
    qqr,
    rma_operation,
    rnk,
    rqr,
    sadd,
    sdiv,
    smul,
    sol,
    ssub,
    sub,
    tra,
    usv,
    vsv,
)
from repro.core.origins import column_origin, row_origin, verify_origins

__all__ = [
    "RmaConfig",
    "default_config",
    "mu",
    "gamma",
    "matrix_constructor",
    "schema_cast",
    "column_cast",
    "rma_operation",
    "add", "sub", "emu", "mmu", "opd", "cpd", "tra", "sol", "inv",
    "evc", "evl", "qqr", "rqr", "dsv", "usv", "vsv", "det", "rnk", "chf",
    "sadd", "ssub", "smul", "sdiv",
    "row_origin", "column_origin", "verify_origins",
]
