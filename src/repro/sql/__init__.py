"""SQL front end with the RMA syntax extension.

The paper extends MonetDB's SQL parser so relational matrix operations are
available in the FROM clause (§7.2):

.. code-block:: sql

    SELECT * FROM INV(rating BY User);
    SELECT * FROM MMU(w4 BY C, w3 BY U) AS w5 CROSS JOIN (...) AS t;

This package provides the same surface on our engine, as a *thin front
end* over the shared plan layer (:mod:`repro.plan`): a lexer, a recursive
descent parser, and ``build_select`` compiling the AST into the shared
logical IR.  Optimization and execution happen in :mod:`repro.plan` — the
same optimizer, physical planner (CSE) and executor also serve the
matrix-expression API (:mod:`repro.api`).

Statement execution lives on :class:`repro.api.database.Database`
(``repro.connect()``), which owns the catalog, the statement-template,
plan and result caches and ``EXPLAIN <select>``.
"""

from repro.sql.parser import parse_sql
from repro.sql.lexer import tokenize

__all__ = ["parse_sql", "tokenize"]
