"""Shared fixtures: the paper's running examples, and the unoptimized
reference run of a query."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import settings

from repro.plan.build import build_select
from repro.plan.nodes import bind_relations
from repro.plan.physical import Executor
from repro.relational import Relation
from repro.sql.parser import parse_sql

# ``pytest --hypothesis-profile=ci`` — CI's longer differential run;
# tests/sql/test_sqlite_differential.py scales its examples by it.
settings.register_profile("ci", deadline=None)


@pytest.fixture
def weather():
    """Relation r of Fig. 2: (T, H, W) with T a key."""
    return Relation.from_rows(
        ["T", "H", "W"],
        [("5am", 1.0, 3.0), ("8am", 8.0, 5.0),
         ("7am", 6.0, 7.0), ("6am", 1.0, 4.0)])


@pytest.fixture
def users():
    """Relation u of Fig. 5 (users)."""
    return Relation.from_rows(
        ["User", "State", "YoB"],
        [("Ann", "CA", 1980), ("Tom", "FL", 1965), ("Jan", "CA", 1970)])


@pytest.fixture
def films():
    """Relation f of Fig. 5 (films)."""
    return Relation.from_rows(
        ["Title", "RelY", "Director"],
        [("Heat", 1995, "Lee"), ("Balto", 1995, "Lee"),
         ("Net", 1995, "Smith")])


@pytest.fixture
def ratings():
    """Relation r of Fig. 5 (ratings)."""
    return Relation.from_rows(
        ["User", "Balto", "Heat", "Net"],
        [("Ann", 2.0, 1.5, 0.5), ("Tom", 0.0, 0.0, 1.5),
         ("Jan", 1.0, 4.0, 1.0)])


@pytest.fixture
def rng():
    return np.random.default_rng(42)


def _run_unoptimized(db, source, config=None) -> Relation:
    """Run a query's built plan directly: no optimizer (so no fusion,
    pushdown, pruning or join reordering), no physical annotations and no
    session cache.  ``source`` is a ``Matrix`` or SQL
    ``SELECT`` text; ``config`` defaults to the session's.  A ``Matrix``
    plan's relations are bound to its slots as a session binds them."""
    relations = ()
    if isinstance(source, str):
        plan = build_select(parse_sql(source))
    else:
        plan, relations = bind_relations(source.plan)
    executor = Executor(db.catalog, config or db.config,
                        relations=relations)
    return executor.run(plan).to_plain_relation()


@pytest.fixture
def run_unoptimized():
    """The reference a plan-level optimization is checked against:
    ``run_unoptimized(db, matrix_or_sql, config=None)``."""
    return _run_unoptimized
