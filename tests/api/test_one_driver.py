"""One plan driver: every surface plans and runs through ``Database``.

Counts calls to the optimizer and physical planner *as imported by*
:mod:`repro.api.database`, and to the outermost ``Executor.run`` of each
executor.  Every lazy surface — SQL ``SELECT``, ``CREATE … AS``,
``EXPLAIN``, ``Matrix.collect()`` and ``Matrix.explain()`` — must plan
exactly once through those names and run at most one executor, and eager
``repro.rma.*`` calls must not construct an executor at all.
"""

import threading
from collections import Counter

import numpy as np
import pytest

import repro
import repro.api.database as database
from repro.plan import col
from repro.plan.physical import Executor
from repro.relational.relation import Relation


@pytest.fixture
def calls(monkeypatch):
    """Counter of optimize / plan_physical / outermost run / executors."""
    counts = Counter()
    lock = threading.Lock()
    depth: dict[int, int] = {}

    def counting(name, original):
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return original(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(database, "optimize",
                        counting("optimize", database.optimize))
    monkeypatch.setattr(database, "plan_physical",
                        counting("plan_physical", database.plan_physical))
    real_run, real_init = Executor.run, Executor.__init__

    def run(self, plan):
        with lock:
            outermost = depth.get(id(self), 0) == 0
            depth[id(self)] = depth.get(id(self), 0) + 1
            if outermost:
                counts["run"] += 1
        try:
            return real_run(self, plan)
        finally:
            with lock:
                depth[id(self)] -= 1

    def init(self, *args, **kwargs):
        counts["executors"] += 1
        real_init(self, *args, **kwargs)

    monkeypatch.setattr(Executor, "run", run)
    monkeypatch.setattr(Executor, "__init__", init)
    return counts


@pytest.fixture
def db():
    rng = np.random.default_rng(5)
    square = rng.uniform(1.0, 5.0, (4, 4)) + 4.0 * np.eye(4)
    data = {"key": np.arange(4, dtype=np.int64)}
    for j in range(4):
        data[f"x{j}"] = square[:, j]
    db = repro.connect()
    db.register("t", Relation.from_columns(data))
    db.register("labels", Relation.from_columns({
        "id": np.arange(4, dtype=np.int64),
        "label": ["a", "b", "c", "d"]}))
    return db


def planned_once(calls, runs):
    assert calls["optimize"] == 1
    assert calls["plan_physical"] == 1
    assert calls["run"] == runs
    assert calls["executors"] == runs


class TestOneDriver:
    def test_sql_select(self, db, calls):
        db.execute("SELECT * FROM INV(t BY key)")
        planned_once(calls, runs=1)

    def test_sql_create_as(self, db, calls):
        db.execute("CREATE TABLE u AS SELECT key, x0 FROM t WHERE x0 > 0")
        planned_once(calls, runs=1)
        assert db.table("u").nrows == 4

    def test_sql_explain(self, db, calls):
        db.execute("EXPLAIN SELECT * FROM INV(t BY key)")
        planned_once(calls, runs=0)

    def test_matrix_collect_pure_algebra(self, db, calls):
        m = db.matrix("t", by="key")
        (2.0 * (m.inv() @ m) - 1.0).collect()
        planned_once(calls, runs=1)

    def test_matrix_collect_relational(self, db, calls):
        m = db.matrix("t", by="key")
        labels = db.matrix("labels", by="id", name="l")
        (m.inv()
         .filter(col("x0") > -1e9)
         .join(labels, on=col("key") == col("id", "l"))
         .select("key", "x1", "label")
         .collect())
        planned_once(calls, runs=1)

    def test_matrix_explain(self, db, calls):
        m = db.matrix("t", by="key")
        m.inv().sort("key").explain()
        planned_once(calls, runs=0)

    def test_eager_constructs_no_executor(self, db, calls):
        repro.rma.inv(db.table("t"), by="key")
        assert calls == Counter()
