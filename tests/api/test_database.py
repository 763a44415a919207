"""Database: the session front door (connect, configuration, caches)."""

import dataclasses
import gc
import inspect
import weakref

import numpy as np
import pytest

import repro
import repro.api.database as database
from repro.api.database import Database
from repro.api.matrix import Matrix
from repro.plan.cache import PlanCache
from repro.core.config import RmaConfig
from repro.errors import (
    CatalogError, KeyViolationError, OrderSchemaError, PlanError)
from repro.relational.relation import Relation


@pytest.fixture
def rel():
    rng = np.random.default_rng(2)
    square = rng.uniform(1.0, 5.0, (4, 4)) + 4.0 * np.eye(4)
    data = {"key": [f"k{i}" for i in range(4)]}
    for j in range(4):
        data[f"x{j}"] = square[:, j]
    return Relation.from_columns(data)


class TestConnect:
    def test_connect_returns_database(self):
        db = repro.connect()
        assert isinstance(db, Database)

    def test_facade_exports(self):
        assert repro.__all__[0] == "connect"
        for name in repro.__all__:
            assert hasattr(repro, name), name

    def test_register_and_table(self, rel):
        db = repro.connect()
        db.register("t", rel)
        assert db.table("t") is rel
        assert db.tables() == ["t"]

    def test_matrix_unknown_table(self):
        db = repro.connect()
        with pytest.raises(CatalogError):
            db.matrix("nope", by="k")

    def test_matrix_unknown_order_attribute(self, rel):
        db = repro.connect()
        with pytest.raises(OrderSchemaError):
            db.matrix(rel, by="missing")

    def test_matrix_rejects_empty_by(self, rel):
        db = repro.connect()
        with pytest.raises(PlanError):
            db.matrix(rel, by=[])

    def test_matrix_rekeys_a_matrix(self, rel):
        db = repro.connect()
        m = db.matrix(rel, by="key")
        rekeyed = db.matrix(m, by=["key", "x0"])
        assert rekeyed.by == ("key", "x0")
        assert rekeyed.plan is m.plan

    def test_app_names_inferred(self, rel):
        db = repro.connect()
        m = db.matrix(rel, by="key")
        assert m.app_names == ("x0", "x1", "x2", "x3")
        assert m.inv().app_names == ("x0", "x1", "x2", "x3")
        assert m.T.app_names is None  # column cast: data-dependent


class TestConfigure:
    def test_configuration_surface(self):
        # One way to configure a session: an RmaConfig given to connect()
        # or assigned to db.config, replaced for one call by collect's or
        # explain's config=.  Plan optimization, fusion and the property
        # layer are not knobs.
        assert {f.name for f in dataclasses.fields(RmaConfig)} == {
            "policy", "optimize_sorting", "validate_keys", "parallel"}
        for opener in (repro.connect, Database):
            assert list(inspect.signature(opener).parameters) == [
                "catalog", "config", "plan_cache"]
        for method in (Matrix.collect, Matrix.explain):
            assert list(inspect.signature(method).parameters) == [
                "self", "config"]
        assert not hasattr(Database, "configure")

    def test_persistent_configure(self):
        # Assigning db.config configures every later call of the session;
        # collect(config=) replaces it for one call.
        dup = Relation.from_columns({"k": ["a", "a"], "x": [2.0, 1.0],
                                     "y": [1.0, 3.0]})
        db = repro.connect()
        m = db.matrix(dup, by="k")
        with pytest.raises(KeyViolationError):
            m.inv().collect()  # keys are validated by default
        db.config = RmaConfig(validate_keys=False)
        assert m.inv().collect().nrows == 2
        with pytest.raises(KeyViolationError):
            m.inv().collect(config=RmaConfig())
        assert m.inv().collect().nrows == 2

    def test_unknown_knob_raises(self, rel):
        # A typo must not silently configure nothing.
        m = repro.connect().matrix(rel, by="key")
        with pytest.raises(TypeError):
            m.collect(validate_kyes=False)
        with pytest.raises(TypeError):
            RmaConfig(validate_kyes=False)

    def test_per_call_override(self, rel):
        db = repro.connect()
        m = db.matrix(rel, by="key")
        a = m.inv().collect()
        b = m.inv().collect(config=RmaConfig(validate_keys=False))
        assert db.config is None  # a per-call config never sticks
        assert np.array_equal(a.column("x0").tail, b.column("x0").tail)

    def test_collect_accepts_full_config(self, rel):
        db = repro.connect()
        config = RmaConfig(validate_keys=False)
        m = db.matrix(rel, by="key")
        out = m.inv().collect(config=config)
        assert out.nrows == 4


class TestSessionCaches:
    def test_expression_result_cache_across_statements(self, rel):
        db = repro.connect()
        m = db.matrix(rel, by="key")
        gram = m.cpd(m)
        gram.collect()
        assert db.last_stats.cache_hits == 0
        gram.collect()  # admitted on its second sighting
        # A *different* expression containing the same subplan hits the
        # session result cache.
        (gram.inv() @ gram).collect()
        assert db.last_stats.cache_hits >= 1

    def test_cache_shared_between_sql_and_matrix(self, rel):
        db = repro.connect()
        db.register("t", rel)
        db.execute("SELECT * FROM INV(t BY key)")
        db.execute("SELECT * FROM INV(t BY key)")  # admitted now
        first = db.last_stats.cache_hits
        db.matrix("t", by="key").inv().collect()
        assert db.last_stats.cache_hits == first + 1

    def test_catalog_mutation_invalidates(self, rel):
        db = repro.connect()
        db.register("t", rel)
        m = db.matrix("t", by="key")
        m.inv().collect()
        out1 = m.inv().collect()  # admitted on its second sighting
        assert len(db.result_cache) >= 1
        db.register("t", rel)  # version bump, same data
        out2 = m.inv().collect()
        assert db.last_stats.cache_hits == 0
        assert np.array_equal(out1.column("x0").tail,
                              out2.column("x0").tail)

    def test_plan_cache_disabled(self, rel):
        db = repro.connect(plan_cache=False)
        assert db.result_cache is None
        m = db.matrix(rel, by="key")
        gram = m.cpd(m)
        gram.collect()
        (gram.inv() @ gram).collect()
        assert db.last_stats.cache_hits == 0

    def test_statement_plan_cache_reuses_named_table_plans(
            self, rel, monkeypatch):
        calls = []
        optimize = database.optimize

        def counting(*args, **kwargs):
            calls.append(args[0])
            return optimize(*args, **kwargs)

        monkeypatch.setattr(database, "optimize", counting)
        db = repro.connect()
        db.register("t", rel)
        m = db.matrix("t", by="key").inv()
        m.collect()
        m.collect()  # the shape is stored on its second sighting
        db.matrix("t", by="key").inv().collect()
        assert len(calls) == 2

    def test_in_memory_plans_not_pinned_by_plan_cache(self):
        """A cached expression template holds relation slots, not the
        relations: an input nothing else holds is collected while its
        template stays cached."""
        db = repro.connect(plan_cache=PlanCache(max_bytes=0))
        relation = Relation.from_columns(
            {"key": [1, 2], "x0": [2.0, 1.0], "x1": [1.0, 3.0]})
        m = db.matrix(relation, by="key").inv()
        m.collect()
        m.collect()
        input_ref = weakref.ref(relation)
        del m, relation
        gc.collect()
        assert input_ref() is None
        assert len(db._templates) == 1

    def test_matrix_rejects_foreign_database_handle(self, rel):
        db1, db2 = repro.connect(), repro.connect()
        m1 = db1.matrix(rel, by="key")
        with pytest.raises(PlanError, match="different database"):
            db2.matrix(m1, by="key")

    def test_sql_path_keeps_tight_pruning(self, rel):
        """SQL SELECTs end in a Project naming their output, so pruning
        below it must stay keep_all=False —
        an output alias colliding with an unused source column must not
        widen the scan."""
        db = repro.connect()
        db.register("t", Relation.from_columns(
            {"k": [1, 2], "x": [1.0, 2.0], "y": [3.0, 4.0]}))
        assert "Prune [x]" in db.explain("SELECT x + 1 AS y FROM t")

    def test_matrix_source_validates_by_and_rejects_name(self, rel):
        db = repro.connect()
        m = db.matrix(rel, by="key")
        with pytest.raises(OrderSchemaError):
            db.matrix(m, by="typo")
        with pytest.raises(OrderSchemaError):
            m.ordered_by(["key", "typo"])
        with pytest.raises(PlanError):
            db.matrix(m, by="key", name="x")
        # Data-dependent schemas can only be checked at execution time.
        assert m.T.ordered_by("whatever").app_names is None
