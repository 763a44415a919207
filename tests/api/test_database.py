"""Database: the session front door (connect, configure, caches)."""

import numpy as np
import pytest

import repro
from repro.api.database import Database, derive_config
from repro.plan.cache import PlanCache
from repro.core.config import ParallelConfig, RmaConfig
from repro.errors import CatalogError, OrderSchemaError, PlanError
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
    def test_persistent_configure(self):
        db = repro.connect()
        db.configure(validate_keys=False)
        assert db.config is not None
        assert db.config.validate_keys is False

    def test_scoped_configure_restores(self):
        db = repro.connect()
        assert db.config is None
        with db.configure(validate_keys=False) as scoped:
            assert scoped is db
            assert db.config.validate_keys is False
        assert db.config is None

    def test_nested_scopes(self):
        db = repro.connect()
        db.configure(validate_keys=False)
        outer = db.config
        with db.configure(parallel=True):
            assert db.config.parallel.enabled
            assert db.config.validate_keys is False  # inherited
        assert db.config is outer

    def test_parallel_knobs(self):
        db = repro.connect()
        with db.configure(parallel=True, workers=3, min_morsel_rows=7):
            assert db.config.parallel.enabled
            assert db.config.parallel.workers == 3
            assert db.config.parallel.min_morsel_rows == 7
        with db.configure(parallel=ParallelConfig(enabled=True, workers=2)):
            assert db.config.parallel.workers == 2

    def test_unknown_knob_raises(self):
        db = repro.connect()
        with pytest.raises(TypeError, match="unknown configuration knob"):
            db.configure(validate_kyes=False)

    def test_property_layer_and_seeding_are_not_knobs(self):
        # The property layer's one gate is repro.bat.properties, and result
        # orders are always seeded: neither is a configuration knob.
        db = repro.connect()
        m = db.matrix(Relation.from_columns({"k": [1, 2], "x": [1.0, 2.0]}),
                      by="k")
        for knob in ("use_properties", "seed_result_orders"):
            with pytest.raises(TypeError, match="unknown configuration knob"):
                db.configure(**{knob: False})
            with pytest.raises(TypeError, match="unknown configuration knob"):
                m.collect(**{knob: False})

    def test_derive_config_does_not_mutate_base(self):
        base = RmaConfig()
        before = (base.validate_keys, base.parallel.enabled,
                  base.parallel.workers)
        derived = derive_config(base, {"validate_keys": False,
                                       "parallel": True, "workers": 9})
        assert (base.validate_keys, base.parallel.enabled,
                base.parallel.workers) == before
        assert derived.validate_keys is False
        assert derived.parallel.enabled
        assert derived.parallel.workers == 9
        assert derived.parallel is not base.parallel

    def test_per_call_override(self, rel):
        db = repro.connect()
        m = db.matrix(rel, by="key")
        a = m.inv().collect()
        b = m.inv().collect(validate_keys=False)
        assert db.config is None  # per-call override never sticks
        assert np.array_equal(a.column("x0").tail, b.column("x0").tail)

    def test_collect_accepts_full_config(self, rel):
        db = repro.connect()
        config = RmaConfig(validate_keys=False)
        m = db.matrix(rel, by="key")
        out = m.inv().collect(config=config, fuse_elementwise=False)
        assert out.nrows == 4


class TestSessionCaches:
    def test_expression_result_cache_across_statements(self, rel):
        db = repro.connect()
        m = db.matrix(rel, by="key")
        gram = m.cpd(m)
        gram.collect()
        assert db.last_stats.cache_hits == 0
        # A *different* expression containing the same subplan hits the
        # session result cache.
        (gram.inv() @ gram).collect()
        assert db.last_stats.cache_hits >= 1

    def test_cache_shared_between_sql_and_matrix(self, rel):
        db = repro.connect()
        db.register("t", rel)
        db.execute("SELECT * FROM INV(t BY key)")
        first = db.last_stats.cache_hits
        db.matrix("t", by="key").inv().collect()
        assert db.last_stats.cache_hits == first + 1

    def test_catalog_mutation_invalidates(self, rel):
        db = repro.connect()
        db.register("t", rel)
        m = db.matrix("t", by="key")
        out1 = m.inv().collect()
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

    def test_statement_plan_cache_reuses_named_table_plans(self, rel):
        db = repro.connect()
        db.register("t", rel)
        m = db.matrix("t", by="key").inv()
        m.collect()
        entry_count = len(db._select_plans)
        assert entry_count == 1
        m.collect()
        assert len(db._select_plans) == entry_count

    def test_in_memory_plans_not_pinned_by_plan_cache(self, rel):
        """RelScan-leaf expression plans bypass the statement-plan cache:
        its entries would pin the input relations with no byte budget."""
        db = repro.connect(plan_cache=PlanCache(max_bytes=0))
        m = db.matrix(rel, by="key").inv()
        m.collect()
        m.collect()
        assert len(db._select_plans) == 0

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
