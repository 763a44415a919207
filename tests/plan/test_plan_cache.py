"""Session-scoped plan/result cache: reuse and stale-free invalidation."""

import gc
import weakref

import numpy as np
import pytest

import repro
from repro.bat.catalog import Catalog
from repro.bat.properties import use_properties
from repro.core.config import RmaConfig
from repro.plan.cache import PlanCache, catalog_stamps
from repro.relational.relation import Relation


def square_relation(n: int = 6, seed: int = 1) -> Relation:
    rng = np.random.default_rng(seed)
    data = {"key": [f"v{i}" for i in range(n)]}
    for j in range(n):
        data[f"c{j}"] = rng.uniform(1.0, 2.0, n)
    # Diagonal dominance keeps INV well-conditioned.
    for j in range(n):
        data[f"c{j}"][j] += n
    return Relation.from_columns(data)


GRAM_SQL = "SELECT * FROM CPD(a BY id, a BY id)"


def gram_table(n: int = 50, seed: int = 3) -> Relation:
    rng = np.random.default_rng(seed)
    return Relation.from_columns({
        "id": rng.permutation(n).astype(np.int64),
        "x": rng.uniform(0, 1, n),
        "y": rng.uniform(0, 1, n)})


def gram_expression(rel: Relation, cache: PlanCache):
    """CPD(rel, rel) on a fresh session (fresh catalog) sharing ``cache``."""
    m = repro.connect(plan_cache=cache).matrix(rel, by="id")
    return m.cpd(m)


class TestCatalogVersions:
    def test_create_bumps_versions(self):
        catalog = Catalog()
        assert catalog.version == 0
        assert catalog.table_version("t") is None
        catalog.create("t", gram_table())
        assert catalog.version == 1
        assert catalog.table_version("t") == 1
        catalog.create("t", gram_table(), replace=True)
        assert catalog.table_version("t") == 2

    def test_drop_removes_version(self):
        catalog = Catalog()
        catalog.create("t", gram_table())
        catalog.drop("t")
        assert catalog.table_version("t") is None
        assert catalog.version == 2  # drop is a mutation too

    def test_versions_case_insensitive(self):
        catalog = Catalog()
        catalog.create("Trips", gram_table())
        assert catalog.table_version("TRIPS") == 1


class TestSessionResultCache:
    def test_repeated_statement_hits_cache(self):
        session = repro.connect()
        session.register("a", gram_table())
        first = session.execute(GRAM_SQL)
        assert session.last_stats.cache_hits == 0
        second = session.execute(GRAM_SQL)
        assert session.last_stats.cache_hits >= 1
        assert first.names == second.names
        assert all(first.column(n) == second.column(n)
                   for n in first.names)

    def test_shared_subplan_reused_across_different_statements(self):
        session = repro.connect()
        session.register("a", gram_table())
        session.execute(GRAM_SQL)
        # A *different* statement containing the same CPD subplan.
        session.execute(
            "SELECT * FROM INV(CPD(a BY id, a BY id) BY C)")
        assert session.last_stats.cache_hits >= 1

    def test_insert_invalidates_affected_entry(self):
        session = repro.connect()
        session.register("t", Relation.from_columns(
            {"id": [1, 2], "v": [1.0, 2.0]}))
        sql = "SELECT * FROM CPD(t BY id, t BY id)"
        before = session.execute(sql)
        session.execute("INSERT INTO t VALUES (3, 10.0)")
        after = session.execute(sql)
        assert session.last_stats.cache_hits == 0
        # CPD over 3 rows includes the new value's square.
        assert before.column("v").python_values() != \
            after.column("v").python_values()
        expected = 1.0 + 4.0 + 100.0
        assert after.column("v").python_values()[0] == pytest.approx(
            expected)

    def test_register_invalidates_affected_entry(self):
        session = repro.connect()
        session.register("a", gram_table(seed=3))
        first = session.execute(GRAM_SQL)
        session.register("a", gram_table(seed=4))
        second = session.execute(GRAM_SQL)
        assert session.last_stats.cache_hits == 0
        assert first.column("x").python_values() != \
            second.column("x").python_values()

    def test_create_or_drop_invalidates(self):
        session = repro.connect()
        session.register("a", gram_table())
        session.execute(GRAM_SQL)
        session.execute("DROP TABLE a")
        session.register("a", gram_table(seed=9))
        session.execute(GRAM_SQL)
        assert session.last_stats.cache_hits == 0

    def test_property_gate_flip_misses_cache(self):
        # The property layer's one gate is process-wide, not a config
        # field, yet part of the cache token: a result cached with the
        # layer on is never served with it off.
        db = repro.connect()
        m = db.matrix(gram_table(), by="id")
        on = m.cpd(m).collect()
        m.cpd(m).collect()
        assert db.last_stats.cache_hits >= 1
        with use_properties(False):
            off = m.cpd(m).collect()
            assert db.last_stats.cache_hits == 0
        assert on.names == off.names
        for name in on.names:
            assert np.array_equal(on.column(name).tail,
                                  off.column(name).tail)

    def test_unrelated_mutation_keeps_entries(self):
        session = repro.connect()
        session.register("a", gram_table())
        session.register("b", gram_table(seed=11))
        session.execute(GRAM_SQL)
        session.register("other", gram_table(seed=12))  # unrelated table
        session.execute(GRAM_SQL)
        assert session.last_stats.cache_hits >= 1

    def test_cache_disabled(self):
        sql = ("SELECT * FROM MMU(INV(CPD(a BY id, a BY id) BY C) BY C, "
               "CPD(a BY id, a BY id) BY C)")
        session = repro.connect(plan_cache=False)
        session.register("a", gram_table())
        session.execute(sql)
        uncached = session.execute(sql)
        assert session.last_stats.cache_hits == 0
        # The cached session serves the same bits.
        cached_session = repro.connect()
        cached_session.register("a", gram_table())
        cached_session.execute(sql)
        cached = cached_session.execute(sql)
        assert cached_session.last_stats.cache_hits >= 1
        assert cached.names == uncached.names
        assert all(cached.column(n) == uncached.column(n)
                   for n in cached.names)

    def test_cse_within_statement_still_counts(self):
        session = repro.connect()
        session.register("a", gram_table())
        session.execute(
            "SELECT * FROM MMU(INV(CPD(a BY id, a BY id) BY C) BY C, "
            "CPD(a BY id, a BY id) BY C)")
        stats = session.last_stats
        assert stats.cse_hits >= 1  # repeated CPD inside one statement


def cached_entry(session):
    """The single statement-plan cache entry (keyed by canonical SQL)."""
    assert len(session._select_plans) == 1
    return next(iter(session._select_plans.values()))


class TestStatementPlanCache:
    def test_plan_object_reused(self):
        session = repro.connect()
        session.register("a", gram_table())
        session.execute(GRAM_SQL)
        plan_a = cached_entry(session)[0]
        session.execute(GRAM_SQL)
        assert cached_entry(session)[0] is plan_a

    def test_plan_rebuilt_after_catalog_change(self):
        session = repro.connect()
        session.register("a", gram_table())
        session.execute(GRAM_SQL)
        plan_a = cached_entry(session)[0]
        session.register("a", gram_table(seed=21))
        session.execute(GRAM_SQL)
        assert cached_entry(session)[0] is not plan_a

    def test_plan_rebuilt_after_config_swap(self):
        # Swapping the session config must replan — a plan optimized under
        # different settings (e.g. fusion on) must not keep executing.
        rng = np.random.default_rng(30)
        n = 50
        session = repro.connect()
        for i in range(3):
            session.register(f"y{i}", Relation.from_columns({
                f"k{i}": rng.permutation(n).astype(np.int64),
                "v": rng.uniform(0, 1, n)}))
        sql = ("SELECT * FROM SUB(ADD(y0 BY k0, y1 BY k1) BY (k0, k1), "
               "y2 BY k2)")
        fused = session.execute(sql)
        assert session.last_stats.fused_nodes == 1
        session.config = RmaConfig(fuse_elementwise=False)
        unfused = session.execute(sql)
        assert session.last_stats.fused_nodes == 0
        assert all(fused.column(c) == unfused.column(c)
                   for c in fused.names)

    def test_physical_info_cached_with_plan(self):
        session = repro.connect()
        session.register("a", gram_table())
        session.execute(GRAM_SQL)
        info_a = cached_entry(session)[1]
        session.execute(GRAM_SQL)
        assert cached_entry(session)[1] is info_a

    def test_plan_rebuilt_after_in_place_config_mutation(self):
        # Mutating the SAME config object must also replan (the cache
        # token covers field values, not just object identity).
        rng = np.random.default_rng(31)
        n = 40
        config = RmaConfig()
        session = repro.connect(config=config)
        for i in range(3):
            session.register(f"y{i}", Relation.from_columns({
                f"k{i}": rng.permutation(n).astype(np.int64),
                "v": rng.uniform(0, 1, n)}))
        sql = ("SELECT * FROM SUB(ADD(y0 BY k0, y1 BY k1) BY (k0, k1), "
               "y2 BY k2)")
        session.execute(sql)
        assert session.last_stats.fused_nodes == 1
        config.fuse_elementwise = False  # in-place mutation
        session.execute(sql)
        assert session.last_stats.fused_nodes == 0

    def test_plan_cache_false_disables_statement_caches(self):
        session = repro.connect(plan_cache=False)
        session.register("a", gram_table())
        session.execute(GRAM_SQL)
        session.execute(GRAM_SQL)
        assert len(session._select_plans) == 0
        assert len(session._statements) == 0
        assert session.result_cache is None


class TestLazyCache:
    def test_collect_with_shared_cache(self):
        cache = PlanCache()
        rel = gram_table()
        first = gram_expression(rel, cache).collect()
        assert cache.hits == 0
        second = gram_expression(rel, cache).collect()
        assert cache.hits >= 1
        assert first.names == second.names
        assert all(first.column(n) == second.column(n)
                   for n in first.names)

    def test_distinct_relations_do_not_collide(self):
        cache = PlanCache()
        a, b = gram_table(seed=1), gram_table(seed=2)
        ra = gram_expression(a, cache).collect()
        rb = gram_expression(b, cache).collect()
        assert ra.column("x").python_values() != \
            rb.column("x").python_values()

    def test_equal_valued_configs_share_entries(self):
        # The cache token is value-based: a fresh (but equal) RmaConfig
        # per collect call keeps hitting.
        cache = PlanCache()
        rel = gram_table()
        pipe = gram_expression(rel, cache)
        pipe.collect(config=RmaConfig())
        pipe.collect(config=RmaConfig())
        assert cache.hits >= 1

    def test_config_value_change_misses(self):
        cache = PlanCache()
        rel = gram_table()
        pipe = gram_expression(rel, cache)
        pipe.collect(config=RmaConfig(validate_keys=True))
        pipe.collect(config=RmaConfig(validate_keys=False))
        assert cache.hits == 0
        # A config mismatch is a miss, not an invalidation: the entry is
        # still valid for its own config.
        assert cache.invalidations == 0


class TestWeakRelScanLeaves:
    """Stored keys hold RelScan leaves weakly: an entry over a collected
    input relation is dropped instead of pinning the input."""

    def test_dead_leaf_drops_entry(self):
        cache = PlanCache()
        rel = gram_table()
        gram_expression(rel, cache).collect()
        assert len(cache) >= 1
        ref = weakref.ref(rel)
        del rel
        gc.collect()
        assert ref() is None
        assert len(cache) == 0
        assert cache.total_bytes == 0

    def test_live_leaf_still_hits(self):
        cache = PlanCache()
        rel = gram_table()
        first = gram_expression(rel, cache).collect()
        gc.collect()
        second = gram_expression(rel, cache).collect()
        assert cache.hits >= 1
        assert all(first.column(n) == second.column(n)
                   for n in first.names)

    def test_scan_entries_unaffected(self):
        cache = PlanCache()
        session = repro.connect(plan_cache=cache)
        session.register("a", gram_table())
        session.execute(GRAM_SQL)
        stored = len(cache)
        assert stored >= 1
        # A collected, unrelated RelScan input leaves Scan entries alone.
        gram_expression(gram_table(seed=9), cache).collect()
        gc.collect()
        assert len(cache) == stored
        session.execute(GRAM_SQL)
        assert session.last_stats.cache_hits >= 1

    def test_evicted_entry_releases_its_finalizer(self):
        cache = PlanCache(max_entries=1)
        from repro.plan import nodes
        catalog, config = Catalog(), RmaConfig()
        a, b = gram_table(seed=1), gram_table(seed=2)
        cache.put(nodes.RelScan(a, "a"), catalog, config, gram_table())
        cache.put(nodes.RelScan(b, "b"), catalog, config, gram_table())
        del a
        gc.collect()
        # a's entry was evicted already; its death must not touch b's.
        assert len(cache) == 1
        assert cache.get(nodes.RelScan(b, "b"), catalog, config) is not None


class TestSharedCacheAcrossSessions:
    def test_independent_catalogs_never_share_stamped_entries(self):
        # Two sessions with independent catalogs but the same table name
        # and SQL text: version stamps only identify tables *within* one
        # catalog, so the shared cache must not serve A's result to B.
        shared = PlanCache()
        a = repro.connect(plan_cache=shared)
        b = repro.connect(plan_cache=shared)
        a.register("t", Relation.from_columns(
            {"id": [1, 2], "v": [1.0, 2.0]}))
        b.register("t", Relation.from_columns(
            {"id": [1, 2], "v": [100.0, 200.0]}))
        sql = "SELECT * FROM CPD(t BY id, t BY id)"
        ra = a.execute(sql)
        # Within one session the entry hits before B touches the key.
        a.execute(sql)
        assert a.last_stats.cache_hits >= 1
        rb = b.execute(sql)
        assert b.last_stats.cache_hits == 0
        assert ra.column("v").python_values()[0] == pytest.approx(5.0)
        assert rb.column("v").python_values()[0] == pytest.approx(50000.0)

    def test_relscan_entries_stay_shareable(self):
        # Each session has its own catalog; stamp-free entries (RelScan
        # identity) must keep hitting across them.
        cache = PlanCache()
        rel = gram_table()
        gram_expression(rel, cache).collect()
        gram_expression(rel, cache).collect()
        assert cache.hits >= 1


class TestPlanCacheUnit:
    def test_stamps_cover_scanned_tables(self):
        session = repro.connect()
        session.register("a", gram_table())
        plan = session.plan(GRAM_SQL)
        stamps = catalog_stamps(plan, session.catalog)
        assert stamps == (("a", 1),)

    def test_lru_eviction(self):
        cache = PlanCache(max_entries=2)
        catalog = Catalog()
        config = RmaConfig()
        rels = [gram_table(seed=i) for i in range(3)]
        from repro.plan import nodes
        plans = [nodes.RelScan(r, f"t{i}") for i, r in enumerate(rels)]
        for plan, rel in zip(plans, rels):
            cache.put(plan, catalog, config, rel)
        assert len(cache) == 2
        assert cache.get(plans[0], catalog, config) is None  # evicted
        assert cache.get(plans[2], catalog, config) is rels[2]
