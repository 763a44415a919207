"""Session-scoped plan/result cache: reuse and stale-free invalidation."""

import gc
import weakref

import numpy as np
import pytest

import repro
from repro.bat.catalog import Catalog
from repro.core.config import RmaConfig
from repro.plan import nodes
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


def bound_key(relation: Relation, alias: str):
    """(plan, bound) of a scan of ``relation`` as an executor keys it: a
    relation slot, and the relation bound to it, held weakly."""
    return (nodes.RelScan(0, tuple(relation.names), alias),
            (weakref.ref(relation),))


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
        assert session.last_stats.deferred_admissions >= 1
        # Results are stored on their key's second sighting...
        session.execute(GRAM_SQL)
        assert session.last_stats.cache_hits == 0
        assert session.last_stats.deferred_admissions == 0
        # ...and served from the third.
        second = session.execute(GRAM_SQL)
        assert session.last_stats.cache_hits >= 1
        assert first.names == second.names
        assert all(first.column(n) == second.column(n)
                   for n in first.names)

    def test_shared_subplan_reused_across_different_statements(self):
        session = repro.connect()
        session.register("a", gram_table())
        session.execute(GRAM_SQL)
        session.execute(GRAM_SQL)  # admitted on its second sighting
        # A *different* statement containing the same CPD subplan.
        session.execute(
            "SELECT * FROM INV(CPD(a BY id, a BY id) BY C)")
        assert session.last_stats.cache_hits >= 1

    def test_insert_invalidates_affected_entry(self):
        session = repro.connect()
        session.register("t", Relation.from_columns(
            {"id": [1, 2], "v": [1.0, 2.0]}))
        sql = "SELECT * FROM CPD(t BY id, t BY id)"
        session.execute(sql)
        before = session.execute(sql)  # admitted on its second sighting
        assert len(session.result_cache) >= 1
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
        session.execute(GRAM_SQL)
        first = session.execute(GRAM_SQL)  # admitted on its second sighting
        assert len(session.result_cache) >= 1
        session.register("a", gram_table(seed=4))
        second = session.execute(GRAM_SQL)
        assert session.last_stats.cache_hits == 0
        assert first.column("x").python_values() != \
            second.column("x").python_values()

    def test_create_or_drop_invalidates(self):
        session = repro.connect()
        session.register("a", gram_table())
        session.execute(GRAM_SQL)
        session.execute(GRAM_SQL)  # admitted on its second sighting
        assert len(session.result_cache) >= 1
        session.execute("DROP TABLE a")
        session.register("a", gram_table(seed=9))
        session.execute(GRAM_SQL)
        assert session.last_stats.cache_hits == 0

    def test_unrelated_mutation_keeps_entries(self):
        session = repro.connect()
        session.register("a", gram_table())
        session.register("b", gram_table(seed=11))
        session.execute(GRAM_SQL)
        session.execute(GRAM_SQL)  # admitted on its second sighting
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
        cached_session.execute(sql)  # admitted on its second sighting
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
    """The planned query of the single statement template."""
    assert len(session._templates) == 1
    return next(iter(session._templates.values())).plan


class TestStatementPlanCache:
    def test_plan_object_reused(self):
        session = repro.connect()
        session.register("a", gram_table())
        session.execute(GRAM_SQL)
        session.execute(GRAM_SQL)  # stored on its second sighting
        plan_a = cached_entry(session)[0]
        session.execute(GRAM_SQL)
        assert cached_entry(session)[0] is plan_a

    def test_plan_rebuilt_after_catalog_change(self):
        session = repro.connect()
        session.register("a", gram_table())
        session.execute(GRAM_SQL)
        session.execute(GRAM_SQL)  # stored on its second sighting
        plan_a = cached_entry(session)[0]
        session.register("a", gram_table(seed=21))
        session.execute(GRAM_SQL)
        assert cached_entry(session)[0] is not plan_a

    def test_plan_rebuilt_after_config_swap(self):
        # Swapping the session config must replan: a plan cached under
        # different settings is never served.
        session = repro.connect()
        session.register("a", gram_table())
        session.execute(GRAM_SQL)
        validated = session.execute(GRAM_SQL)  # stored on this sighting
        plan_a = cached_entry(session)[0]
        session.config = RmaConfig(validate_keys=False)
        unvalidated = session.execute(GRAM_SQL)
        assert cached_entry(session)[0] is not plan_a
        assert all(validated.column(c) == unvalidated.column(c)
                   for c in validated.names)

    def test_physical_info_cached_with_plan(self):
        session = repro.connect()
        session.register("a", gram_table())
        session.execute(GRAM_SQL)
        session.execute(GRAM_SQL)  # stored on its second sighting
        info_a = cached_entry(session)[1]
        session.execute(GRAM_SQL)
        assert cached_entry(session)[1] is info_a

    def test_plan_rebuilt_after_in_place_config_mutation(self):
        # Mutating the SAME config object must also replan (the cache
        # token covers field values, not just object identity).
        config = RmaConfig()
        session = repro.connect(config=config)
        session.register("a", gram_table())
        session.execute(GRAM_SQL)
        session.execute(GRAM_SQL)  # stored on its second sighting
        plan_a = cached_entry(session)[0]
        config.validate_keys = False  # in-place mutation
        session.execute(GRAM_SQL)
        assert cached_entry(session)[0] is not plan_a

    def test_plan_cache_false_disables_statement_caches(self):
        session = repro.connect(plan_cache=False)
        session.register("a", gram_table())
        session.execute(GRAM_SQL)
        session.execute(GRAM_SQL)
        m = session.matrix(gram_table(), by="id")
        m.cpd(m).collect()
        assert len(session._templates) == 0
        assert session.result_cache is None


class TestLazyCache:
    def test_collect_with_shared_cache(self):
        cache = PlanCache()
        rel = gram_table()
        first = gram_expression(rel, cache).collect()
        assert cache.hits == 0
        gram_expression(rel, cache).collect()  # admitted now
        assert cache.hits == 0
        second = gram_expression(rel, cache).collect()
        assert cache.hits >= 1
        assert first.names == second.names
        assert all(first.column(n) == second.column(n)
                   for n in first.names)

    def test_distinct_relations_do_not_collide(self):
        cache = PlanCache()
        a, b = gram_table(seed=1), gram_table(seed=2)
        gram_expression(a, cache).collect()
        ra = gram_expression(a, cache).collect()  # admitted now
        gram_expression(b, cache).collect()
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
        pipe.collect(config=RmaConfig())  # admitted on its second sighting
        pipe.collect(config=RmaConfig())
        assert cache.hits >= 1

    def test_config_value_change_misses(self):
        cache = PlanCache()
        rel = gram_table()
        pipe = gram_expression(rel, cache)
        pipe.collect(config=RmaConfig(validate_keys=True))
        pipe.collect(config=RmaConfig(validate_keys=True))  # admitted now
        assert len(cache) >= 1
        pipe.collect(config=RmaConfig(validate_keys=False))
        assert cache.hits == 0
        # A config mismatch is a miss, not an invalidation: the entry is
        # still valid for its own config.
        assert cache.invalidations == 0


class TestWeakBoundRelations:
    """Stored keys hold their bound relations weakly: an entry over a
    collected input relation is dropped instead of pinning the input."""

    def test_dead_leaf_drops_entry(self):
        cache = PlanCache()
        rel = gram_table()
        gram_expression(rel, cache).collect()
        gram_expression(rel, cache).collect()  # admitted now
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
        gram_expression(rel, cache).collect()  # admitted now
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
        session.execute(GRAM_SQL)  # admitted on its second sighting
        stored = len(cache)
        assert stored >= 1
        # A collected, unrelated bound input leaves Scan entries alone.
        other = gram_table(seed=9)
        gram_expression(other, cache).collect()
        gram_expression(other, cache).collect()  # admitted now
        assert len(cache) > stored
        del other
        gc.collect()
        assert len(cache) == stored
        session.execute(GRAM_SQL)
        assert session.last_stats.cache_hits >= 1

    def test_evicted_entry_releases_its_finalizer(self):
        cache = PlanCache(max_entries=1)
        catalog, config = Catalog(), RmaConfig()
        a, b = gram_table(seed=1), gram_table(seed=2)
        plan_a, bound_a = bound_key(a, "a")
        plan_b, bound_b = bound_key(b, "b")
        cache.put(plan_a, catalog, config, gram_table(), bound_a)
        cache.put(plan_b, catalog, config, gram_table(), bound_b)
        del a
        gc.collect()
        # a's entry was evicted already; its death must not touch b's.
        assert len(cache) == 1
        assert cache.get(plan_b, catalog, config, bound_b) is not None


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
        a.execute(sql)  # admitted on its second sighting
        # Within one session the entry hits before B touches the key.
        a.execute(sql)
        assert a.last_stats.cache_hits >= 1
        rb = b.execute(sql)
        assert b.last_stats.cache_hits == 0
        assert ra.column("v").python_values()[0] == pytest.approx(5.0)
        assert rb.column("v").python_values()[0] == pytest.approx(50000.0)

    def test_relscan_entries_stay_shareable(self):
        # Each session has its own catalog; stamp-free entries (keyed by
        # bound relations' identity) must keep hitting across them.
        cache = PlanCache()
        rel = gram_table()
        gram_expression(rel, cache).collect()
        gram_expression(rel, cache).collect()  # admitted now
        gram_expression(rel, cache).collect()
        assert cache.hits >= 1


class TestPlanCacheUnit:
    def test_doorkeeper_admits_on_second_sighting(self):
        from repro.sql import ast
        cache = PlanCache()
        plan = nodes.Scan("t", "t")
        assert not cache.sighted(plan)
        assert cache.sighted(plan)
        # The bound values are part of the key, by type too.
        assert not cache.sighted(plan, (ast.Literal(1),))
        assert not cache.sighted(plan, (ast.Literal(1.0),))
        assert cache.sighted(plan, (ast.Literal(1),))
        assert cache.misses == 3 and cache.hits == 0

    def test_doorkeeper_starts_over_when_full(self):
        cache = PlanCache(max_entries=1)
        plans = [nodes.Scan(f"t{i}", "t")
                 for i in range(PlanCache.DOORKEEPER_PER_ENTRY + 1)]
        for plan in plans[:-1]:
            assert not cache.sighted(plan)
        assert cache.sighted(plans[0])
        assert not cache.sighted(plans[-1])  # full: reset, then recorded
        assert not cache.sighted(plans[0])  # forgotten by the reset
        assert cache.sighted(plans[-1])

    def test_first_sighting_stores_nothing(self):
        session = repro.connect()
        session.register("a", gram_table())
        session.execute(GRAM_SQL)
        assert len(session.result_cache) == 0
        assert session.result_cache.total_bytes == 0
        session.execute(GRAM_SQL)
        assert len(session.result_cache) >= 1

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
        keys = [bound_key(r, f"t{i}") for i, r in enumerate(rels)]
        for (plan, bound), rel in zip(keys, rels):
            cache.put(plan, catalog, config, rel, bound)
        assert len(cache) == 2
        plan, bound = keys[0]
        assert cache.get(plan, catalog, config, bound) is None  # evicted
        plan, bound = keys[2]
        assert cache.get(plan, catalog, config, bound) is rels[2]
