"""Thread-safety of the lazy caches under the morsel engine.

The per-relation order cache, the per-OrderInfo lazy fields, the BAT
property bits/float views and the session PlanCache are all touched from
pool worker threads.  These tests hammer cold caches from many threads
and assert (a) no torn state, (b) the expensive computations run exactly
once where double-checked locking promises it.
"""

import sys
import threading
import weakref

import numpy as np
import pytest

import repro
import repro.relational.relation as relation_module
from repro.bat.bat import BAT, DataType
from repro.core import RmaConfig
from repro.core.config import ParallelConfig
from repro.plan.cache import PlanCache
from repro.relational.relation import Relation

N_THREADS = 8


def hammer(target, n_threads=N_THREADS):
    """Run ``target`` concurrently from many threads; return all results.

    A barrier lines every thread up on the cold cache before release, and
    worker exceptions propagate to the test.
    """
    barrier = threading.Barrier(n_threads)
    results = [None] * n_threads
    errors = []

    def run(i):
        try:
            barrier.wait()
            results[i] = target()
        except BaseException as exc:  # pragma: no cover - failure path
            errors.append(exc)

    threads = [threading.Thread(target=run, args=(i,))
               for i in range(n_threads)]
    for t in threads:
        t.start()
    for t in threads:
        t.join(timeout=120)
        assert not t.is_alive(), "worker thread did not finish"
    if errors:
        raise errors[0]
    return results


def shuffled_relation(n=5_000, seed=7) -> Relation:
    rng = np.random.default_rng(seed)
    perm = rng.permutation(n)
    return Relation.from_columns({
        "key": perm.astype(np.int64),
        "grp": (perm % 17).astype(np.int64),
        "val": rng.uniform(0.0, 10.0, n)})


class TestOrderCache:
    def test_cold_order_computed_exactly_once(self, monkeypatch):
        rel = shuffled_relation()
        calls = []
        real_order_by = relation_module.order_by

        def counting_order_by(bats):
            calls.append(threading.get_ident())
            return real_order_by(bats)

        monkeypatch.setattr(relation_module, "order_by", counting_order_by)
        positions = hammer(lambda: rel.order_info(["key"]).positions)
        assert len(calls) == 1  # double-checked locking: one argsort
        for p in positions[1:]:
            assert p is positions[0]

    def test_cold_key_check_consistent(self):
        rel = shuffled_relation()
        verdicts = hammer(lambda: rel.order_info(["key"]).is_key)
        assert all(v is True for v in verdicts)

    def test_one_orderinfo_object_per_schema(self):
        rel = shuffled_relation()
        infos = hammer(lambda: rel.order_info(("grp", "key")))
        assert all(info is infos[0] for info in infos[1:])


class TestBatCaches:
    def test_property_bits_consistent(self):
        tail = np.sort(np.random.default_rng(3).integers(
            0, 10**6, 50_000)).astype(np.int64)
        bat = BAT(DataType.INT, tail)
        verdicts = hammer(lambda: (bat.tsorted, bat.tkey, bat.tnonil))
        assert all(v == verdicts[0] for v in verdicts)
        assert bat.cached_prop("tsorted") is True

    def test_float_view_single_published_object(self):
        bat = BAT(DataType.INT,
                  np.arange(100_000, dtype=np.int64))
        views = hammer(bat.as_float)
        published = bat.as_float()
        # Racing first casts may build duplicates, but every caller gets
        # a correct read-only float64 view and one object is published.
        for view in views:
            assert view.dtype == np.float64
            assert not view.flags.writeable
            assert np.array_equal(view, published)


class TestSharedExecution:
    def test_concurrent_collect_on_shared_relation(self):
        rel = shuffled_relation(2_000)
        other = Relation.from_columns({
            "key2": rel.column("key"),
            "grp2": rel.column("grp"),
            "val2": rel.column("val").tail * 2.0})
        config = RmaConfig(parallel=ParallelConfig(
            enabled=True, workers=2, min_morsel_rows=1))

        def run():
            db = repro.connect(config=config, plan_cache=False)
            return (db.matrix(rel, by=("key", "grp"))
                    + db.matrix(other, by=("key2", "grp2"))).collect()

        results = hammer(run)
        reference = run()
        for result in results:
            assert result.names == reference.names
            for name in result.names:
                a, b = result.column(name), reference.column(name)
                if a.dtype is DataType.DBL:
                    assert np.array_equal(a.tail, b.tail, equal_nan=True)
                else:
                    assert list(a.tail) == list(b.tail)

    def test_plan_cache_concurrent_use(self):
        rel = shuffled_relation(1_000)
        cache = PlanCache()
        config = RmaConfig(parallel=ParallelConfig(
            enabled=True, workers=2, min_morsel_rows=1))

        def run():
            db = repro.connect(config=config, plan_cache=cache)
            return db.matrix(rel, by="key").rnk().collect()

        results = hammer(run)
        assert cache.hits + cache.misses >= N_THREADS
        value = results[0].column("rnk").tail[0]
        assert all(r.column("rnk").tail[0] == value for r in results)


class TestSessionCaches:
    def test_concurrent_execute_on_one_database(self):
        """Threads sharing one session hit, evict and re-plan the same
        parse/plan cache entries concurrently; a lookup must never touch
        or delete a key another thread's store just evicted (KeyError).
        Tiny caches and a 1 µs switch interval make the interleaving
        near-certain."""
        db = repro.connect()
        db.register("t", Relation.from_columns({
            "id": np.arange(5, dtype=np.int64), "v": np.arange(5.0)}))
        db._templates.max_entries = 2
        statements = [f"SELECT id, v + {i} AS w FROM t WHERE id >= {i % 3}"
                      for i in range(6)]

        def run():
            for j in range(200):
                db.execute(statements[(j * 7 + threading.get_ident())
                                      % len(statements)])

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            hammer(run)
        finally:
            sys.setswitchinterval(interval)
        out = db.execute(statements[4])
        assert out.column("w").python_values() == [5.0, 6.0, 7.0, 8.0]


class TestPlanCacheBudget:
    def big_relation(self, n, seed):
        rng = np.random.default_rng(seed)
        return Relation.from_columns({
            "key": np.arange(n, dtype=np.int64),
            "val": rng.uniform(0.0, 1.0, n)})

    def key(self, relation, alias):
        """(plan, bound) of a scan of ``relation`` as an executor keys
        it: a relation slot, and the relation bound to it, held
        weakly."""
        from repro.plan import nodes
        return (nodes.RelScan(0, tuple(relation.names), alias),
                (weakref.ref(relation),))

    def test_evicts_by_bytes_lru_first(self):
        from repro.bat.catalog import Catalog
        catalog = Catalog()
        # Each result is ~16 bytes/row * 10_000 rows ≈ 160 kB.
        cache = PlanCache(max_entries=100, max_bytes=400_000)
        rels, keys = [], []
        for i in range(3):
            rel = self.big_relation(10_000, seed=i)
            plan, bound = self.key(rel, f"r{i}")
            rels.append(rel)
            keys.append((plan, bound))
            cache.put(plan, catalog, RmaConfig(), rel, bound)
        assert cache.total_bytes <= 400_000
        assert cache.evictions >= 1
        # The oldest entry went first; the newest is still cached.
        plan, bound = keys[0]
        assert cache.get(plan, catalog, RmaConfig(), bound) is None
        plan, bound = keys[-1]
        assert cache.get(plan, catalog, RmaConfig(), bound) is not None

    def test_entry_backstop_still_applies(self):
        from repro.bat.catalog import Catalog
        catalog = Catalog()
        cache = PlanCache(max_entries=2, max_bytes=10**9)
        rels = [self.big_relation(10, seed=i) for i in range(4)]
        for i, rel in enumerate(rels):
            plan, bound = self.key(rel, f"r{i}")
            cache.put(plan, catalog, RmaConfig(), rel, bound)
        assert len(cache) == 2

    def test_oversized_entry_not_pinned(self):
        from repro.bat.catalog import Catalog
        catalog = Catalog()
        cache = PlanCache(max_entries=8, max_bytes=1_000)
        rel = self.big_relation(10_000, seed=0)
        plan, bound = self.key(rel, "r")
        cache.put(plan, catalog, RmaConfig(), rel, bound)
        assert len(cache) == 0
        assert cache.total_bytes == 0

    def test_str_columns_estimated(self):
        from repro.plan.cache import relation_bytes
        rel = Relation.from_columns({
            "k": [f"key{i:06d}" for i in range(1_000)],
            "v": np.ones(1_000)})
        estimate = relation_bytes(rel)
        # pointers + payload for STR, exact for DBL
        assert estimate > 1_000 * 8 + 1_000 * 8
