"""Physical planner and executor: CSE, joins on the one hash path, and the
warm-order seeding of derived relations (merge_result)."""

import numpy as np
import pytest

import repro
from repro.bat.bat import BAT
from repro.bat.catalog import Catalog
from repro.core import RmaConfig
from repro.core.config import ParallelConfig
from repro.core.ops import execute_rma
from repro.opspec import OPS
from repro.plan import nodes
from repro.plan.optimizer import optimize
from repro.plan.physical import Executor, plan_physical
from repro.relational.relation import Relation


def mat(rel, by="key"):
    """A session-free way to build raw plans: ``mat(rel).inv().plan``."""
    return repro.connect().matrix(rel, by=by)


def square_relation(n=4, seed=9):
    rng = np.random.default_rng(seed)
    matrix = rng.uniform(1.0, 9.0, (n, n)) + n * np.eye(n)
    data = {"key": [f"k{i:03d}" for i in range(n)]}
    for j in range(n):
        data[f"x{j}"] = matrix[:, j]
    return Relation.from_columns(data)


# -- common-subexpression elimination ------------------------------------------


class TestCse:
    def test_repeated_rma_subplan_runs_once(self):
        rel = square_relation()
        frame = mat(rel).inv()
        pipe = frame @ frame
        shape, relations = nodes.bind_relations(pipe.plan)
        plan = optimize(shape, Catalog(), keep_all=True)
        executor = Executor(Catalog(), relations=relations)
        result = executor.run(plan).to_plain_relation()
        assert executor.stats.cse_hits == 1
        assert result.nrows == rel.nrows

    def test_cse_ignores_alias_difference(self):
        rel = square_relation()
        leaf = nodes.RelScan(0, tuple(rel.names), "r")
        a = nodes.Rma("inv", (leaf,), (("key",),), "a")
        b = nodes.Rma("inv", (leaf,), (("key",),), "b")
        plan = nodes.Rma("mmu", (a, b), (("key",), ("key",)), None)
        executor = Executor(Catalog(), relations=(rel,))
        executor.run(plan)
        assert executor.stats.cse_hits == 1

    def test_distinct_subplans_not_shared(self):
        r1, r2 = square_relation(seed=1), square_relation(seed=2)
        db = repro.connect()
        pipe = (db.matrix(r1, by="key").inv()
                @ db.matrix(r2, by="key").inv())
        plan, relations = nodes.bind_relations(pipe.plan)
        executor = Executor(Catalog(), relations=relations)
        executor.run(plan)
        assert executor.stats.cse_hits == 0

    def test_deep_diamond_plans_and_executes_linearly(self):
        # Reusing a frame on both sides of every step makes 2^30 structural
        # occurrences; cached node hashes + the id-deduplicated walk and
        # the executor memo must keep this linear in distinct nodes.
        rel = square_relation(3)
        pipe = mat(rel).inv()
        for _ in range(30):
            pipe = pipe @ pipe
        plan, relations = nodes.bind_relations(pipe.plan)
        info = plan_physical(plan)
        executor = Executor(Catalog(), physical=info, relations=relations)
        result = executor.run(plan).to_plain_relation()
        assert executor.stats.cse_hits == 30
        assert result.nrows == rel.nrows

    @pytest.mark.parametrize("depth", [10, 30])
    def test_deep_diamond_optimizes_linearly(self, depth, monkeypatch):
        # The optimizer rewrites each distinct node once (memoized by
        # identity), so the optimized plan stays a diamond: without the
        # memo, planning costs ~2^depth node visits.
        from repro.plan.optimizer import Optimizer
        calls = {"rewrite": 0, "prune": 0}
        rewrite, prune = Optimizer._rewrite, Optimizer._prune_columns

        def counted_rewrite(self, plan):
            calls["rewrite"] += 1
            return rewrite(self, plan)

        def counted_prune(self, plan, needed):
            calls["prune"] += 1
            return prune(self, plan, needed)

        monkeypatch.setattr(Optimizer, "_rewrite", counted_rewrite)
        monkeypatch.setattr(Optimizer, "_prune_columns", counted_prune)
        rel = square_relation(3)
        pipe = mat(rel).inv()
        for _ in range(depth):
            pipe = pipe @ pipe
        plan, relations = nodes.bind_relations(pipe.plan)
        optimized = optimize(plan, Catalog(), keep_all=True)
        # One call per distinct node: depth products, the INV, the scan.
        assert calls == {"rewrite": depth + 2, "prune": depth + 2}
        info = plan_physical(optimized)
        executor = Executor(Catalog(), physical=info, relations=relations)
        result = executor.run(optimized).to_plain_relation()
        assert executor.stats.cse_hits == depth
        assert result.nrows == rel.nrows

    def test_planner_marks_shared_subplans(self):
        rel = square_relation()
        frame = mat(rel).inv()
        pipe = frame @ frame
        info = plan_physical(pipe.plan)
        assert any(count == 2 for count in info.shared.values())

    def test_sql_repeated_rma_shares(self, ):
        session = repro.connect()
        session.register("m", square_relation())
        sql = ("SELECT a.x0 FROM INV(m BY key) AS a "
               "CROSS JOIN INV(m BY key) AS b")
        assert "[shared x2]" in session.explain(sql)


# -- joins on the one hash path ---------------------------------------------------


def sorted_tables():
    """Two relations physically sorted by their join keys."""
    left = Relation.from_columns({
        "id": np.arange(8, dtype=np.int64),
        "v": np.arange(8, dtype=np.float64)})
    right = Relation.from_columns({
        "key": np.arange(0, 16, 2, dtype=np.int64),
        "w": np.arange(8, dtype=np.float64)})
    return left.sorted_by(["id"]), right.sorted_by(["key"])


def shuffled_right_tables():
    left, _ = sorted_tables()
    return left, Relation.from_columns({
        "key": np.array([5, 1, 3, 0, 2], dtype=np.int64),
        "w": np.arange(5, dtype=np.float64)})


def str_tables():
    return (Relation.from_columns({
                "k": ["a", "b", "c"], "v": [1.0, 2.0, 3.0]}).sorted_by(["k"]),
            Relation.from_columns({
                "j": ["a", "b", "d"], "w": [1.0, 2.0, 3.0]}).sorted_by(["j"]))


def int_dbl_tables():
    left = Relation.from_columns({
        "id": np.arange(4, dtype=np.int64),
        "v": np.arange(4, dtype=np.float64)}).sorted_by(["id"])
    right = Relation.from_columns({
        "key": np.arange(4, dtype=np.float64),
        "w": np.arange(4, dtype=np.float64)}).sorted_by(["key"])
    return left, right


def tie_group_tables():
    """Duplicate major keys with a decreasing minor inside a tie group:
    not lexicographically sorted by (major, minor)."""
    left = Relation.from_columns({
        "id": np.array([0, 0, 1, 1], dtype=np.int64),
        "v": np.array([2.0, 1.0, 3.0, 4.0])})
    right = Relation.from_columns({
        "key": np.array([0, 0, 1, 1], dtype=np.int64),
        "w": np.array([1.0, 2.0, 3.0, 4.0])})
    return left, right


# shape -> (tables, SQL, the rows it returns, in order)
JOIN_SHAPES = {
    "sorted-int": (
        sorted_tables, "SELECT v, w FROM l JOIN r ON l.id = r.key",
        [(0.0, 0.0), (2.0, 1.0), (4.0, 2.0), (6.0, 3.0)]),
    "sorted-int-left": (
        sorted_tables, "SELECT v, w FROM l LEFT JOIN r ON l.id = r.key",
        [(float(i), i / 2 if i % 2 == 0 else None) for i in range(8)]),
    "unsorted-right": (
        shuffled_right_tables, "SELECT v, w FROM l JOIN r ON l.id = r.key",
        [(0.0, 3.0), (1.0, 1.0), (2.0, 4.0), (3.0, 2.0), (5.0, 0.0)]),
    "filter-over-sorted-scan": (
        sorted_tables,
        "SELECT v, w FROM l JOIN r ON l.id = r.key WHERE v > 1.0",
        [(2.0, 1.0), (4.0, 2.0), (6.0, 3.0)]),
    "sorted-str": (
        str_tables, "SELECT v, w FROM l JOIN r ON l.k = r.j",
        [(1.0, 1.0), (2.0, 2.0)]),
    "int-against-dbl": (
        int_dbl_tables, "SELECT v, w FROM l JOIN r ON l.id = r.key",
        [(0.0, 0.0), (1.0, 1.0), (2.0, 2.0), (3.0, 3.0)]),
    "theta-without-equality": (
        sorted_tables, "SELECT v, w FROM l JOIN r ON l.id < r.key",
        [(float(i), float(j)) for i in range(8) for j in range(8)
         if i < 2 * j]),
    "composite-sorted": (
        sorted_tables,
        "SELECT v, w FROM l JOIN r ON l.id = r.key AND l.v = r.w",
        [(0.0, 0.0)]),
    "composite-minor-in-tie-group": (
        tie_group_tables,
        "SELECT v, w FROM l JOIN r ON l.id = r.key AND l.v = r.w",
        [(2.0, 2.0), (1.0, 1.0), (3.0, 3.0), (4.0, 4.0)]),
}


class TestJoinStrategy:
    def make_session(self, tables=sorted_tables):
        session = repro.connect()
        left, right = tables()
        session.register("l", left)
        session.register("r", right)
        return session

    def test_merge_result_equals_hash_result(self, run_unoptimized):
        session = self.make_session()
        sql = "SELECT v, w FROM l JOIN r ON l.id = r.key"
        fast = session.execute(sql)
        assert fast.same_rows(run_unoptimized(session, sql))

    @pytest.mark.parametrize("shape", list(JOIN_SHAPES))
    def test_join_shape(self, shape, run_unoptimized):
        # Every equi-join takes joins.join_positions, whatever the
        # sortedness, dtype or arity of its keys.
        tables, sql, rows = JOIN_SHAPES[shape]
        session = self.make_session(tables)
        result = session.execute(sql)
        assert result.to_rows() == rows
        assert result.same_rows(run_unoptimized(session, sql))


# -- warm-order seeding of derived relations (merge_result) ---------------------


PARALLEL = {"serial": ParallelConfig(enabled=False),
            "parallel": ParallelConfig(enabled=True, workers=2,
                                       min_morsel_rows=1)}


def keyed(rng, rows, cols, key="key"):
    """A relation with shuffled STR keys and a uniform application part."""
    data = {key: [f"k{v:03d}" for v in rng.permutation(rows)]}
    for j in range(cols):
        data[f"{key}_x{j}"] = rng.uniform(1.0, 9.0, rows)
    return Relation.from_columns(data)


def table2_inputs(op, rng):
    """``execute_rma`` arguments of a Table 2 operation."""
    if op in ("add", "sub", "emu", "cpd", "sol"):
        return (keyed(rng, 24, 3, "k1"), "k1",
                keyed(rng, 24, 2 if op in ("cpd", "sol") else 3, "k2"),
                "k2")
    if op == "mmu":
        return keyed(rng, 12, 3, "k1"), "k1", keyed(rng, 3, 4, "k2"), "k2"
    if op == "opd":
        return keyed(rng, 5, 3, "k1"), "k1", keyed(rng, 4, 3, "k2"), "k2"
    if OPS[op].square:
        # Symmetric positive definite once sorted by key (real
        # eigenvalues, a Cholesky factor), stored in shuffled row order.
        a = rng.uniform(1.0, 9.0, (4, 4))
        spd = a.T @ a + 4.0 * np.eye(4)
        perm = rng.permutation(4)
        return Relation.from_columns({
            "key": [f"k{i:03d}" for i in perm],
            **{f"key_x{j}": spd[perm, j] for j in range(4)}}), "key"
    return keyed(rng, 12, 3), "key"


def assert_seeds_recompute(result):
    """Check every cached bit and order of ``result`` against a cold
    recomputation; return the order schemas whose positions were seeded.

    Each cached property bit of a column equals the bit computed on a
    cache-free copy of it, each known order equals ``np.lexsort`` over
    copies of its columns, and each known key verdict equals a count of
    distinct rows."""
    for col in result.columns:
        cold = BAT(col.dtype, col.tail.copy())
        for bit in ("tsorted", "trevsorted", "tkey", "tnonil"):
            if col.cached_prop(bit) is not None:
                assert col.cached_prop(bit) == getattr(cold, bit), bit
    seeded = set()
    for names, info in result._order_cache.items():
        tails = [result.column(n).tail.copy() for n in names]
        if info.known_positions is not None:
            assert np.array_equal(info.known_positions,
                                  np.lexsort(tails[::-1])), names
            seeded.add(names)
        if info.known_is_key is not None:
            rows = set(zip(*[t.tolist() for t in tails]))
            assert info.known_is_key == (len(rows) == result.nrows), names
    return seeded


class TestDerivedRelationSeeding:
    def test_full_sort_result_seeded_identity(self):
        rel = square_relation()
        result = execute_rma("inv", rel, "key")
        info = result.cached_order_info(("key",))
        assert info is not None
        assert np.array_equal(info.known_positions,
                              np.arange(result.nrows))
        assert info.known_is_key is True
        assert result.column("key").cached_prop("tkey") is True

    def test_elementwise_result_seeded_both_schemas(self):
        rng = np.random.default_rng(3)
        r = Relation.from_columns({
            "k1": rng.permutation(6).astype(np.int64),
            "a": rng.uniform(0, 1, 6)})
        s = Relation.from_columns({
            "k2": rng.permutation(6).astype(np.int64),
            "b": rng.uniform(0, 1, 6)})
        result = execute_rma("add", r, "k1", s, "k2")
        # First order schema: shares the input's OrderInfo verbatim.
        assert result.cached_order_info(("k1",)) is \
            r.cached_order_info(("k1",))
        # Second order schema: derived permutation, validated key.
        info = result.cached_order_info(("k2",))
        assert info is not None
        ordered = result.column("k2").tail[info.positions]
        assert np.array_equal(ordered, np.sort(ordered))
        assert info.known_is_key is True

    def test_seeded_positions_match_fresh_sort(self, run_unoptimized):
        """Every seed the merge step plants is what recomputation gives:
        after each Table 2 operation, and after the 2- to 4-leaf add
        chains add(add(add(y0,y1),y2),y3) over shuffled STR keys, step by
        step and fused, serially and on the forced-parallel engine."""
        rng = np.random.default_rng(40)
        for name, parallel in PARALLEL.items():
            config = RmaConfig(parallel=parallel)
            for op, spec in OPS.items():
                result = execute_rma(op, *table2_inputs(op, rng),
                                     config=config)
                assert_seeds_recompute(result)
                if spec.shape_type[0] in ("r1", "r*"):
                    assert result._order_cache, (name, op)

            def leaf(i):
                leaf_rng = np.random.default_rng(40 + i)
                return Relation.from_columns({
                    f"k{i}": [f"r{v:04d}"
                              for v in leaf_rng.permutation(300)],
                    "d0": leaf_rng.uniform(0.0, 10.0, 300),
                    "d1": leaf_rng.uniform(0.0, 10.0, 300)})

            # Each leaf schema Ui and each combined prefix U0..Ui is
            # seeded on some result of the chains.
            keys = [f"k{i}" for i in range(4)]
            schemas = [(k,) for k in keys] + [tuple(keys[:i])
                                              for i in range(2, 5)]
            for fuse in (False, True):
                db = repro.connect(config=config)
                leaves = [db.matrix(leaf(i), by=f"k{i}") for i in range(4)]
                seeded = set()
                for width in range(2, 5):
                    chain = sum(leaves[1:width], leaves[0])
                    result = (chain.collect() if fuse
                              else run_unoptimized(db, chain))
                    seeded |= assert_seeds_recompute(result)
                assert seeded >= set(schemas), (name, fuse)

    def test_chained_operation_skips_resort(self, monkeypatch):
        rel = square_relation()
        inverted = execute_rma("inv", rel, "key")

        import repro.relational.relation as rel_mod

        def forbidden(*args, **kwargs):  # pragma: no cover - failure path
            raise AssertionError("order_by called on a warm relation")

        monkeypatch.setattr(rel_mod, "order_by", forbidden)
        # The chained op re-establishes the same order: must hit the seed.
        again = execute_rma("inv", inverted, "key")
        assert again.nrows == rel.nrows

    def test_equivariant_result_shares_input_order(self):
        rng = np.random.default_rng(5)
        rel = Relation.from_columns({
            "id": rng.permutation(8).astype(np.int64),
            "a": rng.uniform(0, 1, 8),
            "b": rng.uniform(0, 1, 8)})
        rel.order_info(["id"]).positions  # warm the input cache
        result = execute_rma("qqr", rel, "id")
        assert result.cached_order_info(("id",)) is \
            rel.cached_order_info(("id",))
