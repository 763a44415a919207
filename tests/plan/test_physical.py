"""Physical planner and executor: CSE, joins on the one hash path, the
sorted-merge join function, and the warm-order seeding of derived
relations (merge_result)."""

import numpy as np
import pytest

import repro
from repro.bat.bat import BAT, DataType
from repro.bat.catalog import Catalog
from repro.bat.properties import use_properties
from repro.bat.sorting import order_by
from repro.core.ops import execute_rma
from repro.plan import nodes
from repro.plan.optimizer import optimize
from repro.plan.physical import Executor, plan_physical
from repro.relational import joins as rel_join
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
        plan = optimize(pipe.plan, Catalog(), keep_all=True)
        executor = Executor(Catalog())
        result = executor.run(plan).to_plain_relation()
        assert executor.stats.cse_hits == 1
        assert result.nrows == rel.nrows

    def test_cse_ignores_alias_difference(self):
        rel = square_relation()
        leaf = mat(rel).plan
        a = nodes.Rma("inv", (leaf,), (("key",),), "a")
        b = nodes.Rma("inv", (leaf,), (("key",),), "b")
        plan = nodes.Rma("mmu", (a, b), (("key",), ("key",)), None)
        executor = Executor(Catalog())
        executor.run(plan)
        assert executor.stats.cse_hits == 1

    def test_distinct_subplans_not_shared(self):
        r1, r2 = square_relation(seed=1), square_relation(seed=2)
        db = repro.connect()
        pipe = (db.matrix(r1, by="key").inv()
                @ db.matrix(r2, by="key").inv())
        executor = Executor(Catalog())
        executor.run(pipe.plan)
        assert executor.stats.cse_hits == 0

    def test_deep_diamond_plans_and_executes_linearly(self):
        # Reusing a frame on both sides of every step makes 2^30 structural
        # occurrences; cached node hashes + the id-deduplicated walk and
        # the executor memo must keep this linear in distinct nodes.
        rel = square_relation(3)
        pipe = mat(rel).inv()
        for _ in range(30):
            pipe = pipe @ pipe
        info = plan_physical(pipe.plan)
        executor = Executor(Catalog(), physical=info)
        result = executor.run(pipe.plan).to_plain_relation()
        assert executor.stats.cse_hits == 30
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
        info = session.physical_info(sql)
        assert any(count == 2 for count in info.shared.values())


# -- merge join ----------------------------------------------------------------


def int_bat(values):
    return BAT(DataType.INT, np.asarray(values, dtype=np.int64))


class TestMergeJoin:
    @pytest.mark.parametrize("how", ["inner", "left"])
    def test_matches_hash_join_on_sorted_keys(self, how):
        left = int_bat([1, 2, 2, 4, 7, 9])
        right = int_bat([2, 2, 3, 4, 4, 8, 9])
        merged = rel_join.merge_join_positions([left], [right], how=how)
        hashed = rel_join.join_positions([left], [right], how=how)
        assert np.array_equal(merged[0], hashed[0])
        assert np.array_equal(merged[1], hashed[1])

    def test_unsorted_input_falls_back(self):
        left = int_bat([3, 1, 2])
        right = int_bat([2, 1, 3])
        merged = rel_join.merge_join_positions([left], [right])
        hashed = rel_join.join_positions([left], [right])
        assert np.array_equal(merged[0], hashed[0])
        assert np.array_equal(merged[1], hashed[1])

    def test_dbl_sorted_keys(self):
        left = BAT(DataType.DBL, np.array([0.5, 1.5, 2.5]))
        right = BAT(DataType.DBL, np.array([0.5, 2.5, 3.0]))
        merged = rel_join.merge_join_positions([left], [right])
        hashed = rel_join.join_positions([left], [right])
        assert np.array_equal(merged[0], hashed[0])
        assert np.array_equal(merged[1], hashed[1])

    def test_properties_off_falls_back(self):
        left, right = int_bat([1, 2, 3]), int_bat([2, 3, 4])
        with use_properties(False):
            merged = rel_join.merge_join_positions([left], [right])
            hashed = rel_join.join_positions([left], [right])
        assert np.array_equal(merged[0], hashed[0])
        assert np.array_equal(merged[1], hashed[1])


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
        # Every equi-join takes rel_join.join_positions, whatever the
        # sortedness, dtype or arity of its keys.
        tables, sql, rows = JOIN_SHAPES[shape]
        session = self.make_session(tables)
        result = session.execute(sql)
        assert result.to_rows() == rows
        assert result.same_rows(run_unoptimized(session, sql))


# -- warm-order seeding of derived relations (merge_result) ---------------------


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
        rel = square_relation(6)
        result = execute_rma("inv", rel, "key")
        seeded = result.cached_order_info(("key",)).positions
        fresh = Relation(result.schema, result.columns)  # cold copy
        assert np.array_equal(seeded,
                              fresh.order_info(["key"]).positions)

        # The 4-leaf add chain add(add(add(y0,y1),y2),y3) over shuffled STR
        # keys, step by step and fused: every order the merge seeds — each
        # leaf schema Ui and each combined prefix U0..Ui, on the final
        # result and on every prefix chain — equals a fresh stable sort of
        # a cache-free copy of that result.
        def leaf(i):
            rng = np.random.default_rng(40 + i)
            return Relation.from_columns({
                f"k{i}": [f"r{v:04d}" for v in rng.permutation(300)],
                "d0": rng.uniform(0.0, 10.0, 300),
                "d1": rng.uniform(0.0, 10.0, 300)})

        keys = [f"k{i}" for i in range(4)]
        schemas = [(k,) for k in keys] + [tuple(keys[:i])
                                          for i in range(2, 5)]
        for fuse in (False, True):
            db = repro.connect()
            leaves = [db.matrix(leaf(i), by=f"k{i}") for i in range(4)]
            checked = set()
            for width in range(2, 5):
                chain = sum(leaves[1:width], leaves[0])
                result = (chain.collect() if fuse
                          else run_unoptimized(db, chain))
                for schema in schemas:
                    info = result.cached_order_info(schema)
                    if info is None or info.known_positions is None:
                        continue
                    checked.add(schema)
                    with use_properties(False):
                        cold = [BAT(result.column(n).dtype,
                                    result.column(n).tail.copy())
                                for n in schema]
                        assert np.array_equal(info.known_positions,
                                              order_by(cold)), \
                            (fuse, width, schema)
            assert checked == set(schemas), fuse

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

    def test_no_seeding_when_properties_disabled(self):
        rel = square_relation()
        with use_properties(False):
            result = execute_rma("inv", rel, "key")
        assert result.cached_order_info(("key",)) is None

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
