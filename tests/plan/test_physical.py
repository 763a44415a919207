"""Physical planner and executor: CSE, join strategy, order metadata,
and the warm-order seeding of derived relations (merge_result)."""

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
from repro.plan.build import build_select
from repro.sql.parser import parse_sql


def find_nodes(plan, kind):
    return [n for n in nodes.walk_plan(plan) if isinstance(n, kind)]


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
        info = plan_physical(pipe.plan, Catalog())
        executor = Executor(Catalog(), physical=info)
        result = executor.run(pipe.plan).to_plain_relation()
        assert executor.stats.cse_hits == 30
        assert result.nrows == rel.nrows

    def test_planner_marks_shared_subplans(self):
        rel = square_relation()
        frame = mat(rel).inv()
        pipe = frame @ frame
        info = plan_physical(pipe.plan, Catalog())
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


# -- join strategy choice -------------------------------------------------------


def sorted_tables():
    """Two relations physically sorted by their join keys."""
    left = Relation.from_columns({
        "id": np.arange(8, dtype=np.int64),
        "v": np.arange(8, dtype=np.float64)})
    right = Relation.from_columns({
        "key": np.arange(0, 16, 2, dtype=np.int64),
        "w": np.arange(8, dtype=np.float64)})
    return left.sorted_by(["id"]), right.sorted_by(["key"])


class TestJoinStrategy:
    def make_session(self):
        session = repro.connect()
        left, right = sorted_tables()
        session.register("l", left)
        session.register("r", right)
        return session

    def strategy_of(self, session, sql):
        info = session.physical_info(sql)
        plan = session.plan(sql)
        joins = find_nodes(plan, nodes.JoinPlan)
        assert joins
        return info.join_strategy[joins[0]]

    def test_sorted_keys_choose_merge(self):
        session = self.make_session()
        assert self.strategy_of(
            session,
            "SELECT v, w FROM l JOIN r ON l.id = r.key") == "merge"

    def test_unsorted_side_chooses_hash(self):
        session = self.make_session()
        shuffled = Relation.from_columns({
            "key": np.array([5, 1, 3, 0, 2], dtype=np.int64),
            "w": np.arange(5, dtype=np.float64)})
        session.register("r", shuffled)
        assert self.strategy_of(
            session,
            "SELECT v, w FROM l JOIN r ON l.id = r.key") == "hash"

    def test_merge_result_equals_hash_result(self, run_unoptimized):
        session = self.make_session()
        sql = "SELECT v, w FROM l JOIN r ON l.id = r.key"
        fast = session.execute(sql)
        assert fast.same_rows(run_unoptimized(session, sql))

    def test_filter_above_scan_keeps_merge(self):
        session = self.make_session()
        assert self.strategy_of(
            session,
            "SELECT v, w FROM l JOIN r ON l.id = r.key "
            "WHERE v > 1.0") == "merge"

    def test_str_keys_stay_hash_even_when_sorted(self):
        # The runtime merge path rejects STR keys; the planner must not
        # predict a strategy the executor cannot take.
        session = repro.connect()
        left = Relation.from_columns({
            "k": ["a", "b", "c"], "v": [1.0, 2.0, 3.0]}).sorted_by(["k"])
        right = Relation.from_columns({
            "j": ["a", "b", "d"], "w": [1.0, 2.0, 3.0]}).sorted_by(["j"])
        session.register("l", left)
        session.register("r", right)
        assert self.strategy_of(
            session, "SELECT v, w FROM l JOIN r ON l.k = r.j") == "hash"

    def test_mixed_dtype_keys_stay_hash(self):
        session = repro.connect()
        left = Relation.from_columns({
            "id": np.arange(4, dtype=np.int64),
            "v": np.arange(4, dtype=np.float64)}).sorted_by(["id"])
        right = Relation.from_columns({
            "key": np.arange(4, dtype=np.float64),
            "w": np.arange(4, dtype=np.float64)}).sorted_by(["key"])
        session.register("l", left)
        session.register("r", right)
        assert self.strategy_of(
            session, "SELECT v, w FROM l JOIN r ON l.id = r.key") == "hash"

    def test_multi_key_sorted_join_chooses_merge(self):
        # Both sides are lexicographically sorted by (major, minor), yet a
        # composite key always takes the hash path: its counting probe
        # beats a structured-dtype binary search.
        session = repro.connect()
        left, right = sorted_tables()
        session.register("l", left)
        session.register("r", right)
        sql = "SELECT v, w FROM l JOIN r ON l.id = r.key AND l.v = r.w"
        assert self.strategy_of(session, sql) == "hash"
        assert session.execute(sql).to_rows() == [(0.0, 0.0)]

    def test_theta_join_without_equality_stays_hash(self):
        # No equality conjunct at all: the executor runs cross + filter,
        # so the planner must never claim a merge strategy.
        session = self.make_session()
        assert self.strategy_of(
            session, "SELECT v, w FROM l JOIN r ON l.id < r.key") == "hash"

    def test_multi_key_unsorted_minor_stays_hash(self):
        # Duplicate major keys with a decreasing minor inside a tie group:
        # not lexicographically sorted, so the planner keeps the hash path.
        session = repro.connect()
        left = Relation.from_columns({
            "id": np.array([0, 0, 1, 1], dtype=np.int64),
            "v": np.array([2.0, 1.0, 3.0, 4.0])})
        right = Relation.from_columns({
            "key": np.array([0, 0, 1, 1], dtype=np.int64),
            "w": np.array([1.0, 2.0, 3.0, 4.0])})
        session.register("l", left)
        session.register("r", right)
        assert self.strategy_of(
            session,
            "SELECT v, w FROM l JOIN r ON l.id = r.key AND l.v = r.w") \
            == "hash"


# -- order metadata propagation -------------------------------------------------


class TestOrderMetadata:
    def test_full_sort_rma_establishes_order(self):
        session = repro.connect()
        session.register("m", square_relation())
        sql = "SELECT * FROM INV(m BY key)"
        info = plan_physical(session.plan(sql), session.catalog)
        rma = find_nodes(session.plan(sql), nodes.Rma)[0]
        assert info.ordering[rma] == ("key",)
        assert info.keys[rma] == ("key",)

    def test_filter_preserves_order(self):
        rel, _ = sorted_tables()
        plan = nodes.Filter(mat(rel, "id").plan, parse_predicate("id > 2"))
        info = plan_physical(plan, Catalog())
        assert info.ordering[plan] == ("id",)

    def test_sort_node_establishes_order(self):
        session = repro.connect()
        session.register("m", square_relation())
        plan = build_select(parse_sql("SELECT key, x0 FROM m ORDER BY key"))
        info = plan_physical(plan, session.catalog)
        sort = find_nodes(plan, nodes.Sort)[0]
        assert info.ordering[sort] == ("key",)

    def test_projection_renames_order(self):
        rel, _ = sorted_tables()
        pipe = mat(rel, "id").select("id", "v")
        plan = pipe.plan
        info = plan_physical(plan, Catalog())
        assert info.ordering[plan] == ("id",)

    def test_projection_over_join_does_not_claim_other_sides_order(self):
        # a is sorted by x; projecting b.x AS x above the join yields b's
        # values in join order — the ordering claim must not survive.
        session = repro.connect()
        a = Relation.from_columns({
            "id": np.array([0, 1, 2], dtype=np.int64),
            "x": np.array([1, 2, 3], dtype=np.int64)}).sorted_by(["x"])
        b = Relation.from_columns({
            "id": np.array([2, 0, 1], dtype=np.int64),
            "x": np.array([300, 100, 200], dtype=np.int64)})
        session.register("a", a)
        session.register("b", b)
        sql = "SELECT b.x AS x FROM a JOIN b ON a.id = b.id"
        plan = session.plan(sql)
        info = plan_physical(plan, session.catalog)
        project = find_nodes(plan, nodes.Project)[0]
        assert info.ordering[project] == ()


def parse_predicate(text):
    select = parse_sql(f"SELECT 1 FROM _x WHERE {text}")
    return select.where


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
