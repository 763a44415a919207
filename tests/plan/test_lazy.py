"""Lazy ``Matrix`` equivalence: plan execution is bit-identical to eager.

A ``Matrix`` expression must reproduce ``execute_rma`` exactly for every
Table 2 operation — not just numerically close: same names, same dtypes,
same raw tails.  Its relational operators (filter/select/join/sort/limit/
distinct) are checked against their SQL/relational counterparts.
"""

import numpy as np
import pytest

import repro
from repro.bat.bat import DataType
from repro.core.ops import execute_rma
from repro.errors import PlanError
from repro.opspec import OPS
from repro.plan import Executor, nodes
from repro.plan.expr import col, lit
from repro.relational.relation import Relation


def identical(a: Relation, b: Relation) -> bool:
    if a.names != b.names:
        return False
    for name in a.names:
        ca, cb = a.column(name), b.column(name)
        if ca.dtype is not cb.dtype:
            return False
        if ca.dtype is DataType.DBL:
            if not np.array_equal(ca.tail, cb.tail, equal_nan=True):
                return False
        elif list(ca.tail) != list(cb.tail):
            return False
    return True


def keyed(matrix: np.ndarray, key: str = "key", prefix: str = "x",
          shuffle_seed: int | None = 3) -> Relation:
    n, k = matrix.shape
    data = {key: [f"k{i:03d}" for i in range(n)]}
    for j in range(k):
        data[f"{prefix}{j}"] = matrix[:, j]
    rel = Relation.from_columns(data)
    if shuffle_seed is not None and n > 1:
        rng = np.random.default_rng(shuffle_seed)
        perm = rng.permutation(n).astype(np.int64)
        rel = Relation(rel.schema, [c.fetch(perm) for c in rel.columns])
    return rel


RNG = np.random.default_rng(11)
SQUARE = RNG.uniform(1.0, 9.0, (4, 4)) + 4.0 * np.eye(4)
TALL = RNG.uniform(-5.0, 5.0, (6, 3))
SPD = TALL.T @ TALL + 3.0 * np.eye(3)

UNARY_INPUTS = {
    "tra": SQUARE, "inv": SQUARE, "evc": SQUARE, "evl": SQUARE,
    "det": SQUARE, "chf": SPD,
    "qqr": TALL, "rqr": TALL, "dsv": TALL, "vsv": TALL, "usv": TALL,
    "rnk": TALL,
}


class TestUnaryOps:
    @pytest.mark.parametrize("op", sorted(UNARY_INPUTS))
    def test_bit_identical(self, op):
        rel = keyed(UNARY_INPUTS[op])
        eager = execute_rma(op, rel, "key")
        m = repro.connect().matrix(rel, by="key")
        lazy = getattr(m, op)().collect()
        assert identical(eager, lazy), op

    def test_all_unary_ops_covered(self):
        unary = {name for name, spec in OPS.items() if spec.arity == 1}
        assert unary == set(UNARY_INPUTS)


class TestBinaryOps:
    def binary_case(self, op):
        if op in ("add", "sub", "emu"):
            r = keyed(RNG.uniform(0.0, 10.0, (5, 3)), key="k1")
            s = keyed(RNG.uniform(0.0, 10.0, (5, 3)), key="k2",
                      shuffle_seed=5)
            return r, "k1", s, "k2"
        if op == "mmu":
            r = keyed(RNG.uniform(0.0, 5.0, (5, 3)), key="k1")
            s = keyed(RNG.uniform(0.0, 5.0, (3, 4)), key="k2",
                      shuffle_seed=5)
            return r, "k1", s, "k2"
        if op == "opd":
            r = keyed(RNG.uniform(0.0, 5.0, (5, 3)), key="k1")
            s = keyed(RNG.uniform(0.0, 5.0, (4, 3)), key="k2",
                      shuffle_seed=5)
            return r, "k1", s, "k2"
        if op in ("cpd", "sol"):
            r = keyed(RNG.uniform(0.0, 5.0, (6, 3)), key="k1")
            s = keyed(RNG.uniform(0.0, 5.0, (6, 2)), key="k2",
                      shuffle_seed=5)
            return r, "k1", s, "k2"
        raise AssertionError(op)

    @pytest.mark.parametrize("op", sorted(
        name for name, spec in OPS.items() if spec.arity == 2))
    def test_bit_identical(self, op):
        r, by, s, s_by = self.binary_case(op)
        eager = execute_rma(op, r, by, s, s_by)
        db = repro.connect()
        lazy = getattr(db.matrix(r, by=by), op)(db.matrix(s, by=s_by)) \
            .collect()
        assert identical(eager, lazy), op

    def test_other_accepts_bare_relation(self):
        r, by, s, s_by = self.binary_case("add")
        eager = execute_rma("add", r, by, s, s_by)
        lazy = repro.connect().matrix(r, by=by).add(s, by=s_by).collect()
        assert identical(eager, lazy)

    def test_arity_validation(self):
        r, by, s, s_by = self.binary_case("add")
        m = repro.connect().matrix(r, by=by)
        with pytest.raises(PlanError):
            m.add(s)  # a plain relation operand needs its order schema
        with pytest.raises(PlanError):
            m.add(2.5, by=s_by)
        with pytest.raises(TypeError):
            m.inv(s)


class TestChains:
    def test_ols_chain_matches_eager(self):
        n = 40
        rng = np.random.default_rng(4)
        a = Relation.from_columns({
            "id": np.arange(n, dtype=np.int64),
            "const": np.ones(n),
            "x": rng.uniform(0.0, 10.0, n)})
        v = Relation.from_columns({
            "id": np.arange(n, dtype=np.int64),
            "y": rng.uniform(0.0, 100.0, n)})
        xtx = execute_rma("cpd", a, "id", a, "id")
        xty = execute_rma("cpd", a, "id", v, "id")
        eager = execute_rma("mmu", execute_rma("inv", xtx, "C"), "C",
                            xty, "C")

        db = repro.connect()
        design = db.matrix(a, by="id")
        lazy = (design.cpd(design).inv()
                @ design.cpd(db.matrix(v, by="id"))).collect()
        assert identical(eager, lazy)

    def test_collect_without_cse_matches(self, run_unoptimized):
        # CSE runs a repeated subplan once; the eager chain, which runs
        # every occurrence, is the reference.
        rel = keyed(SQUARE)
        inverse = execute_rma("inv", rel, "key")
        eager = execute_rma("mmu", inverse, "key", inverse, "key")
        leaf = nodes.RelScan(rel, "r")
        inv_node = nodes.Rma("inv", (leaf,), (("key",),), None)
        plan = nodes.Rma("mmu", (inv_node, inv_node),
                         (("key",), ("key",)), None)
        executor = Executor(repro.connect().catalog)
        assert identical(eager, executor.run(plan).to_plain_relation())
        assert executor.stats.cse_hits == 1

        # MMU(MMU(INV(CPD(a,a)), CPD(a,a)), INV(CPD(a,a))): CPD x3, INV x2.
        gram = keyed(TALL, key="id")
        xtx = execute_rma("cpd", gram, "id", gram, "id")
        inv_xtx = execute_rma("inv", xtx, "C")
        eager = execute_rma("mmu", execute_rma("mmu", inv_xtx, "C", xtx, "C"),
                            "C", inv_xtx, "C")
        db = repro.connect()
        a = db.matrix(gram, by="id")
        m_xtx = a.cpd(a)
        m_inv = m_xtx.inv()
        assert identical(eager, ((m_inv @ m_xtx) @ m_inv).collect())
        assert db.last_stats.cse_hits >= 2

        # An unfused add chain over derived relations: CSE composes with
        # the order seeding of each intermediate result.
        leaves = [keyed(RNG.uniform(0.0, 10.0, (6, 2)), key=f"k{i}",
                        shuffle_seed=i) for i in range(4)]
        eager, by = leaves[0], ("k0",)
        for i, leaf_rel in enumerate(leaves[1:], start=1):
            eager = execute_rma("add", eager, by, leaf_rel, f"k{i}")
            by += (f"k{i}",)
        db = repro.connect()
        m0, m1, m2, m3 = (db.matrix(r, by=f"k{i}")
                          for i, r in enumerate(leaves))
        assert identical(eager, run_unoptimized(db, m0 + m1 + m2 + m3))

        db = repro.connect()
        m = db.matrix(rel, by="key").inv()
        assert identical(run_unoptimized(db, m @ m), (m @ m).collect())


class TestRelationalOperators:
    @pytest.fixture
    def rel(self):
        return Relation.from_columns({
            "id": np.array([3, 1, 2, 5, 4], dtype=np.int64),
            "grp": ["b", "a", "a", "c", "b"],
            "val": [1.5, 2.5, 0.5, 4.0, 3.0]})

    @pytest.fixture
    def m(self, rel):
        return repro.connect().matrix(rel, by="id")

    def test_scan_passthrough(self, rel, m):
        assert m.collect() is rel

    def test_filter(self, rel, m):
        out = m.filter(col("val") > 1.0).collect()
        assert out.to_rows() == [row for row in rel.to_rows()
                                 if row[2] > 1.0]

    def test_filter_compound(self, rel, m):
        out = m.filter((col("val") > lit(1.0))
                       & (col("grp") == "b")).collect()
        assert out.to_rows() == [(3, "b", 1.5), (4, "b", 3.0)]

    @pytest.mark.parametrize("predicate, where, ids", [
        (lambda n: n.is_null(), "n IS NULL", [1, 3]),
        (lambda n: n.is_not_null(), "n IS NOT NULL", [0, 2, 4, 5]),
        (lambda n: n.isin(1, 3, 7), "n IN (1, 3, 7)", [0, 2]),
    ], ids=["is_null", "is_not_null", "isin"])
    def test_null_and_membership_predicates_match_sql(self, predicate,
                                                      where, ids):
        nullable = Relation.from_columns({
            "id": np.arange(6, dtype=np.int64),
            "n": [1, None, 3, None, 5, 2]})
        db = repro.connect()
        db.register("t", nullable)
        out = db.matrix(nullable, by="id").filter(
            predicate(col("n"))).collect()
        expected = db.execute(f"SELECT * FROM t WHERE {where}")
        assert out.to_rows() == expected.to_rows()
        assert out.column("id").python_values() == ids

    def test_select_names_and_exprs(self, rel, m):
        selected = m.select("id", (col("val") * 2).alias("dbl"))
        assert selected.by == ("id",) and selected.app_names is None
        out = selected.collect()
        assert out.names == ["id", "dbl"]
        assert out.column("dbl").python_values() == \
            [v * 2 for v in rel.column("val").python_values()]

    def test_sort_limit(self, rel, m):
        out = m.sort("id").limit(2).collect()
        assert [r[0] for r in out.to_rows()] == [1, 2]
        out = m.sort("val").limit(1).collect()
        assert out.to_rows() == [(2, "a", 0.5)]

    def test_select_keeps_order_schema(self, rel, m):
        assert m.select("val", "id").app_names == ("val",)
        with pytest.raises(PlanError):
            m.select("grp", "val")
        with pytest.raises(PlanError):
            m.select(col("id").alias("renamed"), "val")

    def test_distinct(self, rel):
        grouped = repro.connect().matrix(rel, by="grp")
        out = grouped.select("grp").distinct().collect()
        assert sorted(v for v in out.column("grp").python_values()) == \
            ["a", "b", "c"]

    def test_join(self, rel):
        other = Relation.from_columns({
            "key": np.array([1, 2, 3], dtype=np.int64),
            "label": ["one", "two", "three"]})
        db = repro.connect()
        joined = (db.matrix(rel, by="id", name="l")
                  .join(db.matrix(other, by="key", name="r"),
                        on=col("id", "l") == col("key", "r")))
        assert joined.by == ("id",) and joined.app_names is None
        out = joined.collect()
        assert sorted(out.column("label").python_values()) == \
            ["one", "three", "two"]

    def test_explain_mentions_nodes(self, rel, m):
        text = m.rnk().filter(col("rnk") >= 0).explain()
        assert "Rma RNK" in text
        assert "RelScan" in text

    def test_interior_select_prunes_scan(self, rel, m):
        pipe = m.select("id", "val").sort("id")
        text = pipe.explain()
        assert "Prune [id, val]" in text
        out = pipe.collect()
        assert out.names == ["id", "val"]
        assert [r[0] for r in out.to_rows()] == [1, 2, 3, 4, 5]

    def test_non_project_root_keeps_all_columns(self, rel, m):
        out = m.filter(col("val") > 1.0).collect()
        assert out.names == rel.names
