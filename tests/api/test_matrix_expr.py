"""Matrix expression handles: operators, inference, fusion, bridging."""

import numpy as np
import pytest

import repro
from repro.core.ops import execute_rma
from repro.errors import OrderSchemaError, PlanError
from repro.opspec import OPS, SCALAR_OPS
from repro.plan import col
from repro.relational.relation import Relation


def rel_with_key(key: str, n: int = 6, cols=("x", "y"), seed: int = 0):
    rng = np.random.default_rng(seed)
    data = {key: [f"{key}{i}" for i in rng.permutation(n)]}
    for c in cols:
        data[c] = rng.uniform(0.0, 10.0, n)
    return Relation.from_columns(data)


@pytest.fixture
def db():
    return repro.connect()


class TestMethodGeneration:
    def test_every_op_is_a_method(self, db):
        m = db.matrix(rel_with_key("k"), by="k")
        for name in list(OPS) + list(SCALAR_OPS):
            method = getattr(type(m), name)
            assert callable(method), name
            assert method.__doc__ and name in method.__doc__

    def test_docstrings_mention_operator_sugar(self, db):
        m = db.matrix(rel_with_key("k"), by="k")
        assert "a @ b" in type(m).mmu.__doc__
        assert "a.T" in type(m).tra.__doc__


class TestOrderInference:
    def test_shape_type_r1_keeps_order(self, db):
        a = db.matrix(rel_with_key("ka", cols=("x", "y")), by="ka")
        b = db.matrix(rel_with_key("kb", 2, cols=("u", "v")), by="kb")
        assert (a @ b).by == ("ka",)
        assert a.qqr().by == ("ka",)

    def test_elementwise_concatenates_orders(self, db):
        a = db.matrix(rel_with_key("ka"), by="ka")
        b = db.matrix(rel_with_key("kb", seed=1), by="kb")
        assert (a + b).by == ("ka", "kb")
        assert (a + b).app_names == ("x", "y")

    def test_column_cast_results_keyed_by_C(self, db):
        a = db.matrix(rel_with_key("ka"), by="ka")
        assert a.T.by == ("C",)
        assert a.cpd(a).by == ("C",)
        assert a.rnk().by == ("C",)
        assert a.rnk().app_names == ("rnk",)

    def test_scalar_steps_keep_order(self, db):
        a = db.matrix(rel_with_key("ka"), by="ka")
        assert (2.0 * a).by == ("ka",)
        assert (2.0 * a).app_names == ("x", "y")


class TestOperatorChain:
    def test_issue_chain_explains_fused(self, db):
        """The acceptance chain: (a @ b + smul-chain) shows a FusedRma."""
        a = db.matrix(rel_with_key("ka", cols=("x", "y", "z")), by="ka")
        b = db.matrix(rel_with_key("kb", 3, cols=("u", "v"), seed=1),
                      by="kb")
        c = db.matrix(rel_with_key("kc", seed=2), by="kc")
        d = db.matrix(rel_with_key("kd", seed=3), by="kd")
        expr = a @ b + 2.0 * c - d
        text = expr.explain()
        assert "FusedRma" in text
        assert "SMUL" in text and "ADD" in text and "SUB" in text
        result = expr.collect()
        assert db.last_stats.fused_nodes == 1
        # Bit-identical to the eager per-op chain.
        ab = execute_rma("mmu", rel_of(a), "ka", rel_of(b), "kb")
        step = execute_rma("add", ab, "ka",
                           execute_rma("smul", rel_of(c), "kc",
                                       scalar=2.0), "kc")
        eager = execute_rma("sub", step, ["ka", "kc"], rel_of(d), "kd")
        assert result.names == eager.names
        for name in result.names:
            ca, cb = result.column(name), eager.column(name)
            assert list(ca.tail) == list(cb.tail) \
                or np.array_equal(ca.tail, cb.tail, equal_nan=True)

    def test_transpose_after_chain_narrows(self, db):
        a = db.matrix(rel_with_key("ka"), by="ka")
        c = db.matrix(rel_with_key("kc", seed=2), by="kc")
        expr = (a + c).T
        text = expr.explain()
        assert "Prune" in text and "Rma TRA" in text
        out = expr.collect()
        assert out.names[0] == "C"
        assert out.nrows == 2  # the two application columns

    def test_explicit_narrow(self, db):
        a = db.matrix(rel_with_key("ka"), by="ka")
        c = db.matrix(rel_with_key("kc", seed=2), by="kc")
        chain = a + c
        assert chain.narrow().by == ("ka",)
        assert chain.narrow().app_names == ("x", "y")
        # Single-part handles narrow to themselves.
        assert a.narrow() is a

    def test_radd_rsub(self, db):
        rel = rel_with_key("k")
        m = db.matrix(rel, by="k")
        via_ops = (1.0 + m).collect()
        eager = execute_rma("sadd", rel, "k", scalar=1.0)
        assert np.array_equal(via_ops.column("x").tail,
                              eager.column("x").tail)
        swapped = (5.0 - m).collect()
        negated = execute_rma(
            "sadd", execute_rma("smul", rel, "k", scalar=-1.0), "k",
            scalar=5.0)
        assert np.array_equal(swapped.column("x").tail,
                              negated.column("x").tail)

    def test_non_numeric_operand_rejected(self, db):
        m = db.matrix(rel_with_key("k"), by="k")
        with pytest.raises(TypeError):
            m + "nope"
        with pytest.raises(PlanError):
            m.add("nope")

    def test_elementwise_overlap_raises_at_build(self, db):
        m = db.matrix(rel_with_key("k"), by="k")
        with pytest.raises(OrderSchemaError):
            m + m

    def test_tra_multi_attribute_leaf_raises(self, db):
        rel = rel_with_key("k")
        m = db.matrix(rel, by=["k", "x"])
        with pytest.raises(OrderSchemaError):
            m.T

    def test_cross_database_operands_rejected(self, db):
        m1 = db.matrix(rel_with_key("ka"), by="ka")
        m2 = repro.connect().matrix(rel_with_key("kb"), by="kb")
        with pytest.raises(PlanError):
            m1 + m2

    def test_matrix_operand_rejects_by(self, db):
        m1 = db.matrix(rel_with_key("ka"), by="ka")
        m2 = db.matrix(rel_with_key("kb"), by="kb")
        with pytest.raises(PlanError):
            m1.add(m2, by="kb")

    def test_relation_operand_requires_by(self, db):
        m1 = db.matrix(rel_with_key("ka"), by="ka")
        with pytest.raises(PlanError):
            m1.add(rel_with_key("kb"))


def rel_of(matrix) -> Relation:
    """The relation behind a leaf handle (its InMemory plan node)."""
    return matrix.plan.relation


class TestSharingAndCse:
    def test_shared_handle_executes_once(self, db):
        a = db.matrix(rel_with_key("ka", cols=("x", "y")), by="ka")
        gram = a.cpd(a)
        expr = gram.inv() @ gram
        assert "shared x2" in expr.explain()
        expr.collect()
        assert db.last_stats.cse_hits + db.last_stats.cache_hits >= 1

    def test_fusion_disabled_still_identical(self, db, run_unoptimized):
        a = db.matrix(rel_with_key("ka"), by="ka")
        c = db.matrix(rel_with_key("kc", seed=2), by="kc")
        expr = 2.0 * a + c
        assert "FusedRma" in expr.explain()
        fused = expr.collect()
        unfused = run_unoptimized(db, expr)
        for name in fused.names:
            ca, cb = fused.column(name), unfused.column(name)
            assert list(ca.tail) == list(cb.tail) \
                or np.array_equal(ca.tail, cb.tail, equal_nan=True)


class TestLazyBridge:
    def test_filter_on_expression_result(self, db):
        a = db.matrix(rel_with_key("ka"), by="ka")
        c = db.matrix(rel_with_key("kc", seed=2), by="kc")
        filtered = (a + c).filter(col("x") >= 0.0)
        assert filtered.by == ("ka", "kc")
        assert filtered.app_names == ("x", "y")
        out = filtered.collect()
        assert set(out.names) == {"ka", "kc", "x", "y"}

    def test_relational_ops_resolve_named_tables(self, db):
        """Relational operators over a catalog table plan against the
        owning database's catalog."""
        rel = rel_with_key("k", n=2)  # square application part
        db.register("t", rel)
        m = db.matrix("t", by="k")
        out = m.inv().sort("k").collect()
        eager = execute_rma("inv", rel, "k")
        assert out.names == eager.names
        assert "Scan t" in m.inv().sort("k").explain()

    def test_relational_ops_use_session_caches(self, db):
        rel = rel_with_key("k", n=2)
        m = db.matrix(rel, by="k")
        m.inv().collect()
        m.inv().collect()  # second sighting: populates the result cache
        before = db.result_cache.hits
        m.inv().filter(col("x") <= 1e9).collect()
        assert db.result_cache.hits == before + 1

    def test_relational_chain_feeds_matrix_ops(self, db):
        db.register("t", rel_with_key("k", n=2))
        selected = (db.matrix("t", by="k").inv()
                    .filter(col("x") <= 1e9)
                    .select("k", "x"))
        assert selected.app_names == ("x",)
        assert selected.collect().names == ["k", "x"]
        out = (selected @ selected.T).collect()
        assert out.names[0] == "k"

    def test_ordered_by_rekeys(self, db):
        rel = rel_with_key("k")
        m = db.matrix(rel, by="k")
        rekeyed = m.ordered_by(["k", "x"])
        assert rekeyed.by == ("k", "x")
        assert rekeyed.app_names == ("y",)
