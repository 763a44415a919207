"""Literals that are equal in Python but differ in type (``1``, ``1.0``,
``TRUE``) are different expressions: the session's statement and plan
caches, the subplan result cache and the expression memo are keyed by
them."""

import pytest

import repro
from repro.plan.expr import col, lit
from repro.relational import Relation
from repro.sql import ast


@pytest.fixture
def db():
    session = repro.connect()
    session.register("a", Relation.from_columns({"k": [1, 2]}))
    return session


class TestLiteralNode:
    @pytest.mark.parametrize("x, y", [(1, 1.0), (1, True), (1.0, True),
                                      (0, False), (0.0, -0.0)])
    def test_python_equal_values_are_distinct_literals(self, x, y):
        assert ast.Literal(x) != ast.Literal(y)
        assert (ast.BinaryOp("*", ast.ColumnRef("k"), ast.Literal(x))
                != ast.BinaryOp("*", ast.ColumnRef("k"), ast.Literal(y)))

    @pytest.mark.parametrize("value", [1, 1.5, True, "s", None,
                                       float("nan")])
    def test_same_typed_values_are_equal(self, value):
        assert ast.Literal(value) == ast.Literal(value)
        assert hash(ast.Literal(value)) == hash(ast.Literal(value))


class TestSqlSurface:
    def test_statement_cache_keeps_literal_types_apart(self, db):
        first = db.execute("SELECT k * 1 AS v FROM a")
        second = db.execute("SELECT k * 1.0 AS v FROM a")
        assert first.to_rows() == [(1,), (2,)]
        assert second.to_rows() == [(1.0,), (2.0,)]
        assert all(isinstance(v, float) for (v,) in second.to_rows())

    def test_subquery_results_keep_literal_types_apart(self, db):
        out = db.execute(
            "SELECT s.v AS a1, t.v AS a2 "
            "FROM (SELECT k * 1 AS v FROM a) AS s "
            "JOIN (SELECT k * 1.0 AS v FROM a) AS t ON s.v = t.v")
        assert [a.dtype.value for a in out.schema] == ["int", "double"]
        assert out.to_rows() == [(1, 1.0), (2, 2.0)]

    def test_cached_subquery_results_keep_bound_types_apart(self):
        # Both subqueries plan to one template, Project(k * $0); only the
        # bound values 1 and 1.0 tell their cached results apart.  The
        # INT result is admitted on its second run, so the DBL statement
        # that follows looks it up.
        sql = "SELECT s.v AS v FROM (SELECT k * {} AS v FROM a) AS s"
        literals = ("1", "1", "1.0", "1.0", "1")
        outs = {}
        for plan_cache in (True, False):
            session = repro.connect(plan_cache=plan_cache)
            session.register("a", Relation.from_columns({"k": [1, 2]}))
            outs[plan_cache] = [session.execute(sql.format(lit))
                                for lit in literals]
        for cached, fresh in zip(outs[True], outs[False]):
            assert ([a.dtype for a in cached.schema]
                    == [a.dtype for a in fresh.schema])
            assert cached.to_rows() == fresh.to_rows()
        assert [o.schema[0].dtype.value for o in outs[True]] == [
            "int", "int", "double", "double", "int"]

    def test_boolean_and_integer_literals(self, db):
        ints = db.execute("SELECT k + 1 AS v FROM a")
        bools = db.execute("SELECT TRUE AS v FROM a")
        assert ints.to_rows() == [(2,), (3,)]
        assert bools.to_rows() == [(True,), (True,)]


class TestDslSurface:
    @pytest.fixture
    def m(self, db):
        db.register("t", Relation.from_columns({"id": [1, 2],
                                                "val": [3, 4]}))
        return db.matrix("t", by="id")

    def test_lit_types_stay_apart_across_collects(self, m):
        ints = m.select("id", (col("val") * lit(1)).alias("v")).collect()
        floats = m.select("id", (col("val") * lit(1.0)).alias("v")).collect()
        assert ints.column("v").dtype.value == "int"
        assert floats.column("v").dtype.value == "double"
        assert floats.column("v").python_values() == [3.0, 4.0]

    def test_bool_and_int_filters_stay_apart(self, m):
        everything = m.filter(lit(True)).collect()
        assert everything.nrows == 2
        with pytest.raises(repro.errors.PlanError):
            m.filter(lit(1)).collect()
