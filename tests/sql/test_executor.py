"""End-to-end SQL execution tests."""

import datetime as dt

import pytest

import repro
from repro.errors import BindError, PlanError
from repro.relational import Relation


@pytest.fixture
def session(users, films, ratings):
    s = repro.connect()
    s.register("u", users)
    s.register("f", films)
    s.register("r", ratings)
    return s


class TestProjection:
    def test_select_star(self, session, users):
        assert session.execute("SELECT * FROM u").same_rows(users)

    def test_select_columns(self, session):
        out = session.execute("SELECT User, YoB FROM u")
        assert out.names == ["User", "YoB"]

    def test_expressions(self, session):
        out = session.execute(
            "SELECT User, 2026 - YoB AS age FROM u ORDER BY age")
        assert out.to_rows()[0] == ("Ann", 46)

    def test_constant_select(self, session):
        assert session.execute("SELECT 6 * 7 AS x").to_rows() == [(42,)]

    def test_case_expression(self, session):
        out = session.execute(
            "SELECT User, CASE WHEN YoB >= 1970 THEN 'young' "
            "ELSE 'old' END AS c FROM u ORDER BY User")
        assert out.to_rows() == [("Ann", "young"), ("Jan", "young"),
                                 ("Tom", "old")]

    def test_scalar_functions(self, session):
        out = session.execute("SELECT SQRT(ABS(-16)) AS x")
        assert out.to_rows() == [(4.0,)]

    def test_string_concat(self, session):
        out = session.execute(
            "SELECT User || '@' || State AS handle FROM u ORDER BY User")
        assert out.to_rows()[0] == ("Ann@CA",)

    def test_unknown_column(self, session):
        with pytest.raises(BindError):
            session.execute("SELECT nope FROM u")


class TestFilters:
    def test_comparison(self, session):
        out = session.execute("SELECT User FROM u WHERE YoB > 1966")
        assert sorted(v[0] for v in out.to_rows()) == ["Ann", "Jan"]

    def test_in_list(self, session):
        out = session.execute(
            "SELECT User FROM u WHERE State IN ('FL', 'TX')")
        assert out.to_rows() == [("Tom",)]

    def test_between(self, session):
        out = session.execute(
            "SELECT User FROM u WHERE YoB BETWEEN 1966 AND 1975")
        assert out.to_rows() == [("Jan",)]

    def test_like(self, session):
        out = session.execute("SELECT Title FROM f WHERE Title LIKE '%a%'")
        assert sorted(v[0] for v in out.to_rows()) == ["Balto", "Heat"]

    def test_null_handling(self):
        s = repro.connect()
        s.register("t", Relation.from_columns({"x": [1, None, 3]}))
        assert s.execute(
            "SELECT x FROM t WHERE x IS NULL").to_rows() == [(None,)]
        assert len(s.execute(
            "SELECT x FROM t WHERE x IS NOT NULL").to_rows()) == 2


class TestJoins:
    def test_inner(self, session):
        out = session.execute(
            "SELECT u.User, Heat FROM u JOIN r ON u.User = r.User")
        assert dict(out.to_rows()) == {"Ann": 1.5, "Tom": 0.0, "Jan": 4.0}

    def test_left(self, session):
        session.register("extra", Relation.from_columns(
            {"name": ["Ann", "Zoe"], "v": [1, 2]}))
        out = session.execute(
            "SELECT name, State FROM extra LEFT JOIN u "
            "ON extra.name = u.User ORDER BY name")
        assert out.to_rows() == [("Ann", "CA"), ("Zoe", None)]

    def test_comma_join_with_predicate(self, session):
        out = session.execute(
            "SELECT u.User, Net FROM u, r "
            "WHERE u.User = r.User AND State = 'CA' ORDER BY Net")
        assert out.to_rows() == [("Ann", 0.5), ("Jan", 1.0)]

    def test_cross_join(self, session):
        out = session.execute("SELECT COUNT(*) AS n FROM u CROSS JOIN f")
        assert out.to_rows() == [(9,)]

    def test_non_equi_residual(self, session):
        out = session.execute(
            "SELECT u.User FROM u JOIN r ON u.User = r.User "
            "AND Heat > YoB - 1979")
        assert sorted(v[0] for v in out.to_rows()) == ["Ann", "Jan", "Tom"]

    def test_self_join_with_aliases(self, session):
        out = session.execute(
            "SELECT a.User, b.User AS other FROM u AS a JOIN u AS b "
            "ON a.State = b.State WHERE a.User <> b.User")
        assert sorted(out.to_rows()) == [("Ann", "Jan"), ("Jan", "Ann")]

    def test_ambiguous_column_rejected(self, session):
        with pytest.raises(BindError):
            session.execute(
                "SELECT User FROM u JOIN r ON u.User = r.User")


class TestAggregation:
    def test_global(self, session):
        out = session.execute(
            "SELECT COUNT(*) AS n, AVG(YoB) AS a, MIN(YoB) AS lo, "
            "MAX(YoB) AS hi FROM u")
        assert out.to_rows() == [(3, pytest.approx(1971.6667, abs=1e-3),
                                  1965, 1980)]

    def test_group_by(self, session):
        out = session.execute(
            "SELECT State, COUNT(*) AS n FROM u GROUP BY State "
            "ORDER BY State")
        assert out.to_rows() == [("CA", 2), ("FL", 1)]

    def test_having(self, session):
        out = session.execute(
            "SELECT State, COUNT(*) AS n FROM u GROUP BY State "
            "HAVING COUNT(*) > 1")
        assert out.to_rows() == [("CA", 2)]

    def test_aggregate_of_expression(self, session):
        out = session.execute("SELECT SUM(YoB - 1900) AS s FROM u")
        assert out.to_rows() == [(80 + 65 + 70,)]

    def test_expression_over_aggregate(self, session):
        out = session.execute(
            "SELECT MAX(YoB) - MIN(YoB) AS span FROM u")
        assert out.to_rows() == [(15,)]

    def test_count_distinct(self, session):
        out = session.execute("SELECT COUNT(DISTINCT State) AS n FROM u")
        assert out.to_rows() == [(2,)]

    def test_count_distinct_grouped(self):
        s = repro.connect()
        s.register("t", Relation.from_columns(
            {"g": ["a", "a", "a", "b"], "x": [1, 1, 2, 5]}))
        out = s.execute(
            "SELECT g, COUNT(DISTINCT x) AS n FROM t GROUP BY g "
            "ORDER BY g")
        assert out.to_rows() == [("a", 2), ("b", 1)]

    def test_having_without_group_rejected(self, session):
        with pytest.raises(PlanError):
            session.execute("SELECT User FROM u HAVING User > 'A'")


class TestOrderingAndLimits:
    def test_order_by_multiple(self, session):
        out = session.execute(
            "SELECT State, User FROM u ORDER BY State, User DESC")
        assert out.to_rows() == [("CA", "Jan"), ("CA", "Ann"),
                                 ("FL", "Tom")]

    def test_order_by_expression(self, session):
        out = session.execute("SELECT User FROM u ORDER BY YoB * -1")
        assert out.to_rows()[0] == ("Ann",)

    def test_limit_offset(self, session):
        out = session.execute(
            "SELECT User FROM u ORDER BY User LIMIT 1 OFFSET 1")
        assert out.to_rows() == [("Jan",)]

    def test_distinct(self, session):
        out = session.execute("SELECT DISTINCT State FROM u")
        assert sorted(v[0] for v in out.to_rows()) == ["CA", "FL"]


class TestSubqueries:
    def test_from_subquery(self, session):
        out = session.execute(
            "SELECT n FROM (SELECT COUNT(*) AS n FROM u) AS t")
        assert out.to_rows() == [(3,)]

    def test_nested_subquery_with_join(self, session):
        out = session.execute(
            "SELECT s.User, f.Director FROM "
            "(SELECT User, Heat FROM r WHERE Heat > 1) AS s, f "
            "WHERE f.Title = 'Heat'")
        assert sorted(out.to_rows()) == [("Ann", "Lee"), ("Jan", "Lee")]


class TestDdl:
    def test_create_insert_select(self):
        s = repro.connect()
        s.execute("CREATE TABLE t (a INT, b VARCHAR(5), d DATE)")
        s.execute("INSERT INTO t VALUES (1, 'x', DATE '2020-05-17')")
        s.execute("INSERT INTO t (b, a) VALUES ('y', 2)")
        out = s.execute("SELECT a, b, d FROM t ORDER BY a")
        assert out.to_rows() == [(1, "x", dt.date(2020, 5, 17)),
                                 (2, "y", None)]

    def test_create_as_select(self, session):
        session.execute("CREATE TABLE ca AS SELECT * FROM u "
                        "WHERE State = 'CA'")
        assert session.execute(
            "SELECT COUNT(*) AS n FROM ca").to_rows() == [(2,)]

    def test_drop(self, session):
        session.execute("CREATE TABLE tmp AS SELECT * FROM u")
        session.execute("DROP TABLE tmp")
        assert "tmp" not in session.catalog
        session.execute("DROP TABLE IF EXISTS tmp")
