"""EXPLAIN: statement parsing, session surface and plan rendering."""

import pytest

import repro
from repro.errors import SqlSyntaxError
from repro.relational.relation import Relation
from repro.sql import ast
from repro.sql.parser import parse_sql


@pytest.fixture
def session(users, ratings):
    s = repro.connect()
    s.register("u", users)
    s.register("r", ratings)
    return s


class TestParser:
    def test_explain_select_parses(self):
        stmt = parse_sql("EXPLAIN SELECT * FROM u")
        assert isinstance(stmt, ast.Explain)
        assert isinstance(stmt.query, ast.Select)

    def test_explain_round_trips(self):
        stmt = parse_sql("EXPLAIN SELECT User FROM u WHERE YoB > 1966")
        assert stmt.to_sql().startswith("EXPLAIN SELECT")
        assert parse_sql(stmt.to_sql()) == stmt

    def test_explain_non_select_rejected(self):
        with pytest.raises(SqlSyntaxError):
            parse_sql("EXPLAIN DROP TABLE u")

    def test_explain_not_reserved_as_identifier(self, session):
        # EXPLAIN is a soft keyword: columns and tables may use the name.
        t = Relation.from_columns({"explain": [1, 2, 3]})
        session.register("t", t)
        result = session.execute("SELECT explain FROM t WHERE explain > 1")
        assert result.names == ["explain"]
        assert result.column("explain").python_values() == [2, 3]


class TestSessionExplain:
    def test_returns_one_column_relation(self, session):
        result = session.execute("EXPLAIN SELECT * FROM u")
        assert isinstance(result, Relation)
        assert result.names == ["explain"]
        assert result.nrows >= 2
        lines = result.column("explain").python_values()
        assert lines[0].startswith("Project")
        assert any("Scan u" in line for line in lines)

    def test_explain_string_helper(self, session):
        text = session.explain("SELECT * FROM INV(r BY User)")
        assert "Rma INV arg1 BY (User)" in text
        assert "Scan r" in text

    def test_explain_shows_pushdown(self, session):
        text = session.explain(
            "SELECT u.User, Net FROM u, r WHERE u.User = r.User "
            "AND YoB > 1966")
        assert "Join inner" in text
        assert "Filter" in text

    def test_explain_shows_shared_subplans(self, session):
        text = session.explain(
            "SELECT a.Ann FROM TRA(r BY User) AS a "
            "CROSS JOIN TRA(r BY User) AS b")
        assert "shared x2" in text

    def test_explain_annotates_only_shared_subplans(self, session):
        # A join and a full-sort RMA print their node alone: the physical
        # plan holds no sort-order or join-strategy guesses.
        text = session.explain(
            "SELECT u.User, Net FROM u JOIN r ON u.User = r.User "
            "WHERE YoB > 1966")
        assert text.splitlines() == [
            "Project [u.User, Net]",
            "  Join inner ON (u.User = r.User)",
            "    Filter (YoB > 1966)",
            "      Prune [User, YoB]",
            "        Scan u AS u",
            "    Prune [Net, User]",
            "      Scan r AS r"]
        assert session.explain("SELECT * FROM INV(r BY User)") \
            .splitlines()[1] == "  Rma INV arg1 BY (User)"

    def test_explain_of_explain_prefixed_plan(self, session):
        # Database.plan accepts the EXPLAIN form as well.
        plan = session.plan("EXPLAIN SELECT * FROM u")
        assert plan is not None

    def test_execute_unchanged_for_plain_select(self, session, users):
        result = session.execute("SELECT * FROM u")
        assert result.same_rows(users)
