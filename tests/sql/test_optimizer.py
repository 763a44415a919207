"""Optimizer tests: rewrites must preserve semantics and fire when expected."""

import pytest

import repro
from repro.relational import Relation
from repro.plan import nodes
from repro.plan.build import build_select
from repro.plan.optimizer import optimize


@pytest.fixture
def session(users, films, ratings):
    s = repro.connect()
    s.register("u", users)
    s.register("f", films)
    s.register("r", ratings)
    return s


def find_nodes(plan, kind):
    found = []
    stack = [plan]
    while stack:
        node = stack.pop()
        if isinstance(node, kind):
            found.append(node)
        stack.extend(node.children())
    return found


QUERIES = [
    "SELECT * FROM u WHERE YoB > 1966",
    "SELECT u.User, Net FROM u, r WHERE u.User = r.User",
    "SELECT u.User, Net FROM u, r WHERE u.User = r.User AND YoB > 1966",
    "SELECT State, COUNT(*) AS n FROM u GROUP BY State",
    "SELECT u.User FROM u JOIN r ON u.User = r.User WHERE Heat > 1",
    "SELECT * FROM u, f WHERE RelY = 1995 AND State = 'CA'",
    "SELECT a.User FROM u AS a, u AS b WHERE a.State = b.State "
    "AND a.User <> b.User",
    "SELECT C, Ann FROM TRA(r BY User) WHERE Ann > 0.5",
    "SELECT u.User FROM u WHERE State = 'CA' ORDER BY YoB DESC LIMIT 2",
]


class TestSemanticsPreserved:
    @pytest.mark.parametrize("sql", QUERIES)
    def test_optimized_equals_unoptimized(self, sql, users, films,
                                          ratings):
        fast = repro.connect()
        slow = repro.connect(optimize_plans=False)
        for s in (fast, slow):
            s.register("u", users)
            s.register("f", films)
            s.register("r", ratings)
        assert fast.execute(sql).same_rows(slow.execute(sql)), sql


class TestRewrites:
    def test_cross_becomes_inner_join(self, session):
        plan = session.plan(
            "SELECT u.User, Net FROM u, r WHERE u.User = r.User")
        joins = find_nodes(plan, nodes.JoinPlan)
        assert joins and joins[0].kind == "inner"
        assert joins[0].condition is not None

    def test_filter_pushed_below_join(self, session):
        plan = session.plan(
            "SELECT u.User, Net FROM u JOIN r ON u.User = r.User "
            "WHERE YoB > 1966")
        join = find_nodes(plan, nodes.JoinPlan)[0]
        # The YoB filter must now sit on the u side, below the join.
        left_filters = find_nodes(join.left, nodes.Filter)
        assert left_filters, "filter was not pushed below the join"

    def test_multi_conjunct_split(self, session):
        plan = session.plan(
            "SELECT u.User, Net FROM u, r "
            "WHERE u.User = r.User AND YoB > 1966 AND Heat > 0")
        join = find_nodes(plan, nodes.JoinPlan)[0]
        assert find_nodes(join.left, nodes.Filter)
        assert find_nodes(join.right, nodes.Filter)

    def test_projection_pruned_at_scan(self, session):
        plan = session.plan("SELECT User FROM u WHERE YoB > 1966")
        prunes = find_nodes(plan, nodes.Prune)
        assert prunes
        assert set(prunes[0].names) == {"User", "YoB"}

    def test_star_disables_pruning(self, session):
        plan = session.plan("SELECT * FROM u")
        assert not find_nodes(plan, nodes.Prune)

    def test_rma_inputs_not_pruned(self, session):
        # RMA consumes order + application schema; pruning below it would
        # change the application schema and thus the semantics.
        plan = session.plan("SELECT C FROM TRA(r BY User)")
        rma = find_nodes(plan, nodes.Rma)[0]
        assert not find_nodes(rma.inputs[0], nodes.Prune)

    def test_left_join_not_converted(self, session):
        plan = session.plan(
            "SELECT u.User FROM u LEFT JOIN r ON u.User = r.User "
            "WHERE YoB > 1900")
        join = find_nodes(plan, nodes.JoinPlan)[0]
        assert join.kind == "left"


class TestDynamicSchemas:
    def test_tra_output_names_unknown(self, session):
        # tra's result column names are data values: the optimizer must
        # not claim to know them.
        from repro.plan.optimizer import Optimizer
        opt = Optimizer(session.catalog)
        plan = build_select(
            __import__("repro.sql.parser", fromlist=["parse_sql"])
            .parse_sql("SELECT * FROM TRA(r BY User)"))
        rma = find_nodes(plan, nodes.Rma)[0]
        assert opt.output_names(rma) is None

    def test_inv_output_names_known(self, session):
        from repro.plan.optimizer import Optimizer
        from repro.sql.parser import parse_sql
        opt = Optimizer(session.catalog)
        plan = build_select(
            parse_sql("SELECT * FROM INV(r BY User) AS i"))
        rma = find_nodes(plan, nodes.Rma)[0]
        names = opt.output_names(rma)
        assert names == {("i", "User"), ("i", "Balto"), ("i", "Heat"),
                         ("i", "Net")}
