"""Statement templates: one parse and one plan per statement shape.

A session keys SQL by its token stream with the literals taken out and
runs the shape's template with each statement's literal values bound.
Results must be bit-identical to the uncached session, which parses every
statement with its literals in place; plan-shaping literals (``LIMIT``,
literal types) must keep statements apart, and nothing computed for one
binding — a candidate list, a cached subplan result — may serve another.
"""

import datetime as dt
import sys
import threading

import numpy as np
import pytest

import repro
from repro.api import database
from repro.core import RmaConfig
from repro.core.config import ParallelConfig
from repro.data import bixi
from repro.plan.physical import ExecStats
from repro.relational import Relation
from repro.sql import ast
from repro.sql.lexer import tokenize
from repro.sql.parser import literal_slots, parse_sql

SERIAL = RmaConfig()
PARALLEL = RmaConfig(parallel=ParallelConfig(enabled=True, workers=4,
                                             min_morsel_rows=1))

PREP = (
    "SELECT t.trip_id AS trip_id, 1.0 AS const, "
    "t.duration * 1.0 AS duration, s.latitude - e.latitude AS dlat "
    "FROM trips AS t "
    "JOIN (SELECT start_station AS fs, end_station AS fe FROM trips "
    "WHERE start_date BETWEEN DATE '{low}' AND DATE '{high}' "
    "GROUP BY start_station, end_station HAVING COUNT(*) >= {k}) AS p "
    "ON t.start_station = p.fs AND t.end_station = p.fe "
    "JOIN stations AS s ON t.start_station = s.code "
    "JOIN stations AS e ON t.end_station = e.code "
    "WHERE t.start_date BETWEEN DATE '{low}' AND DATE '{high}'")
WINDOW_A = PREP.format(low="2015-01-01", high="2015-12-31", k=3)
WINDOW_B = PREP.format(low="2015-04-01", high="2016-06-30", k=5)


@pytest.fixture(scope="module")
def trips():
    stations = bixi.generate_stations(20, seed=2)
    return stations, bixi.generate_trips(2000, stations, seed=3)


def session(trips, config=SERIAL, plan_cache=True):
    stations, rows = trips
    db = repro.connect(config=config, plan_cache=plan_cache)
    db.register("trips", rows)
    db.register("stations", stations)
    return db


def assert_bit_identical(got, want):
    assert got.names == want.names
    for name in got.names:
        a, b = got.column(name), want.column(name)
        assert a.dtype is b.dtype
        np.testing.assert_array_equal(a.tail, b.tail)
        assert a.tail.tobytes() == b.tail.tobytes()


@pytest.fixture
def count_parses(monkeypatch):
    calls = []
    original = database.parse_sql

    def counted(*args, **kwargs):
        calls.append(args[0])
        return original(*args, **kwargs)

    monkeypatch.setattr(database, "parse_sql", counted)
    return calls


class TestShape:
    def shape(self, sql):
        return literal_slots(tokenize(sql))[:2]

    def test_literals_become_slots(self):
        shape, values = self.shape(
            "SELECT x + 1 AS y FROM t WHERE s = 'a' AND d > DATE "
            "'2015-01-01' AND z < 2.5")
        assert values == (1, "a", dt.date(2015, 1, 1), 2.5)
        assert ("$", 2, "date") in shape

    def test_equal_literals_share_a_slot(self):
        _, values = self.shape("SELECT x + 1 FROM t GROUP BY x + 1")
        assert values == (1,)
        # 1 and 1.0 are different literals; so are '1' and 1.
        _, values = self.shape("SELECT 1, 1.0, '1', 1 FROM t")
        assert values == (1, 1.0, "1")

    def test_limit_and_offset_stay_in_the_shape(self):
        shape, values = self.shape("SELECT x FROM t LIMIT 5 OFFSET 2")
        assert values == ()
        assert ("NUMBER", "5") in shape and ("NUMBER", "2") in shape

    def test_date_only_differences_share_a_shape(self):
        assert self.shape(WINDOW_A)[0] == self.shape(WINDOW_B)[0]

    def test_template_parse_uses_slots(self):
        template = parse_sql("SELECT x + 1 AS y FROM t WHERE y > 1",
                             template=True)
        literal = parse_sql("SELECT x + 1 AS y FROM t WHERE y > 1")
        assert template.items[0].expr.right == ast.Param(0)
        assert template.where.right == ast.Param(0)
        assert literal.items[0].expr.right == ast.Literal(1)


class TestOnePlanPerShape:
    def test_date_windows_share_one_template(self, trips, count_parses):
        db = session(trips)
        db.execute(WINDOW_A)
        assert len(db._templates) == 0  # stored on its second sighting
        db.execute(WINDOW_B)
        template = next(iter(db._templates.values()))
        planned = template.plan[0]
        db.execute(WINDOW_A)
        db.execute(WINDOW_B)
        assert len(db._templates) == 1
        assert template.plan[0] is planned
        assert count_parses == [WINDOW_A, WINDOW_B]

    def test_limit_gets_its_own_plan(self, trips):
        db = session(trips)
        for _ in range(2):  # stored on the second sighting
            five = db.execute("SELECT trip_id FROM trips ORDER BY trip_id "
                              "LIMIT 5")
            seven = db.execute("SELECT trip_id FROM trips ORDER BY trip_id "
                               "LIMIT 7")
        assert (five.nrows, seven.nrows) == (5, 7)
        plans = [t.plan[0] for t in db._templates.values()]
        assert len(plans) == 2 and plans[0] is not plans[1]

    def test_literal_type_gets_its_own_plan(self, trips):
        db = session(trips)
        for _ in range(2):  # stored on the second sighting
            whole = db.execute("SELECT 1 AS c FROM stations")
            real = db.execute("SELECT 1.0 AS c FROM stations")
        assert whole.column("c").dtype.value != real.column("c").dtype.value
        assert len(db._templates) == 2

    def test_catalog_change_replans(self, trips):
        stations, rows = trips
        db = session(trips)
        sql = "SELECT code FROM stations WHERE code >= 3"
        db.execute(sql)
        before = db.execute(sql)  # stored on the second sighting
        template = next(iter(db._templates.values()))
        planned = template.plan[0]
        fewer = Relation.from_columns({
            name: stations.column(name).fetch(np.arange(5))
            for name in stations.names})
        db.register("stations", fewer)
        after = db.execute(sql)
        assert template.plan[0] is not planned
        codes = fewer.column("code").tail
        assert before.nrows > after.nrows == int((codes >= 3).sum())

    def test_repeated_literal_in_group_by(self, trips):
        """GROUP BY matches select items structurally: equal literals
        share a slot, so the template groups as the statement does."""
        db = session(trips)
        sql = ("SELECT code + 1 AS c, COUNT(*) AS n FROM stations "
               "GROUP BY code + 1")
        reference = session(trips, plan_cache=False).execute(sql)
        assert_bit_identical(db.execute(sql), reference)


@pytest.mark.parametrize("config", [SERIAL, PARALLEL],
                         ids=["serial", "parallel"])
def test_window_a_b_a_matches_uncached(trips, config):
    """A, B, A in one session: no candidate list or cached subplan result
    of one binding may leak into the other."""
    cached = session(trips, config)
    reference = session(trips, config, plan_cache=False)
    for sql in (WINDOW_A, WINDOW_B, WINDOW_A, WINDOW_B):
        assert_bit_identical(cached.execute(sql), reference.execute(sql))


def test_result_cache_keys_hold_bound_values(trips):
    db = session(trips)
    db.execute(WINDOW_A)
    db.execute(WINDOW_A)  # admitted on its second sighting
    a_entries = len(db.result_cache)
    assert a_entries >= 1
    db.execute(WINDOW_B)
    db.execute(WINDOW_B)
    assert len(db.result_cache) == 2 * a_entries  # one subquery per window
    db.execute(WINDOW_A)
    assert db.last_stats.cache_hits >= 1


def test_explain_prints_bound_values(trips):
    sql = ("EXPLAIN SELECT code, latitude * 2.5 AS x FROM stations WHERE "
           "code > 3 ORDER BY code DESC LIMIT 4")
    cached, reference = session(trips), session(trips, plan_cache=False)
    for _ in range(2):
        assert cached.execute(sql).to_rows() == \
            reference.execute(sql).to_rows()
    assert "3" in cached.explain(sql[len("EXPLAIN "):])


def test_insert_binds_values(trips):
    cached, reference = session(trips), session(trips, plan_cache=False)
    for db in (cached, reference):
        db.execute("CREATE TABLE c (k INT, v DOUBLE, d DATE)")
        for k in range(3):
            db.execute(f"INSERT INTO c VALUES ({k}, {k * 0.5 - 1}, "
                       f"DATE '2015-01-0{k + 1}')")
    assert_bit_identical(cached.table("c"), reference.table("c"))
    assert cached.table("c").column("d").python_values()[2] == \
        dt.date(2015, 1, 3)


@pytest.mark.parametrize("sql", [
    "SELECT code FROM stations WHERE d = DATE 'not a date'",
    "SELECT code FROM WHERE d = DATE 'not a date'",
    "SELECT 'unterminated FROM stations",
    "SELECT code FROM stations LIMIT 1.5",
])
def test_errors_match_uncached(trips, sql):
    errors = []
    for db in (session(trips), session(trips, plan_cache=False)):
        with pytest.raises(Exception) as info:
            db.execute(sql)
        errors.append((type(info.value), str(info.value)))
    assert errors[0] == errors[1]


def test_last_stats_is_per_thread(trips):
    """Two threads on one session each read their own run's stats."""
    db = session(trips)
    shared = ("SELECT a.code AS code FROM stations AS a JOIN (SELECT "
              "code AS c FROM "
              "stations) AS x ON a.code = x.c JOIN (SELECT code AS c FROM "
              "stations) AS y ON a.code = y.c")
    plain = "SELECT code FROM stations WHERE code > 2"
    failures = []
    barrier = threading.Barrier(2)

    def run(sql, cse):
        barrier.wait()
        try:
            for _ in range(300):
                db.execute(sql)
                stats = db.last_stats
                if not isinstance(stats, ExecStats) or \
                        (stats.cse_hits > 0) is not cse:
                    failures.append(sql)
        except Exception as exc:  # reported below, not lost in the thread
            failures.append(exc)

    threads = [threading.Thread(target=run, args=(shared, True)),
               threading.Thread(target=run, args=(plain, False))]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)  # interleave the two runs finely
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
    finally:
        sys.setswitchinterval(interval)
    assert failures == []
    assert db.last_stats is None  # nothing ran on this thread
