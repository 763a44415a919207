"""Late materialization in the executor: frames pass position vectors, a
column is gathered once when first read, equal filters over one leaf share
a candidate list, and repeated subexpressions are evaluated once."""

import datetime as dt

import numpy as np
import pytest

import repro
from repro.bat import kernels
from repro.bat.bat import BAT, date_to_int
from repro.bat.catalog import Catalog
from repro.data import bixi
from repro.plan import nodes, physical
from repro.plan.expr import col
from repro.plan.physical import Executor, ExpressionEvaluator, Frame
from repro.relational.relation import Relation
from repro.sql.parser import parse_sql

DEG = 0.017453292519943295
DX = (f"((e.longitude - s.longitude) * {DEG} "
      f"* COS((s.latitude + e.latitude) / 2.0 * {DEG}))")
DY = f"((e.latitude - s.latitude) * {DEG})"
SPAN = "DATE '2015-01-01' AND DATE '2016-12-31'"
# Fig. 15's data preparation: date window, frequent station pairs, two
# joins to stations, equirectangular distance.
TRIPS_PREP = (
    "SELECT t.trip_id AS trip_id, 1.0 AS const, "
    f"6371.0 * SQRT({DX} * {DX} + {DY} * {DY}) AS distance, "
    "t.duration * 1.0 AS duration "
    "FROM trips AS t "
    "JOIN (SELECT start_station AS fs, end_station AS fe FROM trips "
    f"WHERE start_date BETWEEN {SPAN} "
    "GROUP BY start_station, end_station HAVING COUNT(*) >= 3) AS p "
    "ON t.start_station = p.fs AND t.end_station = p.fe "
    "JOIN stations AS s ON t.start_station = s.code "
    "JOIN stations AS e ON t.end_station = e.code "
    f"WHERE t.start_date BETWEEN {SPAN}")

# Copying every column at every Filter and join took 43 gathers for this
# statement; position-vector frames take 16, and 14 once the subquery and
# the outer trips scan share their gathers through the common date-window
# candidate list.
MAX_TRIPS_PREP_FETCHES = 14

# The distance reads four stations columns.  Gathered per row, that was
# 4 x the trips rows; evaluated over the domain of (start, end) station
# pairs, each column is gathered at the distinct pairs only.
MAX_STATIONS_ROWS_PER_PAIR = 4


@pytest.fixture(scope="module")
def trips_db():
    stations = bixi.generate_stations(30, seed=2)
    trips = bixi.generate_trips(3000, stations, seed=3)
    # No result cache: every execution runs the whole plan, subquery too.
    db = repro.connect(plan_cache=False)
    db.register("trips", trips)
    db.register("stations", stations)
    db.execute(TRIPS_PREP)  # warm the statement caches
    return db


@pytest.fixture(scope="module")
def dense_trips_db():
    """Fig. 15 with few stations: the (start, end) pairs, 11 x 11 codes,
    number under an eighth of the trips the joins keep."""
    stations = bixi.generate_stations(10, seed=2)
    trips = bixi.generate_trips(4000, stations, seed=3)
    db = repro.connect(plan_cache=False)
    db.register("trips", trips)
    db.register("stations", stations)
    return db


@pytest.fixture
def count_calls(monkeypatch):
    """Count calls of ``owner.name`` while keeping its behaviour."""
    def install(owner, name):
        calls = []
        original = getattr(owner, name)

        def counted(*args, **kwargs):
            calls.append(args)
            return original(*args, **kwargs)

        monkeypatch.setattr(owner, name, counted)
        return calls
    return install


class TestTripsPrep:
    def test_gather_count_is_bounded(self, trips_db, count_calls):
        fetches = count_calls(BAT, "fetch")
        out = trips_db.execute(TRIPS_PREP)
        assert out.nrows > 0
        assert len(fetches) <= MAX_TRIPS_PREP_FETCHES

    def test_stations_are_gathered_per_distinct_pair(self, dense_trips_db,
                                                     monkeypatch):
        trips_db = dense_trips_db
        stations = trips_db.catalog.get("stations")
        columns = {id(column) for column in stations.columns}
        gathered = []
        fetch = BAT.fetch

        def counted(bat, positions, *args, **kwargs):
            if id(bat) in columns:
                gathered.append(len(positions))
            return fetch(bat, positions, *args, **kwargs)

        monkeypatch.setattr(BAT, "fetch", counted)
        out = trips_db.execute(TRIPS_PREP)
        assert trips_db.last_stats.domain_evaluations == 1
        trips = trips_db.catalog.get("trips")
        kept = np.isin(trips.column("trip_id").tail,
                       out.column("trip_id").tail)
        pairs = len(set(zip(trips.column("start_station").tail[kept],
                            trips.column("end_station").tail[kept])))
        assert 0 < sum(gathered) <= MAX_STATIONS_ROWS_PER_PAIR * pairs

    def test_station_joins_keep_the_left_identity(self, trips_db,
                                                  monkeypatch):
        kept = []
        joined = Frame.joined.__func__

        def spy(cls, left, right, lpos, rpos):
            frame = joined(cls, left, right, lpos, rpos)
            kept.append(all(a is b for a, b in
                            zip(frame.sources, left.sources)))
            return frame

        monkeypatch.setattr(Frame, "joined", classmethod(spy))
        trips_db.execute(TRIPS_PREP)
        # The pair join drops trips of infrequent pairs; both station
        # joins match every trip once (FK -> PK).
        assert kept == [False, True, True]

    def test_date_window_is_evaluated_once(self, trips_db, count_calls):
        masks = count_calls(ExpressionEvaluator, "mask")
        trips_db.execute(TRIPS_PREP)
        windows = [args for args in masks
                   if isinstance(args[1], nodes.ast.Between)]
        assert len(windows) == 1

    def test_distance_computes_dx_and_dy_once(self, trips_db, count_calls):
        cosines = count_calls(kernels, "math_unary")
        trips_db.execute(TRIPS_PREP)
        assert [args[0] for args in cosines] == ["cos", "sqrt"]

    def test_matches_a_numpy_reference(self, trips_db):
        out = trips_db.execute(TRIPS_PREP)
        trips = trips_db.catalog.get("trips")
        dates = trips.column("start_date").tail
        window = ((dates >= date_to_int(dt.date(2015, 1, 1)))
                  & (dates <= date_to_int(dt.date(2016, 12, 31))))
        pairs = (trips.column("start_station").tail * 100_000
                 + trips.column("end_station").tail)
        codes, counts = np.unique(pairs[window], return_counts=True)
        keep = window & np.isin(pairs, codes[counts >= 3])
        assert out.column("trip_id").tail.tolist() == \
            trips.column("trip_id").tail[keep].tolist()


class TestPassthrough:
    def test_unmodified_scan_returns_the_source_object(self):
        rel = Relation.from_columns({"k": [1, 2], "v": [1.0, 2.0]})
        catalog = Catalog()
        catalog.create("t", rel)
        frame = Executor(catalog).run(nodes.Scan("t", "t"))
        assert frame.to_plain_relation() is rel

    def test_unmodified_relscan_returns_the_source_object(self):
        rel = Relation.from_columns({"k": [1, 2], "v": [1.0, 2.0]})
        db = repro.connect()
        assert db.matrix(rel, by="k").collect() is rel

    def test_filter_keeping_every_row_passes_through(self):
        rel = Relation.from_columns({"k": [1, 2], "v": [1.0, 2.0]})
        db = repro.connect()
        assert db.matrix(rel, by="k").filter(col("v") > 0).collect() is rel

    def test_filter_gathers_nothing_until_read(self, count_calls):
        rel = Relation.from_columns({"k": [1, 2, 3], "v": [1.0, 2.0, 3.0]})
        frame = Frame.from_relation(rel, None)
        fetches = count_calls(BAT, "fetch")
        subset = frame.select_positions(np.array([0, 2], dtype=np.int64))
        assert fetches == []
        first = subset.bat(subset.bindings[1].internal)
        again = subset.bat(subset.bindings[1].internal)
        assert first is again and len(fetches) == 1
        assert first.tail.tolist() == [1.0, 3.0]


class TestLeftJoinNils:
    @pytest.fixture
    def db(self):
        db = repro.connect()
        db.register("a", Relation.from_columns({"k": [1, 2, 3, 4]}))
        db.register("b", Relation.from_columns(
            {"k": [1, 3], "y": [5.0, 7.0], "w": ["p", "q"]}))
        return db

    def test_nils_are_filled_once_per_column(self, db, count_calls):
        fills = count_calls(physical, "_gather_nullable")
        out = db.execute(
            "SELECT a.k, b.y, b.y * 2 AS y2, b.w FROM a LEFT JOIN b "
            "ON a.k = b.k WHERE (b.y IS NULL OR b.y > 0) AND a.k > 1 "
            "ORDER BY a.k")
        assert out.to_rows() == [(2, None, None, None), (3, 7.0, 14.0, "q"),
                                 (4, None, None, None)]
        filled = [args[0].dtype.value for args in fills]
        assert sorted(filled) == ["double", "string"]

    def test_nested_left_joins_keep_nils(self, db):
        db.register("c", Relation.from_columns({"k": [3], "z": [1]}))
        out = db.execute(
            "SELECT a.k, bc.y, bc.z FROM a LEFT JOIN "
            "(SELECT b.k AS k, b.y AS y, c.z AS z FROM b LEFT JOIN c "
            "ON b.k = c.k) AS bc ON a.k = bc.k")
        assert out.to_rows() == [(1, 5.0, None), (2, None, None),
                                 (3, 7.0, 1), (4, None, None)]


class TestExpressionCse:
    def evaluator(self):
        rel = Relation.from_columns({"k": [1.0, 2.0, 3.0]})
        return ExpressionEvaluator(Frame.from_relation(rel, None))

    def expr(self, sql):
        return parse_sql(f"SELECT {sql} AS x").items[0].expr

    def test_repeated_subtree_is_evaluated_once(self, count_calls):
        binops = count_calls(kernels, "binop")
        value = self.evaluator().eval(self.expr("(k + 1) * (k + 1)"))
        assert value.tail.tolist() == [4.0, 9.0, 16.0]
        assert [args[0] for args in binops] == ["+", "*"]

    def repeated(self, sql):
        expr = self.expr(sql)
        slots = physical._repeated_subtrees(expr)
        return {e.to_sql() for e in nodes.walk_expr(expr) if id(e) in slots}

    def test_only_the_outermost_repeat_is_memoized(self):
        assert self.repeated("((k + 1) * 2) + ((k + 1) * 2)") == \
            {"((k + 1) * 2)"}
        # (k + 1) also repeats outside the repeated ((k + 1) * 2).
        assert self.repeated("((k + 1) * 2) + ((k + 1) * 2) + (k + 1)") == \
            {"((k + 1) * 2)", "(k + 1)"}
        assert self.repeated("k * k") == set()

    def test_literal_types_are_not_merged(self, count_calls):
        binops = count_calls(kernels, "binop")
        value = self.evaluator().eval(self.expr("(k * 1) + (k * 1.0)"))
        assert value.tail.tolist() == [2.0, 4.0, 6.0]
        assert [args[0] for args in binops] == ["*", "*", "+"]

    def test_memo_is_per_top_level_expression(self, count_calls):
        evaluator = self.evaluator()
        binops = count_calls(kernels, "binop")
        evaluator.eval(self.expr("(k + 1) * (k + 1)"))
        evaluator.eval(self.expr("(k + 1) * (k + 1)"))
        assert len(binops) == 4
