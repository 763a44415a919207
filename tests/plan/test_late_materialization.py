"""Late materialization in the executor: frames pass position vectors, a
column is gathered once when first read, equal filters over one leaf share
a candidate list, and repeated subexpressions are evaluated once.  Joins
whose keys are equivalent to a small source's columns probe that source's
rows (the invisible join), and position vectors carry their sortedness
into the columns they gather."""

import datetime as dt

import numpy as np
import pytest

import repro
from repro.bat import kernels
from repro.bat.bat import BAT, date_to_int
from repro.bat.catalog import Catalog
from repro.errors import BindError
from repro.data import bixi
import repro.relational.joins as rel_join
from repro.plan import evaluate, nodes, physical
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
# candidate list.  The GROUP BY decodes its keys from their codes (no
# gather), and the station joins probe the pair rows instead of gathering
# both station columns of the trips: 11.
MAX_TRIPS_PREP_FETCHES = 11

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

        def spy(cls, left, right, lpos, rpos, **kwargs):
            frame = joined(cls, left, right, lpos, rpos, **kwargs)
            kept.append(all(a is b for a, b in
                            zip(frame.sources, left.sources)))
            return frame

        monkeypatch.setattr(Frame, "joined", classmethod(spy))
        trips_db.execute(TRIPS_PREP)
        # The pair join drops trips of infrequent pairs; both station
        # joins match every trip once (FK -> PK).
        assert kept == [False, True, True]

    def test_warm_statement_raises_no_bind_error(self, trips_db,
                                                 monkeypatch):
        """Join sides are classified once per plan, and name lookups on
        the happy path return ``None`` rather than raise."""
        raised = []
        init = BindError.__init__

        def counted(self, *args):
            raised.append(args)
            init(self, *args)

        monkeypatch.setattr(BindError, "__init__", counted)
        trips_db.execute(TRIPS_PREP)
        assert raised == []

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
        fills = count_calls(rel_join, "gather_nullable")
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
        slots = evaluate._repeated_subtrees(expr)
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


class TestInvisibleJoin:
    """The station joins of Fig. 15 probe the pair relation's rows: each
    of their left keys is equivalent, through the pair join's ON clause,
    to a column of the subquery, which has far fewer rows than the join.
    Rows, order and bits equal the unoptimized run, and each fallback
    probes the trips rows as before."""

    @pytest.fixture
    def probes(self, monkeypatch):
        """The left row count of every join_positions call (the rows of
        the left codes, when the caller passes them)."""
        rows = []
        original = rel_join.join_positions

        def spy(left_keys, right_keys, *args, **kwargs):
            coded = kwargs.get("left_codes")
            rows.append(len(left_keys[0]) if coded is None
                        else len(coded.codes))
            return original(left_keys, right_keys, *args, **kwargs)

        monkeypatch.setattr(rel_join, "join_positions", spy)
        return rows

    def pair_count(self, db, sql):
        """The rows of the statement's pair subquery."""
        subquery = sql.split("JOIN (", 1)[1].split(") AS p", 1)[0]
        return db.execute(f"SELECT COUNT(*) AS n FROM ({subquery}) AS q") \
            .to_rows()[0][0]

    def check(self, db, sql, run_unoptimized, probes):
        """The statement's result, bit for bit the unoptimized run's, and
        the left rows of its probes."""
        out = db.execute(sql)
        seen = list(probes)
        expected = run_unoptimized(db, sql)
        assert out.names == expected.names
        for name in out.names:
            got, want = out.column(name), expected.column(name)
            assert got.dtype is want.dtype
            assert got.tail.tobytes() == want.tail.tobytes()
        return out, seen

    def test_station_joins_probe_the_pairs(self, trips_db, probes,
                                           run_unoptimized):
        out, seen = self.check(trips_db, TRIPS_PREP, run_unoptimized,
                               probes)
        pairs = self.pair_count(trips_db, TRIPS_PREP)
        # The pair join probes the window's trips; each station join
        # probes the pair rows only.
        assert out.nrows > 8 * pairs
        assert seen[0] > out.nrows
        assert seen[1:] == [pairs, pairs]

    def test_duplicate_dimension_keys_take_the_plain_probe(
            self, trips_db, probes, run_unoptimized):
        stations = trips_db.catalog.get("stations")
        trips_db.register("stations2", Relation.from_columns(
            {name: stations.column(name).append(stations.column(name))
             for name in stations.names}))
        sql = TRIPS_PREP.replace("JOIN stations AS e", "JOIN stations2 AS e")
        out, seen = self.check(trips_db, sql, run_unoptimized, probes)
        # The s join probes the pairs; the e join (each code twice)
        # probes every row the s join kept.
        assert seen[1:] == [self.pair_count(trips_db, sql), out.nrows // 2]

    def test_left_join_makes_no_equivalence(self, trips_db, probes,
                                            run_unoptimized):
        sql = TRIPS_PREP.replace("FROM trips AS t JOIN (",
                                 "FROM trips AS t LEFT JOIN (")
        out, seen = self.check(trips_db, sql, run_unoptimized, probes)
        # The date window filters the preserved side below the LEFT JOIN,
        # so every join probes the window's trips: the station joins
        # probe the trips rows, not the pairs.
        assert seen == [out.nrows] * 3

    def test_large_source_takes_the_plain_probe(self, trips_db, probes,
                                                run_unoptimized):
        # Every pair with a trip: more than an eighth of the trips.
        sql = TRIPS_PREP.replace("COUNT(*) >= 3", "COUNT(*) >= 1")
        out, seen = self.check(trips_db, sql, run_unoptimized, probes)
        assert 8 * self.pair_count(trips_db, sql) > out.nrows
        assert seen[1:] == [out.nrows, out.nrows]

    def test_left_dimension_join_keeps_misses(self, run_unoptimized):
        """A LEFT JOIN to a dimension that lacks some keys, probed at the
        subquery's rows: misses read NULL, and an expression over both
        dimensions still runs once per pair."""
        rng = np.random.default_rng(5)
        n = 400
        db = repro.connect()
        db.register("f", Relation.from_columns(
            {"id": np.arange(n), "a": rng.integers(0, 4, n),
             "b": rng.integers(0, 3, n), "x": rng.normal(size=n)}))
        db.register("d", Relation.from_columns(
            {"k": [0, 2, 3], "w": [1.5, 2.5, 3.5]}))
        sql = ("SELECT f.id AS id, f.x AS x, da.w AS wa, db.w AS wb, "
               "da.w * 2.0 + db.w AS e FROM f JOIN (SELECT a AS pa, "
               "b AS pb FROM f GROUP BY a, b HAVING COUNT(*) >= 2) AS p "
               "ON f.a = p.pa AND f.b = p.pb LEFT JOIN d AS da "
               "ON f.a = da.k LEFT JOIN d AS db ON f.b = db.k "
               "ORDER BY f.id")
        out = self.check(db, sql, run_unoptimized, [])[0]
        db.execute(sql)
        assert db.last_stats.domain_evaluations == 1
        assert np.isnan(out.column("wa").tail).any()


class TestSeededOrder:
    """Position vectors carry non-decreasing/duplicate-free flags into
    ``BAT.fetch``: every bit a query's output columns carry equals a
    fresh computation on a cold copy."""

    QUERIES = [
        "SELECT a.k, a.v, a.s FROM a WHERE a.x > 0.0",
        "SELECT a.k, a.v, b.y FROM a JOIN b ON a.f = b.k",
        "SELECT a.k, a.v, b.y FROM a LEFT JOIN b ON a.f = b.k",
        "SELECT a.k, a.v, c.y FROM a JOIN c ON a.f = c.k",
        "SELECT a.k, a.v, c.y FROM a LEFT JOIN c ON a.f = c.k",
        "SELECT a.k, b.k AS bk, b.y FROM b JOIN a ON b.k = a.f",
        "SELECT a.k, a.v FROM a WHERE a.x > 0.0 ORDER BY a.x DESC",
        "SELECT a.k, a.v FROM a WHERE a.x > 0.0 ORDER BY a.x LIMIT 7",
        "SELECT a.k, a.v FROM a WHERE a.x > -1.0 LIMIT 9 OFFSET 2",
        "SELECT a.k, a.v, b.y FROM a JOIN b ON a.f = b.k "
        "WHERE b.y > 0.0 AND a.x < 1.0",
        "SELECT a.k, a.v, q.n FROM a JOIN (SELECT f, COUNT(*) AS n FROM a "
        "GROUP BY f) AS q ON a.f = q.f",
    ]

    @pytest.fixture(params=[0, 1, 2])
    def db(self, request):
        rng = np.random.default_rng(request.param)
        n = 60
        db = repro.connect()
        a = Relation.from_columns(
            {"k": np.arange(n), "v": np.sort(rng.integers(0, 9, n)),
             "s": np.arange(n)[::-1].copy(), "x": rng.normal(size=n),
             "f": rng.integers(0, 8, n)})
        b = Relation.from_columns({"k": np.arange(6),
                                   "y": rng.normal(size=6)})
        c = Relation.from_columns({"k": np.array([0, 1, 1, 3, 3, 5]),
                                   "y": rng.normal(size=6)})
        for relation in (a, b, c):
            for column in relation.columns:  # warm the base bits
                column.tsorted, column.trevsorted, column.tkey, column.tnonil
        for name, relation in (("a", a), ("b", b), ("c", c)):
            db.register(name, relation)
        return db

    @pytest.mark.parametrize("sql", QUERIES)
    def test_seeded_bits_equal_a_fresh_computation(self, db, sql):
        out = db.execute(sql)
        seeded = 0
        for column in out.columns:
            cold = BAT(column.dtype, column.tail.copy())
            for bit in ("tsorted", "trevsorted", "tkey", "tnonil"):
                if column.cached_prop(bit) is not None:
                    seeded += 1
                    assert column.cached_prop(bit) == getattr(cold, bit), \
                        (sql, column, bit)
        assert seeded

    def test_cold_base_column_arrives_sorted(self):
        """Fig. 15's trip_id: an INT base column whose bits nothing has
        computed, gathered through a candidate list and a join."""
        db = repro.connect()
        db.register("a", Relation.from_columns(
            {"k": np.arange(50), "f": np.arange(50) % 4}))
        db.register("b", Relation.from_columns({"k": np.arange(3)}))
        out = db.execute("SELECT a.k FROM a JOIN b ON a.f = b.k "
                         "WHERE a.k > 5")
        assert out.column("k").cached_prop("tsorted") is True

    def test_filtered_base_column_arrives_sorted(self, db):
        out = db.execute("SELECT a.k, b.y FROM a JOIN b ON a.f = b.k "
                         "WHERE a.x > 0.0")
        assert out.column("k").cached_prop("tsorted") is True
        assert out.column("k").cached_prop("tkey") is True
