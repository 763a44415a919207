"""Warm statement templates: names bound once, keys coded below the gather.

A stored template keeps one frame layout per plan node
(:class:`repro.plan.frame.Layout`), so a warm run of Fig. 15's statement
resolves no name, builds no binding and mints no internal name.  A GROUP
BY and a join over a filtered scan's base columns gather key codes that
are computed once per base column pair (:func:`repro.relational.joins.
base_codes`) instead of gathering the key columns and coding them.  A
join probed at a small source's rows, where every row has its match,
composes the right side's positions only when a gather reads them.

Rows, row order and bits equal the uncached session
(``connect(plan_cache=False)``), the unoptimized run and sqlite.
"""

from __future__ import annotations

import datetime as dt
import sqlite3

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import repro
import repro.relational.aggregate as rel_aggregate
import repro.relational.joins as rel_join
from repro.bat.bat import BAT, DataType
from repro.core import RmaConfig
from repro.core.config import ParallelConfig
from repro.data import bixi
from repro.errors import BindError
from repro.plan import frame as plan_frame
from repro.relational.relation import Relation

# The "ci" profile (tests/conftest.py) runs ten times as many examples.
SCALE = 10 if settings.get_current_profile_name() == "ci" else 1

SERIAL = RmaConfig()
PARALLEL = RmaConfig(parallel=ParallelConfig(enabled=True, workers=4,
                                             min_morsel_rows=1))
CONFIGS = pytest.mark.parametrize("config", [SERIAL, PARALLEL],
                                  ids=["serial", "parallel"])

DEG = 0.017453292519943295
DX = (f"((e.longitude - s.longitude) * {DEG} "
      f"* COS((s.latitude + e.latitude) / 2.0 * {DEG}))")
DY = f"((e.latitude - s.latitude) * {DEG})"


def fig15(low: str, high: str, k: int, kind: str = "JOIN") -> str:
    """Fig. 15's data preparation over the window ``low .. high``."""
    span = f"DATE '{low}' AND DATE '{high}'"
    return (
        "SELECT t.trip_id AS trip_id, 1.0 AS const, "
        f"6371.0 * SQRT({DX} * {DX} + {DY} * {DY}) AS distance, "
        "t.duration * 1.0 AS duration "
        "FROM trips AS t "
        "JOIN (SELECT start_station AS fs, end_station AS fe FROM trips "
        f"WHERE start_date BETWEEN {span} "
        f"GROUP BY start_station, end_station HAVING COUNT(*) >= {k}) AS p "
        "ON t.start_station = p.fs AND t.end_station = p.fe "
        f"{kind} stations AS s ON t.start_station = s.code "
        f"{kind} stations AS e ON t.end_station = e.code "
        f"WHERE t.start_date BETWEEN {span}")


WINDOWS = [("2014-03-01", "2015-02-28", 3), ("2014-06-01", "2015-05-31", 4),
           ("2014-09-01", "2015-08-31", 2), ("2014-01-01", "2014-12-31", 5)]


def sessions(stations: Relation, trips: Relation, config=SERIAL):
    """A caching session and its uncached reference, over the tables."""
    pair = (repro.connect(config=config),
            repro.connect(config=config, plan_cache=False))
    for db in pair:
        db.register("trips", trips)
        db.register("stations", stations)
    return pair


@pytest.fixture(scope="module")
def tables():
    stations = bixi.generate_stations(30, seed=2)
    trips = bixi.generate_trips(3000, stations, years=(2014, 2015), seed=3)
    return stations, trips


def bits(relation: Relation) -> tuple:
    """Names, types and exact column bits, in row order."""
    return (tuple(relation.names),
            tuple(c.dtype for c in relation.columns),
            tuple(c.tail.tolist() if c.dtype is DataType.STR
                  else c.tail.tobytes() for c in relation.columns))


@pytest.fixture
def name_work(monkeypatch):
    """Counts of the calls that resolve names or build bindings."""
    counts = {"_matches": 0, "resolve": 0, "_fresh": 0, "Binding": 0}

    def counting(name, original):
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return original(*args, **kwargs)
        return wrapper

    for name in ("_matches", "resolve"):
        monkeypatch.setattr(plan_frame.Frame, name, counting(
            name, getattr(plan_frame.Frame, name)))
    monkeypatch.setattr(plan_frame.Frame, "_fresh", classmethod(counting(
        "_fresh", plan_frame.Frame._fresh.__func__)))
    monkeypatch.setattr(plan_frame.Binding, "__init__", counting(
        "Binding", plan_frame.Binding.__init__))
    return counts


class TestNamesBoundOnce:
    @CONFIGS
    def test_warm_statement_resolves_no_names(self, tables, config,
                                              name_work):
        db, reference = sessions(*tables, config)
        expected = [bits(reference.execute(fig15(*window)))
                    for window in WINDOWS]
        # The shape is stored on its second sighting, whose run records
        # the layouts; the third run is warm.
        for window in WINDOWS[:2]:
            db.execute(fig15(*window))
        assert name_work["_matches"] > 0
        for window, want in zip(WINDOWS[2:], expected[2:]):
            for counter in name_work:
                name_work[counter] = 0
            out = db.execute(fig15(*window))
            assert name_work == {"_matches": 0, "resolve": 0, "_fresh": 0,
                                 "Binding": 0}
            assert bits(out) == want

    def test_binding_errors_are_unchanged_when_warm(self, tables):
        db, reference = sessions(*tables)
        statements = [
            # unknown, then ambiguous, at run time, after a join
            "SELECT t.trip_id AS i, s.nope AS x FROM trips AS t "
            "JOIN stations AS s ON t.start_station = s.code "
            "WHERE t.duration > {}",
            "SELECT t.trip_id AS i, code AS c FROM trips AS t "
            "JOIN stations AS s ON t.start_station = s.code "
            "JOIN stations AS e ON t.end_station = e.code "
            "WHERE t.duration > {}",
        ]
        for sql in statements:
            for run in range(4):
                text = sql.format(100 + run)
                with pytest.raises(BindError) as cached:
                    db.execute(text)
                with pytest.raises(BindError) as fresh:
                    reference.execute(text)
                assert str(cached.value) == str(fresh.value)


class TestBaseCodes:
    SQL = ("SELECT t.trip_id AS trip_id, p.n AS n FROM trips AS t "
           "JOIN (SELECT start_station AS fs, end_station AS fe, "
           "COUNT(*) AS n FROM trips "
           "WHERE start_date BETWEEN DATE '{0}' AND DATE '{1}' "
           "GROUP BY start_station, end_station HAVING COUNT(*) >= {2}) "
           "AS p ON t.start_station = p.fs AND t.end_station = p.fe "
           "WHERE t.start_date BETWEEN DATE '{0}' AND DATE '{1}' "
           "ORDER BY trip_id")

    @CONFIGS
    def test_group_by_and_join_gather_base_codes(self, tables, config,
                                                 monkeypatch,
                                                 run_unoptimized):
        stations, trips = tables
        db, reference = sessions(stations, trips, config)
        keys = {id(trips.column(name))
                for name in ("start_station", "end_station")}
        fetched, coded, probes = [], [], []
        fetch, key_codes = BAT.fetch, rel_aggregate.key_codes
        join_positions = rel_join.join_positions

        def spy_fetch(self, *args, **kwargs):
            fetched.append(id(self))
            return fetch(self, *args, **kwargs)

        def spy_key_codes(*args, **kwargs):
            coded.append(args)
            return key_codes(*args, **kwargs)

        def spy_join(*args, **kwargs):
            probes.append(kwargs.get("left_codes") is not None)
            return join_positions(*args, **kwargs)

        monkeypatch.setattr(BAT, "fetch", spy_fetch)
        monkeypatch.setattr(rel_aggregate, "key_codes", spy_key_codes)
        monkeypatch.setattr(rel_join, "join_positions", spy_join)
        for low, high, k in WINDOWS:
            sql = self.SQL.format(low, high, k)
            fetched.clear()
            out = db.execute(sql)
            assert not keys & set(fetched)  # no key column gathered
            assert bits(out) == bits(reference.execute(sql))
            assert bits(out) == bits(run_unoptimized(db, sql))
        assert coded == [] and probes and all(probes)
        rows = sqlite_rows(tables, self.SQL.format(*WINDOWS[0]))
        assert db.execute(self.SQL.format(*WINDOWS[0])).to_rows() == rows

    def test_codes_are_cached_on_the_base_in_a_narrow_type(self, tables):
        _, trips = tables
        columns = trips.bats(["start_station", "end_station"])
        first = rel_join.base_codes(columns)
        assert rel_join.base_codes(columns) is first
        assert first.codes.dtype == np.uint16  # 30 x 30 station codes
        assert not first.codes.flags.writeable
        reference = rel_join.key_codes(columns)
        assert np.array_equal(first.codes, reference.codes)
        assert (first.k, first.layout) == (reference.k, reference.layout)
        # Another further column: computed afresh, the kept codes stay.
        other = [columns[0], trips.column("duration")]
        assert np.array_equal(rel_join.base_codes(other).codes,
                              rel_join.key_codes(other).codes)
        assert rel_join.base_codes(columns) is first


def sqlite_rows(tables, sql: str) -> list[tuple]:
    """``sql`` run on sqlite3 over the tables (DATEs as ISO text)."""
    connection = sqlite3.connect(":memory:")
    for name, relation in zip(("stations", "trips"), tables):
        columns = ", ".join(relation.names)
        connection.execute(f"CREATE TABLE {name} ({columns})")
        rows = [tuple(v.isoformat() if isinstance(v, (dt.date, dt.time))
                      else v for v in row) for row in relation.to_rows()]
        marks = ", ".join("?" * len(relation.names))
        connection.executemany(f"INSERT INTO {name} VALUES ({marks})", rows)
    return connection.execute(sql.replace("DATE ", "")).fetchall()


class TestStationJoins:
    """Station-style joins probed at the pair rows: every pair has its
    station (the right positions are composed lazily), or some pair
    misses it (an inner join drops those trips, a LEFT JOIN reads nil)."""

    @staticmethod
    def stations_without(stations: Relation, drop: int) -> Relation:
        codes = stations.column("code").tail
        keep = np.flatnonzero(codes % drop != 0) if drop else \
            np.arange(len(codes))
        return Relation.from_columns({
            name: stations.column(name).fetch(keep)
            for name in stations.names})

    @CONFIGS
    @pytest.mark.parametrize("kind", ["JOIN", "LEFT JOIN"])
    @pytest.mark.parametrize("drop", [0, 4])
    def test_misses_and_lazy_positions(self, tables, config, kind, drop,
                                       monkeypatch, run_unoptimized):
        stations, trips = tables
        db, reference = sessions(self.stations_without(stations, drop),
                                 trips, config)
        derived = []
        original = plan_frame._Source.derived.__func__

        def spy(cls, *args, **kwargs):
            derived.append(args)
            return original(cls, *args, **kwargs)

        monkeypatch.setattr(plan_frame._Source, "derived",
                            classmethod(spy))
        for low, high, k in WINDOWS:
            sql = fig15(low, high, k, kind)
            out = db.execute(sql)
            assert bits(out) == bits(reference.execute(sql))
            assert bits(out) == bits(run_unoptimized(db, sql))
            if drop:
                distance = out.column("distance")
                if kind == "JOIN":
                    assert distance.tnonil
                else:
                    assert not distance.tnonil
        assert bool(derived) == (drop == 0)


# -- random statements, warm against the uncached session -----------------

DAYS = [dt.date(2016, 1, 1) + dt.timedelta(days=i) for i in range(6)]


@st.composite
def fact_tables(draw):
    n = draw(st.integers(0, 40))
    keys = st.one_of(st.none(), st.integers(0, 5)) if draw(st.booleans()) \
        else st.integers(0, 5)
    fact = Relation.from_columns({
        "k": BAT.from_values([draw(keys) for _ in range(n)], DataType.INT),
        "j": BAT.from_values([draw(st.integers(-2, 2)) for _ in range(n)],
                             DataType.INT),
        "d": BAT.from_values([draw(st.sampled_from(DAYS)) for _ in range(n)],
                             DataType.DATE),
        "s": BAT.from_values([draw(st.sampled_from(["a", "b", None]))
                              for _ in range(n)], DataType.STR),
        "x": BAT.from_values([draw(st.integers(0, 8)) / 2 for _ in range(n)],
                             DataType.DBL),
    })
    m = draw(st.integers(0, 6))
    dim = Relation.from_columns({
        "code": BAT.from_values(draw(st.permutations(range(6)))[:m],
                                DataType.INT),
        "w": BAT.from_values([float(i) for i in range(m)], DataType.DBL),
    })
    return fact, dim


KEYS = [("k",), ("d",), ("k", "j"), ("s",), ("j", "d")]


@st.composite
def statements(draw):
    """A template over a date window: a GROUP BY of the window joined back
    to the fact on its keys, then to the dimension on ``k``."""
    keys = draw(st.sampled_from(KEYS))
    join = draw(st.sampled_from(["JOIN", "LEFT JOIN"]))
    on = " AND ".join(f"f.{key} = p.g{i}" for i, key in enumerate(keys))
    groups = ", ".join(f"{key} AS g{i}" for i, key in enumerate(keys))
    window = "BETWEEN DATE '{0}' AND DATE '{1}'"
    return (
        f"SELECT f.x AS x, f.s AS s, p.n AS n, g.w AS w FROM f "
        f"JOIN (SELECT {groups}, COUNT(*) AS n FROM f WHERE d {window} "
        f"GROUP BY {', '.join(keys)} HAVING COUNT(*) >= {{2}}) AS p "
        f"ON {on} {join} g ON f.k = g.code WHERE f.d {window}")


@settings(max_examples=30 * SCALE, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(data=fact_tables(), template=statements(),
       windows=st.lists(st.tuples(st.integers(0, 5), st.integers(0, 5),
                                  st.integers(1, 3)), min_size=3,
                        max_size=4),
       parallel=st.booleans())
def test_random_warm_statements_match_uncached(data, template, windows,
                                               parallel):
    fact, dim = data
    config = PARALLEL if parallel else SERIAL
    db = repro.connect(config=config)
    reference = repro.connect(config=config, plan_cache=False)
    for session in (db, reference):
        session.register("f", fact)
        session.register("g", dim)
    for low, width, k in windows:
        sql = template.format(DAYS[low].isoformat(),
                              DAYS[min(low + width, 5)].isoformat(), k)
        assert outcome(db, sql) == outcome(reference, sql)


def outcome(db, sql: str) -> tuple:
    """The bits of ``sql``'s result, or the type and message of the error
    it raised (grouping a STR column that holds NULL raises)."""
    try:
        return ("ok", bits(db.execute(sql)))
    except Exception as error:  # both sessions must raise the same error
        return ("error", type(error), str(error))
