"""Differential test: the SQL engine against sqlite3.

Hypothesis generates two small tables ``l`` and ``r`` with INT, DBL, STR
and DATE columns (NULLs, duplicate keys, 0- and 1-row inputs) and queries
over filters and ``BETWEEN``, inner and left joins with equality plus
residual ``ON`` conjuncts (and ``WHERE`` conjuncts over either side of a
left join), subqueries in ``FROM``, ``GROUP BY``/``HAVING``,
``DISTINCT``, ``ORDER BY``/``LIMIT`` and INT arithmetic over NULL-bearing
columns (projected, aggregated and compared).  Fig. 15's star shape gets a
larger fact table ``l`` over few keys and a dimension ``r`` whose keys are
unique in some examples and duplicated in others: a composite-key
subquery ``GROUP BY k, d HAVING ...`` joined back on both keys, then one
or two joins to ``r`` on one key each (the executor probes those at the
subquery's rows when the dimension key is unique).  Every query runs on sqlite3 and
on the engine twice, serially and on the morsel engine with 1-row morsels.
Results are compared as multisets, and as sequences when the ``ORDER BY``
is total.  Doubles are multiples of 0.5, so sums are exact and equality
is exact too.

Known divergences are excluded by construction, never by tolerance
(each fix should delete its entry and widen the generators):

* ``TWO_VALUED_LOGIC`` — comparisons over NULL are false, not unknown, so
  every generated comparison is guarded by ``IS NOT NULL`` (a guarded
  atom is never unknown in sqlite either), and ``HAVING`` only touches
  values that cannot be NULL.
* ``DIVISION`` — ``/`` always yields DBL; no query divides.
* ``NULL_ORDERING`` — a NULL DBL sorts last ascending (sqlite: first), so
  ``ORDER BY`` keys are filtered to non-NULL values.
* ``STR_NULL_ORDER`` — ordering, grouping and ``DISTINCT`` over a STR
  column holding NULL raise, so STR columns are only projected, compared
  with ``=``/``<>``, joined on and counted.
* ``BOOL_NIL`` — BOOL has no nil, so no table has a BOOL column (an
  unmatched LEFT JOIN row would read a value, not NULL).
"""

from __future__ import annotations

import collections
import datetime as dt
import re
import sqlite3

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import repro
from repro.bat.bat import DataType
from repro.core import RmaConfig
from repro.core.config import ParallelConfig
from repro.relational import Relation

# The "ci" profile (tests/conftest.py) runs ten times as many examples.
SCALE = 10 if settings.get_current_profile_name() == "ci" else 1
DIFFERENTIAL = settings(max_examples=50 * SCALE, deadline=None,
                        suppress_health_check=[HealthCheck.too_slow])

DATES = [dt.date(2015, 1, 1), dt.date(2015, 6, 30), dt.date(2016, 2, 29),
         dt.date(2016, 12, 31)]
COLUMNS = {"l": [("k", DataType.INT), ("x", DataType.DBL),
                 ("s", DataType.STR), ("d", DataType.DATE)],
           "r": [("k", DataType.INT), ("y", DataType.DBL),
                 ("s", DataType.STR), ("d", DataType.DATE)]}
SQLITE_TYPES = {DataType.INT: "INTEGER", DataType.DBL: "REAL",
                DataType.STR: "TEXT", DataType.DATE: "TEXT"}

ints = st.integers(0, 3)
halves = st.integers(-8, 8).map(lambda v: v / 2)
strs = st.sampled_from(["a", "b", "c"])
dates = st.sampled_from(DATES)
VALUES = {DataType.INT: ints, DataType.DBL: halves, DataType.STR: strs,
          DataType.DATE: dates}


def nullable(values):
    return st.one_of(st.none(), values, values)


def table(name):
    row = st.tuples(*(nullable(VALUES[dtype]) for _, dtype in COLUMNS[name]))
    return st.lists(row, min_size=0, max_size=7)


tables = st.fixed_dictionaries({"l": table("l"), "r": table("r")})


# -- query pieces ----------------------------------------------------------------

def date_literal(value):
    return f"DATE '{value.isoformat()}'"


# INT arithmetic over a NULL-bearing INT column ``{0}`` (no division:
# ``/`` is DBL, see DIVISION; no divisor that can be 0).
INT_ARITHMETIC = ["{0} + 1", "{0} * 2", "{0} + {0}", "{0} % 2", "2 - {0}",
                  "{0} * {0} - 3", "3 % ({0} + 1)"]


@st.composite
def atoms(draw, q, table_name):
    """A two-valued predicate over ``q.<column>`` of one table, or over
    INT arithmetic on an INT column."""
    column, dtype = draw(st.sampled_from(COLUMNS[table_name]))
    ref = f"{q}{column}"
    if dtype is DataType.INT and draw(st.integers(0, 2)) == 0:
        ref = f"({draw(st.sampled_from(INT_ARITHMETIC)).format(ref)})"
    if draw(st.integers(0, 4)) == 0:
        return f"{ref} IS {draw(st.sampled_from(['', 'NOT ']))}NULL"
    if dtype is DataType.STR:
        op = draw(st.sampled_from(["=", "<>"]))
        test = f"{ref} {op} '{draw(strs)}'"
    elif dtype is DataType.DATE:
        low, high = sorted(draw(st.lists(dates, min_size=2, max_size=2)))
        word = draw(st.sampled_from(["BETWEEN", "NOT BETWEEN"]))
        test = f"{ref} {word} {date_literal(low)} AND {date_literal(high)}"
    elif draw(st.booleans()):
        value = draw(ints if dtype is DataType.INT else halves)
        test = f"{ref} {draw(st.sampled_from(['<', '<=', '>', '>=', '=', '<>']))} {value}"
    elif dtype is DataType.INT:
        items = ", ".join(str(v) for v in draw(
            st.lists(ints, min_size=1, max_size=3)))
        test = f"{ref} IN ({items})"
    else:
        low, high = sorted(draw(st.lists(halves, min_size=2, max_size=2)))
        test = f"{ref} BETWEEN {low} AND {high}"
    return f"({ref} IS NOT NULL AND {test})"


@st.composite
def predicates(draw, q, table_name, depth=2):
    if depth == 0 or draw(st.integers(0, 2)) == 0:
        return draw(atoms(q, table_name))
    kind = draw(st.sampled_from(["AND", "OR", "NOT"]))
    left = draw(predicates(q, table_name, depth - 1))
    if kind == "NOT":
        return f"(NOT {left})"
    right = draw(predicates(q, table_name, depth - 1))
    return f"({left} {kind} {right})"


JOIN_KEYS = [("k",), ("s",), ("d",), ("k", "d"), ("s", "k")]
RESIDUALS = ["(l.x IS NOT NULL AND r.y IS NOT NULL AND l.x < r.y)",
             "(r.y IS NOT NULL AND r.y > 0)",
             "(l.d IS NOT NULL AND r.d IS NOT NULL AND l.d <= r.d)",
             "(l.s IS NOT NULL AND l.s <> 'a')"]


@st.composite
def join_queries(draw):
    kind = draw(st.sampled_from(["JOIN", "LEFT JOIN"]))
    keys = draw(st.sampled_from(JOIN_KEYS))
    on = [f"l.{key} = r.{key}" for key in keys]
    on += draw(st.lists(st.sampled_from(RESIDUALS), max_size=2, unique=True))
    sql = (f"SELECT l.k AS lk, l.x AS lx, l.s AS ls, r.k AS rk, r.y AS ry, "
           f"r.s AS rs, r.d AS rd FROM l {kind} r ON {' AND '.join(on)}")
    if draw(st.booleans()):
        sql += f" WHERE {draw(predicates('l.', 'l', 1))}"
    return sql


NULL_SIDE = ["r.y IS NULL", "r.k IS NULL", "r.s IS NOT NULL",
             "(r.y IS NULL OR (r.y IS NOT NULL AND r.y > 0))"]


@st.composite
def left_join_where_queries(draw):
    """A LEFT JOIN whose WHERE has a conjunct over the preserved side
    (moved below the join) and one over the null-supplying side (kept
    above it, where the padded rows read NULL)."""
    keys = draw(st.sampled_from(JOIN_KEYS))
    on = " AND ".join(f"l.{key} = r.{key}" for key in keys)
    conjuncts = draw(st.permutations(
        [draw(predicates("l.", "l", 1)), draw(st.sampled_from(NULL_SIDE))]))
    return ("SELECT l.k AS lk, l.x AS lx, r.k AS rk, r.y AS ry FROM l "
            f"LEFT JOIN r ON {on} WHERE {' AND '.join(conjuncts)}")


AGGREGATES = ["COUNT(*)", "COUNT(x)", "SUM(x)", "AVG(x)", "MIN(x)",
              "MAX(x)", "COUNT(k)", "SUM(k)", "MIN(d)", "MAX(d)", "MIN(s)",
              "MAX(s)",
              "COUNT(DISTINCT k)", "COUNT(DISTINCT s)", "COUNT(DISTINCT d)",
              "SUM(k + 1)", "MAX(2 - k)", "COUNT(k * 2)", "AVG(k % 2)",
              "SUM(k * x)", "MIN(k + x)"]


@st.composite
def group_queries(draw):
    keys = draw(st.sampled_from([(), ("k",), ("x",), ("d",), ("k", "d")]))
    aggs = draw(st.lists(st.sampled_from(AGGREGATES), min_size=1,
                         max_size=4, unique=True))
    items = list(keys) + [f"{agg} AS a{i}" for i, agg in enumerate(aggs)]
    sql = f"SELECT {', '.join(items)} FROM l"
    if draw(st.booleans()):
        sql += f" WHERE {draw(predicates('', 'l'))}"
    if keys:
        sql += f" GROUP BY {', '.join(keys)}"
        if draw(st.booleans()):
            having = draw(st.sampled_from(
                ["COUNT(*) > 1", "COUNT(x) >= 1", "COUNT(*) < 3"]))
            sql += f" HAVING {having}"
    return sql


# Arithmetic projected over l: INT results, DBL ones (an INT and a DBL
# operand) and unary minus; a NULL operand must give NULL.
PROJECTED_ARITHMETIC = ([e.format("k") for e in INT_ARITHMETIC]
                        + ["k + x", "x * k", "k * 0.5", "-k", "-(k + 1) * 2"])


@st.composite
def arithmetic_queries(draw):
    exprs = draw(st.lists(st.sampled_from(PROJECTED_ARITHMETIC), min_size=1,
                          max_size=4, unique=True))
    items = ", ".join(f"{e} AS e{i}" for i, e in enumerate(exprs))
    sql = f"SELECT k, x, {items} FROM l"
    if draw(st.booleans()):
        sql += f" WHERE {draw(predicates('', 'l', 1))}"
    return sql


@st.composite
def subquery_queries(draw):
    shape = draw(st.integers(0, 2))
    if shape == 0:
        # Fig. 15's shape: one filter over l inside a grouped subquery and
        # again outside it.
        pred = draw(predicates("", "l", 1))
        outer = re.sub(r"\b([kxsd])\b", r"t.\1", pred)
        return ("SELECT t.k AS k, t.x AS x, t.s AS s FROM l AS t JOIN "
                f"(SELECT k AS fk FROM l WHERE {pred} GROUP BY k "
                f"HAVING COUNT(*) >= {draw(st.integers(1, 2))}) AS p "
                f"ON t.k = p.fk WHERE {outer}")
    if shape == 1:
        kind = draw(st.sampled_from(["JOIN", "LEFT JOIN"]))
        return ("SELECT l.k AS k, l.x AS x, q.n AS n, q.sy AS sy FROM l "
                f"{kind} (SELECT k, COUNT(*) AS n, SUM(y) AS sy FROM r "
                f"WHERE {draw(predicates('', 'r', 1))} GROUP BY k) AS q "
                "ON l.k = q.k")
    op = draw(st.sampled_from(["<", ">=", "<>"]))
    return ("SELECT q.s AS s, q.y2 AS y2 FROM (SELECT s, y * 2 AS y2 "
            "FROM r WHERE y IS NOT NULL) AS q "
            f"WHERE q.y2 {op} {draw(halves)}")


# Fig. 15's star shape: few keys over many fact rows, so the frequent
# pairs number at most an eighth of the rows the pair join keeps.
DAYS = [dt.date(2016, 1, 1), dt.date(2016, 1, 2), dt.date(2016, 1, 3)]


def rarely_null(values):
    return st.one_of(st.none(), values, values, values, values)


@st.composite
def star_tables(draw):
    """A fact table ``l`` of up to 192 rows over two k and two DAYS
    values (NULL keys too), up to 12 drawn rows repeated up to 16 times,
    and a dimension ``r`` keyed by k and d: unique keys (one NULL at
    most) or duplicated ones."""
    fact = st.tuples(rarely_null(st.integers(0, 1)), rarely_null(halves),
                     rarely_null(strs), rarely_null(st.sampled_from(DAYS[:2])))
    facts = (draw(st.lists(fact, min_size=0, max_size=12))
             * draw(st.sampled_from([1, 4, 16])))
    if draw(st.booleans()):
        ks = draw(st.lists(st.one_of(st.none(), st.integers(0, 2)),
                           max_size=4, unique=True))
        ds = draw(st.lists(st.one_of(st.none(), st.sampled_from(DAYS)),
                           min_size=len(ks), max_size=len(ks), unique=True))
    else:
        ks = draw(st.lists(st.one_of(st.none(), st.integers(0, 2)),
                           max_size=5))
        ds = draw(st.lists(st.one_of(st.none(), st.sampled_from(DAYS)),
                           min_size=len(ks), max_size=len(ks)))
    dims = [(k, draw(rarely_null(halves)), draw(rarely_null(strs)), d)
            for k, d in zip(ks, ds)]
    return {"l": facts, "r": dims}


@st.composite
def star_queries(draw):
    """Frequent (k, d) pairs of ``l`` joined back to ``l`` on both keys,
    then to the dimension ``r`` on k, and on d."""
    pred = draw(predicates("", "l", 1))
    outer = re.sub(r"\b([kxsd])\b", r"t.\1", pred)
    where = f"WHERE {pred} " if draw(st.booleans()) else ""
    items = ["t.k AS k", "t.x AS x", "t.d AS d", "a.y AS ay", "a.s AS a_s"]
    joins = [f"{draw(st.sampled_from(['JOIN', 'LEFT JOIN']))} r AS a "
             "ON t.k = a.k"]
    if draw(st.booleans()):
        items += ["b.y AS by_", "b.k AS bk"]
        joins.append(f"{draw(st.sampled_from(['JOIN', 'LEFT JOIN']))} "
                     "r AS b ON t.d = b.d")
    sql = (f"SELECT {', '.join(items)} FROM l AS t JOIN "
           f"(SELECT k AS fk, d AS fd FROM l {where}GROUP BY k, d "
           f"HAVING COUNT(*) >= {draw(st.integers(1, 3))}) AS p "
           f"ON t.k = p.fk AND t.d = p.fd {' '.join(joins)}")
    if draw(st.booleans()):
        sql += f" WHERE {outer}"
    return sql


@st.composite
def distinct_queries(draw):
    columns = draw(st.lists(st.sampled_from(["k", "x", "d"]), min_size=1,
                            max_size=3, unique=True))
    sql = f"SELECT DISTINCT {', '.join(columns)} FROM l"
    if draw(st.booleans()):
        sql += f" WHERE {draw(predicates('', 'l', 1))}"
    return sql


@st.composite
def ordered_queries(draw):
    """(sql, total): ORDER BY keys hold no NULL; ``total`` when the keys
    cover every output column, so ties are identical rows."""
    columns = draw(st.lists(st.sampled_from(["k", "x", "d"]), min_size=1,
                            max_size=3, unique=True))
    order = draw(st.permutations(columns))
    order = order[:draw(st.integers(1, len(order)))]
    items = ", ".join(f"{c}{draw(st.sampled_from(['', ' DESC']))}"
                      for c in order)
    guards = " AND ".join(f"{c} IS NOT NULL" for c in order)
    sql = f"SELECT {', '.join(columns)} FROM l WHERE {guards}"
    if draw(st.booleans()):
        sql += f" AND {draw(predicates('', 'l', 1))}"
    sql += f" ORDER BY {items}"
    total = set(order) == set(columns)
    if total and draw(st.booleans()):
        sql += f" LIMIT {draw(st.integers(0, 4))}"
        if draw(st.booleans()):
            sql += f" OFFSET {draw(st.integers(1, 3))}"
    return sql, total


# -- running ----------------------------------------------------------------------

ENGINES = {
    "serial": RmaConfig(parallel=ParallelConfig(enabled=False)),
    "morsel1": RmaConfig(parallel=ParallelConfig(enabled=True, workers=2,
                                                 min_morsel_rows=1)),
}


def load(data):
    con = sqlite3.connect(":memory:")
    sessions = {name: repro.connect(config=config)
                for name, config in ENGINES.items()}
    for name, rows in data.items():
        columns = COLUMNS[name]
        con.execute(f"CREATE TABLE {name} ("
                    + ", ".join(f"{c} {SQLITE_TYPES[t]}" for c, t in columns)
                    + ")")
        con.executemany(
            f"INSERT INTO {name} VALUES ({', '.join('?' * len(columns))})",
            [tuple(v.isoformat() if isinstance(v, dt.date) else v
                   for v in row) for row in rows])
        relation = Relation.from_columns(
            {c: [row[i] for row in rows] for i, (c, _) in enumerate(columns)},
            dict(columns))
        for session in sessions.values():
            session.register(name, relation)
    return con, sessions


def normalize(value):
    return value.isoformat() if isinstance(value, dt.date) else value


def check(data, sql, ordered=False):
    con, sessions = load(data)
    expected = con.execute(re.sub(r"DATE '", "'", sql)).fetchall()
    for name, session in sessions.items():
        got = [tuple(normalize(v) for v in row)
               for row in session.execute(sql).to_rows()]
        if ordered:
            assert got == expected, (name, sql)
        else:
            assert collections.Counter(got) == \
                collections.Counter(expected), (name, sql)


# -- the differential properties ----------------------------------------------------

@DIFFERENTIAL
@given(tables, predicates("", "l"))
def test_filters(data, predicate):
    check(data, f"SELECT k, x, s, d FROM l WHERE {predicate}")


@DIFFERENTIAL
@given(tables, join_queries())
def test_joins(data, sql):
    check(data, sql)


@DIFFERENTIAL
@given(tables, left_join_where_queries())
def test_left_join_where(data, sql):
    check(data, sql)


@DIFFERENTIAL
@given(tables, subquery_queries())
def test_subqueries(data, sql):
    check(data, sql)


@DIFFERENTIAL
@given(star_tables(), star_queries())
def test_star_joins(data, sql):
    check(data, sql)


@DIFFERENTIAL
@given(tables, group_queries())
def test_group_by(data, sql):
    check(data, sql)


@DIFFERENTIAL
@given(tables, arithmetic_queries())
def test_null_arithmetic(data, sql):
    check(data, sql)


@DIFFERENTIAL
@given(tables, distinct_queries())
def test_distinct(data, sql):
    check(data, sql)


@DIFFERENTIAL
@given(tables, ordered_queries())
def test_order_by_limit(data, query):
    sql, total = query
    check(data, sql, ordered=total)


# -- shrunk failures ------------------------------------------------------------------

NULLS = {"l": [(None, None, None, None), (1, 0.5, "a", DATES[0]),
               (1, None, None, None)],
         "r": [(None, 1.0, None, None), (1, None, "a", DATES[1])]}


@pytest.mark.parametrize("sql", [
    # NULL keys used to match each other.
    "SELECT l.x AS lx, r.y AS ry FROM l JOIN r ON l.k = r.k",
    "SELECT l.x AS lx, r.y AS ry FROM l LEFT JOIN r ON l.s = r.s",
    "SELECT l.x AS lx, r.y AS ry FROM l JOIN r ON l.k = r.k AND l.d = r.d",
    # COUNT(DISTINCT) used to count NULL as a value.
    "SELECT COUNT(DISTINCT k) AS a, COUNT(DISTINCT s) AS b FROM l",
    "SELECT k, COUNT(DISTINCT d) AS a FROM l GROUP BY k",
    # Aggregates used to turn a group's NULL into the result; DISTINCT
    # kept one row per NULL double.
    "SELECT SUM(x) AS a, MIN(x) AS b, MAX(d) AS c, SUM(k) AS e, "
    "MIN(s) AS f FROM l",
    "SELECT k, AVG(x) AS a, MAX(x) AS b FROM l GROUP BY k",
    "SELECT DISTINCT x FROM l",
    # LEFT JOIN: residual ON conjuncts decide matches; empty right side.
    "SELECT l.k AS lk, r.y AS ry FROM l LEFT JOIN r "
    "ON l.k = r.k AND (r.y IS NOT NULL AND r.y > 5)",
    "SELECT l.k AS lk, q.y AS qy FROM l LEFT JOIN "
    "(SELECT k, y FROM r WHERE y > 100) AS q ON l.k = q.k",
    # LEFT JOIN: WHERE over the preserved side filters below the join,
    # over the null-supplying side above it.
    "SELECT l.k AS lk, l.x AS lx, r.y AS ry FROM l LEFT JOIN r "
    "ON l.k = r.k WHERE (l.x IS NOT NULL AND l.x > 0) AND r.y IS NULL",
    # INT arithmetic used to turn a NULL operand into a number.
    "SELECT k + 1 AS a, k * 2 AS b, k + k AS c, k % 2 AS e, 2 - k AS f, "
    "k + x AS g FROM l",
    "SELECT SUM(k + 1) AS a, MAX(2 - k) AS b, COUNT(k * 2) AS c FROM l",
    "SELECT k FROM l WHERE (k + 1) IS NULL",
])
def test_regressions(sql):
    check(NULLS, sql)


def test_descending_key_keeps_ties_for_later_keys():
    # A DESC key used to reverse its ties, so later keys sorted backwards.
    data = {"l": [(0, 0.0, None, DATES[0]), (0, 0.0, None, DATES[1])],
            "r": []}
    check(data, "SELECT k, x, d FROM l ORDER BY k, x DESC, d",
          ordered=True)
