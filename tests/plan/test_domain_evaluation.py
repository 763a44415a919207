"""Domain evaluation: an expression over a star join's dimension columns
runs once per distinct combination of dimension rows, then is gathered to
the join's rows.  It must give the bits the per-row path gives, for NULL
dimension values, LEFT JOIN misses, CASE and the string functions too."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro
from repro.bat.bat import BAT, DataType
from repro.core import RmaConfig
from repro.core.config import ParallelConfig
from repro.plan.physical import ExpressionEvaluator, Frame
from repro.relational import Relation

# The "ci" profile (tests/conftest.py) runs ten times as many examples.
SCALE = 10 if settings.get_current_profile_name() == "ci" else 1

SERIAL = RmaConfig()
PARALLEL = RmaConfig(parallel=ParallelConfig(enabled=True, workers=4,
                                             min_morsel_rows=1))

# Expressions over the two dimensions a (dim1) and b (dim2).
EXPRESSIONS = [
    "a.x * 2.0 + b.n",
    "a.x - b.n * a.x",
    "(a.x + 1.0) * (a.x + 1.0) - SQRT(ABS(a.x)) + COS(b.n)",
    "CASE WHEN a.x > 0.5 THEN a.s WHEN b.n IS NULL THEN 'none' "
    "ELSE b.w END",
    "CASE WHEN a.flag THEN b.n ELSE -1 END",
    "UPPER(a.s) || '-' || LOWER(b.w)",
    "LENGTH(a.s) + b.n",
    "COALESCE(a.x, b.n * 1.0, 0.0)",
    "a.k + b.k",
    "a.x IS NULL",
    "b.n BETWEEN 1 AND 3",
    "a.k IN (1, 2) OR b.w LIKE 'q%'",
    "ROUND(a.x * 10.0) / 4",
    "b.w || a.s",
]
PREDICATES = [
    "a.x * b.n > 0.5",
    "a.s IS NULL OR b.w LIKE 'p%'",
    "COALESCE(a.x, 0.0) + b.n < 3.0",
    "NOT (a.k = b.k)",
]

XS = [None, 0.0, 0.25, 0.75, 1.5, -2.0]
NS = [None, 0, 1, 2, 3]
WORDS = [None, "p", "Qr", "q1", "xy"]


@st.composite
def star(draw):
    """A fact table over two small dimensions, with enough fact rows for
    the domain rule (at least 8 x (|a| + 1) x (|b| + 1))."""
    na, nb = draw(st.integers(1, 4)), draw(st.integers(1, 4))
    dim1 = Relation.from_columns(
        {"k": list(range(1, na + 1)),
         "x": draw(st.lists(st.sampled_from(XS), min_size=na, max_size=na)),
         "s": draw(st.lists(st.sampled_from(WORDS), min_size=na,
                            max_size=na)),
         "flag": draw(st.lists(st.booleans(), min_size=na, max_size=na))},
        {"k": DataType.INT, "x": DataType.DBL, "s": DataType.STR,
         "flag": DataType.BOOL})
    dim2 = Relation.from_columns(
        {"k": list(range(1, nb + 1)),
         "n": draw(st.lists(st.sampled_from(NS), min_size=nb, max_size=nb)),
         "w": draw(st.lists(st.sampled_from(WORDS), min_size=nb,
                            max_size=nb))},
        {"k": DataType.INT, "n": DataType.INT, "w": DataType.STR})
    n = 8 * (na + 1) * (nb + 1) + draw(st.integers(0, 40))
    seed = draw(st.integers(0, 2**16))
    rng = np.random.default_rng(seed)
    # Keys beyond the dimensions (and NULL keys) miss in a LEFT JOIN.
    fk1 = [None if v == 0 else int(v) for v in rng.integers(0, na + 2, n)]
    fk2 = [None if v == 0 else int(v) for v in rng.integers(0, nb + 2, n)]
    facts = Relation.from_columns(
        {"id": list(range(n)), "f1": fk1, "f2": fk2,
         "v": rng.uniform(-1.0, 1.0, n).tolist()},
        {"id": DataType.INT, "f1": DataType.INT, "f2": DataType.INT,
         "v": DataType.DBL})
    return facts, dim1, dim2


def session(tables, config):
    db = repro.connect(config=config)
    for name, relation in zip(("f", "dim1", "dim2"), tables):
        db.register(name, relation)
    return db


def assert_bit_identical(out, expected):
    assert out.names == expected.names
    for name in out.names:
        a, b = out.column(name), expected.column(name)
        assert a.dtype is b.dtype, name
        if a.dtype is DataType.DBL:
            assert np.array_equal(a.tail.view(np.int64),
                                  b.tail.view(np.int64)), name
        else:
            assert a.tail.tolist() == b.tail.tolist(), name


def per_row(monkeypatch):
    """The per-row path only: no frame has a small enough domain."""
    monkeypatch.setattr(Frame, "domain", lambda self, internals: None)


@pytest.mark.parametrize("config", [SERIAL, PARALLEL],
                         ids=["serial", "parallel"])
@settings(max_examples=40 * SCALE, deadline=None)
@given(tables=star(), kinds=st.tuples(st.sampled_from(["JOIN", "LEFT JOIN"]),
                                      st.sampled_from(["JOIN", "LEFT JOIN"])),
       expr=st.sampled_from(EXPRESSIONS),
       predicate=st.one_of(st.none(), st.sampled_from(PREDICATES)))
def test_domain_matches_per_row(config, tables, kinds, expr, predicate):
    where = f" WHERE {predicate}" if predicate else ""
    sql = (f"SELECT f.id AS id, {expr} AS e, f.v * 2.0 AS w FROM f "
           f"{kinds[0]} dim1 AS a ON f.f1 = a.k "
           f"{kinds[1]} dim2 AS b ON f.f2 = b.k{where} ORDER BY f.id")
    db = session(tables, config)
    out = db.execute(sql)
    domain_evaluations = db.last_stats.domain_evaluations
    with pytest.MonkeyPatch.context() as monkeypatch:
        per_row(monkeypatch)
        expected = session(tables, config).execute(sql)
    assert_bit_identical(out, expected)
    if kinds == ("LEFT JOIN", "LEFT JOIN"):
        # Every fact row survives both joins, so the domain rule holds
        # for the WHERE predicate, or for the projection without one.
        assert domain_evaluations >= 1


class TestRule:
    def frame(self, nfacts, ndim, nullable=False):
        dim = Relation.from_columns({"k": list(range(ndim)),
                                     "x": [float(i) for i in range(ndim)]})
        positions = np.arange(nfacts, dtype=np.int64) % ndim
        if nullable:
            positions[::3] = -1
        base = Frame.from_relation(dim, "d")
        return Frame.joined(Frame.from_relation(
            Relation.from_columns({"i": list(range(nfacts))}), "f"),
            base, np.arange(nfacts, dtype=np.int64), positions)

    def evaluate(self, frame, sql):
        from repro.sql.parser import parse_sql
        counts = []
        expr = parse_sql(f"SELECT {sql} AS e").items[0].expr
        value = ExpressionEvaluator(frame, (), None, counts.append).eval(
            expr)
        return value, len(counts)

    def test_threshold_is_an_eighth_of_the_rows(self):
        # (4 + 1) codes: 40 rows qualify, 39 do not.
        assert self.evaluate(self.frame(40, 4), "d.x * 2.0")[1] == 1
        assert self.evaluate(self.frame(39, 4), "d.x * 2.0")[1] == 0

    def test_bare_columns_and_fact_columns_take_the_row_path(self):
        assert self.evaluate(self.frame(80, 4), "d.x")[1] == 0
        assert self.evaluate(self.frame(80, 4), "d.x + f.i")[1] == 0

    def test_misses_read_as_nil(self):
        value, domains = self.evaluate(self.frame(60, 4, nullable=True),
                                       "d.x + 1.0")
        assert domains == 1
        tail = value.tail
        assert np.isnan(tail[::3]).all()
        rest = np.delete(np.arange(60), np.arange(0, 60, 3))
        assert tail[rest].tolist() == [float(i % 4) + 1.0 for i in rest]

    def test_domain_gathers_the_distinct_positions_only(self, monkeypatch):
        fetched = []
        original = BAT.fetch

        def spy(bat, positions, *args, **kwargs):
            fetched.append(len(positions))
            return original(bat, positions, *args, **kwargs)

        monkeypatch.setattr(BAT, "fetch", spy)
        value, domains = self.evaluate(self.frame(200, 5), "d.x * d.x")
        assert domains == 1
        # One base column at the 5 positions, the result to the rows.
        assert fetched == [5, 200]
        assert value.tail.tolist() == [float(i % 5) ** 2
                                       for i in range(200)]

