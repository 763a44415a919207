"""The first-level statement key: one regex pass finds a statement's
literals without the tokenizer.  Its values, their types and shared slots
must be those of ``literal_slots(tokenize(text))``, and texts with one key
must have one shape, so a warm statement runs the template the full path
would pick."""

import datetime as dt

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro
from repro.api import database
from repro.errors import SqlSyntaxError
from repro.relational import Relation
from repro.sql import parser
from repro.sql.lexer import tokenize
from repro.sql.parser import literal_key, literal_slots

# The "ci" profile (tests/conftest.py) runs ten times as many examples.
SCALE = 10 if settings.get_current_profile_name() == "ci" else 1


def typed(values):
    return [(type(v), v.hex() if isinstance(v, float) else v)
            for v in values]


def full_path(text):
    """(shape, values) the tokenizer gives, or None when it raises."""
    try:
        shape, values, _ = literal_slots(tokenize(text))
    except (SqlSyntaxError, ValueError):
        return None
    return shape, values


def check_values(text):
    """The fast key's values equal the full path's; returns (key, shape)
    or None when the full path raises (such a key is never stored)."""
    fast = literal_key(text)
    full = full_path(text)
    if full is None:
        return None
    assert fast is not None, text
    assert typed(fast[1]) == typed(full[1]), text
    return fast[0], full[0]


CORPUS = [
    "SELECT t.trip_id AS trip_id, 1.0 AS const, 6371.0 * SQRT(((e.longitude"
    " - s.longitude) * 0.017453292519943295)) AS distance FROM trips AS t "
    "JOIN (SELECT start_station AS fs FROM trips WHERE start_date BETWEEN "
    "DATE '2015-01-01' AND DATE '2016-12-31' GROUP BY start_station HAVING "
    "COUNT(*) >= 40) AS p ON t.start_station = p.fs",
    "select distinct x, y from t where x <> 1 and y != 2 or z <= 3.5e-2 "
    "order by x desc limit 10 offset 5;",
    "SELECT x FROM t LIMIT 3 OFFSET 1",
    "SELECT x FROM t limit -- the count\n 3 offset\n\t1",
    'SELECT "LIMIT" 3, "DATE" \'2015-01-01\', "t 1" FROM "x2" AS "9"',
    "SELECT x FROM t WHERE d = date'2015-02-03' AND h = TIME '12:30:00'",
    "SELECT x FROM t WHERE d = DATE -- day\n '2015-02-03'",
    "INSERT INTO c VALUES (1, 2, -0.25), (3, 4, 1e3), (1, 1.0, '1')",
    "SELECT 'it''s', '', '''', \"quoted id\", x || 'y' FROM t -- 1 'a",
    "SELECT\r\n\ta\n  -- comment 7 line\n, .5, 1., 1.e5, 1e, 1.2.3 FROM t",
    "SELECT t1.x2, _x1, a.5, x.y FROM t1 WHERE a1b2 = 1 AND b = 01",
    "SELECT café, Ünïcödé, ſelect FROM t WHERE x = ٣",
    "SELECT 1 1 1.0 1.0 '1' '1' 2 -2",
    "SELECT x FROM t WHERE x = 1e5 AND y = 100000.0 AND z = 100000",
    "SELECT a FROM t WHERE x = 0.1 AND y = 0.10 AND z = 1e-1",
    "SELECT a FROM t LIMIT 5 5",
    "SELECT a FROM t WHERE d = DATE '2015-02-30'",
    "SELECT a FROM t WHERE x = 1e+",
    "SELECT 'unterminated",
    'SELECT "unterminated',
    "SELECT a\n  FROM t WHERE x = @y",
    "SELECT a FROM t WHERE x = 1\x0c",
    "SELECT ² FROM t",
    "SELECT $1",
    "",
    "-- only a comment 1 '2'",
]


@pytest.mark.parametrize("text", CORPUS)
def test_corpus_values_match_literal_slots(text):
    check_values(text)


def test_keys_keep_what_shapes_the_plan():
    keys = {text: literal_key(text)[0] for text in [
        "SELECT x FROM t WHERE x = 1 LIMIT 3",
        "SELECT x FROM t WHERE x = 2 LIMIT 3",
        "SELECT x FROM t WHERE x = 2 LIMIT 4",
        "SELECT x FROM t WHERE x = 2.0 LIMIT 4",
        "SELECT x FROM t WHERE x = 1 AND y = 1 LIMIT 3",
        "SELECT x FROM t WHERE x = 1 AND y = 2 LIMIT 3",
        "SELECT x FROM t WHERE x = '2015-01-01' LIMIT 3",
        "SELECT x FROM t WHERE x = DATE '2015-01-01' LIMIT 3"]}
    texts = list(keys)
    assert keys[texts[0]] == keys[texts[1]]
    assert len({keys[text] for text in texts[1:]}) == len(texts) - 1


def test_values_and_types():
    key, values = literal_key(
        "SELECT 1, 1.0, '1', DATE '2015-01-02', TIME '10:00:00', 1 "
        "LIMIT 7")
    assert typed(values) == typed([1, 1.0, "1", dt.date(2015, 1, 2),
                                   dt.time(10, 0)])
    assert "7" in key


def test_malformed_literals_fall_back():
    assert literal_key("SELECT 1e+") is None
    assert literal_key("SELECT DATE '2015-13-01'") is None
    assert literal_key("SELECT 'oops") is None
    assert literal_key("SELECT @x") is None


# -- random texts -----------------------------------------------------------

NON_LITERALS = ["SELECT", "select", "LIMIT", "offset", "DATE", "time",
                "a", "t1", "Z9", "_x", "é", "e", "E", "x.y", '"q 1"',
                '"LIMIT"', '"a''"', "--c 1 'x'\n", "-- 2\n", " ", "  ",
                "\n", "\t", ",", "(", ")", "=", "<>", "-", "--", ".",
                "*", "||", ";", "@", "'", '"', "²", "٣"]
NUMBERS = ["1", "01", "2", "7", "1.0", "1.5", "1.5e3", "2E-2", ".5", "1.",
           "0.017453292519943295", "6371.0", "1e5"]
STRINGS = ["'a'", "'it''s'", "''", "'2015-01-01'", "'2016-02-29'",
           "'12:30:00'", "'x1'", "'--'", "'\"'"]


@st.composite
def statement_pairs(draw):
    """Two texts of one skeleton: the same non-literal pieces, and at
    each literal slot a number or a string drawn per text, equal slots
    filled equally (so the texts usually share a key)."""
    pieces = draw(st.lists(
        st.one_of(st.sampled_from(NON_LITERALS),
                  st.tuples(st.sampled_from(["n", "s"]),
                            st.integers(0, 3))),
        max_size=14))

    def fill():
        values = {("n", i): v for i, v in enumerate(draw(st.lists(
            st.sampled_from(NUMBERS), min_size=4, max_size=4,
            unique=True)))}
        values.update({("s", i): v for i, v in enumerate(draw(st.lists(
            st.sampled_from(STRINGS), min_size=4, max_size=4,
            unique=True)))})
        joiners = draw(st.lists(st.sampled_from(["", " "]),
                                min_size=len(pieces), max_size=len(pieces)))
        return "".join(
            (values[piece] if isinstance(piece, tuple) else piece) + joiner
            for piece, joiner in zip(pieces, joiners))

    return fill(), fill()


@settings(max_examples=400 * SCALE, deadline=None)
@given(statement_pairs())
def test_random_texts_match_literal_slots(pair):
    checked = [check_values(text) for text in pair]
    if None in checked:
        return
    (key_a, shape_a), (key_b, shape_b) = checked
    if key_a == key_b:
        assert shape_a == shape_b, pair


# -- the session ------------------------------------------------------------

@pytest.fixture
def db():
    db = repro.connect()
    db.register("t", Relation.from_columns(
        {"k": [1, 2, 3, 4], "v": [0.5, 1.5, 2.5, 3.5]}))
    return db


@pytest.fixture
def tokenize_calls(monkeypatch):
    calls = []

    def counted(text):
        calls.append(text)
        return tokenize(text)

    monkeypatch.setattr(database, "tokenize", counted)
    monkeypatch.setattr(parser, "tokenize", counted)
    return calls


def test_warm_statement_is_not_tokenized(db, tokenize_calls):
    # The shape is stored on its second sighting.
    db.execute("SELECT k, v * 2.0 AS w FROM t WHERE k >= 2 LIMIT 3")
    db.execute("SELECT k, v * 2.5 AS w FROM t WHERE k >= 1 LIMIT 3")
    assert tokenize_calls
    tokenize_calls.clear()
    out = db.execute("SELECT k, v * 3.0 AS w FROM t WHERE k >= 3 LIMIT 3")
    assert tokenize_calls == []
    assert out.to_rows() == [(3, 7.5), (4, 10.5)]


def test_spacing_variants_share_one_template(db, tokenize_calls):
    texts = ["SELECT k FROM t WHERE v > 1.0",
             "select  k FROM t\nWHERE v > 2.0 -- later",
             "SELECT k FROM t WHERE v > 3.0"]
    outs = [db.execute(text).to_rows() for text in texts]
    assert outs == [[(2,), (3,), (4,)], [(3,), (4,)], [(4,)]]
    assert len(db._templates) == 1
    assert len(db._template_keys) == 2
    # Three misses; the shape is parsed on its first two sightings and
    # stored on the second.
    assert len(tokenize_calls) == 3 + 2
    template = next(iter(db._templates.values()))
    assert all(t is template for t in db._template_keys.values())


def test_errors_are_unchanged(db):
    for text in ["SELECT k FROM t WHERE k = 1e+", "SELECT 'oops",
                 "SELECT k FROM t WHERE d = DATE '2015-13-01'"]:
        with pytest.raises(Exception) as cached:
            db.execute(text)
        with pytest.raises(Exception) as fresh:
            repro.connect(plan_cache=False).execute(text)
        assert type(cached.value) is type(fresh.value)
        assert str(cached.value) == str(fresh.value)
