"""Tokenizer tests, and the regex lexer against a frozen copy of the
character-at-a-time lexer it replaced: the same tokens, positions and
error texts."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import SqlSyntaxError
from repro.sql.lexer import KEYWORDS, SYMBOLS, tokenize

SCALE = 10 if settings.get_current_profile_name() == "ci" else 1


def kinds(sql):
    return [(t.kind, t.value) for t in tokenize(sql)[:-1]]


class TestBasics:
    def test_keywords_uppercased(self):
        assert kinds("select from") == [("KEYWORD", "SELECT"),
                                        ("KEYWORD", "FROM")]

    def test_identifiers_keep_case(self):
        assert kinds("Trips") == [("IDENT", "Trips")]

    def test_numbers(self):
        assert kinds("1 2.5 1e3 2.5E-2") == [
            ("NUMBER", "1"), ("NUMBER", "2.5"), ("NUMBER", "1e3"),
            ("NUMBER", "2.5E-2")]

    def test_leading_dot_number(self):
        assert kinds(".5") == [("NUMBER", ".5")]

    def test_strings(self):
        assert kinds("'hello'") == [("STRING", "hello")]

    def test_string_escape(self):
        assert kinds("'it''s'") == [("STRING", "it's")]

    def test_quoted_identifier(self):
        assert kinds('"Group"') == [("IDENT", "Group")]

    def test_symbols(self):
        assert [v for _, v in kinds("<= >= <> != = ( ) , . ;")] == [
            "<=", ">=", "<>", "!=", "=", "(", ")", ",", ".", ";"]

    def test_comment_skipped(self):
        assert kinds("1 -- comment\n2") == [("NUMBER", "1"),
                                            ("NUMBER", "2")]

    def test_eof_token(self):
        assert tokenize("x")[-1].kind == "EOF"


class TestPositions:
    def test_line_and_column(self):
        tokens = tokenize("SELECT\n  x")
        assert tokens[0].line == 1
        assert tokens[1].line == 2
        assert tokens[1].column == 3


class TestErrors:
    def test_unterminated_string(self):
        with pytest.raises(SqlSyntaxError):
            tokenize("'oops")

    def test_unterminated_quoted_identifier(self):
        with pytest.raises(SqlSyntaxError):
            tokenize('"oops')

    def test_bad_character(self):
        with pytest.raises(SqlSyntaxError):
            tokenize("SELECT @x")

    def test_error_carries_position(self):
        try:
            tokenize("SELECT\n @")
        except SqlSyntaxError as exc:
            assert exc.line == 2
        else:  # pragma: no cover
            pytest.fail("expected SqlSyntaxError")


# -- the frozen reference ---------------------------------------------------------

def frozen_tokenize(text: str) -> list[tuple]:
    """The character-at-a-time lexer the regex lexer replaced, as it was:
    (kind, value, line, column) per token."""
    tokens: list[tuple] = []
    i, line, col = 0, 1, 1
    n = len(text)

    def advance(k: int) -> None:
        nonlocal i, line, col
        for _ in range(k):
            if i < n and text[i] == "\n":
                line += 1
                col = 1
            else:
                col += 1
            i += 1

    while i < n:
        ch = text[i]
        if ch in " \t\r\n":
            advance(1)
            continue
        if text.startswith("--", i):
            while i < n and text[i] != "\n":
                advance(1)
            continue
        start_line, start_col = line, col
        if ch.isdigit() or (ch == "." and i + 1 < n and text[i + 1].isdigit()):
            j = i
            seen_dot = seen_exp = False
            while j < n:
                c = text[j]
                if c.isdigit():
                    j += 1
                elif c == "." and not seen_dot and not seen_exp:
                    seen_dot = True
                    j += 1
                elif c in "eE" and not seen_exp and j > i:
                    if j + 1 < n and (text[j + 1].isdigit()
                                      or text[j + 1] in "+-"):
                        seen_exp = True
                        j += 2 if text[j + 1] in "+-" else 1
                    else:
                        break
                else:
                    break
            tokens.append(("NUMBER", text[i:j], start_line, start_col))
            advance(j - i)
            continue
        if ch == "'":
            j = i + 1
            parts = []
            while True:
                if j >= n:
                    raise SqlSyntaxError("unterminated string literal",
                                         start_line, start_col)
                if text[j] == "'":
                    if j + 1 < n and text[j + 1] == "'":
                        parts.append("'")
                        j += 2
                        continue
                    break
                parts.append(text[j])
                j += 1
            tokens.append(("STRING", "".join(parts),
                                start_line, start_col))
            advance(j + 1 - i)
            continue
        if ch == '"':
            j = text.find('"', i + 1)
            if j < 0:
                raise SqlSyntaxError("unterminated quoted identifier",
                                     start_line, start_col)
            tokens.append(("IDENT", text[i + 1:j],
                                start_line, start_col))
            advance(j + 1 - i)
            continue
        if ch.isalpha() or ch == "_":
            j = i
            while j < n and (text[j].isalnum() or text[j] == "_"):
                j += 1
            word = text[i:j]
            upper = word.upper()
            if upper in KEYWORDS:
                tokens.append(("KEYWORD", upper, start_line, start_col))
            else:
                tokens.append(("IDENT", word, start_line, start_col))
            advance(j - i)
            continue
        matched = False
        for sym in SYMBOLS:
            if text.startswith(sym, i):
                tokens.append(("SYMBOL", sym, start_line, start_col))
                advance(len(sym))
                matched = True
                break
        if not matched:
            raise SqlSyntaxError(f"unexpected character {ch!r}",
                                 start_line, start_col)
    tokens.append(("EOF", "", line, col))
    return tokens


def lexed(lexer, text):
    """Tokens as (kind, value, line, column), or the error's text and
    position."""
    try:
        return [(t[0], t[1], t[2], t[3]) if lexer is frozen_tokenize
                else (t.kind, t.value, t.line, t.column)
                for t in lexer(text)]
    except SqlSyntaxError as exc:
        return ("error", str(exc), exc.line, exc.column)


CORPUS = [
    "SELECT t.trip_id AS trip_id, 1.0 AS const, 6371.0 * SQRT(((e.longitude"
    " - s.longitude) * 0.017453292519943295)) AS distance FROM trips AS t "
    "JOIN (SELECT start_station AS fs FROM trips WHERE start_date BETWEEN "
    "DATE '2015-01-01' AND DATE '2016-12-31' GROUP BY start_station HAVING "
    "COUNT(*) >= 40) AS p ON t.start_station = p.fs",
    "SELECT * FROM MMU(INV(CPD(a BY id, a BY id) BY C) BY C, CPD(a BY id, "
    "a BY id) BY C)",
    "select distinct x, y from t where x <> 1 and y != 2 or z <= 3.5e-2 "
    "order by x desc limit 10 offset 5;",
    "INSERT INTO c VALUES (1, 2, -0.25), (3, 4, 1e3)",
    'CREATE TABLE t (a INT, b VARCHAR(32), "Group" DATE)',
    "SELECT 'it''s', '', '''', \"quoted id\", x || 'y' FROM t -- trailing",
    "SELECT\r\n\ta\n  -- comment line\n, .5, 1., 1.e5, 1e+, 1e, 1.2.3 FROM t",
    "SELECT café, _x1, Ünïcödé FROM ſelect",
    "EXPLAIN SELECT CASE WHEN x % 2 = 0 THEN 'even' ELSE 'odd' END FROM t",
    "SELECT x FROM t WHERE s LIKE 'a%' AND d NOT IN (1, 2) AND v IS NOT NULL",
    "",
    "   \n  ",
    "-- only a comment",
    "SELECT 'unterminated",
    'SELECT "unterminated',
    "SELECT 'a''",
    "SELECT a\n  FROM t WHERE x = @y",
    "SELECT a FROM t WHERE x = 1\x0c",
    "SELECT $1",
    "SELECT a\n\n   # b",
]


@pytest.mark.parametrize("text", CORPUS)
def test_corpus_matches_frozen_lexer(text):
    assert lexed(tokenize, text) == lexed(frozen_tokenize, text)


PIECES = (sorted(KEYWORDS)[:6] + list(SYMBOLS)
          + ["a", "Z9", "_", "é", "1", "0.5", ".", "e", "E", "'", "''",
             '"', "--", " ", "\t", "\n", "\r", "@", "$", "\x0c",
             # Numeric but not letters (no identifier starts with them),
             # and a decimal digit outside ASCII.
             "\u00bd", "\u216b", "\u0663"])


@settings(max_examples=300 * SCALE, deadline=None)
@given(st.lists(st.sampled_from(PIECES), max_size=16).map("".join))
def test_random_text_matches_frozen_lexer(text):
    assert lexed(tokenize, text) == lexed(frozen_tokenize, text)


@pytest.mark.parametrize("text", ["SELECT \u00b2", "SELECT 1\u00b2 FROM t"])
def test_non_decimal_digits_are_unexpected_characters(text):
    # The frozen lexer read superscript digits as a NUMBER (str.isdigit)
    # that the parser then failed to convert with a ValueError.
    assert lexed(tokenize, text)[:2] == (
        "error", "unexpected character '\u00b2' (at line 1, column "
        f"{text.index(chr(0xb2)) + 1})")
