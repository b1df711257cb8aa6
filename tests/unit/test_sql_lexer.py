"""Unit tests for the SQL tokenizer."""

import pytest

from repro.dbms.sql.lexer import Token, tokenize
from repro.errors import SQLSyntaxError


def kinds(sql):
    return [token.kind for token in tokenize(sql)]


def values(sql):
    return [token.value for token in tokenize(sql)[:-1]]  # strip EOF


class TestBasics:
    def test_keywords_uppercased(self):
        assert values("select from") == ["SELECT", "FROM"]

    def test_identifiers_keep_spelling_in_text(self):
        token = tokenize("PosID")[0]
        assert token.kind == "IDENT"
        assert token.value == "POSID"
        assert token.text == "PosID"

    def test_numbers(self):
        tokens = tokenize("42 3.14")
        assert tokens[0].kind == "NUMBER" and tokens[0].value == "42"
        assert tokens[1].value == "3.14"

    @pytest.mark.parametrize("text", ["1e-05", "1e+16", "2.5E3", "7e2"])
    def test_exponent_numerals_are_one_number(self, text):
        assert values(text) == [text] and kinds(text) == ["NUMBER", "EOF"]

    def test_an_e_without_digits_is_not_an_exponent(self):
        assert values("5EMP 2e") == ["5", "EMP", "2", "E"]

    def test_exponent_numerals_parse_as_floats(self):
        from repro.dbms.sql.parser import parse_statement

        items = parse_statement("SELECT 1e-05, 7e2, 42 FROM T").items
        assert [item.expression.value for item in items] == [0.00001, 700.0, 42]

    def test_a_width_or_limit_must_be_a_whole_number(self):
        from repro.dbms.sql.parser import parse_statement

        with pytest.raises(SQLSyntaxError, match="whole number"):
            parse_statement("CREATE TABLE T (A VARCHAR(1e3))")
        with pytest.raises(SQLSyntaxError, match="whole number"):
            parse_statement("SELECT A FROM T LIMIT 2.5")

    def test_strings_unescape_quotes(self):
        token = tokenize("'O''Brien'")[0]
        assert token.kind == "STRING"
        assert token.value == "O'Brien"

    def test_operators(self):
        assert values("<= >= <> != = < > + - * / ( ) , .") == [
            "<=", ">=", "<>", "!=", "=", "<", ">", "+", "-", "*", "/", "(", ")", ",", ".",
        ]

    def test_eof_token_present(self):
        assert tokenize("")[-1].kind == "EOF"


class TestHintsAndComments:
    def test_hint_extracted(self):
        tokens = tokenize("SELECT /*+ USE_NL */ *")
        assert tokens[1].kind == "HINT"
        assert tokens[1].value == "USE_NL"

    def test_line_comment_skipped(self):
        assert values("SELECT -- a comment\n 1") == ["SELECT", "1"]


class TestErrors:
    def test_bad_character(self):
        with pytest.raises(SQLSyntaxError):
            tokenize("SELECT @")

    def test_error_carries_position(self):
        try:
            tokenize("SELECT ~")
        except SQLSyntaxError as error:
            assert error.position == 7
        else:  # pragma: no cover
            pytest.fail("expected SQLSyntaxError")


class TestWhitespaceHandling:
    def test_newlines_and_tabs(self):
        assert values("SELECT\n\t1") == ["SELECT", "1"]

    def test_positions_recorded(self):
        tokens = tokenize("SELECT X")
        assert tokens[0].position == 0
        assert tokens[1].position == 7
