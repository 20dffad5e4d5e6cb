"""The one-pass lexer against the character-loop tokenizer it replaced.

On any text both must return the same token list, or raise the same
exception type with the same message.  ``reference_lexer.py`` holds the
old tokenizer verbatim.
"""

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sql.lexer import FLOAT, INT, STR, TokenType, lex, tokenize

from .reference_lexer import tokenize as reference_tokenize


def outcome(fn, text):
    try:
        return fn(text)
    except Exception as exc:  # the comparison covers the error path too
        return type(exc), str(exc)


def assert_same(text):
    assert outcome(tokenize, text) == outcome(reference_tokenize, text), repr(text)


# Characters whose Unicode class matters to a lexer: non-ASCII spaces,
# letters (one upper-cases to a keyword letter, one to two letters),
# decimal and non-decimal digits, numerics that are neither, a combining
# mark, C0/C1 controls and ASCII strays.
TRICKY = [
    "\t", "\x0b", "\x1c", "\x1f", "\xa0", "\x85", " ", "　",
    "é", "ß", "ſ", "İ", "Ω", "五", "ｅ",
    "٣", "𝟙", "²", "①", "½", "Ⅻ", "̇",
    "\x00", "\x80", "@", "#", "!", "?", "[", "$", "\\", "`", "~", "^",
]

fragments = st.one_of(
    st.sampled_from(
        [
            "SELECT", "select", "FROM", "WHERE", "LIKE", "LIMIT", "x", "_a1",
            "f0", "predict", " ", "  ", "\n", "\t", "-- note\n", "--", "-",
            "1", "42", "1e", "1E+", "1e-3", ".5", "1.", "1.2.3", "..", "0x1",
            "'", "''", "'a''b'", "'it''s'", '"', '"Q Ident"', '""',
            "<=", ">=", "!=", "<>", "=", "<", ">", "+", "*", "/", "%",
            "(", ")", ",", ".", ";",
        ]
    ),
    st.sampled_from(TRICKY),
    st.text(max_size=3),
)


@settings(max_examples=400, deadline=None)
@given(st.lists(fragments, max_size=24).map("".join))
def test_same_tokens_or_error_on_sql_like_text(text):
    assert_same(text)


@settings(max_examples=200, deadline=None)
@given(st.text(max_size=40))
def test_same_tokens_or_error_on_any_text(text):
    assert_same(text)


@pytest.mark.parametrize("ch", TRICKY)
def test_same_tokens_around_each_tricky_character(ch):
    for text in (ch, "a" + ch, ch + "a", "1" + ch, ch + "1", "." + ch,
                 "1e" + ch, "'x" + ch + "'", '"x' + ch + '"', "-- " + ch + "\nx"):
        assert_same(text)


def test_shape_lexemes_and_literals():
    tokens, shape, literals = lex(
        "select Id, \"Q\" FROM t WHERE a = 1 AND b < 2.5e3 AND c LIKE 'x''y'"
    )
    assert tokens[-1].type is TokenType.EOF
    assert shape == [
        "SELECT", "id", ",", '"q', "FROM", "t", "WHERE", "a", "=", INT,
        "AND", "b", "<", FLOAT, "AND", "c", "LIKE", STR,
    ]
    assert literals == ["1", "2.5e3", "x'y"]
