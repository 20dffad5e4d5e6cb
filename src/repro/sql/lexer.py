"""SQL tokenizer: one compiled pattern, one pass over the text."""

from __future__ import annotations

import enum
import re
from typing import NamedTuple

from ..errors import SqlLexError

KEYWORDS = frozenset(
    """
    SELECT FROM WHERE AND OR NOT AS JOIN LEFT INNER ON GROUP BY ORDER
    LIMIT OFFSET ASC DESC CREATE TABLE DROP INSERT INTO VALUES TRUE FALSE
    NULL PREDICT EXPLAIN DELETE DISTINCT BETWEEN IN IS LIKE UPDATE SET
    SHOW TABLES MODELS UNION ALL HAVING CASE WHEN THEN ELSE END
    """.split()
)

# Contextual ("soft") keywords: meaningful only in one position (directly
# after SHOW, or ANALYZE directly after EXPLAIN), and deliberately NOT in
# KEYWORDS so they stay usable as ordinary identifiers
# (``CREATE TABLE stats ...`` must keep parsing).  They lex as IDENT
# tokens; the parser special-cases them by value.
SOFT_KEYWORDS = frozenset({"METRICS", "STATS", "AUDIT", "ANALYZE"})

#: Every ``SHOW <target> [WHERE ...]`` target: the names of the system
#: relations a ``Database`` registers (a test keeps the two equal).
#: ``SHOW TIMELINE <trace_id>`` and ``SHOW WORKLOAD TOP k BY x |
#: '<fingerprint>'`` are sugar over ``sys.timeline``, ``sys.workload``
#: and ``sys.workload_detail`` too (see the parser's ``_parse_show``).
SHOW_TARGETS: tuple[str, ...] = (
    "tables", "models", "metrics", "stats", "server", "cluster", "audit",
    "faults", "health", "events", "timeline", "slo", "profile",
    "deployments", "workload", "workload_detail",
)


class TokenType(enum.Enum):
    KEYWORD = "keyword"
    IDENT = "ident"
    NUMBER = "number"
    STRING = "string"
    OPERATOR = "operator"
    PUNCT = "punct"
    EOF = "eof"


class Token(NamedTuple):
    type: TokenType
    value: str
    position: int

    def is_keyword(self, word: str) -> bool:
        return self.type is TokenType.KEYWORD and self.value == word.upper()


#: Shape lexemes standing in for literal tokens (see :func:`lex`).
INT, FLOAT, STR = "#int", "#float", "#str"

# The pattern works on ASCII: a text with other characters is scanned
# through _STAND_INS, which maps each character to one the pattern
# classifies as str.isspace / isdigit / isalpha / isalnum would (\x80
# stands for alphanumerics that are neither digits nor letters, \x00 for
# everything else), so positions and token boundaries carry over.  Each
# group number is a token kind; whitespace and -- comments lead every
# match, and the last two branches (an unexpected character, the end of
# the text) guarantee a match without backtracking into that prefix.
_SPACE = r"[\t-\r\x1c-\x1f ]"
_TOKEN = re.compile(
    rf"{_SPACE}*(?:--[^\n]*{_SPACE}*)*(?:"
    r"([0-9]+)(?![.eE0-9])"  # 1 integer
    r"|((?=\.?[0-9])[0-9]*(?:\.[0-9]*)?(?:[eE][+-]?[0-9]*)?)"  # 2 other number
    r"|([A-Za-z_][0-9A-Za-z_\x80]*)"  # 3 word
    r"|'([^']*(?:''[^']*)*)('?)"  # 4 string body, 5 its closing quote
    r'|"([^"]*)("?)'  # 6 quoted identifier, 7 its closing quote
    r"|(<=|>=|!=|<>|[=<>+\-*/%])"  # 8 operator
    r"|([(),.;])"  # 9 punctuation
    r"|(.)"  # 10 unexpected character
    r"|\Z)",
    re.DOTALL,
)


class _StandIns(dict):
    """``str.translate`` table: non-ASCII characters to ASCII stand-ins."""

    def __missing__(self, code: int) -> str:
        ch = chr(code)
        if ch.isspace():
            stand_in = " "
        elif ch.isdigit():
            stand_in = "0"
        elif ch.isalpha():
            stand_in = "a"
        elif ch.isalnum():
            stand_in = "\x80"
        else:
            stand_in = "\x00"
        if len(self) < 65536:
            self[code] = stand_in
        return stand_in


_STAND_INS = _StandIns({code: code for code in range(128)})
_new_token = tuple.__new__  # Token(...) without NamedTuple's argument parsing


def lex(text: str) -> tuple[list[Token], list[str], list[str]]:
    """``(tokens, shape, literals)`` of SQL text, in one pass.

    ``tokens`` is :func:`tokenize`'s result.  ``shape`` has one lexeme per
    token but the EOF: a keyword, identifier, operator or punctuation
    token's value (``'"'`` + name for a quoted identifier, so it cannot
    pass for another kind), and :data:`INT` / :data:`FLOAT` / :data:`STR`
    for a literal.  ``literals`` holds the literals in text order: a
    number's text, a string's unescaped value.
    """
    tokens: list[Token] = []
    shape: list[str] = []
    literals: list[str] = []
    add_token, add_lexeme, add_literal = tokens.append, shape.append, literals.append
    scan = text if text.isascii() else text.translate(_STAND_INS)
    for match in _TOKEN.finditer(scan):
        kind = match.lastindex
        if kind is None:
            add_token(_new_token(Token, (TokenType.EOF, "", len(text))))
            return tokens, shape, literals
        start, end = match.span(kind)
        if kind == 3:
            word = text[start:end]
            upper = word.upper()
            if upper in KEYWORDS:
                token = _new_token(Token, (TokenType.KEYWORD, upper, start))
                add_lexeme(upper)
            else:
                value = word.lower()
                token = _new_token(Token, (TokenType.IDENT, value, start))
                add_lexeme(value)
        elif kind == 9 or kind == 8:
            value = text[start:end]
            token = _new_token(
                Token,
                (TokenType.PUNCT if kind == 9 else TokenType.OPERATOR, value, start),
            )
            add_lexeme(value)
        elif kind <= 2:
            value = text[start:end]
            token = _new_token(Token, (TokenType.NUMBER, value, start))
            add_lexeme(INT if kind == 1 else FLOAT)
            add_literal(value)
        elif kind == 5:  # the closing quote is empty only at the end of the text
            opening = match.start(4) - 1
            if start == end:
                raise SqlLexError(f"unterminated string starting at {opening}")
            value = text[opening + 1 : start].replace("''", "'")
            token = _new_token(Token, (TokenType.STRING, value, opening))
            add_lexeme(STR)
            add_literal(value)
        elif kind == 7:
            opening = match.start(6) - 1
            if start == end:
                raise SqlLexError(f"unterminated quoted identifier at {opening}")
            value = text[opening + 1 : start].lower()
            token = _new_token(Token, (TokenType.IDENT, value, opening))
            add_lexeme('"' + value)
        else:
            raise SqlLexError(
                f"unexpected character {text[start]!r} at position {start}"
            )
        add_token(token)
    raise AssertionError("unreachable: the pattern always matches")


# A number run of a statement's fast key: an unsigned integer or decimal
# with no word character or dot on either side.  The first digit leads the
# pattern so that the scan skips to digits in C; the lookbehind after it
# then rejects a digit glued to a word or a dot.  Groups: the integer
# part, the decimal point (None for an integer), the fraction.
_RUN = re.compile(
    r"([0-9](?<![0-9A-Za-z_.][0-9])[0-9]*)(?:(\.)([0-9]+))?(?![0-9A-Za-z_.])"
)


def fast_key(text: str) -> tuple[tuple, list[str]] | None:
    """``(key, literals)`` of a text whose shape may be found without
    :func:`lex`, or None for a text that must be lexed.

    Only an ASCII text with no quote and no ``--`` has a fast key: there,
    every literal is a number.  The key is the text around the number runs
    plus each run's class (integer or decimal); ``literals`` are the runs'
    texts.  A key stands for a shape only once :func:`fast_key_agrees` has
    held on a text with that key: then every text with the key lexes to
    the same lexemes, with its runs as its NUMBER tokens.
    """
    if not text.isascii() or "'" in text or '"' in text or "--" in text:
        return None
    parts = _RUN.split(text)
    points = parts[2::4]
    literals = parts[1::4]
    if "." in points:
        literals = [
            whole if point is None else f"{whole}.{fraction}"
            for whole, point, fraction in zip(literals, points, parts[3::4])
        ]
    return (tuple(parts[0::4]), tuple(points)), literals


def fast_key_agrees(text: str, tokens: list[Token]) -> bool:
    """Whether :func:`fast_key`'s number runs of ``text`` are exactly the
    spans of its NUMBER ``tokens`` (:func:`lex`'s)."""
    numbers = [
        (t.position, t.position + len(t.value))
        for t in tokens
        if t.type is TokenType.NUMBER
    ]
    return numbers == [m.span() for m in _RUN.finditer(text)]


def tokenize(text: str) -> list[Token]:
    """Tokenize SQL text; raises :class:`SqlLexError` on bad input."""
    return lex(text)[0]
