"""SQL tokenizer."""

from __future__ import annotations

import enum
from dataclasses import dataclass

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
#: Besides these, only ``SHOW TIMELINE <trace_id>`` and ``SHOW WORKLOAD
#: TOP k BY x | '<fingerprint>'`` parse after SHOW.
SHOW_TARGETS: tuple[str, ...] = (
    "tables", "models", "metrics", "stats", "server", "cluster", "audit",
    "faults", "health", "events", "slo", "profile", "deployments",
    "workload",
)


class TokenType(enum.Enum):
    KEYWORD = "keyword"
    IDENT = "ident"
    NUMBER = "number"
    STRING = "string"
    OPERATOR = "operator"
    PUNCT = "punct"
    EOF = "eof"


@dataclass(frozen=True)
class Token:
    type: TokenType
    value: str
    position: int

    def is_keyword(self, word: str) -> bool:
        return self.type is TokenType.KEYWORD and self.value == word.upper()


_OPERATORS = ("<=", ">=", "!=", "<>", "=", "<", ">", "+", "-", "*", "/", "%")
_PUNCT = "(),.;"


def tokenize(text: str) -> list[Token]:
    """Tokenize SQL text; raises :class:`SqlLexError` on bad input."""
    tokens: list[Token] = []
    i = 0
    n = len(text)
    while i < n:
        ch = text[i]
        if ch.isspace():
            i += 1
            continue
        if ch == "-" and i + 1 < n and text[i + 1] == "-":  # line comment
            while i < n and text[i] != "\n":
                i += 1
            continue
        if ch.isdigit() or (ch == "." and i + 1 < n and text[i + 1].isdigit()):
            start = i
            seen_dot = False
            seen_exp = False
            while i < n:
                c = text[i]
                if c.isdigit():
                    i += 1
                elif c == "." and not seen_dot and not seen_exp:
                    seen_dot = True
                    i += 1
                elif c in "eE" and not seen_exp and i > start:
                    seen_exp = True
                    i += 1
                    if i < n and text[i] in "+-":
                        i += 1
                else:
                    break
            tokens.append(Token(TokenType.NUMBER, text[start:i], start))
            continue
        if ch.isalpha() or ch == "_":
            start = i
            while i < n and (text[i].isalnum() or text[i] == "_"):
                i += 1
            word = text[start:i]
            if word.upper() in KEYWORDS:
                tokens.append(Token(TokenType.KEYWORD, word.upper(), start))
            else:
                tokens.append(Token(TokenType.IDENT, word.lower(), start))
            continue
        if ch == "'":
            start = i
            i += 1
            chunks: list[str] = []
            while i < n:
                if text[i] == "'":
                    if i + 1 < n and text[i + 1] == "'":  # escaped quote
                        chunks.append("'")
                        i += 2
                        continue
                    break
                chunks.append(text[i])
                i += 1
            if i >= n:
                raise SqlLexError(f"unterminated string starting at {start}")
            i += 1  # closing quote
            tokens.append(Token(TokenType.STRING, "".join(chunks), start))
            continue
        if ch == '"':  # quoted identifier
            start = i
            i += 1
            end = text.find('"', i)
            if end < 0:
                raise SqlLexError(f"unterminated quoted identifier at {start}")
            tokens.append(Token(TokenType.IDENT, text[i:end].lower(), start))
            i = end + 1
            continue
        matched = False
        for op in _OPERATORS:
            if text.startswith(op, i):
                tokens.append(Token(TokenType.OPERATOR, op, i))
                i += len(op)
                matched = True
                break
        if matched:
            continue
        if ch in _PUNCT:
            tokens.append(Token(TokenType.PUNCT, ch, i))
            i += 1
            continue
        raise SqlLexError(f"unexpected character {ch!r} at position {i}")
    tokens.append(Token(TokenType.EOF, "", n))
    return tokens
