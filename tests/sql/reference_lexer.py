"""The character-loop tokenizer the one-pass pattern lexer replaced.

Kept verbatim as the oracle for ``test_lexer_oracle.py``: the pattern
lexer must return the same tokens, or raise the same error, on any text.
"""

from __future__ import annotations

from repro.errors import SqlLexError
from repro.sql.lexer import KEYWORDS, Token, TokenType

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
