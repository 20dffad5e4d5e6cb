"""Statement templates: rebuild a parsed statement with new literal values.

The statement cache (:class:`repro.sql.parser.StatementCache`) parses a
query shape once and keeps the result as a template.  :func:`builder`
turns the template into a function from literal values to a fresh
statement: every node on a path from the root to a slot literal, and
every mutable node (statements, select items, lists), is rebuilt; every
immutable subtree without a slot (expressions, tuples, strings) is
shared.  So a caller may mutate the statement it gets without touching
the template or any other caller's statement.
"""

from __future__ import annotations

import dataclasses
from typing import Callable, Sequence

from ..relational.expressions import Expression, Literal

Build = Callable[[Sequence[object]], object]


def builder(node: object, slots: dict[int, int]) -> Build:
    """``build(values)``: a copy of ``node`` in which each :class:`Literal`
    whose ``id`` maps to ``i`` in ``slots`` holds ``values[i]``."""
    build = _compile(node, slots)
    return build if build is not None else (lambda values: node)


def _compile(node: object, slots: dict[int, int]) -> Build | None:
    """A builder for ``node``, or None when ``node`` can be shared."""
    if isinstance(node, Literal):
        index = slots.get(id(node))
        if index is None:
            return None
        return lambda values: Literal(values[index])
    if isinstance(node, list):
        parts, finish = list(node), None
    elif isinstance(node, tuple):
        parts, finish = list(node), tuple
    elif dataclasses.is_dataclass(node):
        parts = [getattr(node, f.name) for f in dataclasses.fields(node)]
        make = type(node)
        finish = lambda args: make(*args)  # noqa: E731
    else:
        return None  # str, number, bool, None, enum: immutable
    children = [(i, b) for i, part in enumerate(parts) if (b := _compile(part, slots))]
    if not children and isinstance(node, (tuple, Expression)):
        return None

    def build(values):
        out = parts.copy()
        for i, child in children:
            out[i] = child(values)
        return out if finish is None else finish(out)

    return build
