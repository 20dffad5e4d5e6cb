"""Recursive-descent SQL parser behind a statement-shape cache."""

from __future__ import annotations

import hashlib
import threading
from collections import OrderedDict

from ..errors import SchemaError, SqlParseError
from ..relational.expressions import (
    BinaryOp,
    CaseWhen,
    ColumnRef,
    Comparison,
    Expression,
    FunctionCall,
    IsNull,
    Like,
    Literal,
    LogicalOp,
    UnaryOp,
)
from ..relational.operators.aggregate import aggregate_function_names
from ..relational.schema import ColumnType
from ..telemetry.events import TimelineRow
from .ast import (
    AggregateCall,
    CreateTable,
    CreateTableAs,
    Delete,
    DeployModel,
    DropTable,
    Explain,
    Insert,
    InsertSelect,
    Join,
    PredictCall,
    RollbackModel,
    Select,
    SelectItem,
    Star,
    Statement,
    TableRef,
    UnionAll,
    Update,
)
from .lexer import SHOW_TARGETS, Token, TokenType, fast_key, fast_key_agrees, lex
from .template import builder
from .unparse import unparse

_AGGREGATES = aggregate_function_names()

#: ``SHOW WORKLOAD TOP k BY <target>``: the ``sys.workload`` column each
#: target sorts on, descending and then by fingerprint.  ``latency`` keeps
#: the relation's own order (total latency, then fingerprint).
ORDER_TARGETS: dict[str, str | None] = {
    "latency": None, "count": "calls", "bytes": "bytes",
}


def parse(text: str) -> Statement:
    """Parse one SQL statement.

    A statement whose shape was parsed before is rebuilt from
    :data:`STATEMENTS` with its own literal values instead of being
    parsed again; the result is the same either way.
    """
    return STATEMENTS.parse(text)[0]


class _Parser:
    def __init__(self, tokens: list[Token]):
        self._tokens = tokens
        self._pos = 0
        #: ``(token position, node)`` of every Literal made from a NUMBER
        #: or STRING token: the slots of the statement cache's template.
        self.slots: list[tuple[int, Literal]] = []

    # -- token plumbing ------------------------------------------------

    def _peek(self) -> Token:
        return self._tokens[self._pos]

    def _advance(self) -> Token:
        token = self._tokens[self._pos]
        if token.type is not TokenType.EOF:
            self._pos += 1
        return token

    def _accept_keyword(self, word: str) -> bool:
        if self._peek().is_keyword(word):
            self._advance()
            return True
        return False

    def _expect_keyword(self, word: str) -> None:
        if not self._accept_keyword(word):
            raise SqlParseError(
                f"expected {word} but found {self._peek().value!r} at "
                f"position {self._peek().position}"
            )

    def _accept_punct(self, ch: str) -> bool:
        token = self._peek()
        if token.type is TokenType.PUNCT and token.value == ch:
            self._advance()
            return True
        return False

    def _expect_punct(self, ch: str) -> None:
        if not self._accept_punct(ch):
            raise SqlParseError(
                f"expected {ch!r} but found {self._peek().value!r} at "
                f"position {self._peek().position}"
            )

    def _expect_ident(self) -> str:
        token = self._peek()
        if token.type is not TokenType.IDENT:
            raise SqlParseError(
                f"expected identifier but found {token.value!r} at position "
                f"{token.position}"
            )
        self._advance()
        return token.value

    # -- statements ------------------------------------------------------

    def parse_statement(self) -> Statement:
        token = self._peek()
        if token.is_keyword("SELECT"):
            stmt: Statement = self._parse_select_or_union()
        elif token.is_keyword("EXPLAIN"):
            self._advance()
            analyze = self._accept_word("analyze")
            stmt = Explain(self._parse_select(), analyze)
        elif token.is_keyword("CREATE"):
            stmt = self._parse_create()
        elif token.is_keyword("DROP"):
            stmt = self._parse_drop()
        elif token.is_keyword("INSERT"):
            stmt = self._parse_insert()
        elif token.is_keyword("DELETE"):
            stmt = self._parse_delete()
        elif token.is_keyword("UPDATE"):
            stmt = self._parse_update()
        elif token.is_keyword("SHOW"):
            self._advance()
            stmt = self._parse_show()
        elif token.type is TokenType.IDENT and token.value == "deploy":
            stmt = self._parse_deploy()
        elif token.type is TokenType.IDENT and token.value == "rollback":
            stmt = self._parse_rollback()
        else:
            raise SqlParseError(
                f"cannot parse statement starting with {token.value!r}"
            )
        self._accept_punct(";")
        if self._peek().type is not TokenType.EOF:
            raise SqlParseError(
                f"unexpected trailing input at position {self._peek().position}"
            )
        return stmt

    # DEPLOY / ROLLBACK / MODEL / VERSION / CANARY / SHADOW are not
    # reserved words (existing queries may use them as identifiers), so
    # these productions match plain identifier tokens by value.

    def _accept_word(self, word: str) -> bool:
        token = self._peek()
        if token.type is TokenType.IDENT and token.value == word:
            self._advance()
            return True
        return False

    def _expect_word(self, word: str) -> None:
        token = self._peek()
        if not self._accept_word(word):
            raise SqlParseError(
                f"expected {word.upper()} but found {token.value!r} at "
                f"position {token.position}"
            )

    def _parse_deploy(self) -> DeployModel:
        self._expect_word("deploy")
        self._expect_word("model")
        model = self._expect_ident()
        self._expect_word("version")
        token = self._peek()
        if token.type not in (TokenType.IDENT, TokenType.NUMBER):
            raise SqlParseError(
                f"expected a version name after VERSION, found "
                f"{token.value!r} at position {token.position}"
            )
        self._advance()
        version = token.value
        canary_percent: float | None = None
        if self._accept_word("canary"):
            number = self._peek()
            if number.type is not TokenType.NUMBER:
                raise SqlParseError(
                    "expected a percentage after CANARY, found "
                    f"{number.value!r} at position {number.position}"
                )
            self._advance()
            canary_percent = float(_parse_number(number.value))
            pct = self._peek()
            if pct.type is TokenType.OPERATOR and pct.value == "%":
                self._advance()
            if not 0 < canary_percent <= 100:
                raise SqlParseError(
                    f"CANARY percentage must be in (0, 100], "
                    f"got {canary_percent:g}"
                )
        shadow = self._accept_word("shadow")
        return DeployModel(model, version, canary_percent, shadow)

    def _parse_rollback(self) -> RollbackModel:
        self._expect_word("rollback")
        self._expect_word("model")
        return RollbackModel(self._expect_ident())

    def _parse_delete(self) -> Delete:
        self._expect_keyword("DELETE")
        self._expect_keyword("FROM")
        table = self._expect_ident()
        where = None
        if self._accept_keyword("WHERE"):
            where = self._parse_expression()
        return Delete(table, where)

    def _parse_select_or_union(self) -> Statement:
        first = self._parse_select()
        queries = [first]
        while self._peek().is_keyword("UNION"):
            self._advance()
            self._expect_keyword("ALL")
            queries.append(self._parse_select())
        if len(queries) == 1:
            return first
        return UnionAll(queries)

    def _parse_update(self) -> Update:
        self._expect_keyword("UPDATE")
        table = self._expect_ident()
        self._expect_keyword("SET")
        assignments: list[tuple[str, Expression]] = []
        while True:
            column = self._expect_ident()
            token = self._peek()
            if token.type is not TokenType.OPERATOR or token.value != "=":
                raise SqlParseError(f"expected '=' after column {column!r}")
            self._advance()
            assignments.append((column, self._parse_expression()))
            if not self._accept_punct(","):
                break
        where = None
        if self._accept_keyword("WHERE"):
            where = self._parse_expression()
        return Update(table, assignments, where)

    def _parse_create(self) -> Statement:
        self._expect_keyword("CREATE")
        self._expect_keyword("TABLE")
        name = self._expect_ident()
        if self._accept_keyword("AS"):
            return CreateTableAs(name, self._parse_select())
        self._expect_punct("(")
        columns: list[tuple[str, ColumnType]] = []
        while True:
            col_name = self._expect_ident()
            type_token = self._advance()
            if type_token.type not in (TokenType.IDENT, TokenType.KEYWORD):
                raise SqlParseError(f"expected a type after column {col_name!r}")
            try:
                ctype = ColumnType.parse(type_token.value)
            except SchemaError as exc:
                # An unknown type name is a grammar-level mistake: keep the
                # SQL front end's contract of raising only SqlError types.
                raise SqlParseError(str(exc)) from exc
            columns.append((col_name, ctype))
            if not self._accept_punct(","):
                break
        self._expect_punct(")")
        return CreateTable(name, columns)

    def _parse_drop(self) -> DropTable:
        self._expect_keyword("DROP")
        self._expect_keyword("TABLE")
        return DropTable(self._expect_ident())

    def _parse_insert(self) -> Statement:
        self._expect_keyword("INSERT")
        self._expect_keyword("INTO")
        table = self._expect_ident()
        if self._peek().is_keyword("SELECT"):
            return InsertSelect(table, self._parse_select())
        self._expect_keyword("VALUES")
        rows: list[list[object]] = []
        while True:
            self._expect_punct("(")
            row: list[object] = []
            while True:
                row.append(self._parse_literal_value())
                if not self._accept_punct(","):
                    break
            self._expect_punct(")")
            rows.append(row)
            if not self._accept_punct(","):
                break
        return Insert(table, rows)

    def _parse_show(self) -> Select:
        """``SHOW <target> [WHERE <expr>]``, ``SHOW TIMELINE <trace_id>``,
        or ``SHOW WORKLOAD TOP k BY latency|count|bytes | '<fingerprint>'``.

        Every form is sugar for a SELECT over a system relation.  ``SHOW
        <target> [WHERE e]`` is exactly ``SELECT * FROM sys.<target>
        [WHERE e]``; the other three are::

            SELECT at_ms, source, what, detail FROM sys.timeline
              WHERE trace_id = <trace_id>
            SELECT * FROM sys.workload [ORDER BY <column> DESC, fingerprint]
              LIMIT k
            SELECT stat, value FROM sys.workload_detail
              WHERE fingerprint = '<fingerprint>'

        The trace id and the fingerprint are slots of the statement
        cache, like any WHERE literal.  Targets other than TABLES / MODELS
        are soft keywords, and so is TOP: they lex as identifiers and keep
        working as names elsewhere.
        """
        token = self._advance()
        what = (
            token.value.lower()
            if token.type in (TokenType.IDENT, TokenType.KEYWORD)
            else ""
        )
        argument = self._peek()
        if what == "timeline" and argument.type is TokenType.NUMBER:
            trace = self._slot(self._parse_int("SHOW TIMELINE"), argument)
            return _show_select("timeline", TimelineRow._fields[1:], "trace_id", trace)
        if what == "workload" and argument.type is TokenType.STRING:
            fp = self._slot(self._advance().value, argument)
            return _show_select(
                "workload_detail", ("stat", "value"), "fingerprint", fp
            )
        if what == "workload" and self._accept_word("top"):
            return self._parse_workload_top()
        if what not in SHOW_TARGETS:
            raise SqlParseError(
                "expected one of "
                + ", ".join(target.upper() for target in SHOW_TARGETS)
                + " after SHOW"
            )
        where = self._parse_expression() if self._accept_keyword("WHERE") else None
        return Select([SelectItem(Star())], TableRef(f"sys.{what}"), where=where)

    def _parse_workload_top(self) -> Select:
        """The ``k BY latency|count|bytes`` after ``SHOW WORKLOAD TOP``."""
        top = self._parse_int("SHOW WORKLOAD TOP")
        if top < 1:
            raise SqlParseError("SHOW WORKLOAD TOP count must be >= 1")
        self._expect_keyword("BY")
        target = self._advance()
        if target.type is not TokenType.IDENT or target.value not in ORDER_TARGETS:
            raise SqlParseError(
                f"expected one of {', '.join(ORDER_TARGETS)} after "
                "SHOW WORKLOAD TOP k BY"
            )
        column = ORDER_TARGETS[target.value]
        order_by = (
            [(ColumnRef(column), True), (ColumnRef("fingerprint"), False)]
            if column is not None
            else []
        )
        return Select(
            [SelectItem(Star())], TableRef("sys.workload"), order_by=order_by, limit=top
        )

    def _parse_literal_value(self) -> object:
        token = self._peek()
        if token.type is TokenType.NUMBER:
            self._advance()
            return _parse_number(token.value)
        if token.type is TokenType.STRING:
            self._advance()
            return token.value
        if token.is_keyword("TRUE"):
            self._advance()
            return True
        if token.is_keyword("FALSE"):
            self._advance()
            return False
        if token.is_keyword("NULL"):
            self._advance()
            return None
        if token.type is TokenType.OPERATOR and token.value == "-":
            self._advance()
            number = self._peek()
            if number.type is not TokenType.NUMBER:
                raise SqlParseError("expected a number after unary minus")
            self._advance()
            value = _parse_number(number.value)
            return -value
        raise SqlParseError(
            f"expected a literal value at position {token.position}, "
            f"found {token.value!r}"
        )

    # -- SELECT -----------------------------------------------------------

    def _parse_select(self) -> Select:
        self._expect_keyword("SELECT")
        distinct = self._accept_keyword("DISTINCT")
        items = [self._parse_select_item()]
        while self._accept_punct(","):
            items.append(self._parse_select_item())
        self._expect_keyword("FROM")
        table = self._parse_table_ref()
        joins: list[Join] = []
        while True:
            kind = "inner"
            if self._accept_keyword("LEFT"):
                kind = "left"
                self._expect_keyword("JOIN")
            elif self._accept_keyword("INNER"):
                self._expect_keyword("JOIN")
            elif not self._accept_keyword("JOIN"):
                break
            join_table = self._parse_table_ref()
            self._expect_keyword("ON")
            condition = self._parse_expression()
            joins.append(Join(join_table, condition, kind))
        where = None
        if self._accept_keyword("WHERE"):
            where = self._parse_expression()
        group_by: list[Expression] = []
        having = None
        if self._accept_keyword("GROUP"):
            self._expect_keyword("BY")
            group_by.append(self._parse_expression())
            while self._accept_punct(","):
                group_by.append(self._parse_expression())
            if self._accept_keyword("HAVING"):
                having = self._parse_expression()
        order_by: list[tuple[Expression, bool]] = []
        if self._accept_keyword("ORDER"):
            self._expect_keyword("BY")
            while True:
                expr = self._parse_expression()
                desc = False
                if self._accept_keyword("DESC"):
                    desc = True
                else:
                    self._accept_keyword("ASC")
                order_by.append((expr, desc))
                if not self._accept_punct(","):
                    break
        limit = None
        offset = 0
        if self._accept_keyword("LIMIT"):
            limit = self._parse_int("LIMIT")
            if self._accept_keyword("OFFSET"):
                offset = self._parse_int("OFFSET")
        return Select(
            items=items,
            table=table,
            joins=joins,
            where=where,
            group_by=group_by,
            order_by=order_by,
            limit=limit,
            offset=offset,
            distinct=distinct,
            having=having,
        )

    def _parse_int(self, context: str) -> int:
        token = self._peek()
        if token.type is not TokenType.NUMBER or "." in token.value:
            raise SqlParseError(f"{context} requires an integer")
        self._advance()
        try:
            return int(token.value)
        except ValueError as exc:
            raise SqlParseError(f"{context} requires an integer") from exc

    def _slot(self, value: object, token: Token) -> Literal:
        """A Literal of ``token``'s value that the statement cache refills."""
        literal = Literal(value)
        self.slots.append((token.position, literal))
        return literal

    def _parse_table_ref(self) -> TableRef:
        name = self._expect_ident()
        if name == "sys" and self._accept_punct("."):
            # A system relation; TABLES and MODELS are keywords.
            token = self._advance()
            if token.type not in (TokenType.IDENT, TokenType.KEYWORD):
                raise SqlParseError(
                    f"expected a system relation name after 'sys.' at "
                    f"position {token.position}"
                )
            name = f"sys.{token.value.lower()}"
        alias = None
        if self._accept_keyword("AS"):
            alias = self._expect_ident()
        elif self._peek().type is TokenType.IDENT:
            alias = self._expect_ident()
        return TableRef(name, alias)

    def _parse_select_item(self) -> SelectItem:
        token = self._peek()
        if token.type is TokenType.OPERATOR and token.value == "*":
            self._advance()
            return SelectItem(Star())
        expr = self._parse_call_or_expression()
        alias = None
        if self._accept_keyword("AS"):
            alias = self._expect_ident()
        return SelectItem(expr, alias)

    def _parse_call_or_expression(self):
        token = self._peek()
        next_token = self._tokens[self._pos + 1] if self._pos + 1 < len(self._tokens) else None
        is_call = (
            next_token is not None
            and next_token.type is TokenType.PUNCT
            and next_token.value == "("
        )
        is_proba = (
            token.type is TokenType.IDENT and token.value == "predict_proba"
        )
        if (token.is_keyword("PREDICT") or is_proba) and is_call:
            self._advance()
            self._expect_punct("(")
            model = self._expect_ident()
            proba_class = None
            if is_proba:
                self._expect_punct(",")
                class_token = self._peek()
                if class_token.type is not TokenType.NUMBER or "." in class_token.value:
                    raise SqlParseError(
                        "PREDICT_PROBA requires an integer class index as its "
                        "second argument"
                    )
                self._advance()
                try:
                    proba_class = int(class_token.value)
                except ValueError as exc:
                    raise SqlParseError(
                        "PREDICT_PROBA requires an integer class index as "
                        "its second argument"
                    ) from exc
            args: list[Expression] = []
            while self._accept_punct(","):
                args.append(self._parse_expression())
            self._expect_punct(")")
            return PredictCall(model, args, proba_class=proba_class)
        if token.type is TokenType.IDENT and token.value.upper() in _AGGREGATES and is_call:
            func = token.value.upper()
            self._advance()
            self._expect_punct("(")
            star = self._peek()
            if func == "COUNT" and star.type is TokenType.OPERATOR and star.value == "*":
                self._advance()
                self._expect_punct(")")
                return AggregateCall("COUNT_STAR", None)
            arg = self._parse_expression()
            self._expect_punct(")")
            return AggregateCall(func, arg)
        return self._parse_expression()

    # -- expressions (precedence climbing) ---------------------------------

    def _parse_expression(self) -> Expression:
        return self._parse_or()

    def _parse_or(self) -> Expression:
        left = self._parse_and()
        while self._accept_keyword("OR"):
            left = LogicalOp("OR", left, self._parse_and())
        return left

    def _parse_and(self) -> Expression:
        left = self._parse_not()
        while self._accept_keyword("AND"):
            left = LogicalOp("AND", left, self._parse_not())
        return left

    def _parse_not(self) -> Expression:
        if self._accept_keyword("NOT"):
            return UnaryOp("NOT", self._parse_not())
        return self._parse_comparison()

    def _parse_comparison(self) -> Expression:
        left = self._parse_additive()
        token = self._peek()
        if token.type is TokenType.OPERATOR and token.value in (
            "=", "!=", "<>", "<", "<=", ">", ">=",
        ):
            self._advance()
            right = self._parse_additive()
            return Comparison(token.value, left, right)
        if token.is_keyword("IS"):
            self._advance()
            negated = self._accept_keyword("NOT")
            self._expect_keyword("NULL")
            return IsNull(left, negated=negated)
        negated = False
        if token.is_keyword("NOT"):
            lookahead = self._tokens[self._pos + 1]
            if (
                lookahead.is_keyword("BETWEEN")
                or lookahead.is_keyword("IN")
                or lookahead.is_keyword("LIKE")
            ):
                self._advance()
                negated = True
                token = self._peek()
        if token.is_keyword("LIKE"):
            self._advance()
            pattern = self._peek()
            if pattern.type is not TokenType.STRING:
                raise SqlParseError("LIKE requires a string pattern")
            self._advance()
            return Like(left, pattern.value, negated=negated)
        if token.is_keyword("BETWEEN"):
            self._advance()
            lo = self._parse_additive()
            self._expect_keyword("AND")
            hi = self._parse_additive()
            # Desugar: left BETWEEN lo AND hi  ->  lo <= left AND left <= hi.
            expr: Expression = LogicalOp(
                "AND",
                Comparison("<=", lo, left),
                Comparison("<=", left, hi),
            )
            return UnaryOp("NOT", expr) if negated else expr
        if token.is_keyword("IN"):
            self._advance()
            self._expect_punct("(")
            values = [self._parse_additive()]
            while self._accept_punct(","):
                values.append(self._parse_additive())
            self._expect_punct(")")
            # Desugar: left IN (a, b, ...)  ->  left = a OR left = b OR ...
            expr = Comparison("=", left, values[0])
            for value in values[1:]:
                expr = LogicalOp("OR", expr, Comparison("=", left, value))
            return UnaryOp("NOT", expr) if negated else expr
        return left

    def _parse_additive(self) -> Expression:
        left = self._parse_multiplicative()
        while True:
            token = self._peek()
            if token.type is TokenType.OPERATOR and token.value in ("+", "-"):
                self._advance()
                left = BinaryOp(token.value, left, self._parse_multiplicative())
            else:
                return left

    def _parse_multiplicative(self) -> Expression:
        left = self._parse_unary()
        while True:
            token = self._peek()
            if token.type is TokenType.OPERATOR and token.value in ("*", "/", "%"):
                self._advance()
                left = BinaryOp(token.value, left, self._parse_unary())
            else:
                return left

    def _parse_unary(self) -> Expression:
        token = self._peek()
        if token.type is TokenType.OPERATOR and token.value == "-":
            self._advance()
            return UnaryOp("-", self._parse_unary())
        return self._parse_primary()

    def _parse_primary(self) -> Expression:
        token = self._peek()
        if token.is_keyword("CASE"):
            self._advance()
            branches: list[tuple[Expression, Expression]] = []
            while self._accept_keyword("WHEN"):
                condition = self._parse_expression()
                self._expect_keyword("THEN")
                branches.append((condition, self._parse_expression()))
            default = None
            if self._accept_keyword("ELSE"):
                default = self._parse_expression()
            self._expect_keyword("END")
            if not branches:
                raise SqlParseError("CASE requires at least one WHEN branch")
            return CaseWhen(tuple(branches), default)
        if token.type is TokenType.NUMBER or token.type is TokenType.STRING:
            self._advance()
            return self._slot(
                _parse_number(token.value)
                if token.type is TokenType.NUMBER
                else token.value,
                token,
            )
        if token.is_keyword("TRUE"):
            self._advance()
            return Literal(True)
        if token.is_keyword("FALSE"):
            self._advance()
            return Literal(False)
        if token.is_keyword("NULL"):
            self._advance()
            return Literal(None)
        if self._accept_punct("("):
            expr = self._parse_expression()
            self._expect_punct(")")
            return expr
        if token.type is TokenType.IDENT:
            name = self._expect_ident()
            if self._accept_punct("."):
                name = f"{name}.{self._expect_ident()}"
                return ColumnRef(name)
            if self._accept_punct("("):
                args: list[Expression] = []
                if not self._accept_punct(")"):
                    args.append(self._parse_expression())
                    while self._accept_punct(","):
                        args.append(self._parse_expression())
                    self._expect_punct(")")
                return FunctionCall(name, tuple(args))
            return ColumnRef(name)
        raise SqlParseError(
            f"unexpected token {token.value!r} at position {token.position}"
        )


def _show_select(
    relation: str, columns: tuple[str, ...], key: str, value: Literal
) -> Select:
    """``SELECT <columns> FROM sys.<relation> WHERE <key> = <value>``."""
    return Select(
        [SelectItem(ColumnRef(name)) for name in columns],
        TableRef(f"sys.{relation}"),
        where=Comparison("=", ColumnRef(key), value),
    )


def _parse_number(text: str) -> object:
    # The lexer's NUMBER pattern is permissive (e.g. "1e" lexes as one
    # token with a dangling exponent); conversion failures are grammar
    # errors, not internal ValueErrors.
    try:
        if any(c in text for c in ".eE"):
            return float(text)
        return int(text)
    except ValueError as exc:
        raise SqlParseError(f"malformed numeric literal {text!r}") from exc


#: The literal placeholder normalized statements carry: a statement's
#: workload key (:func:`fingerprint`) is its shape with every literal
#: stripped to it.
PLACEHOLDER = "?"


def _norm_expr(expr: Expression) -> Expression:
    """One expression with every literal value replaced by ``'?'``."""
    if isinstance(expr, Literal):
        return Literal(PLACEHOLDER)
    if isinstance(expr, ColumnRef):
        return expr
    if isinstance(expr, UnaryOp):
        # "-5" parses as UnaryOp("-", Literal(5)): collapse it with the
        # positive form so `x = -1` and `x = 1` share a fingerprint.
        if expr.op == "-" and isinstance(expr.operand, Literal):
            return Literal(PLACEHOLDER)
        return UnaryOp(expr.op, _norm_expr(expr.operand))
    if isinstance(expr, (BinaryOp, Comparison, LogicalOp)):
        return type(expr)(expr.op, _norm_expr(expr.left), _norm_expr(expr.right))
    if isinstance(expr, IsNull):
        return IsNull(_norm_expr(expr.operand), expr.negated)
    if isinstance(expr, Like):
        return Like(_norm_expr(expr.operand), PLACEHOLDER, expr.negated)
    if isinstance(expr, CaseWhen):
        return CaseWhen(
            tuple(
                (_norm_expr(cond), _norm_expr(value))
                for cond, value in expr.branches
            ),
            _norm_expr(expr.default) if expr.default is not None else None,
        )
    if isinstance(expr, FunctionCall):
        return FunctionCall(expr.name, tuple(_norm_expr(a) for a in expr.args))
    return expr


def _norm_item(item):
    expr = item.expr
    if isinstance(expr, Star):
        return item
    if isinstance(expr, AggregateCall):
        normalized: object = AggregateCall(
            expr.func, _norm_expr(expr.arg) if expr.arg is not None else None
        )
    elif isinstance(expr, PredictCall):
        normalized = PredictCall(
            expr.model, [_norm_expr(a) for a in expr.args], expr.proba_class
        )
    else:
        normalized = _norm_expr(expr)
    return SelectItem(normalized, item.alias)


def _norm_select(stmt):
    return Select(
        items=[_norm_item(item) for item in stmt.items],
        table=stmt.table,
        joins=[
            Join(join.table, _norm_expr(join.condition), join.kind)
            for join in stmt.joins
        ],
        where=_norm_expr(stmt.where) if stmt.where is not None else None,
        group_by=[_norm_expr(e) for e in stmt.group_by],
        order_by=[(_norm_expr(e), desc) for e, desc in stmt.order_by],
        # LIMIT/OFFSET values are literals too: `LIMIT 5` and `LIMIT 10`
        # are the same shape.  Presence is kept, the value is zeroed.
        limit=0 if stmt.limit is not None else None,
        offset=0,
        distinct=stmt.distinct,
        having=_norm_expr(stmt.having) if stmt.having is not None else None,
    )


def normalize(stmt):
    """One statement with every literal stripped to ``'?'``.

    The result still unparses/reparses (placeholders are string
    literals), which is what makes the fingerprint stable across
    whitespace, casing, and ``parse(unparse(s))`` round-trips: the lexer
    lowercases identifiers and :func:`unparse` is canonical.
    """
    if isinstance(stmt, Select):
        return _norm_select(stmt)
    if isinstance(stmt, UnionAll):
        return UnionAll([_norm_select(q) for q in stmt.queries])
    if isinstance(stmt, Explain):
        return Explain(_norm_select(stmt.query), stmt.analyze)
    if isinstance(stmt, Insert):
        # Bulk loads differ only in row count and values: collapse to one
        # row of placeholders, keeping the column arity.
        arity = len(stmt.rows[0]) if stmt.rows else 0
        return Insert(stmt.table, [[PLACEHOLDER] * arity])
    if isinstance(stmt, InsertSelect):
        return InsertSelect(stmt.table, _norm_select(stmt.query))
    if isinstance(stmt, CreateTableAs):
        return CreateTableAs(stmt.name, _norm_select(stmt.query))
    if isinstance(stmt, Update):
        return Update(
            stmt.table,
            [(col, _norm_expr(expr)) for col, expr in stmt.assignments],
            _norm_expr(stmt.where) if stmt.where is not None else None,
        )
    if isinstance(stmt, Delete):
        return Delete(
            stmt.table,
            _norm_expr(stmt.where) if stmt.where is not None else None,
        )
    # CreateTable / DropTable carry no literals.
    return stmt


def fingerprint(stmt) -> tuple[str, str]:
    """``(fingerprint, normalized sql)`` for one parsed statement.

    The fingerprint is the first 12 hex digits of the SHA-1 of the
    normalized statement's canonical unparse — short enough to type into
    ``SHOW WORKLOAD '<fp>'``, long enough that collisions within one
    session's workload are negligible.
    """
    text = unparse(normalize(stmt))
    return hashlib.sha1(text.encode("utf-8")).hexdigest()[:12], text


class Shape:
    """One cached statement shape: its template and how to refill it."""

    __slots__ = ("template", "_slots", "_build", "_numbers", "_fingerprint")

    def __init__(
        self, template: Statement, slots: dict[int, int], numbers: tuple[int, ...]
    ):
        #: The statement as first parsed; never handed out to be mutated.
        self.template = template
        self._slots = slots
        self._build = builder(template, slots)
        self._numbers = numbers  # slot literals that are NUMBER tokens
        self._fingerprint: tuple[str, str] | None = None

    def values(self, literals: list[str]) -> list[object]:
        """The literals (:func:`~repro.sql.lexer.lex`'s) as the values their
        ``Literal`` nodes hold: each NUMBER slot parsed, the rest as is."""
        values: list[object] = list(literals)
        for i in self._numbers:
            values[i] = _parse_number(literals[i])
        return values

    def build(self, literals: list[str]) -> Statement:
        """The statement with these literals (:func:`~repro.sql.lexer.lex`'s)."""
        return self._build(self.values(literals))

    def substitute(self, nodes: list[Expression]) -> Statement:
        """The template with the ``Literal`` of slot ``i`` replaced by
        ``nodes[i]`` (a prepared plan's parameters)."""
        return builder(self.template, self._slots, leaf=lambda node: node)(nodes)

    @property
    def fingerprint(self) -> tuple[str, str]:
        """The shape's ``(fingerprint, normalized sql)`` workload key."""
        if self._fingerprint is None:
            self._fingerprint = fingerprint(self.template)
        return self._fingerprint


#: Shapes kept by a StatementCache, and plans by a database (least recently
#: used out): room for every shape a serving workload repeats, bounded for
#: ad-hoc text.
CAPACITY = 256


def lru_put(entries: OrderedDict, key, value) -> None:
    """Keep ``key`` in ``entries`` as the most recently used, dropping the
    least recently used entry past ``CAPACITY``."""
    entries[key] = value
    entries.move_to_end(key)
    if len(entries) > CAPACITY:
        entries.popitem(last=False)


class StatementCache:
    """Parsed statements by shape, so that each shape is parsed once.

    The key is the statement's lexemes with every literal replaced by its
    class (int, float, string).  A miss parses the tokens and records which
    literal tokens became ``Literal`` nodes: the slots.  Every other
    literal (LIMIT / OFFSET counts, LIKE patterns, the PREDICT_PROBA
    class, SHOW and DEPLOY arguments, INSERT values) joins the key by
    value.  A hit rebuilds the statement with its own slot values.

    A text with a fast key (:func:`~repro.sql.lexer.fast_key`: ASCII, no
    quote, no comment) is looked up by that key first, with no lex.  Only
    a full lex writes a fast entry, and only when the key's number runs are
    exactly the text's NUMBER tokens; the entry maps the key to the
    lexemes and by-value positions, so a fast hit finds the shape a lex
    would.

    Parsing is a pure function of the text, so entries never go stale and
    nothing invalidates them; ``CAPACITY`` only bounds memory (least
    recently used out).  A statement with literals but no slot, such as
    ``INSERT ... VALUES``, would take one entry per text and is not kept.
    Thread-safe.
    """

    def __init__(self):
        # shape lexemes -> positions (among the literals) kept by value
        self._by_value: OrderedDict[tuple[str, ...], tuple[int, ...]] = OrderedDict()
        # (shape lexemes, values kept by value) -> Shape
        self._shapes: OrderedDict[tuple, Shape] = OrderedDict()
        # fast key -> (shape lexemes, positions kept by value)
        self._fast: OrderedDict[tuple, tuple] = OrderedDict()
        self._lock = threading.Lock()

    def __len__(self) -> int:
        return len(self._shapes)

    def clear(self) -> None:
        with self._lock:
            self._by_value.clear()
            self._shapes.clear()
            self._fast.clear()

    def parse(self, text: str) -> tuple[Statement, Shape | None]:
        """``(statement, its cached shape or None)`` for one SQL statement."""
        shape, literals, stmt = self.find(text)
        return (shape.build(literals) if stmt is None else stmt), shape

    def find(
        self, text: str
    ) -> tuple[Shape | None, list[str], Statement | None]:
        """``(shape, literals, statement)`` for one SQL statement.

        The statement is None when the shape was found in the cache: it is
        ``shape.build(literals)``, left to the caller to build.  The shape
        is None for a statement the cache does not keep.
        """
        fast = fast_key(text)
        if fast is not None:
            key, literals = fast
            with self._lock:
                known = self._fast.get(key)
                if known is not None:
                    lexemes, by_value = known
                    shape = self._hit(lexemes, tuple([literals[i] for i in by_value]))
                    if shape is not None:
                        self._fast.move_to_end(key)
                        return shape, literals, None
        tokens, lexemes, literals = lex(text)
        lexemes = tuple(lexemes)
        stmt = shape = None
        with self._lock:
            by_value = self._by_value.get(lexemes)
            if by_value is not None:
                shape = self._hit(lexemes, tuple([literals[i] for i in by_value]))
        if shape is None:
            parser = _Parser(tokens)
            stmt = parser.parse_statement()
            if literals and not parser.slots:
                return None, literals, stmt
            shape, by_value = self._shape(stmt, parser.slots, tokens)
            key = (lexemes, tuple([literals[i] for i in by_value]))
            with self._lock:
                lru_put(self._by_value, lexemes, by_value)
                lru_put(self._shapes, key, shape)
        if fast is not None and fast_key_agrees(text, tokens):
            with self._lock:
                lru_put(self._fast, fast[0], (lexemes, by_value))
        return shape, literals, stmt

    def _hit(self, lexemes: tuple[str, ...], kept: tuple[str, ...]) -> Shape | None:
        """The shape for these lexemes and by-value literals, if cached;
        the caller holds the lock."""
        key = (lexemes, kept)
        shape = self._shapes.get(key)
        if shape is not None:
            self._by_value.move_to_end(lexemes)
            self._shapes.move_to_end(key)
        return shape

    @staticmethod
    def _shape(
        stmt: Statement, slots: list[tuple[int, Literal]], tokens: list[Token]
    ) -> tuple[Shape, tuple[int, ...]]:
        """The new shape and the literals (by position) it keeps by value."""
        literal_tokens = [
            t for t in tokens if t.type is TokenType.NUMBER or t.type is TokenType.STRING
        ]
        index = {t.position: i for i, t in enumerate(literal_tokens)}
        slot_of = {id(node): index[position] for position, node in slots}
        used = set(slot_of.values())
        numbers = tuple(
            i for i in sorted(used) if literal_tokens[i].type is TokenType.NUMBER
        )
        by_value = tuple(i for i in range(len(literal_tokens)) if i not in used)
        return Shape(stmt, slot_of, numbers), by_value


#: The process-wide statement cache behind :func:`parse`.
STATEMENTS = StatementCache()
