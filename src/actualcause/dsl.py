"""Text format for models, normality declarations, contexts, and queries.

The format is line-oriented; ``#`` starts a comment.  Declaration lines:

    exo UL : {0,1}
    var F : {0,1} = max(L, M)
    typical L = 0 > 1
    severity BC=1 < AN=1 < BM=1
    mechanism on
    behavior P : "stays empty" = 0 > "mirrors input" = A > "fires regardless" = 1
    norm (H=0, W=0, D=0) > (H=1, W=0, D=1)
    context u11 : UL=1, UM=1

Query lines:

    solve @ u11
    satisfies [M<-0](F=1) @ u11
    cause L=1 for F=1 @ u11
    witnesses B=1 for VS=1 @ main
    grade {AN=1, BC=1} for F=1 @ careless

Equation bodies use integers, variable names, ``min``/``max``/``ite``,
``+ - *``, and explicit ``table(...)`` rows.  Parsing is total: it produces a
document or a list of diagnostics, each carrying a source span.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Container, Optional

from .checker import CandidateCause
from .errors import ActualCauseError
from .formula import (
    BooleanFormula,
    CausalFormula,
    Conjunction,
    Disjunction,
    Negation,
    PrimitiveEvent,
    format_body,
    format_formula,
)
from .model import (
    ENDOGENOUS,
    EXOGENOUS,
    BinOp,
    CausalModel,
    Const,
    Equation,
    Expr,
    Ite,
    Ref,
    Table,
    Variable,
)
from .normality import (
    Behavior,
    BehaviorRanking,
    NormalityOrder,
    TypicalitySpec,
    ValueRanking,
    derive_from_typicality,
    explicit_order,
)

RESERVED = {
    "exo", "var", "typical", "severity", "mechanism", "behavior", "norm",
    "context", "cause", "grade", "witnesses", "solve", "satisfies", "for",
    "on", "off", "min", "max", "ite", "table",
}


@dataclass(frozen=True)
class SourceSpan:
    line: int       # 1-based
    column: int     # 1-based
    offset: int     # byte offset into the input
    length: int = 1

    def __str__(self) -> str:
        return f"{self.line}:{self.column}"


@dataclass(frozen=True)
class Diagnostic:
    span: SourceSpan
    message: str

    def __str__(self) -> str:
        return f"{self.span}: {self.message}"


class DslError(ActualCauseError):
    def __init__(self, diagnostics: list[Diagnostic]):
        self.diagnostics = list(diagnostics)
        super().__init__("; ".join(str(d) for d in self.diagnostics))


# -- queries ---------------------------------------------------------------------


@dataclass(frozen=True)
class SolveQuery:
    context: str


@dataclass(frozen=True)
class SatisfiesQuery:
    formula: CausalFormula
    context: str


@dataclass(frozen=True)
class CauseQuery:
    cause: CandidateCause
    effect: BooleanFormula
    context: str


@dataclass(frozen=True)
class WitnessQuery:
    cause: CandidateCause
    effect: BooleanFormula
    context: str


@dataclass(frozen=True)
class GradeQuery:
    candidates: tuple[CandidateCause, ...]
    effect: BooleanFormula
    context: str


Query = SolveQuery | SatisfiesQuery | CauseQuery | WitnessQuery | GradeQuery


@dataclass
class ParsedDocument:
    model: CausalModel
    typicality: Optional[TypicalitySpec]
    explicit_norms: tuple[tuple[dict[str, int], str, dict[str, int]], ...]
    contexts: dict[str, dict[str, int]]
    queries: tuple[Query, ...]

    def has_normality(self) -> bool:
        return self.typicality is not None or bool(self.explicit_norms)

    def normality_order(self) -> NormalityOrder:
        if self.typicality is not None and self.explicit_norms:
            raise ActualCauseError(
                "document declares both typicality and explicit norm relations; "
                "pick one source for the ordering"
            )
        if self.explicit_norms:
            return explicit_order(
                self.model,
                [(dict(a), op, dict(b)) for a, op, b in self.explicit_norms],
            )
        if self.typicality is not None:
            return derive_from_typicality(self.model, self.typicality)
        raise ActualCauseError("document declares no normality information")


# -- lexer -----------------------------------------------------------------------

_PUNCT = ("==", "<-", "->", "{", "}", "(", ")", "[", "]", ":", ",", "@",
          "+", "-", "*", "!", "&", "|", "=", "<", ">")


@dataclass(frozen=True)
class Token:
    kind: str   # "ident" | "int" | "string" | punctuation literal | "eol"
    text: str
    span: SourceSpan


def _lex_line(line: str, line_no: int, line_offset: int) -> tuple[list[Token], list[Diagnostic]]:
    """Tokenize one line; ``line_offset`` is the line's byte offset."""
    tokens: list[Token] = []
    errors: list[Diagnostic] = []
    i = 0
    n = len(line)

    def span_at(start: int, end: int) -> SourceSpan:
        byte_start = line_offset + len(line[:start].encode("utf-8"))
        byte_len = max(1, len(line[start:end].encode("utf-8")))
        return SourceSpan(line_no, start + 1, byte_start, byte_len)

    while i < n:
        ch = line[i]
        if ch in " \t\r":
            i += 1
            continue
        if ch == "#":
            break
        if ch == '"':
            j = i + 1
            while j < n and line[j] != '"':
                j += 1
            if j >= n:
                errors.append(Diagnostic(span_at(i, i + 1), "unterminated string"))
                break
            tokens.append(Token("string", line[i + 1:j], span_at(i, j + 1)))
            i = j + 1
            continue
        if ch.isdigit():
            j = i
            while j < n and line[j].isdigit():
                j += 1
            tokens.append(Token("int", line[i:j], span_at(i, j)))
            i = j
            continue
        if ch.isalpha() or ch == "_":
            j = i
            while j < n and (line[j].isalnum() or line[j] == "_"):
                j += 1
            tokens.append(Token("ident", line[i:j], span_at(i, j)))
            i = j
            continue
        matched = None
        for punct in _PUNCT:
            if line.startswith(punct, i):
                matched = punct
                break
        if matched is None:
            errors.append(Diagnostic(span_at(i, i + 1),
                                     f"unexpected character {ch!r}"))
            i += 1
            continue
        tokens.append(Token(matched, matched, span_at(i, i + len(matched))))
        i += len(matched)
    tokens.append(Token("eol", "", span_at(len(line), len(line))))
    return tokens, errors


class _LineSyntaxError(Exception):
    def __init__(self, diagnostic: Diagnostic):
        self.diagnostic = diagnostic


class _Cursor:
    def __init__(self, tokens: list[Token]):
        self.tokens = tokens
        self.pos = 0

    def peek(self) -> Token:
        return self.tokens[self.pos]

    def next(self) -> Token:
        token = self.tokens[self.pos]
        if token.kind != "eol":
            self.pos += 1
        return token

    def accept(self, kind: str) -> Optional[Token]:
        if self.peek().kind == kind:
            return self.next()
        return None

    def expect(self, kind: str, what: str = "") -> Token:
        token = self.peek()
        if token.kind != kind:
            shown = what or kind
            got = token.text or "end of line"
            raise _LineSyntaxError(
                Diagnostic(token.span, f"expected {shown}, found {got!r}")
            )
        return self.next()

    def expect_end(self):
        token = self.peek()
        if token.kind != "eol":
            raise _LineSyntaxError(
                Diagnostic(token.span, f"unexpected trailing input {token.text!r}")
            )

    def fail(self, message: str):
        raise _LineSyntaxError(Diagnostic(self.peek().span, message))


# -- raw per-line records (phase A output) ----------------------------------------


@dataclass
class _RawVar:
    name: str
    span: SourceSpan
    kind: str
    values: tuple[int, ...]
    body: Optional[Expr] = None
    refs: tuple[tuple[str, SourceSpan], ...] = ()


@dataclass
class _RawTypical:
    name: str
    span: SourceSpan
    ranking: tuple[int, ...]


@dataclass
class _RawSeverity:
    chain: tuple[tuple[str, int, SourceSpan], ...]


@dataclass
class _RawBehavior:
    name: str
    span: SourceSpan
    behaviors: tuple[tuple[str, Expr], ...]
    refs: tuple[tuple[str, SourceSpan], ...]


@dataclass
class _RawNorm:
    left: tuple[tuple[str, int, SourceSpan], ...]
    op: str
    right: tuple[tuple[str, int, SourceSpan], ...]
    span: SourceSpan


@dataclass
class _RawContext:
    name: str
    span: SourceSpan
    items: tuple[tuple[str, int, SourceSpan], ...]


@dataclass
class _RawQuery:
    kind: str
    span: SourceSpan
    context: tuple[str, SourceSpan]
    causes: tuple[tuple[tuple[str, int, SourceSpan], ...], ...] = ()
    effect: Optional[BooleanFormula] = None
    effect_refs: tuple[tuple[str, int, SourceSpan], ...] = ()
    interventions: tuple[tuple[str, int, SourceSpan], ...] = ()


# -- per-line parsers --------------------------------------------------------------


def _parse_int_value(cur: _Cursor) -> int:
    if cur.accept("-"):
        token = cur.expect("int", "integer")
        return -int(token.text)
    token = cur.expect("int", "integer")
    return int(token.text)


def _parse_range(cur: _Cursor) -> tuple[int, ...]:
    cur.expect("{")
    values = [_parse_int_value(cur)]
    while cur.accept(","):
        values.append(_parse_int_value(cur))
    cur.expect("}")
    return tuple(values)


def _parse_name(cur: _Cursor, what: str = "name") -> Token:
    token = cur.expect("ident", what)
    if token.text in RESERVED:
        raise _LineSyntaxError(
            Diagnostic(token.span, f"{token.text!r} is a reserved word")
        )
    return token


class _ExprParser:
    """Recursive descent over one expression; collects referenced names."""

    def __init__(self, cur: _Cursor):
        self.cur = cur
        self.refs: list[tuple[str, SourceSpan]] = []

    def parse(self) -> Expr:
        return self._additive()

    def _additive(self) -> Expr:
        node = self._multiplicative()
        while True:
            if self.cur.accept("+"):
                node = BinOp("+", node, self._multiplicative())
            elif self.cur.accept("-"):
                node = BinOp("-", node, self._multiplicative())
            else:
                return node

    def _multiplicative(self) -> Expr:
        node = self._atom()
        while self.cur.accept("*"):
            node = BinOp("*", node, self._atom())
        return node

    def _atom(self) -> Expr:
        cur = self.cur
        token = cur.peek()
        if token.kind == "int":
            cur.next()
            return Const(int(token.text))
        if token.kind == "(":
            cur.next()
            node = self._additive()
            cur.expect(")")
            return node
        if token.kind == "ident":
            if token.text in ("min", "max"):
                cur.next()
                cur.expect("(")
                left = self._additive()
                cur.expect(",")
                right = self._additive()
                cur.expect(")")
                return BinOp(token.text, left, right)
            if token.text == "ite":
                cur.next()
                cur.expect("(")
                left = self._additive()
                cur.expect("==")
                right = self._additive()
                cur.expect(",")
                then = self._additive()
                cur.expect(",")
                other = self._additive()
                cur.expect(")")
                return Ite(left, right, then, other)
            if token.text == "table":
                return self._table()
            if token.text in RESERVED:
                cur.fail(f"{token.text!r} is a reserved word")
            cur.next()
            self.refs.append((token.text, token.span))
            return Ref(token.text)
        cur.fail("expected an expression")

    def _table(self) -> Expr:
        cur = self.cur
        cur.next()  # "table"
        cur.expect("(")
        args = [_parse_name(cur, "argument name")]
        while cur.accept(","):
            args.append(_parse_name(cur, "argument name"))
        cur.expect(")")
        for token in args:
            self.refs.append((token.text, token.span))
        cur.expect("{")
        rows = []
        while True:
            cur.expect("(")
            key = [_parse_int_value(cur)]
            while cur.accept(","):
                key.append(_parse_int_value(cur))
            cur.expect(")")
            cur.expect("->")
            value = _parse_int_value(cur)
            if len(key) != len(args):
                cur.fail(f"table row has {len(key)} values for {len(args)} arguments")
            rows.append((tuple(key), value))
            if not cur.accept(","):
                break
        cur.expect("}")
        return Table(tuple(t.text for t in args), tuple(rows))


def _parse_assignment_list(cur: _Cursor) -> tuple[tuple[str, int, SourceSpan], ...]:
    """name=value, name=value, ... (shared by contexts and world literals)."""
    items = []
    while True:
        name = _parse_name(cur, "variable name")
        cur.expect("=")
        value = _parse_int_value(cur)
        items.append((name.text, value, name.span))
        if not cur.accept(","):
            return tuple(items)


def _parse_world_literal(cur: _Cursor) -> tuple[tuple[str, int, SourceSpan], ...]:
    cur.expect("(")
    items = _parse_assignment_list(cur)
    cur.expect(")")
    return items


class _BodyParser:
    """Boolean formula bodies: ! binds tightest, then &, then |."""

    def __init__(self, cur: _Cursor):
        self.cur = cur
        self.refs: list[tuple[str, int, SourceSpan]] = []

    def parse(self) -> BooleanFormula:
        return self._disjunction()

    def _disjunction(self) -> BooleanFormula:
        operands = [self._conjunction()]
        while self.cur.accept("|"):
            operands.append(self._conjunction())
        if len(operands) == 1:
            return operands[0]
        return Disjunction(tuple(operands))

    def _conjunction(self) -> BooleanFormula:
        operands = [self._negation()]
        while self.cur.accept("&"):
            operands.append(self._negation())
        if len(operands) == 1:
            return operands[0]
        return Conjunction(tuple(operands))

    def _negation(self) -> BooleanFormula:
        if self.cur.accept("!"):
            return Negation(self._negation())
        if self.cur.peek().kind == "(":
            self.cur.next()
            node = self._disjunction()
            self.cur.expect(")")
            return node
        name = _parse_name(self.cur, "variable name")
        self.cur.expect("=")
        value = _parse_int_value(self.cur)
        self.refs.append((name.text, value, name.span))
        return PrimitiveEvent(name.text, value)


def _parse_conjunction_of_events(
    cur: _Cursor,
) -> tuple[BooleanFormula, tuple[tuple[str, int, SourceSpan], ...]]:
    """A & B & ... of primitive events (candidate-cause position)."""
    refs = []
    events = []
    while True:
        name = _parse_name(cur, "variable name")
        cur.expect("=")
        value = _parse_int_value(cur)
        refs.append((name.text, value, name.span))
        events.append(PrimitiveEvent(name.text, value))
        if not cur.accept("&"):
            break
    return tuple(events), tuple(refs)


def _parse_query_line(cur: _Cursor, keyword: Token) -> _RawQuery:
    kind = keyword.text
    if kind == "solve":
        cur.expect("@")
        ctx = _parse_name(cur, "context name")
        cur.expect_end()
        return _RawQuery("solve", keyword.span, (ctx.text, ctx.span))
    if kind == "satisfies":
        interventions: tuple[tuple[str, int, SourceSpan], ...] = ()
        if cur.accept("["):
            items = []
            if cur.peek().kind != "]":
                while True:
                    name = _parse_name(cur, "variable name")
                    cur.expect("<-")
                    value = _parse_int_value(cur)
                    items.append((name.text, value, name.span))
                    if not cur.accept(","):
                        break
            cur.expect("]")
            interventions = tuple(items)
        parser = _BodyParser(cur)
        if cur.accept("("):
            body = parser.parse()
            cur.expect(")")
        else:
            body = parser.parse()
        cur.expect("@")
        ctx = _parse_name(cur, "context name")
        cur.expect_end()
        return _RawQuery(
            "satisfies", keyword.span, (ctx.text, ctx.span),
            effect=body, effect_refs=tuple(parser.refs), interventions=interventions,
        )
    if kind in ("cause", "witnesses"):
        events, refs = _parse_conjunction_of_events(cur)
        for_token = cur.expect("ident", "'for'")
        if for_token.text != "for":
            raise _LineSyntaxError(Diagnostic(for_token.span, "expected 'for'"))
        parser = _BodyParser(cur)
        body = parser.parse()
        cur.expect("@")
        ctx = _parse_name(cur, "context name")
        cur.expect_end()
        return _RawQuery(
            kind, keyword.span, (ctx.text, ctx.span),
            causes=(refs,), effect=body, effect_refs=tuple(parser.refs),
        )
    if kind == "grade":
        cur.expect("{")
        causes = []
        while True:
            _, refs = _parse_conjunction_of_events(cur)
            causes.append(refs)
            if not cur.accept(","):
                break
        cur.expect("}")
        for_token = cur.expect("ident", "'for'")
        if for_token.text != "for":
            raise _LineSyntaxError(Diagnostic(for_token.span, "expected 'for'"))
        parser = _BodyParser(cur)
        body = parser.parse()
        cur.expect("@")
        ctx = _parse_name(cur, "context name")
        cur.expect_end()
        return _RawQuery(
            "grade", keyword.span, (ctx.text, ctx.span),
            causes=tuple(causes), effect=body, effect_refs=tuple(parser.refs),
        )
    raise _LineSyntaxError(Diagnostic(keyword.span, f"unknown query {kind!r}"))


# -- document assembly --------------------------------------------------------------


class _DocumentBuilder:
    def __init__(self):
        self.errors: list[Diagnostic] = []
        self.variables: list[_RawVar] = []
        self.typicals: list[_RawTypical] = []
        self.severities: list[_RawSeverity] = []
        self.mechanism: Optional[tuple[bool, SourceSpan]] = None
        self.behaviors: list[_RawBehavior] = []
        self.norms: list[_RawNorm] = []
        self.contexts: list[_RawContext] = []
        self.queries: list[_RawQuery] = []

    def error(self, span: SourceSpan, message: str):
        self.errors.append(Diagnostic(span, message))

    # phase A: one line ------------------------------------------------------

    def add_line(self, tokens: list[Token]):
        cur = _Cursor(tokens)
        if cur.peek().kind == "eol":
            return
        try:
            keyword = cur.expect("ident", "a declaration or query keyword")
            if keyword.text == "exo":
                name = _parse_name(cur, "variable name")
                cur.expect(":")
                values = _parse_range(cur)
                cur.expect_end()
                self.variables.append(_RawVar(name.text, name.span, EXOGENOUS, values))
            elif keyword.text == "var":
                name = _parse_name(cur, "variable name")
                cur.expect(":")
                values = _parse_range(cur)
                cur.expect("=")
                parser = _ExprParser(cur)
                body = parser.parse()
                cur.expect_end()
                self.variables.append(
                    _RawVar(name.text, name.span, ENDOGENOUS, values,
                            body=body, refs=tuple(parser.refs))
                )
            elif keyword.text == "typical":
                name = _parse_name(cur, "variable name")
                cur.expect("=")
                ranking = [_parse_int_value(cur)]
                while cur.accept(">"):
                    ranking.append(_parse_int_value(cur))
                cur.expect_end()
                self.typicals.append(_RawTypical(name.text, name.span, tuple(ranking)))
            elif keyword.text == "severity":
                chain = []
                while True:
                    name = _parse_name(cur, "variable name")
                    cur.expect("=")
                    value = _parse_int_value(cur)
                    chain.append((name.text, value, name.span))
                    if not cur.accept("<"):
                        break
                cur.expect_end()
                if len(chain) < 2:
                    self.error(keyword.span, "severity needs at least two features")
                else:
                    self.severities.append(_RawSeverity(tuple(chain)))
            elif keyword.text == "mechanism":
                token = cur.expect("ident", "'on' or 'off'")
                if token.text not in ("on", "off"):
                    raise _LineSyntaxError(
                        Diagnostic(token.span, "expected 'on' or 'off'")
                    )
                cur.expect_end()
                if self.mechanism is not None:
                    self.error(token.span, "mechanism declared twice")
                self.mechanism = (token.text == "on", token.span)
            elif keyword.text == "behavior":
                name = _parse_name(cur, "variable name")
                cur.expect(":")
                behaviors = []
                parser = _ExprParser(cur)
                while True:
                    label = cur.expect("string", "behavior label")
                    cur.expect("=")
                    body = parser.parse()
                    behaviors.append((label.text, body))
                    if not cur.accept(">"):
                        break
                cur.expect_end()
                self.behaviors.append(
                    _RawBehavior(name.text, name.span, tuple(behaviors),
                                 tuple(parser.refs))
                )
            elif keyword.text == "norm":
                left = _parse_world_literal(cur)
                if cur.accept("=="):
                    op = "=="
                elif cur.accept(">"):
                    op = ">"
                else:
                    cur.fail("expected '>' or '==' between worlds")
                right = _parse_world_literal(cur)
                cur.expect_end()
                self.norms.append(_RawNorm(left, op, right, keyword.span))
            elif keyword.text == "context":
                name = _parse_name(cur, "context name")
                cur.expect(":")
                items = _parse_assignment_list(cur)
                cur.expect_end()
                self.contexts.append(_RawContext(name.text, name.span, items))
            elif keyword.text in ("cause", "grade", "witnesses", "solve", "satisfies"):
                self.queries.append(_parse_query_line(cur, keyword))
            else:
                self.error(keyword.span, f"unknown keyword {keyword.text!r}")
        except _LineSyntaxError as exc:
            self.errors.append(exc.diagnostic)

    # phase B: cross-line checks and assembly ---------------------------------

    def build(self) -> Optional[ParsedDocument]:
        if self.errors:
            return None
        declared: dict[str, _RawVar] = {}
        for raw in self.variables:
            if raw.name in declared:
                self.error(raw.span, f"variable {raw.name} declared twice")
            if len(set(raw.values)) != len(raw.values):
                self.error(raw.span, f"range of {raw.name} repeats a value")
            declared[raw.name] = raw
        for raw in self.variables:
            for name, span in raw.refs:
                if name not in declared:
                    self.error(span, f"undeclared variable {name}")
        if self.errors:
            return None

        def is_endo(name: str) -> bool:
            return declared[name].kind == ENDOGENOUS

        model = CausalModel(
            [Variable(raw.name, raw.kind, raw.values) for raw in self.variables],
            [Equation(raw.name, raw.body) for raw in self.variables
             if raw.kind == ENDOGENOUS],
        )

        # typicality section
        typicality = None
        mech_on = self.mechanism[0] if self.mechanism else False
        if self.typicals or self.severities or self.behaviors or self.mechanism:
            rankings = []
            seen = set()
            for raw in self.typicals:
                if raw.name in seen:
                    self.error(raw.span, f"typicality for {raw.name} declared twice")
                    continue
                seen.add(raw.name)
                if raw.name not in declared:
                    self.error(raw.span, f"undeclared variable {raw.name}")
                    continue
                if not is_endo(raw.name):
                    self.error(raw.span, f"typicality targets exogenous {raw.name}")
                    continue
                if sorted(raw.ranking) != sorted(declared[raw.name].values):
                    self.error(raw.span,
                               f"typicality for {raw.name} must rank each of its "
                               f"values exactly once")
                    continue
                rankings.append(ValueRanking(raw.name, raw.ranking))
            chains = []
            for raw in self.severities:
                ok = True
                for name, value, span in raw.chain:
                    ranking = next((r for r in rankings if r.variable == name), None)
                    if ranking is None:
                        self.error(span, f"severity feature {name}={value} has no "
                                         f"typicality ranking")
                        ok = False
                    elif value not in ranking.ranking:
                        self.error(span, f"value {value} outside the range of {name}")
                        ok = False
                    elif ranking.ranking.index(value) == 0:
                        self.error(span, f"severity feature {name}={value} is that "
                                         f"variable's typical value")
                        ok = False
                if ok:
                    chains.append(tuple((n, v) for n, v, _ in raw.chain))
            behavior_rankings = []
            seen = set()
            for raw in self.behaviors:
                if not mech_on:
                    self.error(raw.span, "behavior rankings require 'mechanism on'")
                    continue
                if raw.name in seen:
                    self.error(raw.span, f"behaviors for {raw.name} declared twice")
                    continue
                seen.add(raw.name)
                if raw.name not in declared or not is_endo(raw.name):
                    self.error(raw.span, f"behaviors target unknown or exogenous "
                                         f"variable {raw.name}")
                    continue
                ok = True
                for name, span in raw.refs:
                    if name not in declared:
                        self.error(span, f"undeclared variable {name}")
                        ok = False
                    elif not is_endo(name):
                        self.error(span, f"behavior expressions may reference only "
                                         f"endogenous variables; {name} is exogenous")
                        ok = False
                if ok:
                    behavior_rankings.append(
                        BehaviorRanking(
                            raw.name,
                            tuple(Behavior(label, body)
                                  for label, body in raw.behaviors),
                        )
                    )
            typicality = TypicalitySpec(
                value_rankings=tuple(rankings),
                severity_chains=tuple(chains),
                mechanism=mech_on,
                behavior_rankings=tuple(behavior_rankings),
            )

        # explicit norm relations
        endo_names = [raw.name for raw in self.variables if raw.kind == ENDOGENOUS]
        norms = []
        for raw in self.norms:
            sides = []
            for side in (raw.left, raw.right):
                world = {}
                ok = True
                for name, value, span in side:
                    if not _check_event(model, name, value, span, "a norm world",
                                        self.errors):
                        ok = False
                        continue
                    if name in world:
                        self.error(span, f"world assigns {name} twice")
                        ok = False
                    world[name] = value
                missing = [n for n in endo_names if n not in world]
                if missing:
                    self.error(raw.span,
                               f"norm world is missing variables: {', '.join(missing)}")
                    ok = False
                sides.append(world if ok else None)
            if sides[0] is not None and sides[1] is not None:
                norms.append((sides[0], raw.op, sides[1]))

        # contexts
        exo_names = [raw.name for raw in self.variables if raw.kind == EXOGENOUS]
        contexts: dict[str, dict[str, int]] = {}
        for raw in self.contexts:
            if raw.name in contexts:
                self.error(raw.span, f"context {raw.name} declared twice")
                continue
            assignment = {}
            ok = True
            for name, value, span in raw.items:
                if name not in declared:
                    self.error(span, f"undeclared variable {name}")
                    ok = False
                    continue
                if declared[name].kind != EXOGENOUS:
                    self.error(span, f"context assigns endogenous variable {name}")
                    ok = False
                    continue
                if value not in declared[name].values:
                    self.error(span, f"value {value} outside the range of {name}")
                    ok = False
                    continue
                if name in assignment:
                    self.error(span, f"context assigns {name} twice")
                    ok = False
                    continue
                assignment[name] = value
            missing = [n for n in exo_names if n not in assignment]
            if missing:
                self.error(raw.span,
                           f"context {raw.name} is missing exogenous variables: "
                           f"{', '.join(missing)}")
                ok = False
            if ok:
                contexts[raw.name] = assignment

        # queries
        context_names = {raw.name for raw in self.contexts}
        queries: list[Query] = []
        for raw in self.queries:
            query = _check_query(raw, model, context_names, self.errors)
            if query is not None:
                queries.append(query)

        if self.errors:
            return None
        return ParsedDocument(
            model=model,
            typicality=typicality,
            explicit_norms=tuple(norms),
            contexts=contexts,
            queries=tuple(queries),
        )


def _lex_document(text: str) -> tuple[list[list[Token]], list[Diagnostic]]:
    lines: list[list[Token]] = []
    errors: list[Diagnostic] = []
    offset = 0
    normalized = text.replace("\r\n", "\n").replace("\r", "\n")
    for line_no, line in enumerate(normalized.split("\n"), start=1):
        tokens, line_errors = _lex_line(line, line_no, offset)
        lines.append(tokens)
        errors.extend(line_errors)
        offset += len(line.encode("utf-8")) + 1
    return lines, errors


def parse_document(text: str, stop_at_first: bool = False) -> ParsedDocument:
    """Parse a full document; raises DslError carrying every diagnostic
    (or just the first, when asked)."""
    lines, lex_errors = _lex_document(text)
    builder = _DocumentBuilder()
    builder.errors.extend(lex_errors)
    for tokens in lines:
        builder.add_line(tokens)
    document = builder.build()
    if document is None:
        errors = sorted(builder.errors, key=_position)
        raise DslError(errors[:1] if stop_at_first else errors)
    return document


def parse_query(text: str, document: Optional[ParsedDocument] = None) -> Query:
    """Parse one query line; checked against the document when given."""
    tokens, lex_errors = _lex_line(text.replace("\r", " ").replace("\n", " "), 1, 0)
    if lex_errors:
        raise DslError(lex_errors)
    cur = _Cursor(tokens)
    keyword = cur.peek()
    if keyword.kind != "ident" or keyword.text not in (
        "cause", "grade", "witnesses", "solve", "satisfies"
    ):
        raise DslError([Diagnostic(keyword.span, "expected a query keyword")])
    cur.next()
    try:
        raw = _parse_query_line(cur, keyword)
    except _LineSyntaxError as exc:
        raise DslError([exc.diagnostic]) from None
    errors: list[Diagnostic] = []
    if document is None:
        query = _check_query(raw, None, (), errors)
    else:
        query = _check_query(raw, document.model, document.contexts, errors)
    if query is None:
        raise DslError(sorted(errors, key=_position))
    return query


def _position(diagnostic: Diagnostic) -> tuple[int, int]:
    return diagnostic.span.line, diagnostic.span.column


def _check_event(model: CausalModel, name: str, value: int, span: SourceSpan,
                 where: str, errors: list[Diagnostic]) -> bool:
    """Whether a primitive event names an endogenous variable at a value in
    its range; appends a diagnostic when it does not."""
    if not model.has_variable(name):
        message = f"undeclared variable {name}"
    elif not model.is_endogenous(name):
        message = f"{name} is exogenous; {where} needs an endogenous variable"
    elif value not in model.range_of(name):
        message = f"value {value} outside the range of {name}"
    else:
        return True
    errors.append(Diagnostic(span, message))
    return False


def _check_query(raw: _RawQuery, model: Optional[CausalModel],
                 context_names: Container[str],
                 errors: list[Diagnostic]) -> Optional[Query]:
    """Check a raw query line against the model and the context names and
    build it; returns None when the line has faults, each appended to errors
    as a diagnostic.  Without a model only the shape of the candidate causes
    is checked."""
    count = len(errors)

    def event_ok(name: str, value: int, span: SourceSpan, where: str) -> bool:
        return model is None or _check_event(model, name, value, span, where, errors)

    ctx_name, ctx_span = raw.context
    if model is not None and ctx_name not in context_names:
        errors.append(Diagnostic(ctx_span, f"unknown context {ctx_name}"))
    for name, value, span in raw.effect_refs:
        event_ok(name, value, span, "a formula")
    for name, value, span in raw.interventions:
        event_ok(name, value, span, "an intervention")
    causes = []
    for cause_refs in raw.causes:
        events: dict[str, PrimitiveEvent] = {}
        for name, value, span in cause_refs:
            if not event_ok(name, value, span, "a candidate cause"):
                continue
            if name in events:
                errors.append(Diagnostic(span, f"candidate cause repeats variable {name}"))
                continue
            events[name] = PrimitiveEvent(name, value)
        if events:
            causes.append(CandidateCause(tuple(events.values())))
    if len(errors) > count:
        return None
    if raw.kind == "solve":
        return SolveQuery(ctx_name)
    if raw.kind == "satisfies":
        formula = CausalFormula(
            tuple((n, v) for n, v, _ in raw.interventions), raw.effect
        )
        return SatisfiesQuery(formula, ctx_name)
    if raw.kind == "cause":
        return CauseQuery(causes[0], raw.effect, ctx_name)
    if raw.kind == "witnesses":
        return WitnessQuery(causes[0], raw.effect, ctx_name)
    return GradeQuery(tuple(causes), raw.effect, ctx_name)


# -- pretty printer -----------------------------------------------------------------


def format_expr(expr: Expr, parent_level: int = 0, right_side: bool = False) -> str:
    if isinstance(expr, Const):
        return str(expr.value)
    if isinstance(expr, Ref):
        return expr.name
    if isinstance(expr, BinOp):
        if expr.op in ("min", "max"):
            return f"{expr.op}({format_expr(expr.left)}, {format_expr(expr.right)})"
        level = 2 if expr.op == "*" else 1
        text = (f"{format_expr(expr.left, level, False)} {expr.op} "
                f"{format_expr(expr.right, level, True)}")
        if level < parent_level or (level == parent_level and right_side):
            return f"({text})"
        return text
    if isinstance(expr, Ite):
        return (f"ite({format_expr(expr.left)} == {format_expr(expr.right)}, "
                f"{format_expr(expr.then)}, {format_expr(expr.other)})")
    if isinstance(expr, Table):
        rows = ", ".join(
            "(" + ", ".join(str(v) for v in key) + f") -> {value}"
            for key, value in expr.rows
        )
        return f"table({', '.join(expr.args)}){{{rows}}}"
    raise TypeError(f"unexpected expression node {expr!r}")


def format_query(query: Query) -> str:
    if isinstance(query, SolveQuery):
        return f"solve @ {query.context}"
    if isinstance(query, SatisfiesQuery):
        return f"satisfies {format_formula(query.formula)} @ {query.context}"
    if isinstance(query, CauseQuery):
        return f"cause {query.cause} for {format_body(query.effect)} @ {query.context}"
    if isinstance(query, WitnessQuery):
        return (f"witnesses {query.cause} for {format_body(query.effect)} "
                f"@ {query.context}")
    if isinstance(query, GradeQuery):
        causes = ", ".join(str(c) for c in query.candidates)
        return (f"grade {{{causes}}} for {format_body(query.effect)} "
                f"@ {query.context}")
    raise TypeError(f"unexpected query {query!r}")


def pretty_print(document: ParsedDocument) -> str:
    """Canonical rendering; printing a parsed document and reparsing is a
    fixed point on the text."""
    lines = []
    model = document.model
    for variable in model.variables:
        values = ",".join(str(v) for v in variable.range)
        if variable.kind == EXOGENOUS:
            lines.append(f"exo {variable.name} : {{{values}}}")
        else:
            body = format_expr(model.equations[variable.name].body)
            lines.append(f"var {variable.name} : {{{values}}} = {body}")
    spec = document.typicality
    if spec is not None:
        for ranking in spec.value_rankings:
            order = " > ".join(str(v) for v in ranking.ranking)
            lines.append(f"typical {ranking.variable} = {order}")
        for chain in spec.severity_chains:
            text = " < ".join(f"{n}={v}" for n, v in chain)
            lines.append(f"severity {text}")
        if spec.mechanism:
            lines.append("mechanism on")
        for ranking in spec.behavior_rankings:
            parts = " > ".join(
                f'"{b.label}" = {format_expr(b.body)}' for b in ranking.behaviors
            )
            lines.append(f"behavior {ranking.variable} : {parts}")
    for left, op, right in document.explicit_norms:
        lines.append(f"norm {_format_world_literal(model, left)} {op} "
                     f"{_format_world_literal(model, right)}")
    for name, assignment in document.contexts.items():
        items = ", ".join(f"{n}={assignment[n]}" for n in model.exogenous)
        lines.append(f"context {name} : {items}")
    for query in document.queries:
        lines.append(format_query(query))
    return "\n".join(lines) + "\n"


def _format_world_literal(model: CausalModel, assignment: dict[str, int]) -> str:
    items = ", ".join(f"{n}={assignment[n]}" for n in model.endogenous)
    return f"({items})"
