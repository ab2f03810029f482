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

Lines end at LF, CR LF or CR, and nowhere else; blanks are space, tab and CR.
Tokens are ``"..."`` strings, integers (decimal digits, as ``int()`` reads
them; ``²`` is none), names (a word character that is no decimal digit, then
word characters) and punctuation.  Columns count characters; a span's
offset and length count UTF-8 bytes of the text as passed.
"""

from __future__ import annotations

import re
from typing import TYPE_CHECKING, Container, Optional

from .errors import ActualCauseError
from .formula import (
    BooleanFormula,
    CandidateCause,
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
    Record,
    Ref,
    Table,
    Variable,
    _event_fault,
    _set,
)

if TYPE_CHECKING:
    from .normality import NormalityOrder, TypicalitySpec

_QUERY_KEYWORDS = ("cause", "grade", "witnesses", "solve", "satisfies")

RESERVED = {
    "exo", "var", "typical", "severity", "mechanism", "behavior", "norm",
    "context", "cause", "grade", "witnesses", "solve", "satisfies", "for",
    "on", "off", "min", "max", "ite", "table",
}

# Deepest nesting of parentheses, negations and min/max/ite calls a line may
# use.  The parsers and the tree walks over formulas and equation bodies
# recurse once per level, so this keeps them far inside the interpreter's
# recursion limit.
MAX_NESTING = 100


class SourceSpan(Record):
    def __init__(self, line: int, column: int, offset: int, length: int = 1):
        """``line`` and ``column`` are 1-based; ``offset`` is a byte offset
        into the input."""
        _set(self, "line", line)
        _set(self, "column", column)
        _set(self, "offset", offset)
        _set(self, "length", length)

    def __str__(self) -> str:
        return f"{self.line}:{self.column}"


class Diagnostic(Record):
    def __init__(self, span: SourceSpan, message: str):
        super().__init__(span, message)

    def __str__(self) -> str:
        return f"{self.span}: {self.message}"


class DslError(ActualCauseError):
    def __init__(self, diagnostics: list[Diagnostic]):
        self.diagnostics = list(diagnostics)
        super().__init__("; ".join(str(d) for d in self.diagnostics))


# -- queries ---------------------------------------------------------------------


class SolveQuery(Record):
    def __init__(self, context: str):
        super().__init__(context)


class SatisfiesQuery(Record):
    def __init__(self, formula: CausalFormula, context: str):
        super().__init__(formula, context)


class CauseQuery(Record):
    def __init__(self, cause: CandidateCause, effect: BooleanFormula, context: str):
        super().__init__(cause, effect, context)


class WitnessQuery(Record):
    def __init__(self, cause: CandidateCause, effect: BooleanFormula, context: str):
        super().__init__(cause, effect, context)


class GradeQuery(Record):
    def __init__(self, candidates: tuple[CandidateCause, ...], effect: BooleanFormula,
                 context: str):
        super().__init__(candidates, effect, context)


Query = SolveQuery | SatisfiesQuery | CauseQuery | WitnessQuery | GradeQuery


_BOTH_SOURCES = ("document declares both typicality and explicit norm relations; "
                 "pick one source for the ordering")


class ParsedDocument(Record, frozen=False):
    def __init__(self, model: CausalModel, typicality: Optional[TypicalitySpec],
                 explicit_norms: tuple[tuple[dict[str, int], str, dict[str, int]], ...],
                 contexts: dict[str, dict[str, int]], queries: tuple[Query, ...]):
        super().__init__(model, typicality, explicit_norms, contexts, queries)

    def has_normality(self) -> bool:
        return self.typicality is not None or bool(self.explicit_norms)

    def normality_order(self) -> NormalityOrder:
        from .normality import derive_from_typicality, explicit_order

        if self.typicality is not None and self.explicit_norms:
            raise ActualCauseError(_BOTH_SOURCES)
        if self.explicit_norms:
            return explicit_order(
                self.model,
                [(dict(a), op, dict(b)) for a, op, b in self.explicit_norms],
            )
        if self.typicality is not None:
            return derive_from_typicality(self.model, self.typicality)
        raise ActualCauseError("document declares no normality information")


# -- lexer -----------------------------------------------------------------------

# One alternative per token class, tried in this order at each position.  The
# comment and the unterminated-string fault run to the end of the line, so
# every character of a line is in exactly one match.
_TOKEN = re.compile(r"""
    [ \t\r]+ | \#.*                                 # blanks, a comment
  | "(?P<string>[^"]*)" | (?P<unterminated>".*)
  | (?P<int>\d+)                                    # decimal digits, as int() reads
  | (?P<ident>[^\W\d]\w*)
  | (?P<punct>==|<-|->|[{}()\[\]:,@+*!&|=<>-])
  | (?P<unexpected>.)
""", re.VERBOSE | re.DOTALL)

_LINE_BREAK = re.compile(r"(\r\n|\r|\n)")


class Token(Record):
    def __init__(self, kind: str, text: str, span: SourceSpan):
        """``kind`` is "ident", "int", "string", "eol" or the punctuation
        itself."""
        _set(self, "kind", kind)
        _set(self, "text", text)
        _set(self, "span", span)


def _lex_line(line: str, line_no: int, line_offset: int) -> tuple[list[Token], list[Diagnostic]]:
    """Tokenize one line; ``line_offset`` is the line's byte offset.  Columns
    count characters; offsets and lengths count UTF-8 bytes, a lone surrogate
    as three."""
    tokens: list[Token] = []
    errors: list[Diagnostic] = []
    offset = line_offset
    for match in _TOKEN.finditer(line):
        kind, text = match.lastgroup, match.group()
        size = len(text.encode("utf-8", "surrogatepass"))
        if kind == "unterminated":
            errors.append(Diagnostic(SourceSpan(line_no, match.start() + 1, offset),
                                     "unterminated string"))
        elif kind == "unexpected":
            errors.append(Diagnostic(SourceSpan(line_no, match.start() + 1, offset, size),
                                     f"unexpected character {text!r}"))
        elif kind is not None:
            tokens.append(Token(text if kind == "punct" else kind, match.group(kind),
                                SourceSpan(line_no, match.start() + 1, offset, size)))
        offset += size
    tokens.append(Token("eol", "", SourceSpan(line_no, len(line) + 1, offset)))
    return tokens, errors


class _LineSyntaxError(Exception):
    def __init__(self, diagnostic: Diagnostic):
        self.diagnostic = diagnostic


class _Cursor:
    def __init__(self, tokens: list[Token]):
        self.tokens = tokens
        self.pos = 0
        self.depth = 0

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

    def enter(self):
        """Open one more level of nesting (the caller closes it by
        decrementing ``depth``)."""
        if self.depth == MAX_NESTING:
            self.fail(f"nesting deeper than {MAX_NESTING} levels")
        self.depth += 1


# -- raw per-line records (phase A output) ----------------------------------------


class _RawVar(Record, frozen=False):
    def __init__(self, name: str, span: SourceSpan, kind: str, values: tuple[int, ...],
                 body: Optional[Expr] = None, refs: tuple[tuple[str, SourceSpan], ...] = ()):
        super().__init__(name, span, kind, values, body, refs)


class _RawTypical(Record, frozen=False):
    def __init__(self, name: str, span: SourceSpan, ranking: tuple[int, ...]):
        super().__init__(name, span, ranking)


class _RawSeverity(Record, frozen=False):
    def __init__(self, span: SourceSpan, chain: tuple[tuple[str, int, SourceSpan], ...]):
        super().__init__(span, chain)


class _RawBehavior(Record, frozen=False):
    def __init__(self, name: str, span: SourceSpan, behaviors: tuple[tuple[str, Expr], ...],
                 refs: tuple[tuple[str, SourceSpan], ...]):
        super().__init__(name, span, behaviors, refs)


class _RawNorm(Record, frozen=False):
    def __init__(self, left: tuple[tuple[str, int, SourceSpan], ...], op: str,
                 right: tuple[tuple[str, int, SourceSpan], ...], span: SourceSpan):
        super().__init__(left, op, right, span)


class _RawContext(Record, frozen=False):
    def __init__(self, name: str, span: SourceSpan,
                 items: tuple[tuple[str, int, SourceSpan], ...]):
        super().__init__(name, span, items)


class _RawQuery(Record, frozen=False):
    def __init__(self, kind: str, span: SourceSpan, context: tuple[str, SourceSpan],
                 causes: tuple[tuple[tuple[str, int, SourceSpan], ...], ...] = (),
                 effect: Optional[BooleanFormula] = None,
                 effect_refs: tuple[tuple[str, int, SourceSpan], ...] = (),
                 interventions: tuple[tuple[str, int, SourceSpan], ...] = ()):
        super().__init__(kind, span, context, causes, effect, effect_refs, interventions)


# -- per-line parsers --------------------------------------------------------------


def _int(token: Token) -> int:
    try:
        return int(token.text)
    except ValueError:  # more digits than sys.get_int_max_str_digits()
        raise _LineSyntaxError(
            Diagnostic(token.span, "integer literal has too many digits")) from None


def _parse_int_value(cur: _Cursor) -> int:
    if cur.accept("-"):
        return -_int(cur.expect("int", "integer"))
    return _int(cur.expect("int", "integer"))


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

    # Each operator of a chain opens one level of nesting: the chain parses to
    # a left-deep tree that deep, and the tree is walked recursively.

    def _additive(self) -> Expr:
        cur = self.cur
        node = self._multiplicative()
        opened = 0
        while cur.peek().kind in ("+", "-"):
            cur.enter()
            opened += 1
            node = BinOp(cur.next().kind, node, self._multiplicative())
        cur.depth -= opened
        return node

    def _multiplicative(self) -> Expr:
        cur = self.cur
        node = self._atom()
        opened = 0
        while cur.peek().kind == "*":
            cur.enter()
            opened += 1
            node = BinOp(cur.next().kind, node, self._atom())
        cur.depth -= opened
        return node

    def _atom(self) -> Expr:
        cur = self.cur
        token = cur.peek()
        if token.kind == "int":
            cur.next()
            return Const(_int(token))
        if token.kind == "(":
            cur.enter()
            cur.next()
            node = self._additive()
            cur.expect(")")
            cur.depth -= 1
            return node
        if token.kind == "ident":
            if token.text in ("min", "max"):
                cur.enter()
                cur.next()
                cur.expect("(")
                left = self._additive()
                cur.expect(",")
                right = self._additive()
                cur.expect(")")
                cur.depth -= 1
                return BinOp(token.text, left, right)
            if token.text == "ite":
                cur.enter()
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
                cur.depth -= 1
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


def _parse_events(cur: _Cursor, op: str,
                  sep: str) -> tuple[tuple[str, int, SourceSpan], ...]:
    """``name op value (sep name op value)*``: contexts, world literals,
    severity chains, candidate causes and intervention prefixes."""
    items = []
    while True:
        name = _parse_name(cur, "variable name")
        cur.expect(op)
        items.append((name.text, _parse_int_value(cur), name.span))
        if not cur.accept(sep):
            return tuple(items)


def _parse_world_literal(cur: _Cursor) -> tuple[tuple[str, int, SourceSpan], ...]:
    cur.expect("(")
    items = _parse_events(cur, "=", ",")
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
        cur = self.cur
        if cur.peek().kind in ("!", "("):
            cur.enter()
            if cur.accept("!"):
                node = Negation(self._negation())
            else:
                cur.next()
                node = self._disjunction()
                cur.expect(")")
            cur.depth -= 1
            return node
        name = _parse_name(cur, "variable name")
        cur.expect("=")
        value = _parse_int_value(cur)
        self.refs.append((name.text, value, name.span))
        return PrimitiveEvent(name.text, value)


def _parse_query_line(cur: _Cursor, keyword: Token) -> _RawQuery:
    kind = keyword.text
    causes: list[tuple[tuple[str, int, SourceSpan], ...]] = []
    interventions: tuple[tuple[str, int, SourceSpan], ...] = ()
    body, parser = None, _BodyParser(cur)
    if kind == "satisfies":
        if cur.accept("["):
            if cur.peek().kind != "]":
                interventions = _parse_events(cur, "<-", ",")
            cur.expect("]")
        # The brackets that format_formula puts around a body are not
        # counted, so that a body at the nesting cap round-trips.
        enclosed = cur.peek().kind == "("
        cur.depth -= enclosed
        body = parser.parse()
        cur.depth += enclosed
    elif kind in ("cause", "witnesses", "grade"):
        if kind == "grade":
            cur.expect("{")
            causes.append(_parse_events(cur, "=", "&"))
            while cur.accept(","):
                causes.append(_parse_events(cur, "=", "&"))
            cur.expect("}")
        else:
            causes.append(_parse_events(cur, "=", "&"))
        for_token = cur.expect("ident", "'for'")
        if for_token.text != "for":
            raise _LineSyntaxError(Diagnostic(for_token.span, "expected 'for'"))
        body = parser.parse()
    cur.expect("@")
    ctx = _parse_name(cur, "context name")
    cur.expect_end()
    return _RawQuery(
        kind, keyword.span, (ctx.text, ctx.span), causes=tuple(causes),
        effect=body, effect_refs=tuple(parser.refs), interventions=interventions,
    )


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
                chain = _parse_events(cur, "=", "<")
                cur.expect_end()
                self.severities.append(_RawSeverity(keyword.span, chain))
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
                items = _parse_events(cur, "=", ",")
                cur.expect_end()
                self.contexts.append(_RawContext(name.text, name.span, items))
            elif keyword.text in _QUERY_KEYWORDS:
                self.queries.append(_parse_query_line(cur, keyword))
            else:
                self.error(keyword.span, f"unknown keyword {keyword.text!r}")
        except _LineSyntaxError as exc:
            self.errors.append(exc.diagnostic)

    # phase B: cross-line checks and assembly ---------------------------------

    def build(self) -> Optional[ParsedDocument]:
        if self.errors:
            return None
        declared: set[str] = set()
        for raw in self.variables:
            if raw.name in declared:
                self.error(raw.span, f"variable {raw.name} declared twice")
            if len(set(raw.values)) != len(raw.values):
                self.error(raw.span, f"range of {raw.name} repeats a value")
            declared.add(raw.name)
        for raw in self.variables:
            for name, span in raw.refs:
                if name not in declared:
                    self.error(span, f"undeclared variable {name}")
        if self.errors:
            return None

        model = CausalModel(
            [Variable(raw.name, raw.kind, raw.values) for raw in self.variables],
            [Equation(raw.name, raw.body) for raw in self.variables
             if raw.kind == ENDOGENOUS],
        )

        # typicality section: its rules are normality's
        typicality = None
        if self.typicals or self.severities or self.behaviors or self.mechanism:
            from .normality import (
                Behavior, BehaviorRanking, TypicalitySpec, ValueRanking, _spec_faults)

            typicality = TypicalitySpec(
                value_rankings=tuple(ValueRanking(raw.name, raw.ranking)
                                     for raw in self.typicals),
                severity_chains=tuple(tuple((n, v) for n, v, _ in raw.chain)
                                      for raw in self.severities),
                mechanism=self.mechanism is not None and self.mechanism[0],
                behavior_rankings=tuple(
                    BehaviorRanking(raw.name, tuple(Behavior(label, body)
                                                    for label, body in raw.behaviors))
                    for raw in self.behaviors
                ),
            )
            for place, message in _spec_faults(model, typicality):
                self.error(self._spec_span(place), message)

        # explicit norm relations: their order's rule is normality's
        norms = []
        located = len(self.errors)
        for raw in self.norms:
            sides = []
            for side in (raw.left, raw.right):
                world = _events(side, model, "a norm world", "world assigns {} twice",
                                self.errors)
                missing = [n for n in model.endogenous if n not in world]
                if missing:
                    self.error(raw.span,
                               f"norm world is missing variables: {', '.join(missing)}")
                sides.append(world)
            norms.append((sides[0], raw.op, sides[1]))
        if norms and typicality is not None:
            self.error(self.norms[0].span, _BOTH_SOURCES)
        elif norms and len(self.errors) == located:
            from .normality import _explicit_closure

            stated = [(model.world(a), op, model.world(b)) for a, op, b in norms]
            for i, message in _explicit_closure(model, stated)[1]:
                self.error(self.norms[i].span, message)

        # contexts
        contexts: dict[str, dict[str, int]] = {}
        for raw in self.contexts:
            if raw.name in contexts:
                self.error(raw.span, f"context {raw.name} declared twice")
                continue
            assignment = contexts[raw.name] = _events(
                raw.items, model, "context", "context assigns {} twice", self.errors,
                EXOGENOUS)
            missing = [n for n in model.exogenous if n not in assignment]
            if missing:
                self.error(raw.span,
                           f"context {raw.name} is missing exogenous variables: "
                           f"{', '.join(missing)}")

        # queries
        queries = [_check_query(raw, model, contexts, self.errors)
                   for raw in self.queries]

        if self.errors:
            return None
        return ParsedDocument(
            model=model,
            typicality=typicality,
            explicit_norms=tuple(norms),
            contexts=contexts,
            queries=tuple(queries),
        )

    def _spec_span(self, place: tuple) -> SourceSpan:
        """Where a fault of the typicality spec sits in the source."""
        section, i = place[:2]
        if section == "ranking":
            return self.typicals[i].span
        if section == "behavior":
            return self.behaviors[i].span
        if section == "reference":
            return next(span for name, span in self.behaviors[i].refs if name == place[2])
        raw = self.severities[i]
        return raw.span if place[2] is None else raw.chain[place[2]][2]


def parse_document(text: str) -> ParsedDocument:
    """Parse a full document; raises DslError carrying every diagnostic,
    sorted by position."""
    builder = _DocumentBuilder()
    offset = 0
    parts = _LINE_BREAK.split(text)  # lines, with the break after each between
    for line_no, (line, line_break) in enumerate(
            zip(parts[::2], parts[1::2] + [""]), start=1):
        tokens, errors = _lex_line(line, line_no, offset)
        builder.errors.extend(errors)
        builder.add_line(tokens)
        offset = tokens[-1].span.offset + len(line_break)  # eol ends the line
    document = builder.build()
    if document is None:
        raise DslError(sorted(builder.errors, key=_position))
    return document


def parse_query(text: str, document: Optional[ParsedDocument] = None) -> Query:
    """Parse one query line; checked against the document when given."""
    tokens, lex_errors = _lex_line(text.replace("\n", " "), 1, 0)
    if lex_errors:
        raise DslError(lex_errors)
    cur = _Cursor(tokens)
    keyword = cur.peek()
    if keyword.kind != "ident" or keyword.text not in _QUERY_KEYWORDS:
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


def _check_query(raw: _RawQuery, model: Optional[CausalModel],
                 context_names: Container[str],
                 errors: list[Diagnostic]) -> Optional[Query]:
    """Check a raw query line against the model and the context names and
    build it; returns None when the line has faults, each appended to errors
    as a diagnostic.  Without a model only the shape of the candidate causes
    and of the intervention prefix is checked."""
    count = len(errors)
    ctx_name, ctx_span = raw.context
    if model is not None and ctx_name not in context_names:
        errors.append(Diagnostic(ctx_span, f"unknown context {ctx_name}"))
    _events(raw.effect_refs, model, "a formula", "", errors)
    interventions = _events(raw.interventions, model, "an intervention",
                            "intervention repeats variable {}", errors)
    conjunctions = [_events(refs, model, "a candidate cause",
                            "candidate cause repeats variable {}", errors)
                    for refs in raw.causes]
    if len(errors) > count:
        return None
    causes = [CandidateCause(tuple(PrimitiveEvent(*e) for e in found.items()))
              for found in conjunctions]
    if raw.kind == "solve":
        return SolveQuery(ctx_name)
    if raw.kind == "satisfies":
        return SatisfiesQuery(CausalFormula(tuple(interventions.items()), raw.effect),
                              ctx_name)
    if raw.kind == "cause":
        return CauseQuery(causes[0], raw.effect, ctx_name)
    if raw.kind == "witnesses":
        return WitnessQuery(causes[0], raw.effect, ctx_name)
    return GradeQuery(tuple(causes), raw.effect, ctx_name)


def _events(refs, model: Optional[CausalModel], where: str, repeat: str,
            errors: list[Diagnostic], kind: str = ENDOGENOUS) -> dict[str, int]:
    """The events of a list, each ``(name, value, span)``, that keep the event
    rule for ``kind`` (checked only given a model) and, when ``repeat`` is a
    message, do not repeat a variable; each fault is appended to errors,
    ``repeat`` formatted with the repeated name."""
    found: dict[str, int] = {}
    for name, value, span in refs:
        fault = None if model is None else _event_fault(model, name, value, where, kind)
        if fault is None and repeat and name in found:
            fault = repeat.format(name)
        if fault is not None:
            errors.append(Diagnostic(span, fault))
            continue
        found[name] = value
    return found


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
