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
word characters) and punctuation.  The lexer makes each token a plain
``(kind, text, line, column, offset, size)`` tuple: columns count
characters, offsets and sizes UTF-8 bytes of the text as passed, and
``SourceSpan(*token[2:])`` is the token's span.  The parse keeps tokens as
its only locations (declared names, keywords, references, events, a query's
context) and builds a span only for a diagnostic, so a valid document builds
none.

Each line is read by one ``_LineParser``, a recursive-descent parser that is
both the cursor over the line's tokens and the grammar; its ``items`` reads
every ``item (sep item)*`` list.  An operator chain such as ``a + b + c``
parses to a left-deep tree, which the validator and the solver walk
recursively, so ``_chain`` counts one level of nesting per operator against
``MAX_NESTING``, as it does each bracket, negation and call.
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
    from .normality import BehaviorRanking, NormalityOrder, TypicalitySpec, ValueRanking

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
    # (explicit_norms, order): the order the parse closed to locate
    # contradictions, returned while its relations and model are the fields.
    _closed = None

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
            closed = self._closed
            if closed and closed[0] is self.explicit_norms and closed[1].model is self.model:
                self.model.require_valid()
                return closed[1]
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


def _lex_line(line: str, line_no: int, line_offset: int) -> tuple[list[tuple], list[Diagnostic]]:
    """Tokenize one line, the last token of kind "eol"; ``line_offset`` is
    the line's byte offset.  ``kind`` is "ident", "int", "string" or the
    punctuation itself; a lone surrogate counts three bytes."""
    tokens: list[tuple] = []
    errors: list[Diagnostic] = []
    offset = line_offset
    one_byte = line.isascii()  # then each character is one UTF-8 byte
    for match in _TOKEN.finditer(line):
        kind, text = match.lastgroup, match.group()
        size = len(text) if one_byte else len(text.encode("utf-8", "surrogatepass"))
        if kind == "unterminated":
            errors.append(Diagnostic(SourceSpan(line_no, match.start() + 1, offset),
                                     "unterminated string"))
        elif kind == "unexpected":
            errors.append(Diagnostic(SourceSpan(line_no, match.start() + 1, offset, size),
                                     f"unexpected character {text!r}"))
        elif kind is not None:
            tokens.append((text if kind == "punct" else kind, match.group(kind), line_no,
                           match.start() + 1, offset, size))
        offset += size
    tokens.append(("eol", "", line_no, len(line) + 1, offset, 1))
    return tokens, errors


# -- raw per-line records (phase A output) ----------------------------------------


class _RawVar(Record, frozen=False):
    def __init__(self, name: str, token: tuple, kind: str, values: tuple[int, ...],
                 body: Optional[Expr] = None, refs: tuple[tuple, ...] = ()):
        super().__init__(name, token, kind, values, body, refs)


_Event = tuple[str, int, tuple]  # name, value, the name's token


class _RawNorm(Record, frozen=False):
    def __init__(self, left: tuple[_Event, ...], op: str, right: tuple[_Event, ...],
                 token: tuple):
        super().__init__(left, op, right, token)


class _RawContext(Record, frozen=False):
    def __init__(self, name: str, token: tuple, items: tuple[_Event, ...]):
        super().__init__(name, token, items)


class _RawQuery(Record, frozen=False):
    def __init__(self, kind: str, context: tuple,
                 causes: tuple[tuple[_Event, ...], ...] = (),
                 effect: Optional[BooleanFormula] = None, effect_refs: tuple[_Event, ...] = (),
                 interventions: tuple[_Event, ...] = ()):
        super().__init__(kind, context, causes, effect, effect_refs, interventions)


# -- the line parser ---------------------------------------------------------------


class _LineParser:
    """Recursive descent over one line's tokens: the cursor, then the grammar.
    ``refs`` collects the line's references: name tokens in equation bodies,
    events in formula bodies."""

    def __init__(self, tokens: list[tuple]):
        self.tokens = tokens
        self.pos = 0
        self.depth = 0
        self.refs: list[tuple] = []

    # the cursor -------------------------------------------------------------

    def peek(self) -> tuple:
        return self.tokens[self.pos]

    def next(self) -> tuple:
        token = self.tokens[self.pos]
        if token[0] != "eol":
            self.pos += 1
        return token

    def accept(self, kind: str) -> Optional[tuple]:
        if self.tokens[self.pos][0] == kind:
            return self.next()
        return None

    def expect(self, kind: str, what: str = "") -> tuple:
        token = self.tokens[self.pos]
        if token[0] != kind:
            self.fail(f"expected {what or kind}, found {token[1] or 'end of line'!r}")
        return self.next()

    def expect_end(self):
        token = self.peek()
        if token[0] != "eol":
            self.fail(f"unexpected trailing input {token[1]!r}")

    def fail(self, message: str, token: Optional[tuple] = None):
        """Raise a diagnostic at ``token``, by default the next one."""
        raise DslError([Diagnostic(SourceSpan(*(token or self.peek())[2:]), message)])

    def enter(self):
        """Open one more level of nesting (the caller closes it by
        decrementing ``depth``)."""
        if self.depth == MAX_NESTING:
            self.fail(f"nesting deeper than {MAX_NESTING} levels")
        self.depth += 1

    def items(self, sep: str, parse, *args) -> list:
        """``item (sep item)*``, each item read by ``parse(*args)``."""
        found = [parse(*args)]
        while self.accept(sep):
            found.append(parse(*args))
        return found

    # words, integers and events -------------------------------------------------

    def word(self, words: Container[str], what: str) -> tuple:
        """A name among ``words``, which ``what`` spells out."""
        token = self.expect("ident", what)
        if token[1] not in words:
            self.fail(f"expected {what}", token)
        return token

    def name(self, what: str) -> tuple:
        token = self.expect("ident", what)
        if token[1] in RESERVED:
            self.fail(f"{token[1]!r} is a reserved word", token)
        return token

    def int_value(self) -> int:
        sign = -1 if self.accept("-") else 1
        token = self.expect("int", "integer")
        try:
            return sign * int(token[1])
        except ValueError:  # more digits than sys.get_int_max_str_digits()
            self.fail("integer literal has too many digits", token)

    def int_range(self) -> tuple[int, ...]:
        self.expect("{")
        values = self.items(",", self.int_value)
        self.expect("}")
        return tuple(values)

    def events(self, op: str, sep: str) -> tuple[_Event, ...]:
        """``name op value (sep name op value)*``: contexts, world literals,
        severity chains, candidate causes and intervention prefixes."""
        return tuple(self.items(sep, self._event, op))

    def _event(self, op: str) -> _Event:
        name = self.name("variable name")
        self.expect(op)
        return name[1], self.int_value(), name

    def world(self) -> tuple[_Event, ...]:
        self.expect("(")
        items = self.events("=", ",")
        self.expect(")")
        return items

    # equation bodies ------------------------------------------------------------

    def expr(self) -> Expr:
        """A ``+ -`` chain of ``*`` chains of atoms."""
        return self._chain(("+", "-"), self._chain, ("*",), self._atom)

    def _chain(self, ops: tuple[str, ...], operand, *args) -> Expr:
        # Each operator opens one level of nesting: the chain parses to a
        # left-deep tree that deep, and the tree is walked recursively.
        node = operand(*args)
        opened = 0
        while self.peek()[0] in ops:
            self.enter()
            opened += 1
            node = BinOp(self.next()[0], node, operand(*args))
        self.depth -= opened
        return node

    def _atom(self) -> Expr:
        kind, text = self.peek()[:2]
        if kind == "int":
            return Const(self.int_value())
        if kind == "(":
            self.enter()
            self.next()
            node = self.expr()
            self.expect(")")
            self.depth -= 1
            return node
        if kind == "ident":
            if text in ("min", "max"):
                return BinOp(text, *self._call(","))
            if text == "ite":
                return Ite(*self._call("==", ",", ","))
            if text == "table":
                return self._table()
            if text in RESERVED:
                self.fail(f"{text!r} is a reserved word")
            self.refs.append(self.next())
            return Ref(text)
        self.fail("expected an expression")

    def _call(self, *separators: str) -> list[Expr]:
        """``name(expr sep expr ...)``, one separator between each two
        arguments; the call is one level of nesting."""
        self.enter()
        self.next()
        self.expect("(")
        args = [self.expr()]
        for sep in separators:
            self.expect(sep)
            args.append(self.expr())
        self.expect(")")
        self.depth -= 1
        return args

    def _table(self) -> Expr:
        self.next()  # "table"
        self.expect("(")
        args = self.items(",", self.name, "argument name")
        self.expect(")")
        self.refs.extend(args)
        self.expect("{")
        rows = self.items(",", self._row, len(args))
        self.expect("}")
        return Table(tuple(token[1] for token in args), tuple(rows))

    def _row(self, width: int) -> tuple[tuple[int, ...], int]:
        opening = self.expect("(")
        key = self.items(",", self.int_value)
        self.expect(")")
        self.expect("->")
        value = self.int_value()
        if len(key) != width:
            self.fail(f"table row has {len(key)} values for {width} arguments", opening)
        return tuple(key), value

    def behavior(self) -> tuple[str, Expr]:
        label = self.expect("string", "behavior label")
        self.expect("=")
        return label[1], self.expr()

    # formula bodies: ! binds tightest, then &, then | -------------------------

    def formula(self) -> BooleanFormula:
        operands = self.items("|", self._conjunction)
        return operands[0] if len(operands) == 1 else Disjunction(tuple(operands))

    def _conjunction(self) -> BooleanFormula:
        operands = self.items("&", self._negation)
        return operands[0] if len(operands) == 1 else Conjunction(tuple(operands))

    def _negation(self) -> BooleanFormula:
        if self.peek()[0] in ("!", "("):
            self.enter()
            if self.accept("!"):
                node = Negation(self._negation())
            else:
                self.next()
                node = self.formula()
                self.expect(")")
            self.depth -= 1
            return node
        event = self._event("=")
        self.refs.append(event)
        return PrimitiveEvent(*event[:2])

    # query lines ----------------------------------------------------------------

    def query(self, keyword: tuple) -> _RawQuery:
        """The rest of a query line after its keyword."""
        kind = keyword[1]
        causes: list[tuple[_Event, ...]] = []
        interventions: tuple[_Event, ...] = ()
        body = None
        if kind == "satisfies":
            if self.accept("["):
                if self.peek()[0] != "]":
                    interventions = self.events("<-", ",")
                self.expect("]")
            # The brackets that format_formula puts around a body are not
            # counted, so that a body at the nesting cap round-trips.
            enclosed = self.peek()[0] == "("
            self.depth -= enclosed
            body = self.formula()
            self.depth += enclosed
        elif kind != "solve":
            if kind == "grade":
                self.expect("{")
                causes = self.items(",", self.events, "=", "&")
                self.expect("}")
            else:
                causes = [self.events("=", "&")]
            self.word(("for",), "'for'")
            body = self.formula()
        self.expect("@")
        ctx = self.name("context name")
        self.expect_end()
        return _RawQuery(kind, ctx, causes=tuple(causes), effect=body,
                         effect_refs=tuple(self.refs), interventions=interventions)


# -- document assembly --------------------------------------------------------------


class _DocumentBuilder:
    def __init__(self):
        self.errors: list[Diagnostic] = []
        self.variables: list[_RawVar] = []
        self.rankings: list[ValueRanking] = []
        self.chains: list[tuple[tuple[str, int], ...]] = []
        self.mechanism: Optional[bool] = None
        self.behaviors: list[BehaviorRanking] = []
        # Where each typicality declaration sits, by the place that
        # ``normality._spec_faults`` gives its faults.
        self.places: dict[tuple, tuple] = {}
        self.norms: list[_RawNorm] = []
        self.contexts: list[_RawContext] = []
        self.queries: list[_RawQuery] = []

    def error(self, token: tuple, message: str):
        self.errors.append(Diagnostic(SourceSpan(*token[2:]), message))

    # phase A: one line ------------------------------------------------------

    def add_line(self, line: _LineParser):
        if line.peek()[0] == "eol":
            return
        try:
            keyword = line.expect("ident", "a declaration or query keyword")
            word = keyword[1]
            if word in ("exo", "var"):
                name = line.name("variable name")
                line.expect(":")
                values = line.int_range()
                body = None
                if word == "var":
                    line.expect("=")
                    body = line.expr()
                line.expect_end()
                kind = EXOGENOUS if word == "exo" else ENDOGENOUS
                self.variables.append(_RawVar(name[1], name, kind, values, body,
                                              tuple(line.refs)))
            elif word == "typical":
                name = line.name("variable name")
                line.expect("=")
                ranking = line.items(">", line.int_value)
                line.expect_end()
                from .normality import ValueRanking

                self.places["ranking", len(self.rankings)] = name
                self.rankings.append(ValueRanking(name[1], tuple(ranking)))
            elif word == "severity":
                chain = line.events("=", "<")
                line.expect_end()
                i = len(self.chains)
                self.places["severity", i, None] = keyword
                for j, event in enumerate(chain):
                    self.places["severity", i, j] = event[2]
                self.chains.append(tuple(event[:2] for event in chain))
            elif word == "mechanism":
                token = line.word(("on", "off"), "'on' or 'off'")
                line.expect_end()
                if self.mechanism is not None:
                    self.error(token, "mechanism declared twice")
                self.mechanism = token[1] == "on"
            elif word == "behavior":
                name = line.name("variable name")
                line.expect(":")
                behaviors = line.items(">", line.behavior)
                line.expect_end()
                from .normality import Behavior, BehaviorRanking

                i = len(self.behaviors)
                self.places["behavior", i] = name
                for ref in line.refs:
                    self.places.setdefault(("reference", i, ref[1]), ref)
                self.behaviors.append(BehaviorRanking(
                    name[1], tuple(Behavior(*behavior) for behavior in behaviors)))
            elif word == "norm":
                left = line.world()
                op = line.accept("==") or line.accept(">")
                if op is None:
                    line.fail("expected '>' or '==' between worlds")
                right = line.world()
                line.expect_end()
                self.norms.append(_RawNorm(left, op[0], right, keyword))
            elif word == "context":
                name = line.name("context name")
                line.expect(":")
                items = line.events("=", ",")
                line.expect_end()
                self.contexts.append(_RawContext(name[1], name, items))
            elif word in _QUERY_KEYWORDS:
                self.queries.append(line.query(keyword))
            else:
                self.error(keyword, f"unknown keyword {word!r}")
        except DslError as exc:
            self.errors.extend(exc.diagnostics)

    # phase B: cross-line checks and assembly ---------------------------------

    def build(self) -> Optional[ParsedDocument]:
        if self.errors:
            return None
        declared: set[str] = set()
        for raw in self.variables:
            if raw.name in declared:
                self.error(raw.token, f"variable {raw.name} declared twice")
            if len(set(raw.values)) != len(raw.values):
                self.error(raw.token, f"range of {raw.name} repeats a value")
            declared.add(raw.name)
        for raw in self.variables:
            for token in raw.refs:
                if token[1] not in declared:
                    self.error(token, f"undeclared variable {token[1]}")
        if self.errors:
            return None

        model = CausalModel(
            [Variable(raw.name, raw.kind, raw.values) for raw in self.variables],
            [Equation(raw.name, raw.body) for raw in self.variables
             if raw.kind == ENDOGENOUS],
        )

        # typicality section: its rules are normality's
        typicality = None
        if self.rankings or self.chains or self.behaviors or self.mechanism is not None:
            from .normality import TypicalitySpec, _spec_faults

            typicality = TypicalitySpec(
                value_rankings=tuple(self.rankings),
                severity_chains=tuple(self.chains),
                mechanism=bool(self.mechanism),
                behavior_rankings=tuple(self.behaviors),
            )
            for place, message in _spec_faults(model, typicality):
                self.error(self.places[place], message)

        # explicit norm relations: their order's rule is normality's
        norms, order = [], None
        located = len(self.errors)
        for raw in self.norms:
            sides = []
            for side in (raw.left, raw.right):
                world = _events(side, model, "a norm world", "world assigns {} twice",
                                self.errors)
                missing = [n for n in model.endogenous if n not in world]
                if missing:
                    self.error(raw.token,
                               f"norm world is missing variables: {', '.join(missing)}")
                sides.append(world)
            norms.append((sides[0], raw.op, sides[1]))
        if norms and typicality is not None:
            self.error(self.norms[0].token, _BOTH_SOURCES)
        elif norms and len(self.errors) == located:
            from .normality import _explicit_closure

            stated = [(model.world(a), op, model.world(b)) for a, op, b in norms]
            order, faults = _explicit_closure(model, stated)
            for i, message in faults:
                self.error(self.norms[i].token, message)

        # contexts
        contexts: dict[str, dict[str, int]] = {}
        for raw in self.contexts:
            if raw.name in contexts:
                self.error(raw.token, f"context {raw.name} declared twice")
                continue
            assignment = contexts[raw.name] = _events(
                raw.items, model, "context", "context assigns {} twice", self.errors,
                EXOGENOUS)
            missing = [n for n in model.exogenous if n not in assignment]
            if missing:
                self.error(raw.token,
                           f"context {raw.name} is missing exogenous variables: "
                           f"{', '.join(missing)}")

        # queries
        queries = [_check_query(raw, model, contexts, self.errors)
                   for raw in self.queries]

        if self.errors:
            return None
        document = ParsedDocument(
            model=model,
            typicality=typicality,
            explicit_norms=tuple(norms),
            contexts=contexts,
            queries=tuple(queries),
        )
        if order is not None:
            document._closed = (document.explicit_norms, order)
        return document


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
        builder.add_line(_LineParser(tokens))
        offset = tokens[-1][4] + len(line_break)  # eol ends the line
    document = builder.build()
    if document is None:
        raise DslError(sorted(builder.errors, key=_position))
    return document


def parse_query(text: str, document: Optional[ParsedDocument] = None) -> Query:
    """Parse one query line; checked against the document when given."""
    tokens, lex_errors = _lex_line(text.replace("\n", " "), 1, 0)
    if lex_errors:
        raise DslError(lex_errors)
    line = _LineParser(tokens)
    keyword = line.peek()
    if keyword[0] != "ident" or keyword[1] not in _QUERY_KEYWORDS:
        line.fail("expected a query keyword")
    line.next()
    raw = line.query(keyword)
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
    ctx_name = raw.context[1]
    if model is not None and ctx_name not in context_names:
        errors.append(Diagnostic(SourceSpan(*raw.context[2:]), f"unknown context {ctx_name}"))
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


def _events(refs: tuple[_Event, ...], model: Optional[CausalModel], where: str, repeat: str,
            errors: list[Diagnostic], kind: str = ENDOGENOUS) -> dict[str, int]:
    """The events of a list that keep the event rule for ``kind`` (checked
    only given a model) and, when ``repeat`` is a message, do not repeat a
    variable; each fault is appended to errors, at a span built from the
    event's token, ``repeat`` formatted with the repeated name."""
    found: dict[str, int] = {}
    for name, value, token in refs:
        fault = None if model is None else _event_fault(model, name, value, where, kind)
        if fault is None and repeat and name in found:
            fault = repeat.format(name)
        if fault is not None:
            errors.append(Diagnostic(SourceSpan(*token[2:]), fault))
            continue
        found[name] = value
    return found


# -- query text ------------------------------------------------------------------


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
