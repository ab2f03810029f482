"""Parsing, diagnostics, spans, queries, and the round-trip printer."""

import itertools
import random

import pytest
from hypothesis import given, settings, strategies as st

from actualcause import (
    ActualCauseError,
    Behavior,
    BehaviorRanking,
    BinOp,
    CausalFormula,
    Const,
    FormulaError,
    ModelError,
    NormalityError,
    PrimitiveEvent,
    Ref,
    TypicalitySpec,
    ValueRanking,
    World,
    derive_from_typicality,
    explicit_order,
    intervene,
    satisfies,
    solve,
)
from actualcause.corpus import fixture_dir, fixture_path
from actualcause.dsl import (
    MAX_NESTING,
    CauseQuery,
    DslError,
    GradeQuery,
    ParsedDocument,
    SatisfiesQuery,
    SolveQuery,
    SourceSpan,
    WitnessQuery,
    _lex_line,
    format_query,
    parse_document,
    parse_query,
)
from actualcause.formula import compile_body
from actualcause.printer import pretty_print

ALL_FIXTURES = sorted(path.name for path in fixture_dir().glob("*.scm.txt"))


def test_forest_fire_equation_shape(documents):
    model = documents["forest_fire_disjunctive.scm.txt"].model
    assert model.equations["F"].body == BinOp("max", Ref("L"), Ref("M"))


def test_undeclared_reference_has_span():
    text = "var F : {0,1} = max(L, M)\n"
    with pytest.raises(DslError) as excinfo:
        parse_document(text)
    messages = [str(d) for d in excinfo.value.diagnostics]
    assert any("undeclared variable L" in m for m in messages)
    spans = [d.span for d in excinfo.value.diagnostics]
    assert all(s.line == 1 and 1 <= s.column <= len(text) for s in spans)


def test_spans_report_byte_offsets():
    text = "# café note\nvar F : {0,1} = max(L, M)\n"
    with pytest.raises(DslError) as excinfo:
        parse_document(text)
    blob = text.encode("utf-8")
    diag = next(d for d in excinfo.value.diagnostics
                if "undeclared variable L" in d.message)
    assert blob[diag.span.offset:diag.span.offset + diag.span.length] == b"L"
    assert diag.span.line == 2


def test_all_errors_versus_first_error():
    text = "var F : {0,1} = max(L, M)\nvar G : {0,1} = Q\n"
    with pytest.raises(DslError) as all_errors:
        parse_document(text)
    assert len(all_errors.value.diagnostics) >= 3
    first = all_errors.value.diagnostics[0]
    assert (first.span.line, first.span.column) == min(
        (d.span.line, d.span.column) for d in all_errors.value.diagnostics
    )


def test_legal_severity_chain_parsed(documents):
    spec = documents["legal_fire.scm.txt"].typicality
    assert spec.severity_chains == ((("BC", 1), ("AN", 1), ("BM", 1)),)


def test_behavior_section_parsed(documents):
    spec = documents["short_circuit.scm.txt"].typicality
    assert spec.mechanism
    ranking = spec.behaviors_for("P")
    assert [b.label for b in ranking.behaviors] == [
        "no poison", "mirrors antidote", "poison regardless",
    ]


def test_context_must_cover_exogenous():
    text = (
        "exo U1 : {0,1}\nexo U2 : {0,1}\n"
        "var X : {0,1} = U1\n"
        "context c : U1=1\n"
    )
    with pytest.raises(DslError) as excinfo:
        parse_document(text)
    assert any("missing exogenous" in str(d) for d in excinfo.value.diagnostics)


def test_norm_world_must_be_total():
    text = (
        "exo U : {0,1}\n"
        "var X : {0,1} = U\nvar Y : {0,1} = X\n"
        "norm (X=0) > (X=1, Y=1)\n"
    )
    with pytest.raises(DslError) as excinfo:
        parse_document(text)
    assert any("missing variables" in str(d) for d in excinfo.value.diagnostics)


def test_behavior_requires_mechanism():
    text = (
        "exo U : {0,1}\n"
        "var X : {0,1} = U\n"
        'behavior X : "never" = 0 > "always" = 1\n'
    )
    with pytest.raises(DslError) as excinfo:
        parse_document(text)
    assert any("mechanism on" in str(d) for d in excinfo.value.diagnostics)


@pytest.mark.parametrize("text, expected", [
    ("exo A : {0,1}\nvar Y : {0,1} = table(A){(0) -> 1, (1, 0) -> 0}\n",
     "2:36: table row has 2 values for 1 arguments"),
    ("exo A : {0,1}\nvar Y : {0,1} = table(A){(0) -> 1, (1, 0) -> 0, (1) -> 0}\n",
     "2:36: table row has 2 values for 1 arguments"),
    ("exo U : {0,1}\nvar A : {0,1} = U\nnorm (A=0) < (A=1)\n",
     "3:12: expected '>' or '==' between worlds"),
    ("exo U : {0,1}\nvar A : {0,1} = U\nmechanism on\nmechanism on\n",
     "4:11: mechanism declared twice"),
    ("exo U : {0,1}\nvar A : {0,1} = U\nvar A : {0,1} = U\n",
     "3:5: variable A declared twice"),
    ("exo U : {0,1}\nvar A : {0,1} = U\ncontext c : U=1\ncontext c : U=0\n",
     "4:9: context c declared twice"),
], ids=["table-row-width", "table-row-width-middle", "norm-operator", "mechanism-twice",
        "variable-twice", "context-twice"])
def test_document_fault_is_one_located_diagnostic(text, expected):
    with pytest.raises(DslError) as excinfo:
        parse_document(text)
    assert [str(d) for d in excinfo.value.diagnostics] == [expected]


def test_table_expression_round_trip():
    text = (
        "exo U : {0,1}\n"
        "var X : {0,1} = U\n"
        "var Y : {0,2} = table(X){(0) -> 0, (1) -> 2}\n"
        "context c : U=1\n"
        "solve @ c\n"
    )
    doc = parse_document(text)
    printed = pretty_print(doc)
    assert "table(X){(0) -> 0, (1) -> 2}" in printed
    assert pretty_print(parse_document(printed)) == printed


def test_negative_values_parse():
    text = (
        "exo U : {-1,1}\n"
        "var X : {-1,1} = U\n"
        "context c : U=-1\n"
        "solve @ c\n"
    )
    doc = parse_document(text)
    assert doc.model.range_of("X") == (-1, 1)


def test_expression_precedence_and_parens():
    text = (
        "exo U : {0,1}\n"
        "var A : {0,1} = U\n"
        "var B : {0,1} = U\n"
        "var X : {0,1} = A * (1 - B)\n"
        "var Y : {0,3} = A + A + B\n"
        "context c : U=1\n"
    )
    doc = parse_document(text)
    printed = pretty_print(doc)
    assert "A * (1 - B)" in printed
    assert pretty_print(parse_document(printed)) == printed


@pytest.mark.parametrize("filename", ALL_FIXTURES)
def test_pretty_print_round_trip(filename):
    text = fixture_path(filename).read_text(encoding="utf-8")
    once = pretty_print(parse_document(text))
    assert pretty_print(parse_document(once)) == once


def test_newline_styles_agree():
    text = fixture_path("poisoning.scm.txt").read_text(encoding="utf-8")
    unix = parse_document(text)
    dos = parse_document(text.replace("\n", "\r\n"))
    assert pretty_print(unix) == pretty_print(dos)


_HEAD = ["exo U : {0,1}", "var G : {0,1} = U"]
_UNDECLARED_Q = "undeclared variable Q"

# Each site that builds a span from a token where the parse keeps it or
# raises it: the lines after a "# café" line, the one diagnostic's message,
# its (line, column) and the token it names.  The equation body keeps the
# ids the test had when it was the only case.
_SPAN_SITES = {
    "": (["exo U : {0,1}", "var G : {0,1} = Q"], _UNDECLARED_Q, (3, 17), "Q"),
    "table": (["exo U : {0,1}", "var G : {0,1} = table(U, Q){(0, 0) -> 0}"],
              _UNDECLARED_Q, (3, 26), "Q"),
    "behavior": ([*_HEAD, "mechanism on", 'behavior G : "off" = 0 > "on" = Q'],
                 _UNDECLARED_Q, (5, 33), "Q"),
    "norm": ([*_HEAD, "norm (G=0) > (G=1, Q=1)"], _UNDECLARED_Q, (4, 20), "Q"),
    "context": ([*_HEAD, "context c : U=1, Q=1"], _UNDECLARED_Q, (4, 18), "Q"),
    "severity": ([*_HEAD, "typical G = 0 > 1", "severity G=1 < Q=1"],
                 "severity feature Q=1 has no typicality ranking", (5, 16), "Q"),
    "cause": ([*_HEAD, "context c : U=1", "cause Q=1 for G=1 @ c"],
              _UNDECLARED_Q, (5, 7), "Q"),
    "intervention": ([*_HEAD, "context c : U=1", "satisfies [Q<-1](G=1) @ c"],
                     _UNDECLARED_Q, (5, 12), "Q"),
    "mechanism": ([*_HEAD, "mechanism on", "mechanism off"],
                  "mechanism declared twice", (5, 11), "off"),
    "keyword": ([*_HEAD, "frobnicate G"], "unknown keyword 'frobnicate'", (4, 1),
                "frobnicate"),
}


@pytest.mark.parametrize("newline, site", [
    pytest.param(newline, site, id="-".join(filter(None, (name, site))))
    for site in _SPAN_SITES
    for newline, name in (("\n", "lf"), ("\r\n", "crlf"), ("\r", "cr"))
])
def test_spans_slice_the_text_as_given_in_every_newline_style(newline, site):
    lines, message, position, token = _SPAN_SITES[site]
    text = newline.join(["# café", *lines, ""])
    with pytest.raises(DslError) as excinfo:
        parse_document(text)
    [diagnostic] = excinfo.value.diagnostics
    assert diagnostic.message == message
    span = diagnostic.span
    assert (span.line, span.column) == position
    assert text.encode("utf-8")[span.offset:span.offset + span.length] == token.encode()


def test_a_wide_table_builds_few_spans(monkeypatch):
    # A span is built only for a diagnostic, not per token.  A span per
    # token made 11,758 here.
    names = [f"A{i}" for i in range(6)]
    rows = ", ".join(f"({', '.join(map(str, key))}) -> {sum(key) % 3}"
                     for key in itertools.product(range(3), repeat=6))
    text = "".join(f"exo {name} : {{0,1,2}}\n" for name in names)
    text += f"var Y : {{0,1,2}} = table({', '.join(names)}){{{rows}}}\n"
    built = 0
    init = SourceSpan.__init__

    def counting_init(self, *args):
        nonlocal built
        built += 1
        init(self, *args)

    monkeypatch.setattr(SourceSpan, "__init__", counting_init)
    table = parse_document(text).model.equations["Y"].body
    assert len(table.rows) == 3 ** 6
    assert built < 100


def test_a_valid_document_builds_no_span(monkeypatch):
    # The parse keeps tokens as its locations and builds a span only for a
    # diagnostic: declared names, references, typicality places, norm
    # keywords, contexts and events cost none in a document without faults.
    n = 40
    lines = ["exo U : {0,1,2}", "var X0 : {0,1,2} = U"]
    lines += [f"var X{i} : {{0,1,2}} = max(X{i - 1}, table(U){{(0) -> 0, (1) -> 1, "
              f"(2) -> {i % 3}}})" for i in range(1, n)]
    lines += [f"typical X{i} = {i % 3} > {(i + 1) % 3} > {(i + 2) % 3}" for i in range(n)]
    lines += ["severity X1=2 < X2=0 < X3=1", "context c : U=1", "solve @ c",
              f"satisfies [X0<-2, X1<-0](X{n - 1}=2 | !X2=1) @ c",
              f"cause X1=1 & X2=1 for X{n - 1}=1 @ c", f"witnesses X3=1 for X{n - 1}=1 @ c",
              f"grade {{X1=1, X2=1}} for X{n - 1}=1 @ c"]
    texts = [fixture_path(name).read_text(encoding="utf-8") for name in ALL_FIXTURES]
    texts.append("\n".join(lines))
    built = 0
    init = SourceSpan.__init__

    def counting_init(self, *args):
        nonlocal built
        built += 1
        init(self, *args)

    monkeypatch.setattr(SourceSpan, "__init__", counting_init)
    for text in texts:
        document = parse_document(text)
        assert document.queries
        for query in document.queries:
            assert parse_query(format_query(query), document) == query
        if document.has_normality():
            document.normality_order()
    assert built == 0


# -- lexer ----------------------------------------------------------------------


def _lexed(line):
    tokens, errors = _lex_line(line, 1, 0)
    assert not errors
    return [(kind, text) for kind, text, *_ in tokens[:-1]]


def test_unexpected_character_span_counts_its_bytes():
    text = "exo U : {0,1}\nexo V§ : {0,1}\n"
    with pytest.raises(DslError) as excinfo:
        parse_document(text)
    [diagnostic] = excinfo.value.diagnostics
    assert str(diagnostic) == "2:6: unexpected character '§'"
    assert diagnostic.span == SourceSpan(2, 6, 19, 2)
    assert text.encode("utf-8")[19:21] == "§".encode("utf-8")


def test_unterminated_string_is_located_at_its_quote():
    tokens, errors = _lex_line('behavior P : "stays empty = 0', 4, 10)
    assert [str(e) for e in errors] == ["4:14: unterminated string"]
    assert errors[0].span == SourceSpan(4, 14, 23, 1)
    assert [token[0] for token in tokens] == ["ident", "ident", ":", "eol"]


def test_hash_inside_a_string_is_not_a_comment():
    assert _lexed('behavior P : "a # b" = 0 # note') == [
        ("ident", "behavior"), ("ident", "P"), (":", ":"), ("string", "a # b"),
        ("=", "="), ("int", "0"),
    ]


def test_digits_then_letters_lex_as_an_integer_then_a_name():
    assert _lexed("12abc") == [("int", "12"), ("ident", "abc")]


def test_two_character_punctuation_matches_first():
    assert _lexed("<->=== --> <<-") == [
        ("<-", "<-"), (">", ">"), ("==", "=="), ("=", "="), ("-", "-"),
        ("->", "->"), ("<", "<"), ("<-", "<-"),
    ]


@given(st.text(max_size=80))
@settings(max_examples=300, deadline=None)
def test_every_token_span_slices_its_source_text(line):
    tokens, _ = _lex_line(line, 3, 0)
    blob = line.encode("utf-8")
    for token in tokens[:-1]:
        kind, text = token[:2]
        source = f'"{text}"' if kind == "string" else text
        span = SourceSpan(*token[2:])
        assert span.line == 3
        assert blob[span.offset:span.offset + span.length] == source.encode("utf-8")
        assert line[span.column - 1:span.column - 1 + len(source)] == source
    eol = SourceSpan(*tokens[-1][2:])
    assert (eol.column, eol.offset) == (len(line) + 1, len(blob))


def test_a_numeric_character_that_is_no_decimal_digit_is_not_an_integer():
    with pytest.raises(DslError) as excinfo:
        parse_document("exo U : {0,1}\ncontext c : U=²\n")
    assert [str(d) for d in excinfo.value.diagnostics] == [
        "2:15: expected integer, found '²'"]
    assert parse_document("exo U : {0,١}\n").model.range_of("U") == (0, 1)


def test_a_lone_surrogate_is_an_unexpected_character():
    with pytest.raises(DslError) as excinfo:
        parse_document("var X \ud800")
    lexed, parsed = excinfo.value.diagnostics
    assert str(lexed) == "1:7: unexpected character '\\ud800'"
    assert lexed.span == SourceSpan(1, 7, 6, 3)
    assert str(parsed) == "1:8: expected :, found 'end of line'"


def test_an_integer_past_the_conversion_limit_is_a_located_diagnostic():
    digits = "1" * 5000
    with pytest.raises(DslError) as excinfo:
        parse_document(f"exo U : {{0,{digits}}}\nvar X : {{0,1}} = {digits}\n")
    assert [str(d) for d in excinfo.value.diagnostics] == [
        "1:12: integer literal has too many digits",
        "2:17: integer literal has too many digits",
    ]


# -- queries --------------------------------------------------------------------


def test_parse_cause_query(documents):
    doc = documents["poisoning.scm.txt"]
    query = parse_query("cause A=1 for D=1 @ u11", doc)
    assert isinstance(query, CauseQuery)
    assert str(query.cause) == "A=1" and query.context == "u11"


def test_parse_grade_query(documents):
    doc = documents["legal_fire.scm.txt"]
    query = parse_query("grade {AN=1, BC=1} for F=1 @ careless", doc)
    assert isinstance(query, GradeQuery)
    assert [str(c) for c in query.candidates] == ["AN=1", "BC=1"]


def test_parse_satisfies_query(documents):
    doc = documents["forest_fire_disjunctive.scm.txt"]
    query = parse_query("satisfies [M<-0](F=1) @ u11", doc)
    assert isinstance(query, SatisfiesQuery)
    assert query.formula.interventions == (("M", 0),)


@pytest.mark.parametrize("op", ["|", "&"])
def test_satisfies_body_may_start_with_a_group(documents, op):
    # A leading group is one operand, as it is after 'for' in a cause line.
    doc = documents["forest_fire_disjunctive.scm.txt"]
    for prefix in ("", "[M<-0]"):
        query = parse_query(f"satisfies {prefix}(L=1) {op} M=1 @ u11", doc)
        cause = parse_query(f"cause L=1 for (L=1) {op} M=1 @ u11", doc)
        assert query.formula.body == cause.effect


def test_parse_solve_and_witnesses(documents):
    doc = documents["forest_fire_disjunctive.scm.txt"]
    assert isinstance(parse_query("solve @ u11", doc), SolveQuery)
    assert isinstance(parse_query("witnesses L=1 for F=1 @ u11", doc),
                      WitnessQuery)


def test_parse_conjunctive_cause(documents):
    doc = documents["poisoning.scm.txt"]
    query = parse_query("cause A=1 & R=1 for D=1 @ u11", doc)
    assert str(query.cause) == "A=1 & R=1"


def test_query_semantic_errors(documents):
    doc = documents["poisoning.scm.txt"]
    with pytest.raises(DslError):
        parse_query("cause Q=1 for D=1 @ u11", doc)
    with pytest.raises(DslError):
        parse_query("cause A=9 for D=1 @ u11", doc)
    with pytest.raises(DslError):
        parse_query("cause A=1 for D=1 @ nowhere", doc)


QUERY_BASE = """exo U : {0,1}
var A : {0,1} = U
var B : {0,1} = A
context c : U=1
"""


@pytest.mark.parametrize("line, message", [
    ("cause Q=1 for B=1 @ c", "undeclared variable Q"),
    ("cause U=1 for B=1 @ c",
     "U is exogenous; a candidate cause needs an endogenous variable"),
    ("satisfies [U<-0](B=1) @ c",
     "U is exogenous; an intervention needs an endogenous variable"),
    ("cause A=1 for B=9 @ c", "value 9 outside the range of B"),
    ("cause A=1 & A=1 for B=1 @ c", "candidate cause repeats variable A"),
    ("grade {A=1, A=0 & A=1} for B=1 @ c", "candidate cause repeats variable A"),
    ("witnesses A=1 for B=1 @ nowhere", "unknown context nowhere"),
    ("satisfies [A<-0, A<-1](B=1) @ c", "intervention repeats variable A"),
])
def test_query_faults_read_the_same_in_documents_and_inline(line, message):
    with pytest.raises(DslError) as in_document:
        parse_document(QUERY_BASE + line + "\n")
    with pytest.raises(DslError) as inline:
        parse_query(line, parse_document(QUERY_BASE))
    messages = [d.message for d in in_document.value.diagnostics]
    assert messages == [message]
    assert [d.message for d in inline.value.diagnostics] == messages


def test_boolean_bodies_in_queries(documents):
    # A negated group keeps its brackets, so the printed line reads back.
    for name, line in (("poisoning.scm.txt", "cause A=1 for D=1 | !(B=0 & R=1) @ u11"),
                       ("forest_fire_disjunctive.scm.txt", "cause L=1 for !(F=1 & M=1) @ u10")):
        doc = documents[name]
        query = parse_query(line, doc)
        assert isinstance(query, CauseQuery)
        assert format_query(query) == line
        assert parse_query(format_query(query), doc) == query


def test_a_document_without_normality_has_no_order(documents):
    doc = documents["poisoning.scm.txt"]
    assert not doc.has_normality()
    with pytest.raises(ActualCauseError, match="declares no normality information"):
        doc.normality_order()


def test_parser_never_crashes_on_garbage():
    import random

    rng = random.Random(0)
    for _ in range(500):
        length = rng.randint(0, 60)
        text = "".join(chr(rng.randint(1, 0x2FF)) for _ in range(length))
        try:
            parse_document(text)
        except DslError as exc:
            assert exc.diagnostics
            for diagnostic in exc.diagnostics:
                assert 0 <= diagnostic.span.offset <= len(text.encode("utf-8")) + 1


DEEP_MODEL = "exo U : {0,1}\nvar F : {0,1} = U\ncontext c : U=1\n"


@pytest.mark.parametrize("line", [
    "satisfies " + "(" * 2000 + "F=1" + ")" * 2000 + " @ c",
    "satisfies " + "!" * 3000 + "F=1 @ c",
    "cause F=1 for " + "!(" * 60 + "F=1" + ")" * 60 + " @ c",
    "var G : {0,1} = " + "(" * 2000 + "U" + ")" * 2000,
    "var G : {0,1} = " + "max(U, " * 2000 + "U" + ")" * 2000,
    "var G : {0,1} = " + "ite(U == 1, " * 150 + "U" + ", 0)" * 150,
], ids=["parens", "negation", "query", "expr-parens", "max", "ite"])
def test_deep_nesting_is_a_located_diagnostic(line):
    text = DEEP_MODEL + line + "\n"
    with pytest.raises(DslError) as excinfo:
        parse_document(text)
    [diagnostic] = excinfo.value.diagnostics
    assert diagnostic.message == f"nesting deeper than {MAX_NESTING} levels"
    assert diagnostic.span.line == 4


@pytest.mark.parametrize("op", ["+", "-", "*"])
def test_flat_operator_chain_counts_against_the_cap(op):
    # A chain parses to a left-deep tree, one level per operator, which the
    # validator and the solver walk recursively.
    from actualcause import solve

    long_chain = f" {op} ".join(["U"] * 1500)
    with pytest.raises(DslError) as excinfo:
        doc = parse_document(DEEP_MODEL + f"var G : {{0,1}} = min(1, {long_chain})\n")
        solve(doc.model, doc.contexts["c"])
    [diagnostic] = excinfo.value.diagnostics
    assert diagnostic.message == f"nesting deeper than {MAX_NESTING} levels"
    assert (diagnostic.span.line, diagnostic.span.column) == (4, 22 + 4 * MAX_NESTING)
    at_cap = f" {op} ".join(["U"] * (MAX_NESTING - 1))  # under max and min
    doc = parse_document(DEEP_MODEL + f"var G : {{0,1}} = max(0, min(1, {at_cap}))\n")
    assert solve(doc.model, doc.contexts["c"])["G"] == (0 if op == "-" else 1)
    assert parse_document(pretty_print(doc)) == doc


def test_nesting_at_the_cap_parses_and_evaluates():
    from actualcause import satisfies, solve

    at_cap = "!(" * (MAX_NESTING // 2) + "F=1" + ")" * (MAX_NESTING // 2)
    under_cap = "!" * (MAX_NESTING - 1) + "F=1"
    doc = parse_document(DEEP_MODEL
                         + f"satisfies {at_cap} @ c\nsatisfies {under_cap} @ c\n"
                         + "var G : {0,1} = " + "max(U, " * MAX_NESTING + "U"
                         + ")" * MAX_NESTING + "\n")
    context = doc.contexts["c"]
    assert solve(doc.model, context)["G"] == 1
    first, second = doc.queries
    assert satisfies(doc.model, context, first.formula) is True
    assert satisfies(doc.model, context, second.formula) is False
    assert parse_document(pretty_print(doc)) == doc
    # The printer brackets a satisfies body; the brackets are no level.
    at_cap = parse_document(DEEP_MODEL + "satisfies " + "!" * MAX_NESTING + "F=1 @ c\n")
    assert parse_document(pretty_print(at_cap)) == at_cap


def test_bundled_fixtures_stay_far_under_the_nesting_cap():
    for name in ALL_FIXTURES:
        text = fixture_path(name).read_text(encoding="utf-8")
        for line in text.splitlines():
            depth = deepest = 0
            for char in line.split("#")[0]:
                depth += char == "("
                deepest = max(deepest, depth)
                depth -= char == ")"
            assert deepest + line.count("!") < MAX_NESTING // 4, (name, line)


# -- repeating one item of a list ----------------------------------------------

LIST_SEPARATORS = ",&<>"


def _list_separators(code):
    """(position, bracket depth) of each list separator of a line: ',', '&',
    '<' and '>', leaving out the arrows '<-' and '->' and quoted labels."""
    found, depth, quoted = [], 0, False
    for i, char in enumerate(code):
        if char == '"':
            quoted = not quoted
        elif quoted:
            continue
        elif char in "([{":
            depth += 1
        elif char in ")]}":
            depth -= 1
        elif (char in LIST_SEPARATORS and code[i:i + 2] != "<-"
              and code[i - 1:i + 1] != "->"):
            found.append((i, depth))
    return found


def _repeat_item(code, position, depth):
    """The line with the item after the separator at ``position`` repeated:
    the item runs to the next separator at its depth, the end of its
    brackets, the query's '|', 'for' or '@', or the end of the line."""
    separators = {i for i, d in _list_separators(code) if d == depth}
    level, end = depth, position + 1
    while end < len(code):
        char = code[end]
        level += (char in "([{") - (char in ")]}")
        if level < depth or (level == depth and (
                end in separators or char in "@|" or code.startswith(" for ", end))):
            break
        end += 1
    return code[:end] + code[position:end] + code[end:]


@pytest.mark.parametrize("filename", ALL_FIXTURES)
def test_repeating_a_list_item_is_caught_on_its_line(filename):
    # Each mutant repeats one item of one list: a range value, a ranking
    # value, a severity feature, a behavior, a world or context entry, an
    # argument, a conjunct, a candidate or an intervention.  The document
    # either stays well-formed, its normality order included, or gets a
    # diagnostic on the mutated line.
    rng = random.Random(0)
    lines = fixture_path(filename).read_text(encoding="utf-8").splitlines()
    for number, line in enumerate(lines, start=1):
        code = line.split("#")[0]
        separators = _list_separators(code)
        if not separators:
            continue
        mutated = _repeat_item(code, *rng.choice(separators))
        text = "\n".join(lines[:number - 1] + [mutated] + lines[number:]) + "\n"
        try:
            document = parse_document(text)
        except DslError as exc:
            assert any(d.span.line == number for d in exc.diagnostics), mutated
            continue
        if document.has_normality():
            document.normality_order()


# -- one rule, one message -----------------------------------------------------

RULE_BASE = "exo U : {0,1}\nvar A : {0,1} = U\nvar B : {0,1} = A\ncontext c : U=1\n"
RANKED = (ValueRanking("A", (0, 1)), ValueRanking("B", (0, 1)))
NO_POISON = Behavior("no poison", Const(0))


@pytest.mark.parametrize("spec, keyword", [
    (TypicalitySpec((ValueRanking("A", (0, 1)), ValueRanking("A", (1, 0)))), "typical"),
    (TypicalitySpec((ValueRanking("A", (0,)),)), "typical"),
    (TypicalitySpec((ValueRanking("U", (0, 1)),)), "typical"),
    (TypicalitySpec(RANKED[:1], ((("A", 1), ("B", 1)),)), "severity"),
    (TypicalitySpec(RANKED, ((("A", 0), ("B", 1)),)), "severity"),
    (TypicalitySpec(RANKED, ((("A", 1), ("B", 1), ("A", 1)),)), "severity"),
    (TypicalitySpec(RANKED, ((("A", 1),),)), "severity"),
    (TypicalitySpec(behavior_rankings=(
        BehaviorRanking("B", (NO_POISON, Behavior("mirrors", Ref("A")))),)), "behavior"),
    (TypicalitySpec(mechanism=True, behavior_rankings=(
        BehaviorRanking("B", (NO_POISON, NO_POISON)),)), "behavior"),
    (TypicalitySpec(mechanism=True, behavior_rankings=(
        BehaviorRanking("B", (NO_POISON, Behavior("follows", Ref("U")))),)), "behavior"),
    (TypicalitySpec(mechanism=True, behavior_rankings=(
        BehaviorRanking("B", (NO_POISON,)), BehaviorRanking("B", (NO_POISON,)))), "behavior"),
], ids=["typical-twice", "ranking-misses-a-value", "exogenous-ranking", "unranked-feature",
        "typical-feature", "repeated-feature", "one-feature", "behavior-without-mechanism",
        "repeated-label", "exogenous-reference", "behaviors-twice"])
def test_spec_faults_read_the_same_in_documents_and_the_library(spec, keyword):
    base = parse_document(RULE_BASE)
    text = pretty_print(ParsedDocument(base.model, spec, (), base.contexts, ()))
    with pytest.raises(NormalityError) as library:
        derive_from_typicality(base.model, spec)
    with pytest.raises(DslError) as in_document:
        parse_document(text)
    [diagnostic] = in_document.value.diagnostics
    assert diagnostic.message == str(library.value)
    assert text.splitlines()[diagnostic.span.line - 1].startswith(keyword)


@pytest.mark.parametrize("event", [PrimitiveEvent("Q", 1), PrimitiveEvent("U", 1),
                                   PrimitiveEvent("B", 9)],
                         ids=["undeclared", "exogenous", "out-of-range"])
def test_event_faults_read_the_same_in_documents_and_the_library(event):
    with pytest.raises(FormulaError) as library:
        compile_body(parse_document(RULE_BASE).model, event)
    with pytest.raises(DslError) as in_document:
        parse_document(RULE_BASE + f"cause A=1 for {event} @ c\n")
    assert [d.message for d in in_document.value.diagnostics] == [str(library.value)]


# Each library entry point that applies the event rule, handed one event.
EVENT_ENTRY_POINTS = {
    "intervene": lambda model, event: intervene(model, dict([event])),
    "world": lambda model, event: model.world({"A": 1, "B": 1, **dict([event])}),
    "solve-context": lambda model, event: solve(model, {"U": 1, **dict([event])}),
    "satisfies-body": lambda model, event: satisfies(
        model, {"U": 1}, CausalFormula((), PrimitiveEvent(*event))),
    "satisfies-prefix": lambda model, event: satisfies(
        model, {"U": 1}, CausalFormula((event,), PrimitiveEvent("A", 1))),
    "norm-world": lambda model, event: explicit_order(
        model, [(World(("A", event[0]), (1, event[1])), ">", {"A": 0, "B": 0})]),
    "norm-mapping": lambda model, event: explicit_order(
        model, [({"A": 1, "B": 1, **dict([event])}, ">", {"A": 0, "B": 0})]),
}
NOT_ENDOGENOUS = "world does not range over this model's endogenous variables"


@pytest.mark.parametrize("entry, event, error, message", [
    ("intervene", ("Q", 1), ModelError, "undeclared variable Q"),
    ("intervene", ("U", 1), ModelError,
     "U is exogenous; an intervention needs an endogenous variable"),
    ("intervene", ("B", 9), ModelError, "value 9 outside the range of B"),
    ("world", ("Q", 1), ModelError, "undeclared variable Q"),
    ("world", ("U", 1), ModelError, "U is exogenous; a world needs an endogenous variable"),
    ("world", ("B", 9), ModelError, "value 9 outside the range of B"),
    ("solve-context", ("Q", 1), ModelError, "undeclared variable Q"),
    ("solve-context", ("A", 1), ModelError, "context assigns endogenous variable A"),
    ("solve-context", ("U", 9), ModelError, "value 9 outside the range of U"),
    ("satisfies-body", ("Q", 1), FormulaError, "undeclared variable Q"),
    ("satisfies-body", ("U", 1), FormulaError,
     "U is exogenous; a formula needs an endogenous variable"),
    ("satisfies-body", ("B", 9), FormulaError, "value 9 outside the range of B"),
    ("satisfies-prefix", ("Q", 1), FormulaError, "undeclared variable Q"),
    ("satisfies-prefix", ("U", 1), FormulaError,
     "U is exogenous; an intervention needs an endogenous variable"),
    ("satisfies-prefix", ("B", 9), FormulaError, "value 9 outside the range of B"),
    ("norm-world", ("Q", 1), NormalityError, NOT_ENDOGENOUS),
    ("norm-world", ("U", 1), NormalityError, NOT_ENDOGENOUS),
    ("norm-world", ("B", 9), NormalityError, "value 9 outside the range of B"),
    ("norm-mapping", ("Q", 1), ModelError, "undeclared variable Q"),
    ("norm-mapping", ("U", 1), ModelError,
     "U is exogenous; a world needs an endogenous variable"),
    ("norm-mapping", ("B", 9), ModelError, "value 9 outside the range of B"),
])
def test_every_library_entry_point_applies_the_event_rule(entry, event, error, message):
    model = parse_document(RULE_BASE).model
    with pytest.raises(ActualCauseError) as raised:
        EVENT_ENTRY_POINTS[entry](model, event)
    assert (type(raised.value), str(raised.value)) == (error, message)


NORM_BASE = "exo U : {0,1}\nvar A : {0,1} = U\ncontext c : U=1\n"


def test_contradictory_norms_read_the_same_in_documents_and_the_library():
    model = parse_document(NORM_BASE).model
    relations = [({"A": 0}, ">", {"A": 1}), ({"A": 1}, "==", {"A": 0})]
    with pytest.raises(NormalityError) as library:
        explicit_order(model, relations)
    text = NORM_BASE + "norm (A=0) > (A=1)\nnorm (A=1) == (A=0)\n"
    with pytest.raises(DslError) as in_document:
        parse_document(text)
    [diagnostic] = in_document.value.diagnostics
    assert diagnostic.message == str(library.value)
    assert (diagnostic.span.line, diagnostic.span.column) == (4, 1)


def test_typicality_and_norms_together_are_located_on_the_first_norm():
    base = parse_document(NORM_BASE + "typical A = 0 > 1\n")
    norms = (({"A": 0}, ">", {"A": 1}),)
    both = ParsedDocument(base.model, base.typicality, norms, base.contexts, ())
    with pytest.raises(ActualCauseError) as library:
        both.normality_order()
    with pytest.raises(DslError) as in_document:
        parse_document(pretty_print(both))
    [diagnostic] = in_document.value.diagnostics
    assert diagnostic.message == str(library.value)
    assert pretty_print(both).splitlines()[diagnostic.span.line - 1].startswith("norm")
