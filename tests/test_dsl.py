"""Parsing, diagnostics, spans, queries, and the round-trip printer."""

import pytest

from actualcause import BinOp, Ref
from actualcause.corpus import fixture_path
from actualcause.dsl import (
    CauseQuery,
    DslError,
    GradeQuery,
    SatisfiesQuery,
    SolveQuery,
    WitnessQuery,
    parse_document,
    parse_query,
    pretty_print,
)

ALL_FIXTURES = [
    "forest_fire_disjunctive.scm.txt",
    "forest_fire_conjunctive.scm.txt",
    "poisoning.scm.txt",
    "bogus_prevention.scm.txt",
    "bogus_prevention_pn.scm.txt",
    "omission_a.scm.txt",
    "omission_b.scm.txt",
    "omission_c.scm.txt",
    "omission_d.scm.txt",
    "office_pens.scm.txt",
    "background_conditions.scm.txt",
    "causal_chain.scm.txt",
    "legal_fire.scm.txt",
    "preemption.scm.txt",
    "short_circuit.scm.txt",
    "short_circuit_intentions.scm.txt",
]


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
    with pytest.raises(DslError) as first_only:
        parse_document(text, stop_at_first=True)
    assert len(all_errors.value.diagnostics) >= 3
    assert len(first_only.value.diagnostics) == 1
    first = first_only.value.diagnostics[0]
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
    doc = documents["poisoning.scm.txt"]
    query = parse_query("cause A=1 for D=1 | !(B=0 & R=1) @ u11", doc)
    assert isinstance(query, CauseQuery)


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
