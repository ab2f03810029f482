"""Formula satisfaction and its algebra."""

import itertools

import pytest

import actualcause
from actualcause import (
    CausalFormula,
    Conjunction,
    Disjunction,
    FormulaError,
    Negation,
    PrimitiveEvent,
    satisfies,
)
from actualcause import checker, formula, graded
from actualcause.formula import check_formula
from actualcause.model import semantic_parents


def causal(body, *interventions):
    return CausalFormula(tuple(interventions), body)


def test_intervened_fire_still_burns(documents):
    doc = documents["forest_fire_disjunctive.scm.txt"]
    formula = causal(PrimitiveEvent("F", 1), ("M", 0))
    assert satisfies(doc.model, doc.contexts["u11"], formula)


def test_empty_prefix_is_plain_evaluation(documents):
    doc = documents["forest_fire_disjunctive.scm.txt"]
    assert satisfies(doc.model, doc.contexts["u11"], causal(PrimitiveEvent("L", 1)))


def test_poisoning_double_intervention(documents):
    doc = documents["poisoning.scm.txt"]
    formula = causal(PrimitiveEvent("D", 1), ("A", 0), ("B", 0))
    assert not satisfies(doc.model, doc.contexts["u11"], formula)


def test_unknown_variable_rejected(documents):
    doc = documents["forest_fire_disjunctive.scm.txt"]
    with pytest.raises(FormulaError):
        satisfies(doc.model, doc.contexts["u11"], causal(PrimitiveEvent("Q", 1)))


def test_out_of_range_value_rejected(documents):
    doc = documents["forest_fire_disjunctive.scm.txt"]
    with pytest.raises(FormulaError):
        satisfies(doc.model, doc.contexts["u11"], causal(PrimitiveEvent("F", 3)))


def test_exogenous_primitive_rejected(documents):
    doc = documents["forest_fire_disjunctive.scm.txt"]
    with pytest.raises(FormulaError):
        check_formula(doc.model, causal(PrimitiveEvent("UL", 1)))


def test_duplicate_intervention_targets_rejected():
    with pytest.raises(FormulaError):
        CausalFormula((("M", 0), ("M", 1)), PrimitiveEvent("F", 1))


def _all_bodies(model):
    events = [PrimitiveEvent(n, v)
              for n in model.endogenous for v in model.range_of(n)]
    for e1, e2 in itertools.product(events, repeat=2):
        yield Conjunction((e1, e2))
        yield Disjunction((e1, e2))
        yield Negation(e1)


def test_classical_laws_on_fixture(documents):
    doc = documents["poisoning.scm.txt"]
    model, context = doc.model, doc.contexts["u11"]
    for body in _all_bodies(model):
        base = satisfies(model, context, causal(body, ("B", 1)))
        double_neg = satisfies(
            model, context, causal(Negation(Negation(body)), ("B", 1))
        )
        assert double_neg == base
    # De Morgan duals agree under a fixed prefix.
    e1, e2 = PrimitiveEvent("D", 1), PrimitiveEvent("R", 0)
    lhs = Negation(Conjunction((e1, e2)))
    rhs = Disjunction((Negation(e1), Negation(e2)))
    for prefix in ((), (("A", 0),), (("A", 0), ("B", 1))):
        assert satisfies(model, context, CausalFormula(prefix, lhs)) == satisfies(
            model, context, CausalFormula(prefix, rhs)
        )


def test_intervention_screening_makes_context_irrelevant(documents):
    # Pinning every semantic parent of the formula's support cuts the
    # context out of the verdict.
    doc = documents["forest_fire_disjunctive.scm.txt"]
    model = doc.model
    formula = causal(PrimitiveEvent("F", 1), ("L", 0), ("M", 0))
    support = {"F"} | set(semantic_parents(model, "F"))
    pinned = {name for name, _ in formula.interventions}
    for name in support - pinned:
        assert not (set(model.equations[name].body.referenced()) & set(model.exogenous))
    verdicts = {
        satisfies(model, ctx, formula)
        for ctx in (doc.contexts["u11"], doc.contexts["u10"],
                    {"UL": 0, "UM": 0}, {"UL": 0, "UM": 1})
    }
    assert len(verdicts) == 1


def test_a_candidate_cause_reads_its_variables_and_values():
    cause = actualcause.CandidateCause((PrimitiveEvent("L", 1), PrimitiveEvent("M", 0)))
    assert cause.variables() == ("L", "M")
    assert cause.values() == (1, 0)


@pytest.mark.parametrize("connective", [Conjunction, Disjunction])
def test_a_connective_of_one_operand_is_rejected(connective):
    with pytest.raises(FormulaError, match="at least two operands"):
        connective((PrimitiveEvent("F", 1),))


def test_candidate_cause_is_one_class_beside_the_events():
    assert actualcause.CandidateCause is formula.CandidateCause
    assert checker.CandidateCause is formula.CandidateCause
    assert graded.CandidateCause is formula.CandidateCause
