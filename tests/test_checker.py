"""Clause checks, witness enumeration, verdicts, and the candidate sweep."""

import itertools
import random

import pytest

from actualcause import (
    CandidateCause,
    CausalModel,
    Equation,
    FormulaError,
    PrimitiveEvent,
    Ref,
    SearchBudgetExceeded,
    Table,
    Variable,
    check_ac1,
    check_ac2,
    enumerate_witnesses,
    find_all_causes,
    intervene,
    is_actual_cause,
    solve,
)
from actualcause.formula import evaluate

from random_models import all_contexts, random_model


def event(name, value):
    return PrimitiveEvent(name, value)


def cand(*events):
    return CandidateCause(tuple(events))


# -- AC1 ---------------------------------------------------------------------


def test_ac1_forest_fire(documents):
    doc = documents["forest_fire_disjunctive.scm.txt"]
    u11 = doc.contexts["u11"]
    assert check_ac1(doc.model, u11, cand(event("L", 1)), event("F", 1))
    assert not check_ac1(doc.model, u11, cand(event("L", 0)), event("F", 1))


def test_ac1_poisoning_conjunction(documents):
    doc = documents["poisoning.scm.txt"]
    assert check_ac1(
        doc.model, doc.contexts["u11"],
        cand(event("A", 1), event("R", 1)), event("D", 1),
    )


# -- AC2 ---------------------------------------------------------------------


def test_ac2_forest_fire_contingency(documents):
    doc = documents["forest_fire_disjunctive.scm.txt"]
    assert check_ac2(
        doc.model, doc.contexts["u11"], cand(event("L", 1)), event("F", 1),
        w_set=("M",), w_values=(0,), x_prime=(0,),
    )


def test_ac2_poisoning_backup_readiness_fails(documents):
    # Pinning the backup's inaction at its actual value kills the effect, so
    # the only contingency that flips it is not allowed.
    doc = documents["poisoning.scm.txt"]
    assert not check_ac2(
        doc.model, doc.contexts["u11"], cand(event("R", 1)), event("D", 1),
        w_set=("A",), w_values=(0,), x_prime=(0,),
    )


def test_ac2_rejects_overlapping_contingency(documents):
    doc = documents["forest_fire_disjunctive.scm.txt"]
    with pytest.raises(FormulaError):
        check_ac2(
            doc.model, doc.contexts["u11"], cand(event("L", 1)), event("F", 1),
            w_set=("L",), w_values=(0,), x_prime=(0,),
        )


def _direct_ac2(model, context, conjuncts, effect, w_set, w_values, x_prime):
    """Literal expansion of both clauses, for cross-checking check_ac2."""
    x_vars = [c.variable for c in conjuncts]
    setting = dict(zip(x_vars, x_prime))
    setting.update(zip(w_set, w_values))
    if evaluate(effect, solve(intervene(model, setting), context)):
        return False
    actual = solve(model, context)
    z_rest = [v for v in model.endogenous
              if v not in x_vars and v not in w_set]
    for w_pick in range(len(w_set) + 1):
        for w_sub in itertools.combinations(range(len(w_set)), w_pick):
            for z_pick in range(len(z_rest) + 1):
                for z_sub in itertools.combinations(z_rest, z_pick):
                    setting = {c.variable: c.value for c in conjuncts}
                    for i in w_sub:
                        setting[w_set[i]] = w_values[i]
                    for name in z_sub:
                        setting[name] = actual[name]
                    world = solve(intervene(model, setting), context)
                    if not evaluate(effect, world):
                        return False
    return True


def test_ac2_subset_sensitivity_gun_model():
    # One shooter's loaded gun is never fired; the other shooter fires.
    # Pinning (B=1, C=0) flips the outcome, but dropping the B pin alone
    # breaks the survival of the effect, so the pair is rejected.
    model = CausalModel(
        [Variable("UA", "exogenous", (0, 1)), Variable("UB", "exogenous", (0, 1)),
         Variable("UC", "exogenous", (0, 1)),
         Variable("A", "endogenous", (0, 1)), Variable("B", "endogenous", (0, 1)),
         Variable("C", "endogenous", (0, 1)), Variable("D", "endogenous", (0, 1))],
        [Equation("A", Ref("UA")), Equation("B", Ref("UB")),
         Equation("C", Ref("UC")),
         Equation("D", Table(("A", "B", "C"), tuple(
             (combo, max(min(combo[0], combo[1]), combo[2]))
             for combo in itertools.product((0, 1), repeat=3)
         )))],
    )
    context = {"UA": 1, "UB": 0, "UC": 1}
    got = check_ac2(model, context, cand(event("A", 1)), event("D", 1),
                    w_set=("B", "C"), w_values=(1, 0), x_prime=(0,))
    assert got is False
    assert got == _direct_ac2(model, context, (event("A", 1),), event("D", 1),
                              ("B", "C"), (1, 0), (0,))
    # And A=1 has no passing contingency at all in this context.
    assert not is_actual_cause(model, context, cand(event("A", 1)),
                               event("D", 1)).is_cause


def test_ac2_matches_direct_expansion_on_random_models():
    rng = random.Random(2024)
    for _ in range(25):
        model = random_model(rng)
        context = rng.choice(list(all_contexts(model)))
        actual = solve(model, context)
        x_var = rng.choice(model.endogenous)
        conjuncts = (event(x_var, actual[x_var]),)
        effect = event(model.endogenous[-1], actual[model.endogenous[-1]])
        others = [v for v in model.endogenous if v != x_var]
        k = rng.randint(0, len(others))
        w_set = tuple(rng.sample(others, k))
        w_values = tuple(rng.randint(0, 1) for _ in w_set)
        x_prime = (1 - actual[x_var],)
        assert check_ac2(model, context, cand(*conjuncts), effect,
                         w_set, w_values, x_prime) == _direct_ac2(
            model, context, conjuncts, effect, w_set, w_values, x_prime)


# -- witness enumeration -------------------------------------------------------


def test_enumerate_forest_fire_contains_minimal_record(documents):
    doc = documents["forest_fire_disjunctive.scm.txt"]
    records = enumerate_witnesses(
        doc.model, doc.contexts["u11"], cand(event("L", 1)), event("F", 1)
    )
    assert [(r.w_set, r.w_values, r.x_prime) for r in records] == [
        (("M",), (0,), (0,))
    ]
    assert records[0].world.as_dict() == {"L": 0, "M": 0, "F": 0}


def test_enumerate_bogus_prevention_witness_world(documents):
    doc = documents["bogus_prevention.scm.txt"]
    records = enumerate_witnesses(
        doc.model, doc.contexts["main"], cand(event("B", 1)), event("VS", 1)
    )
    assert {r.world.as_dict().get("A") for r in records} == {1}
    assert {"A": 1, "B": 0, "VS": 0} in [r.world.as_dict() for r in records]


def test_enumerate_empty_conjunction_is_empty(documents):
    doc = documents["forest_fire_disjunctive.scm.txt"]
    model, u11 = doc.model, doc.contexts["u11"]
    assert enumerate_witnesses(model, u11, (), event("F", 1)) == []
    # Cross-check by expansion: no pin set can both break and keep the effect.
    for w_vars in ({"L"}, {"M"}, {"L", "M"}, {"F"}, set()):
        names = sorted(w_vars)
        for values in itertools.product((0, 1), repeat=len(names)):
            setting = dict(zip(names, values))
            world = solve(intervene(model, setting), u11) if setting else \
                solve(model, u11)
            broken = not evaluate(event("F", 1), world)
            kept = evaluate(event("F", 1), world)
            assert not (broken and kept)


def test_enumeration_order_is_small_sets_first(documents):
    doc = documents["poisoning.scm.txt"]
    records = enumerate_witnesses(
        doc.model, doc.contexts["u11"], cand(event("A", 1)), event("D", 1)
    )
    sizes = [len(r.w_set) for r in records]
    assert sizes == sorted(sizes)
    assert records  # A=1 passes through some contingency


def test_search_budget_guard(documents):
    doc = documents["causal_chain.scm.txt"]
    with pytest.raises(SearchBudgetExceeded):
        enumerate_witnesses(
            doc.model, doc.contexts["main"], cand(event("M", 1)),
            event("ES", 1), max_search=10,
        )


# -- full verdicts ---------------------------------------------------------------


def test_forest_fire_both_sources_are_causes(documents):
    doc = documents["forest_fire_disjunctive.scm.txt"]
    u11 = doc.contexts["u11"]
    for name in ("L", "M"):
        verdict = is_actual_cause(doc.model, u11, cand(event(name, 1)),
                                  event("F", 1))
        assert verdict.is_cause and verdict.failed_clause is None


def test_poisoning_backup_readiness_is_not_a_cause(documents):
    doc = documents["poisoning.scm.txt"]
    verdict = is_actual_cause(doc.model, doc.contexts["u11"],
                              cand(event("R", 1)), event("D", 1))
    assert not verdict.is_cause
    assert verdict.ac1 and verdict.failed_clause == "AC2"


def test_every_event_causes_itself(documents):
    doc = documents["poisoning.scm.txt"]
    u11 = doc.contexts["u11"]
    actual = solve(doc.model, u11)
    for name in doc.model.endogenous:
        verdict = is_actual_cause(doc.model, u11,
                                  cand(event(name, actual[name])),
                                  event(name, actual[name]))
        assert verdict.is_cause


def test_bogus_prevention_plain_mode_blames_the_antidote(documents):
    doc = documents["bogus_prevention.scm.txt"]
    verdict = is_actual_cause(doc.model, doc.contexts["main"],
                              cand(event("B", 1)), event("VS", 1))
    assert verdict.is_cause


def test_plain_verdict_mirrors_admissible_fields(documents):
    doc = documents["forest_fire_disjunctive.scm.txt"]
    verdict = is_actual_cause(doc.model, doc.contexts["u11"],
                              cand(event("L", 1)), event("F", 1))
    assert verdict.mode == "hp"
    assert verdict.admissible_witnesses == verdict.hp_witnesses
    assert verdict.is_cause_extended is None


def test_pinning_actual_values_is_always_permissible(documents):
    # With the candidate at its actual value, re-imposing the actual values
    # of any contingency set keeps the effect.
    doc = documents["poisoning.scm.txt"]
    model, u11 = doc.model, doc.contexts["u11"]
    actual = solve(model, u11)
    for name in model.endogenous:
        conjuncts = (event(name, actual[name]),)
        effect = event("D", 1)
        others = [v for v in model.endogenous if v != name]
        for k in range(len(others) + 1):
            for w_set in itertools.combinations(others, k):
                w_values = tuple(actual[w] for w in w_set)
                setting = {name: actual[name]}
                setting.update(zip(w_set, w_values))
                world = solve(intervene(model, setting), u11)
                assert evaluate(effect, world)


# -- find_all_causes ---------------------------------------------------------------


def test_sweep_disjunctive_fire(documents):
    doc = documents["forest_fire_disjunctive.scm.txt"]
    causes = find_all_causes(doc.model, doc.contexts["u11"], event("F", 1))
    assert [str(c) for c in causes] == ["L=1", "M=1", "F=1"]


def test_sweep_omission(documents):
    doc = documents["omission_a.scm.txt"]
    causes = find_all_causes(doc.model, doc.contexts["main"], event("D", 1))
    assert [str(c) for c in causes] == ["H=1", "W=0", "D=1"]


def test_sweep_conjunctive_fire_minimality(documents):
    doc = documents["forest_fire_conjunctive.scm.txt"]
    causes = find_all_causes(doc.model, doc.contexts["u11"], event("F", 1),
                             max_conjuncts=2)
    # The pair {L=1, M=1} is pruned: each conjunct already works alone.
    assert [str(c) for c in causes] == ["L=1", "M=1", "F=1"]


def test_sweep_rejects_bad_size(documents):
    doc = documents["forest_fire_conjunctive.scm.txt"]
    with pytest.raises(FormulaError):
        find_all_causes(doc.model, doc.contexts["u11"], event("F", 1),
                        max_conjuncts=0)


def test_candidate_cause_invariants():
    with pytest.raises(FormulaError):
        CandidateCause(())
    with pytest.raises(FormulaError):
        CandidateCause((event("X", 1), event("X", 0)))
