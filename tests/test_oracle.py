"""Reference-checker behavior and fixture agreement."""

import pytest

from actualcause import (
    CandidateCause,
    Conjunction,
    Disjunction,
    ExtendedCausalModel,
    Negation,
    OracleCapExceeded,
    PrimitiveEvent,
    is_actual_cause,
    is_extended_cause,
)
from actualcause.oracle import oracle_is_cause, oracle_is_extended_cause


def event(name, value):
    return PrimitiveEvent(name, value)


def cand(*events):
    return CandidateCause(tuple(events))


def test_oracle_forest_fire(documents):
    doc = documents["forest_fire_disjunctive.scm.txt"]
    u11 = doc.contexts["u11"]
    assert oracle_is_cause(doc.model, u11, [event("L", 1)], event("F", 1))
    assert oracle_is_cause(doc.model, u11, [event("M", 1)], event("F", 1))


def test_oracle_poisoning(documents):
    doc = documents["poisoning.scm.txt"]
    u11 = doc.contexts["u11"]
    assert oracle_is_cause(doc.model, u11, [event("A", 1)], event("D", 1))
    assert not oracle_is_cause(doc.model, u11, [event("R", 1)], event("D", 1))


def test_oracle_extended_bogus_prevention(documents):
    doc = documents["bogus_prevention.scm.txt"]
    ext = ExtendedCausalModel(doc.model, doc.normality_order())
    assert not oracle_is_extended_cause(ext, doc.contexts["main"],
                                        [event("B", 1)], event("VS", 1))


def test_oracle_extended_background_conditions(documents):
    doc = documents["background_conditions.scm.txt"]
    ext = ExtendedCausalModel(doc.model, doc.normality_order())
    assert not oracle_is_extended_cause(ext, doc.contexts["main"],
                                        [event("O", 1)], event("F", 1))
    assert oracle_is_extended_cause(ext, doc.contexts["main"],
                                    [event("M", 1)], event("F", 1))


def test_oracle_cap(documents):
    doc = documents["causal_chain.scm.txt"]
    with pytest.raises(OracleCapExceeded):
        oracle_is_cause(doc.model, doc.contexts["main"],
                        [event("M", 1)], event("ES", 1))


def test_pair_candidates_match_oracle_on_random_models():
    # The singleton differential never exercises AC3 subset pruning, so pit
    # two-conjunct candidates against the reference checker separately.
    import itertools
    import random

    from actualcause import derive_from_typicality, is_actual_cause, solve
    from random_models import all_contexts, random_model, random_typicality

    rng = random.Random(424242)
    for _ in range(15):
        model = random_model(rng)
        spec = random_typicality(rng, model)
        ext = ExtendedCausalModel(model, derive_from_typicality(model, spec))
        for context in all_contexts(model):
            actual = solve(model, context)
            effect = event(model.endogenous[-1], actual[model.endogenous[-1]])
            for pair in itertools.combinations(model.endogenous, 2):
                conjuncts = tuple(event(n, actual[n]) for n in pair)
                got = is_actual_cause(model, context, cand(*conjuncts),
                                      effect).is_cause
                assert got == oracle_is_cause(model, context, conjuncts,
                                              effect), (pair, context)
                got_ext = is_extended_cause(ext, context, cand(*conjuncts),
                                            effect).is_cause
                assert got_ext == oracle_is_extended_cause(
                    ext, context, conjuncts, effect), (pair, context)


def test_sweep_matches_oracle_on_poisoning(documents):
    from actualcause import find_all_causes, solve

    doc = documents["poisoning.scm.txt"]
    context = doc.contexts["u11"]
    actual = solve(doc.model, context)
    effect = event("D", 1)
    swept = {str(c) for c in find_all_causes(doc.model, context, effect,
                                             max_conjuncts=2)}
    assert swept == {"A=1", "D=1"}
    import itertools

    for size in (1, 2):
        for names in itertools.combinations(doc.model.endogenous, size):
            conjuncts = tuple(event(n, actual[n]) for n in names)
            in_sweep = " & ".join(str(c) for c in conjuncts) in swept
            assert in_sweep == oracle_is_cause(doc.model, context, conjuncts,
                                               effect), names


def test_sweep_matches_oracle_on_random_models():
    # Pairs read AC3 off the single conjuncts the sweep found, so the sweep
    # is checked against the reference over every context.
    import itertools
    import random

    from actualcause import find_all_causes, solve
    from random_models import all_contexts, random_model

    rng = random.Random(515)
    for _ in range(15):
        model = random_model(rng)
        for context in all_contexts(model):
            actual = solve(model, context)
            effect = event(model.endogenous[-1], actual[model.endogenous[-1]])
            swept = [c.conjuncts for c in find_all_causes(model, context, effect,
                                                          max_conjuncts=2)]
            expected = [
                conjuncts
                for size in (1, 2)
                for names in itertools.combinations(model.endogenous, size)
                for conjuncts in [tuple(event(n, actual[n]) for n in names)]
                if oracle_is_cause(model, context, conjuncts, effect)
            ]
            assert swept == expected, context


def test_contingency_slot_for_untouched_variables(documents):
    # Leaving the backup's readiness out of the pin set changes nothing: it
    # sits at its actual value either way.
    from actualcause import check_ac2

    doc = documents["poisoning.scm.txt"]
    u11 = doc.contexts["u11"]
    with_readiness = check_ac2(doc.model, u11, cand(event("A", 1)),
                               event("D", 1), w_set=("R", "B"),
                               w_values=(1, 0), x_prime=(0,))
    without = check_ac2(doc.model, u11, cand(event("A", 1)), event("D", 1),
                        w_set=("B",), w_values=(0,), x_prime=(0,))
    assert with_readiness and without


def test_oracle_agrees_on_small_fixtures(documents):
    small = [
        ("forest_fire_disjunctive.scm.txt", "u11", "F"),
        ("forest_fire_conjunctive.scm.txt", "u11", "F"),
        ("poisoning.scm.txt", "u11", "D"),
        ("bogus_prevention.scm.txt", "main", "VS"),
        ("bogus_prevention_pn.scm.txt", "main", "VS"),
        ("omission_a.scm.txt", "main", "D"),
        ("office_pens.scm.txt", "main", "PO"),
        ("background_conditions.scm.txt", "main", "F"),
        ("preemption.scm.txt", "main", "D"),
        ("short_circuit.scm.txt", "main", "VS"),
        ("short_circuit_intentions.scm.txt", "main", "VS"),
    ]
    from actualcause import solve

    for filename, ctx_name, effect_var in small:
        doc = documents[filename]
        context = doc.contexts[ctx_name]
        actual = solve(doc.model, context)
        effect = event(effect_var, actual[effect_var])
        for name in doc.model.endogenous:
            for value in doc.model.range_of(name):
                candidate = [event(name, value)]
                main = is_actual_cause(doc.model, context,
                                       cand(*candidate), effect).is_cause
                assert main == oracle_is_cause(doc.model, context,
                                               candidate, effect), (
                    filename, name, value)
                if doc.has_normality():
                    ext = ExtendedCausalModel(doc.model, doc.normality_order())
                    main_ext = is_extended_cause(ext, context, cand(*candidate),
                                                 effect).is_cause
                    assert main_ext == oracle_is_extended_cause(
                        ext, context, candidate, effect), (filename, name, value)


def _negated(body):
    """Whether the effect holds a negation anywhere."""
    if isinstance(body, Negation):
        return True
    return isinstance(body, (Conjunction, Disjunction)) and any(map(_negated, body.operands))


def test_sweep_and_extended_verdicts_match_oracle_on_compound_effects():
    # Random effects join events with & and |, some negated, so the sweep's
    # subset rule and the extended verdicts meet effects that the last
    # variable's actual event never gives, and the oracle its negation branch.
    import itertools
    import random

    from actualcause import derive_from_typicality, find_all_causes, solve
    from random_models import all_contexts, random_effect, random_model, random_typicality

    rng = random.Random(606)
    negated = 0
    for _ in range(60):
        model = random_model(rng)
        ext = ExtendedCausalModel(model, derive_from_typicality(
            model, random_typicality(rng, model)))
        for context in all_contexts(model):
            actual = solve(model, context)
            effect = random_effect(rng, model, actual)
            negated += _negated(effect)
            candidates = [tuple(event(n, actual[n]) for n in names)
                          for size in (1, 2)
                          for names in itertools.combinations(model.endogenous, size)]
            swept = [c.conjuncts for c in find_all_causes(model, context, effect,
                                                          max_conjuncts=2)]
            assert swept == [c for c in candidates
                             if oracle_is_cause(model, context, c, effect)], (context, effect)
            for conjuncts in candidates:
                got = is_extended_cause(ext, context, cand(*conjuncts), effect).is_cause
                assert got == oracle_is_extended_cause(ext, context, conjuncts, effect), (
                    conjuncts, context, effect)
    assert negated
