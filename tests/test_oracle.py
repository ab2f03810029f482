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
from actualcause import model as model_module
from actualcause.corpus import load_document
from actualcause.oracle import (
    oracle_best_witnesses,
    oracle_is_cause,
    oracle_is_extended_cause,
)


def event(name, value):
    return PrimitiveEvent(name, value)


def cand(*events):
    return CandidateCause(tuple(events))


def test_oracle_forest_fire(documents):
    doc = documents["forest_fire_disjunctive.scm.txt"]
    u11 = doc.contexts["u11"]
    assert oracle_is_cause(doc.model, u11, [event("L", 1)], event("F", 1))
    assert oracle_is_cause(doc.model, u11, [event("M", 1)], event("F", 1))


def test_the_oracle_generates_no_kernel(monkeypatch):
    # The oracle solves each counterfactual by its own walk over the
    # equation trees: it builds no solve kernel and runs no generated code.
    doc = load_document("poisoning.scm.txt")
    generated = []

    def counting_exec(code, names):
        generated.append(code)
        return exec(code, names)

    monkeypatch.setattr(model_module, "exec", counting_exec, raising=False)
    for context in doc.contexts.values():
        oracle_is_cause(doc.model, context, [event("A", 1)], event("D", 1))
    assert generated == [] and doc.model._compiled is None


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


def test_sweeps_match_oracle_on_symmetric_models():
    # Planted classes of interchangeable variables and their decoys: a
    # member whose driver's value differs, a consumer reading two members
    # through - or a table, and effects naming a member.  The K=1 and K=2
    # sweeps, which search one candidate per orbit, list exactly the
    # candidates the oracle finds causes, for single, negated and compound
    # effects, in two contexts of each model.
    import itertools
    import random

    from actualcause import find_all_causes, solve
    from random_models import all_contexts, random_effect, random_symmetric_model

    rng = random.Random(737)
    negated = compound = 0
    for _ in range(30):
        model = random_symmetric_model(rng)
        contexts = list(all_contexts(model))
        for context in rng.sample(contexts, min(2, len(contexts))):
            actual = solve(model, context)
            name = rng.choice(model.endogenous)
            other = rng.choice([v for v in model.range_of(name) if v != actual[name]])
            effect = rng.choice((event(name, actual[name]), Negation(event(name, other)),
                                 random_effect(rng, model, actual)))
            negated += _negated(effect)
            compound += isinstance(effect, (Conjunction, Disjunction))
            expected = [conjuncts
                        for size in (1, 2)
                        for names in itertools.combinations(model.endogenous, size)
                        for conjuncts in [tuple(event(n, actual[n]) for n in names)]
                        if oracle_is_cause(model, context, conjuncts, effect)]
            for k in (1, 2):
                swept = [c.conjuncts for c in find_all_causes(model, context, effect, k)]
                assert swept == [c for c in expected if len(c) <= k], (context, effect, k)
    assert negated and compound


def test_best_witnesses_match_oracle_on_fixtures(documents):
    # Every candidate over each variable's range, in every context, for the
    # effects the queries name, on the fixtures with a normality section
    # within the oracle's cap.
    compared = several = 0
    for doc in documents.values():
        if not doc.has_normality() or len(doc.model.endogenous) > 5:
            continue
        ext = ExtendedCausalModel(doc.model, doc.normality_order())
        effects = {q.effect for q in doc.queries if hasattr(q, "effect")}
        for context in doc.contexts.values():
            for effect in effects:
                for name in doc.model.endogenous:
                    for value in doc.model.range_of(name):
                        conjuncts = (event(name, value),)
                        verdict = is_extended_cause(ext, context, cand(*conjuncts), effect)
                        got = [world.values for world in verdict.best_witnesses]
                        assert got == oracle_best_witnesses(ext, context, conjuncts, effect), (
                            context, name, value, effect)
                        compared += 1
                        several += len(got) > 1
    assert compared >= 75 and several


def _consistent_norms(rng, model):
    """Random stated relations that a random ranking of all worlds
    satisfies, so that their closure contradicts no strict one: '>' from a
    higher rank to a lower, '==' within a rank."""
    import itertools

    worlds = [model.world_from_values(values) for values in
              itertools.product(*map(model.range_of, model.endogenous))]
    rank = {world.values: rng.randrange(3) for world in worlds}
    relations = []
    for _ in range(rng.randint(1, 2 * len(worlds))):
        left, right = rng.sample(worlds, 2)
        if rank[left.values] < rank[right.values]:
            left, right = right, left
        relations.append((left, ">" if rank[left.values] > rank[right.values] else "==", right))
    return relations


def test_best_witnesses_match_oracle_on_random_models():
    # Derived orders from random typicality declarations and explicit orders
    # from random consistent relations, on one- and two-conjunct candidates
    # at their actual values, for the last variable's actual event or a
    # compound effect.
    import random

    from actualcause import derive_from_typicality, explicit_order, solve
    from random_models import all_contexts, random_effect, random_model, random_typicality

    rng = random.Random(3030)
    found = several = dropped = 0
    for _ in range(300):
        model = random_model(rng)
        context = rng.choice(list(all_contexts(model)))
        actual = solve(model, context)
        last = model.endogenous[-1]
        effect = (event(last, actual[last]) if rng.random() < 0.5
                  else random_effect(rng, model, actual))
        names = rng.sample(model.endogenous, rng.choice((1, 1, 2)))
        conjuncts = tuple(event(name, actual[name]) for name in names)
        for order in (derive_from_typicality(model, random_typicality(rng, model)),
                      explicit_order(model, _consistent_norms(rng, model))):
            ext = ExtendedCausalModel(model, order)
            verdict = is_extended_cause(ext, context, cand(*conjuncts), effect)
            got = [world.values for world in verdict.best_witnesses]
            assert got == oracle_best_witnesses(ext, context, conjuncts, effect), (
                context, conjuncts, effect)
            found += bool(got)
            several += len(got) > 1
            dropped += bool(got) and len(got) < len({r.world.values for r in verdict.hp_witnesses})
    assert found >= 150 and several >= 50 and dropped >= 100
