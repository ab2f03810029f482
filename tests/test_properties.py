"""Property-based checks over randomized models, orders, and inputs."""

import itertools
import random

from hypothesis import given, settings, strategies as st

from actualcause import (
    CandidateCause,
    CausalFormula,
    ExtendedCausalModel,
    PrimitiveEvent,
    TrivialOrder,
    derive_from_typicality,
    evaluate,
    intervene,
    is_actual_cause,
    is_extended_cause,
    satisfies,
    solve,
)
from actualcause.dsl import DslError, parse_document

from random_models import all_contexts, random_model, random_typicality

SEEDS = st.integers(min_value=0, max_value=2**31 - 1)


@given(SEEDS)
@settings(max_examples=60, deadline=None)
def test_solver_satisfies_every_equation(seed):
    rng = random.Random(seed)
    model = random_model(rng)
    for context in all_contexts(model):
        world = solve(model, context)
        env = dict(context)
        env.update(world.as_dict())
        for name in model.endogenous:
            assert world[name] == model.equations[name].body.evaluate(env)


@given(SEEDS)
@settings(max_examples=60, deadline=None)
def test_intervention_pins_the_target(seed):
    rng = random.Random(seed)
    model = random_model(rng)
    name = rng.choice(model.endogenous)
    value = rng.choice(model.range_of(name))
    pinned = intervene(model, {name: value})
    for context in all_contexts(model):
        assert solve(pinned, context)[name] == value


@given(SEEDS)
@settings(max_examples=60, deadline=None)
def test_empty_prefix_equals_plain_evaluation(seed):
    rng = random.Random(seed)
    model = random_model(rng)
    context = rng.choice(list(all_contexts(model)))
    name = rng.choice(model.endogenous)
    body = PrimitiveEvent(name, rng.choice(model.range_of(name)))
    prefixed = satisfies(model, context, CausalFormula((), body))
    plain = evaluate(body, solve(model, context))
    assert prefixed == plain


@given(SEEDS)
@settings(max_examples=60, deadline=None)
def test_but_for_dependence_implies_cause(seed):
    # A flipped candidate flipping the effect with no pins at all is already
    # a full verdict for singletons.
    rng = random.Random(seed)
    model = random_model(rng)
    context = rng.choice(list(all_contexts(model)))
    actual = solve(model, context)
    effect_var = model.endogenous[-1]
    effect = PrimitiveEvent(effect_var, actual[effect_var])
    for name in model.endogenous:
        candidate = CandidateCause((PrimitiveEvent(name, actual[name]),))
        flipped = {name: 1 - actual[name]}
        if not evaluate(effect, solve(intervene(model, flipped), context)):
            assert is_actual_cause(model, context, candidate, effect).is_cause


@given(SEEDS)
@settings(max_examples=40, deadline=None)
def test_extended_cause_implies_plain_cause(seed):
    rng = random.Random(seed)
    model = random_model(rng)
    spec = random_typicality(rng, model)
    ext = ExtendedCausalModel(model, derive_from_typicality(model, spec))
    for context in all_contexts(model):
        actual = solve(model, context)
        effect_var = model.endogenous[-1]
        effect = PrimitiveEvent(effect_var, actual[effect_var])
        for name in model.endogenous:
            candidate = CandidateCause((PrimitiveEvent(name, actual[name]),))
            verdict = is_extended_cause(ext, context, candidate, effect)
            if verdict.is_cause_extended:
                assert verdict.is_cause_hp
                assert is_actual_cause(model, context, candidate,
                                       effect).is_cause


@given(SEEDS)
@settings(max_examples=40, deadline=None)
def test_trivial_order_changes_nothing(seed):
    rng = random.Random(seed)
    model = random_model(rng)
    ext = ExtendedCausalModel(model, TrivialOrder(model))
    context = rng.choice(list(all_contexts(model)))
    actual = solve(model, context)
    effect_var = model.endogenous[-1]
    effect = PrimitiveEvent(effect_var, actual[effect_var])
    fields = ("is_cause", "ac1", "hp_witnesses", "ac3", "is_cause_hp",
              "best_witnesses", "failed_clause")
    for size in (1, 2):
        for names in itertools.combinations(model.endogenous, size):
            candidate = CandidateCause(
                tuple(PrimitiveEvent(n, actual[n]) for n in names)
            )
            extended = is_extended_cause(ext, context, candidate, effect)
            plain = is_actual_cause(model, context, candidate, effect)
            for field in fields:
                assert getattr(extended, field) == getattr(plain, field), field


@given(SEEDS)
@settings(max_examples=30, deadline=None)
def test_derived_orders_are_preorders(seed):
    rng = random.Random(seed)
    model = random_model(rng)
    spec = random_typicality(rng, model)
    order = derive_from_typicality(model, spec)
    worlds = [
        model.world(dict(zip(model.endogenous, values)))
        for values in itertools.product((0, 1), repeat=len(model.endogenous))
    ]
    for w in worlds:
        assert order.at_least_as_normal(w, w)
    for a, b, c in itertools.product(worlds, repeat=3):
        if order.at_least_as_normal(a, b) and order.at_least_as_normal(b, c):
            assert order.at_least_as_normal(a, c)


@given(st.text(max_size=200))
@settings(max_examples=300, deadline=None)
def test_parser_total_on_arbitrary_text(text):
    try:
        parse_document(text)
    except DslError as exc:
        assert exc.diagnostics


@given(st.binary(max_size=200))
@settings(max_examples=200, deadline=None)
def test_parser_total_on_arbitrary_bytes(blob):
    text = blob.decode("utf-8", errors="replace")
    try:
        parse_document(text)
    except DslError as exc:
        assert exc.diagnostics
