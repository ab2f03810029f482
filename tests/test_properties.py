"""Property-based checks over randomized models, orders, and inputs."""

import itertools
import random
import re
from typing import Optional, Sequence
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from actualcause import (
    BinOp,
    CandidateCause,
    CausalFormula,
    CausalModel,
    Const,
    Equation,
    ExtendedCausalModel,
    Ite,
    ModelError,
    Negation,
    PrimitiveEvent,
    Ref,
    SearchBudgetExceeded,
    Table,
    TrivialOrder,
    Variable,
    derive_from_typicality,
    enumerate_witnesses,
    evaluate,
    find_all_causes,
    intervene,
    is_actual_cause,
    is_extended_cause,
    satisfies,
    solve,
    validate_model,
)
from actualcause import checker, oracle
from actualcause import model as model_module
from actualcause.checker import CauseSearch, Engine
from actualcause.corpus import fixture_dir
from actualcause.dsl import MAX_NESTING, DslError, parse_document, parse_query
from actualcause.model import (
    Expr, _MissingRow, _bounds, _compile, _directions, _reach_masks, _walk,
)

from random_models import (
    EXPRESSION_RANGES,
    all_contexts,
    exhaustive_witnesses,
    expression_model,
    random_effect,
    random_expression,
    random_model,
    random_monotone_model,
    random_symmetric_model,
    random_typicality,
    shuffled_ranges,
    tree_value,
)

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
            assert world[name] == tree_value(model.equations[name].body, env)


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
    # Any prefix, pinning the body's own variables too, reads the solution
    # of the intervened model.
    body = random_effect(rng, model, solve(model, context))
    pinned = rng.sample(model.endogenous, rng.randint(0, len(model.endogenous)))
    prefix = tuple((name, rng.choice(model.range_of(name))) for name in pinned)
    assert satisfies(model, context, CausalFormula(prefix, body)) == evaluate(
        body, solve(intervene(model, dict(prefix)), context))


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


FIXTURE_TEXTS = [path.read_text(encoding="utf-8")
                 for path in sorted(fixture_dir().glob("*.scm.txt"))]

# Numeric characters that are no decimal digit, a decimal digit of another
# script, a letter, a line break that only str.splitlines knows, and a lone
# surrogate.
ODD_CHARACTERS = ["\u00b2", "\u2460", "\u00bd", "\u216b", "\u0661", "\u00e9",
                  "\x0b", "\ud800"]


@st.composite
def fixture_with_one_odd_character(draw):
    """A fixture with one character from the pool inserted anywhere, beside
    a token, or in place of a token (``U=1`` becomes ``U=²``)."""
    text = draw(st.sampled_from(FIXTURE_TEXTS))
    tokens = [m.span() for m in re.finditer(r"\w+|\S", text)]
    start, end = draw(st.one_of(
        st.integers(0, len(text)).map(lambda i: (i, i)),
        st.sampled_from(tokens),
        st.sampled_from(tokens).map(lambda span: (span[0], span[0])),
        st.sampled_from(tokens).map(lambda span: (span[1], span[1])),
    ))
    return text[:start] + draw(st.sampled_from(ODD_CHARACTERS)) + text[end:], start


@given(fixture_with_one_odd_character())
@settings(max_examples=300, deadline=None)
def test_parser_total_on_fixtures_with_one_odd_character(case):
    text, where = case
    size = len(text.encode("utf-8", "surrogatepass"))
    try:
        parse_document(text)
    except DslError as exc:
        assert exc.diagnostics
        for diagnostic in exc.diagnostics:
            span = diagnostic.span
            assert 0 <= span.offset < span.offset + span.length <= size + 1
    line = text[text.rfind("\n", 0, where) + 1:].split("\n")[0]
    try:
        parse_query(line)
    except DslError as exc:
        assert exc.diagnostics


# -- equation analysis -----------------------------------------------------------


@given(SEEDS)
@settings(max_examples=150, deadline=None)
def test_equation_interval_and_directions_agree_with_evaluation(seed):
    rng = random.Random(seed)
    body = random_expression(rng)
    model = expression_model(body)
    refs = sorted(body.referenced())
    outputs = {
        combo: tree_value(body, dict(zip(refs, combo)))
        for combo in itertools.product(*(sorted(model.range_of(r)) for r in refs))
    }
    low, high = _bounds(model, body)
    assert all(low <= value <= high for value in outputs.values())
    directions = _directions(model, "T")
    assert list(directions) == refs
    for i, name in enumerate(refs):
        ways = set()  # signs of the output's change over every raise of name
        for combo, value in outputs.items():
            for raised in model.range_of(name):
                if raised > combo[i]:
                    after = outputs[combo[:i] + (raised,) + combo[i + 1:]]
                    ways.add((after > value) - (after < value))
        ways.discard(0)
        assert directions[name] == (ways.pop() if len(ways) == 1 else
                                    0 if not ways else None), name
    with mock.patch.object(model_module, "DIRECTION_CAP", len(outputs) - 1):
        capped = _directions(expression_model(body), "T")
    assert capped == (dict.fromkeys(refs) if refs else {})


@given(SEEDS)
@settings(max_examples=150, deadline=None)
def test_totality_and_interval_agree_with_the_walk_over_ragged_tables(seed):
    rng = random.Random(seed)
    body = random_expression(rng, ragged=True)
    low = rng.randint(-4, 2)
    model = expression_model(body, tuple(range(low, low + rng.randint(1, 6))))
    refs = sorted(body.referenced())
    walk = list(_walk(model, body))
    expected = []
    for combo in itertools.product(*(sorted(model.range_of(r)) for r in refs)):
        env = dict(zip(refs, combo))
        try:
            expected.append((env, tree_value(body, env)))
        except ModelError as fault:
            expected.append((env, str(fault)))
    assert [(env, str(out) if isinstance(out, Exception) else out)
            for env, out in walk] == expected
    missing = any(isinstance(out, ModelError) for _, out in walk)
    outside = any(out not in model.range_of("T") for _, out in walk
                  if not isinstance(out, ModelError))
    problems = validate_model(model).problems
    assert [p.kind for p in problems] == (["totality"] if missing or outside else [])
    bounds = _bounds(model, body)
    if bounds is not None:
        assert not missing
        assert all(bounds[0] <= out <= bounds[1] for _, out in walk)


@given(SEEDS, st.booleans())
@settings(max_examples=150, deadline=None)
def test_compiled_equation_agrees_with_evaluate(seed, ragged):
    # The reference is the test-only tree walker, ``tree_value``.
    rng = random.Random(seed)
    body = random_expression(rng, ragged=ragged)
    names = sorted(EXPRESSION_RANGES)
    rng.shuffle(names)
    # Position 0 holds no variable, so a misplaced read meets None.
    [compiled] = _compile((body,), {name: i + 1 for i, name in enumerate(names)})
    for combo in itertools.product(*(EXPRESSION_RANGES[name] for name in names)):
        try:
            expected = tree_value(body, dict(zip(names, combo)))
        except ModelError as fault:
            with pytest.raises(_MissingRow) as raised:
                compiled([None, *combo])
            assert str(raised.value) == str(fault)
        else:
            assert compiled([None, *combo]) == expected


@given(SEEDS)
@settings(max_examples=100, deadline=None)
def test_incremental_solve_equals_a_full_walk(seed):
    # Engine.solve_tuple re-solves only the pins' descendants from the actual
    # world; the reference walks every equation's tree over a dict env.  Each
    # key is also solved through its mask's plan, on fresh engines where the
    # plan path runs first and where the key-derived path does.
    rng = random.Random(seed)
    model = rng.choice((random_model, random_monotone_model))(rng, 5)
    contexts = list(all_contexts(model))
    for context in rng.sample(contexts, min(3, len(contexts))):
        engine = Engine(model, context)
        plan_first, key_first = Engine(model, context), Engine(model, context)
        for mask in (rng.getrandbits(len(model.endogenous)) for _ in range(3)):
            for _ in range(3):
                key = []
                for i, name in enumerate(model.endogenous):
                    actual = engine.actual[i]
                    away = [v for v in model.range_of(name) if v != actual]
                    key.append(None if not mask >> i & 1
                               else actual if rng.random() < 0.4 else rng.choice(away))
                env = dict(context)
                for name in model.topological_order():
                    pin = key[model.endo_index(name)]
                    env[name] = (tree_value(model.equations[name].body, env)
                                 if pin is None else pin)
                expected = tuple(env[name] for name in model.endogenous)
                assert engine.solve_tuple(tuple(key)) == expected
                assert plan_first.solve_tuple(tuple(key), plan_first.plan(mask)) == expected
                assert key_first.solve_tuple(tuple(key)) == expected
                assert key_first.solve_tuple(tuple(key), key_first.plan(mask)) == expected
                assert plan_first.solve_tuple(tuple(key)) == expected


def _kernel_body(rng: random.Random, ranges: dict) -> Expr:
    """A body over the variables of ``ranges``: a random expression, or one
    that repeats a subtree, holds a table under ite whose rows cover only
    the branch's side of the test, or is a left-deep chain of
    ``MAX_NESTING`` operators."""
    names = sorted(ranges)
    sub = random_expression(rng, 2, ranges=ranges)
    shape = rng.randrange(4)
    if shape == 0:
        op = rng.choice(("min", "max", "+", "-", "*"))
        return Ite(sub, Const(rng.randint(-2, 2)), BinOp(op, sub, sub), BinOp("-", Const(-3), sub))
    if shape == 1:
        name = rng.choice(names)
        value = rng.choice(ranges[name])
        args = tuple(sorted({name, rng.choice(names)}))
        rows = tuple((combo, rng.randint(-3, 3))
                     for combo in itertools.product(*map(ranges.get, args))
                     if combo[args.index(name)] == value)
        return Ite(Ref(name), Const(value), Table(args, rows), sub)
    if shape == 2:
        body = Ref(rng.choice(names))
        for _ in range(MAX_NESTING):
            term = Ref(rng.choice(names)) if rng.random() < 0.7 else Const(rng.randint(-2, 2))
            body = BinOp(rng.choice(("+", "-", "min", "max")), body, term)
        return body
    return random_expression(rng, 3, ranges=ranges)


@given(SEEDS)
@settings(max_examples=50, deadline=None)
def test_the_kernel_equals_the_tree_walk(seed):
    # A plain solve, a satisfies prefix, an intervened model's solve and an
    # engine on it all run the model's one generated kernel; each equals the
    # walk over every equation's tree, in order, with the pins held.  Each
    # range is declared shuffled, and a kernel may be split into functions
    # of one or two positions, as a wide model's is.
    rng = random.Random(seed)
    chunk = mock.patch.object(model_module, "_CHUNK", rng.choice((1, 2, model_module._CHUNK)))
    ranges = dict(EXPRESSION_RANGES)
    variables = [Variable(name, "exogenous", values) for name, values in ranges.items()]
    equations = []
    for name in ("P", "Q", "R"):
        body = _kernel_body(rng, ranges)
        refs = sorted(body.referenced())
        outputs = {tree_value(body, dict(zip(refs, combo)))
                   for combo in itertools.product(*map(ranges.get, refs))}
        if len(outputs) > 6:
            body = BinOp("min", Const(2), BinOp("max", Const(-2), body))
            outputs = {min(2, max(-2, value)) for value in outputs}
        ranges[name] = tuple(rng.sample(sorted(outputs), len(outputs)))
        variables.append(Variable(name, "endogenous", ranges[name]))
        equations.append(Equation(name, body))
    model = CausalModel(variables, equations)
    assert validate_model(model).ok

    def walk(context, pins):
        env = dict(context)
        for name in model.endogenous:
            env[name] = (pins[name] if name in pins
                         else tree_value(model.equations[name].body, env))
        return tuple(env[name] for name in model.endogenous)

    for context in rng.sample(list(all_contexts(model)), 4):
        with chunk:
            assert solve(model, context).values == walk(context, {})
        pins = {name: rng.choice(ranges[name])
                for name in rng.sample(model.endogenous, rng.randint(1, 2))}
        expected = walk(context, pins)
        for name, value in zip(model.endogenous, expected):
            prefix = tuple(pins.items())
            assert satisfies(model, context, CausalFormula(prefix, PrimitiveEvent(name, value)))
            for other in set(ranges[name]) - {value}:
                assert not satisfies(model, context,
                                     CausalFormula(prefix, PrimitiveEvent(name, other)))
        child = intervene(model, pins)
        assert solve(child, context).values == expected
        assert Engine(child, context).actual == expected
        more = {name: rng.choice(ranges[name]) for name in rng.sample(model.endogenous, 1)}
        assert solve(intervene(child, more), context).values == walk(context, {**pins, **more})


# -- refutation by monotonicity ----------------------------------------------------


def _oracle_passes(model, context, conjuncts, effect, x_prime):
    """The oracle's literal AC2 expansion, for one alternative only."""
    actual = solve(model, context)
    x_vars = [c.variable for c in conjuncts]
    x_actual = {c.variable: c.value for c in conjuncts}
    others = [v for v in model.endogenous if v not in x_vars]
    for w_size in range(len(others) + 1):
        for w_vars in itertools.combinations(others, w_size):
            z_rest = [v for v in others if v not in w_vars]
            for w_vals in itertools.product(*(model.range_of(v) for v in w_vars)):
                setting = dict(zip(x_vars, x_prime))
                setting.update(zip(w_vars, w_vals))
                if not oracle._holds(effect, oracle._solve_with(model, context, setting)) \
                        and oracle._ac2b(model, context, x_actual, w_vars, w_vals,
                                         z_rest, actual, effect):
                    return True
    return False


@given(SEEDS)
@settings(max_examples=200, deadline=None)
def test_refuted_alternatives_have_no_witness(seed):
    rng = random.Random(seed)
    model = (random_monotone_model if rng.random() < 0.8 else random_model)(rng)
    context = rng.choice(list(all_contexts(model)))
    actual = solve(model, context)
    effect = random_effect(rng, model, actual)
    names = rng.sample(model.endogenous, rng.randint(1, 2))
    conjuncts = tuple(PrimitiveEvent(n, actual[n]) for n in names)
    actual_x = tuple(c.value for c in conjuncts)
    _, paths = checker._effect_signs(model, tuple(names), checker._event_variables(effect))
    kept = checker._kept_ways(model, effect, paths, names)
    refuted = {
        alt for alt in itertools.product(*(model.range_of(n) for n in names))
        if alt != actual_x and kept & checker._shift(actual_x, alt)
    }
    pruned = CauseSearch(Engine(model, context), effect).enumerate(conjuncts)
    with mock.patch.dict(checker._RULES, {"monotone-alternatives": False}):
        unpruned = CauseSearch(Engine(model, context), effect).enumerate(conjuncts)
    assert pruned == unpruned
    assert not refuted & {record.x_prime for record in unpruned}
    for alt in refuted:
        assert not _oracle_passes(model, context, conjuncts, effect, alt)


def _signs(model: CausalModel, x_vars: Sequence[str]) -> dict[str, Optional[int]]:
    """Sign of each endogenous variable relative to the candidate variables:
    how it moves when they all rise, or None when that is unknown."""
    index = model._endo_index
    reach = _reach_masks(model)
    downstream = 0
    for name in x_vars:
        downstream |= reach[index[name]]
    signs: dict[str, Optional[int]] = {}
    for name in model.topological_order():
        if name in x_vars:
            sign = 1
        elif downstream >> index[name] & 1:
            sign = 0
            for parent, way in _directions(model, name).items():
                parent_sign = signs.get(parent, 0)
                if parent_sign == 0 or way == 0:
                    continue
                if parent_sign is None or way is None or sign not in (0, way * parent_sign):
                    sign = None
                    break
                sign = way * parent_sign
        else:
            sign = 0
        signs[name] = sign
    return signs


def _relevance(model: CausalModel, x_vars: set[str], effect_vars: set[str]) -> int:
    """Mask of the endogenous positions with a path to an effect variable
    that avoids the candidate's variables, each step a reference whose
    direction is not 0 (an unknown direction counts as a path)."""
    reaching = set(effect_vars)
    mask = 0
    for name in reversed(model.topological_order()):
        if name in reaching and name not in x_vars:
            mask |= 1 << model._endo_index[name]
            reaching.update(p for p, way in _directions(model, name).items() if way != 0)
    return mask


@given(SEEDS)
@settings(max_examples=200, deadline=None)
def test_one_reach_pass_gives_the_relevance_and_the_effect_signs(seed):
    # _signs and _relevance above are the two passes the search made before
    # they became one: signs over every descendant of the candidate, and the
    # relevant mask.  The one pass works out signs on relevant positions only,
    # which every effect variable off the candidate is.
    rng = random.Random(seed)
    model = rng.choice((random_model, random_monotone_model))(rng, 6)
    actual = solve(model, rng.choice(list(all_contexts(model))))
    effect = random_effect(rng, model, actual)
    if rng.random() < 0.2:
        effect = Negation(effect)
    effect_vars = checker._event_variables(effect)
    x_vars = tuple(rng.sample(model.endogenous, rng.randint(1, 2)))
    relevant, paths = checker._effect_signs(model, x_vars, effect_vars)
    assert relevant == _relevance(model, set(x_vars), effect_vars)
    expected = _signs(model, x_vars)
    # The common sign of each pass over the candidate: 0 when it reaches no
    # candidate variable, None when two of their signs differ or one is None.
    common = {}
    for name in effect_vars:
        reached = {paths[name][v] for v in x_vars if v in paths[name]}
        common[name] = reached.pop() if len(reached) == 1 else None if reached else 0
    assert common == {name: expected[name] for name in effect_vars}
    # The reader gives the same ways from the passes as from passes that
    # hold the reference's sign on the candidate's first variable alone.
    reference = {name: {x_vars[0]: expected[name]} for name in effect_vars}
    assert checker._kept_ways(model, effect, paths, x_vars) \
        == checker._kept_ways(model, effect, reference, x_vars)


# -- the witness search against an exhaustive walk ---------------------------------


@given(SEEDS)
@settings(max_examples=200, deadline=None)
def test_witness_search_equals_an_exhaustive_walk(seed):
    # The search decides each setting on its pins that can reach the effect,
    # skips the settings whose relevant part fails, and skips every set that
    # pins all the effect's variables; a set adding pins off the relevant set
    # takes its relevant part's alternatives unasked, and one whose pins
    # leave no variable below them unpinned is laid over the actual world
    # unsolved.  The walk skips none.  A third of the effects are one event,
    # a third one negated event that holds, and the rest mostly compound.
    # Half the models declare their ranges out of order.  The candidate
    # avoids the effect's variables in a third of the draws, so that a set
    # can pin all of them; in another third it holds every one, so that no
    # pin is relevant and every non-empty set adds pins to the empty one.
    rng = random.Random(seed)
    model = rng.choice((random_model, random_monotone_model))(rng, 7, min_endo=6)
    if rng.random() < 0.5:
        model = shuffled_ranges(rng, model)
    context = rng.choice(list(all_contexts(model)))
    actual = solve(model, context)
    shape = rng.randrange(3)
    name = rng.choice(model.endogenous)
    if shape == 0:
        effect = PrimitiveEvent(name, actual[name])
    elif shape == 1:
        others = [v for v in model.range_of(name) if v != actual[name]]
        effect = Negation(PrimitiveEvent(name, rng.choice(others)))
    else:
        effect = random_effect(rng, model, actual)
    inside = sorted(checker._event_variables(effect))
    outside = [n for n in model.endogenous if n not in inside]
    draw = rng.randrange(3)
    if draw == 0 and outside:
        names = rng.sample(outside, rng.randint(1, min(3, len(outside))))
    elif draw == 1 and len(inside) <= 3:
        names = inside + rng.sample(outside, rng.randint(0, min(3 - len(inside), len(outside))))
    else:
        names = rng.sample(model.endogenous, rng.randint(1, 3))
    conjuncts = tuple(PrimitiveEvent(n, actual[n]) for n in names)
    expected = exhaustive_witnesses(model, context, conjuncts, effect)
    assert enumerate_witnesses(model, context, conjuncts, effect) == expected
    salt = rng.randrange(3)

    def keep(world):
        return (sum(world.values) + salt) % 3 != 0

    for witness_filter, records in ((None, expected),
                                    (keep, [r for r in expected if keep(r.world)])):
        found = CauseSearch(Engine(model, context), effect)._search(conjuncts)
        assert [r for r in found if witness_filter is None or witness_filter(r.world)] \
            == records
        search = CauseSearch(Engine(model, context), effect)
        assert search.has_witness(conjuncts, witness_filter) == bool(records)


# -- one soundness gate for every pruning rule --------------------------------------


def _rule_draw(rng: random.Random):
    """A model, context, effect and candidate of the shapes where the
    search's pruning rules fire: a third of the models with a planted class
    of interchangeable variables, the rest mostly monotone, most with their
    ranges declared out of order; single events at an end of their range,
    half of them on the last variable, which has the longest past (in
    planted models on a member, on the chain's consumer or on the last
    variable), negated events, and compound effects, now and then negated;
    candidates beside the effect's variables in three draws of five, holding
    them in one, anywhere in one."""
    symmetric = rng.random() < 1 / 3
    if symmetric:
        model = random_symmetric_model(rng)
    else:
        model = (random_monotone_model if rng.random() < 0.75 else random_model)(rng, 5, 4)
        if rng.random() < 0.7:
            model = shuffled_ranges(rng, model)
    context = rng.choice(list(all_contexts(model)))
    actual = solve(model, context)
    # An event at an end of its variable's range can be monotone.
    ends = [n for n in model.endogenous if actual[n] in (min(model.range_of(n)),
                                                         max(model.range_of(n)))]
    name = rng.choice(ends or model.endogenous)
    if rng.random() < 0.5:
        name = (ends or model.endogenous)[-1]
    if symmetric:
        # A member of the class, the chain's consumer, or the decoy when there is one.
        name = rng.choice(("V0", "W", model.endogenous[-1]))
    shape = rng.choices(range(4), (4, 1, 4, 1))[0]
    if shape == 0:
        effect = PrimitiveEvent(name, actual[name])
    elif shape == 1:
        others = [v for v in model.range_of(name) if v != actual[name]]
        effect = Negation(PrimitiveEvent(name, rng.choice(others)))
    else:
        effect = random_effect(rng, model, actual)
        if shape == 3:
            effect = Negation(effect)
    inside = sorted(checker._event_variables(effect))
    outside = [n for n in model.endogenous if n not in inside]
    draw = rng.choices(range(3), (3, 1, 1))[0]
    if draw == 0 and outside:
        names = rng.sample(outside, rng.randint(1, min(2, len(outside))))
    elif draw == 1 and len(inside) <= 2:
        names = inside + rng.sample(outside, rng.randint(0, min(3 - len(inside), len(outside))))
    else:
        names = rng.sample(model.endogenous, rng.randint(1, 3))
    conjuncts = tuple(PrimitiveEvent(n, actual[n]) for n in names)
    return model, context, effect, conjuncts


@given(SEEDS)
@settings(max_examples=1000, deadline=None)
def test_every_pruning_rule_is_exact(seed):
    # Each rule of ``checker._RULES`` saves work without changing an answer:
    # with any one of them off, the records of a plain search, the
    # filtered and plain has_witness answers, the filtered and plain AC3 and
    # the K=2 sweep are those with every rule on, and the records are the
    # exhaustive walk's.  On scratch copies this fails when a monotone pin
    # takes its neighbour in range order rather than numeric order, when
    # the effect-mask skip fires on any overlap with the effect's
    # variables, and when the symmetry rule ignores context values, keeps
    # the effect's variables in their classes or sorts the operands of -.
    rng = random.Random(seed)
    model, context, effect, conjuncts = _rule_draw(rng)
    salt = rng.randrange(3)

    def keep(world):
        return (sum(world.values) + salt) % 3 != 0

    def outcome():
        records = list(CauseSearch(Engine(model, context), effect)._search(conjuncts))
        search = CauseSearch(Engine(model, context), effect)
        return (records, search.has_witness(conjuncts, keep), search.has_witness(conjuncts),
                search.ac3(conjuncts, keep), search.ac3(conjuncts),
                find_all_causes(model, context, effect, 2))

    everything = outcome()
    assert everything[0] == exhaustive_witnesses(model, context, conjuncts, effect)
    assert everything[1] == any(keep(r.world) for r in everything[0])
    for rule in checker._RULES:
        with mock.patch.dict(checker._RULES, {rule: False}):
            assert outcome() == everything, rule


def _monotone_along(model, context, effect, x_vars, name, way):
    """Whether, with the candidate's variables and any other variables held
    at any values, the effect holding with ``name`` at a value implies it
    holding at every value beyond it on the ``way`` side: a brute-force
    walk over every set of other variables held and every setting."""
    values = sorted(model.range_of(name), reverse=way < 0)
    others = [n for n in model.endogenous if n != name and n not in x_vars]
    for size in range(len(others) + 1):
        for held in itertools.combinations(others, size):
            held = x_vars + held
            for setting in itertools.product(*(model.range_of(n) for n in held)):
                pins = dict(zip(held, setting))
                truth = [evaluate(effect, solve(intervene(model, {**pins, name: value}), context))
                         for value in values]
                if any(a and not b for a, b in zip(truth, truth[1:])):
                    return False
    return True


@given(SEEDS)
@settings(max_examples=150, deadline=None)
def test_every_pin_direction_agrees_with_brute_force(seed):
    # The backward passes give each pin's sign; where the effect is known to
    # be monotone along a pin, its truth must be monotone along the pin's
    # numeric order with the candidate held at any values and any other
    # variables pinned, in every context.  Half the models declare their
    # ranges out of order.
    rng = random.Random(seed)
    model = (random_monotone_model if rng.random() < 0.8 else random_model)(rng, 4)
    if rng.random() < 0.5:
        model = shuffled_ranges(rng, model)
    contexts = list(all_contexts(model))
    effect = random_effect(rng, model, solve(model, rng.choice(contexts)))
    x_vars = tuple(rng.sample(model.endogenous, rng.randint(1, 2)))
    _, paths = checker._effect_signs(model, x_vars, checker._event_variables(effect))
    for name in model.endogenous:
        ways = name not in x_vars and checker._kept_ways(model, effect, paths, (name,))
        if ways:
            way = 1 if ways & checker._UP else -1
            for context in contexts:
                assert _monotone_along(model, context, effect, x_vars, name, way)


# -- the candidate sweep against one that searches before AC3 ----------------------


def _sweep_searching_first(model, context, effect, max_conjuncts, max_search):
    """The candidate sweep asking AC1, then the candidate's own witness
    search, then AC3, on a fresh search."""
    search = CauseSearch(Engine(model, context), effect, max_search=max_search)
    actual = search.engine.actual_world()
    found = []
    for size in range(1, min(max_conjuncts, len(model.endogenous)) + 1):
        for names in itertools.combinations(model.endogenous, size):
            conjuncts = tuple(PrimitiveEvent(n, actual[n]) for n in names)
            if search.ac1(conjuncts) and search.has_witness(conjuncts) \
                    and search.ac3(conjuncts):
                found.append(CandidateCause(conjuncts))
    return found


@given(SEEDS)
@settings(max_examples=150, deadline=None)
def test_sweep_keeps_its_causes_and_its_budget_whatever_the_clause_order(seed):
    # The sweep reads AC3 off the causes it already found, so it skips the
    # searches of candidates holding one of them.  No skipped search
    # would have gone over the budget: size 1 searches every singleton when
    # the effect holds, and no set needs more than its widest singleton.  Half
    # the draws take that singleton's budget, the least that size 1 passes.
    rng = random.Random(seed)
    model = random_monotone_model(rng, 5)
    context = rng.choice(list(all_contexts(model)))
    actual = solve(model, context)
    effect = random_effect(rng, model, actual)
    k = rng.choice((2, 3))
    search = CauseSearch(Engine(model, context), effect)
    widest = max(search.budget_for((PrimitiveEvent(n, actual[n]),))
                 for n in model.endogenous)
    max_search = widest if rng.random() < 0.5 else rng.randint(0, widest)

    def outcome(sweep):
        try:
            return sweep(model, context, effect, k, max_search)
        except SearchBudgetExceeded as exc:
            return exc.candidates, exc.budget

    assert outcome(find_all_causes) == outcome(_sweep_searching_first)
