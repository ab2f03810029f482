"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -s`` to see the criterion lines.
"""

import itertools
import random
import time

import pytest

from actualcause import (
    CandidateCause,
    CausalModel,
    Equation,
    ExtendedCausalModel,
    PrimitiveEvent,
    Ref,
    TrivialOrder,
    Variable,
    derive_from_typicality,
    equation_isomorphism,
    grade_candidates,
    is_actual_cause,
    is_extended_cause,
    solve,
)
from actualcause.corpus import load_document
from actualcause.dsl import DslError, parse_document
from actualcause.oracle import oracle_is_cause, oracle_is_extended_cause

from random_models import all_contexts, random_model, random_typicality, tree_value


def event(name, value):
    return PrimitiveEvent(name, value)


def cand(*events):
    return CandidateCause(tuple(events))


def _report(label, budget_seconds, body):
    started = time.perf_counter()
    try:
        body()
    except BaseException:
        print(f"ACCEPTANCE {label}: FAIL "
              f"({time.perf_counter() - started:.2f}s)")
        raise
    elapsed = time.perf_counter() - started
    print(f"ACCEPTANCE {label}: PASS ({elapsed:.2f}s)")
    assert elapsed < budget_seconds, f"{label} exceeded {budget_seconds}s"


def _hp_verdict(filename, context_name, cause, effect):
    doc = load_document(filename)
    return is_actual_cause(doc.model, doc.contexts[context_name], cause, effect)


def _ext_verdict(filename, context_name, cause, effect):
    doc = load_document(filename)
    ext = ExtendedCausalModel(doc.model, doc.normality_order())
    return is_extended_cause(ext, doc.contexts[context_name], cause, effect)


def test_criterion_1_plain_fixture_suite():
    def body():
        per_fixture = [
            ("forest_fire_disjunctive.scm.txt", "u11", [
                (cand(event("L", 1)), event("F", 1), True),
                (cand(event("M", 1)), event("F", 1), True),
            ]),
            ("poisoning.scm.txt", "u11", [
                (cand(event("A", 1)), event("D", 1), True),
                (cand(event("R", 1)), event("D", 1), False),
            ]),
            ("bogus_prevention.scm.txt", "main", [
                (cand(event("B", 1)), event("VS", 1), True),
            ]),
        ]
        for filename, context, checks in per_fixture:
            started = time.perf_counter()
            for cause, effect, expected in checks:
                verdict = _hp_verdict(filename, context, cause, effect)
                assert verdict.is_cause == expected, (filename, str(cause))
            assert time.perf_counter() - started < 1.0, filename

    _report("1 plain-mode fixtures", 10.0, body)


def test_criterion_2_extended_fixture_suite():
    def body():
        per_fixture = [
            ("bogus_prevention.scm.txt", "main", [
                (cand(event("B", 1)), event("VS", 1), False),
                (cand(event("A", 0)), event("VS", 1), False),
            ]),
            ("background_conditions.scm.txt", "main", [
                (cand(event("O", 1)), event("F", 1), False),
                (cand(event("M", 1)), event("F", 1), True),
            ]),
            ("short_circuit.scm.txt", "main", [
                (cand(event("A", 1)), event("VS", 1), False),
            ]),
            ("short_circuit_intentions.scm.txt", "main", [
                (cand(event("A", 1)), event("VS", 1), False),
            ]),
        ]
        for filename, context, checks in per_fixture:
            started = time.perf_counter()
            for cause, effect, expected in checks:
                verdict = _ext_verdict(filename, context, cause, effect)
                assert verdict.is_cause == expected, (filename, str(cause))
            assert time.perf_counter() - started < 1.0, filename

    _report("2 extended-mode fixtures", 10.0, body)


def test_criterion_3_grading_suite():
    def grade(filename, context_name, first, second, effect):
        doc = load_document(filename)
        ext = ExtendedCausalModel(doc.model, doc.normality_order())
        result = grade_candidates(ext, doc.contexts[context_name],
                                  [first, second], effect)
        return result

    def body():
        started = time.perf_counter()
        result = grade("office_pens.scm.txt", "main", cand(event("PT", 1)),
                       cand(event("AT", 1)), event("PO", 1))
        assert result.pairs[0].relation == "first_above"
        assert time.perf_counter() - started < 1.0

        started = time.perf_counter()
        result = grade("causal_chain.scm.txt", "main", cand(event("LL", 1)),
                       cand(event("M", 1)), event("ES", 1))
        assert all(v.is_cause for v in result.verdicts)
        assert result.pairs[0].relation == "first_above"
        assert time.perf_counter() - started < 1.0

        started = time.perf_counter()
        result = grade("legal_fire.scm.txt", "careless", cand(event("AN", 1)),
                       cand(event("BC", 1)), event("F", 1))
        assert all(v.is_cause for v in result.verdicts)
        assert result.pairs[0].relation == "first_above"
        result = grade("legal_fire.scm.txt", "malicious", cand(event("BM", 1)),
                       cand(event("AN", 1)), event("F", 1))
        assert all(v.is_cause for v in result.verdicts)
        assert result.pairs[0].relation == "first_above"
        assert time.perf_counter() - started < 1.0

        started = time.perf_counter()
        patterns = {}
        for variant in "abcd":
            result = grade(f"omission_{variant}.scm.txt", "main",
                           cand(event("H", 1)), cand(event("W", 0)),
                           event("D", 1))
            patterns[variant] = (result.verdicts[0].is_cause,
                                 result.verdicts[1].is_cause,
                                 result.pairs[0].relation)
        assert patterns["a"] == (True, False, "first_above")
        assert patterns["b"] == (True, True, "equal")
        assert patterns["c"] == (True, True, "first_above")
        assert patterns["d"] == (True, True, "incomparable")
        assert len(set(patterns.values())) == 4
        assert time.perf_counter() - started < 1.0

    _report("3 grading fixtures", 10.0, body)


def test_criterion_4_isomorphism_discrimination():
    def body():
        fire = load_document("forest_fire_disjunctive.scm.txt")
        bogus = load_document("bogus_prevention.scm.txt")
        flip = {0: 1, 1: 0}
        same = {0: 0, 1: 1}
        variable_map = {"UL": "UA", "UM": "UB", "L": "A", "M": "B", "F": "VS"}
        value_maps = {"UL": flip, "L": flip, "UM": same, "M": same, "F": same}
        assert equation_isomorphism(fire.model, bogus.model, variable_map,
                                    value_maps)
        # Flipping F's values as well no longer carries F's equation across.
        assert not equation_isomorphism(fire.model, bogus.model, variable_map,
                                        {**value_maps, "F": flip})
        # Nor does a map that pairs an exogenous with an endogenous variable,
        # or whose values miss either variable's range.
        swapped = {**variable_map, "UL": "A", "L": "UA"}
        assert not equation_isomorphism(fire.model, bogus.model, swapped, value_maps)
        for short in ({0: 1}, {0: 1, 1: 1}):
            assert not equation_isomorphism(fire.model, bogus.model, variable_map,
                                            {**value_maps, "L": short})
        fire_ctx = fire.contexts["u11"]
        bogus_ctx = {variable_map[n]: value_maps[n][v]
                     for n, v in fire_ctx.items()}
        assert bogus_ctx == bogus.contexts["main"]

        def mapped(name, value):
            return event(variable_map[name], value_maps[name][value])

        # Identical plain-mode verdicts across every singleton query.
        for name in fire.model.endogenous:
            for value in (0, 1):
                for effect_value in (0, 1):
                    left = is_actual_cause(
                        fire.model, fire_ctx, cand(event(name, value)),
                        event("F", effect_value))
                    right = is_actual_cause(
                        bogus.model, bogus_ctx, cand(mapped(name, value)),
                        mapped("F", effect_value))
                    assert left.is_cause == right.is_cause, (name, value)

        # ...and different extended verdicts under each document's rankings.
        fire_ext = ExtendedCausalModel(fire.model, fire.normality_order())
        bogus_ext = ExtendedCausalModel(bogus.model, bogus.normality_order())
        left = is_extended_cause(fire_ext, fire_ctx, cand(event("L", 1)),
                                 event("F", 1))
        right = is_extended_cause(bogus_ext, bogus_ctx,
                                  cand(mapped("L", 1)), mapped("F", 1))
        assert left.is_cause and not right.is_cause

    _report("4 isomorphism discrimination", 1.0, body)


def test_criterion_5_differential_oracle_suite():
    def body():
        rng = random.Random(0xC0FFEE)
        disagreements = []
        for index in range(200):
            model = random_model(rng)
            spec = random_typicality(rng, model)
            ranked = ExtendedCausalModel(model,
                                         derive_from_typicality(model, spec))
            trivial = ExtendedCausalModel(model, TrivialOrder(model))
            for context in all_contexts(model):
                actual = solve(model, context)
                effect_var = model.endogenous[-1]
                effect = event(effect_var, actual[effect_var])
                for name in model.endogenous:
                    for value in model.range_of(name):
                        conjuncts = (event(name, value),)
                        candidate = cand(*conjuncts)
                        plain = is_actual_cause(model, context, candidate,
                                                effect).is_cause
                        if plain != oracle_is_cause(model, context, conjuncts,
                                                    effect):
                            disagreements.append((index, "plain", name, value))
                        ext = is_extended_cause(ranked, context, candidate,
                                                effect).is_cause
                        if ext != oracle_is_extended_cause(ranked, context,
                                                           conjuncts, effect):
                            disagreements.append((index, "ranked", name, value))
                        triv = is_extended_cause(trivial, context, candidate,
                                                 effect).is_cause
                        if triv != oracle_is_extended_cause(trivial, context,
                                                            conjuncts, effect):
                            disagreements.append((index, "trivial", name, value))
                        if triv != plain:
                            disagreements.append((index, "conservativity",
                                                  name, value))
        assert not disagreements, disagreements[:5]

    _report("5 differential oracle (200 models)", 60.0, body)


def test_criterion_6_property_suites():
    def body():
        rng = random.Random(0xFEED)

        # Preorder axioms on every constructed order.
        for _ in range(30):
            model = random_model(rng)
            order = derive_from_typicality(model, random_typicality(rng, model))
            worlds = [
                model.world(dict(zip(model.endogenous, values)))
                for values in itertools.product(
                    (0, 1), repeat=len(model.endogenous))
            ]
            for w in worlds:
                assert order.at_least_as_normal(w, w)
            for a, b, c in itertools.product(worlds, repeat=3):
                if order.at_least_as_normal(a, b) and \
                        order.at_least_as_normal(b, c):
                    assert order.at_least_as_normal(a, c)

        # But-for dependence implies causehood; extended implies plain;
        # the solver satisfies its equations; the empty prefix is identity.
        from actualcause import CausalFormula, evaluate, intervene, satisfies

        for _ in range(60):
            model = random_model(rng)
            spec = random_typicality(rng, model)
            ranked = ExtendedCausalModel(model,
                                         derive_from_typicality(model, spec))
            for context in all_contexts(model):
                world = solve(model, context)
                env = dict(context)
                env.update(world.as_dict())
                for name in model.endogenous:
                    assert world[name] == \
                        tree_value(model.equations[name].body, env)
                effect_var = model.endogenous[-1]
                effect = event(effect_var, world[effect_var])
                assert satisfies(model, context, CausalFormula((), effect)) \
                    == evaluate(effect, world)
                for name in model.endogenous:
                    candidate = cand(event(name, world[name]))
                    flipped = {name: 1 - world[name]}
                    if not evaluate(effect,
                                    solve(intervene(model, flipped), context)):
                        assert is_actual_cause(model, context, candidate,
                                               effect).is_cause
                    verdict = is_extended_cause(ranked, context, candidate,
                                                effect)
                    if verdict.is_cause_extended:
                        assert verdict.is_cause_hp

        # Parser fuzz: ten thousand arbitrary inputs, never a crash.
        from actualcause.corpus import fixture_path

        seeds = [
            fixture_path(name).read_text(encoding="utf-8")
            for name in ("poisoning.scm.txt", "legal_fire.scm.txt",
                         "short_circuit_intentions.scm.txt")
        ]
        for i in range(10_000):
            kind = i % 3
            if kind == 0:
                text = "".join(chr(rng.randint(1, 0x4FF))
                               for _ in range(rng.randint(0, 80)))
            elif kind == 1:
                text = bytes(rng.randrange(256)
                             for _ in range(rng.randint(0, 80))).decode(
                    "utf-8", errors="replace")
            else:
                base = list(rng.choice(seeds))
                for _ in range(rng.randint(1, 6)):
                    pos = rng.randrange(len(base))
                    base[pos] = chr(rng.randint(32, 126))
                text = "".join(base)
            try:
                parse_document(text)
            except DslError as exc:
                assert exc.diagnostics

    _report("6 property suites", 120.0, body)


def test_criterion_7_long_chain_validates_and_orders():
    # Declared effect first, so the walk descends the whole chain from the
    # first root.
    n = 20_000
    links = [Equation("X0", Ref("U"))] + [
        Equation(f"X{i}", Ref(f"X{i - 1}")) for i in range(1, n)]
    model = CausalModel(
        [Variable("U", "exogenous", (0, 1))]
        + [Variable(f"X{i}", "endogenous", (0, 1)) for i in reversed(range(n))],
        reversed(links))

    def body():
        assert model.validate().ok
        assert model.topological_order() == tuple(f"X{i}" for i in range(n))

    _report("7 validation of a 20,000-variable chain", 2.0, body)
