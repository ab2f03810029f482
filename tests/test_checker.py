"""Clause checks, witness enumeration, verdicts, and the candidate sweep."""

import dis
import itertools
import os
import random
import sys

import pytest

from actualcause import (
    BinOp,
    CandidateCause,
    CausalModel,
    Const,
    Equation,
    ExtendedCausalModel,
    FormulaError,
    Ite,
    Negation,
    PrimitiveEvent,
    Ref,
    Relation,
    SearchBudgetExceeded,
    Table,
    TypicalitySpec,
    ValueRanking,
    Variable,
    World,
    check_ac1,
    check_ac2,
    derive_from_typicality,
    enumerate_witnesses,
    find_all_causes,
    grade_candidates,
    intervene,
    is_actual_cause,
    is_extended_cause,
    solve,
)
from actualcause import checker, model as model_module, symmetry
from actualcause.checker import CauseSearch, Engine
from actualcause.dsl import parse_document
from actualcause.formula import evaluate
from actualcause.oracle import oracle_is_cause

from random_models import (
    all_contexts,
    exhaustive_witnesses,
    random_effect,
    random_model,
    random_monotone_model,
)


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


@pytest.mark.parametrize("cause, setting, message", [
    (event("Q", 1), {}, "undeclared variable Q"),
    (event("UL", 1), {}, "UL is exogenous; a candidate cause needs an endogenous variable"),
    (event("L", 7), {}, "value 7 outside the range of L"),
    (event("L", 1), {"w_set": ("UM",)},
     "UM is exogenous; a contingency needs an endogenous variable"),
    (event("L", 1), {"w_values": (5,)}, "value 5 outside the range of M"),
    (event("L", 1), {"x_prime": (2,)}, "value 2 outside the range of L"),
    (event("L", 1), {"w_set": ("M", "M"), "w_values": (0, 0)},
     "contingency set repeats a variable"),
    (event("L", 1), {"w_values": (0, 0)}, "mismatched setting lengths"),
], ids=["undeclared", "exogenous", "out-of-range", "exogenous-contingency",
        "contingency-value", "alternative-value", "repeated-contingency",
        "mismatched-lengths"])
def test_ill_formed_candidates_and_settings_are_rejected(documents, cause, setting, message):
    # Every entry point checks the candidate cause where it enters, also when
    # AC1 fails on it; the search takes it as valid.
    doc = documents["forest_fire_disjunctive.scm.txt"]
    model, context, effect = doc.model, doc.contexts["u11"], event("F", 1)
    ext = ExtendedCausalModel(model, doc.normality_order())
    settings = {"w_set": ("M",), "w_values": (0,), "x_prime": (0,), **setting}
    calls = [lambda: check_ac2(model, context, cand(cause), effect, **settings)]
    if not setting:
        calls += [lambda: is_actual_cause(model, context, cand(cause), effect),
                  lambda: check_ac1(model, context, cand(cause), effect),
                  lambda: enumerate_witnesses(model, context, cand(cause), effect),
                  lambda: is_extended_cause(ext, context, cand(cause), effect),
                  lambda: grade_candidates(ext, context, [cand(event("L", 1)), cand(cause)],
                                           effect)]
    for call in calls:
        with pytest.raises(FormulaError) as excinfo:
            call()
        assert str(excinfo.value) == message


@pytest.mark.parametrize("second", [1, 0])
def test_a_bare_sequence_that_repeats_a_variable_is_rejected(documents, second):
    # A bare sequence does not pass through CandidateCause, so each entry
    # point checks it alike: a repeated position would be overwritten.
    doc = documents["forest_fire_disjunctive.scm.txt"]
    model, context, effect = doc.model, doc.contexts["u11"], event("F", 1)
    conjuncts = [event("L", 1), event("L", second)]
    for call in (lambda: check_ac1(model, context, conjuncts, effect),
                 lambda: check_ac2(model, context, conjuncts, effect, ("M",), (0,), (0, 0)),
                 lambda: enumerate_witnesses(model, context, conjuncts, effect)):
        with pytest.raises(FormulaError) as excinfo:
            call()
        assert str(excinfo.value) == "candidate cause repeats a variable"
    with pytest.raises(FormulaError, match="^candidate cause repeats a variable$"):
        is_actual_cause(model, context, conjuncts, effect)


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


def test_ac2b_fails_only_where_it_reimposes_the_whole_effect():
    # The effect reads F and G; the contingency pins G at 0, off its actual 1.
    # Of AC2(b)'s sub-assignments only the one that re-imposes both effect
    # variables, F at its actual 1 and G at its pinned 0, falsifies the
    # effect, so that solve decides the clause: its re-imposed effect values
    # are not all actual ones.
    doc = parse_document(
        "exo U : {0,1}\n"
        "var X : {0,1} = U\n"
        "var G : {0,1} = X\n"
        "var F : {0,1} = ite(G == 0, 1 - X, 1)\n"
        "context c : U=1\n"
        "cause X=1 for (F=1 & G=1) | (F=0 & G=0) @ c\n")
    model, context = doc.model, doc.contexts["c"]
    cause, effect = doc.queries[0].cause, doc.queries[0].effect
    assert check_ac2(model, context, cause, effect, ("G",), (0,), (0,)) is False
    assert not _direct_ac2(model, context, cause.conjuncts, effect, ("G",), (0,), (0,))
    assert [(r.w_set, r.w_values, r.x_prime)
            for r in enumerate_witnesses(model, context, cause, effect)] \
        == [((), (), (0,)), (("F",), (1,), (0,))]
    assert is_actual_cause(model, context, cause, effect).is_cause
    assert oracle_is_cause(model, context, cause.conjuncts, effect)


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


def _ternary_model(rng):
    """Random acyclic model over {0,1,2}: three to five endogenous
    variables, each later one a random table over some earlier ones."""
    n = rng.randint(3, 5)
    names = [f"V{i}" for i in range(n)]
    variables = [Variable("U", "exogenous", (0, 1, 2))]
    equations = [Equation("V0", Ref("U"))]
    for i in range(1, n):
        parents = tuple(sorted(rng.sample(names[:i], rng.randint(1, min(i, 2)))))
        rows = tuple((combo, rng.randrange(3))
                     for combo in itertools.product((0, 1, 2), repeat=len(parents)))
        equations.append(Equation(names[i], Table(parents, rows)))
    variables += [Variable(name, "endogenous", (0, 1, 2)) for name in names]
    return CausalModel(variables, equations)


def _downstream(model, names):
    """The given variables and every variable whose equation reaches one."""
    found = set(names)
    for name in model.topological_order():
        if found & model.equations[name].body.referenced():
            found.add(name)
    return found


def test_ac2_restriction_matches_direct_expansion_on_ternary_models():
    # When the candidate holds, AC2(b) skips the re-impositions that no pin
    # off its actual value can reach (``skipped`` counts those draws); a
    # candidate off its actual values re-imposes every position.  The
    # literal expansion tries them all.  Candidate values are drawn from the
    # whole range, so the world under the candidate alone often differs from
    # the actual one; ``dropped`` counts the draws where some position is
    # off every path from a pin that differs from that world.  Draws whose
    # AC2(a) fails never reach AC2(b), so they are not counted.
    rng = random.Random(31)
    verdicts = []
    dropped = skipped = 0
    while len(verdicts) < 150:
        model = _ternary_model(rng)
        context = {"U": rng.randrange(3)}
        actual = solve(model, context)
        effect_var = rng.choice(model.endogenous[:-1])
        effect = event(effect_var, actual[effect_var])
        x_var = rng.choice(model.endogenous)
        conjuncts = (event(x_var, rng.randrange(3)),)
        others = [v for v in model.endogenous if v != x_var]
        w_set = tuple(rng.sample(others, rng.randint(0, len(others))))
        w_values = tuple(actual[v] if rng.random() < 0.5 else rng.randrange(3)
                         for v in w_set)
        x_prime = (rng.randrange(3),)
        witness = solve(intervene(model, {x_var: x_prime[0], **dict(zip(w_set, w_values))}),
                        context)
        if evaluate(effect, witness):
            continue
        got = check_ac2(model, context, cand(*conjuncts), effect,
                        w_set, w_values, x_prime)
        assert got == _direct_ac2(model, context, conjuncts, effect,
                                  w_set, w_values, x_prime)
        verdicts.append(got)
        base = solve(intervene(model, {x_var: conjuncts[0].value}), context)
        designated = dict(zip(w_set, w_values))
        changed = [v for v in others if designated.get(v, actual[v]) != base[v]]
        if set(others) - _downstream(model, changed):
            dropped += 1
        moved = [v for v in w_set if designated[v] != actual[v]]
        if conjuncts[0].value == actual[x_var] and set(others) - _downstream(model, moved):
            skipped += 1
    assert verdicts.count(True) >= 30 and verdicts.count(False) >= 30
    assert dropped >= 75 and skipped >= 25


def test_check_ac2_matches_direct_expansion_with_each_rule_off(monkeypatch):
    # AC2(b) re-imposes only what the pins off their actual values reach,
    # and of that only what monotonicity leaves open; the literal expansion
    # tries every sub-assignment.  check_ac2 agrees with it with every rule
    # on and with each one off.  The models are monotone but for some mixed
    # tables; the effects are the last variable's actual value or compounds;
    # the candidate and pins now and then take other than their actual
    # values, and a candidate off its actual values re-imposes every
    # position.  Draws whose AC2(a) fails never reach AC2(b), so they are
    # not counted.
    rng = random.Random(57)
    lookups = [0]
    solve_tuple = Engine.solve_tuple

    def counting_solve_tuple(engine, key, *args):
        lookups[0] += 1
        return solve_tuple(engine, key, *args)

    monkeypatch.setattr(Engine, "solve_tuple", counting_solve_tuple)
    verdicts, settled = [], 0
    while len(verdicts) < 200:
        model = random_monotone_model(rng, 5, 3)
        context = rng.choice(list(all_contexts(model)))
        actual = solve(model, context)
        name = model.endogenous[-1]
        if rng.random() < 0.5:
            effect = event(name, actual[name])
        else:
            effect = random_effect(rng, model, actual)
        x_var = rng.choice(model.endogenous)
        x_value = actual[x_var] if rng.random() < 0.7 else rng.choice(model.range_of(x_var))
        conjuncts = (event(x_var, x_value),)
        others = [v for v in model.endogenous if v != x_var]
        w_set = tuple(rng.sample(others, rng.randint(0, len(others))))
        w_values = tuple(actual[v] if rng.random() < 0.5 else rng.choice(model.range_of(v))
                         for v in w_set)
        x_prime = (rng.choice(model.range_of(x_var)),)
        args = (model, context, cand(*conjuncts), effect, w_set, w_values, x_prime)
        setting = {x_var: x_prime[0], **dict(zip(w_set, w_values))}
        if evaluate(effect, solve(intervene(model, setting), context)):
            continue
        expected = _direct_ac2(model, context, conjuncts, effect, w_set, w_values, x_prime)
        counts = {}
        for rule in (None, *checker._RULES):
            with monkeypatch.context() as patch:
                if rule:
                    patch.setitem(checker._RULES, rule, False)
                lookups[0] = 0
                assert check_ac2(*args) == expected, rule
                counts[rule] = lookups[0]
        settled += counts[None] < counts["monotone-ac2b"]
        verdicts.append(expected)
    assert verdicts.count(True) >= 50 and verdicts.count(False) >= 50
    # Draws where monotone-ac2b saved a lookup: 49 of the 200.
    assert settled >= 38


def test_ac2b_skips_a_variable_off_every_changed_path(monkeypatch):
    # S is pinned at its actual value and nothing reaches it from the
    # changed pin M=0, so no AC2(b) sub-assignment re-imposes it.  Of the
    # changed positions, ``monotone-ac2b`` settles each: F = max(L, M) never
    # falls as M rises, so M=0, the bottom of M's range, can only hurt F=1
    # and is re-imposed in every sub-assignment; F=1, the top of F's range,
    # can only help and is never re-imposed; and F=1 does not read G.  One
    # sub-assignment is left, and it is the only solve: AC1 makes L=1
    # actual, so no world under the candidate alone is solved.  Without the
    # rule, the full re-imposition is among those solved.
    model = CausalModel(
        [Variable("UL", "exogenous", (0, 1)), Variable("UM", "exogenous", (0, 1)),
         Variable("US", "exogenous", (0, 1)),
         Variable("L", "endogenous", (0, 1)), Variable("M", "endogenous", (0, 1)),
         Variable("S", "endogenous", (0, 1)), Variable("F", "endogenous", (0, 1)),
         Variable("G", "endogenous", (0, 1))],
        [Equation("L", Ref("UL")), Equation("M", Ref("UM")),
         Equation("S", Ref("US")),
         Equation("F", BinOp("max", Ref("L"), Ref("M"))), Equation("G", Ref("F"))],
    )
    context = {"UL": 1, "UM": 1, "US": 1}
    args = (cand(event("L", 1)), event("F", 1), ("M", "S"), (0, 1), (0,))
    solved = []
    original = Engine.solve_tuple

    def spy(engine, key, *args):
        solved.append({engine.endo[i]: v for i, v in enumerate(key) if v is not None})
        return original(engine, key, *args)

    monkeypatch.setattr(Engine, "solve_tuple", spy)
    assert _direct_ac2(model, context, (event("L", 1),), *args[1:]) is True
    for monotone in (True, False):
        solved.clear()
        monkeypatch.setitem(checker._RULES, "monotone-ac2b", monotone)
        assert check_ac2(model, context, *args) is True
        ac2b_solves = [s for s in solved if s.get("L") == 1]
        if monotone:
            assert ac2b_solves == [{"L": 1, "M": 0}]
        else:
            assert {"L": 1, "M": 0, "F": 1, "G": 1} in ac2b_solves
        assert not [s for s in ac2b_solves if "S" in s]


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


def test_budget_error_renders_huge_estimates_briefly():
    exc = SearchBudgetExceeded(3**9100, 1 << 24)
    assert len(str(exc)) < 200
    assert exc.candidates == 3**9100
    assert str(SearchBudgetExceeded(999_999_999_999, 10)) == (
        "witness search needs 999999999999 candidate settings, budget allows 10"
    )


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


def _oracle_sweep(model, context, effect, max_conjuncts):
    """The candidates up to the given size, at their actual values, that the
    oracle calls causes, in the sweep's order."""
    actual = solve(model, context)
    found = []
    for size in range(1, max_conjuncts + 1):
        for names in itertools.combinations(model.endogenous, size):
            conjuncts = tuple(event(n, actual[n]) for n in names)
            if oracle_is_cause(model, context, conjuncts, effect):
                found.append(CandidateCause(conjuncts))
    return found


@pytest.mark.parametrize("text, effect, causes", [
    # A and B share an equation key only when the context's values are
    # ignored: A reads U1=1, B reads U2=0, so A=1 is a cause and B=0 is not.
    ("exo U1 : {0,1}\nexo U2 : {0,1}\nvar A : {0,1} = U1\nvar B : {0,1} = U2\n"
     "var E : {0,1} = max(A, B)\ncontext c : U1=1, U2=0\n", event("E", 1),
     ["A=1", "E=1"]),
    # A and B have one equation, but the decoy D reads them through -, which
    # keeps its operands' order: B=1 is a but-for cause of D=0, A=1 is none.
    ("exo U : {0,1}\nvar A : {0,1} = U\nvar B : {0,1} = U\n"
     "var D : {0,1} = max(0, A - B)\ncontext c : U=1\n", event("D", 0),
     ["B=1", "D=0"]),
], ids=["context-values", "decoy-minus"])
def test_the_symmetry_rule_keeps_apart_variables_no_swap_maps(text, effect, causes):
    # One search per orbit is exact only when the swap is an automorphism
    # of the model under the context.  Each sweep fails when the classes
    # ignore context values or sort the operands of -.
    doc = parse_document(text)
    model, context = doc.model, doc.contexts["c"]
    for k in (1, 2):
        found = find_all_causes(model, context, effect, max_conjuncts=k)
        assert found == _oracle_sweep(model, context, effect, k)
        assert [str(c) for c in found] == causes


def test_a_model_of_one_endogenous_variable_is_decided():
    # With one position the search's overlay of x' over the actual world
    # has one item; it must still be a tuple.
    doc = parse_document("exo U : {0,1}\nvar X : {0,1} = U\ncontext c : U=1\n")
    model, context = doc.model, doc.contexts["c"]
    verdict = is_actual_cause(model, context, cand(event("X", 1)), event("X", 1))
    assert verdict.is_cause == oracle_is_cause(model, context, (event("X", 1),), event("X", 1))
    assert verdict.is_cause
    assert [(r.w_set, r.w_values, r.x_prime) for r in verdict.hp_witnesses] == [((), (), (0,))]
    assert verdict.best_witnesses == (World(("X",), (0,)),)
    assert [str(c) for c in find_all_causes(model, context, event("X", 1))] == ["X=1"]


def test_candidate_cause_invariants():
    with pytest.raises(FormulaError):
        CandidateCause(())
    with pytest.raises(FormulaError):
        CandidateCause((event("X", 1), event("X", 0)))


def test_witness_memo_keeps_filtered_and_plain_decisions_apart(documents):
    # One search answers the plain and the filtered question alike in either
    # order: it keeps no decision of one to serve the other.
    doc = documents["forest_fire_disjunctive.scm.txt"]
    conjuncts = (event("L", 1),)

    def reject(world):
        return False

    for filtered_first in (False, True):
        search = CauseSearch(Engine(doc.model, doc.contexts["u11"]), event("F", 1))
        if filtered_first:
            assert search.has_witness(conjuncts, reject) is False
        assert search.has_witness(conjuncts) is True
        assert search.has_witness(conjuncts, reject) is False
        assert search.has_witness(conjuncts) is True


class _Counts(dict):
    """Counts that refuse to read no distinct solve after a lookup: every
    engine solves its actual world, so a 0 there means the count missed the
    solves."""

    def __getitem__(self, name):
        if name == "settle" and self.get("solve_tuple") and not self.get("settle"):
            raise AssertionError("lookups were made, yet no distinct solve was counted")
        return super().__getitem__(name)


def _count_lookups(monkeypatch):
    """Counts of counterfactual lookups and of distinct solves from here on:
    every distinct solve of an engine is one call of the kernel it takes
    from ``checker._kernel``."""
    counts = _Counts(solve_tuple=0, settle=0)
    solve_tuple, kernel = Engine.solve_tuple, checker._kernel

    def counting_solve_tuple(*args):
        counts["solve_tuple"] = counts.get("solve_tuple") + 1
        return solve_tuple(*args)

    def counting_kernel(model):
        settle = kernel(model)

        def counting_settle(*args):
            counts["settle"] = counts.get("settle") + 1
            return settle(*args)
        return counting_settle

    monkeypatch.setattr(Engine, "solve_tuple", counting_solve_tuple)
    monkeypatch.setattr(checker, "_kernel", counting_kernel)
    return counts


def test_sweep_work_stays_within_the_counted_bound(documents, monkeypatch):
    # Guards the sweep's subset rule, the refutation by monotonicity, the
    # symmetry rule and AC2(b) at its worst re-imposition, each taken out
    # alone: a sweep deciding AC3 by searching the single conjuncts again
    # makes 21 counterfactual lookups (13 distinct solves); without the
    # refutation the unlit source is searched in full (13 lookups, 13
    # distinct solves); without the symmetry rule the two lit sources of
    # u11, L and M, are searched apart (14 lookups, 13 distinct solves);
    # without ``monotone-ac2b`` AC2(b) re-imposes values that can only help
    # or only hurt F=1 (14 lookups, 14 distinct solves).  Without the first
    # two and the AC2(b) restriction: 25 lookups, 15 distinct solves.  The
    # restriction alone saves nothing here, as ``monotone-ac2b`` settles
    # every position it would drop.  Every pair holds a cause found at size
    # 1, so the subset rule refutes it without a search.
    doc = documents["forest_fire_disjunctive.scm.txt"]
    counts = _count_lookups(monkeypatch)
    found = {name: [str(c) for c in find_all_causes(doc.model, context, event("F", 1),
                                                     max_conjuncts=2)]
             for name, context in doc.contexts.items()}
    assert found == {"u11": ["L=1", "M=1", "F=1"], "u10": ["L=1", "F=1"]}
    assert counts["solve_tuple"] <= 11
    assert counts["settle"] <= 11


def _wide_model(kind, n=7, on=4):
    """n sources L_p = U_p, ``on`` of them lit (the even positions first),
    and F: the sources' max ("disjunctive") or their strict majority
    ("vote"), as nested ite over their sum."""
    lit = sorted((list(range(0, n, 2)) + list(range(1, n, 2)))[:on])
    sources = [f"L{p}" for p in range(n)]
    total = Ref(sources[0])
    for name in sources[1:]:
        total = BinOp("max" if kind == "disjunctive" else "+", total, Ref(name))
    body = total
    if kind == "vote":
        body = Const(1)
        for count in reversed(range(n // 2 + 1)):
            body = Ite(total, Const(count), Const(0), body)
    model = CausalModel(
        [Variable(f"U{p}", "exogenous", (0, 1)) for p in range(n)]
        + [Variable(name, "endogenous", (0, 1)) for name in sources]
        + [Variable("F", "endogenous", (0, 1))],
        [Equation(name, Ref(f"U{p}")) for p, name in enumerate(sources)]
        + [Equation("F", body)],
    )
    return model, {f"U{p}": int(p in lit) for p in range(n)}


def _count_searches(monkeypatch):
    """The candidates whose witness search runs from here on, as tuples of
    their variables."""
    searched = []
    has_witness = CauseSearch.has_witness

    def recording_has_witness(search, conjuncts, *args):
        searched.append(tuple(c.variable for c in conjuncts))
        return has_witness(search, conjuncts, *args)

    monkeypatch.setattr(CauseSearch, "has_witness", recording_has_witness)
    return searched


@pytest.mark.parametrize("kind", ["disjunctive", "vote"])
def test_wide_sweeps_refute_larger_candidates_without_a_search(kind, monkeypatch):
    # Each lit source passes alone, so every larger candidate holding one, or
    # holding F, fails AC3; monotonicity refutes the unlit sources, and any
    # set of them, without a lookup.
    # AC3 is read off the causes found at size 1, so sizes 2 and 3 look up
    # no more counterfactuals than size 1.  The lit sources are
    # interchangeable, and so are the unlit ones: at size 1 one search
    # decides each class, 3 searches where one per variable makes 8, and the
    # first set of unlit sources of each larger size decides all of them.
    model, context = _wide_model(kind)
    counts = _count_lookups(monkeypatch)
    searched = _count_searches(monkeypatch)
    lookups = {}
    for k in (1, 2, 3):
        before = counts["solve_tuple"]
        searched.clear()
        found = find_all_causes(model, context, event("F", 1), max_conjuncts=k)
        assert [str(c) for c in found] == ["L0=1", "L2=1", "L4=1", "L6=1", "F=1"]
        assert searched == [("L0",), ("L1",), ("F",), ("L1", "L3"), ("L1", "L3", "L5")][:k + 2]
        lookups[k] = counts["solve_tuple"] - before
    assert lookups[2] <= lookups[1]
    assert lookups[3] <= lookups[1]


@pytest.mark.parametrize("kind, on", [("disjunctive", 3), ("vote", 7)])
def test_thirteen_sources_take_one_search_per_class(kind, on, monkeypatch):
    # F's 13 references have more than DIRECTION_CAP combinations, so no
    # monotonicity rule fires and each source's search takes seconds: one
    # search per source made the K=1 sweep take some 16 s (disjunctive) and
    # 9 s (vote).  One search per class of interchangeable sources, and one
    # for F, still give the closed form.
    model, context = _wide_model(kind, 13, on)
    searched = _count_searches(monkeypatch)
    found = find_all_causes(model, context, event("F", 1), max_conjuncts=1)
    lit = sorted((list(range(0, 13, 2)) + list(range(1, 13, 2)))[:on])
    assert [str(c) for c in found] == [f"L{p}=1" for p in lit] + ["F=1"]
    assert len(searched) <= 3


def test_the_classes_are_found_once_per_model_and_context(monkeypatch):
    # Repeated sweeps of one model and context read the classes the first
    # one found; another context finds its own.  The vote's sources are
    # compared through F under a swap; a chain's equations all differ, so its
    # sweep compares no equation under a swap.
    swaps = []
    canonical = symmetry._canonical

    def recording_canonical(expr, values, swap):
        swaps.append(bool(swap))
        return canonical(expr, values, swap)

    monkeypatch.setattr(symmetry, "_canonical", recording_canonical)
    model, context = _wide_model("vote")
    find_all_causes(model, context, event("F", 1), max_conjuncts=2)
    first = len(swaps)
    assert first and any(swaps)
    for k in (1, 2):
        find_all_causes(model, context, event("F", 1), max_conjuncts=k)
    assert len(swaps) == first
    find_all_causes(model, {**context, "U1": 1}, event("F", 1))
    assert len(swaps) > first and len(model._classes) == 2
    swaps.clear()
    found = find_all_causes(_chain(9), {"U": 1}, event("X8", 1), max_conjuncts=2)
    assert [str(c) for c in found] == [f"X{i}=1" for i in range(9)]
    assert swaps and not any(swaps)


@pytest.mark.parametrize("kind, records, bound", [("disjunctive", 8, 186),
                                                  ("vote", 144, 837)])
def test_sets_that_pin_the_whole_effect_are_not_solved(kind, records, bound, monkeypatch):
    # A set pinning F makes AC2(a) and AC2(b) read the same F, so no witness
    # uses it and the search skips it unsolved, here and in AC3's searches of
    # L0 and L2.  F=1 is the top of F's range, so re-imposing it in AC2(b)
    # can only help, and F is pinned nowhere (``monotone-ac2b``).
    # The search that solves those sets makes 1,084 and 1,547 lookups.  F
    # never falls as a light rises, so a setting above one where F=1 held is
    # not solved either: without that rule the two make 436 and 758
    # lookups.  With every rule on they make 164 and 690, and without
    # ``monotone-ac2b`` 186 and 744.
    model, context = _wide_model(kind)
    f = model.endo_index("F")
    keys = []
    solve_tuple = Engine.solve_tuple

    def recording_solve_tuple(engine, key, *args):
        keys.append(key)
        return solve_tuple(engine, key, *args)

    monkeypatch.setattr(Engine, "solve_tuple", recording_solve_tuple)
    verdict = is_actual_cause(model, context, cand(event("L0", 1), event("L2", 1)),
                              event("F", 1))
    assert verdict.ac1 and not verdict.ac3 and verdict.failed_clause == "AC3"
    assert len(verdict.hp_witnesses) == records
    assert {key[f] for key in keys} == {None}
    assert len(keys) <= bound


def test_unlit_source_is_refuted_without_a_counterfactual(documents, monkeypatch):
    # Raising M only helps F = max(L, M) to 1: the one lookup is the actual
    # world, which AC1 reads.
    doc = documents["forest_fire_disjunctive.scm.txt"]
    counts = _count_lookups(monkeypatch)
    verdict = is_actual_cause(doc.model, doc.contexts["u10"], cand(event("M", 0)),
                              event("F", 1))
    assert verdict.ac1 and verdict.failed_clause == "AC2"
    assert counts == {"solve_tuple": 1, "settle": 1}


def _chain(n):
    """U -> X0 -> ... -> X{n-1}, each a copy of the one before."""
    return CausalModel(
        [Variable("U", "exogenous", (0, 1))]
        + [Variable(f"X{i}", "endogenous", (0, 1)) for i in range(n)],
        [Equation("X0", Ref("U"))]
        + [Equation(f"X{i}", Ref(f"X{i - 1}")) for i in range(1, n)],
    )


def test_a_pin_re_solves_only_its_descendants():
    # U -> X0 -> ... -> X5: pinning X_k runs the equations of X_{k+1}..X5
    # alone, and pinning the sink runs none.  The engine's context is then
    # switched to U=0, under which every equation gives 0, so a re-run
    # equation shows as a 0 where the actual world has 1.
    n = 6
    model = _chain(n)
    engine = Engine(model, {"U": 1})
    assert engine.actual == (1,) * n
    engine._env[model.exogenous.index("U") + n] = 0
    for k in range(n):
        key = [None] * n
        key[k] = 1
        below = sum(1 << i for i in range(k + 1, n))
        assert engine.plan(1 << k) == below
        assert engine.solve_tuple(tuple(key)) == (1,) * n
        # Running the other equations too reads the switched context.
        rerun = engine._settle(tuple(key), (1 << n) - 1 - (1 << k), engine._env)
        assert rerun == (0,) * k + (1,) * (n - k)
        key[k] = 0
        assert engine.solve_tuple(tuple(key)) == (1,) * k + (0,) * (n - k)


def test_one_solve_of_a_vote_adds_the_votes_once():
    # W tests the voters' sum at each of its five levels: the kernel adds the
    # nine votes once, 8 additions, where evaluating each level's copy of the
    # sum makes 40.
    model, context = _wide_model("vote", 9, 5)
    settle = model_module._kernel(model)
    adds = {i.offset for i in dis.get_instructions(settle)
            if i.opname == "BINARY_ADD" or i.opname == "BINARY_OP" and i.argrepr == "+"}
    count = 0

    def count_adds(frame, kind, arg):
        nonlocal count
        count += kind == "opcode" and frame.f_lasti in adds
        return count_adds

    def trace(frame, kind, arg):
        if frame.f_code is settle.__code__:
            frame.f_trace_opcodes = True
            return count_adds
        return None

    # CPython 3.13 sends no opcode events in the first traced session, so
    # the count is that of the second solve; each solve runs every equation.
    previous = sys.gettrace()
    for _ in range(2):
        count = 0
        sys.settrace(trace)
        try:
            world = solve(model, context)
        finally:
            sys.settrace(previous)
    assert world["F"] == 1
    assert count == 8


def test_pins_that_cannot_reach_the_effect_are_not_solved(monkeypatch):
    # On a 9-chain a pin upstream of the candidate, or below the effect,
    # changes no effect variable: each setting is decided on its pins between
    # the two, and solved in full only to give a witness its world.  The
    # search that solves every setting makes 10,919 and 12,805 lookups, and
    # the one that also solves the sets pinning the effect variable, 209 and
    # 293.
    model = _chain(9)
    counts = _count_lookups(monkeypatch)
    for cause, effect, records, bound in (("X4", "X8", 81, 130), ("X2", "X5", 243, 262)):
        counts["solve_tuple"] = 0
        verdict = is_actual_cause(model, {"U": 1}, cand(event(cause, 1)), event(effect, 1))
        assert verdict.is_cause and len(verdict.hp_witnesses) == records
        assert counts["solve_tuple"] <= bound


def test_each_pin_mask_is_planned_once(monkeypatch):
    # The search looks a contingency set's plan up once for all its settings
    # and AC2(b) looks up the plan of each sub-assignment's mask: across the
    # 243 records, each mask whose key missed the solve cache has its plan
    # built exactly once.  The engine solves the actual world, of the empty
    # mask, with no plan.
    built, missed = [], set()
    plan, solve_tuple = Engine.plan, Engine.solve_tuple

    def counting_plan(engine, pinned):
        if pinned not in engine._plans:
            built.append(pinned)
        run = plan(engine, pinned)
        # The plan is the run mask: below some pin, and held by none.
        below = 0
        for i in range(len(engine.endo)):
            if pinned >> i & 1:
                below |= engine.reach[i]
        assert run == below & ~pinned
        return run

    def recording_solve_tuple(engine, key, *args):
        if key not in engine._cache:
            missed.add(sum(1 << i for i, value in enumerate(key) if value is not None))
        return solve_tuple(engine, key, *args)

    monkeypatch.setattr(Engine, "plan", counting_plan)
    monkeypatch.setattr(Engine, "solve_tuple", recording_solve_tuple)
    verdict = is_actual_cause(_chain(9), {"U": 1}, cand(event("X2", 1)), event("X5", 1))
    assert verdict.is_cause and len(verdict.hp_witnesses) == 243
    assert len(built) == len(set(built))
    assert set(built) == missed - {0}


def test_a_candidate_that_cannot_reach_the_effect_is_refuted(monkeypatch):
    # X3 sits upstream of X8, so no setting of X8 moves it, negated effect or
    # not: the one lookup is the actual world, which AC1 reads.
    counts = _count_lookups(monkeypatch)
    verdict = is_actual_cause(_chain(9), {"U": 1}, cand(event("X8", 1)),
                              Negation(event("X3", 0)))
    assert verdict.ac1 and verdict.failed_clause == "AC2"
    assert counts == {"solve_tuple": 1, "settle": 1}


def test_refutation_follows_a_non_increasing_edge():
    # B = 1 - A falls as A rises, so F = max(B, C) does too: raising A can
    # break F=1 and is not refuted, while raising C is.
    model = CausalModel(
        [Variable("U", "exogenous", (0, 1)), Variable("UC", "exogenous", (0, 1))]
        + [Variable(name, "endogenous", (0, 1)) for name in "ABCF"],
        [Equation("A", Ref("U")), Equation("B", BinOp("-", Const(1), Ref("A"))),
         Equation("C", Ref("UC")), Equation("F", BinOp("max", Ref("B"), Ref("C")))],
    )
    context = {"U": 0, "UC": 0}
    # B, C and F all lead to F, so each is relevant and gets its sign.
    relevant, paths = checker._effect_signs(model, ("A",), {"F"})
    assert relevant == sum(1 << model.endo_index(name) for name in "BCF")
    assert paths == {"F": {"F": 1, "B": 1, "C": 1, "A": -1}}
    verdict = is_actual_cause(model, context, cand(event("A", 0)), event("F", 1))
    assert verdict.is_cause
    assert [r.x_prime for r in verdict.hp_witnesses] == [(1,), (1,)]
    assert not is_actual_cause(model, context, cand(event("C", 0)),
                               event("F", 1)).hp_witnesses
    # F=0 is the bottom of F's range, so raising A keeps it and lowering A
    # may not.
    assert checker._kept_ways(model, event("F", 0), paths, ("A",)) == checker._UP
    # A negation is never taken as kept: !(F=0) is F=1 here, which raising A
    # can break.
    assert checker._kept_ways(model, Negation(event("F", 0)), paths, ("A",)) == 0


@pytest.mark.parametrize("both", ["min(A, B)", "ite(V == W, 1, 0)"])
def test_a_pin_of_unknown_sign_keeps_no_shift(both):
    # Z moves both ways as V rises: through A = min(V, 1) up and
    # B = ite(V == 2, 0, 1) down, or through a parity test of V against W.
    # The pass from Z gives V an unknown sign, so the reader keeps no shift
    # along V for either end of Z's range; taking the unknown sign for "does
    # not move" would keep both.
    doc = parse_document(
        "exo UV : {0,1,2}\nexo UW : {0,1,2}\nexo UX : {0,1}\n"
        "var V : {0,1,2} = UV\nvar W : {0,1,2} = UW\nvar X : {0,1} = UX\n"
        "var A : {0,1} = min(V, 1)\nvar B : {0,1} = ite(V == 2, 0, 1)\n"
        f"var Z : {{0,1}} = min({both}, X)\n"
        "context c : UV=1, UW=1, UX=1\n")
    model, context = doc.model, doc.contexts["c"]
    _, paths = checker._effect_signs(model, ("X",), {"Z"})
    assert paths["Z"]["V"] is None
    for value in (0, 1):
        assert checker._kept_ways(model, event("Z", value), paths, ("V",)) == 0
    assert [solve(intervene(model, {"V": v}), context)["Z"] for v in (0, 1, 2)] == [0, 1, 0]


def _typical_lights(n=8):
    """The shape of the benchmark's disjunctive-typical family: n lit
    sources, F their max, every variable typically 0, and a severity chain
    over the first two sources."""
    model, context = _wide_model("disjunctive", n, on=n)
    spec = TypicalitySpec(tuple(ValueRanking(name, (0, 1)) for name in model.endogenous),
                          ((("L0", 1), ("L1", 1)),))
    return ExtendedCausalModel(model, derive_from_typicality(model, spec)), context


def test_pins_off_the_relevant_set_are_neither_tested_nor_solved(monkeypatch):
    # F=1 for F=1: the candidate holds F, so no light is relevant and every
    # set of lights adds irrelevant pins to the empty set, the one set
    # decided.  Its 3^8 settings all pass unasked: the effect is evaluated
    # only on worlds with every light lit, and since F is pinned no light
    # has an unpinned descendant, so no lookup pins a light.
    ext, context = _typical_lights()
    model = ext.base
    lights = [model.endo_index(f"L{p}") for p in range(8)]
    tested, keys = [], []
    compile_body, solve_tuple = checker.compile_body, Engine.solve_tuple

    def recording_compile_body(model, body):
        phi = compile_body(model, body)

        def recording_phi(values):
            tested.append(values)
            return phi(values)
        return recording_phi

    def recording_solve_tuple(engine, key, *args):
        keys.append(key)
        return solve_tuple(engine, key, *args)

    monkeypatch.setattr(checker, "compile_body", recording_compile_body)
    monkeypatch.setattr(Engine, "solve_tuple", recording_solve_tuple)
    verdict = is_extended_cause(ext, context, cand(event("F", 1)), event("F", 1))
    assert verdict.is_cause and len(verdict.hp_witnesses) == 3 ** 8
    assert verdict.admissible_witnesses == verdict.hp_witnesses
    assert verdict.best_witnesses == (World(model.endogenous, (0,) * 9),)
    assert tested and all(values[i] == 1 for values in tested for i in lights)
    assert keys and all(key[i] is None for key in keys for i in lights)
    monkeypatch.undo()
    assert list(verdict.hp_witnesses) == exhaustive_witnesses(
        model, context, (event("F", 1),), event("F", 1))


# Package bytecodes per record of the query below, about 1.15 times the
# count of each CPython the suite runs on: 111.5 (3.10), 119.8 (3.11) and
# 109.7 (3.13).  Under 3.12.1 the opcode trace counted nothing.
_BYTECODES_PER_RECORD = {(3, 10): 128, (3, 11): 138, (3, 13): 126}


@pytest.mark.skipif(sys.version_info[:2] not in _BYTECODES_PER_RECORD,
                    reason="bytecode counts are those of CPython 3.10, 3.11 and 3.13")
def test_an_output_bound_query_runs_few_bytecodes_per_record():
    # Every bytecode the package runs for the 6,561 records above, the
    # filter and the best-witness pass included: under 3.11, 468 per record
    # when each setting was solved and tested, about 184 once they are laid
    # over the actual world unasked, and 138.5 when each record was built by
    # two calls.
    ext, context = _typical_lights()
    package = os.path.dirname(checker.__file__) + os.sep
    count = 0

    def count_opcodes(frame, kind, arg):
        nonlocal count
        count += kind == "opcode"
        return count_opcodes

    def trace(frame, kind, arg):
        if frame.f_code.co_filename.startswith(package):
            frame.f_trace_opcodes = True
            return count_opcodes
        return None

    previous = sys.gettrace()
    sys.settrace(trace)
    try:
        verdict = is_extended_cause(ext, context, cand(event("F", 1)), event("F", 1))
    finally:
        sys.settrace(previous)
    assert len(verdict.hp_witnesses) == 3 ** 8
    assert count <= _BYTECODES_PER_RECORD[sys.version_info[:2]] * 3 ** 8


def _record_kept_ways(monkeypatch):
    """The names and the ways of every ``_kept_ways`` read from here on, in
    order; an effect of one event makes one read per question."""
    calls = []
    kept_ways = checker._kept_ways

    def recording_kept_ways(model, body, paths, names):
        ways = kept_ways(model, body, paths, names)
        calls.append((tuple(names), ways))
        return ways

    monkeypatch.setattr(checker, "_kept_ways", recording_kept_ways)
    return calls


def test_each_direction_of_the_alternatives_is_checked_once(monkeypatch):
    # The candidate's ways are read once per search, both directions at
    # once: F=1 is the top of F's range and F never falls as a light rises,
    # so raising lights keeps it and lowering them may not.  A pair at (1, 0)
    # has three alternatives: (0, 0) down, (1, 1) up, which is refuted, and
    # the mixed (0, 1), which no monotonicity refutes, so it is tried.
    model, context = _wide_model("disjunctive")
    calls = _record_kept_ways(monkeypatch)
    is_actual_cause(model, context, cand(event("L0", 1)), event("F", 1))
    assert [ways for names, ways in calls if names == ("L0",)] == [checker._UP]
    calls.clear()
    tried = []
    compile_body = checker.compile_body

    def recording_compile_body(model, body):
        phi = compile_body(model, body)

        def recording_phi(values):
            tried.append(values[:2])
            return phi(values)
        return recording_phi

    monkeypatch.setattr(checker, "compile_body", recording_compile_body)
    enumerate_witnesses(model, context, cand(event("L0", 1), event("L1", 0)), event("F", 1))
    assert [ways for names, ways in calls if names == ("L0", "L1")] == [checker._UP]
    assert (0, 1) in tried and (1, 1) not in tried


def test_a_monotone_pin_decides_the_settings_above_a_held_one(monkeypatch):
    # F = max of the lights never falls as a light rises, so once F=1 holds
    # under x' at a setting, every setting above it in one light holds too
    # and is not solved.  The K=1 sweep of the 7-light model, which searches
    # one lit light, one unlit light and F, makes 207 lookups (205 distinct
    # solves) without that rule.
    model, context = _wide_model("disjunctive")
    counts = _count_lookups(monkeypatch)
    found = find_all_causes(model, context, event("F", 1), max_conjuncts=1)
    assert [str(c) for c in found] == ["L0=1", "L2=1", "L4=1", "L6=1", "F=1"]
    assert counts["solve_tuple"] <= 56
    assert counts["settle"] <= 55


def _severity(n=5):
    """n agents A_p over {0,1,2}, acting at 1 or 2 in turn, and harm H when
    any acts: the max of ite(A_p == 0, 0, 1)."""
    agents = [f"A{p}" for p in range(n)]
    body = None
    for name in agents:
        act = Ite(Ref(name), Const(0), Const(0), Const(1))
        body = act if body is None else BinOp("max", body, act)
    model = CausalModel(
        [Variable(f"U{p}", "exogenous", (0, 1, 2)) for p in range(n)]
        + [Variable(name, "endogenous", (0, 1, 2)) for name in agents]
        + [Variable("H", "endogenous", (0, 1))],
        [Equation(name, Ref(f"U{p}")) for p, name in enumerate(agents)]
        + [Equation("H", body)],
    )
    return model, {f"U{p}": 1 + p % 2 for p in range(n)}


@pytest.mark.parametrize("cause, bound", [(("A0", 1), 53), (("A1", 2), 69)])
def test_three_valued_pins_decide_the_settings_above_a_held_one(cause, bound, monkeypatch):
    # H never falls as an agent's level rises, so with the candidate held,
    # a setting one level above one where H=1 held under x' holds as well.
    # Only the setting with every other agent at 0 is a witness.  Without
    # the rule the two searches make 290 and 546 lookups.
    model, context = _severity()
    counts = _count_lookups(monkeypatch)
    verdict = is_actual_cause(model, context, cand(event(*cause)), event("H", 1))
    lookups = counts["solve_tuple"]
    monkeypatch.undo()
    assert verdict.is_cause
    assert list(verdict.hp_witnesses) == exhaustive_witnesses(
        model, context, (event(*cause),), event("H", 1))
    assert [r.w_values for r in verdict.hp_witnesses] == [(0,) * 4]
    assert lookups <= bound


def test_searches_that_end_before_the_contingencies_work_out_no_pin(monkeypatch):
    # A search refuted because no candidate variable reaches the effect, or
    # because every alternative keeps it, never asks how a pin moves it.  A
    # search that goes on past the empty set reads each relevant pin once,
    # after the candidate, and only once the empty set is decided.
    calls = _record_kept_ways(monkeypatch)
    assert not is_actual_cause(_chain(9), {"U": 1}, cand(event("X8", 1)),
                               Negation(event("X3", 0))).hp_witnesses
    assert calls == []  # refuted by no-reach, before any read
    model, context = _wide_model("disjunctive")
    assert not is_actual_cause(model, context, cand(event("L1", 0)), event("F", 1)).hp_witnesses
    assert calls == [(("L1",), checker._UP)]
    calls.clear()
    solve_tuple, solved = Engine.solve_tuple, []

    def recording_solve_tuple(engine, key, *args):
        solved.append(len(calls))
        return solve_tuple(engine, key, *args)

    monkeypatch.setattr(Engine, "solve_tuple", recording_solve_tuple)
    assert is_actual_cause(model, context, cand(event("L0", 1)), event("F", 1)).is_cause
    pins = [f"L{p}" for p in range(1, 7)]
    # AC2(b) then reads F, the one changed position that no set pins.
    assert calls == [(("L0",), checker._UP)] + [((name,), checker._UP) for name in pins] \
        + [(("F",), checker._UP)]
    # The empty set's setting is solved under the alternative after the
    # candidate's read and before any pin's.
    assert 1 in solved


def _count_ac2b_lookups(monkeypatch):
    """The counterfactual lookups made inside AC2(b) from here on, as a
    one-entry list."""
    count, inside = [0], [False]
    ac2b, solve_tuple = CauseSearch.ac2b, Engine.solve_tuple

    def recording_ac2b(search, *args):
        inside[0] = True
        try:
            return ac2b(search, *args)
        finally:
            inside[0] = False

    def recording_solve_tuple(engine, key, *args):
        count[0] += inside[0]
        return solve_tuple(engine, key, *args)

    monkeypatch.setattr(CauseSearch, "ac2b", recording_ac2b)
    monkeypatch.setattr(Engine, "solve_tuple", recording_solve_tuple)
    return count


def _severity_ext(n=6):
    """``_severity`` under the benchmark's severity-family order: every
    agent typically 0 > 1 > 2, and a severity chain across the agents at
    their actual levels."""
    model, context = _severity(n)
    agents = model.endogenous[:n]
    spec = TypicalitySpec(tuple(ValueRanking(name, (0, 1, 2)) for name in agents),
                          (tuple((name, context[f"U{p}"]) for p, name in enumerate(agents)),))
    return ExtendedCausalModel(model, derive_from_typicality(model, spec)), context


@pytest.mark.parametrize("family", ["typical-lights", "severity"])
def test_ac2b_decides_monotone_re_impositions_at_the_worst_one(family, monkeypatch):
    # Grading lists every witness of both candidates, so AC2(b) runs at each
    # setting that passes AC2(a): the ones with every other source or agent
    # pinned at 0.  The effect never falls as a pin rises, so a pin at the
    # bottom of its range can only hurt it and is re-imposed in every
    # sub-assignment, and the effect's variable at the top of its range
    # can only help and is never re-imposed.  Each call then solves the
    # worst sub-assignment alone.  Without ``monotone-ac2b`` the two grades
    # make 512 and 128 lookups inside AC2(b).
    if family == "typical-lights":
        ext, context = _typical_lights()
        candidates, effect = [cand(event("L0", 1)), cand(event("L7", 1))], event("F", 1)
    else:
        ext, context = _severity_ext()
        candidates, effect = [cand(event("A0", 1)), cand(event("A1", 2))], event("H", 1)
    count = _count_ac2b_lookups(monkeypatch)
    result = grade_candidates(ext, context, candidates, effect)
    assert count[0] <= 2
    assert all(verdict.is_cause for verdict in result.verdicts)
    monkeypatch.setitem(checker._RULES, "monotone-ac2b", False)
    assert grade_candidates(ext, context, candidates, effect) == result


@pytest.mark.parametrize("text, with_v", [
    # F reads V directly and through N = 1 - V, so F's sign along V is
    # unknown; the sub-assignment that breaks F leaves V out.
    ("var N : {0,1} = 1 - V\n"
     "var F : {0,1} = min(X, ite(W == 0, V, max(V, N)))\n", False),
    # F tests V == W, so F's direction in V is mixed; the sub-assignment
    # that breaks F re-imposes V.
    ("var F : {0,1} = min(X, ite(V == W, 1, 0))\n", True),
], ids=["opposite-paths", "parity"])
def test_ac2b_enumerates_a_variable_no_monotonicity_settles(text, with_v, monkeypatch):
    # The pin W=0 moves V off its actual 1, and AC2(b) fails at one
    # sub-assignment alone: taking V's way as "re-impose it always" misses
    # the first, and as "never re-impose it" the second.
    doc = parse_document(
        "exo UX : {0,1}\nexo UW : {0,1}\n"
        "var X : {0,1} = UX\nvar W : {0,1} = UW\nvar V : {0,1} = W\n"
        + text + "context c : UX=1, UW=1\n")
    model, context = doc.model, doc.contexts["c"]
    cause, effect = (event("X", 1),), event("F", 1)
    search = CauseSearch(Engine(model, context), effect)
    x_mask = 1 << model.endo_index("X")
    assert search._side(x_mask, search._signs(x_mask)[1], model.endo_index("V")) == (0, None, None)
    keys = []
    solve_tuple = Engine.solve_tuple

    def recording_solve_tuple(engine, key, *args):
        keys.append({engine.endo[i]: v for i, v in enumerate(key) if v is not None})
        return solve_tuple(engine, key, *args)

    monkeypatch.setattr(Engine, "solve_tuple", recording_solve_tuple)
    assert check_ac2(model, context, cand(*cause), effect, ("W",), (0,), (0,)) is False
    broken = [key for key in keys if key.get("X") == 1
              and not evaluate(effect, solve(intervene(model, key), context))]
    assert len(broken) == 1 and broken[0]["W"] == 0 and ("V" in broken[0]) == with_v
    monkeypatch.undo()
    assert not _direct_ac2(model, context, cause, effect, ("W",), (0,), (0,))
    assert enumerate_witnesses(model, context, cand(*cause), effect) \
        == exhaustive_witnesses(model, context, cause, effect)


def test_a_corner_that_product_order_reaches_last_is_decided_first(monkeypatch):
    # V : {2,1,0} lowers F only at 0, and Y only at 0, so the effect holds
    # least at V=0 and Y=0: V's corner comes last in its range, Y's first.
    # The set {V} holds F=1 at its corner, so it holds everywhere, and its
    # other settings are not solved; {Y} and {Y, V} fail there, go on in
    # product order, and give the witnesses.  Taken at the wrong end, the
    # corner of {Y} would hold and hide its witness.
    doc = parse_document(
        "exo UX : {0,1}\nexo UY : {0,1}\nexo UV : {0,1,2}\n"
        "var X : {0,1} = UX\nvar Y : {0,1} = UY\nvar V : {2,1,0} = UV\n"
        "var F : {0,1} = max(X, max(Y, min(V, 1)))\n"
        "context c : UX=1, UY=1, UV=0\n")
    model, context = doc.model, doc.contexts["c"]
    cause, effect = (event("X", 1),), event("F", 1)
    y, v = model.endo_index("Y"), model.endo_index("V")
    for corners in (True, False):
        monkeypatch.setitem(checker._RULES, "monotone-sets", corners)
        keys = []
        solve_tuple = Engine.solve_tuple

        def recording_solve_tuple(engine, key, *args):
            keys.append(key)
            return solve_tuple(engine, key, *args)

        monkeypatch.setattr(Engine, "solve_tuple", recording_solve_tuple)
        records = enumerate_witnesses(model, context, cand(*cause), effect)
        monkeypatch.setattr(Engine, "solve_tuple", solve_tuple)
        assert records == exhaustive_witnesses(model, context, cause, effect)
        assert [(r.w_set, r.w_values) for r in records] == [(("Y",), (0,)), (("Y", "V"), (0, 0))]
        alone = [key[v] for key in keys if key[y] is None and key[v] is not None]
        assert alone == ([0] if corners else [2, 1, 0])


def test_best_witnesses_ask_the_reverse_only_where_the_forward_holds(monkeypatch):
    # The 256 distinct witness worlds of F=1 for F=1 over 8 typical lights:
    # asking both directions of each comparison makes 1,020 calls of the
    # weak relation; asking the reverse only after the forward one holds,
    # 765.  The best world is the same as the four-way comparison's.
    ext, context = _typical_lights()
    verdict = is_extended_cause(ext, context, cand(event("F", 1)), event("F", 1))
    worlds = [r.world for r in verdict.hp_witnesses]
    calls = []
    weak = type(ext.order)._weak

    def counting_weak(order, key, key2):
        calls.append(key)
        return weak(order, key, key2)

    monkeypatch.setattr(type(ext.order), "_weak", counting_weak)
    best = checker.best_witnesses(ext.order, worlds)
    assert len(calls) <= 765
    monkeypatch.undo()
    distinct = sorted({w.values: w for w in worlds}.items())
    assert best == tuple(
        world for values, world in distinct
        if not any(ext.order.compare(other, world) is Relation.MORE_NORMAL
                   for key, other in distinct if key != values))
    assert best == verdict.best_witnesses


def test_records_on_one_world_share_it():
    # F=1 for F=1 over 8 typical lights: 3^8 records land on 2^8 worlds,
    # and the search builds each world once.  The admissible records and
    # the best witnesses are those read off fresh worlds of the same values.
    ext, context = _typical_lights()
    model = ext.base
    verdict = is_extended_cause(ext, context, cand(event("F", 1)), event("F", 1))
    records = verdict.hp_witnesses
    assert len(records) == 3 ** 8
    assert len({id(r.world) for r in records}) == len({r.world for r in records}) == 2 ** 8
    actual = solve(model, context)
    fresh = [World(model.endogenous, r.world.values) for r in records]
    assert verdict.admissible_witnesses == tuple(
        r for r, world in zip(records, fresh) if ext.order.admits(world, actual))
    assert verdict.admissible_witnesses == records
    assert verdict.best_witnesses == checker.best_witnesses(ext.order, fresh)
    assert verdict.best_witnesses == (World(model.endogenous, (0,) * 9),)
    plain = is_actual_cause(model, context, cand(event("F", 1)), event("F", 1))
    assert plain.hp_witnesses == records
    assert plain.best_witnesses == tuple(World(model.endogenous, values)
                                         for values in sorted({w.values for w in fresh}))
