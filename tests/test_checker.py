"""Clause checks, witness enumeration, verdicts, and the candidate sweep."""

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
from actualcause import checker, model as model_module
from actualcause.checker import CauseSearch, Engine
from actualcause.dsl import parse_document
from actualcause.formula import evaluate
from actualcause.oracle import oracle_is_cause

from random_models import all_contexts, exhaustive_witnesses, random_model


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
    # AC2(b) skips the re-impositions that no changed pin can reach; the
    # literal expansion tries them all.  Candidate values are drawn from the
    # whole range, so the world under the candidate alone often differs from
    # the actual one.  Draws whose AC2(a) fails never reach AC2(b), so they
    # are not counted.
    rng = random.Random(31)
    verdicts = []
    dropped = 0
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
    assert verdicts.count(True) >= 30 and verdicts.count(False) >= 30
    assert dropped >= 75


def test_ac2b_skips_a_variable_off_every_changed_path(monkeypatch):
    # S is pinned at its actual value and nothing reaches it from the
    # changed pin M=0, so no AC2(b) sub-assignment re-imposes it.
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
    assert check_ac2(model, context, *args) is True
    assert _direct_ac2(model, context, (event("L", 1),), *args[1:]) is True
    ac2b_solves = [s for s in solved if s.get("L") == 1]
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


def _count_lookups(monkeypatch):
    """Counts of counterfactual lookups and of distinct solves from here on."""
    counts = {"solve_tuple": 0, "settle": 0}
    solve_tuple, settle = Engine.solve_tuple, checker._settle

    def counting_solve_tuple(*args):
        counts["solve_tuple"] += 1
        return solve_tuple(*args)

    def counting_settle(*args):
        counts["settle"] += 1
        return settle(*args)

    monkeypatch.setattr(Engine, "solve_tuple", counting_solve_tuple)
    monkeypatch.setattr(checker, "_settle", counting_settle)
    return counts


def test_sweep_work_stays_within_the_counted_bound(documents, monkeypatch):
    # Guards the sweep's subset rule, the AC2(b) restriction and the
    # refutation by monotonicity, each taken out alone: a sweep deciding AC3
    # by searching the single conjuncts again makes 34 counterfactual
    # lookups; without the restriction AC2(b) solves no-op re-impositions
    # (34 lookups, 24 distinct solves); without the refutation the unlit
    # source is searched in full (28 lookups, 22 distinct solves).  Without
    # all three: 49 lookups, 27 distinct solves.  Every pair holds a cause
    # found at size 1, so the subset rule refutes it without a search.
    doc = documents["forest_fire_disjunctive.scm.txt"]
    counts = _count_lookups(monkeypatch)
    found = {name: [str(c) for c in find_all_causes(doc.model, context, event("F", 1),
                                                     max_conjuncts=2)]
             for name, context in doc.contexts.items()}
    assert found == {"u11": ["L=1", "M=1", "F=1"], "u10": ["L=1", "F=1"]}
    assert counts["solve_tuple"] <= 25
    assert counts["settle"] <= 19


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


@pytest.mark.parametrize("kind", ["disjunctive", "vote"])
def test_wide_sweeps_refute_larger_candidates_without_a_search(kind, monkeypatch):
    # Each lit source passes alone, so every larger candidate holding one, or
    # holding F, fails AC3; monotonicity refutes the unlit sources, and any
    # set of them, without a lookup.
    # AC3 is read off the causes found at size 1, so sizes 2 and 3 look up
    # no more counterfactuals than size 1.
    model, context = _wide_model(kind)
    counts = _count_lookups(monkeypatch)
    lookups = {}
    for k in (1, 2, 3):
        before = counts["solve_tuple"]
        found = find_all_causes(model, context, event("F", 1), max_conjuncts=k)
        assert [str(c) for c in found] == ["L0=1", "L2=1", "L4=1", "L6=1", "F=1"]
        lookups[k] = counts["solve_tuple"] - before
    assert lookups[2] <= lookups[1]
    assert lookups[3] <= lookups[1]


@pytest.mark.parametrize("kind, records, bound", [("disjunctive", 8, 188),
                                                  ("vote", 144, 839)])
def test_sets_that_pin_the_whole_effect_are_not_solved(kind, records, bound, monkeypatch):
    # A set pinning F makes AC2(a) and AC2(b) read the same F, so no witness
    # uses it and the search skips it unsolved, here and in AC3's searches of
    # L0 and L2: F is pinned only where AC2(b) re-imposes its actual value.
    # The search that solves those sets makes 2,707 and 2,433 lookups.  F
    # never falls as a light rises, so a setting above one where F=1 held is
    # not solved either: without that rule the two make 942 and 839 lookups,
    # with it 188 and 771.
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
    assert {key[f] for key in keys} == {None, 1}
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


def test_a_pin_re_solves_only_its_descendants(monkeypatch):
    # U -> X0 -> ... -> X5: pinning X_k re-runs the equations of X_{k+1}..X5
    # alone, and pinning the sink re-runs none.
    n = 6
    model = _chain(n)
    target = {model.equations[name].body: name for name in model.endogenous}
    evaluated = []
    compile_equation = model_module._compile

    def counting_compile(expr, positions):
        compiled = compile_equation(expr, positions)

        def run(env):
            evaluated.append(target[expr])
            return compiled(env)
        return run

    monkeypatch.setattr(model_module, "_compile", counting_compile)
    engine = Engine(model, {"U": 1})
    assert evaluated == list(model.endogenous)
    for k in range(n):
        evaluated.clear()
        key = [None] * n
        key[k] = 0
        assert engine.solve_tuple(tuple(key)) == (1,) * k + (0,) * (n - k)
        assert evaluated == [f"X{i}" for i in range(k + 1, n)]


def test_pins_that_cannot_reach_the_effect_are_not_solved(monkeypatch):
    # On a 9-chain a pin upstream of the candidate, or below the effect,
    # changes no effect variable: each setting is decided on its pins between
    # the two, and solved in full only to give a witness its world.  The
    # search that solves every setting makes 10,919 and 12,805 lookups, and
    # the one that also solves the sets pinning the effect variable, 209 and
    # 293.
    model = _chain(9)
    counts = _count_lookups(monkeypatch)
    for cause, effect, records, bound in (("X4", "X8", 81, 131), ("X2", "X5", 243, 263)):
        counts["solve_tuple"] = 0
        verdict = is_actual_cause(model, {"U": 1}, cand(event(cause, 1)), event(effect, 1))
        assert verdict.is_cause and len(verdict.hp_witnesses) == records
        assert counts["solve_tuple"] <= bound


def test_each_pin_mask_is_planned_once(monkeypatch):
    # The search looks a contingency set's plan up once for all its settings
    # and AC2(b) looks up the plan of each sub-assignment's mask: across the
    # 243 records, each mask whose key missed the solve cache has its plan
    # built exactly once.  The empty mask's plan comes with the engine.
    built, missed = [], set()
    plan, solve_tuple = Engine.plan, Engine.solve_tuple

    def counting_plan(engine, pinned):
        if pinned not in engine._plans:
            built.append(pinned)
        return plan(engine, pinned)

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
    relevant, signs, paths = checker._effect_signs(model, ("A",), {"F"})
    assert relevant == sum(1 << model.endo_index(name) for name in "BCF")
    assert signs == {"F": -1}
    assert paths == {"F": {"F": 1, "B": 1, "C": 1, "A": -1, "UC": 1}}
    verdict = is_actual_cause(model, context, cand(event("A", 0)), event("F", 1))
    assert verdict.is_cause
    assert [r.x_prime for r in verdict.hp_witnesses] == [(1,), (1,)]
    assert not is_actual_cause(model, context, cand(event("C", 0)),
                               event("F", 1)).hp_witnesses
    # F=0 is the bottom of F's range, so raising A keeps it and lowering A
    # may not.
    assert checker._preserved(model, event("F", 0), signs, 1)
    assert not checker._preserved(model, event("F", 0), signs, -1)
    # A negation is never taken as kept: !(F=0) is F=1 here, which raising A
    # can break.
    assert not checker._preserved(model, Negation(event("F", 0)), signs, 1)


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


@pytest.mark.skipif(sys.version_info[:2] != (3, 11),
                    reason="bytecode counts are those of CPython 3.11")
def test_an_output_bound_query_runs_few_bytecodes_per_record():
    # Every bytecode the package runs for the 6,561 records above, the
    # filter and the best-witness pass included: 468 per record when each
    # setting was solved and tested, about 184 once they are laid over the
    # actual world unasked.
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
    assert count <= 234 * 3 ** 8


def test_each_direction_of_the_alternatives_is_checked_once(monkeypatch):
    # A binary candidate has one alternative, so one direction to refute.  A
    # pair at (1, 0) has three: one down, one up, and one mixed, which no
    # monotonicity refutes and so is not checked.
    calls = []
    preserved = checker._preserved

    def recording_preserved(model, body, signs, s):
        calls.append(s)
        return preserved(model, body, signs, s)

    monkeypatch.setattr(checker, "_preserved", recording_preserved)
    model, context = _wide_model("disjunctive")
    is_actual_cause(model, context, cand(event("L0", 1)), event("F", 1))
    assert calls == [-1]
    calls.clear()
    enumerate_witnesses(model, context, cand(event("L0", 1), event("L1", 0)), event("F", 1))
    assert sorted(calls) == [-1, 1]


def test_a_monotone_pin_decides_the_settings_above_a_held_one(monkeypatch):
    # F = max of the lights never falls as a light rises, so once F=1 holds
    # under x' at a setting, every setting above it in one light holds too
    # and is not solved.  The K=1 sweep of the 7-light model makes 632
    # lookups (450 distinct solves) without that rule.
    model, context = _wide_model("disjunctive")
    counts = _count_lookups(monkeypatch)
    found = find_all_causes(model, context, event("F", 1), max_conjuncts=1)
    assert [str(c) for c in found] == ["L0=1", "L2=1", "L4=1", "L6=1", "F=1"]
    assert counts["solve_tuple"] <= 197
    assert counts["settle"] <= 138


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


@pytest.mark.parametrize("cause, bound", [(("A0", 1), 54), (("A1", 2), 70)])
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
    # search that goes on past the empty set asks once.
    calls = []
    pin_ways = checker._pin_ways

    def recording_pin_ways(*args):
        calls.append(args[-1])
        return pin_ways(*args)

    monkeypatch.setattr(checker, "_pin_ways", recording_pin_ways)
    assert not is_actual_cause(_chain(9), {"U": 1}, cand(event("X8", 1)),
                               Negation(event("X3", 0))).hp_witnesses
    model, context = _wide_model("disjunctive")
    assert not is_actual_cause(model, context, cand(event("L1", 0)), event("F", 1)).hp_witnesses
    assert calls == []
    assert is_actual_cause(model, context, cand(event("L0", 1)), event("F", 1)).is_cause
    assert len(calls) == 1


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
