"""Extended verdicts, best witnesses, and graded comparison."""

import itertools
import random
from collections import Counter

import pytest

from actualcause import (
    CandidateCause,
    ExtendedCausalModel,
    NormalityError,
    PrimitiveEvent,
    Relation,
    TrivialOrder,
    World,
    best_witnesses,
    compare,
    grade_candidates,
    is_actual_cause,
    is_extended_cause,
    derive_from_typicality,
    solve,
)
from actualcause import checker, normality
from actualcause.dsl import GradeQuery, parse_document
from actualcause.errors import OracleCapExceeded
from actualcause.oracle import oracle_is_cause, oracle_is_extended_cause

from random_models import all_contexts, random_model, random_typicality


def event(name, value):
    return PrimitiveEvent(name, value)


def cand(*events):
    return CandidateCause(tuple(events))


def ext_of(doc):
    return ExtendedCausalModel(doc.model, doc.normality_order())


# -- extended verdicts -------------------------------------------------------------


def test_bogus_prevention_antidote_not_extended_cause(documents):
    doc = documents["bogus_prevention.scm.txt"]
    verdict = is_extended_cause(ext_of(doc), doc.contexts["main"],
                                cand(event("B", 1)), event("VS", 1))
    assert verdict.is_cause_hp and not verdict.is_cause_extended
    assert verdict.failed_clause == "AC2"
    assert verdict.admissible_witnesses == ()


def test_filtered_minimality_is_asked_only_where_plain_minimality_fails(documents,
                                                                       monkeypatch):
    # The filter only drops witnesses: when no strict sub-conjunction has a
    # witness, none has an admitted one, so the filtered AC3 is not asked.
    # Where the plain AC3 fails, the filtered one still decides.
    calls = []
    ac3 = checker.CauseSearch.ac3

    def counting_ac3(search, conjuncts, witness_filter=None):
        calls.append(witness_filter is not None)
        return ac3(search, conjuncts, witness_filter)

    monkeypatch.setattr(checker.CauseSearch, "ac3", counting_ac3)
    doc = documents["short_circuit_intentions.scm.txt"]
    verdict = is_extended_cause(ext_of(doc), doc.contexts["main"],
                                cand(event("I", 1), event("P", 1)), event("VS", 1))
    assert verdict.ac1 and verdict.ac3 and verdict.failed_clause == "AC2"
    assert calls == [False]
    calls.clear()
    doc = documents["bogus_prevention.scm.txt"]
    verdict = is_extended_cause(ext_of(doc), doc.contexts["main"],
                                cand(event("A", 0), event("B", 1)), event("VS", 1))
    assert not verdict.is_cause_hp and verdict.hp_witnesses and verdict.ac3
    assert calls == [False, True]


def test_bogus_prevention_nonpoisoning_shares_the_witness(documents):
    doc = documents["bogus_prevention.scm.txt"]
    b = is_extended_cause(ext_of(doc), doc.contexts["main"],
                          cand(event("B", 1)), event("VS", 1))
    a = is_extended_cause(ext_of(doc), doc.contexts["main"],
                          cand(event("A", 0)), event("VS", 1))
    assert not a.is_cause_extended
    assert {r.world.values for r in a.hp_witnesses} == \
        {r.world.values for r in b.hp_witnesses}


def test_preemption_poisoner_stays_a_cause(documents):
    doc = documents["preemption.scm.txt"]
    verdict = is_extended_cause(ext_of(doc), doc.contexts["main"],
                                cand(event("A", 1)), event("D", 1))
    assert verdict.is_cause_extended
    assert {"A": 0, "B": 0, "D": 0} in [
        r.world.as_dict() for r in verdict.admissible_witnesses
    ]


def test_short_circuit_antidote_not_extended_cause(documents):
    doc = documents["short_circuit.scm.txt"]
    verdict = is_extended_cause(ext_of(doc), doc.contexts["main"],
                                cand(event("A", 1)), event("VS", 1))
    assert verdict.is_cause_hp and not verdict.is_cause_extended


def test_short_circuit_intentions_variant_agrees(documents):
    doc = documents["short_circuit_intentions.scm.txt"]
    ext = ext_of(doc)
    verdict = is_extended_cause(ext, doc.contexts["main"],
                                cand(event("A", 1)), event("VS", 1))
    assert verdict.is_cause_hp and not verdict.is_cause_extended
    best_overall = best_witnesses(ext.order,
                                  (r.world for r in verdict.hp_witnesses))
    assert [w.as_dict() for w in best_overall] == [
        {"A": 0, "I": 0, "P": 1, "VS": 0},
        {"A": 0, "I": 2, "P": 1, "VS": 0},
    ]


def test_extended_verdict_flags(documents):
    doc = documents["background_conditions.scm.txt"]
    verdict = is_extended_cause(ext_of(doc), doc.contexts["main"],
                                cand(event("O", 1)), event("F", 1))
    assert verdict.mode == "extended"
    assert verdict.ac1 and not verdict.is_cause
    assert verdict.hp_witnesses and not verdict.admissible_witnesses


# -- best witnesses ----------------------------------------------------------------


def test_pens_best_witness(documents):
    doc = documents["office_pens.scm.txt"]
    verdict = is_extended_cause(ext_of(doc), doc.contexts["main"],
                                cand(event("PT", 1)), event("PO", 1))
    assert [w.as_dict() for w in verdict.best_witnesses] == [
        {"PT": 0, "AT": 1, "PO": 0}
    ]


def test_chain_best_witness_membership(documents):
    doc = documents["causal_chain.scm.txt"]
    ext = ext_of(doc)
    verdict = is_extended_cause(ext, doc.contexts["main"],
                                cand(event("LL", 1)), event("ES", 1))
    target = {"M": 0, "R": 0, "RI": 0, "F": 0, "SD": 0, "LI": 0, "LL": 0,
              "EU": 1, "ES": 0}
    assert target in [w.as_dict() for w in verdict.best_witnesses]
    # All best witnesses are mutually equally normal.
    for a, b in itertools.combinations(verdict.best_witnesses, 2):
        assert compare(ext.order, a, b) is Relation.EQUALLY_NORMAL


def test_singleton_witness_set_is_its_own_best(documents):
    doc = documents["preemption.scm.txt"]
    ext = ext_of(doc)
    verdict = is_extended_cause(ext, doc.contexts["main"],
                                cand(event("A", 1)), event("D", 1))
    worlds = {r.world.values for r in verdict.admissible_witnesses}
    if len(worlds) == 1:
        assert [w.values for w in verdict.best_witnesses] == sorted(worlds)


def test_a_lone_world_is_checked_against_the_model(documents):
    # One world is compared with nothing, yet it must range over the
    # model's endogenous variables, as each of two worlds must.
    doc = documents["office_pens.scm.txt"]
    order = doc.normality_order()
    foreign = World(("Q",), (0,))
    for worlds in ([foreign], [foreign, World(("Q",), (1,))]):
        with pytest.raises(NormalityError, match="endogenous variables"):
            best_witnesses(order, worlds)
    lone = doc.model.world({"PT": 0, "AT": 1, "PO": 0})
    assert best_witnesses(order, [lone, lone]) == (lone,)
    assert best_witnesses(order, []) == ()


def test_best_witness_maximality(documents):
    for name in ("causal_chain.scm.txt", "legal_fire.scm.txt",
                 "office_pens.scm.txt"):
        doc = documents[name]
        ext = ext_of(doc)
        for ctx_name in doc.contexts:
            context = doc.contexts[ctx_name]
            actual = solve(doc.model, context)
            for variable in doc.model.endogenous[:3]:
                verdict = is_extended_cause(
                    ext, context, cand(event(variable, actual[variable])),
                    event(doc.model.endogenous[-1],
                          actual[doc.model.endogenous[-1]]))
                admissible = {r.world.values: r.world
                              for r in verdict.admissible_witnesses}
                best = {w.values for w in verdict.best_witnesses}
                for world in admissible.values():
                    dominated = any(
                        compare(ext.order, other, world) is Relation.MORE_NORMAL
                        for other in admissible.values()
                    )
                    assert (world.values not in best) == dominated


# -- grading -----------------------------------------------------------------------


def test_legal_grading_both_contexts(documents):
    doc = documents["legal_fire.scm.txt"]
    ext = ext_of(doc)
    fire = event("F", 1)
    careless = grade_candidates(ext, doc.contexts["careless"],
                                [cand(event("AN", 1)), cand(event("BC", 1))],
                                fire)
    assert all(v.is_cause for v in careless.verdicts)
    assert careless.pairs[0].relation == "first_above"
    malicious = grade_candidates(ext, doc.contexts["malicious"],
                                 [cand(event("BM", 1)), cand(event("AN", 1))],
                                 fire)
    assert all(v.is_cause for v in malicious.verdicts)
    assert malicious.pairs[0].relation == "first_above"


def test_chain_grading(documents):
    doc = documents["causal_chain.scm.txt"]
    result = grade_candidates(ext_of(doc), doc.contexts["main"],
                              [cand(event("LL", 1)), cand(event("M", 1))],
                              event("ES", 1))
    assert all(v.is_cause for v in result.verdicts)
    assert result.pairs[0].relation == "first_above"
    assert result.relation(cand(event("M", 1)), cand(event("LL", 1))) \
        == "second_above"
    assert result.verdict_for(cand(event("M", 1))) is result.verdicts[1]
    with pytest.raises(KeyError):
        result.verdict_for(cand(event("ES", 1)))


def test_the_higher_candidate_listed_second_grades_second_above(documents):
    # Omission (c): both are causes and H=1's best witness is more normal
    # than W=0's, so listing W=0 first makes the pair "second_above", and
    # asking for it the other way round flips it.
    doc = documents["omission_c.scm.txt"]
    h, w = cand(event("H", 1)), cand(event("W", 0))
    result = grade_candidates(ext_of(doc), doc.contexts["main"], [w, h], event("D", 1))
    assert all(v.is_cause for v in result.verdicts)
    assert result.pairs[0].relation == "second_above"
    assert result.relation(h, w) == "first_above"
    assert result.relation(w, h) == "second_above"


def test_candidate_grades_equal_to_itself(documents):
    doc = documents["office_pens.scm.txt"]
    result = grade_candidates(ext_of(doc), doc.contexts["main"],
                              [cand(event("PT", 1)), cand(event("PT", 1))],
                              event("PO", 1))
    assert result.pairs[0].relation == "equal"


def test_extended_minimality_asks_the_filtered_test():
    # V1=1 passes the plain test alone, so the pair fails plain AC3; but its
    # witness worlds all set V1 to the atypical 0, so under the normality
    # filter V1=1 has no witness, the pair is minimal, and it is an extended
    # cause.
    doc = parse_document(
        "exo U : {0,1}\n"
        "var V0 : {0,1} = U\n"
        "var V1 : {0,1} = 1 - V0\n"
        "var V2 : {0,1} = V0\n"
        "typical V1 = 1 > 0\n"
        "context c : U=0\n"
        "cause V1=1 & V2=0 for V1=1 & (V0=0 | V2=0) @ c\n")
    ext, context = ext_of(doc), doc.contexts["c"]
    query = doc.queries[0]
    single = is_extended_cause(ext, context, cand(event("V1", 1)), query.effect)
    assert single.is_cause_hp and not single.is_cause_extended
    verdict = is_extended_cause(ext, context, query.cause, query.effect)
    assert (verdict.is_cause_hp, verdict.is_cause_extended, verdict.ac3) == (False, True, True)
    assert [(r.w_set, r.w_values, r.x_prime) for r in verdict.admissible_witnesses] \
        == [(("V0",), (1,), (1, 1))]
    conjuncts = query.cause.conjuncts
    assert not oracle_is_cause(doc.model, context, conjuncts, query.effect)
    assert oracle_is_extended_cause(ext, context, conjuncts, query.effect)


def test_non_cause_ranks_below_causes(documents):
    doc = documents["background_conditions.scm.txt"]
    result = grade_candidates(ext_of(doc), doc.contexts["main"],
                              [cand(event("O", 1)), cand(event("M", 1))],
                              event("F", 1))
    assert not result.verdicts[0].is_cause and result.verdicts[1].is_cause
    assert result.pairs[0].relation == "second_above"


def test_omission_viewpoints_have_distinct_patterns(documents):
    patterns = {}
    for variant in "abcd":
        doc = documents[f"omission_{variant}.scm.txt"]
        result = grade_candidates(ext_of(doc), doc.contexts["main"],
                                  [cand(event("H", 1)), cand(event("W", 0))],
                                  event("D", 1))
        patterns[variant] = (
            result.verdicts[0].is_cause,
            result.verdicts[1].is_cause,
            result.pairs[0].relation,
        )
    assert patterns["a"] == (True, False, "first_above")
    assert patterns["b"] == (True, True, "equal")
    assert patterns["c"] == (True, True, "first_above")
    assert patterns["d"] == (True, True, "incomparable")
    assert len(set(patterns.values())) == 4


@pytest.mark.parametrize("variant, relation", [("b", "equal"), ("d", "incomparable")])
def test_a_symmetric_relation_reads_the_same_either_way(documents, variant, relation):
    doc = documents[f"omission_{variant}.scm.txt"]
    h, w = cand(event("H", 1)), cand(event("W", 0))
    result = grade_candidates(ext_of(doc), doc.contexts["main"], [h, w], event("D", 1))
    assert result.relation(h, w) == result.relation(w, h) == relation
    with pytest.raises(KeyError):
        result.relation(h, cand(event("D", 1)))


# -- conservativity and filtering ----------------------------------------------------


def test_trivial_order_matches_plain_mode(documents):
    rng = random.Random(99)
    for _ in range(30):
        model = random_model(rng)
        trivial = ExtendedCausalModel(model, TrivialOrder(model))
        for context in all_contexts(model):
            actual = solve(model, context)
            effect = event(model.endogenous[-1], actual[model.endogenous[-1]])
            for name in model.endogenous:
                candidate = cand(event(name, actual[name]))
                plain = is_actual_cause(model, context, candidate, effect)
                extended = is_extended_cause(trivial, context, candidate, effect)
                assert plain.is_cause == extended.is_cause
                assert extended.admissible_witnesses == extended.hp_witnesses


def test_monotonic_filtering(documents):
    rng = random.Random(3)
    for _ in range(30):
        model = random_model(rng)
        spec = random_typicality(rng, model)
        from actualcause import derive_from_typicality

        ext = ExtendedCausalModel(model, derive_from_typicality(model, spec))
        for context in all_contexts(model):
            actual = solve(model, context)
            effect = event(model.endogenous[-1], actual[model.endogenous[-1]])
            for name in model.endogenous:
                verdict = is_extended_cause(ext, context,
                                            cand(event(name, actual[name])),
                                            effect)
                assert set(verdict.admissible_witnesses) <= set(verdict.hp_witnesses)
                if verdict.is_cause_extended:
                    assert verdict.is_cause_hp


# -- one search per grading ----------------------------------------------------------


def _check_grading_matches_single_queries(ext, context, candidates, effect):
    result = grade_candidates(ext, context, candidates, effect)
    assert [v.cause for v in result.verdicts] == list(candidates)
    for candidate, verdict in zip(candidates, result.verdicts):
        # Every field, witness order and best witnesses included.
        assert verdict == is_extended_cause(ext, context, candidate, effect)
        try:
            expected = oracle_is_extended_cause(ext, context, candidate, effect)
        except OracleCapExceeded:
            continue
        assert verdict.is_cause_extended == expected


def test_grading_matches_single_queries_on_fixture_grades(documents):
    graded = 0
    for doc in documents.values():
        if not doc.has_normality():
            continue
        ext = ext_of(doc)
        for query in doc.queries:
            if isinstance(query, GradeQuery):
                _check_grading_matches_single_queries(
                    ext, doc.contexts[query.context], query.candidates, query.effect)
                graded += 1
    assert graded >= 8


def test_grading_matches_single_queries_on_random_models():
    rng = random.Random(41)
    pairs = 0
    for _ in range(25):
        model = random_model(rng, max_endo=5)
        ext = ExtendedCausalModel(
            model, derive_from_typicality(model, random_typicality(rng, model)))
        for context in all_contexts(model):
            actual = solve(model, context)
            effect = event(model.endogenous[-1], actual[model.endogenous[-1]])
            singles = [cand(event(n, actual[n])) for n in model.endogenous[:-1]]
            names = rng.sample(model.endogenous, 2)
            pair = cand(*(event(n, actual[n]) for n in names))
            flipped = cand(event(names[0], 1 - actual[names[0]]),
                           event(names[1], actual[names[1]]))
            _check_grading_matches_single_queries(
                ext, context, singles + [pair, flipped], effect)
            pairs += 1
    assert pairs >= 25


def test_grading_work_stays_within_one_lookup_per_world(documents, monkeypatch):
    # Guards the per-query memos: each world's marks are computed once per
    # query (the witness worlds and the actual world), the filter asks the
    # order once per witness world, and a grading builds one engine for all
    # its candidates.
    marked = []
    asked = []
    engines = []
    world_marks, engine_init = normality.world_marks, checker.Engine.__init__
    admits = normality.NormalityOrder.admits

    def counting_admits(order, s, s2):
        asked.append((s.values, s2.values))
        return admits(order, s, s2)

    def counting_marks(*args):
        marked.append(args[-1].values)  # the world
        return world_marks(*args)

    def counting_init(engine, model, context):
        engines.append(context)
        engine_init(engine, model, context)

    monkeypatch.setattr(normality, "world_marks", counting_marks)
    monkeypatch.setattr(checker.Engine, "__init__", counting_init)
    monkeypatch.setattr(normality.NormalityOrder, "admits", counting_admits)
    doc = documents["legal_fire.scm.txt"]
    ext = ext_of(doc)
    context = doc.contexts["careless"]
    actual = solve(doc.model, context).values
    fire = event("F", 1)

    verdict = is_extended_cause(ext, context, cand(event("AN", 1)), fire)
    assert verdict.is_cause_extended and len(verdict.hp_witnesses) > 1
    assert actual in marked and len(engines) == 1
    assert max(Counter(marked).values()) == 1, Counter(marked).most_common(2)
    assert set(marked) <= {r.world.values for r in verdict.hp_witnesses} | {actual}
    assert len(asked) == len(set(asked)) < len(verdict.hp_witnesses)

    marked.clear()
    asked.clear()
    engines.clear()
    result = grade_candidates(ext, context,
                              [cand(event("AN", 1)), cand(event("BC", 1))], fire)
    assert result.pairs[0].relation == "first_above"
    assert len(engines) == 1
    assert actual in marked
    assert max(Counter(marked).values()) == 1, Counter(marked).most_common(2)
    assert set(marked) <= {r.world.values for v in result.verdicts
                           for r in v.hp_witnesses} | {actual}
    filter_asks = [pair for pair in asked if pair[1] == actual]
    assert len(filter_asks) == len(set(filter_asks))
