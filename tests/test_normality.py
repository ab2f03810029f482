"""Normality orders: comparison, derivation, explicit relations, behaviors."""

import itertools
import random

import pytest
from hypothesis import given, settings, strategies as st

from actualcause import (
    Behavior,
    BehaviorRanking,
    CausalModel,
    Const,
    Equation,
    NormalityError,
    Ref,
    Relation,
    TrivialOrder,
    TypicalitySpec,
    ValueRanking,
    Variable,
    assign_behavior,
    compare,
    derive_from_typicality,
    explicit_order,
)
from actualcause import normality
from actualcause.normality import DerivedOrder, _embeds, _QueryOrder, world_marks

from random_models import random_model, random_typicality, tree_value


def world_of(model, **values):
    return model.world(values)


# -- compare ---------------------------------------------------------------------


def test_compare_is_reflexive(documents):
    doc = documents["bogus_prevention.scm.txt"]
    order = doc.normality_order()
    w = world_of(doc.model, A=0, B=1, VS=1)
    assert compare(order, w, w) is Relation.EQUALLY_NORMAL


def test_bogus_prevention_worlds_incomparable(documents):
    doc = documents["bogus_prevention.scm.txt"]
    order = doc.normality_order()
    actual = world_of(doc.model, A=0, B=1, VS=1)
    witness = world_of(doc.model, A=1, B=0, VS=0)
    assert compare(order, actual, witness) is Relation.INCOMPARABLE


def test_omission_default_chain(documents):
    doc = documents["omission_a.scm.txt"]
    order = doc.normality_order()
    quiet = world_of(doc.model, H=0, W=0, D=0)
    actual = world_of(doc.model, H=1, W=0, D=1)
    watered = world_of(doc.model, H=1, W=1, D=0)
    assert compare(order, quiet, actual) is Relation.MORE_NORMAL
    assert compare(order, actual, watered) is Relation.MORE_NORMAL
    assert compare(order, quiet, watered) is Relation.MORE_NORMAL


def test_compare_rejects_foreign_worlds(documents):
    bogus = documents["bogus_prevention.scm.txt"]
    pens = documents["office_pens.scm.txt"]
    order = bogus.normality_order()
    with pytest.raises(NormalityError):
        order.compare(
            world_of(bogus.model, A=0, B=1, VS=1),
            world_of(pens.model, PT=1, AT=1, PO=1),
        )


# -- derived orders ----------------------------------------------------------------


def test_background_conditions_ordering(documents):
    doc = documents["background_conditions.scm.txt"]
    order = doc.normality_order()
    no_match = world_of(doc.model, M=0, O=1, F=0)
    actual = world_of(doc.model, M=1, O=1, F=1)
    no_oxygen = world_of(doc.model, M=1, O=0, F=0)
    assert order.admits(no_match, actual)
    assert compare(order, actual, no_oxygen) is Relation.MORE_NORMAL


def test_legal_severity_orders_witnesses(documents):
    doc = documents["legal_fire.scm.txt"]
    order = doc.normality_order()
    careless_only = world_of(doc.model, BM=0, BC=1, BT=1, AN=0, AS=0, F=0)
    negligent_only = world_of(doc.model, BM=0, BC=0, BT=0, AN=1, AS=1, F=0)
    # A lone careless mark outranks a lone negligence mark.
    assert compare(order, careless_only, negligent_only) is Relation.MORE_NORMAL


def test_mechanism_mode_short_circuit_incomparable(documents):
    doc = documents["short_circuit.scm.txt"]
    order = doc.normality_order()
    witness = world_of(doc.model, A=0, P=1, VS=0)
    actual = world_of(doc.model, A=1, P=1, VS=1)
    assert compare(order, witness, actual) is Relation.INCOMPARABLE


def test_same_variable_deeper_rank_is_less_normal(documents):
    doc = documents["short_circuit_intentions.scm.txt"]
    order = doc.normality_order()
    deceitful = world_of(doc.model, A=1, I=1, P=1, VS=1)
    murderous = world_of(doc.model, A=1, I=2, P=1, VS=1)
    assert compare(order, deceitful, murderous) is Relation.MORE_NORMAL


def test_dominance_soundness_random(documents):
    # A strict sub-multiset of marks means strictly more normal.
    rng = random.Random(7)
    for _ in range(40):
        model = random_model(rng)
        spec = random_typicality(rng, model)
        order = derive_from_typicality(model, spec)
        worlds = [
            model.world(dict(zip(model.endogenous, values)))
            for values in itertools.product(
                *(model.range_of(n) for n in model.endogenous)
            )
        ]
        for s in worlds:
            for s2 in worlds:
                marks = world_marks(order, s)
                marks2 = world_marks(order, s2)
                if _submultiset(marks, marks2) and len(marks) < len(marks2):
                    assert compare(order, s, s2) is Relation.MORE_NORMAL
                if sorted(marks) == sorted(marks2):
                    assert compare(order, s, s2) is Relation.EQUALLY_NORMAL


def _submultiset(small, big):
    pool = list(big)
    for item in small:
        if item in pool:
            pool.remove(item)
        else:
            return False
    return True


def test_two_sided_difference_without_severity_is_incomparable():
    rng = random.Random(11)
    for _ in range(40):
        model = random_model(rng)
        spec = TypicalitySpec(
            value_rankings=tuple(
                ValueRanking(n, (0, 1)) for n in model.endogenous
            ),
        )
        order = derive_from_typicality(model, spec)
        worlds = [
            model.world(dict(zip(model.endogenous, values)))
            for values in itertools.product((0, 1), repeat=len(model.endogenous))
        ]
        for s in worlds:
            for s2 in worlds:
                s_extra = [n for n in model.endogenous if s[n] == 1 and s2[n] == 0]
                s2_extra = [n for n in model.endogenous if s2[n] == 1 and s[n] == 0]
                if s_extra and s2_extra:
                    assert compare(order, s, s2) is Relation.INCOMPARABLE


def test_spec_validation_errors(documents):
    model = documents["bogus_prevention.scm.txt"].model
    with pytest.raises(NormalityError):
        derive_from_typicality(model, TypicalitySpec(
            value_rankings=(ValueRanking("NOPE", (0, 1)),)))
    with pytest.raises(NormalityError):
        derive_from_typicality(model, TypicalitySpec(
            value_rankings=(ValueRanking("A", (0,)),)))
    with pytest.raises(NormalityError):
        derive_from_typicality(model, TypicalitySpec(
            value_rankings=(ValueRanking("A", (0, 1)),),
            severity_chains=((("A", 0), ("A", 1)),),  # 0 is the typical value
        ))
    # No document line can declare an empty behavior ranking; the library can.
    with pytest.raises(NormalityError, match="behavior ranking for B is empty"):
        derive_from_typicality(model, TypicalitySpec(
            mechanism=True, behavior_rankings=(BehaviorRanking("B", ()),)))


def test_renaming_invariance(documents):
    # Renaming variables consistently in model, spec, and worlds preserves
    # every comparison.
    rng = random.Random(23)
    from actualcause import CausalModel, Equation, Variable

    for _ in range(10):
        model = random_model(rng)
        spec = random_typicality(rng, model)
        order = derive_from_typicality(model, spec)
        mapping = {n: f"R_{n}" for n in (model.exogenous + model.endogenous)}
        renamed_model = CausalModel(
            [Variable(mapping[v.name], v.kind, v.range) for v in model.variables],
            [Equation(mapping[t], _rename_expr(eq.body, mapping))
             for t, eq in model.equations.items()],
        )
        renamed_spec = TypicalitySpec(
            value_rankings=tuple(
                ValueRanking(mapping[r.variable], r.ranking)
                for r in spec.value_rankings
            ),
            severity_chains=tuple(
                tuple((mapping[n], v) for n, v in chain)
                for chain in spec.severity_chains
            ),
        )
        renamed_order = derive_from_typicality(renamed_model, renamed_spec)
        worlds = list(itertools.product((0, 1), repeat=len(model.endogenous)))
        for a, b in itertools.product(worlds[:8], repeat=2):
            w1 = model.world(dict(zip(model.endogenous, a)))
            w2 = model.world(dict(zip(model.endogenous, b)))
            r1 = renamed_model.world(dict(zip(renamed_model.endogenous, a)))
            r2 = renamed_model.world(dict(zip(renamed_model.endogenous, b)))
            assert compare(order, w1, w2) == compare(renamed_order, r1, r2)


def _rename_expr(expr, mapping):
    from actualcause import BinOp, Const, Ite, Ref, Table

    if isinstance(expr, Const):
        return expr
    if isinstance(expr, Ref):
        return Ref(mapping[expr.name])
    if isinstance(expr, BinOp):
        return BinOp(expr.op, _rename_expr(expr.left, mapping),
                     _rename_expr(expr.right, mapping))
    if isinstance(expr, Ite):
        return Ite(_rename_expr(expr.left, mapping),
                   _rename_expr(expr.right, mapping),
                   _rename_expr(expr.then, mapping),
                   _rename_expr(expr.other, mapping))
    if isinstance(expr, Table):
        return Table(tuple(mapping[a] for a in expr.args), expr.rows)
    raise TypeError(expr)


def test_dominance_states_one_step_per_mark(monkeypatch):
    # Each mark steps to the next rank of its kind and variable and the
    # closure reaches every worse one, so the stated relation grows with the
    # marks, not with the pairs of ranks (a 2,000-value ranking once took
    # about a minute to order).
    n = 200
    model = CausalModel(
        [Variable("U", "exogenous", (0, 1)), Variable("X", "endogenous", tuple(range(n))),
         Variable("Y", "endogenous", (0, 1, 2))],
        [Equation("X", Ref("U")), Equation("Y", Ref("U"))],
    )
    spec = TypicalitySpec(
        value_rankings=(ValueRanking("X", tuple(range(n))), ValueRanking("Y", (2, 1, 0))),
        severity_chains=((("Y", 1), ("X", 5)),),
        mechanism=True,
        behavior_rankings=(BehaviorRanking(
            "Y", tuple(Behavior(f"b{i}", Const(i % 3)) for i in range(4))),),
    )
    stated = []
    closure = normality._closure

    def counting_closure(nodes, edges):
        stated.append(len(edges))
        return closure(nodes, edges)

    monkeypatch.setattr(normality, "_closure", counting_closure)
    order = derive_from_typicality(model, spec)
    marks = ([("value", "X", rank, rank) for rank in range(1, n)]
             + [("value", "Y", 1, 1), ("value", "Y", 2, 0)]
             + [("behavior", "Y", rank, f"b{rank}") for rank in range(1, 4)])
    # one step per mark but the last of each kind and variable, and the link
    assert stated == [len(marks) - 3 + 1]
    worse = {(a, b) for a in marks for b in marks if a[:2] == b[:2] and a[2] <= b[2]}
    linked = {(("value", "Y", 1, 1), ("value", "X", rank, rank)) for rank in range(5, n)}
    assert order._dominance == worse | linked


# -- explicit orders -----------------------------------------------------------------


def test_explicit_omission_chain_reproduces_verdicts(documents):
    doc = documents["omission_a.scm.txt"]
    model = doc.model
    quiet = {"H": 0, "W": 0, "D": 0}
    actual = {"H": 1, "W": 0, "D": 1}
    watered = {"H": 1, "W": 1, "D": 0}
    order = explicit_order(model, [
        (quiet, ">", actual), (actual, ">", watered),
    ])
    assert compare(order, model.world(quiet), model.world(actual)) \
        is Relation.MORE_NORMAL
    assert compare(order, model.world(actual), model.world(watered)) \
        is Relation.MORE_NORMAL
    assert compare(order, model.world(quiet), model.world(watered)) \
        is Relation.MORE_NORMAL


def test_explicit_transitivity(documents):
    model = documents["omission_a.scm.txt"].model
    a = {"H": 0, "W": 0, "D": 0}
    b = {"H": 0, "W": 1, "D": 0}
    c = {"H": 1, "W": 1, "D": 0}
    order = explicit_order(model, [(a, ">", b), (b, ">", c)])
    assert compare(order, model.world(a), model.world(c)) is Relation.MORE_NORMAL
    # Worlds are taken as they are, and mappings as worlds.
    worlds = explicit_order(model, [(model.world(a), ">", b), (model.world(b), ">", c)])
    assert compare(worlds, model.world(a), model.world(c)) is Relation.MORE_NORMAL


def test_explicit_strictness_violation(documents):
    model = documents["omission_a.scm.txt"].model
    a = {"H": 0, "W": 0, "D": 0}
    b = {"H": 1, "W": 1, "D": 0}
    with pytest.raises(NormalityError):
        explicit_order(model, [(a, ">", b), (b, ">", a)])


def test_explicit_order_rejects_an_unknown_operator(documents):
    model = documents["omission_a.scm.txt"].model
    a = {"H": 0, "W": 0, "D": 0}
    b = {"H": 1, "W": 1, "D": 0}
    with pytest.raises(NormalityError, match="unknown relation operator '>='"):
        explicit_order(model, [(a, ">=", b)])


def test_explicit_equivalence_combines_with_strict(documents):
    model = documents["omission_a.scm.txt"].model
    a = {"H": 0, "W": 0, "D": 0}
    b = {"H": 1, "W": 1, "D": 0}
    c = {"H": 1, "W": 0, "D": 1}
    order = explicit_order(model, [(a, "==", b), (b, ">", c)])
    assert compare(order, model.world(a), model.world(b)) \
        is Relation.EQUALLY_NORMAL
    assert compare(order, model.world(a), model.world(c)) is Relation.MORE_NORMAL


def test_unmentioned_worlds_are_incomparable(documents):
    model = documents["omission_a.scm.txt"].model
    a = {"H": 0, "W": 0, "D": 0}
    b = {"H": 1, "W": 1, "D": 0}
    order = explicit_order(model, [(a, ">", b)])
    stray = model.world({"H": 0, "W": 1, "D": 1})
    assert compare(order, stray, model.world(a)) is Relation.INCOMPARABLE
    assert compare(order, stray, stray) is Relation.EQUALLY_NORMAL


@st.composite
def stated_relations(draw):
    n = draw(st.integers(min_value=1, max_value=4))
    worlds = list(itertools.product((0, 1), repeat=n))
    world = st.integers(min_value=0, max_value=len(worlds) - 1)
    relations = draw(st.lists(st.tuples(world, st.sampled_from((">", "==")), world),
                              max_size=12))
    return n, worlds, relations


@given(stated_relations())
@settings(max_examples=150, deadline=None)
def test_explicit_closure_is_reachability(case):
    n, worlds, relations = case
    names = [f"V{i}" for i in range(n)]
    model = CausalModel(
        [Variable("U", "exogenous", (0, 1))]
        + [Variable(name, "endogenous", (0, 1)) for name in names],
        [Equation(name, Ref("U")) for name in names],
    )
    successors = {i: set() for i in range(len(worlds))}
    for a, op, b in relations:
        successors[a].add(b)
        if op == "==":
            successors[b].add(a)

    def reachable(start):
        seen, stack = {start}, [start]
        while stack:
            for nxt in successors[stack.pop()]:
                if nxt not in seen:
                    seen.add(nxt)
                    stack.append(nxt)
        return seen

    reach = {i: reachable(i) for i in successors}
    stated = [(dict(zip(names, worlds[a])), op, dict(zip(names, worlds[b])))
              for a, op, b in relations]
    if any(op == ">" and a in reach[b] for a, op, b in relations):
        with pytest.raises(NormalityError):
            explicit_order(model, stated)
        return
    order = explicit_order(model, stated)
    for i, j in itertools.product(range(len(worlds)), repeat=2):
        assert order.at_least_as_normal(
            model.world_from_values(worlds[i]), model.world_from_values(worlds[j])
        ) == (j in reach[i])


# -- behavior assignment ----------------------------------------------------------------


def test_assign_behavior_needs_behavior_rankings(documents):
    doc = documents["short_circuit.scm.txt"]
    spec = TypicalitySpec(value_rankings=doc.typicality.value_rankings, mechanism=True)
    with pytest.raises(NormalityError, match="no behavior rankings declared"):
        assign_behavior(doc.model, spec, world_of(doc.model, A=1, P=1, VS=1))


def test_assign_behavior_actual_short_circuit_world(documents):
    doc = documents["short_circuit.scm.txt"]
    labels = assign_behavior(doc.model, doc.typicality,
                             world_of(doc.model, A=1, P=1, VS=1))
    assert labels == {"P": "mirrors antidote"}


def test_assign_behavior_unprompted_poisoning(documents):
    doc = documents["short_circuit.scm.txt"]
    labels = assign_behavior(doc.model, doc.typicality,
                             world_of(doc.model, A=0, P=1, VS=0))
    assert labels == {"P": "poison regardless"}


def test_assign_behavior_prefers_most_typical(documents):
    # Both "no poison" and "mirrors antidote" fit; the more typical one wins.
    doc = documents["short_circuit.scm.txt"]
    labels = assign_behavior(doc.model, doc.typicality,
                             world_of(doc.model, A=0, P=0, VS=1))
    assert labels == {"P": "no poison"}


def test_assign_behavior_requires_mechanism(documents):
    doc = documents["bogus_prevention.scm.txt"]
    with pytest.raises(NormalityError):
        assign_behavior(doc.model, doc.typicality,
                        world_of(doc.model, A=0, B=1, VS=1))


def test_no_consistent_behavior_is_an_error(documents):
    doc = documents["short_circuit.scm.txt"]
    from actualcause import Behavior, BehaviorRanking, Const

    narrow = TypicalitySpec(
        mechanism=True,
        behavior_rankings=(BehaviorRanking("P", (Behavior("zero", Const(0)),)),),
    )
    with pytest.raises(NormalityError):
        assign_behavior(doc.model, narrow, world_of(doc.model, A=0, P=1, VS=0))


# -- preorder axioms ------------------------------------------------------------------


def _fixture_orders(documents):
    for name, doc in documents.items():
        if doc.has_normality():
            yield name, doc


def test_preorder_axioms_on_fixture_orders(documents):
    rng = random.Random(5)
    for name, doc in _fixture_orders(documents):
        model = doc.model
        order = doc.normality_order()
        spaces = [model.range_of(n) for n in model.endogenous]
        worlds = [
            model.world(dict(zip(model.endogenous, values)))
            for values in itertools.product(*spaces)
        ]
        for w in worlds:
            assert order.at_least_as_normal(w, w), name
        if len(worlds) <= 16:
            triples = itertools.product(worlds, repeat=3)
        else:
            triples = (tuple(rng.choice(worlds) for _ in range(3))
                       for _ in range(3000))
        for a, b, c in triples:
            if order.at_least_as_normal(a, b) and order.at_least_as_normal(b, c):
                assert order.at_least_as_normal(a, c), name


def test_trivial_order_equates_everything(documents):
    doc = documents["poisoning.scm.txt"]
    order = TrivialOrder(doc.model)
    w1 = world_of(doc.model, A=1, R=1, B=0, D=1)
    w2 = world_of(doc.model, A=0, R=0, B=0, D=0)
    assert compare(order, w1, w2) is Relation.EQUALLY_NORMAL


# -- the weak relation and table-driven marks ------------------------------------------


def _reference_marks(model, spec, world):
    """Marks found by scanning the declarations by name, one variable at a
    time, as the rankings are written."""
    marks = []
    for name in model.endogenous:
        ranking = spec.ranking_for(name)
        if ranking is not None:
            rank = ranking.ranking.index(world[name])
            if rank > 0:
                marks.append(("value", name, rank, world[name]))
        behaviors = spec.behaviors_for(name) if spec.mechanism else None
        if behaviors is not None:
            env = world.as_dict()
            for rank, behavior in enumerate(behaviors.behaviors):
                if tree_value(behavior.body, env) == world[name]:
                    break
            else:
                raise NormalityError(f"no behavior of {name} fits {world}")
            if rank > 0:
                marks.append(("behavior", name, rank, behavior.label))
    return tuple(marks)


def _check_weak_relation_and_marks(order, worlds, pairs):
    view = _QueryOrder(order)
    for s, s2 in pairs:
        relation = order.compare(s, s2)
        assert order.admits(s, s2) == (
            relation in (Relation.MORE_NORMAL, Relation.EQUALLY_NORMAL))
        assert view.compare(s, s2) is relation
        assert view.admits(s, s2) == order.admits(s, s2)
    if isinstance(order, DerivedOrder):
        for world in worlds:
            try:
                expected = _reference_marks(order.model, order.spec, world)
            except NormalityError:
                with pytest.raises(NormalityError):
                    world_marks(order, world)
                continue
            assert world_marks(order, world) == expected
            assert order.marks(world) == expected


def _all_worlds(model):
    return [model.world_from_values(values) for values in itertools.product(
        *(model.range_of(n) for n in model.endogenous))]


def test_admits_is_the_weak_relation_on_fixture_orders(documents):
    rng = random.Random(17)
    kinds = set()
    for name, doc in _fixture_orders(documents):
        worlds = _all_worlds(doc.model)
        if len(worlds) <= 32:
            pairs = list(itertools.product(worlds, repeat=2))
        else:
            pairs = [(rng.choice(worlds), rng.choice(worlds)) for _ in range(1500)]
        for order in (doc.normality_order(), TrivialOrder(doc.model)):
            kinds.add(order.provenance)
            if isinstance(order, DerivedOrder) and order.spec.mechanism:
                kinds.add("mechanism")
            _check_weak_relation_and_marks(order, worlds, pairs)
    assert kinds == {"derived", "explicit", "trivial", "mechanism"}


@given(st.integers(min_value=0, max_value=2**32 - 1))
@settings(max_examples=120, deadline=None)
def test_admits_is_the_weak_relation_on_random_orders(seed):
    rng = random.Random(seed)
    model = random_model(rng, max_endo=5)
    order = derive_from_typicality(model, random_typicality(rng, model))
    worlds = _all_worlds(model)
    _check_weak_relation_and_marks(order, worlds, itertools.product(worlds, repeat=2))


def _matches(marks, into, dominance) -> bool:
    """Whether each mark maps to a distinct mark of ``into`` equal to or
    dominating it, by backtracking over the first mark's choices."""
    if not marks:
        return True
    first, rest = marks[0], marks[1:]
    return any((first == g or (first, g) in dominance)
               and _matches(rest, into[:j] + into[j + 1:], dominance)
               for j, g in enumerate(into))


@given(st.integers(min_value=0, max_value=2**32 - 1))
@settings(max_examples=150, deadline=None)
def test_marks_found_in_the_other_world_embed_as_the_full_matching_says(seed):
    # _embeds answers True at once when every mark of the first world is
    # one of the second's; a world's marks are distinct, at most one value
    # and one behavior mark per variable, so the identity is a matching.
    # Over every pair of worlds of random derived orders, half of them in
    # mechanism mode with a behavior ranking on some variables (its own
    # equation among them where that reads no driver), it agrees
    # with a matching that tries every assignment.
    rng = random.Random(seed)
    model = random_model(rng, max_endo=4)
    spec = random_typicality(rng, model)
    if rng.random() < 0.5:
        rankings = []
        for name in model.endogenous:
            if rng.random() < 0.6:
                behaviors = [Behavior("off", Const(0)), Behavior("on", Const(1))]
                body = model.equations[name].body
                if body.referenced() <= set(model.endogenous):
                    behaviors.append(Behavior("planned", body))
                rng.shuffle(behaviors)
                rankings.append(BehaviorRanking(name, tuple(behaviors)))
        spec = TypicalitySpec(spec.value_rankings, spec.severity_chains, True, tuple(rankings))
    order = derive_from_typicality(model, spec)
    keys = [order.marks(world) for world in _all_worlds(model)]
    for marks, into in itertools.product(keys, repeat=2):
        assert len(set(marks)) == len(marks)
        assert _embeds(marks, into, order._dominance) \
            == _matches(marks, into, order._dominance)


def test_a_long_severity_chain_compares_without_recursion():
    # Each of 1,100 binary variables is typical at 0, and one severity chain
    # A0=1 < A1=1 < ... links their deviations.  Matching the marks of "all
    # but the last at 1" into "all but the first at 1" takes augmenting paths
    # that each run one step further along the chain, past the interpreter's
    # recursion limit when each step is a call.
    names = [f"A{i}" for i in range(1100)]
    model = CausalModel(
        [Variable("U", "exogenous", (0, 1)), *(Variable(x, "endogenous", (0, 1)) for x in names)],
        [Equation(x, Ref("U")) for x in names],
    )
    spec = TypicalitySpec(value_rankings=tuple(ValueRanking(x, (0, 1)) for x in names),
                          severity_chains=(tuple((x, 1) for x in names),))
    order = derive_from_typicality(model, spec)
    late = model.world_from_values((1,) * (len(names) - 1) + (0,))
    early = model.world_from_values((0,) + (1,) * (len(names) - 1))
    assert compare(order, late, early) is Relation.MORE_NORMAL
    assert compare(order, early, late) is Relation.LESS_NORMAL
