"""Model construction, validation, solving, intervention, and graphs."""

import pytest

from actualcause import (
    BinOp,
    CausalModel,
    Const,
    Equation,
    ModelError,
    Ref,
    Variable,
    dependence_graph,
    intervene,
    semantic_parents,
    solve,
    validate_model,
)


def binary(name, kind="endogenous"):
    return Variable(name, kind, (0, 1))


@pytest.fixture
def disjunctive(documents):
    return documents["forest_fire_disjunctive.scm.txt"]


def test_validate_ok_on_disjunctive_fire(disjunctive):
    assert validate_model(disjunctive.model).ok


def test_two_node_cycle_reported():
    model = CausalModel(
        [binary("X"), binary("Y")],
        [Equation("X", Ref("Y")), Equation("Y", Ref("X"))],
    )
    report = validate_model(model)
    assert not report.ok
    cycle = [p for p in report.problems if p.kind == "cycle"]
    assert cycle
    assert "X" in cycle[0].message and "Y" in cycle[0].message


def test_long_chain_declared_effect_first_validates_and_solves():
    # Declaring the end of the chain first makes every graph walk descend
    # the whole chain from the first root.
    n = 1500
    links = [Equation("X0", Ref("U"))] + [
        Equation(f"X{i}", Ref(f"X{i - 1}")) for i in range(1, n)
    ]
    model = CausalModel(
        [binary("U", "exogenous")] + [binary(f"X{i}") for i in reversed(range(n))],
        reversed(links),
    )
    assert validate_model(model).ok
    world = solve(model, {"U": 1})
    assert world.values == (1,) * n


def test_out_of_range_constant_is_totality_violation():
    model = CausalModel([binary("X")], [Equation("X", Const(2))])
    report = validate_model(model)
    assert [p.kind for p in report.problems] == ["totality"]


def test_partial_table_is_totality_violation():
    from actualcause import Table

    model = CausalModel(
        [binary("X"), binary("Y")],
        [Equation("X", Const(0)),
         Equation("Y", Table(("X",), (((0,), 1),)))],
    )
    report = validate_model(model)
    assert any(p.kind == "totality" for p in report.problems)


def test_missing_equation_reported():
    model = CausalModel([binary("X"), binary("Y")], [Equation("X", Const(0))])
    report = validate_model(model)
    assert any(p.kind == "equation" for p in report.problems)


def test_duplicate_names_reported():
    model = CausalModel([binary("X"), binary("X")], [Equation("X", Const(0))])
    assert any(p.kind == "name" for p in validate_model(model).problems)


def test_solve_rejects_invalid_model():
    model = CausalModel(
        [binary("X"), binary("Y")],
        [Equation("X", Ref("Y")), Equation("Y", Ref("X"))],
    )
    with pytest.raises(ModelError):
        solve(model, {})


def test_solve_disjunctive_fire(disjunctive):
    world = solve(disjunctive.model, disjunctive.contexts["u11"])
    assert world.as_dict() == {"L": 1, "M": 1, "F": 1}


def test_solve_conjunctive_fire(documents):
    doc = documents["forest_fire_conjunctive.scm.txt"]
    world = solve(doc.model, doc.contexts["u10"])
    assert world.as_dict() == {"L": 1, "M": 0, "F": 0}


def test_solve_poisoning(documents):
    doc = documents["poisoning.scm.txt"]
    world = solve(doc.model, doc.contexts["u11"])
    assert world.as_dict() == {"A": 1, "R": 1, "B": 0, "D": 1}


def test_solve_requires_total_context(disjunctive):
    with pytest.raises(ModelError):
        solve(disjunctive.model, {"UL": 1})


def test_intervene_overrides_context(disjunctive):
    model = disjunctive.model
    u11 = disjunctive.contexts["u11"]
    assert solve(intervene(model, {"M": 0}), u11)["F"] == 1
    assert solve(intervene(model, {"L": 0, "M": 0}), u11)["F"] == 0


def test_intervene_leaves_original_untouched(disjunctive):
    model = disjunctive.model
    before = dict(model.equations)
    intervene(model, {"M": 0})
    assert model.equations == before


def test_intervene_is_idempotent(disjunctive):
    model = disjunctive.model
    once = intervene(model, {"M": 0})
    twice = intervene(once, {"M": 0})
    assert once == twice


def test_intervene_rejects_exogenous(disjunctive):
    with pytest.raises(ModelError):
        intervene(disjunctive.model, {"UL": 0})


def test_intervene_rejects_out_of_range(disjunctive):
    with pytest.raises(ModelError):
        intervene(disjunctive.model, {"M": 7})


def test_intervening_on_effect_does_not_backtrack(disjunctive):
    # Forcing the fire does not force its sources.
    model = disjunctive.model
    world = solve(intervene(model, {"F": 1}), {"UL": 0, "UM": 0})
    assert world.as_dict() == {"L": 0, "M": 0, "F": 1}


def test_dependence_graph_disjunctive(disjunctive):
    graph = dependence_graph(disjunctive.model)
    assert graph.sorted_edges() == (("L", "F"), ("M", "F"))


def test_constant_difference_is_not_a_parent():
    model = CausalModel(
        [binary("Y", "exogenous"), binary("X")],
        [Equation("X", BinOp("-", Ref("Y"), Ref("Y")))],
    )
    # Y - Y is constantly zero, so Y is not a semantic parent.
    assert semantic_parents(model, "X") == ()


def test_dependence_graph_legal_model(documents):
    graph = dependence_graph(documents["legal_fire.scm.txt"].model)
    assert graph.sorted_edges() == (
        ("AN", "AS"),
        ("AS", "BT"),
        ("AS", "F"),
        ("BC", "BT"),
        ("BM", "BT"),
        ("BT", "F"),
    )


def test_dependence_graph_acyclic_on_fixtures(documents):
    for doc in documents.values():
        graph = dependence_graph(doc.model)
        order = {n: i for i, n in enumerate(doc.model.topological_order())}
        for parent, child in graph.edges:
            assert order[parent] < order[child]


def test_semantic_parents_match_brute_force_on_random_models():
    import itertools
    import random

    from random_models import random_model

    rng = random.Random(31337)
    for _ in range(20):
        model = random_model(rng)
        graph = dependence_graph(model)
        for target in model.endogenous:
            eq = model.equations[target].body
            expected = set()
            others = [n for n in model.endogenous if n != target]
            for parent in model.endogenous:
                if parent == target:
                    continue
                names = sorted(set([parent]) | eq.referenced())
                rest = [n for n in names if n != parent]
                for combo in itertools.product(
                        *(model.range_of(n) for n in rest)):
                    env = dict(zip(rest, combo))
                    outputs = set()
                    for value in model.range_of(parent):
                        env[parent] = value
                        outputs.add(eq.evaluate(env))
                    if len(outputs) > 1:
                        expected.add(parent)
                        break
            assert set(graph.parents(target)) == expected, target


def test_world_accessors(disjunctive):
    world = solve(disjunctive.model, disjunctive.contexts["u10"])
    assert world["L"] == 1 and world["M"] == 0
    assert str(world) == "(L=1, M=0, F=1)"
    with pytest.raises(KeyError):
        world["UL"]
