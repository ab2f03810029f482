"""Model construction, validation, solving, intervention, and graphs."""

import pytest

from actualcause import (
    BinOp,
    CausalModel,
    Const,
    Equation,
    Ite,
    ModelError,
    Ref,
    Variable,
    dependence_graph,
    intervene,
    semantic_parents,
    solve,
    validate_model,
)
from actualcause import model as model_module
from actualcause.model import ValidationProblem


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


@pytest.mark.parametrize("equations, path", [
    ([Equation("A", Ref("B")), Equation("B", Ref("C")), Equation("C", Ref("A"))],
     "A -> B -> C -> A"),
    ([Equation("A", Const(0)), Equation("B", Const(0)), Equation("C", Ref("C"))],
     "C -> C"),
], ids=["three-nodes", "self-reference"])
def test_a_cycle_is_reported_along_references(equations, path):
    model = CausalModel([binary("A"), binary("B"), binary("C")], equations)
    assert validate_model(model).problems == (
        ValidationProblem("cycle", f"equations form a cycle: {path}"),)


def test_validating_then_solving_walks_the_references_once():
    from unittest import mock

    model = CausalModel(
        [binary("U", "exogenous"), binary("X"), binary("Y")],
        [Equation("X", Ref("U")), Equation("Y", Ref("X"))],
    )
    with mock.patch.object(model_module, "_reference_walk",
                           wraps=model_module._reference_walk) as walk:
        assert validate_model(model).ok
        assert solve(model, {"U": 1}).values == (1, 1)
    assert walk.call_count == 1


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
    [problem] = validate_model(model).problems
    assert problem == ValidationProblem(
        "totality", "equation for Y has no value at {'X': 1}: table(X) has no row for (1,)")


def test_nested_table_without_a_reached_row_is_one_totality_problem():
    from actualcause.dsl import parse_document

    model = parse_document("exo A : {0,1}\n"
                           "var X : {0,1} = min(1, table(A){(0) -> 1})\n").model
    [problem] = validate_model(model).problems
    assert problem == ValidationProblem(
        "totality", "equation for X has no value at {'A': 1}: table(A) has no row for (1,)")
    # A row the equation never reaches may be missing.
    unreached = parse_document(
        "exo A : {0,1}\nvar X : {0,1} = ite(A == 0, table(A){(0) -> 1}, 0)\n").model
    assert validate_model(unreached).ok


def test_a_library_operator_fault_still_raises_from_validate():
    model = CausalModel([binary("A", "exogenous"), binary("X")],
                        [Equation("X", BinOp("/", Ref("A"), Const(1)))])
    with pytest.raises(ModelError, match="unknown operator"):
        validate_model(model)


def test_an_operator_fault_on_a_branch_no_value_takes_raises_from_validate():
    # ite(A == A, ...) never takes its other branch, yet the equation as a
    # whole has no meaning: validation, not the first solve, says so.
    body = Ite(Ref("A"), Ref("A"), Ref("A"), BinOp("/", Ref("A"), Const(1)))
    model = CausalModel([binary("A", "exogenous"), binary("X")], [Equation("X", body)])
    with pytest.raises(ModelError, match="unknown operator '/'"):
        validate_model(model)


def test_the_first_of_repeated_table_rows_counts():
    from actualcause import Table
    from actualcause.dsl import parse_document

    # Were the last row kept, Y would be 3 at X=0: outside its range.
    doc = parse_document("exo U : {0,1}\nvar X : {0,1} = U\n"
                         "var Y : {0,1} = table(X){(0) -> 1, (1) -> 0, (0) -> 3}\n"
                         "context c : U=0\n")
    table = doc.model.equations["Y"].body
    assert model_module._compile(table, {"X": 0})([0]) == 1
    assert validate_model(doc.model).ok
    assert solve(doc.model, doc.contexts["c"]).as_dict() == {"X": 0, "Y": 1}
    assert semantic_parents(doc.model, "Y") == ("X",)
    nested = Table(("X",), (((0,), 0), ((1,), 1), ((1,), 0)))
    assert model_module._compile(BinOp("+", nested, Const(0)), {"X": 0})([1]) == 1


def test_wide_sum_is_proved_total_by_its_interval():
    import time

    from actualcause.dsl import parse_document

    names = [f"A{i}" for i in range(30)]
    text = "".join(f"exo {name} : {{0,1}}\n" for name in names)
    start = time.perf_counter()
    model = parse_document(text + f"var S : {{0,1}} = min(1, {' + '.join(names)})\n").model
    assert validate_model(model).ok
    assert time.perf_counter() - start < 0.1
    # Past the range, the message is the enumeration's.
    spill = CausalModel([binary("A", "exogenous"), binary("B", "exogenous"), binary("S")],
                        [Equation("S", BinOp("+", Ref("A"), Ref("B")))])
    [problem] = validate_model(spill).problems
    assert problem.message == "equation for S yields 2 (outside range) at {'A': 1, 'B': 1}"


def test_wide_sum_parents_are_every_input_without_a_walk(monkeypatch):
    # 2^30 combinations lie past DIRECTION_CAP: every reference counts as a
    # parent, and no combination is enumerated.
    from actualcause.dsl import parse_document

    names = [f"A{i}" for i in range(30)]
    text = "exo U : {0,1}\n" + "".join(f"var {name} : {{0,1}} = U\n" for name in names)
    model = parse_document(text + f"var S : {{0,1}} = min(1, {' + '.join(names)})\n").model

    walk, wide_sum = model_module._walk, model.equations["S"].body

    def walk_all_but_the_sum(model, body):
        assert body is not wide_sum, "the sum was enumerated"
        return walk(model, body)

    monkeypatch.setattr(model_module, "_walk", walk_all_but_the_sum)
    assert set(semantic_parents(model, "S")) == set(names)
    assert set(dependence_graph(model).parents("S")) == set(names)


def test_missing_equation_reported():
    model = CausalModel([binary("X"), binary("Y")], [Equation("X", Const(0))])
    report = validate_model(model)
    assert any(p.kind == "equation" for p in report.problems)


def test_duplicate_names_reported():
    model = CausalModel([binary("X"), binary("X")], [Equation("X", Const(0))])
    assert any(p.kind == "name" for p in validate_model(model).problems)


@pytest.mark.parametrize("variables, equations, problem", [
    ([binary("A")], [Equation("A", Const(0)), Equation("A", Const(1))],
     ValidationProblem("equation", "variable A has more than one equation")),
    ([binary("A")], [Equation("A", Const(0)), Equation("Q", Const(0))],
     ValidationProblem("name", "equation targets unknown variable Q")),
    ([binary("U", "exogenous"), binary("A")],
     [Equation("A", Ref("U")), Equation("U", Const(0))],
     ValidationProblem("equation", "equation targets exogenous variable U")),
    ([binary("A")], [Equation("A", Ref("Z"))],
     ValidationProblem("name", "equation for A references unknown variable Z")),
], ids=["duplicate-equation", "unknown-target", "exogenous-target", "unknown-reference"])
def test_hand_built_equation_faults_are_validation_problems(variables, equations, problem):
    model = CausalModel(variables, equations)
    assert validate_model(model).problems == (problem,)
    with pytest.raises(ModelError, match=problem.message):
        solve(model, {})


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


def test_intervene_reuses_the_compiled_equations_it_keeps(monkeypatch):
    compiled = []
    compile_expr = model_module._compile

    def counting_compile(expr, positions):
        compiled.append(expr)
        return compile_expr(expr, positions)

    monkeypatch.setattr(model_module, "_compile", counting_compile)
    model = CausalModel(
        [binary("UL", "exogenous"), binary("UM", "exogenous"),
         binary("L"), binary("M"), binary("F")],
        [Equation("L", Ref("UL")), Equation("M", Ref("UM")),
         Equation("F", BinOp("max", Ref("L"), Ref("M")))],
    )
    assert solve(model, {"UL": 1, "UM": 1})["F"] == 1
    compiled.clear()
    child = intervene(model, {"L": 0})
    assert solve(child, {"UL": 1, "UM": 0}).as_dict() == {"L": 0, "M": 0, "F": 0}
    grandchild = intervene(child, {"M": 1})
    assert solve(grandchild, {"UL": 1, "UM": 0}).as_dict() == {"L": 0, "M": 1, "F": 1}
    assert compiled == [Const(0), Const(1)]


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

    from random_models import random_model, tree_value

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
                        outputs.add(tree_value(eq, env))
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
