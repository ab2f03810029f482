"""Model construction, validation, solving, intervention, and graphs."""

import os

import pytest

from actualcause import (
    BinOp,
    CausalModel,
    Const,
    Equation,
    Ite,
    ModelError,
    Ref,
    Table,
    Variable,
    World,
    dependence_graph,
    equation_isomorphism,
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
    assert model_module._compile((table,), {"X": 0})[0]([0]) == 1
    assert validate_model(doc.model).ok
    assert solve(doc.model, doc.contexts["c"]).as_dict() == {"X": 0, "Y": 1}
    assert semantic_parents(doc.model, "Y") == ("X",)
    nested = Table(("X",), (((0,), 0), ((1,), 1), ((1,), 0)))
    assert model_module._compile((BinOp("+", nested, Const(0)),), {"X": 0})[0]([1]) == 1


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
    # A child runs its origin's kernel with its pins held, so neither it nor
    # a grandchild generates code of its own.
    generated = []

    def counting_exec(code, names):
        generated.append(code)
        return exec(code, names)

    monkeypatch.setattr(model_module, "exec", counting_exec, raising=False)
    model = CausalModel(
        [binary("UL", "exogenous"), binary("UM", "exogenous"),
         binary("L"), binary("M"), binary("F")],
        [Equation("L", Ref("UL")), Equation("M", Ref("UM")),
         Equation("F", BinOp("max", Ref("L"), Ref("M")))],
    )
    assert solve(model, {"UL": 1, "UM": 1})["F"] == 1
    assert len(generated) == 1
    child = intervene(model, {"L": 0})
    assert solve(child, {"UL": 1, "UM": 0}).as_dict() == {"L": 0, "M": 0, "F": 0}
    grandchild = intervene(child, {"M": 1})
    assert solve(grandchild, {"UL": 1, "UM": 0}).as_dict() == {"L": 0, "M": 1, "F": 1}
    assert intervene(grandchild, {"L": 1, "F": 0})._pins == (1, 1, 0)
    assert len(generated) == 1


def test_generated_code_is_filed_under_the_package(disjunctive):
    # What tells the package's frames by their file name, such as the
    # checker's bytecode bound, sees the kernel's and a compiled body's.
    package = os.path.dirname(model_module.__file__) + os.sep
    settle = model_module._kernel(disjunctive.model)
    [body] = model_module._compile((BinOp("max", Ref("X"), Const(1)),), {"X": 0})
    assert settle.__code__.co_filename.startswith(package)
    assert body.__code__.co_filename.startswith(package)
    assert body([0]) == 1


def test_a_wide_model_solves_through_one_function_per_chunk():
    # 600 links make three chunks of the order; each reads the values of the
    # chunks before it from the list they pass on.
    from actualcause import CausalFormula, PrimitiveEvent, satisfies
    from actualcause.checker import Engine

    n = 600
    model = CausalModel(
        [binary("U", "exogenous")] + [binary(f"X{i}") for i in range(n)],
        [Equation("X0", Ref("U"))]
        + [Equation(f"X{i}", Ref(f"X{i - 1}")) for i in range(1, n)],
    )
    assert solve(model, {"U": 1}).values == (1,) * n
    assert model_module._kernel(model).__code__.co_name == "settle"
    prefix = (("X300", 0),)
    assert satisfies(model, {"U": 1}, CausalFormula(prefix, PrimitiveEvent(f"X{n - 1}", 0)))
    assert solve(intervene(model, dict(prefix)), {"U": 1}).values == (1,) * 300 + (0,) * 300
    engine = Engine(model, {"U": 1})
    key = [None] * n
    key[520] = 0
    assert engine.solve_tuple(tuple(key)) == (1,) * 520 + (0,) * 80


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
    assert graph.children("AS") == ("BT", "F")
    assert graph.children("F") == ()
    assert graph.parents("BT") == ("AS", "BC", "BM")


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
    with pytest.raises(ModelError, match=r"missing endogenous variables: \['F'\]"):
        disjunctive.model.world({"L": 1, "M": 0})
    with pytest.raises(ModelError, match="mismatched variable/value counts"):
        World(("L", "M"), (1,))
    assert disjunctive.model.variable("L").range == (0, 1)
    with pytest.raises(ModelError, match="unknown variable 'Q'"):
        disjunctive.model.variable("Q")


def test_an_isomorphism_map_must_cover_both_models(disjunctive, documents):
    # The identity is an isomorphism; a map that misses a variable of the
    # first model, or whose image misses one of the second, is none.
    model, other = disjunctive.model, documents["bogus_prevention.scm.txt"].model
    names = [v.name for v in model.variables]
    same = {name: {0: 0, 1: 1} for name in names}
    assert equation_isomorphism(model, model, dict(zip(names, names)), same)
    partial = dict(zip(names[1:], names[1:]))
    assert not equation_isomorphism(model, model, partial, same)
    assert not equation_isomorphism(model, other, dict(zip(names, names)), same)


@pytest.mark.parametrize("kind, values, message", [
    ("latent", (0, 1), "variable X: unknown kind 'latent'"),
    ("endogenous", (), "variable X: range is empty"),
    ("endogenous", (0, 1, 0), "variable X: duplicate values in range"),
], ids=["unknown-kind", "empty-range", "repeated-value"])
def test_a_variable_rejects_an_unknown_kind_or_a_bad_range(kind, values, message):
    with pytest.raises(ModelError, match=message):
        Variable("X", kind, values)


def _three_sources(reader):
    """Sources A, B and C copying their own drivers, and R reading them."""
    names = ("A", "B", "C")
    return CausalModel(
        [Variable(f"U{n}", "exogenous", (0, 1)) for n in names]
        + [Variable(n, "endogenous", (0, 1)) for n in names]
        + [Variable("R", "endogenous", (-1, 0, 1, 2))],
        [Equation(n, Ref(f"U{n}")) for n in names] + [Equation("R", reader)],
    )


def _sum(*names):
    return BinOp("+", Ref(names[0]), _sum(*names[1:])) if len(names) > 1 else Ref(names[0])


@pytest.mark.parametrize("reader, heads", [
    # A chain of max, nested either way round, and an ite's compared sides
    # in either order, read the three alike.
    (BinOp("max", BinOp("max", Ref("A"), Const(0)), BinOp("max", Ref("C"), Ref("B"))), "AAA"),
    (Ite(Const(2), _sum("C", "A", "B"), Const(1), Const(0)), "AAA"),
    # - and tables keep their operands' order, so A and B are apart.
    (BinOp("-", Ref("A"), Ref("B")), "ABC"),
    (Table(("A", "B"), (((0, 0), 0), ((0, 1), 1), ((1, 0), 1), ((1, 1), 0))), "ABC"),
    (BinOp("max", BinOp("-", Ref("A"), Ref("B")), Ref("C")), "ABC"),
])
def test_variables_a_swap_maps_onto_themselves_share_a_class(reader, heads):
    model = _three_sources(reader)
    classes = model_module._classes(model, {"UA": 1, "UB": 1, "UC": 1})
    assert classes == {**dict(zip("ABC", heads)), "R": "R"}
    assert model_module._classes(model, {"UA": 1, "UB": 1, "UC": 1}) is classes
    # A source whose driver reads another value is no longer like the others.
    apart = model_module._classes(model, {"UA": 1, "UB": 0, "UC": 1})
    assert apart == {**dict(zip("ABC", heads.replace("AAA", "ABA"))), "R": "R"}
