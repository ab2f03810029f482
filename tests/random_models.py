"""Random models, contexts and typicality declarations for the tests, and
the reference walkers of equation bodies and of witness records they are
checked against.

A plain module rather than ``conftest``: the benchmark's tests have a
``conftest`` of their own, and both suites run in one session.
"""

from __future__ import annotations

import itertools
import operator
import random

from actualcause import (
    BinOp,
    CausalModel,
    Conjunction,
    Const,
    Disjunction,
    Equation,
    Ite,
    ModelError,
    Negation,
    PrimitiveEvent,
    Ref,
    Table,
    TypicalitySpec,
    ValueRanking,
    Variable,
    WitnessRecord,
    evaluate,
)
from actualcause.checker import Engine


def tree_value(expr, env) -> int:
    """Reference value of an equation body over a dict env: a recursive walk
    of its tree, kept apart from the generated code the package runs so
    that tests pit the two against each other.  A table reads the first of
    its rows for the argument tuple; a tuple with no row raises ModelError
    with the package's message."""
    if isinstance(expr, Const):
        return expr.value
    if isinstance(expr, Ref):
        return env[expr.name]
    if isinstance(expr, Table):
        key = tuple(env[a] for a in expr.args)
        for args, value in expr.rows:
            if args == key:
                return value
        raise ModelError(f"table({', '.join(expr.args)}) has no row for {key}")
    if isinstance(expr, Ite):
        if tree_value(expr.left, env) == tree_value(expr.right, env):
            return tree_value(expr.then, env)
        return tree_value(expr.other, env)
    apply = {"min": min, "max": max, "+": operator.add, "-": operator.sub,
             "*": operator.mul}[expr.op]
    return apply(tree_value(expr.left, env), tree_value(expr.right, env))


def random_model(rng: random.Random, max_endo: int = 4, min_endo: int = 2) -> CausalModel:
    """Random acyclic binary model.

    Node 0 (and node 1 when parentless) is driven by its own exogenous
    variable; later nodes always have at least one endogenous parent, keeping
    the context space small while exercising arbitrary table shapes.
    """
    n = rng.randint(min_endo, max_endo)
    endo = [f"V{i}" for i in range(n)]
    variables = []
    equations = []
    for i, name in enumerate(endo):
        if i == 0:
            parents: list[str] = []
        elif i == 1:
            parents = ["V0"] if rng.random() < 0.5 else []
        else:
            k = rng.randint(1, i)
            parents = sorted(rng.sample(endo[:i], k))
        if not parents:
            driver = f"U{i}"
            variables.append(Variable(driver, "exogenous", (0, 1)))
            equations.append(Equation(name, Ref(driver)))
        else:
            rows = tuple(
                (combo, rng.randint(0, 1))
                for combo in itertools.product((0, 1), repeat=len(parents))
            )
            equations.append(Equation(name, Table(tuple(parents), rows)))
    variables.extend(Variable(name, "endogenous", (0, 1)) for name in endo)
    # Declaration order: exogenous drivers first, then endogenous nodes.
    variables.sort(key=lambda v: (v.kind != "exogenous", v.name))
    return CausalModel(variables, equations)


def random_monotone_model(rng: random.Random, max_endo: int = 4,
                          min_endo: int = 2) -> CausalModel:
    """Random acyclic model over binary and ternary ranges, some declared
    out of numeric order.

    Most tables step a score through sorted cut points, where the score adds
    some parents' values and the others' distances from their tops, so the
    table is non-decreasing ("up") in the former and non-increasing ("down")
    in the latter; the rest are arbitrary, which makes mixed edges.  Parentless
    nodes copy their own exogenous driver.
    """
    n = rng.randint(min_endo, max_endo)
    endo = [f"V{i}" for i in range(n)]
    ranges = []
    for _ in endo:
        values = list(range(rng.choice((2, 3))))
        if rng.random() < 0.3:
            rng.shuffle(values)
        ranges.append(tuple(values))
    variables = [Variable(name, "endogenous", values) for name, values in zip(endo, ranges)]
    equations = []
    for i, name in enumerate(endo):
        parents = sorted(rng.sample(range(i), rng.randint(min(i, 1), min(i, 2))))
        if not parents:
            variables.append(Variable(f"U{i}", "exogenous", ranges[i]))
            equations.append(Equation(name, Ref(f"U{i}")))
            continue
        ways = [rng.choice((1, -1)) for _ in parents]
        tops = [len(ranges[p]) - 1 for p in parents]
        cuts = sorted(rng.randint(0, sum(tops) + 1) for _ in range(len(ranges[i]) - 1))
        mixed = rng.random() < 0.25
        rows = []
        for combo in itertools.product(*(sorted(ranges[p]) for p in parents)):
            if mixed:
                out = rng.randrange(len(ranges[i]))
            else:
                score = sum(v if way > 0 else top - v
                            for v, way, top in zip(combo, ways, tops))
                out = sum(cut <= score for cut in cuts)
            rows.append((combo, out))
        equations.append(
            Equation(name, Table(tuple(endo[p] for p in parents), tuple(rows)))
        )
    variables.sort(key=lambda v: (v.kind != "exogenous", v.name))
    return CausalModel(variables, equations)


def random_effect(rng: random.Random, model: CausalModel, world, depth: int = 2):
    """Random effect over the model's endogenous variables: events joined
    by & and |, now and then negated.  Most events hold in ``world``; the
    rest name the top or the bottom of their variable's range."""
    if depth == 0 or rng.random() < 0.4:
        name = rng.choice(model.endogenous)
        if rng.random() < 0.7:
            event = PrimitiveEvent(name, world[name])
        else:
            event = PrimitiveEvent(name, rng.choice((min, max))(model.range_of(name)))
        return Negation(event) if rng.random() < 0.15 else event
    operands = tuple(random_effect(rng, model, world, depth - 1)
                     for _ in range(rng.randint(2, 3)))
    node = (Conjunction if rng.random() < 0.5 else Disjunction)(operands)
    return Negation(node) if rng.random() < 0.1 else node


def random_expression(rng: random.Random, depth: int = 3, ragged: bool = False,
                      ranges=None):
    """Random equation body over the variables of ``ranges`` (by default
    ``EXPRESSION_RANGES``): every operator, ite and nested tables.  With
    ``ragged``, a table may drop rows and repeat argument tuples with other
    values, in any order."""
    ranges = EXPRESSION_RANGES if ranges is None else ranges
    if depth == 0 or rng.random() < 0.25:
        if rng.random() < 0.3:
            return Const(rng.randint(-2, 2))
        return Ref(rng.choice(sorted(ranges)))
    kind = rng.choice(("min", "max", "+", "-", "*", "ite", "table"))
    if kind == "ite":
        return Ite(*(random_expression(rng, depth - 1, ragged, ranges) for _ in range(4)))
    if kind == "table":
        args = tuple(sorted(rng.sample(sorted(ranges), rng.randint(1, 2))))
        rows = [
            (combo, rng.randint(-2, 2))
            for combo in itertools.product(*(ranges[a] for a in args))
        ]
        if ragged:
            rows = [row for row in rows if rng.random() < 0.85]
            repeats = rng.sample(rows, min(len(rows), rng.randint(0, 2)))
            rows += [(combo, rng.randint(-2, 2)) for combo, _ in repeats]
            rng.shuffle(rows)
        return Table(args, tuple(rows))
    return BinOp(kind, random_expression(rng, depth - 1, ragged, ranges),
                 random_expression(rng, depth - 1, ragged, ranges))


# Ranges of the variables random_expression draws on: unsorted, negative
# and wider-than-binary values on purpose.
EXPRESSION_RANGES = {"A": (0, 1), "B": (2, -1, 0), "C": (1, 3, 2)}


def expression_model(body, target_range: tuple[int, ...] = (0,)) -> CausalModel:
    """Model whose one endogenous variable T, over ``target_range``, computes
    ``body`` from exogenous variables ranging over ``EXPRESSION_RANGES``."""
    variables = [Variable(name, "exogenous", values)
                 for name, values in EXPRESSION_RANGES.items()]
    variables.append(Variable("T", "endogenous", target_range))
    return CausalModel(variables, [Equation("T", body)])


def all_contexts(model: CausalModel):
    names = model.exogenous
    for combo in itertools.product(*(model.range_of(n) for n in names)):
        yield dict(zip(names, combo))


def random_typicality(rng: random.Random, model: CausalModel) -> TypicalitySpec:
    rankings = []
    for name in model.endogenous:
        if rng.random() < 0.7:
            order = [0, 1] if rng.random() < 0.5 else [1, 0]
            rankings.append(ValueRanking(name, tuple(order)))
    chains = []
    if len(rankings) >= 2 and rng.random() < 0.4:
        a, b = rng.sample(rankings, 2)
        chains.append(((a.variable, a.ranking[1]), (b.variable, b.ranking[1])))
    return TypicalitySpec(
        value_rankings=tuple(rankings), severity_chains=tuple(chains)
    )


def random_symmetric_model(rng: random.Random, max_endo: int = 5) -> CausalModel:
    """Random model with a planted class of 2 or 3 variables ``V0``.. over
    one range, often declared out of order, which feed a commutative chain.

    The members copy their own exogenous drivers, so a context that gives
    the drivers different values makes a member a decoy, or all run one table
    of a shared endogenous parent ``P``.  The chain, a random tree of one of
    ``+``, ``*``, ``min`` and ``max`` over the members and maybe a constant,
    is ``W``'s value or is tested in ``W``'s ite against a value it takes.
    With room left, a decoy ``X`` reads two members through ``-`` or a
    table."""
    size = rng.choice((2, 3))
    values = tuple(rng.sample(range(3), rng.choice((2, 3))))
    members = [f"V{i}" for i in range(size)]
    variables = [Variable(name, "endogenous", values) for name in members]
    if rng.random() < 0.7:
        variables += [Variable(f"U{i}", "exogenous", values) for i in range(size)]
        equations = [Equation(name, Ref(f"U{i}")) for i, name in enumerate(members)]
    else:
        parent = tuple(rng.sample(range(2), 2))
        rows = tuple(((v,), rng.choice(values)) for v in parent)
        variables += [Variable("U", "exogenous", parent), Variable("P", "endogenous", parent)]
        equations = [Equation("P", Ref("U"))]
        equations += [Equation(name, Table(("P",), rows)) for name in members]
    op = rng.choice(("+", "*", "min", "max"))
    nodes = [Ref(name) for name in members] + [Const(rng.choice(values))] * (rng.random() < 0.4)
    rng.shuffle(nodes)
    while len(nodes) > 1:
        i = rng.randrange(len(nodes) - 1)
        nodes[i:i + 2] = [BinOp(op, nodes[i], nodes[i + 1])]
    chain = nodes[0]
    if op in ("min", "max") and rng.random() < 0.3:
        variables.append(Variable("W", "endogenous", values))
        equations.append(Equation("W", chain))
    else:
        taken = sorted({tree_value(chain, dict(zip(members, combo)))
                        for combo in itertools.product(values, repeat=size)})
        sides = [chain, Const(rng.choice(taken))]
        rng.shuffle(sides)
        variables.append(Variable("W", "endogenous", tuple(rng.sample((0, 1), 2))))
        equations.append(Equation("W", Ite(*sides, Const(1), Const(0))))
    if len(equations) < max_endo and rng.random() < 0.5:
        a, b = rng.sample(members, 2)
        if rng.random() < 0.5:
            gap = rng.choice([x - y for x in values for y in values if x != y])
            body = Ite(BinOp("-", Ref(a), Ref(b)), Const(gap), Const(1), Const(0))
        else:
            body = Table((a, b), tuple((combo, rng.randint(0, 1))
                                       for combo in itertools.product(values, repeat=2)))
        variables.append(Variable("X", "endogenous", (0, 1)))
        equations.append(Equation("X", body))
    variables.sort(key=lambda v: (v.kind != "exogenous", v.name))
    return CausalModel(variables, equations)


def shuffled_ranges(rng: random.Random, model: CausalModel) -> CausalModel:
    """The model with every variable's range declared in a random order."""
    return CausalModel(
        [Variable(v.name, v.kind, tuple(rng.sample(v.range, len(v.range))))
         for v in model.variables],
        model.equations.values(),
    )


def exhaustive_witnesses(model, context, conjuncts, effect):
    """Every witness record, in the search's order, from a walk that solves
    every setting of every contingency set and alternative, and decides
    AC2(b) over every subset of the variables off the candidate, once per
    designated vector."""
    engine = Engine(model, context)
    actual = engine.actual_world()
    if not all(actual[c.variable] == c.value for c in conjuncts) \
            or not evaluate(effect, actual):
        return []
    x_vars = [c.variable for c in conjuncts]
    x_actual = {c.variable: c.value for c in conjuncts}
    rest = [n for n in model.endogenous if n not in x_vars]

    def solved(assignment):
        return engine.world(engine.solve_tuple(engine.key(assignment)))

    ac2b = {}

    def passes_ac2b(pins):
        designated = tuple(pins.get(n, actual[n]) for n in rest)
        if designated not in ac2b:
            ac2b[designated] = all(
                evaluate(effect, solved({**x_actual, **{rest[i]: designated[i] for i in subset}}))
                for k in range(len(rest) + 1)
                for subset in itertools.combinations(range(len(rest)), k)
            )
        return ac2b[designated]

    records = []
    for size in range(len(rest) + 1):
        for w_vars in itertools.combinations(rest, size):
            for w_values in itertools.product(*(model.range_of(v) for v in w_vars)):
                pins = dict(zip(w_vars, w_values))
                for alt in itertools.product(*(model.range_of(v) for v in x_vars)):
                    if alt == tuple(x_actual.values()):
                        continue
                    world = solved({**dict(zip(x_vars, alt)), **pins})
                    if not evaluate(effect, world) and passes_ac2b(pins):
                        records.append(WitnessRecord(w_vars, w_values, alt, world))
    return records
