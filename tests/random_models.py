"""Random models, contexts and typicality declarations for the tests.

A plain module rather than ``conftest``: the benchmark's tests have a
``conftest`` of their own, and both suites run in one session.
"""

from __future__ import annotations

import itertools
import random

from actualcause import (
    CausalModel,
    Equation,
    Ref,
    Table,
    TypicalitySpec,
    ValueRanking,
    Variable,
)


def random_model(rng: random.Random, max_endo: int = 4) -> CausalModel:
    """Random acyclic binary model.

    Node 0 (and node 1 when parentless) is driven by its own exogenous
    variable; later nodes always have at least one endogenous parent, keeping
    the context space small while exercising arbitrary table shapes.
    """
    n = rng.randint(2, max_endo)
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
