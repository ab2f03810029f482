"""Seeded generators for the benchmark's `.scm.txt` inputs.

Every generator takes a ``random.Random`` and returns a :class:`Case`: the
document text and the queries to ask of it.  Where a family has a closed-form
answer, the query carries it in ``expect``; the harness checks it on every
answer, and the benchmark's tests check it against the brute-force oracle at
small sizes.  The same rng state always yields the same text.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass
from typing import Optional


@dataclass(frozen=True)
class Query:
    """One library query on a case.

    ``op`` picks the entry point: ``sweep`` (find_all_causes up to ``k``
    conjuncts, with the line's effect), ``cause`` (is_actual_cause),
    ``extended`` (is_extended_cause) or ``grade`` (grade_candidates).
    ``expect`` holds closed-form facts of the answer:

    - ``causes``: the exact list a sweep returns, as strings;
    - ``is_cause`` / ``failed_clause``: verdict fields;
    - ``hp_records`` / ``admissible_records``: witness record counts;
    - ``best``: the best witness worlds, as value tuples.
    """

    op: str
    line: str
    k: int = 0
    expect: Optional[dict] = None


@dataclass(frozen=True)
class Case:
    name: str
    text: str
    queries: tuple[Query, ...] = ()


def _range(size: int) -> str:
    return "{" + ",".join(str(v) for v in range(size)) + "}"


def _nested(op: str, terms: list[str]) -> str:
    expr = terms[0]
    for term in terms[1:]:
        expr = f"{op}({expr}, {term})"
    return expr


def _majority(voters: list[str]) -> str:
    """1 when more than half of the voters are 1, as nested ite over the sum."""
    total = " + ".join(voters)
    expr = "1"
    for count in reversed(range(len(voters) // 2 + 1)):
        expr = f"ite({total}=={count}, 0, {expr})"
    return expr


def _labels(rng: random.Random, prefix: str, n: int) -> list[str]:
    """Names for positions 0..n-1: the prefix with a seeded permutation of
    the indices.

    The families below fix their structure by position, and the random ones
    by size and shape number, so the search does the same work whatever the
    seed; the seed renames the variables, which changes the text and every
    answer but not the cost of a query.
    """
    return [f"{prefix}{i}" for i in rng.sample(range(n), n)]


def _spread(n: int, k: int) -> list[int]:
    """k of the positions 0..n-1: the even ones first, then the odd ones."""
    return sorted((list(range(0, n, 2)) + list(range(1, n, 2)))[:k])


# -- plain-mode families -----------------------------------------------------------


def chain(rng: random.Random, n: int) -> Case:
    """U -> x_0 -> x_1 -> ... -> x_{n-1}, all 1.

    Every link is a cause of the end of the chain, and no pair of links
    passes AC3 because each single link already does.
    """
    x = _labels(rng, "X", n)
    links = [f"var {x[0]} : {{0,1}} = U"]
    links += [f"var {x[p]} : {{0,1}} = {x[p - 1]}" for p in range(1, n)]
    effect = f"{x[-1]}=1"
    causes = [f"{name}=1" for name in x]
    text = "\n".join(["exo U : {0,1}", *links, "context c : U=1"])
    return Case(f"chain-{n}", text, (
        Query("sweep", f"cause {effect} for {effect} @ c", 1, {"causes": causes}),
        Query("sweep", f"cause {effect} for {effect} @ c", 2, {"causes": causes}),
        Query("cause", f"cause {x[n // 2]}=1 for {effect} @ c",
              expect={"is_cause": True}),
        Query("cause", f"cause {x[n // 3]}=1 & {x[2 * n // 3]}=1 for {effect} @ c",
              expect={"is_cause": False, "failed_clause": "AC3"}),
    ))


def disjunctive(rng: random.Random, n: int, on: int) -> Case:
    """n sources l_p = U_p and F = max over them, ``on`` of them lit.

    The lit sources and F itself are the causes of F=1; an unlit source
    cannot be one, and no pair passes AC3.
    """
    names = _labels(rng, "L", n)
    lit = _spread(n, on)
    text = "\n".join(
        [f"exo U{p} : {{0,1}}" for p in range(n)]
        + [f"var {names[p]} : {{0,1}} = U{p}" for p in range(n)]
        + [f"var F : {{0,1}} = {_nested('max', names)}",
           "context c : " + ", ".join(f"U{p}={int(p in lit)}" for p in range(n))]
    )
    causes = [f"{names[p]}=1" for p in range(n) if p in lit] + ["F=1"]
    a, b = names[lit[0]], names[lit[1]]
    return Case(f"disjunctive-{n}", text, (
        Query("sweep", "cause F=1 for F=1 @ c", 1, {"causes": causes}),
        Query("sweep", "cause F=1 for F=1 @ c", 2, {"causes": causes}),
        Query("cause", f"cause {a}=1 & {b}=1 for F=1 @ c",
              expect={"is_cause": False, "failed_clause": "AC3"}),
    ))


def vote(rng: random.Random, n: int, agree: int) -> Case:
    """n voters and a majority outcome W=1, with ``agree`` voters (> n/2) for
    it and the rest against it.

    The voters for the outcome and W itself are its causes; a pair never
    passes AC3.
    """
    voters = _labels(rng, "V", n)
    ayes = _spread(n, agree)
    text = "\n".join(
        [f"exo U{p} : {{0,1}}" for p in range(n)]
        + [f"var {voters[p]} : {{0,1}} = U{p}" for p in range(n)]
        + [f"var W : {{0,1}} = {_majority(voters)}",
           "context c : " + ", ".join(f"U{p}={int(p in ayes)}" for p in range(n))]
    )
    causes = [f"{voters[p]}=1" for p in range(n) if p in ayes] + ["W=1"]
    a, b = voters[ayes[0]], voters[ayes[1]]
    return Case(f"vote-{n}", text, (
        Query("sweep", "cause W=1 for W=1 @ c", 1, {"causes": causes}),
        Query("sweep", "cause W=1 for W=1 @ c", 2, {"causes": causes}),
        Query("cause", f"cause {a}=1 & {b}=1 for W=1 @ c",
              expect={"is_cause": False, "failed_clause": "AC3"}),
    ))


def _random_structure(shape: random.Random, names: list[str], max_range: int):
    """Random acyclic table model over the given node names, drawn from
    ``shape``.

    Returns (declaration lines, context line, actual values, ranges).  Each
    node after the first has one or two earlier parents; parentless nodes
    are driven by their own exogenous variable.
    """
    n = len(names)
    sizes = [shape.randint(2, max_range) for _ in range(n)]
    lines, exo, env = [], [], {}
    for i, name in enumerate(names):
        parents = sorted(shape.sample(range(i), min(i, shape.randint(1, 2)))) if i else []
        if not parents:
            value = shape.randrange(sizes[i])
            exo.append(f"U{i}={value}")
            lines.insert(0, f"exo U{i} : {_range(sizes[i])}")
            lines.append(f"var {name} : {_range(sizes[i])} = U{i}")
            env[name] = value
            continue
        rows = []
        table = {}
        for combo in itertools.product(*(range(sizes[p]) for p in parents)):
            out = shape.randrange(sizes[i])
            table[combo] = out
            rows.append(f"({', '.join(map(str, combo))}) -> {out}")
        args = ", ".join(names[p] for p in parents)
        lines.append(f"var {name} : {_range(sizes[i])} = "
                     f"table({args}){{{', '.join(rows)}}}")
        env[name] = table[tuple(env[names[p]] for p in parents)]
    return lines, "context c : " + ", ".join(exo), env, sizes


def random_dag(rng: random.Random, n: int, shape: int, max_range: int = 3) -> Case:
    """Random DAG number ``shape`` of its size; its reference is the oracle
    (n <= 5) and the digest.  The structure, tables and queries depend only
    on (n, shape, max_range); the seed renames the nodes."""
    shape_rng = random.Random(f"dag-{n}-{max_range}-{shape}")
    names = _labels(rng, "N", n)
    lines, context, env, _ = _random_structure(shape_rng, names, max_range)
    effect = f"{names[-1]}={env[names[-1]]}"
    a, b = sorted(shape_rng.sample(range(n - 1), 2))
    pair = f"{names[a]}={env[names[a]]} & {names[b]}={env[names[b]]}"
    text = "\n".join([*lines, context])
    return Case(f"dag-{n}-{shape}", text, (
        Query("sweep", f"cause {effect} for {effect} @ c", 2),
        Query("cause", f"cause {pair} for {effect} @ c"),
    ))


# -- normality families -------------------------------------------------------------


def disjunctive_typical(rng: random.Random, n: int) -> Case:
    """All n sources lit, every variable typically 0, and a severity chain
    over the first two sources.

    With the effect as its own candidate every one of the 3^n settings of
    the sources is a witness; each is admissible, and the all-zero world is
    the single best witness.
    """
    names = _labels(rng, "L", n)
    text = "\n".join(
        [f"exo U{p} : {{0,1}}" for p in range(n)]
        + [f"var {names[p]} : {{0,1}} = U{p}" for p in range(n)]
        + [f"var F : {{0,1}} = {_nested('max', names)}"]
        + [f"typical {name} = 0 > 1" for name in names]
        + ["typical F = 0 > 1",
           f"severity {names[0]}=1 < {names[1]}=1",
           "context c : " + ", ".join(f"U{p}=1" for p in range(n))]
    )
    return Case(f"disjunctive-typical-{n}", text, (
        Query("extended", "cause F=1 for F=1 @ c", expect={
            "is_cause": True, "hp_records": 3 ** n, "admissible_records": 3 ** n,
            "best": [(0,) * (n + 1)]}),
        Query("grade", f"grade {{{names[0]}=1, {names[-1]}=1}} for F=1 @ c"),
    ))


def severity(rng: random.Random, n: int) -> Case:
    """n agents acting at levels 0 (not), 1 (carelessly) or 2 (maliciously),
    each typically 0 > 1 > 2, alternately careless and malicious, with a
    severity chain across them; harm follows when any agent acts.
    """
    agents = _labels(rng, "A", n)
    levels = [1 + p % 2 for p in range(n)]
    acts = [f"ite({a}==0, 0, 1)" for a in agents]
    text = "\n".join(
        [f"exo U{p} : {{0,1,2}}" for p in range(n)]
        + [f"var {agents[p]} : {{0,1,2}} = U{p}" for p in range(n)]
        + [f"var H : {{0,1}} = {_nested('max', acts)}"]
        + [f"typical {a} = 0 > 1 > 2" for a in agents]
        + ["severity " + " < ".join(f"{a}={v}" for a, v in zip(agents, levels)),
           "context c : " + ", ".join(f"U{p}={levels[p]}" for p in range(n))]
    )
    return Case(f"severity-{n}", text, (
        Query("extended", f"cause {agents[0]}={levels[0]} for H=1 @ c"),
        Query("grade", f"grade {{{agents[0]}={levels[0]}, {agents[1]}={levels[1]}}} "
                       f"for H=1 @ c"),
    ))


def mechanism(rng: random.Random, n: int) -> Case:
    """A short circuit repeated over n guards: guard g poisons when its
    intention (0 benign, 1 deceitful, 2 murderous, cycling from deceitful)
    says so, and the victim survives when the antidote A is given or no
    guard poisons.  Behaviour rankings make poisoning regardless the least
    typical mechanism.
    """
    ids = [name[1:] for name in _labels(rng, "G", n)]
    intents = [(1 + p) % 3 for p in range(n)]
    planned = [f"ite(I{i}==0, 0, ite(I{i}==1, A, 1))" for i in ids]
    lines = ["exo UA : {0,1}"]
    lines += [f"exo UI{p} : {{0,1,2}}" for p in range(n)]
    lines += ["var A : {0,1} = UA"]
    lines += [f"var I{i} : {{0,1,2}} = UI{p}" for p, i in enumerate(ids)]
    lines += [f"var G{i} : {{0,1}} = {body}" for i, body in zip(ids, planned)]
    lines.append(f"var VS : {{0,1}} = max(A, 1 - {_nested('max', [f'G{i}' for i in ids])})")
    lines.append("typical A = 0 > 1")
    lines += [f"typical I{i} = 0 > 1 > 2" for i in ids]
    lines.append("mechanism on")
    lines += [f'behavior G{i} : "planned" = {body} > "no poison" = 0 '
              f'> "poison regardless" = 1' for i, body in zip(ids, planned)]
    lines.append("context c : UA=1, " + ", ".join(f"UI{p}={v}" for p, v in enumerate(intents)))
    return Case(f"mechanism-{n}", "\n".join(lines), (
        Query("extended", "cause A=1 for VS=1 @ c"),
        Query("grade", f"grade {{A=1, I{ids[0]}={intents[0]}}} for VS=1 @ c"),
    ))


def explicit_norms(rng: random.Random, n: int, relations: int, shape: int) -> Case:
    """Random binary DAG number ``shape`` over n nodes with ``relations``
    stated norm relations between whole worlds.  Worlds get ranks and
    relations only point from a better rank to a worse one ('==' within a
    rank), so the stated set never forces a strict pair both ways.  The
    structure, ranks, relations and queries depend only on (n, relations,
    shape); the seed renames the nodes.
    """
    shape_rng = random.Random(f"norms-{n}-{relations}-{shape}")
    names = _labels(rng, "N", n)
    lines, context, env, sizes = _random_structure(shape_rng, names, 2)
    worlds = list(itertools.product(*(range(s) for s in sizes)))
    rank = {w: shape_rng.randrange(4) for w in worlds}
    norms = set()
    while len(norms) < relations:
        left, right = shape_rng.sample(worlds, 2)
        if rank[left] > rank[right]:
            left, right = right, left
        op = "==" if rank[left] == rank[right] else ">"
        norms.add((left, op, right))

    def literal(world):
        return "(" + ", ".join(f"{x}={v}" for x, v in zip(names, world)) + ")"

    norm_lines = [f"norm {literal(l)} {op} {literal(r)}" for l, op, r in sorted(norms)]
    effect = f"{names[-1]}={env[names[-1]]}"
    a, b = shape_rng.sample(range(n - 1), 2)
    cause_a, cause_b = f"{names[a]}={env[names[a]]}", f"{names[b]}={env[names[b]]}"
    text = "\n".join([*lines, *norm_lines, context])
    return Case(f"norms-{n}x{relations}-{shape}", text, (
        Query("extended", f"cause {cause_a} for {effect} @ c"),
        Query("grade", f"grade {{{cause_a}, {cause_b}}} for {effect} @ c"),
    ))


# -- large documents for the CLI -------------------------------------------------------


def wide_table(rng: random.Random, parents: int, size: int = 3) -> str:
    """One output over ``parents`` inputs of ``size`` values, stated as a
    full table: validation walks every row.  The rows and the context depend
    only on the sizes; the seed renames the inputs."""
    shape = random.Random(f"wide-{parents}-{size}")
    names = _labels(rng, "P", parents)
    exo = [f"exo U{i} : {_range(size)}" for i in range(parents)]
    ins = [f"var {name} : {_range(size)} = U{i}" for i, name in enumerate(names)]
    rows = ", ".join(
        f"({', '.join(map(str, combo))}) -> {shape.randrange(size)}"
        for combo in itertools.product(range(size), repeat=parents)
    )
    args = ", ".join(names)
    ctx = ", ".join(f"U{i}={shape.randrange(size)}" for i in range(parents))
    return "\n".join([*exo, *ins, f"var Y : {_range(size)} = table({args}){{{rows}}}",
                      f"context c : {ctx}", "solve @ c"])


def long_chain(n: int, effect_first: bool = False) -> str:
    """U -> X0 -> ... -> X{n-1}, all 1 in the context; ``effect_first``
    declares the end of the chain first."""
    links = ["var X0 : {0,1} = U"] + [f"var X{i} : {{0,1}} = X{i - 1}" for i in range(1, n)]
    if effect_first:
        links.reverse()
    return "\n".join(["exo U : {0,1}", *links, "context c : U=1", "solve @ c",
                      f"satisfies [X0<-0](X{n - 1}=0) @ c"])


def deep_formula(depth: int, kind: str) -> str:
    """A two-variable model with one satisfies line whose body is nested
    ``depth`` deep, by parentheses or by stacked negations (``depth`` even,
    so the body still means F=1, which holds)."""
    body = "(" * depth + "F=1" + ")" * depth if kind == "parens" else "!" * depth + "F=1"
    return "\n".join(["exo U : {0,1}", "var F : {0,1} = U", "context c : U=1",
                      f"satisfies {body} @ c"])


def norm_chain(rng: random.Random, n: int, length: int) -> Case:
    """n lit sources and F = max over them, with ``length`` stated norm
    relations chaining worlds w_0 >= w_1 >= ... (every fifth link an
    equivalence, the rest strict).  The worlds depend only on the sizes and
    the seed renames the sources, so building the closure costs the same for
    every seed."""
    names = _labels(rng, "L", n)
    endo = [*names, "F"]
    space = list(itertools.product((0, 1), repeat=n + 1))
    worlds = random.Random(f"norm-chain-{n}-{length}").sample(space, length + 1)

    def literal(world):
        return "(" + ", ".join(f"{x}={v}" for x, v in zip(endo, world)) + ")"

    norms = [f"norm {literal(a)} {'==' if i % 5 == 4 else '>'} {literal(b)}"
             for i, (a, b) in enumerate(zip(worlds, worlds[1:]))]
    text = "\n".join(
        [f"exo U{p} : {{0,1}}" for p in range(n)]
        + [f"var {names[p]} : {{0,1}} = U{p}" for p in range(n)]
        + [f"var F : {{0,1}} = {_nested('max', names)}", *norms,
           "context c : " + ", ".join(f"U{p}=1" for p in range(n))]
    )
    return Case(f"norm-chain-{n}x{length}", text, (
        Query("extended", f"cause {names[0]}=1 for F=1 @ c"),
        Query("grade", f"grade {{{names[0]}=1, {names[1]}=1}} for F=1 @ c"),
    ))
