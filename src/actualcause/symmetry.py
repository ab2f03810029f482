"""Symmetries of a model's equations: the candidate sweep's classes of
interchangeable variables (``_classes``) and the check that a renaming
carries one model's equations onto another's (``equation_isomorphism``).

A single query runs neither, so they live apart from ``model``, which every
query imports; ``checker.find_all_causes`` loads this module when a sweep
asks for the classes.
"""

from __future__ import annotations

import itertools
from typing import Mapping

from .model import BinOp, CausalModel, Const, Context, Expr, Ite, Ref, Table, _compile


# The operators whose chains a key flattens, sorting their operands.
_COMMUTATIVE = frozenset(("+", "*", "min", "max"))


def _canonical(expr: Expr, values: Mapping[str, int], swap: Mapping[str, str]) -> tuple:
    """A key two bodies share only when they agree under the context
    ``values``: an exogenous reference reads its value, a chain of one
    ``_COMMUTATIVE`` operator is flattened with its operands sorted, and an
    ite's two compared sides are sorted; ``-`` and tables keep their
    operands' order.  Endogenous references are renamed by ``swap``."""
    if isinstance(expr, Const):
        return 0, expr.value
    if isinstance(expr, Ref):
        name = expr.name
        return (0, values[name]) if name in values else (1, swap.get(name, name))
    if isinstance(expr, Table):
        return 4, tuple(_canonical(Ref(a), values, swap) for a in expr.args), expr.rows
    if isinstance(expr, Ite):
        left, right = (_canonical(e, values, swap) for e in (expr.left, expr.right))
        return (3, *sorted((left, right)), _canonical(expr.then, values, swap),
                _canonical(expr.other, values, swap))
    op = expr.op
    if op not in _COMMUTATIVE:
        return 2, op, _canonical(expr.left, values, swap), _canonical(expr.right, values, swap)
    operands, stack = [], [expr.left, expr.right]
    while stack:
        e = stack.pop()
        if isinstance(e, BinOp) and e.op == op:
            stack += e.left, e.right
        else:
            operands.append(_canonical(e, values, swap))
    return 2, op, *sorted(operands)


def _classes(model: CausalModel, context: Context) -> dict[str, str]:
    """Per endogenous variable, the head of its class of interchangeable
    variables under the context, worked out once per model and context
    values.  A class is the first variable, in declaration order, of a range
    tuple and equation key, and each other variable of that pair that may be
    swapped with it: the swap maps the equations onto themselves when every
    equation that reads either keeps its key.  Equal keys also mean neither
    reads the other, since no equation reads its own variable.  Swaps
    compose, so any two variables of a class may be swapped."""
    values = tuple(map(context.__getitem__, model.exogenous))
    found = model._classes.get(values)
    if found is None:
        reads = dict(zip(model.exogenous, values))
        bodies = {name: model.equations[name].body for name in model.endogenous}
        keys = {name: _canonical(body, reads, {}) for name, body in bodies.items()}
        readers: dict[str, set[str]] = {}
        groups: dict[tuple, list[str]] = {}
        for name, body in bodies.items():
            for ref in body.referenced():
                readers.setdefault(ref, set()).add(name)
            groups.setdefault((model.range_of(name), keys[name]), []).append(name)
        found = model._classes[values] = {}
        for head, *rest in groups.values():
            found[head] = head
            for name in rest:
                swap = {head: name, name: head}
                found[name] = head if all(
                    _canonical(bodies[reader], reads, swap) == keys[reader]
                    for reader in readers.get(head, set()) | readers.get(name, set())) else name
    return found


def equation_isomorphism(
    first: CausalModel,
    second: CausalModel,
    variable_map: Mapping[str, str],
    value_maps: Mapping[str, Mapping[int, int]],
) -> bool:
    """Check that a renaming (with per-variable value bijections) carries the
    first model's equations onto the second's.

    The check is exhaustive: for every assignment to the first model's
    variables, each translated equation must produce the translated output.
    """
    first.require_valid()
    second.require_valid()
    if set(variable_map.keys()) != {v.name for v in first.variables}:
        return False
    if set(variable_map.values()) != {v.name for v in second.variables}:
        return False
    for name in variable_map:
        vmap = value_maps[name]
        src = first.variable(name)
        dst = second.variable(variable_map[name])
        if src.kind != dst.kind:
            return False
        if sorted(vmap.keys()) != sorted(src.range):
            return False
        if sorted(vmap.values()) != sorted(dst.range):
            return False
    all_names = [v.name for v in first.variables]
    positions = {name: i for i, name in enumerate(all_names)}
    mapped_positions = {variable_map[name]: i for i, name in enumerate(all_names)}
    pairs = list(zip(
        (value_maps[target] for target in first.endogenous),
        _compile([first.equations[t].body for t in first.endogenous], positions),
        _compile([second.equations[variable_map[t]].body for t in first.endogenous],
                 mapped_positions)))
    for combo in itertools.product(*(first.range_of(n) for n in all_names)):
        mapped = [value_maps[n][value] for n, value in zip(all_names, combo)]
        for out_map, got, want in pairs:
            if out_map[got(combo)] != want(mapped):
                return False
    return True
