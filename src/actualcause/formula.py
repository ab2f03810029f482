"""Formulas over model variables and their satisfaction relation.

A primitive event states that an endogenous variable takes a value, and a
candidate cause is a conjunction of them.  Bodies are Boolean combinations of
primitive events; a causal formula wraps a body in an intervention prefix
``[Y1 <- y1, ...]``.  The empty prefix means plain evaluation in the solved
world.  ``compile_body`` checks each event of a body against the model as it
compiles the body into the predicate that ``satisfies`` and the search run.
"""

from __future__ import annotations

from typing import Callable, Mapping

from .errors import FormulaError
from .model import (
    CausalModel,
    Context,
    Record,
    World,
    _set,
    _check_events,
    _kernel,
    _settle,
    _start,
    check_context,
)


class PrimitiveEvent(Record):
    def __init__(self, variable: str, value: int):
        _set(self, "variable", variable)
        _set(self, "value", value)

    def __str__(self) -> str:
        return f"{self.variable}={self.value}"


class CandidateCause(Record):
    """Nonempty conjunction of primitive events over distinct variables."""

    def __init__(self, conjuncts: tuple[PrimitiveEvent, ...]):
        if not conjuncts:
            raise FormulaError("a candidate cause needs at least one conjunct")
        names = [c.variable for c in conjuncts]
        if len(set(names)) != len(names):
            raise FormulaError("candidate cause repeats a variable")
        super().__init__(conjuncts)

    def variables(self) -> tuple[str, ...]:
        return tuple(c.variable for c in self.conjuncts)

    def values(self) -> tuple[int, ...]:
        return tuple(c.value for c in self.conjuncts)

    def __str__(self) -> str:
        return " & ".join(str(c) for c in self.conjuncts)


class Negation(Record):
    def __init__(self, operand: BooleanFormula):
        super().__init__(operand)


class Conjunction(Record):
    def __init__(self, operands: tuple[BooleanFormula, ...]):
        if len(operands) < 2:
            raise FormulaError("conjunction needs at least two operands")
        super().__init__(operands)


class Disjunction(Record):
    def __init__(self, operands: tuple[BooleanFormula, ...]):
        if len(operands) < 2:
            raise FormulaError("disjunction needs at least two operands")
        super().__init__(operands)


BooleanFormula = PrimitiveEvent | Negation | Conjunction | Disjunction


class CausalFormula(Record):
    def __init__(self, interventions: tuple[tuple[str, int], ...], body: BooleanFormula):
        targets = [name for name, _ in interventions]
        if len(set(targets)) != len(targets):
            raise FormulaError("intervention prefix repeats a variable")
        super().__init__(interventions, body)


def compile_body(model: CausalModel, body: BooleanFormula) -> Callable[[tuple[int, ...]], bool]:
    """The body as a predicate over the model's endogenous value tuples.
    Each event is checked against the event rule as it compiles, in
    pre-order, so the first fault raised is the body's first."""
    if isinstance(body, PrimitiveEvent):
        _check_events(model, ((body.variable, body.value),), "a formula", FormulaError)
        position, value = model.endo_index(body.variable), body.value
        return lambda values: values[position] == value
    if isinstance(body, Negation):
        inner = compile_body(model, body.operand)
        return lambda values: not inner(values)
    parts = [compile_body(model, operand) for operand in body.operands]
    if isinstance(body, Conjunction):
        return lambda values: all(part(values) for part in parts)
    if isinstance(body, Disjunction):
        return lambda values: any(part(values) for part in parts)
    raise FormulaError(f"unsupported formula node {body!r}")


def check_formula(model: CausalModel, formula: CausalFormula) -> Callable[[tuple[int, ...]], bool]:
    """Check the body, then the prefix; returns the body's predicate."""
    holds = compile_body(model, formula.body)
    _check_events(model, formula.interventions, "an intervention", FormulaError)
    return holds


def evaluate(body: BooleanFormula, world: World | Mapping[str, int]) -> bool:
    if isinstance(body, PrimitiveEvent):
        return world[body.variable] == body.value
    if isinstance(body, Negation):
        return not evaluate(body.operand, world)
    if isinstance(body, Conjunction):
        return all(evaluate(op, world) for op in body.operands)
    return any(evaluate(op, world) for op in body.operands)


def satisfies(model: CausalModel, context: Context, formula: CausalFormula) -> bool:
    """Truth of a causal formula in the model under the context.

    The body is evaluated in the solution with each variable of the
    intervention prefix held at its value, which is the solution of the
    intervened model without building that model.
    """
    model.require_valid()
    holds = check_formula(model, formula)
    check_context(model, context)
    env = _start(model, context)
    for name, value in formula.interventions:
        env[model.endo_index(name)] = value
    return holds(_settle(model, env, [step for step in _kernel(model) if env[step[0]] is None]))


def format_body(body: BooleanFormula) -> str:
    """Canonical rendering; parenthesizes only where precedence demands."""
    if isinstance(body, PrimitiveEvent):
        return str(body)
    if isinstance(body, Negation):
        inner = format_body(body.operand)
        if isinstance(body.operand, (Conjunction, Disjunction)):
            inner = f"({inner})"
        return f"!{inner}"
    if isinstance(body, Conjunction):
        return " & ".join(f"({format_body(op)})" if isinstance(op, Disjunction)
                          else format_body(op) for op in body.operands)
    return " | ".join(format_body(op) for op in body.operands)


def format_formula(formula: CausalFormula) -> str:
    prefix = ", ".join(f"{n}<-{v}" for n, v in formula.interventions)
    return f"[{prefix}]({format_body(formula.body)})"
