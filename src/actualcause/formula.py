"""Formulas over model variables and their satisfaction relation.

A primitive event states that an endogenous variable takes a value, and a
candidate cause is a conjunction of them.  Bodies are Boolean combinations of
primitive events; a causal formula wraps a body in an intervention prefix
``[Y1 <- y1, ...]``.  The empty prefix means plain evaluation in the solved
world.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping

from .errors import FormulaError
from .model import (
    CausalModel,
    Context,
    World,
    _event_fault,
    _kernel,
    _settle,
    _start,
    check_context,
)


@dataclass(frozen=True)
class PrimitiveEvent:
    variable: str
    value: int

    def __str__(self) -> str:
        return f"{self.variable}={self.value}"


@dataclass(frozen=True)
class CandidateCause:
    """Nonempty conjunction of primitive events over distinct variables."""

    conjuncts: tuple[PrimitiveEvent, ...]

    def __post_init__(self):
        if not self.conjuncts:
            raise FormulaError("a candidate cause needs at least one conjunct")
        names = [c.variable for c in self.conjuncts]
        if len(set(names)) != len(names):
            raise FormulaError("candidate cause repeats a variable")

    def variables(self) -> tuple[str, ...]:
        return tuple(c.variable for c in self.conjuncts)

    def values(self) -> tuple[int, ...]:
        return tuple(c.value for c in self.conjuncts)

    def __str__(self) -> str:
        return " & ".join(str(c) for c in self.conjuncts)


@dataclass(frozen=True)
class Negation:
    operand: "BooleanFormula"


@dataclass(frozen=True)
class Conjunction:
    operands: tuple["BooleanFormula", ...]

    def __post_init__(self):
        if len(self.operands) < 2:
            raise FormulaError("conjunction needs at least two operands")


@dataclass(frozen=True)
class Disjunction:
    operands: tuple["BooleanFormula", ...]

    def __post_init__(self):
        if len(self.operands) < 2:
            raise FormulaError("disjunction needs at least two operands")


BooleanFormula = PrimitiveEvent | Negation | Conjunction | Disjunction


@dataclass(frozen=True)
class CausalFormula:
    interventions: tuple[tuple[str, int], ...]
    body: BooleanFormula

    def __post_init__(self):
        targets = [name for name, _ in self.interventions]
        if len(set(targets)) != len(targets):
            raise FormulaError("intervention prefix repeats a variable")


def check_body(model: CausalModel, body: BooleanFormula):
    """Reject bodies naming unknown/exogenous variables or off-range values."""
    if isinstance(body, PrimitiveEvent):
        fault = _event_fault(model, body.variable, body.value, "a formula")
        if fault is not None:
            raise FormulaError(fault)
    elif isinstance(body, Negation):
        check_body(model, body.operand)
    else:
        for operand in body.operands:
            check_body(model, operand)


def check_formula(model: CausalModel, formula: CausalFormula):
    check_body(model, formula.body)
    for name, value in formula.interventions:
        fault = _event_fault(model, name, value, "an intervention")
        if fault is not None:
            raise FormulaError(fault)


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
    check_formula(model, formula)
    check_context(model, context)
    env = _start(model, context)
    for name, value in formula.interventions:
        env[model.endo_index(name)] = value
    values = _settle(model, env, [step for step in _kernel(model) if env[step[0]] is None])
    return evaluate(formula.body, model.world_from_values(values))


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
