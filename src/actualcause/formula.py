"""Formulas over model variables and their satisfaction relation.

A primitive event states that an endogenous variable takes a value.  Bodies
are Boolean combinations of primitive events; a causal formula wraps a body in
an intervention prefix ``[Y1 <- y1, ...]``.  The empty prefix means plain
evaluation in the solved world.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping

from .errors import FormulaError
from .model import CausalModel, Context, World, _settle, check_context


@dataclass(frozen=True)
class PrimitiveEvent:
    variable: str
    value: int

    def __str__(self) -> str:
        return f"{self.variable}={self.value}"


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


def variables_in(body: BooleanFormula) -> frozenset[str]:
    if isinstance(body, PrimitiveEvent):
        return frozenset((body.variable,))
    if isinstance(body, Negation):
        return variables_in(body.operand)
    out: frozenset[str] = frozenset()
    for operand in body.operands:
        out |= variables_in(operand)
    return out


def check_body(model: CausalModel, body: BooleanFormula):
    """Reject bodies naming unknown/exogenous variables or off-range values."""
    if isinstance(body, PrimitiveEvent):
        if not model.has_variable(body.variable):
            raise FormulaError(f"formula references unknown variable {body.variable}")
        if not model.is_endogenous(body.variable):
            raise FormulaError(
                f"primitive events range over endogenous variables; "
                f"{body.variable} is exogenous"
            )
        if body.value not in model.range_of(body.variable):
            raise FormulaError(
                f"value {body.value} outside the range of {body.variable}"
            )
    elif isinstance(body, Negation):
        check_body(model, body.operand)
    else:
        for operand in body.operands:
            check_body(model, operand)


def check_formula(model: CausalModel, formula: CausalFormula):
    check_body(model, formula.body)
    for name, value in formula.interventions:
        if not model.has_variable(name):
            raise FormulaError(f"intervention targets unknown variable {name}")
        if not model.is_endogenous(name):
            raise FormulaError(f"intervention targets exogenous variable {name}")
        if value not in model.range_of(name):
            raise FormulaError(f"intervention value {name}={value} outside range")


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
    values = _settle(model, context, dict(formula.interventions))
    return evaluate(formula.body, model.world_from_values(values))


def format_body(body: BooleanFormula, parent: str = "") -> str:
    """Canonical rendering; parenthesizes only where precedence demands."""
    if isinstance(body, PrimitiveEvent):
        return str(body)
    if isinstance(body, Negation):
        inner = format_body(body.operand, "!")
        if isinstance(body.operand, (Conjunction, Disjunction)):
            inner = f"({inner})"
        return f"!{inner}"
    if isinstance(body, Conjunction):
        parts = []
        for op in body.operands:
            text = format_body(op, "&")
            if isinstance(op, Disjunction):
                text = f"({text})"
            parts.append(text)
        text = " & ".join(parts)
        return text
    parts = [format_body(op, "|") for op in body.operands]
    return " | ".join(parts)


def format_formula(formula: CausalFormula) -> str:
    prefix = ", ".join(f"{n}<-{v}" for n, v in formula.interventions)
    return f"[{prefix}]({format_body(formula.body)})"
