"""Brute-force reference checker, used only by the test suite.

This is a deliberately naive second implementation of the cause test: every
quantifier is expanded literally, every counterfactual is solved by its own
walk over the equation trees with the pins held, and nothing is cached or
pruned.  It shares only the model's records and validation, and the given
normality order, with the rest of the package, and neither the search nor
the solve kernel, so that differential runs pit two genuinely separate code
paths against each other: the verdicts of both tests and the
normality-aware test's best witnesses.  Hard-capped at five endogenous
variables.
"""

from __future__ import annotations

import itertools
import operator
from typing import TYPE_CHECKING, Sequence

from .errors import OracleCapExceeded
from .formula import (
    BooleanFormula,
    Conjunction,
    Disjunction,
    Negation,
    PrimitiveEvent,
)
from .model import CausalModel, Const, Context, Expr, Ite, Ref, Table, World, check_context
from .normality import Relation

if TYPE_CHECKING:
    from .graded import ExtendedCausalModel

ORACLE_MAX_ENDOGENOUS = 5

_OPERATORS = {"min": min, "max": max, "+": operator.add, "-": operator.sub, "*": operator.mul}


def _holds(body: BooleanFormula, world: World) -> bool:
    # Re-derived on purpose; do not replace with formula.evaluate.
    if isinstance(body, PrimitiveEvent):
        return world[body.variable] == body.value
    if isinstance(body, Negation):
        return not _holds(body.operand, world)
    if isinstance(body, Conjunction):
        for operand in body.operands:
            if not _holds(operand, world):
                return False
        return True
    if isinstance(body, Disjunction):
        for operand in body.operands:
            if _holds(operand, world):
                return True
        return False
    raise TypeError(f"unexpected formula node {body!r}")


def _value(body: Expr, read) -> int:
    # Re-derived on purpose; do not replace with the solve kernel.
    if isinstance(body, Const):
        return body.value
    if isinstance(body, Ref):
        return read(body.name)
    if isinstance(body, Ite):
        equal = _value(body.left, read) == _value(body.right, read)
        return _value(body.then if equal else body.other, read)
    if isinstance(body, Table):
        args = tuple(map(read, body.args))
        return next(output for row, output in body.rows if row == args)
    return _OPERATORS[body.op](_value(body.left, read), _value(body.right, read))


def _solve_with(model: CausalModel, context: Context, setting: dict[str, int]) -> World:
    """The world of the context with the pins of ``setting`` held: each other
    variable takes its equation's value, worked out on its first read."""
    values = {**context, **setting}

    def read(name: str) -> int:
        if name not in values:
            values[name] = _value(model.equations[name].body, read)
        return values[name]

    return World(model.endogenous, tuple(map(read, model.endogenous)))


def _check_cap(model: CausalModel, context: Context):
    """The cap, and what every solve needs: a valid model and a full context."""
    if len(model.endogenous) > ORACLE_MAX_ENDOGENOUS:
        raise OracleCapExceeded(
            f"oracle handles at most {ORACLE_MAX_ENDOGENOUS} endogenous variables"
        )
    model.require_valid()
    check_context(model, context)


def _ac1(model, context, conjuncts, effect) -> bool:
    actual = _solve_with(model, context, {})
    for event in conjuncts:
        if actual[event.variable] != event.value:
            return False
    return _holds(effect, actual)


def _witness_worlds(model, context, conjuncts, effect, order=None):
    """Literal expansion of the contingency clause.

    Loops over every split of the remaining variables, every pin setting, and
    every alternative candidate setting; checks (a), the optional normality
    clause on the produced world, and (b) over all sub-assignment pairs, and
    yields each produced world that passes, once per passing triple.
    """
    actual = _solve_with(model, context, {})
    x_vars = [c.variable for c in conjuncts]
    x_actual = {c.variable: c.value for c in conjuncts}
    others = [v for v in model.endogenous if v not in x_vars]
    for w_size in range(len(others) + 1):
        for w_vars in itertools.combinations(others, w_size):
            z_rest = [v for v in others if v not in w_vars]
            for w_vals in itertools.product(*(model.range_of(v) for v in w_vars)):
                for x_alt in itertools.product(*(model.range_of(v) for v in x_vars)):
                    setting = dict(zip(x_vars, x_alt))
                    setting.update(zip(w_vars, w_vals))
                    witness = _solve_with(model, context, setting)
                    if _holds(effect, witness):
                        continue  # (a) fails
                    if order is not None and order.compare(witness, actual) not in (
                        Relation.MORE_NORMAL,
                        Relation.EQUALLY_NORMAL,
                    ):
                        continue
                    if _ac2b(
                        model, context, x_actual, w_vars, w_vals, z_rest, actual, effect
                    ):
                        yield witness


def _ac2_holds_somewhere(model, context, conjuncts, effect, order=None) -> bool:
    return next(_witness_worlds(model, context, conjuncts, effect, order), None) is not None


def _ac2b(model, context, x_actual, w_vars, w_vals, z_rest, actual, effect) -> bool:
    for w_pick in range(len(w_vars) + 1):
        for w_sub in itertools.combinations(range(len(w_vars)), w_pick):
            for z_pick in range(len(z_rest) + 1):
                for z_sub in itertools.combinations(z_rest, z_pick):
                    setting = dict(x_actual)
                    for i in w_sub:
                        setting[w_vars[i]] = w_vals[i]
                    for name in z_sub:
                        setting[name] = actual[name]
                    if not _holds(effect, _solve_with(model, context, setting)):
                        return False
    return True


def _ac3(model, context, conjuncts, effect, order=None) -> bool:
    for size in range(1, len(conjuncts)):
        for subset in itertools.combinations(conjuncts, size):
            if _ac1(model, context, subset, effect) and _ac2_holds_somewhere(
                model, context, subset, effect, order
            ):
                return False
    return True


def oracle_is_cause(
    model: CausalModel,
    context: Context,
    cause: Sequence[PrimitiveEvent],
    effect: BooleanFormula,
) -> bool:
    """Plain-mode verdict by direct expansion of all three clauses."""
    _check_cap(model, context)
    conjuncts = tuple(cause.conjuncts if hasattr(cause, "conjuncts") else cause)
    return (
        _ac1(model, context, conjuncts, effect)
        and _ac2_holds_somewhere(model, context, conjuncts, effect)
        and _ac3(model, context, conjuncts, effect)
    )


def oracle_is_extended_cause(
    ext: ExtendedCausalModel,
    context: Context,
    cause: Sequence[PrimitiveEvent],
    effect: BooleanFormula,
) -> bool:
    """Extended-mode verdict: the witness world must also be admissible."""
    _check_cap(ext.base, context)
    conjuncts = tuple(cause.conjuncts if hasattr(cause, "conjuncts") else cause)
    return (
        _ac1(ext.base, context, conjuncts, effect)
        and _ac2_holds_somewhere(ext.base, context, conjuncts, effect, ext.order)
        and _ac3(ext.base, context, conjuncts, effect, ext.order)
    )


def oracle_best_witnesses(
    ext: ExtendedCausalModel,
    context: Context,
    cause: Sequence[PrimitiveEvent],
    effect: BooleanFormula,
) -> list[tuple[int, ...]]:
    """The paper's best witnesses by direct expansion: of the witness worlds
    the order admits against the actual world, the value tuples of those
    that no other admitted one is strictly more normal than, sorted; none
    when AC1 fails."""
    _check_cap(ext.base, context)
    conjuncts = tuple(cause.conjuncts if hasattr(cause, "conjuncts") else cause)
    if not _ac1(ext.base, context, conjuncts, effect):
        return []
    kept = list(_witness_worlds(ext.base, context, conjuncts, effect, ext.order))
    return sorted({
        world.values
        for world in kept
        if not any(ext.order.compare(other, world) is Relation.MORE_NORMAL for other in kept)
    })
