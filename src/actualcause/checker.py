"""Actual-cause test: factuality, contingent dependence, and minimality.

The test has three clauses.  AC1 asks that the candidate and the effect both
hold in the solved world.  AC2 asks for a contingency: variables outside the
candidate may be pinned to chosen values so that flipping the candidate flips
the effect (AC2a), while re-imposing any mix of those pins and of actual
values on the remaining variables keeps the effect intact under the actual
candidate values (AC2b).  AC3 prunes candidates with a smaller working core.

Search layout: contingency sets grow by cardinality and settings are visited
in range order, so smaller witnesses surface first and results are
deterministic.  Solve results are memoized per full intervention assignment;
the AC2(b) quantifier collapses onto the merged pin/actual value vector, which
is memoized as well.

The normality-aware test of the graded module reuses this search: a witness
filter, passed to the calls that take one, drops the AC2(a) settings whose
witness world the filter rejects.  AC2(b) does not depend on the filter, so a
plain and a filtered AC3 on one search share its AC2(b) memo.  Both tests
assemble their verdict in one place, ``_verdict``.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Callable, Iterable, Optional, Sequence

from .errors import FormulaError, SearchBudgetExceeded
from .formula import (
    BooleanFormula,
    Conjunction,
    Disjunction,
    Negation,
    PrimitiveEvent,
    check_body,
)
from .model import CausalModel, Context, World, _settle, check_context
from .normality import NormalityOrder, Relation

DEFAULT_SEARCH_BUDGET = 1 << 24


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
class WitnessRecord:
    """One passing choice of contingency set, pin values, and alternative.

    ``world`` is the solved result of imposing the alternative candidate
    values and the pins; distinct (w_set, w_values, x_prime) triples are kept
    separately even when they land on the same world.
    """

    w_set: tuple[str, ...]
    w_values: tuple[int, ...]
    x_prime: tuple[int, ...]
    world: World


@dataclass(frozen=True)
class CauseVerdict:
    """Outcome of one actual-cause query.

    In plain mode the normality-aware fields mirror the plain ones:
    ``admissible_witnesses`` equals ``hp_witnesses``, ``is_cause_extended`` is
    None, and ``best_witnesses`` lists every distinct witness world.
    """

    cause: CandidateCause
    effect: BooleanFormula
    mode: str  # "hp" | "extended"
    ac1: bool
    hp_witnesses: tuple[WitnessRecord, ...]
    admissible_witnesses: tuple[WitnessRecord, ...]
    ac3: bool
    is_cause_hp: bool
    is_cause_extended: Optional[bool]
    best_witnesses: tuple[World, ...]
    failed_clause: Optional[str]

    @property
    def is_cause(self) -> bool:
        if self.mode == "extended":
            return bool(self.is_cause_extended)
        return self.is_cause_hp


class Engine:
    """Solver bound to one model and context, memoized per intervention set."""

    def __init__(self, model: CausalModel, context: Context):
        model.require_valid()
        check_context(model, context)
        self.model = model
        self.context = dict(context)
        self.endo = model.endogenous
        self.index = {n: i for i, n in enumerate(self.endo)}
        self._cache: dict[tuple, tuple[int, ...]] = {}
        self.actual = self.solve_tuple({})

    def solve_tuple(self, interventions: dict[str, int]) -> tuple[int, ...]:
        key = [None] * len(self.endo)
        for name, value in interventions.items():
            key[self.index[name]] = value
        key = tuple(key)
        cached = self._cache.get(key)
        if cached is not None:
            return cached
        values = _settle(self.model, self.context, interventions)
        self._cache[key] = values
        return values

    def world(self, values: tuple[int, ...]) -> World:
        return World(self.endo, values)

    def actual_world(self) -> World:
        return self.world(self.actual)


def compile_body(engine: Engine, body: BooleanFormula) -> Callable[[tuple[int, ...]], bool]:
    """Turn a formula body into a predicate over solved value tuples."""
    if isinstance(body, PrimitiveEvent):
        idx = engine.index[body.variable]
        val = body.value
        return lambda values: values[idx] == val
    if isinstance(body, Negation):
        inner = compile_body(engine, body.operand)
        return lambda values: not inner(values)
    parts = [compile_body(engine, op) for op in body.operands]
    if isinstance(body, Conjunction):
        return lambda values: all(p(values) for p in parts)
    if isinstance(body, Disjunction):
        return lambda values: any(p(values) for p in parts)
    raise FormulaError(f"unsupported formula node {body!r}")


def _check_cause(model: CausalModel, conjuncts: Sequence[PrimitiveEvent]):
    for event in conjuncts:
        check_body(model, event)


_WitnessFilter = Optional[Callable[[World], bool]]


class CauseSearch:
    """Witness enumeration for one effect under one engine.

    A ``witness_filter`` (when given) keeps only AC2(a) settings whose witness
    world it accepts; this is how the normality-aware test narrows AC2(a).
    """

    def __init__(
        self,
        engine: Engine,
        effect: BooleanFormula,
        max_search: int = DEFAULT_SEARCH_BUDGET,
    ):
        check_body(engine.model, effect)
        self.engine = engine
        self.effect = effect
        self.max_search = max_search
        self._phi = compile_body(engine, effect)
        self._ac2b_cache: dict[tuple, bool] = {}

    # -- clause checks ---------------------------------------------------------

    def ac1(self, conjuncts: Sequence[PrimitiveEvent]) -> bool:
        actual = self.engine.actual
        if not all(actual[self.engine.index[c.variable]] == c.value for c in conjuncts):
            return False
        return self._phi(actual)

    def ac2b(self, x_assignment: dict[str, int], rest: tuple[str, ...],
             designated: tuple[int, ...]) -> bool:
        """AC2(b) for the merged pin/actual vector over the non-candidate
        variables: the effect must survive re-imposing every sub-assignment."""
        key = (tuple(sorted(x_assignment.items())), rest, designated)
        cached = self._ac2b_cache.get(key)
        if cached is not None:
            return cached
        engine = self.engine
        phi = self._phi
        result = True
        positions = range(len(rest))
        for size in range(len(rest) + 1):
            for subset in itertools.combinations(positions, size):
                assignment = dict(x_assignment)
                for i in subset:
                    assignment[rest[i]] = designated[i]
                if not phi(engine.solve_tuple(assignment)):
                    result = False
                    break
            if not result:
                break
        self._ac2b_cache[key] = result
        return result

    def _ac2b_under_pins(self, x_assignment: dict[str, int], rest: tuple[str, ...],
                         pins: dict[str, int]) -> bool:
        """AC2(b) with the pins re-imposed and every other non-candidate
        variable at its actual value."""
        actual = self.engine.actual
        index = self.engine.index
        designated = tuple([pins[n] if n in pins else actual[index[n]] for n in rest])
        return self.ac2b(x_assignment, rest, designated)

    def check_ac2(
        self,
        conjuncts: Sequence[PrimitiveEvent],
        w_set: Sequence[str],
        w_values: Sequence[int],
        x_prime: Sequence[int],
    ) -> bool:
        engine = self.engine
        model = engine.model
        x_vars = [c.variable for c in conjuncts]
        if set(w_set) & set(x_vars):
            raise FormulaError("contingency set overlaps the candidate cause")
        if len(set(w_set)) != len(tuple(w_set)):
            raise FormulaError("contingency set repeats a variable")
        if len(w_set) != len(w_values) or len(x_prime) != len(x_vars):
            raise FormulaError("mismatched setting lengths")
        for name, value in zip(w_set, w_values):
            if not model.has_variable(name) or not model.is_endogenous(name):
                raise FormulaError(f"contingency variable {name} is not endogenous")
            if value not in model.range_of(name):
                raise FormulaError(f"contingency value {name}={value} outside range")
        for name, value in zip(x_vars, x_prime):
            if value not in model.range_of(name):
                raise FormulaError(f"alternative value {name}={value} outside range")
        alt = dict(zip(x_vars, x_prime))
        alt.update(zip(w_set, w_values))
        witness = engine.solve_tuple(alt)
        if self._phi(witness):  # AC2(a) needs the effect to fail
            return False
        rest = tuple(n for n in engine.endo if n not in set(x_vars))
        x_assignment = {c.variable: c.value for c in conjuncts}
        return self._ac2b_under_pins(x_assignment, rest, dict(zip(w_set, w_values)))

    # -- enumeration -----------------------------------------------------------

    def budget_for(self, conjuncts: Sequence[PrimitiveEvent]) -> int:
        model = self.engine.model
        x_vars = {c.variable for c in conjuncts}
        total = 1
        for name in self.engine.endo:
            if name not in x_vars:
                total *= 1 + len(model.range_of(name))
        alternatives = 1
        for c in conjuncts:
            alternatives *= len(model.range_of(c.variable))
        return total * (alternatives - 1)

    def enumerate(self, conjuncts: Sequence[PrimitiveEvent]) -> list[WitnessRecord]:
        return list(self._search(conjuncts, False))

    def has_witness(self, conjuncts: Sequence[PrimitiveEvent],
                    witness_filter: _WitnessFilter = None) -> bool:
        for _ in self._search(conjuncts, True, witness_filter):
            return True
        return False

    def _search(self, conjuncts: Sequence[PrimitiveEvent], stop_after_first: bool,
                witness_filter: _WitnessFilter = None):
        engine = self.engine
        _check_cause(engine.model, conjuncts)
        if not self.ac1(conjuncts):
            return
        if not conjuncts:
            # With nothing to flip, AC2(b) at the full pin set repeats the
            # AC2(a) intervention and demands the opposite truth value.
            return
        budget = self.budget_for(conjuncts)
        if budget > self.max_search:
            raise SearchBudgetExceeded(budget, self.max_search)
        model = engine.model
        x_vars = [c.variable for c in conjuncts]
        x_set = set(x_vars)
        actual_x = tuple(c.value for c in conjuncts)
        alternatives = [
            combo
            for combo in itertools.product(*(model.range_of(v) for v in x_vars))
            if combo != actual_x
        ]
        x_assignment = {c.variable: c.value for c in conjuncts}
        rest = tuple(n for n in engine.endo if n not in x_set)
        phi = self._phi
        for size in range(len(rest) + 1):
            for w_vars in itertools.combinations(rest, size):
                for w_values in itertools.product(*(model.range_of(v) for v in w_vars)):
                    pins = dict(zip(w_vars, w_values))
                    passing: list[tuple[tuple[int, ...], tuple[int, ...]]] = []
                    for alt in alternatives:
                        assignment = dict(zip(x_vars, alt))
                        assignment.update(pins)
                        witness = engine.solve_tuple(assignment)
                        if phi(witness):
                            continue
                        if witness_filter is not None and not witness_filter(
                            engine.world(witness)
                        ):
                            continue
                        passing.append((alt, witness))
                    if not passing:
                        continue
                    if not self._ac2b_under_pins(x_assignment, rest, pins):
                        continue
                    for alt, witness in passing:
                        yield WitnessRecord(
                            w_set=w_vars,
                            w_values=w_values,
                            x_prime=alt,
                            world=engine.world(witness),
                        )
                        if stop_after_first:
                            return

    def ac3(self, conjuncts: Sequence[PrimitiveEvent],
            witness_filter: _WitnessFilter = None) -> bool:
        """Minimality: no strict nonempty sub-conjunction already passes."""
        if len(conjuncts) == 1:
            return True
        for size in range(1, len(conjuncts)):
            for subset in itertools.combinations(conjuncts, size):
                if self.ac1(subset) and self.has_witness(subset, witness_filter):
                    return False
        return True


# -- public operations ---------------------------------------------------------


def check_ac1(
    model: CausalModel,
    context: Context,
    cause: CandidateCause | Sequence[PrimitiveEvent],
    effect: BooleanFormula,
) -> bool:
    conjuncts = _conjuncts(cause)
    engine = Engine(model, context)
    search = CauseSearch(engine, effect)
    _check_cause(model, conjuncts)
    return search.ac1(conjuncts)


def check_ac2(
    model: CausalModel,
    context: Context,
    cause: CandidateCause | Sequence[PrimitiveEvent],
    effect: BooleanFormula,
    w_set: Sequence[str],
    w_values: Sequence[int],
    x_prime: Sequence[int],
) -> bool:
    conjuncts = _conjuncts(cause)
    engine = Engine(model, context)
    search = CauseSearch(engine, effect)
    _check_cause(model, conjuncts)
    return search.check_ac2(conjuncts, w_set, w_values, x_prime)


def enumerate_witnesses(
    model: CausalModel,
    context: Context,
    cause: CandidateCause | Sequence[PrimitiveEvent],
    effect: BooleanFormula,
    max_search: int = DEFAULT_SEARCH_BUDGET,
) -> list[WitnessRecord]:
    """All passing (w_set, w_values, x_prime) records, smallest sets first.

    Returns an empty list when AC1 already fails.  Accepts a bare sequence of
    primitive events so callers can probe the empty conjunction.
    """
    engine = Engine(model, context)
    search = CauseSearch(engine, effect, max_search=max_search)
    return search.enumerate(_conjuncts(cause))


def is_actual_cause(
    model: CausalModel,
    context: Context,
    cause: CandidateCause | Sequence[PrimitiveEvent],
    effect: BooleanFormula,
    max_search: int = DEFAULT_SEARCH_BUDGET,
) -> CauseVerdict:
    """Plain-mode verdict: AC1, witness enumeration, and AC3."""
    return _verdict(model, context, cause, effect, max_search, None)


def _verdict(
    model: CausalModel,
    context: Context,
    cause: CandidateCause | Sequence[PrimitiveEvent],
    effect: BooleanFormula,
    max_search: int,
    order: Optional[NormalityOrder],
) -> CauseVerdict:
    """Verdict of the plain test, or of the normality-filtered one when an
    order is given."""
    cause = cause if isinstance(cause, CandidateCause) else CandidateCause(tuple(cause))
    engine = Engine(model, context)
    search = CauseSearch(engine, effect, max_search=max_search)
    conjuncts = cause.conjuncts
    ac1 = search.ac1(conjuncts)
    hp_witnesses = tuple(search.enumerate(conjuncts)) if ac1 else ()
    ac3_hp = search.ac3(conjuncts)
    is_hp = bool(ac1 and hp_witnesses and ac3_hp)
    if order is None:
        admissible, ac3, is_extended = hp_witnesses, ac3_hp, None
        best = tuple(
            engine.world(v) for v in sorted({r.world.values for r in hp_witnesses})
        )
    else:
        actual = engine.actual_world()

        def admits(world: World) -> bool:
            return order.admits(world, actual)

        admissible = tuple(r for r in hp_witnesses if admits(r.world))
        ac3 = search.ac3(conjuncts, admits)
        is_extended = bool(ac1 and admissible and ac3)
        best = best_witnesses(order, (r.world for r in admissible))
    if not ac1:
        failed = "AC1"
    elif not admissible:
        failed = "AC2"
    elif not ac3:
        failed = "AC3"
    else:
        failed = None
    return CauseVerdict(
        cause=cause,
        effect=effect,
        mode="hp" if order is None else "extended",
        ac1=ac1,
        hp_witnesses=hp_witnesses,
        admissible_witnesses=admissible,
        ac3=ac3,
        is_cause_hp=is_hp,
        is_cause_extended=is_extended,
        best_witnesses=best,
        failed_clause=failed,
    )


def best_witnesses(
    order: NormalityOrder, worlds: Iterable[World]
) -> tuple[World, ...]:
    """Maximal worlds under the order, deduplicated, in value order."""
    distinct: dict[tuple, World] = {}
    for world in worlds:
        distinct.setdefault(world.values, world)
    candidates = [distinct[k] for k in sorted(distinct)]
    best = []
    for world in candidates:
        dominated = any(
            order.compare(other, world) is Relation.MORE_NORMAL
            for other in candidates
            if other.values != world.values
        )
        if not dominated:
            best.append(world)
    return tuple(best)


def find_all_causes(
    model: CausalModel,
    context: Context,
    effect: BooleanFormula,
    max_conjuncts: int = 1,
    max_search: int = DEFAULT_SEARCH_BUDGET,
) -> list[CandidateCause]:
    """All passing candidates up to the given size, in declaration order.

    Only actually-true conjunctions can pass AC1, so the sweep pins each
    chosen variable at its solved value.
    """
    if max_conjuncts < 1:
        raise FormulaError("max_conjuncts must be at least 1")
    engine = Engine(model, context)
    search = CauseSearch(engine, effect, max_search=max_search)
    actual = engine.actual
    found: list[CandidateCause] = []
    for size in range(1, max_conjuncts + 1):
        for names in itertools.combinations(engine.endo, size):
            conjuncts = tuple(
                PrimitiveEvent(n, actual[engine.index[n]]) for n in names
            )
            if not search.ac1(conjuncts):
                continue
            if not search.has_witness(conjuncts):
                continue
            if not search.ac3(conjuncts):
                continue
            found.append(CandidateCause(conjuncts))
    return found


def _conjuncts(
    cause: CandidateCause | Sequence[PrimitiveEvent],
) -> tuple[PrimitiveEvent, ...]:
    if isinstance(cause, CandidateCause):
        return cause.conjuncts
    return tuple(cause)
