"""Actual-cause test: factuality, contingent dependence, and minimality.

The test has three clauses.  AC1 asks that the candidate and the effect both
hold in the solved world.  AC2 asks for a contingency: variables outside the
candidate may be pinned to chosen values so that flipping the candidate flips
the effect (AC2a), while re-imposing any mix of those pins and of actual
values on the remaining variables keeps the effect intact under the actual
candidate values (AC2b).  AC3 prunes candidates with a smaller working core.

Search layout: contingency sets grow by cardinality and settings are visited
in range order, so smaller witnesses surface first and results are
deterministic.  A counterfactual is solved from the actual world by
re-running only the pins' descendants, memoized per pin vector.  The steps
to re-run are planned once per mask of pinned positions, and a contingency
set looks up its plan once for all its settings; each AC2(b) sub-assignment
solves through its own mask's plan.  The AC2(b) quantifier collapses onto
the merged pin/actual vector, memoized as well.
The candidate sweep decides AC3 with no search: it refutes a candidate
holding the variables of a cause it already found.  A public entry point
checks each candidate once, where it enters; the search takes it as valid.
AC2(b) enumerates only the re-impositions of variables downstream of a pin
that differs from the world under the candidate alone: by induction in
topological order, every other variable takes that world's value under any
sub-assignment, so re-imposing it is a no-op.

The normality-aware test of the graded module reuses this search: the search
yields every witness record, and ``has_witness`` and ``ac3`` apply a witness
filter to those records, dropping each whose world the filter rejects.  AC2(b)
does not depend on the filter, so a plain and a filtered AC3 on one search
share its AC2(b) memo.  Both tests assemble their verdicts in one place,
``_verdicts``, which decides every candidate of a call on one search.  Its
filter is one closure per call that asks the order once per distinct witness
world; that memo, like the search's, lives as long as the call.

Before the search, one pass over the references finds relevance and signs.
An equation's direction in a parent is 0, +1 or -1 when it is constant,
non-decreasing or non-increasing in that parent, and None when it is mixed,
or unknown past ``model.DIRECTION_CAP`` combinations of its references.  A
variable is relevant when a path of references of direction other than 0
leads from it to an effect variable without passing through a candidate
variable X.  Signs then go in topological order: +1 on X; on a relevant
variable, the common value of direction times sign over its parents of
non-zero sign, None when two disagree or a direction is None; 0 elsewhere.
That is exact where signs are read, on the effect variables: each is in X or
relevant, and so is every parent of a relevant variable with a non-zero
direction.  Take an alternative x' >= x componentwise (s = +1) or x' <= x
(s = -1), x the candidate's actual values.  When the effect is built from
events with & and | alone, and each event Y=v has sign 0, or sign times s =
+1 with v the top of Y's range, or -1 with v its bottom, then the effect
under x and any pins implies the effect under x' and the same pins.  AC2(b)
needs the former and AC2(a) the negation of the latter, so no witness uses
x', in plain and normality-aware tests alike, and the search drops x'.  When
every effect variable has sign 0, no candidate variable reaches the effect
and the search refutes the candidate outright.  The candidate is pinned in
every world the test solves, to x or to x', so a pin off the relevant set
moves no effect variable: a setting passes AC2(a) with an alternative, and
AC2(b), exactly when its relevant part does.  Sets are visited by size, so a
relevant pin set is decided before any set that adds irrelevant pins to it.
If none of its settings passed, it is dead and those sets are skipped
without a solve; otherwise they take the alternatives that passed without
evaluating the effect, and build only each record's world, which the witness
filter sees.  When the reach masks leave no variable below a pin or the
candidate unpinned, that world is the actual one with the pins and x' laid
over it: no plan, no solve and no cache entry.

A set that pins every effect variable is skipped unsolved, whatever the
effect's form; when the candidate holds an effect variable, no set does.
AC2(a) needs the effect false on the pinned values of its variables, and
AC2(b) at the full re-imposition needs it true on the same values: each
effect variable that differs from the world under the candidate alone is
re-imposed, and the others keep that world's value, the pinned one.  A set
adding irrelevant pins to such a set is skipped as well, so the dead-set
bookkeeping is unchanged.
"""

from __future__ import annotations

import itertools
import operator
from typing import TYPE_CHECKING, Callable, Iterable, Mapping, Optional, Sequence

from .errors import DEFAULT_SEARCH_BUDGET, FormulaError, SearchBudgetExceeded
from .formula import (
    BooleanFormula,
    CandidateCause,
    Conjunction,
    Disjunction,
    Negation,
    PrimitiveEvent,
    compile_body,
)
from .model import (
    CausalModel,
    Context,
    Record,
    World,
    _check_events,
    _directions,
    _kernel,
    _reach_masks,
    _set,
    _settle,
    _start,
    check_context,
)

if TYPE_CHECKING:
    from .normality import NormalityOrder


class WitnessRecord(Record):
    """One passing choice of contingency set, pin values, and alternative.

    ``world`` is the solved result of imposing the alternative candidate
    values and the pins; distinct (w_set, w_values, x_prime) triples are kept
    separately even when they land on the same world.
    """

    def __init__(self, w_set: tuple[str, ...], w_values: tuple[int, ...],
                 x_prime: tuple[int, ...], world: World):
        _set(self, "w_set", w_set)
        _set(self, "w_values", w_values)
        _set(self, "x_prime", x_prime)
        _set(self, "world", world)


def _witness(w_set: tuple[str, ...], w_values: tuple[int, ...], x_prime: tuple[int, ...],
             variables: tuple[str, ...], values: tuple[int, ...]) -> WitnessRecord:
    """The witness record of values the search built, one per record it
    yields; its world skips ``World``'s length check, which they pass."""
    world = object.__new__(World)
    _set(world, "variables", variables)
    _set(world, "values", values)
    return WitnessRecord(w_set, w_values, x_prime, world)


class CauseVerdict(Record):
    """Outcome of one actual-cause query.

    In plain mode the normality-aware fields mirror the plain ones:
    ``admissible_witnesses`` equals ``hp_witnesses``, ``is_cause_extended`` is
    None, and ``best_witnesses`` lists every distinct witness world.
    """

    def __init__(self, cause: CandidateCause, effect: BooleanFormula, mode: str, ac1: bool,
                 hp_witnesses: tuple[WitnessRecord, ...],
                 admissible_witnesses: tuple[WitnessRecord, ...], ac3: bool,
                 is_cause_hp: bool, is_cause_extended: Optional[bool],
                 best_witnesses: tuple[World, ...], failed_clause: Optional[str]):
        """``mode`` is "hp" or "extended"."""
        super().__init__(cause, effect, mode, ac1, hp_witnesses, admissible_witnesses, ac3,
                         is_cause_hp, is_cause_extended, best_witnesses, failed_clause)

    @property
    def is_cause(self) -> bool:
        if self.mode == "extended":
            return bool(self.is_cause_extended)
        return self.is_cause_hp


class Engine:
    """Solver bound to one model and context, memoized per pin vector: the
    value pinned at each endogenous position, or None where none is."""

    def __init__(self, model: CausalModel, context: Context):
        model.require_valid()
        check_context(model, context)
        self.model = model
        self.endo = model.endogenous
        self.index = model._endo_index
        self.reach = _reach_masks(model)
        self._cache: dict[tuple, tuple[int, ...]] = {}
        # Per mask of pinned positions, the positions and the steps a solve
        # re-runs; with nothing pinned, the first solve runs them all.
        self._plans: dict[int, tuple] = {0: ((), _kernel(model))}
        self._env = _start(model, context)
        self.actual = self.solve_tuple((None,) * len(self.endo))
        self._env[:len(self.endo)] = self.actual

    def key(self, assignment: Mapping[str, int]) -> tuple:
        """The pin vector of an assignment to endogenous variables."""
        return tuple(map(assignment.get, self.endo))

    def plan(self, pinned: int) -> tuple:
        """The plan of a mask of pinned positions, built once per mask."""
        plan = self._plans.get(pinned)
        if plan is None:
            positions = tuple(i for i in range(len(self.endo)) if pinned >> i & 1)
            below = 0
            for i in positions:
                below |= self.reach[i]
            plan = self._plans[pinned] = (positions, tuple(
                step for step in self._plans[0][1] if (below & ~pinned) >> step[0] & 1))
        return plan

    def solve_tuple(self, key: tuple, plan: Optional[tuple] = None) -> tuple[int, ...]:
        """Endogenous values with the pin vector's values held, from the
        actual world by re-running only the pins' descendants' equations;
        ``plan`` is the plan of the key's mask, worked out when not given."""
        cached = self._cache.get(key)
        if cached is not None:
            return cached
        if plan is None:
            plan = self.plan(sum(1 << i for i, value in enumerate(key) if value is not None))
        positions, steps = plan
        env = self._env.copy()
        for i in positions:
            env[i] = key[i]
        values = _settle(self.model, env, steps)
        self._cache[key] = values
        return values

    def world(self, values: tuple[int, ...]) -> World:
        return World(self.endo, values)

    def actual_world(self) -> World:
        return self.world(self.actual)


def _check_cause(model: CausalModel, conjuncts: Sequence[PrimitiveEvent]):
    if len({c.variable for c in conjuncts}) != len(conjuncts):
        raise FormulaError("candidate cause repeats a variable")
    _check_events(model, ((c.variable, c.value) for c in conjuncts), "a candidate cause",
                  FormulaError)


_WitnessFilter = Optional[Callable[[World], bool]]


class CauseSearch:
    """Witness enumeration for one effect under one engine.

    A ``witness_filter`` (when given) keeps only the witness records whose
    world it accepts; this is how the normality-aware test narrows AC2(a).
    """

    def __init__(
        self,
        engine: Engine,
        effect: BooleanFormula,
        max_search: int = DEFAULT_SEARCH_BUDGET,
    ):
        self._phi = compile_body(engine.model, effect)
        self.engine = engine
        self.effect = effect
        self.max_search = max_search
        self._ac2b_cache: dict[tuple, bool] = {}
        self._effect_vars = _event_variables(effect)
        self._effect_mask = sum(1 << engine.index[v] for v in self._effect_vars)

    # -- clause checks ---------------------------------------------------------

    def ac1(self, conjuncts: Sequence[PrimitiveEvent]) -> bool:
        actual = self.engine.actual
        if not all(actual[self.engine.index[c.variable]] == c.value for c in conjuncts):
            return False
        return self._phi(actual)

    def ac2b(self, x_key: tuple, w_positions: Sequence[int], w_values: Sequence[int]) -> bool:
        """AC2(b) for the candidate's pin vector and a contingency's positions
        and values: the effect must survive re-imposing every sub-assignment,
        off the candidate, of the merged vector: the pins, elsewhere the
        actual values.

        Only positions downstream of a merged value that differs from
        ``base``, the world under the candidate alone, can change a solution,
        so only their sub-assignments are enumerated."""
        engine = self.engine
        designated = list(engine.actual)
        for i, value in zip(w_positions, w_values):
            designated[i] = value
        key = (x_key, tuple(designated))
        cached = self._ac2b_cache.get(key)
        if cached is not None:
            return cached
        phi = self._phi
        reach = engine.reach
        rest = [i for i, value in enumerate(x_key) if value is None]
        x_mask = (1 << len(x_key)) - 1 - sum(1 << i for i in rest)
        base = engine.solve_tuple(x_key, engine.plan(x_mask))
        changed = 0
        for i in rest:
            if designated[i] != base[i]:
                changed |= reach[i]
        positions = [i for i in rest if changed >> i & 1]
        result = True
        for size in range(len(positions) + 1):
            for subset in itertools.combinations(positions, size):
                assignment = list(x_key)
                pinned = x_mask
                for i in subset:
                    assignment[i] = designated[i]
                    pinned |= 1 << i
                if not phi(engine.solve_tuple(tuple(assignment), engine.plan(pinned))):
                    result = False
                    break
            if not result:
                break
        self._ac2b_cache[key] = result
        return result

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
        return list(self._search(conjuncts))

    def has_witness(self, conjuncts: Sequence[PrimitiveEvent],
                    witness_filter: _WitnessFilter = None) -> bool:
        """Whether some witness passes the filter."""
        return any(witness_filter is None or witness_filter(r.world)
                   for r in self._search(conjuncts))

    def _search(self, conjuncts: Sequence[PrimitiveEvent]):
        """Every witness record of the conjunction, in search order."""
        engine = self.engine
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
        x_vars = tuple(c.variable for c in conjuncts)
        actual_x = tuple(c.value for c in conjuncts)
        relevant, signs = _relevance_and_signs(model, x_vars, self._effect_vars)
        if all(signs[name] == 0 for name in self._effect_vars):
            return  # no candidate variable reaches the effect
        combos = [combo for combo in itertools.product(*(model.range_of(v) for v in x_vars))
                  if combo != actual_x]
        shifts = [_shift(actual_x, combo) for combo in combos]
        preserved = {s: s != 0 and _preserved(model, self.effect, signs, s) for s in set(shifts)}
        alternatives = [combo for combo, s in zip(combos, shifts) if not preserved[s]]
        if not alternatives:
            return
        index, reach, endo = engine.index, engine.reach, engine.endo
        x_positions = [index[v] for v in x_vars]
        x_mask = sum(1 << i for i in x_positions)
        x_key = engine.key({c.variable: c.value for c in conjuncts})
        rest = tuple(n for n in endo if n not in x_vars)
        bits = {n: 1 << index[n] for n in rest}
        ranges = {n: model.range_of(n) for n in rest}
        phi = self._phi
        solve = engine.solve_tuple
        # The passing alternatives of each passing setting of a relevant pin
        # set, by the set's mask, then by the setting's values.
        passed: dict[int, dict[tuple, list]] = {}
        effect_mask = self._effect_mask
        for size in range(len(rest) + 1):
            for w_vars in itertools.combinations(rest, size):
                w_mask = sum(map(bits.__getitem__, w_vars))
                if w_mask & effect_mask == effect_mask:
                    continue  # AC2(a) and AC2(b) would read the same effect
                w_positions = [index[v] for v in w_vars]
                settings = itertools.product(*map(ranges.__getitem__, w_vars))
                pinned = x_mask | w_mask
                if w_mask & relevant != w_mask:
                    decided = passed.get(w_mask & relevant)
                    if decided is None:
                        continue  # every setting of its relevant part fails
                    # Pins off the relevant set move no effect variable, so the
                    # relevant part's passing alternatives pass here unasked.
                    # ``overlay`` lays the pins and x' over ``base``: the actual
                    # world, which is the witness when no variable below a pin
                    # is left unpinned, or else the pin vector to solve.
                    kept = [k for k, i in enumerate(w_positions) if relevant >> i & 1]
                    source = list(range(len(endo)))
                    below = 0
                    for k, i in enumerate(w_positions + x_positions):
                        source[i] = len(endo) + k
                        below |= reach[i]
                    overlay = operator.itemgetter(*source)
                    plan = engine.plan(pinned) if below & ~pinned else None
                    base = engine.actual if plan is None else (None,) * len(endo)
                    for w_values in settings:
                        tried = decided.get(tuple(map(w_values.__getitem__, kept)))
                        if tried:
                            head = base + w_values
                            for alt in tried:
                                values = overlay(head + alt)
                                if plan is not None:
                                    values = solve(values, plan)
                                yield _witness(w_vars, w_values, alt, endo, values)
                    continue
                plan = engine.plan(pinned)
                for w_values in settings:
                    key = list(x_key)
                    for i, value in zip(w_positions, w_values):
                        key[i] = value
                    falsifying = []
                    for alt in alternatives:
                        for i, value in zip(x_positions, alt):
                            key[i] = value
                        witness = solve(tuple(key), plan)
                        if not phi(witness):
                            falsifying.append((alt, witness))
                    if falsifying and self.ac2b(x_key, w_positions, w_values):
                        passed.setdefault(w_mask, {})[w_values] = [alt for alt, _ in falsifying]
                        for alt, witness in falsifying:
                            yield _witness(w_vars, w_values, alt, endo, witness)

    def ac3(self, conjuncts: Sequence[PrimitiveEvent],
            witness_filter: _WitnessFilter = None) -> bool:
        """Minimality: no strict nonempty sub-conjunction already passes."""
        if len(conjuncts) == 1:
            return True
        for size in range(1, len(conjuncts)):
            for subset in itertools.combinations(conjuncts, size):
                if self.has_witness(subset, witness_filter):
                    return False
        return True


def _relevance_and_signs(model: CausalModel, x_vars: Sequence[str],
                         effect_vars: set[str]) -> tuple[int, dict[str, Optional[int]]]:
    """The candidate's relevant mask and the sign of each endogenous variable.

    A position is relevant when a path of references, each with a direction
    other than 0 (an unknown direction counts), leads from it to an effect
    variable without passing through a candidate variable.  A sign says how a
    variable moves when the candidate's variables all rise, None when that is
    unknown: +1 on those variables, worked out in topological order on the
    relevant positions below them, and 0 everywhere else."""
    index = model._endo_index
    reach = _reach_masks(model)
    downstream = 0
    for name in x_vars:
        downstream |= reach[index[name]]
    order = model.topological_order()
    reaching = set(effect_vars)
    mask = 0
    walk = []
    for name in reversed(order):
        if name in reaching and name not in x_vars:
            bit = 1 << index[name]
            mask |= bit
            ways = _directions(model, name)
            for parent, way in ways.items():
                if way != 0:
                    reaching.add(parent)
            if downstream & bit:
                walk.append((name, ways))
    signs: dict[str, Optional[int]] = dict.fromkeys(order, 0)
    for name in x_vars:
        signs[name] = 1
    for name, ways in reversed(walk):
        sign = 0
        for parent, way in ways.items():
            parent_sign = signs.get(parent, 0)
            if parent_sign == 0 or way == 0:
                continue
            if parent_sign is None or way is None or sign not in (0, way * parent_sign):
                sign = None
                break
            sign = way * parent_sign
        signs[name] = sign
    return mask, signs


def _event_variables(body: BooleanFormula) -> set[str]:
    """The variables the formula's events name."""
    if isinstance(body, PrimitiveEvent):
        return {body.variable}
    operands = (body.operand,) if isinstance(body, Negation) else body.operands
    return set().union(*map(_event_variables, operands))


def _preserved(model: CausalModel, body: BooleanFormula,
               signs: dict[str, Optional[int]], s: int) -> bool:
    """Whether the effect holding under the candidate's actual values implies
    it holding under any alternative shifted the way ``s`` says, the pins
    held alike in both worlds."""
    if isinstance(body, PrimitiveEvent):
        sign = signs[body.variable]
        if sign is None:
            return False
        values = model.range_of(body.variable)
        return sign == 0 or body.value == (max(values) if sign * s > 0 else min(values))
    if isinstance(body, (Conjunction, Disjunction)):
        return all(_preserved(model, op, signs, s) for op in body.operands)
    return False


def _shift(actual: tuple[int, ...], alternative: tuple[int, ...]) -> int:
    """1 when the alternative is componentwise at or above the actual
    values, -1 when at or below, 0 otherwise."""
    if all(a >= b for a, b in zip(alternative, actual)):
        return 1
    if all(a <= b for a, b in zip(alternative, actual)):
        return -1
    return 0


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
    x_vars = [c.variable for c in conjuncts]
    if set(w_set) & set(x_vars):
        raise FormulaError("contingency set overlaps the candidate cause")
    if len(set(w_set)) != len(tuple(w_set)):
        raise FormulaError("contingency set repeats a variable")
    if len(w_set) != len(w_values) or len(x_prime) != len(x_vars):
        raise FormulaError("mismatched setting lengths")
    _check_events(model, zip(w_set, w_values), "a contingency", FormulaError)
    _check_cause(model, [PrimitiveEvent(*e) for e in zip(x_vars, x_prime)])
    pins = dict(zip(w_set, w_values))
    witness = engine.solve_tuple(engine.key({**dict(zip(x_vars, x_prime)), **pins}))
    if search._phi(witness):  # AC2(a) needs the effect to fail
        return False
    return search.ac2b(engine.key({c.variable: c.value for c in conjuncts}),
                       list(map(engine.index.get, w_set)), w_values)


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
    conjuncts = _conjuncts(cause)
    engine = Engine(model, context)
    search = CauseSearch(engine, effect, max_search=max_search)
    _check_cause(model, conjuncts)
    return search.enumerate(conjuncts)


def is_actual_cause(
    model: CausalModel,
    context: Context,
    cause: CandidateCause | Sequence[PrimitiveEvent],
    effect: BooleanFormula,
    max_search: int = DEFAULT_SEARCH_BUDGET,
) -> CauseVerdict:
    """Plain-mode verdict: AC1, witness enumeration, and AC3."""
    return _verdicts(model, context, (cause,), effect, max_search, None)[0]


def _verdicts(
    model: CausalModel,
    context: Context,
    causes: Iterable[CandidateCause | Sequence[PrimitiveEvent]],
    effect: BooleanFormula,
    max_search: int,
    order: Optional[NormalityOrder],
) -> tuple[CauseVerdict, ...]:
    """Verdicts of the plain test, or of the normality-filtered one when an
    order is given, for each candidate in turn on one search.

    The filtered test uses one witness filter for the whole call, decided once
    per distinct witness world, so the candidates share its answers.  The best
    witnesses compare worlds pairwise, so the order should read each world's
    key once (a ``_QueryOrder`` made for this call)."""
    causes = [c if isinstance(c, CandidateCause) else CandidateCause(tuple(c))
              for c in causes]
    engine = Engine(model, context)
    search = CauseSearch(engine, effect, max_search=max_search)
    if order is not None:
        actual = engine.actual_world()
        admitted: dict[tuple, bool] = {}

        def admits(world: World) -> bool:
            found = admitted.get(world.values)
            if found is None:
                found = admitted[world.values] = order.admits(world, actual)
            return found

    verdicts = []
    for cause in causes:
        conjuncts = cause.conjuncts
        _check_cause(model, conjuncts)
        ac1 = search.ac1(conjuncts)
        hp_witnesses = tuple(search.enumerate(conjuncts))
        ac3_hp = search.ac3(conjuncts)
        is_hp = bool(ac1 and hp_witnesses and ac3_hp)
        values = list(map(operator.attrgetter("world.values"), hp_witnesses))
        if order is None:
            admissible, ac3, is_extended = hp_witnesses, ac3_hp, None
            best = tuple(map(engine.world, sorted(set(values))))
        else:
            admitted_worlds = [w for w in map(engine.world, set(values)) if admits(w)]
            kept = {w.values for w in admitted_worlds}
            admissible = tuple(itertools.compress(hp_witnesses, map(kept.__contains__, values)))
            ac3 = search.ac3(conjuncts, admits)
            is_extended = bool(ac1 and admissible and ac3)
            best = best_witnesses(order, admitted_worlds)
        if not ac1:
            failed = "AC1"
        elif not admissible:
            failed = "AC2"
        elif not ac3:
            failed = "AC3"
        else:
            failed = None
        verdicts.append(CauseVerdict(
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
        ))
    return tuple(verdicts)


def best_witnesses(
    order: NormalityOrder, worlds: Iterable[World]
) -> tuple[World, ...]:
    """Maximal worlds under the order, deduplicated, in value order."""
    from .normality import Relation

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
    chosen variable at its solved value, and every candidate is valid by
    construction.  AC1 is then the same for every candidate, the effect
    holding, and is asked once.  AC3 runs no search: a candidate fails it
    exactly when its variables hold those of a cause already found.  When
    some strict sub-conjunction has a witness, a minimal one does too, and
    sizes go up, so that one was found.
    """
    if max_conjuncts < 1:
        raise FormulaError("max_conjuncts must be at least 1")
    engine = Engine(model, context)
    search = CauseSearch(engine, effect, max_search=max_search)
    actual = engine.actual
    found: list[CandidateCause] = []
    if not search.ac1(()):
        return found
    for size in range(1, min(max_conjuncts, len(engine.endo)) + 1):
        for names in itertools.combinations(engine.endo, size):
            conjuncts = tuple(
                PrimitiveEvent(n, actual[engine.index[n]]) for n in names
            )
            # budget_for(S) <= max over b in S of budget_for({b}), each searched
            # at size 1, so no search skipped here could go over the budget.
            chosen = set(names)
            if any(chosen.issuperset(cause.variables()) for cause in found):
                continue
            if not search.has_witness(conjuncts):
                continue
            found.append(CandidateCause(conjuncts))
    return found


def _conjuncts(
    cause: CandidateCause | Sequence[PrimitiveEvent],
) -> tuple[PrimitiveEvent, ...]:
    if isinstance(cause, CandidateCause):
        return cause.conjuncts
    return tuple(cause)
