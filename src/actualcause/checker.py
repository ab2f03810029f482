"""Actual-cause test: factuality, contingent dependence, and minimality.

The test has three clauses.  AC1 asks that the candidate and the effect both
hold in the solved world.  AC2 asks for a contingency: variables outside the
candidate may be pinned to chosen values so that flipping the candidate flips
the effect (AC2a), while re-imposing any mix of those pins and of actual
values on the remaining variables keeps the effect intact under the actual
candidate values (AC2b).  AC3 prunes candidates with a smaller working core.

Search layout: contingency sets grow by cardinality and settings are visited
in range order, so smaller witnesses surface first and results are
deterministic.  A counterfactual is one call of the model's generated solve
kernel (``model._kernel``), memoized per pin vector: it reads the actual
world and re-runs only the equations of the pins' descendants.  Those make
the plan, a run mask worked out once per mask of pinned positions; a
contingency set looks up its plan once for all its settings, and each
AC2(b) sub-assignment solves through its own mask's plan.  The AC2(b)
quantifier collapses onto the merged pin/actual vector, memoized as well.
The candidate sweep decides AC3 with no search: it refutes a candidate
holding the variables of a cause it already found.  A public entry point
checks each candidate once, where it enters; the search takes it as valid.
AC1 makes the candidate actual, so it leaves the model in the actual world,
and AC2(b) enumerates only the re-impositions of variables downstream of a
pin off its actual value: by induction in topological order, every other
variable keeps its actual value under any sub-assignment, so re-imposing it
is a no-op.

The normality-aware test of the graded module reuses this search: the search
yields every witness record, and ``has_witness`` and ``ac3`` apply a witness
filter to those records, dropping each whose world the filter rejects.  AC2(b)
does not depend on the filter, so a plain and a filtered AC3 on one search
share its AC2(b) memo; the filter only drops witnesses, so the filtered AC3
runs only where the plain one fails.  Both tests assemble their verdicts in
one place, ``_verdicts``, which decides every candidate of a call on one
search.  Its filter is one closure per call that asks the order once per
distinct witness world; that memo, like the search's, lives as long as the
call.  The search builds each witness world once, for every candidate and
AC3 sub-search of the call: records on one world share one ``World``
object, by which ``_verdicts`` tells the distinct worlds apart without
hashing their values.

Before the search, one backward pass per effect variable Y, up its
references and stopping at the candidate's variables X, gives Y's sign with
respect to each variable v it reaches.  An equation's direction in a parent
is 0, +1 or -1 when it is constant, non-decreasing or non-increasing in that
parent, and None when it is mixed, or unknown past ``model.DIRECTION_CAP``
combinations of its references.  The sign is the common product of the
directions along the paths of non-zero direction from v to Y that pass
through no variable of X, None when two paths disagree or a direction is
None: how Y moves as v rises, X held.  A variable off X is relevant when a
pass reaches it.  One reader, ``_kept_ways``, reads these passes for the
effect's monotonicity along a set of variables that rise together: Y moves
with them by the common value of Y's signs over them, 0 when the pass
reaches none of them (along X, +1 when Y is in X).  Take an alternative
x' >= x componentwise (s = +1) or x' <= x (s = -1), x the candidate's actual
values.  When the effect is built from events with & and | alone, and each
event Y=v has sign 0 along X, or sign times s = +1 with v the top of Y's
range, or -1 with v its bottom, then the effect under x and any pins implies
the effect under x' and the same pins.  AC2(b) needs the former and AC2(a)
the negation of the latter, so no witness uses x', in plain and
normality-aware tests alike, and the search drops x'.  When no pass reaches
a candidate variable, the search refutes the candidate outright.  The
candidate is pinned in every world the test solves, to x or to x', so a pin
off the relevant set moves no effect variable: a setting passes AC2(a) with
an alternative, and AC2(b), exactly when its relevant part does.  Sets are visited by size, so a
relevant pin set is decided before any set that adds irrelevant pins to it.
If none of its settings passed, it is dead and those sets are skipped
without a solve; otherwise they take the alternatives that passed without
evaluating the effect (a set that adds no relevant pin looks them up once),
and build only each record's world, which the witness filter sees.  When
the reach masks leave no variable below a pin or the candidate unpinned,
the plan is empty and that world is the actual one with the pins and x'
laid over it: no solve and no cache entry.  One loop builds every record
in place, with no call per record.

The same reader, read along one variable v off X, gives v's monotonicity
record (``CauseSearch._side``), one per candidate and variable: the kept
ways, v's worst value, where the effect holds least, and its best, where it
holds most (the bottom and the top of v's range when the up way is kept,
else the top and the bottom).  A pin with a kept way is monotone (the rule
``monotone-pins``): the effect holding with v at a implies it holding with
v at any b nearer v's best value, X and the other pins held alike, since
pinning a variable only cuts paths.  So AC2(a) with x' fails at a setting
one step towards v's best value from a setting where the effect held.  The
search keeps, per setting of a relevant pin set, the alternatives under
which the effect held, solved or taken over in this way, and solves at a
setting only the alternatives that its earlier neighbours along its
monotone pins leave open; a setting they all close is not solved, nor is
AC2(b) asked there.  The neighbour is v's numeric one, read in product order
only when it comes earlier in v's range: with v : {2,1,0} the value below 1
is 0, which comes later, so the setting at 1 is solved.  The records and
their order are unchanged: an alternative whose effect holds yields none.

A relevant pin set whose pins are all monotone is decided at its corner,
each pin at its worst value (the rule ``monotone-sets``).  If the effect
holds there under every alternative left, then, moving one pin at a time,
it holds at every setting, so no setting passes AC2(a): the set yields
nothing and is dead, just as when every setting is solved.  The corner is
solved ahead of the set when product order reaches it later; when it is
the set's first setting, the search stops after it.

The record settles AC2(b) too (the rule ``monotone-ac2b``).  Take a position
v that AC2(b) would vary, d its merged value.  A sub-assignment that leaves
v out solves v to some a, and re-imposing d moves v from a to d.  When d is
v's best value, or both ways are kept, as when the effect does not read v,
re-imposing d can only help, so v is never re-imposed; when d is v's worst
value, it can only hurt, so v is re-imposed in every sub-assignment.  This
holds under any other pins, since pins only cut paths, so each step from a
sub-assignment towards the worst one, adding a hurting position or dropping
a helping one, never makes the effect hold where it failed.  The effect thus
holds under every sub-assignment when it holds under every sub-assignment
of the positions left open, each with the hurting positions re-imposed.

A set that pins every effect variable is skipped unsolved, whatever the
effect's form; when the candidate holds an effect variable, no set does.
AC2(a) needs the effect false on the pinned values of its variables, and
AC2(b) at the full re-imposition needs it true on the same values: an
effect variable at or below a pin off its actual value is re-imposed, and
any other keeps its actual value, the pinned one.  A set adding irrelevant
pins to such a set is skipped as well, so the dead-set bookkeeping is
unchanged.

The candidate sweep searches one candidate per orbit (the rule
``symmetry``).  Two endogenous variables are interchangeable when swapping
them maps the equations under the context onto themselves, as
``symmetry._classes`` finds once per model and context values.  Such a swap is
an automorphism of (M, u): it maps the actual world onto itself, so it
carries a candidate at its actual values onto another one at theirs, and
each witness of the one onto a witness of the other, pins swapped along,
as long as the effect reads the swapped worlds as it read the first ones.
So the sweep splits the effect's variables out of their classes: every swap
it uses then fixes each event of the effect.  A candidate's orbit is the
sorted tuple of its variables' class labels, and the first candidate of an
orbit decides the answer of all.  Swapped variables have equal range tuples,
so every member of an orbit has the same budget, and the first one raises
where any would.

Each of these rules has a name in ``_RULES``; the soundness tests switch
them off one at a time and check that no answer moves.
"""

from __future__ import annotations

import functools
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
    _kernel,
    _lineage,
    _reach_masks,
    _set,
    _start,
    check_context,
)

if TYPE_CHECKING:
    from .normality import NormalityOrder


class WitnessRecord(Record):
    """One passing choice of contingency set, pin values, and alternative.

    ``world`` is the solved result of imposing the alternative candidate
    values and the pins; distinct (w_set, w_values, x_prime) triples are kept
    separately even when they land on the same world.  Records of one search
    that land on one world may share one ``World`` object, so compare worlds
    with ``==``, not ``is``.
    """

    def __init__(self, w_set: tuple[str, ...], w_values: tuple[int, ...],
                 x_prime: tuple[int, ...], world: World):
        _set(self, "w_set", w_set)
        _set(self, "w_values", w_values)
        _set(self, "x_prime", x_prime)
        _set(self, "world", world)


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
        self.ranges = {name: model.range_of(name) for name in self.endo}
        self._cache: dict[tuple, tuple[int, ...]] = {}
        # Per mask of pinned positions, the run mask of its solves.
        self._plans: dict[int, int] = {}
        self._settle = _kernel(model)
        self._env = _start(model, context)
        self.actual = self.solve_tuple(model._pins, -1)
        self._env[:len(self.endo)] = self.actual

    def key(self, assignment: Mapping[str, int]) -> tuple:
        """The pin vector of an assignment to endogenous variables."""
        return tuple(map(assignment.get, self.endo))

    def plan(self, pinned: int) -> int:
        """The run mask of a mask of pinned positions: the positions below a
        pin that no pin holds, built once per mask from its set bits."""
        run = self._plans.get(pinned)
        if run is None:
            below, rest, reach = 0, pinned, self.reach
            while rest:
                below |= reach[(rest & -rest).bit_length() - 1]
                rest &= rest - 1
            run = self._plans[pinned] = below & ~pinned
        return run

    def solve_tuple(self, key: tuple, plan: Optional[int] = None) -> tuple[int, ...]:
        """Endogenous values with the pin vector's values held, from the
        actual world by re-running only the pins' descendants' equations;
        ``plan`` is the run mask of the key's mask, worked out when not
        given."""
        cached = self._cache.get(key)
        if cached is not None:
            return cached
        if plan is None:
            plan = self.plan(sum(1 << i for i, value in enumerate(key) if value is not None))
        values = self._cache[key] = self._settle(key, plan, self._env)
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

# The search's pruning rules, by name.  Each is exact: switched off here, a
# rule's work is done and the answers stay the same, which the soundness
# tests check one rule at a time.
_RULES = dict.fromkeys(("no-reach", "monotone-alternatives", "decided-sets", "effect-mask",
                        "ac2b-changed", "sweep-subsets", "monotone-pins", "symmetry",
                        "monotone-ac2b", "monotone-sets"), True)


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
        # Every witness world the search built, by value tuple: records on
        # one world share it.
        self._worlds: dict[tuple, World] = {}
        self._effect_vars = _event_variables(effect)
        self._effect_mask = sum(1 << engine.index[v] for v in self._effect_vars)
        # Per candidate mask, its ``_effect_signs`` passes; per candidate
        # mask and position, its ``_side`` record.
        self._passes: dict[int, tuple[int, dict[str, _Signs]]] = {}
        self._sides: dict[tuple[int, int], tuple[int, Optional[int], Optional[int]]] = {}

    def _signs(self, x_mask: int,
               x_vars: Optional[Sequence[str]] = None) -> tuple[int, dict[str, _Signs]]:
        """The relevant mask and the effect passes of the candidate at
        ``x_mask``, worked out on first use from its variables ``x_vars``,
        read off the mask when not given."""
        passes = self._passes.get(x_mask)
        if passes is None:
            if x_vars is None:
                x_vars = [n for k, n in enumerate(self.engine.endo) if x_mask >> k & 1]
            passes = self._passes[x_mask] = _effect_signs(self.engine.model, x_vars,
                                                          self._effect_vars)
        return passes

    def _side(self, x_mask: int, paths: dict[str, _Signs],
              i: int) -> tuple[int, Optional[int], Optional[int]]:
        """The monotonicity record of the relevant variable at position
        ``i``, read once from the passes ``paths`` of the candidate at
        ``x_mask``: the kept ways along it, its worst value and its best, both
        None when no way is kept.  ``monotone-pins`` reads its ways,
        ``monotone-sets`` its worst value and ``monotone-ac2b`` all three."""
        side = self._sides.get((x_mask, i))
        if side is None:
            name = self.engine.endo[i]
            values = self.engine.ranges[name]
            way = _kept_ways(self.engine.model, self.effect, paths, (name,))
            low, high = min(values), max(values)
            side = self._sides[x_mask, i] = ((way, low, high) if way & _UP else
                                             (way, high, low) if way else (0, None, None))
        return side

    # -- clause checks ---------------------------------------------------------

    def ac1(self, conjuncts: Sequence[PrimitiveEvent]) -> bool:
        actual = self.engine.actual
        if not all(actual[self.engine.index[c.variable]] == c.value for c in conjuncts):
            return False
        return self._phi(actual)

    def ac2b(self, x_key: tuple, x_mask: int, w_positions: Sequence[int],
             w_values: Sequence[int]) -> bool:
        """AC2(b) for the candidate's pin vector and position mask and a
        contingency's positions and values: the effect must survive
        re-imposing every sub-assignment, off the candidate, of the merged
        vector: the pins, elsewhere the actual values.

        When the candidate holds, only positions downstream of a pin off its
        actual value can change a solution, so only their sub-assignments
        are enumerated; a candidate off its actual values re-imposes every
        position.  Of those, a position whose merged value is its best is
        never re-imposed, and one whose merged value is its worst always is
        (the rule ``monotone-ac2b``)."""
        engine = self.engine
        actual, reach = engine.actual, engine.reach
        designated = list(actual)
        changed = 0
        for i, value in zip(w_positions, w_values):
            if value != actual[i]:
                designated[i] = value
                changed |= reach[i]
        key = (x_key, tuple(designated))
        cached = self._ac2b_cache.get(key)
        if cached is not None:
            return cached
        phi = self._phi
        if not _RULES["ac2b-changed"] or any(v not in (None, a) for v, a in zip(x_key, actual)):
            changed = -1  # every position
        fixed, fixed_mask = list(x_key), x_mask
        monotone = changed and _RULES["monotone-ac2b"]
        if monotone:
            relevant, paths = self._signs(x_mask)
            changed &= relevant  # a position no effect pass reaches moves no effect variable
        changed &= ~x_mask
        positions = [i for i in range(len(actual)) if changed >> i & 1]
        if monotone:
            free = []
            for i in positions:
                way, worst, best = self._side(x_mask, paths, i)
                value = designated[i]
                if value == best or way == _UP | _DOWN:
                    continue  # re-imposing it can only help
                if value == worst:
                    fixed[i] = value
                    fixed_mask |= 1 << i
                else:
                    free.append(i)
            positions = free
        result = True
        for size in range(len(positions) + 1):
            for subset in itertools.combinations(positions, size):
                assignment = fixed.copy()
                pinned = fixed_mask
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
        ranges = self.engine.ranges
        x_vars = {c.variable for c in conjuncts}
        total = 1
        for name, values in ranges.items():
            if name not in x_vars:
                total *= 1 + len(values)
        alternatives = 1
        for c in conjuncts:
            alternatives *= len(ranges[c.variable])
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
        rules = _RULES
        index, endo = engine.index, engine.endo
        x_vars = tuple(c.variable for c in conjuncts)
        actual_x = tuple(c.value for c in conjuncts)
        x_positions = [index[v] for v in x_vars]
        x_mask = sum(1 << i for i in x_positions)
        relevant, paths = self._signs(x_mask, x_vars)
        if rules["no-reach"] and all(map(set(x_vars).isdisjoint, paths.values())):
            return  # no candidate variable reaches the effect
        ranges = engine.ranges
        kept = rules["monotone-alternatives"] and _kept_ways(model, self.effect, paths, x_vars)
        alternatives = [combo for combo in itertools.product(*map(ranges.__getitem__, x_vars))
                        if combo != actual_x and not kept & _shift(actual_x, combo)]
        if not alternatives:
            return
        # Sets of alternatives are bits: each alternative goes with its own.
        full = (1 << len(alternatives)) - 1
        alternatives = [(alt, 1 << j) for j, alt in enumerate(alternatives)]
        x_key = engine.key({c.variable: c.value for c in conjuncts})
        rest = tuple(n for n in endo if n not in x_vars)
        bits = {n: 1 << index[n] for n in rest}
        if not rules["decided-sets"]:
            relevant = sum(bits.values())
        monotone: set[str] = set()
        phi = self._phi
        solve = engine.solve_tuple
        worlds = self._worlds
        new, setter, memo = object.__new__, _set, engine._cache.__getitem__
        # The passing alternatives of each passing setting of a relevant pin
        # set, by the set's mask, then by the setting's values.
        passed: dict[int, dict[tuple, list]] = {}
        # With the rule off, a bit no set pins.
        effect_mask = self._effect_mask if rules["effect-mask"] else 1 << len(endo)
        pool: tuple[str, ...] = ()
        for size in range(len(rest) + 1):
            if size == 1:
                # Worked out once the empty set is decided, since a witness
                # there often ends the search.  A set holding the effect's
                # one variable pins all of it, so none is made.
                pool = tuple(n for n in rest if bits[n] != effect_mask)
                # Per pin, how many positions back in its range each value's
                # numeric neighbour on the side where the effect holds less
                # sits: 0 when none does, it comes later or the effect is not
                # known to be monotone along the pin.
                backs = {name: (0,) * len(ranges[name]) for name in pool}
                # Per monotone relevant pin, its corner, its worst value;
                # ``firsts`` holds the pins whose corner leads its range.
                corners: dict[str, int] = {}
                firsts: set[str] = set()
                for name in pool:
                    way, corner, _ = (self._side(x_mask, paths, index[name])
                                      if relevant & bits[name] else (0, None, None))
                    if way:
                        values = ranges[name]
                        if rules["monotone-pins"]:
                            backs[name] = _neighbours(values, 1 if way & _UP else -1)
                        if rules["monotone-sets"]:
                            corners[name] = corner
                            if corner == values[0]:
                                firsts.add(name)
                monotone = {name for name, back in backs.items() if any(back)}
                cornered = set(corners)
            for w_vars in itertools.combinations(pool, size):
                w_mask = sum(map(bits.__getitem__, w_vars))
                if w_mask & effect_mask == effect_mask:
                    continue  # AC2(a) and AC2(b) would read the same effect
                decided = None
                if w_mask & relevant != w_mask:
                    decided = passed.get(w_mask & relevant)
                    if decided is None:
                        continue  # every setting of its relevant part fails
                plan = engine.plan(x_mask | w_mask)
                w_positions = [index[v] for v in w_vars]
                settings = itertools.product(*map(ranges.__getitem__, w_vars))
                # ``overlay`` lays the pins and x' over a vector of values or
                # pins: ``overlay(base + w_values + alt)``.  An itemgetter of
                # one position returns a bare value, of a slice a tuple.
                source = list(range(len(endo)))
                for k, i in enumerate(w_positions + x_positions):
                    source[i] = len(endo) + k
                overlay = operator.itemgetter(*source if len(source) > 1
                                              else [slice(source[0], source[0] + 1)])
                if decided is None:
                    # A solved setting's witnesses are in the engine's memo.
                    base, resolve = x_key, memo
                else:
                    # Pins off the relevant set move no effect variable, so the
                    # relevant part's passing alternatives pass here unasked,
                    # looked up once when the set pins no relevant variable.
                    # The witness is the actual world with the pins and x'
                    # laid over it when no variable below a pin is left
                    # unpinned, an empty plan, or else the solve of the pins.
                    kept = [k for k, i in enumerate(w_positions) if relevant >> i & 1]
                    pick = kept and operator.itemgetter(
                        *kept if len(kept) > 1 else [slice(kept[0], kept[0] + 1)])
                    tried = None if kept else decided[()]
                    base = x_key if plan else engine.actual
                    resolve = (lambda key: solve(key, plan)) if plan else None
                # With every pin monotone, the effect holding at the corner
                # under each alternative holds at every setting, which then
                # yield nothing: decide the corner first, or, when product
                # order reaches it first, stop after that setting.
                at_corner = decided is None and w_vars and cornered.issuperset(w_vars)
                if at_corner and not firsts.issuperset(w_vars):
                    head = x_key + tuple(map(corners.__getitem__, w_vars))
                    if all(phi(solve(overlay(head + alt), plan)) for alt, _ in alternatives):
                        continue
                    at_corner = False
                # Per setting in product order, the earlier settings that are
                # its numeric neighbours along a monotone pin, as distances,
                # and the alternatives (bits) under which the effect held at
                # each setting so far: where it held at a neighbour, it holds.
                links = itertools.repeat(())
                if decided is None and not monotone.isdisjoint(w_vars):
                    stride, steps = 1, []
                    for name in reversed(w_vars):
                        steps.append(tuple(map(stride.__mul__, backs[name])))
                        stride *= len(backs[name])
                    links = map(filter, itertools.repeat(None), itertools.product(*reversed(steps)))
                holds: list[int] = []
                for w_values, link in zip(settings, links):
                    if decided is None:
                        held = 0
                        for back in link:
                            held |= holds[-back]
                            if held == full:
                                break
                        if held == full:
                            holds.append(held)
                            continue
                        head = base + w_values
                        tried = []
                        for alt, bit in alternatives:
                            if not held & bit:
                                if phi(solve(overlay(head + alt), plan)):
                                    held |= bit
                                else:
                                    tried.append(alt)
                        holds.append(held)
                        if at_corner:  # the first setting is the corner
                            if not tried:
                                break
                            at_corner = False
                        if not tried or not self.ac2b(x_key, x_mask, w_positions, w_values):
                            continue
                        passed.setdefault(w_mask, {})[w_values] = tried
                    elif pick:
                        tried = decided.get(pick(w_values))
                        if not tried:
                            continue
                    # Each record, and on first use its world, which skips
                    # ``World``'s length check, is built in place: records on
                    # one world share it.
                    for alt in tried:
                        values = overlay(base + w_values + alt)
                        if resolve is not None:
                            values = resolve(values)
                        world = worlds.get(values)
                        if world is None:
                            world = worlds[values] = new(World)
                            setter(world, "variables", endo)
                            setter(world, "values", values)
                        record = new(WitnessRecord)
                        setter(record, "w_set", w_vars)
                        setter(record, "w_values", w_values)
                        setter(record, "x_prime", alt)
                        setter(record, "world", world)
                        yield record

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


_Signs = dict[str, Optional[int]]


def _effect_signs(model: CausalModel, x_vars: Sequence[str],
                  effect_vars: set[str]) -> tuple[int, dict[str, _Signs]]:
    """One backward pass per effect variable, up its references and stopping
    at the candidate's variables, which every world of the test pins.

    The pass from Y gives Y's sign with respect to each variable it reaches
    along references of direction other than 0: how Y moves when that
    variable rises, the candidate and nothing else held; +1 on Y itself, and
    None when paths disagree or a direction is None; no sign is 0, so a
    variable the pass reaches is one it holds.  Returns the relevant mask
    (the positions off the candidate that some pass reaches) and the
    passes' signs by effect variable, which ``_kept_ways`` reads."""
    index = model._endo_index
    paths: dict[str, _Signs] = {}
    relevant = 0
    for target in effect_vars:
        found: _Signs = {target: 1}
        paths[target] = found
        if target in x_vars:
            continue
        for name, parents in _lineage(model, target):
            sign = found.get(name, 0)
            if sign == 0 or name in x_vars:
                continue
            relevant |= 1 << index[name]
            for parent, way in parents:
                step = sign * way if sign and way else None
                found[parent] = step if found.get(parent, step) == step else None
    return relevant, paths


def _event_variables(body: BooleanFormula) -> set[str]:
    """The variables the formula's events name."""
    if isinstance(body, PrimitiveEvent):
        return {body.variable}
    operands = (body.operand,) if isinstance(body, Negation) else body.operands
    return set().union(*map(_event_variables, operands))


# Shifts of some variables, as bits: up and down.
_UP, _DOWN = 1, 2


def _kept_ways(model: CausalModel, body: BooleanFormula, paths: dict[str, _Signs],
               names: Sequence[str]) -> int:
    """The shifts of ``names``, all up (``_UP``) or all down (``_DOWN``),
    that keep the effect holding, everything else alike: Y moves with them by
    the common sign over them of its pass in ``paths``, 0 when it reaches
    none.  An event Y=v is kept by a shift that never moves Y, or moves it
    towards v at the top or the bottom of Y's range."""
    if isinstance(body, PrimitiveEvent):
        found, sign = paths[body.variable], 0
        for name in names:
            step = found.get(name, 0)
            if step is None or step * sign < 0:
                return 0  # unknown, or the names move Y both ways
            sign = sign or step
        if sign == 0:
            return _UP | _DOWN
        values = model.range_of(body.variable)
        top, bottom = body.value == max(values), body.value == min(values)
        if sign < 0:
            top, bottom = bottom, top
        return top * _UP | bottom * _DOWN
    if isinstance(body, (Conjunction, Disjunction)):
        ways = _UP | _DOWN
        for operand in body.operands:
            ways &= _kept_ways(model, operand, paths, names)
        return ways
    return 0


@functools.lru_cache(maxsize=256)
def _neighbours(values: tuple[int, ...], way: int) -> tuple[int, ...]:
    """Per position of a range, how many positions back its numeric
    neighbour below (``way`` 1) or above (-1) sits; 0 when it has none or
    the neighbour comes later in the range, as in ``{2,1,0}`` going up."""
    ranked = sorted(range(len(values)), key=lambda p: values[p] * way)
    backs = [0] * len(values)
    for lower, p in zip(ranked, ranked[1:]):
        if lower < p:
            backs[p] = p - lower
    return tuple(backs)


def _shift(actual: tuple[int, ...], alternative: tuple[int, ...]) -> int:
    """``_UP`` when the alternative is componentwise at or above the actual
    values, ``_DOWN`` when at or below, 0 otherwise."""
    if all(a >= b for a, b in zip(alternative, actual)):
        return _UP
    if all(a <= b for a, b in zip(alternative, actual)):
        return _DOWN
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
    """AC2 for one contingency, the pins ``w_set`` at ``w_values``, and one
    alternative ``x_prime``: the effect fails under the alternative and the
    pins (AC2(a)), and survives every AC2(b) re-imposition under the
    candidate.  A candidate off its actual values is accepted, and AC2(b)
    then re-imposes every position."""
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
                       sum(1 << engine.index[v] for v in x_vars),
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
        # By world object, which the search keeps for the call.
        admitted: dict[int, bool] = {}

        def admits(world: World) -> bool:
            found = admitted.get(id(world))
            if found is None:
                found = admitted[id(world)] = order.admits(world, actual)
            return found

    verdicts = []
    for cause in causes:
        conjuncts = cause.conjuncts
        _check_cause(model, conjuncts)
        ac1 = search.ac1(conjuncts)
        hp_witnesses = tuple(search.enumerate(conjuncts))
        ac3_hp = search.ac3(conjuncts)
        is_hp = bool(ac1 and hp_witnesses and ac3_hp)
        # The distinct witness worlds, told apart by object: the search
        # builds one per value tuple.
        worlds = list(map(operator.attrgetter("world"), hp_witnesses))
        ids = list(map(id, worlds))
        distinct = dict(zip(ids, worlds)).values()
        if order is None:
            admissible, ac3, is_extended = hp_witnesses, ac3_hp, None
            best = tuple(sorted(distinct, key=operator.attrgetter("values")))
        else:
            admitted_worlds = list(filter(admits, distinct))
            kept = set(map(id, admitted_worlds))
            admissible = tuple(itertools.compress(hp_witnesses, map(kept.__contains__, ids)))
            ac3 = ac3_hp or search.ac3(conjuncts, admits)
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
    """Maximal worlds under the order, deduplicated, in value order.

    A world is dropped when another is at least as normal and not the other
    way round, so the reverse is asked only where the forward relation
    holds; each world's key is read once."""
    distinct: dict[tuple, World] = {}
    for world in worlds:
        distinct.setdefault(world.values, world)
    candidates = [distinct[k] for k in sorted(distinct)]
    for world in candidates:
        order._check_world(world)
    keys = list(map(order._key, candidates))
    weak = order._weak
    return tuple(world for i, (world, key) in enumerate(zip(candidates, keys))
                 if not any(weak(other, key) and not weak(key, other)
                            for j, other in enumerate(keys) if j != i))


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
    sizes go up, so that one was found.  Candidates that a swap of
    interchangeable variables off the effect maps onto each other share one
    witness search (see the module docstring).
    """
    if max_conjuncts < 1:
        raise FormulaError("max_conjuncts must be at least 1")
    engine = Engine(model, context)
    search = CauseSearch(engine, effect, max_search=max_search)
    actual = engine.actual
    found: list[CandidateCause] = []
    held: list[set[str]] = []  # each found cause's variables
    if not search.ac1(()):
        return found
    # Per variable, its class's label: an effect variable is its own class,
    # and a class's other variables take the first of them.  A candidate's
    # orbit is the sorted tuple of its labels, and decides its answer.
    from .symmetry import _classes

    classes = _classes(model, context) if _RULES["symmetry"] else {}
    firsts: dict[str, str] = {}
    labels = {name: name if name in search._effect_vars
              else firsts.setdefault(classes.get(name, name), name) for name in engine.endo}
    answers: dict[tuple, bool] = {}
    for size in range(1, min(max_conjuncts, len(engine.endo)) + 1):
        for names in itertools.combinations(engine.endo, size):
            conjuncts = tuple(
                PrimitiveEvent(n, actual[engine.index[n]]) for n in names
            )
            # budget_for(S) <= max over b in S of budget_for({b}), each searched
            # at size 1, so no search skipped here could go over the budget.
            chosen = set(names)
            if _RULES["sweep-subsets"]:
                if any(map(chosen.issuperset, held)):
                    continue
            elif not search.ac3(conjuncts):
                continue
            orbit = tuple(sorted(map(labels.__getitem__, names)))
            if orbit not in answers:
                answers[orbit] = search.has_witness(conjuncts)
            if answers[orbit]:
                found.append(CandidateCause(conjuncts))
                held.append(chosen)
    return found


def _conjuncts(
    cause: CandidateCause | Sequence[PrimitiveEvent],
) -> tuple[PrimitiveEvent, ...]:
    if isinstance(cause, CandidateCause):
        return cause.conjuncts
    return tuple(cause)
