"""Normality orderings over worlds.

An ordering is a partial preorder: reflexive and transitive, with
incomparable pairs allowed.  Orders come from three places: declared
typicality rankings (per-variable value rankings, optional cross-variable
severity chains, and optional per-variable behavior rankings), explicit world
relations, or the trivial order that treats all worlds alike.

Derived orders work on "marks": a world collects one mark per declared
variable sitting at a non-top value, plus one mark per behavior-ranked
variable whose most plausible consistent behavior is not the top one.  One
world is at least as normal as another when its marks embed injectively into
the other's, each mark landing on an equal-or-worse mark of the same variable
or on a severity-dominating mark.  Marks of distinct variables never
substitute for each other unless a severity chain says so, which is what
keeps genuinely conflicting worlds incomparable.

Both kinds of order are reflexive-transitive closures of a stated relation:
over marks for derived orders, over worlds for explicit ones.  One routine,
``_closure``, computes both, as one ``int`` of reach bits per node closed by
Warshall's algorithm; a reader tests one bit.  A derived order states only
each mark's step to the next rank of its kind and variable, and the severity
chains' steps; the closure supplies every worse rank.

Every order decides its weak relation on a key it reads off each world: the
marks for derived orders, the values for explicit ones.  ``world_marks``
computes marks by position, from value-to-rank tables and behavior bodies
compiled over a world's values, which the derived order builds once.
``admits`` is the weak relation alone, half the work of ``compare``.  A query
that compares many worlds wraps its order in ``_QueryOrder``, which reads
each distinct world's key once; the memo lives as long as that query, never
on the order itself.
"""

from __future__ import annotations

from collections import deque
from enum import Enum
from typing import Iterable, Iterator, Mapping, Optional, Sequence

from .errors import NormalityError
from .model import CausalModel, Expr, Record, World, _check_events, _compile, _event_fault


class Relation(Enum):
    MORE_NORMAL = "more_normal"
    LESS_NORMAL = "less_normal"
    EQUALLY_NORMAL = "equally_normal"
    INCOMPARABLE = "incomparable"


class ValueRanking(Record):
    """Values of one variable, most typical first; must cover the range."""

    def __init__(self, variable: str, ranking: tuple[int, ...]):
        super().__init__(variable, ranking)


class Behavior(Record):
    def __init__(self, label: str, body: Expr):
        super().__init__(label, body)


class BehaviorRanking(Record):
    """Ways one variable may respond to the others, most typical first."""

    def __init__(self, variable: str, behaviors: tuple[Behavior, ...]):
        super().__init__(variable, behaviors)


class TypicalitySpec(Record):
    def __init__(self, value_rankings: tuple[ValueRanking, ...] = (),
                 severity_chains: tuple[tuple[tuple[str, int], ...], ...] = (),
                 mechanism: bool = False,
                 behavior_rankings: tuple[BehaviorRanking, ...] = ()):
        super().__init__(value_rankings, severity_chains, mechanism, behavior_rankings)

    def ranking_for(self, variable: str) -> Optional[ValueRanking]:
        return next((r for r in self.value_rankings if r.variable == variable), None)

    def behaviors_for(self, variable: str) -> Optional[BehaviorRanking]:
        return next((r for r in self.behavior_rankings if r.variable == variable), None)


# A mark is (kind, variable, rank, token): kind "value" carries the value as
# token, kind "behavior" carries the behavior label.
Mark = tuple[str, str, int, object]


class NormalityOrder:
    """Base class; subclasses define the weak relation on world keys,
    compare() derives the four-way verdict from it."""

    provenance = "abstract"

    def __init__(self, model: CausalModel):
        self.model = model

    def at_least_as_normal(self, s: World, s2: World) -> bool:
        return self._weak(self._key(s), self._key(s2))

    def compare(self, s: World, s2: World) -> Relation:
        self._check_world(s)
        self._check_world(s2)
        key, key2 = self._key(s), self._key(s2)
        ge = self._weak(key, key2)
        le = self._weak(key2, key)
        if ge and le:
            return Relation.EQUALLY_NORMAL
        if ge:
            return Relation.MORE_NORMAL
        if le:
            return Relation.LESS_NORMAL
        return Relation.INCOMPARABLE

    def admits(self, s: World, s2: World) -> bool:
        """True when s is at least as normal as s2: the weak relation alone,
        which is ``compare(s, s2)`` in (MORE_NORMAL, EQUALLY_NORMAL)."""
        self._check_world(s)
        self._check_world(s2)
        return self.at_least_as_normal(s, s2)

    def _key(self, world: World):
        """What the weak relation reads of a world."""
        return world.values

    def _weak(self, key, key2) -> bool:
        raise NotImplementedError

    def _check_world(self, world: World):
        if world.variables != self.model.endogenous:
            raise NormalityError(
                "world does not range over this model's endogenous variables"
            )


class TrivialOrder(NormalityOrder):
    """Every pair of worlds is equally normal."""

    provenance = "trivial"

    def _weak(self, key, key2) -> bool:
        return True


class DerivedOrder(NormalityOrder):
    provenance = "derived"

    def __init__(self, model: CausalModel, spec: TypicalitySpec):
        super().__init__(model)
        self.spec = spec
        self._dominance = _close_dominance(model, spec)
        # What world_marks reads per endogenous position: the variable, its
        # value -> rank table and its compiled behaviors (None when undeclared).
        # The first declaration of a variable wins, as in ``ranking_for``.
        rankings = {r.variable: r for r in reversed(spec.value_rankings)}
        behaviors = {r.variable: r for r in reversed(spec.behavior_rankings) if spec.mechanism}
        self._positions = tuple(zip(
            model.endogenous,
            (_value_ranks(rankings.get(name)) for name in model.endogenous),
            _compiled_behaviors(model, list(map(behaviors.get, model.endogenous))),
        ))

    def marks(self, world: World) -> tuple[Mark, ...]:
        return world_marks(self, world)

    _key = marks

    def _weak(self, key, key2) -> bool:
        return _embeds(key, key2, self._dominance)


class ExplicitOrder(NormalityOrder):
    """``_closure`` of stated relations over world values; a world they never
    mention is related only to itself."""

    provenance = "explicit"

    def __init__(self, model: CausalModel, closure: tuple[dict[tuple, int], list[int]]):
        super().__init__(model)
        self._index, self._rows = closure

    def _weak(self, key, key2) -> bool:
        index = self._index
        return key == key2 or (key in index and key2 in index
                               and self._rows[index[key]] >> index[key2] & 1 == 1)


class _QueryOrder(NormalityOrder):
    """An order as one query sees it: each distinct world's key is computed
    once, and the memo goes with the query."""

    def __init__(self, order: NormalityOrder):
        super().__init__(order.model)
        self._order = order
        self._keys: dict[tuple, object] = {}

    def _key(self, world: World):
        keys = self._keys
        if world.values not in keys:
            keys[world.values] = self._order._key(world)
        return keys[world.values]

    def _weak(self, key, key2) -> bool:
        return self._order._weak(key, key2)


def compare(order: NormalityOrder, s: World, s2: World) -> Relation:
    return order.compare(s, s2)


# -- typicality-derived orders --------------------------------------------------


def validate_spec(model: CausalModel, spec: TypicalitySpec):
    """Raise the first fault of the spec, if it has one."""
    for _, message in _spec_faults(model, spec):
        raise NormalityError(message)


def _spec_faults(model: CausalModel, spec: TypicalitySpec) -> Iterator[tuple[tuple, str]]:
    """Every fault of a typicality spec, with the place of the declaration
    that has it: ("ranking", i) for the i-th value ranking, ("severity", i, j)
    for the j-th feature of the i-th chain (j None for the chain as a whole),
    ("behavior", i) for the i-th behavior ranking and ("reference", i, name)
    for a name its expressions refer to.  Severity features are checked
    against the value rankings that have no fault."""
    rankings: dict[str, ValueRanking] = {}
    names: set[str] = set()
    for i, ranking in enumerate(spec.value_rankings):
        name = ranking.variable
        if name in names:
            yield ("ranking", i), f"typicality for {name} declared twice"
        elif not model.has_variable(name):
            yield ("ranking", i), f"undeclared variable {name}"
        elif not model.is_endogenous(name):
            yield ("ranking", i), f"typicality targets exogenous {name}"
        elif sorted(ranking.ranking) != sorted(model.range_of(name)):
            yield ("ranking", i), (f"typicality for {name} must rank each of its "
                                   f"values exactly once")
        else:
            rankings[name] = ranking
        names.add(name)
    for i, chain in enumerate(spec.severity_chains):
        if len(chain) < 2:
            yield ("severity", i, None), "severity needs at least two features"
        features: set[tuple[str, int]] = set()
        for j, (name, value) in enumerate(chain):
            ranking = rankings.get(name)
            if (name, value) in features:
                fault = "severity chain repeats a feature"
            elif ranking is None:
                fault = f"severity feature {name}={value} has no typicality ranking"
            else:
                fault = _event_fault(model, name, value, "a severity feature")
                if fault is None and ranking.ranking[0] == value:
                    fault = (f"severity feature {name}={value} is that variable's "
                             f"typical value")
            if fault is not None:
                yield ("severity", i, j), fault
            features.add((name, value))
    targets = set()
    for i, ranking in enumerate(spec.behavior_rankings):
        name = ranking.variable
        if not spec.mechanism:
            yield ("behavior", i), "behavior rankings require 'mechanism on'"
            continue
        if name in targets:
            yield ("behavior", i), f"behaviors for {name} declared twice"
            continue
        targets.add(name)
        if not model.has_variable(name) or not model.is_endogenous(name):
            yield ("behavior", i), f"behaviors target unknown or exogenous variable {name}"
            continue
        labels = [b.label for b in ranking.behaviors]
        if not labels:
            yield ("behavior", i), f"behavior ranking for {name} is empty"
        elif len(set(labels)) != len(labels):
            yield ("behavior", i), f"behavior ranking for {name} repeats a label"
        for ref in sorted(set().union(*(b.body.referenced() for b in ranking.behaviors))):
            if not model.has_variable(ref):
                yield ("reference", i, ref), f"undeclared variable {ref}"
            elif not model.is_endogenous(ref):
                yield ("reference", i, ref), (f"behavior expressions may reference only "
                                              f"endogenous variables; {ref} is exogenous")


def derive_from_typicality(model: CausalModel, spec: TypicalitySpec) -> DerivedOrder:
    """Order induced by the declared rankings via injective mark embedding."""
    model.require_valid()
    validate_spec(model, spec)
    return DerivedOrder(model, spec)


def assign_behavior(
    model: CausalModel, spec: TypicalitySpec, world: World
) -> dict[str, str]:
    """Most typical declared behavior consistent with each ranked variable.

    Consistency means the behavior's expression reproduces the variable's
    value given the rest of the world.
    """
    if not spec.mechanism:
        raise NormalityError("behavior assignment requires mechanism mode")
    if not spec.behavior_rankings:
        raise NormalityError("no behavior rankings declared")
    validate_spec(model, spec)
    return {
        ranking.variable: _consistent_behavior(ranking.variable, world[ranking.variable],
                                               behaviors, world)[1]
        for ranking, behaviors in zip(spec.behavior_rankings,
                                      _compiled_behaviors(model, spec.behavior_rankings))
    }


def world_marks(order: DerivedOrder, world: World) -> tuple[Mark, ...]:
    """Atypicality marks of a world under the order's declarations, read by
    position from the tables the order built."""
    marks: list[Mark] = []
    for (name, ranks, behaviors), value in zip(order._positions, world.values):
        if ranks is not None:
            rank = ranks[value]
            if rank > 0:
                marks.append(("value", name, rank, value))
        if behaviors is not None:
            rank, label = _consistent_behavior(name, value, behaviors, world)
            if rank > 0:
                marks.append(("behavior", name, rank, label))
    return tuple(marks)


def _value_ranks(ranking: Optional[ValueRanking]) -> Optional[dict[int, int]]:
    if ranking is None:
        return None
    return {value: rank for rank, value in enumerate(ranking.ranking)}


def _compiled_behaviors(model: CausalModel, rankings: Sequence[Optional[BehaviorRanking]]):
    """Per ranking, its (label, body) pairs, most typical first, each body
    compiled over the endogenous positions of a world's values, all of them
    at once; None for no ranking."""
    bodies = iter(_compile([b.body for ranking in rankings if ranking
                            for b in ranking.behaviors], model._endo_index))
    return [None if ranking is None else tuple((b.label, next(bodies)) for b in ranking.behaviors)
            for ranking in rankings]


def _consistent_behavior(name: str, value: int, behaviors: tuple, world: World) -> tuple[int, str]:
    """Rank and label of the most typical of the compiled behaviors that
    reproduces the variable's value in the world given the rest of it."""
    for rank, (label, body) in enumerate(behaviors):
        if body(world.values) == value:
            return rank, label
    raise NormalityError(
        f"no declared behavior for {name} is consistent with world {world}"
    )


def _close_dominance(
    model: CausalModel, spec: TypicalitySpec
) -> tuple[dict[Mark, int], list[int]]:
    """Reflexive-transitive 'may stand in for' relation over possible marks,
    as ``_closure``'s index and rows.

    Within one variable a mark is covered by any equal-or-worse rank of the
    same kind: each mark steps to the next rank of its kind and variable, and
    the closure reaches every worse one.  Severity chains add cross-variable
    steps between value marks.
    """
    universe: list[Mark] = [("value", ranking.variable, rank, value)
                            for ranking in spec.value_rankings
                            for rank, value in enumerate(ranking.ranking) if rank > 0]
    if spec.mechanism:
        universe += [("behavior", ranking.variable, rank, behavior.label)
                     for ranking in spec.behavior_rankings
                     for rank, behavior in enumerate(ranking.behaviors) if rank > 0]
    # A variable's marks of one kind sit together in rank order.
    edges = {(a, b) for a, b in zip(universe, universe[1:]) if a[:2] == b[:2]}
    by_feature = {("value", m[1], m[3]): m for m in universe if m[0] == "value"}
    for chain in spec.severity_chains:
        for (n1, v1), (n2, v2) in zip(chain, chain[1:]):
            edges.add((by_feature[("value", n1, v1)], by_feature[("value", n2, v2)]))
    return _closure(universe, edges)


def _closure(nodes: Iterable, edges: Iterable[tuple]) -> tuple[dict, list[int]]:
    """Reflexive-transitive closure as bit rows: each node's index, and per
    index the mask of the indices it reaches along the edges, its own
    included.  Warshall's algorithm: once the rows are closed over paths
    through the nodes before k, every row that reaches k takes in row k.
    Nodes must be distinct, and edge ends nodes."""
    index = {node: i for i, node in enumerate(nodes)}
    rows = [1 << i for i in range(len(index))]
    for a, b in edges:
        rows[index[a]] |= 1 << index[b]
    for k in range(len(rows)):
        row, bit = rows[k], 1 << k
        if row != bit:  # a row of its own bit alone adds nothing
            rows = [r | row if r & bit else r for r in rows]
    return index, rows


def _embeds(
    marks: Sequence[Mark],
    into: Sequence[Mark],
    dominance: tuple[dict[Mark, int], list[int]],
) -> bool:
    """Injective matching where each mark maps to a dominating mark: one
    whose bit is set in the mark's dominance row.

    A world's marks are distinct (at most one value mark and one behavior
    mark per variable), so marks that all appear in ``into`` map onto
    themselves."""
    if len(marks) > len(into):
        return False
    if set(marks).issubset(into):
        return True
    index, rows = dominance
    slots = [index[g] for g in into]
    options = [[j for j, slot in enumerate(slots) if row >> slot & 1]
               for row in [rows[index[f]] for f in marks]]
    matched: list[Optional[int]] = [None] * len(into)
    for first in range(len(marks)):
        # A depth-first search for an augmenting path from ``first``, on an
        # explicit stack: along a severity chain each path is one step longer
        # than the last.  ``slots[k]`` is the slot that ``path[k]`` tries.
        taken: set[int] = set()
        path, slots = [(first, iter(options[first]))], []
        while path:
            j = next((j for j in path[-1][1] if j not in taken), None)
            if j is None:
                path.pop()
                if slots:
                    slots.pop()
                continue
            taken.add(j)
            slots.append(j)
            if matched[j] is None:
                for (i, _), j in zip(path, slots):
                    matched[j] = i
                break
            path.append((matched[j], iter(options[matched[j]])))
        else:
            return False
    return True


# -- explicit orders -------------------------------------------------------------


def explicit_order(
    model: CausalModel,
    relations: Iterable[tuple[World | Mapping[str, int], str, World | Mapping[str, int]]],
) -> ExplicitOrder:
    """Order from stated relations ('>' strict, '==' equivalence).

    Takes the reflexive-transitive closure and rejects relation sets that
    force some stated strict pair to also hold the other way around.
    """
    model.require_valid()
    stated: list[tuple[World, str, World]] = []
    for left, op, right in relations:
        if op not in (">", "=="):
            raise NormalityError(f"unknown relation operator {op!r}")
        stated.append((_as_world(model, left), op, _as_world(model, right)))
    order, faults = _explicit_closure(model, stated)
    for _, message in faults:
        raise NormalityError(message)
    return order


def _explicit_closure(
    model: CausalModel, stated: Sequence[tuple[World, str, World]]
) -> tuple[ExplicitOrder, list[tuple[int, str]]]:
    """The order the stated relations close to, and the fault of each strict
    relation that the closure also makes hold the other way around, with
    that relation's index."""
    edges = {(left.values, right.values) for left, _, right in stated}
    edges |= {(right.values, left.values) for left, op, right in stated if op == "=="}
    index, rows = _closure({end for edge in edges for end in edge}, edges)
    faults = []
    successors: dict[tuple, list[tuple]] = {}  # in sorted order, built at the first fault
    for i, (left, op, right) in enumerate(stated):
        if op == ">" and rows[index[right.values]] >> index[left.values] & 1:
            if not successors:
                for a, b in sorted(edges):
                    successors.setdefault(a, []).append(b)
            cycle = _find_path(successors, right.values, left.values)
            pretty = " >= ".join(str(model.world_from_values(v)) for v in cycle)
            faults.append((i, (
                f"relations make {model.world_from_values(left.values)} and "
                f"{model.world_from_values(right.values)} strictly more normal "
                f"than each other (via {pretty})"
            )))
    return ExplicitOrder(model, (index, rows)), faults


def _as_world(model: CausalModel, world: World | Mapping[str, int]) -> World:
    if isinstance(world, World):
        if world.variables != model.endogenous:
            raise NormalityError(
                "world does not range over this model's endogenous variables"
            )
        _check_events(model, zip(world.variables, world.values), "a world", NormalityError)
        return world
    return model.world(world)


def _find_path(
    successors: dict[tuple, list[tuple]], start: tuple, goal: tuple
) -> list[tuple]:
    """Breadth-first path along stated edges, each node's successors taken
    in order, for error reporting; the closure must hold a path from
    ``start`` to ``goal``, or the two must be one node."""
    parents = {start: None}
    queue = deque([start])
    while queue:
        node = queue.popleft()
        if node == goal:
            path = []
            while node is not None:
                path.append(node)
                node = parents[node]
            return path[::-1]
        for nxt in successors.get(node, ()):
            if nxt not in parents:
                parents[nxt] = node
                queue.append(nxt)
