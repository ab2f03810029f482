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
``_closure``, computes both, by a search from each node.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Iterable, Mapping, Optional, Sequence

from .errors import NormalityError
from .model import CausalModel, Expr, World


class Relation(Enum):
    MORE_NORMAL = "more_normal"
    LESS_NORMAL = "less_normal"
    EQUALLY_NORMAL = "equally_normal"
    INCOMPARABLE = "incomparable"


@dataclass(frozen=True)
class ValueRanking:
    """Values of one variable, most typical first; must cover the range."""

    variable: str
    ranking: tuple[int, ...]


@dataclass(frozen=True)
class Behavior:
    label: str
    body: Expr


@dataclass(frozen=True)
class BehaviorRanking:
    """Ways one variable may respond to the others, most typical first."""

    variable: str
    behaviors: tuple[Behavior, ...]


@dataclass(frozen=True)
class TypicalitySpec:
    value_rankings: tuple[ValueRanking, ...] = ()
    severity_chains: tuple[tuple[tuple[str, int], ...], ...] = ()
    mechanism: bool = False
    behavior_rankings: tuple[BehaviorRanking, ...] = ()

    def ranking_for(self, variable: str) -> Optional[ValueRanking]:
        for ranking in self.value_rankings:
            if ranking.variable == variable:
                return ranking
        return None

    def behaviors_for(self, variable: str) -> Optional[BehaviorRanking]:
        for ranking in self.behavior_rankings:
            if ranking.variable == variable:
                return ranking
        return None


# A mark is (kind, variable, rank, token): kind "value" carries the value as
# token, kind "behavior" carries the behavior label.
Mark = tuple[str, str, int, object]


class NormalityOrder:
    """Base class; subclasses define the weak relation, compare() derives the
    four-way verdict from it."""

    provenance = "abstract"

    def __init__(self, model: CausalModel):
        self.model = model

    def at_least_as_normal(self, s: World, s2: World) -> bool:
        raise NotImplementedError

    def compare(self, s: World, s2: World) -> Relation:
        self._check_world(s)
        self._check_world(s2)
        ge = self.at_least_as_normal(s, s2)
        le = self.at_least_as_normal(s2, s)
        if ge and le:
            return Relation.EQUALLY_NORMAL
        if ge:
            return Relation.MORE_NORMAL
        if le:
            return Relation.LESS_NORMAL
        return Relation.INCOMPARABLE

    def admits(self, s: World, s2: World) -> bool:
        """True when s is at least as normal as s2 (weak relation)."""
        return self.compare(s, s2) in (Relation.MORE_NORMAL, Relation.EQUALLY_NORMAL)

    def _check_world(self, world: World):
        if world.variables != self.model.endogenous:
            raise NormalityError(
                "world does not range over this model's endogenous variables"
            )


class TrivialOrder(NormalityOrder):
    """Every pair of worlds is equally normal."""

    provenance = "trivial"

    def at_least_as_normal(self, s: World, s2: World) -> bool:
        return True


class DerivedOrder(NormalityOrder):
    provenance = "derived"

    def __init__(self, model: CausalModel, spec: TypicalitySpec):
        super().__init__(model)
        self.spec = spec
        self._dominance = _close_dominance(model, spec)

    def marks(self, world: World) -> tuple[Mark, ...]:
        return world_marks(self.model, self.spec, world)

    def at_least_as_normal(self, s: World, s2: World) -> bool:
        return _embeds(self.marks(s), self.marks(s2), self._dominance)


class ExplicitOrder(NormalityOrder):
    provenance = "explicit"

    def __init__(self, model: CausalModel, closure: frozenset[tuple[tuple, tuple]]):
        super().__init__(model)
        self._closure = closure

    def at_least_as_normal(self, s: World, s2: World) -> bool:
        if s.values == s2.values:
            return True
        return (s.values, s2.values) in self._closure


def compare(order: NormalityOrder, s: World, s2: World) -> Relation:
    return order.compare(s, s2)


# -- typicality-derived orders --------------------------------------------------


def validate_spec(model: CausalModel, spec: TypicalitySpec):
    seen = set()
    for ranking in spec.value_rankings:
        name = ranking.variable
        if name in seen:
            raise NormalityError(f"typicality for {name} declared twice")
        seen.add(name)
        if not model.has_variable(name) or not model.is_endogenous(name):
            raise NormalityError(f"typicality declared for unknown variable {name}")
        if sorted(ranking.ranking) != sorted(model.range_of(name)):
            raise NormalityError(
                f"typicality for {name} must rank each of its values exactly once"
            )
    for chain in spec.severity_chains:
        if len(chain) < 2:
            raise NormalityError("a severity chain needs at least two features")
        if len(set(chain)) != len(chain):
            raise NormalityError("severity chain repeats a feature")
        for name, value in chain:
            ranking = spec.ranking_for(name)
            if ranking is None:
                raise NormalityError(
                    f"severity feature {name}={value} has no typicality ranking"
                )
            if value not in ranking.ranking:
                raise NormalityError(f"severity value {name}={value} outside range")
            if ranking.ranking.index(value) == 0:
                raise NormalityError(
                    f"severity feature {name}={value} is that variable's typical value"
                )
    if spec.behavior_rankings and not spec.mechanism:
        raise NormalityError("behavior rankings require mechanism mode")
    seen = set()
    for ranking in spec.behavior_rankings:
        name = ranking.variable
        if name in seen:
            raise NormalityError(f"behaviors for {name} declared twice")
        seen.add(name)
        if not model.has_variable(name) or not model.is_endogenous(name):
            raise NormalityError(f"behaviors declared for unknown variable {name}")
        if not ranking.behaviors:
            raise NormalityError(f"behavior ranking for {name} is empty")
        labels = [b.label for b in ranking.behaviors]
        if len(set(labels)) != len(labels):
            raise NormalityError(f"behavior ranking for {name} repeats a label")
        for behavior in ranking.behaviors:
            for ref in sorted(behavior.body.referenced()):
                if not model.has_variable(ref) or not model.is_endogenous(ref):
                    raise NormalityError(
                        f"behavior {behavior.label!r} for {name} references "
                        f"non-endogenous name {ref}"
                    )


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
        ranking.variable: _consistent_behavior(ranking, world)[1]
        for ranking in spec.behavior_rankings
    }


def world_marks(
    model: CausalModel, spec: TypicalitySpec, world: World
) -> tuple[Mark, ...]:
    """Atypicality marks of a world under the given declarations."""
    marks: list[Mark] = []
    for name in model.endogenous:
        ranking = spec.ranking_for(name)
        if ranking is not None:
            rank = ranking.ranking.index(world[name])
            if rank > 0:
                marks.append(("value", name, rank, world[name]))
        if spec.mechanism:
            behaviors = spec.behaviors_for(name)
            if behaviors is not None:
                rank, label = _consistent_behavior(behaviors, world)
                if rank > 0:
                    marks.append(("behavior", name, rank, label))
    return tuple(marks)


def _consistent_behavior(ranking: BehaviorRanking, world: World) -> tuple[int, str]:
    """Rank and label of the most typical behavior that reproduces the
    variable's value given the rest of the world."""
    env = world.as_dict()
    for rank, behavior in enumerate(ranking.behaviors):
        if behavior.body.evaluate(env) == world[ranking.variable]:
            return rank, behavior.label
    raise NormalityError(
        f"no declared behavior for {ranking.variable} is consistent with "
        f"world {world}"
    )


def _close_dominance(
    model: CausalModel, spec: TypicalitySpec
) -> frozenset[tuple[Mark, Mark]]:
    """Reflexive-transitive 'may stand in for' relation over possible marks.

    Within one variable a mark is covered by any equal-or-worse rank of the
    same kind; severity chains add cross-variable steps between value marks.
    """
    universe: list[Mark] = []
    for ranking in spec.value_rankings:
        for rank, value in enumerate(ranking.ranking):
            if rank > 0:
                universe.append(("value", ranking.variable, rank, value))
    if spec.mechanism:
        for ranking in spec.behavior_rankings:
            for rank, behavior in enumerate(ranking.behaviors):
                if rank > 0:
                    universe.append(
                        ("behavior", ranking.variable, rank, behavior.label)
                    )
    edges: set[tuple[Mark, Mark]] = set()
    for a in universe:
        for b in universe:
            if a[0] == b[0] and a[1] == b[1] and a[2] <= b[2]:
                edges.add((a, b))
    by_feature = {("value", m[1], m[3]): m for m in universe if m[0] == "value"}
    for chain in spec.severity_chains:
        for (n1, v1), (n2, v2) in zip(chain, chain[1:]):
            edges.add((by_feature[("value", n1, v1)], by_feature[("value", n2, v2)]))
    return _closure(universe, edges)


def _closure(nodes: Iterable, edges: Iterable[tuple]) -> frozenset[tuple]:
    """Reflexive-transitive closure: every pair (a, b) of nodes such that b
    is reachable from a along the edges.  Edge ends must be nodes."""
    successors: dict = {n: [] for n in nodes}
    for a, b in edges:
        successors[a].append(b)
    pairs = set()
    for start in successors:
        reached = {start}
        stack = [start]
        while stack:
            for nxt in successors[stack.pop()]:
                if nxt not in reached:
                    reached.add(nxt)
                    stack.append(nxt)
        pairs.update((start, b) for b in reached)
    return frozenset(pairs)


def _embeds(
    marks: Sequence[Mark],
    into: Sequence[Mark],
    dominance: frozenset[tuple[Mark, Mark]],
) -> bool:
    """Injective matching where each mark maps to a dominating mark."""
    if len(marks) > len(into):
        return False
    options = [
        [j for j, g in enumerate(into) if f == g or (f, g) in dominance]
        for f in marks
    ]
    matched: list[Optional[int]] = [None] * len(into)

    def try_assign(i: int, taken: set[int]) -> bool:
        for j in options[i]:
            if j in taken:
                continue
            taken.add(j)
            if matched[j] is None or try_assign(matched[j], taken):
                matched[j] = i
                return True
        return False

    for i in range(len(marks)):
        if not try_assign(i, set()):
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
    edges: set[tuple[tuple, tuple]] = set()
    nodes: set[tuple] = set()
    for left, op, right in stated:
        nodes.add(left.values)
        nodes.add(right.values)
        edges.add((left.values, right.values))
        if op == "==":
            edges.add((right.values, left.values))
    closure = _closure(nodes, edges)
    for left, op, right in stated:
        if op == ">" and (right.values, left.values) in closure:
            cycle = _find_path(nodes, edges, right.values, left.values)
            pretty = " >= ".join(str(model.world_from_values(v)) for v in cycle)
            raise NormalityError(
                f"relations make {model.world_from_values(left.values)} and "
                f"{model.world_from_values(right.values)} strictly more normal "
                f"than each other (via {pretty})"
            )
    return ExplicitOrder(model, closure)


def _as_world(model: CausalModel, world: World | Mapping[str, int]) -> World:
    if isinstance(world, World):
        if world.variables != model.endogenous:
            raise NormalityError(
                "world does not range over this model's endogenous variables"
            )
        for name, value in zip(world.variables, world.values):
            if value not in model.range_of(name):
                raise NormalityError(f"world value {name}={value} outside range")
        return world
    return model.world(world)


def _find_path(
    nodes: set[tuple], edges: set[tuple[tuple, tuple]], start: tuple, goal: tuple
) -> list[tuple]:
    """BFS path along stated edges, for error reporting."""
    frontier = [[start]]
    seen = {start}
    while frontier:
        path = frontier.pop(0)
        if path[-1] == goal:
            return path
        for a, b in sorted(edges):
            if a == path[-1] and b not in seen:
                seen.add(b)
                frontier.append(path + [b])
    return [start, goal]
