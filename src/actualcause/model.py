"""Structural causal models over finite integer domains.

A model pairs a signature (exogenous and endogenous variables, each with a
finite range) with one equation per endogenous variable.  Models are immutable
after construction; solving, intervening, and graph extraction are pure
functions, so shared models are safe to use concurrently.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Iterable, Mapping, Optional

from .errors import ModelError

EXOGENOUS = "exogenous"
ENDOGENOUS = "endogenous"


@dataclass(frozen=True)
class Variable:
    name: str
    kind: str  # EXOGENOUS or ENDOGENOUS
    range: tuple[int, ...]

    def __post_init__(self):
        if self.kind not in (EXOGENOUS, ENDOGENOUS):
            raise ModelError(f"variable {self.name}: unknown kind {self.kind!r}")
        if not self.range:
            raise ModelError(f"variable {self.name}: range is empty")
        if len(set(self.range)) != len(self.range):
            raise ModelError(f"variable {self.name}: duplicate values in range")


# --- equation bodies ---------------------------------------------------------
#
# An equation body is a small expression tree.  Everything evaluates to an
# integer; `referenced()` returns the variable names the body mentions, which
# drives both acyclicity checking and evaluation order.


@dataclass(frozen=True)
class Const:
    value: int

    def referenced(self) -> frozenset[str]:
        return frozenset()

    def evaluate(self, env: Mapping[str, int]) -> int:
        return self.value


@dataclass(frozen=True)
class Ref:
    name: str

    def referenced(self) -> frozenset[str]:
        return frozenset((self.name,))

    def evaluate(self, env: Mapping[str, int]) -> int:
        return env[self.name]


@dataclass(frozen=True)
class BinOp:
    op: str  # "min" | "max" | "+" | "-" | "*"
    left: "Expr"
    right: "Expr"

    def referenced(self) -> frozenset[str]:
        return self.left.referenced() | self.right.referenced()

    def evaluate(self, env: Mapping[str, int]) -> int:
        a = self.left.evaluate(env)
        b = self.right.evaluate(env)
        if self.op == "min":
            return a if a <= b else b
        if self.op == "max":
            return a if a >= b else b
        if self.op == "+":
            return a + b
        if self.op == "-":
            return a - b
        if self.op == "*":
            return a * b
        raise ModelError(f"unknown operator {self.op!r}")


@dataclass(frozen=True)
class Ite:
    """ite(left == right, then, other): equality test with two branches."""

    left: "Expr"
    right: "Expr"
    then: "Expr"
    other: "Expr"

    def referenced(self) -> frozenset[str]:
        return (
            self.left.referenced()
            | self.right.referenced()
            | self.then.referenced()
            | self.other.referenced()
        )

    def evaluate(self, env: Mapping[str, int]) -> int:
        if self.left.evaluate(env) == self.right.evaluate(env):
            return self.then.evaluate(env)
        return self.other.evaluate(env)


@dataclass(frozen=True)
class Table:
    """Explicit lookup from argument-value tuples to results."""

    args: tuple[str, ...]
    rows: tuple[tuple[tuple[int, ...], int], ...]

    def referenced(self) -> frozenset[str]:
        return frozenset(self.args)

    def row_map(self) -> dict[tuple[int, ...], int]:
        return dict(self.rows)

    def evaluate(self, env: Mapping[str, int]) -> int:
        key = tuple(env[a] for a in self.args)
        for args, value in self.rows:
            if args == key:
                return value
        raise ModelError(f"table has no row for arguments {key}")


Expr = Const | Ref | BinOp | Ite | Table


@dataclass(frozen=True)
class Equation:
    target: str
    body: Expr


@dataclass(frozen=True)
class ValidationProblem:
    kind: str  # "name" | "range" | "equation" | "cycle" | "totality"
    message: str


@dataclass(frozen=True)
class ValidationReport:
    problems: tuple[ValidationProblem, ...]

    @property
    def ok(self) -> bool:
        return not self.problems


@dataclass(frozen=True)
class World:
    """Total assignment to the endogenous variables.

    A world need not satisfy the model's equations; witness worlds produced by
    interventions usually break at least one.
    """

    variables: tuple[str, ...]
    values: tuple[int, ...]

    def __post_init__(self):
        if len(self.variables) != len(self.values):
            raise ModelError("world has mismatched variable/value counts")

    def __getitem__(self, name: str) -> int:
        try:
            return self.values[self.variables.index(name)]
        except ValueError:
            raise KeyError(name) from None

    def as_dict(self) -> dict[str, int]:
        return dict(zip(self.variables, self.values))

    def __str__(self) -> str:
        pairs = ", ".join(f"{n}={v}" for n, v in zip(self.variables, self.values))
        return f"({pairs})"


class CausalModel:
    """Finite-domain structural causal model.

    ``variables`` keeps declaration order, which fixes the serialization order
    of worlds and all deterministic iteration in the search code.
    """

    def __init__(self, variables: Iterable[Variable], equations: Iterable[Equation]):
        self.variables: tuple[Variable, ...] = tuple(variables)
        self.equations: dict[str, Equation] = {}
        for eq in equations:
            # Duplicate targets are a validation problem, not a constructor
            # error; remember the first duplicate for the report.
            if eq.target in self.equations:
                self._duplicate_targets = getattr(self, "_duplicate_targets", [])
                self._duplicate_targets.append(eq.target)
            self.equations[eq.target] = eq
        self._by_name = {v.name: v for v in self.variables}
        self.exogenous: tuple[str, ...] = tuple(
            v.name for v in self.variables if v.kind == EXOGENOUS
        )
        self.endogenous: tuple[str, ...] = tuple(
            v.name for v in self.variables if v.kind == ENDOGENOUS
        )
        self._endo_index = {n: i for i, n in enumerate(self.endogenous)}
        self._report: Optional[ValidationReport] = None
        self._topo: Optional[tuple[str, ...]] = None
        # Set by intervene(): interventions on a validated model cannot break
        # validity, so children skip re-validation.
        self._assume_valid = False

    # -- lookups --------------------------------------------------------------

    def variable(self, name: str) -> Variable:
        try:
            return self._by_name[name]
        except KeyError:
            raise ModelError(f"unknown variable {name!r}") from None

    def has_variable(self, name: str) -> bool:
        return name in self._by_name

    def is_endogenous(self, name: str) -> bool:
        return name in self._endo_index

    def range_of(self, name: str) -> tuple[int, ...]:
        return self.variable(name).range

    def endo_index(self, name: str) -> int:
        return self._endo_index[name]

    def world(self, assignment: Mapping[str, int]) -> World:
        """Build a World from a mapping, checking totality and ranges."""
        missing = [n for n in self.endogenous if n not in assignment]
        if missing:
            raise ModelError(f"world is missing endogenous variables: {missing}")
        extra = [n for n in assignment if n not in self._endo_index]
        if extra:
            raise ModelError(f"world assigns non-endogenous names: {extra}")
        for name in self.endogenous:
            if assignment[name] not in self.variable(name).range:
                raise ModelError(
                    f"world value {name}={assignment[name]} outside range"
                )
        return World(self.endogenous, tuple(assignment[n] for n in self.endogenous))

    def world_from_values(self, values: tuple[int, ...]) -> World:
        return World(self.endogenous, values)

    # -- validation -----------------------------------------------------------

    def validate(self) -> ValidationReport:
        if self._report is None:
            if self._assume_valid:
                self._report = ValidationReport(())
            else:
                self._report = _validate(self)
        return self._report

    def require_valid(self):
        report = self.validate()
        if not report.ok:
            details = "; ".join(p.message for p in report.problems)
            raise ModelError(f"model failed validation: {details}")

    def topological_order(self) -> tuple[str, ...]:
        """Endogenous variables ordered so references point backwards."""
        if self._topo is None:
            self.require_valid()
            self._topo, _ = _reference_walk(self)
        return self._topo

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, CausalModel)
            and self.variables == other.variables
            and self.equations == other.equations
        )

    __hash__ = None  # mutable caches; identity hashing would be misleading


Context = Mapping[str, int]


def _validate(model: CausalModel) -> ValidationReport:
    problems: list[ValidationProblem] = []
    names = [v.name for v in model.variables]
    for name in sorted({n for n in names if names.count(n) > 1}):
        problems.append(ValidationProblem("name", f"variable {name} declared twice"))
    for dup in getattr(model, "_duplicate_targets", []):
        problems.append(
            ValidationProblem("equation", f"variable {dup} has more than one equation")
        )
    for name in model.endogenous:
        if name not in model.equations:
            problems.append(
                ValidationProblem("equation", f"endogenous variable {name} has no equation")
            )
    for target in model.equations:
        if not model.has_variable(target):
            problems.append(
                ValidationProblem("name", f"equation targets unknown variable {target}")
            )
        elif not model.is_endogenous(target):
            problems.append(
                ValidationProblem("equation", f"equation targets exogenous variable {target}")
            )
    for target, eq in model.equations.items():
        for ref in sorted(eq.body.referenced()):
            if not model.has_variable(ref):
                problems.append(
                    ValidationProblem(
                        "name", f"equation for {target} references unknown variable {ref}"
                    )
                )
    if problems:
        # Later checks assume a well-formed signature.
        return ValidationReport(tuple(problems))

    _, cycle = _reference_walk(model)
    if cycle is not None:
        path = " -> ".join(cycle)
        problems.append(ValidationProblem("cycle", f"equations form a cycle: {path}"))
        return ValidationReport(tuple(problems))

    problems.extend(_totality_problems(model))
    return ValidationReport(tuple(problems))


def _reference_walk(model: CausalModel) -> tuple[tuple[str, ...], Optional[list[str]]]:
    """Depth-first walk of the endogenous reference graph.

    Roots are taken in declaration order and references in name order.
    Returns the post-order, which is an evaluation order when the graph is
    acyclic, and the first cycle met, as a closed path, or None.  The walk
    keeps its own stack, so long chains cannot exhaust the interpreter's.
    """
    done: dict[str, bool] = {}  # False while on the current path
    order: list[str] = []

    def endo_refs(name: str):
        refs = sorted(model.equations[name].body.referenced())
        return iter([r for r in refs if r in model._endo_index])

    for root in model.endogenous:
        if root in done:
            continue
        done[root] = False
        path = [root]
        pending = [endo_refs(root)]
        while pending:
            for ref in pending[-1]:
                state = done.get(ref)
                if state is None:
                    done[ref] = False
                    path.append(ref)
                    pending.append(endo_refs(ref))
                    break
                if state is False:
                    return tuple(order), path[path.index(ref):] + [ref]
            else:
                pending.pop()
                name = path.pop()
                done[name] = True
                order.append(name)
    return tuple(order), None


def _totality_problems(model: CausalModel) -> list[ValidationProblem]:
    """Exhaustively evaluate each equation over its referenced ranges."""
    problems = []
    for target in model.endogenous:
        eq = model.equations[target]
        refs = sorted(eq.body.referenced())
        target_range = set(model.range_of(target))
        if isinstance(eq.body, Table):
            missing = _missing_table_rows(model, eq.body)
            if missing is not None:
                problems.append(
                    ValidationProblem(
                        "totality",
                        f"table for {target} has no row for {refs} = {missing}",
                    )
                )
                continue
        for combo in itertools.product(*(model.range_of(r) for r in refs)):
            env = dict(zip(refs, combo))
            value = eq.body.evaluate(env)
            if value not in target_range:
                problems.append(
                    ValidationProblem(
                        "totality",
                        f"equation for {target} yields {value} (outside range) "
                        f"at {dict(env)}",
                    )
                )
                break
    return problems


def _missing_table_rows(model: CausalModel, table: Table) -> Optional[tuple[int, ...]]:
    rows = table.row_map()
    for combo in itertools.product(*(model.range_of(a) for a in table.args)):
        if combo not in rows:
            return combo
    return None


def validate_model(model: CausalModel) -> ValidationReport:
    """Report-style validation: returns problems instead of raising."""
    return model.validate()


def check_context(model: CausalModel, context: Context):
    """Reject contexts that are partial or out of range."""
    for name in model.exogenous:
        if name not in context:
            raise ModelError(f"context is missing exogenous variable {name}")
        if context[name] not in model.range_of(name):
            raise ModelError(f"context value {name}={context[name]} outside range")
    for name in context:
        if name not in model.exogenous:
            raise ModelError(f"context assigns non-exogenous name {name}")


def solve(model: CausalModel, context: Context) -> World:
    """Unique solution of the equations under the given context.

    Evaluates in topological order of the reference graph, so each equation
    sees its inputs already settled.  Every other solve in the package (the
    memoized counterfactuals of the search, the intervention prefix of a
    causal formula) runs the same loop with some variables pinned.
    """
    model.require_valid()
    check_context(model, context)
    return World(model.endogenous, _settle(model, context, {}))


def _settle(
    model: CausalModel, context: Context, pinned: Mapping[str, int]
) -> tuple[int, ...]:
    """Endogenous values, in declaration order, of the valid model under a
    checked context, with each pinned variable held at its pinned value."""
    env: dict[str, int] = dict(context)
    equations = model.equations
    for name in model.topological_order():
        if name in pinned:
            env[name] = pinned[name]
        else:
            env[name] = equations[name].body.evaluate(env)
    return tuple([env[n] for n in model.endogenous])


def intervene(model: CausalModel, setting: Mapping[str, int]) -> CausalModel:
    """New model with each targeted equation replaced by a constant.

    Interventions target endogenous variables only; the original model is
    unchanged.
    """
    for name, value in setting.items():
        var = model.variable(name)
        if var.kind != ENDOGENOUS:
            raise ModelError(f"cannot intervene on exogenous variable {name}")
        if value not in var.range:
            raise ModelError(f"intervention {name}={value} outside range")
    equations = [
        Equation(t, Const(setting[t])) if t in setting else eq
        for t, eq in model.equations.items()
    ]
    child = CausalModel(model.variables, equations)
    if model.validate().ok:
        # Replacing equations by in-range constants preserves validity.
        child._assume_valid = True
    return child


@dataclass(frozen=True)
class DependenceGraph:
    """Semantic parent/child structure over the endogenous variables.

    There is an edge parent -> child exactly when some change of the parent's
    value, everything else fixed, changes the child's equation output.
    """

    variables: tuple[str, ...]
    edges: frozenset[tuple[str, str]]

    def parents(self, name: str) -> tuple[str, ...]:
        return tuple(p for p, c in sorted(self.edges) if c == name)

    def children(self, name: str) -> tuple[str, ...]:
        return tuple(c for p, c in sorted(self.edges) if p == name)

    def sorted_edges(self) -> tuple[tuple[str, str], ...]:
        return tuple(sorted(self.edges))


def dependence_graph(model: CausalModel) -> DependenceGraph:
    """Graph of semantic (not merely syntactic) dependencies."""
    model.require_valid()
    edges = set()
    for target in model.endogenous:
        for parent in semantic_parents(model, target):
            if parent in model._endo_index:
                edges.add((parent, target))
    return DependenceGraph(model.endogenous, frozenset(edges))


def semantic_parents(model: CausalModel, target: str) -> tuple[str, ...]:
    """Variables whose value actually matters to the target's equation."""
    eq = model.equations[target]
    refs = sorted(eq.body.referenced())
    parents = []
    for candidate in refs:
        others = [r for r in refs if r != candidate]
        found = False
        for combo in itertools.product(*(model.range_of(r) for r in others)):
            env = dict(zip(others, combo))
            seen = set()
            for value in model.range_of(candidate):
                env[candidate] = value
                seen.add(eq.body.evaluate(env))
                if len(seen) > 1:
                    found = True
                    break
            if found:
                break
        if found:
            parents.append(candidate)
    return tuple(parents)


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
    for combo in itertools.product(*(first.range_of(n) for n in all_names)):
        env = dict(zip(all_names, combo))
        mapped_env = {variable_map[n]: value_maps[n][env[n]] for n in all_names}
        for target in first.endogenous:
            got = first.equations[target].body.evaluate(env)
            want = second.equations[variable_map[target]].body.evaluate(mapped_env)
            if value_maps[target][got] != want:
                return False
    return True
