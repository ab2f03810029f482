"""Structural causal models over finite integer domains.

A model pairs a signature (exogenous and endogenous variables, each with a
finite range) with one equation per endogenous variable.  Models are immutable
after construction; solving, intervening, and graph extraction are pure
functions, so shared models are safe to use concurrently.  Every solve
calls one function generated from the model's equations (``_kernel``).
"""

from __future__ import annotations

import graphlib
import itertools
import math
import operator
import os
from collections import Counter
from typing import Callable, Iterable, Mapping, Optional, Sequence

from .errors import ModelError

EXOGENOUS = "exogenous"
ENDOGENOUS = "endogenous"


# Stores an attribute past a record's own __setattr__, into its slot or
# its inline attribute values, where reading ``self.__dict__`` would make
# each instance a dict of its own: more memory, slower reads.
_set = object.__setattr__


class Record:
    """Base of the package's value types: immutable, equal when of one class
    with equal fields, hashed as the tuple of their fields, and shown as
    ``Name(field=value, ...)``.

    A record's fields are the parameters of its own ``__init__``, in order,
    read once per class from its code object; nothing is generated.  A
    subclass's ``__init__`` checks its arguments and passes the fields, in
    order, to ``Record.__init__``; the few records built in bulk store them
    with ``_set`` directly, which is faster.  What else ``__init__`` stores,
    such as ``Table._map``, stays out of equality, hashing and repr.  A
    subclass declared with ``frozen=False`` keeps attribute assignment and
    is unhashable.

    The records built by the thousand, ``World``, ``WitnessRecord``,
    ``PrimitiveEvent`` and ``SourceSpan``, declare ``__slots__``, the tuple
    of their fields: no instance dict, so less memory per record, and the
    search fills them through the slots' own setters.  The others keep their
    attribute values inline, which costs little for records made a few at a
    time and lets a record such as ``Table`` store what is not a field.
    """

    __slots__ = ()

    def __init_subclass__(cls, frozen: bool = True, **kwargs):
        super().__init_subclass__(**kwargs)
        code = cls.__init__.__code__
        cls._fields = cls.__match_args__ = code.co_varnames[1:code.co_argcount]
        if cls.__dict__.get("__slots__", cls._fields) != cls._fields:
            raise TypeError(f"{cls.__qualname__}: __slots__ must be the tuple of its fields")
        get = operator.attrgetter(*cls._fields)
        cls._key = staticmethod(get if len(cls._fields) > 1 else lambda record: (get(record),))
        if not frozen:
            cls.__setattr__, cls.__delattr__ = object.__setattr__, object.__delattr__
            cls.__hash__ = None

    def __init__(self, *values):
        for name, value in zip(self._fields, values, strict=True):
            _set(self, name, value)

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._key(self) == self._key(other)
        return NotImplemented

    def __hash__(self):
        return hash(self._key(self))

    def __repr__(self) -> str:
        fields = ", ".join(map("{}={!r}".format, self._fields, self._key(self)))
        return f"{type(self).__qualname__}({fields})"

    def __reduce__(self):  # unpickling slots by setattr would meet __setattr__
        return self.__class__, self._key(self)

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")


class Variable(Record):
    def __init__(self, name: str, kind: str, range: tuple[int, ...]):
        """``kind`` is EXOGENOUS or ENDOGENOUS."""
        if kind not in (EXOGENOUS, ENDOGENOUS):
            raise ModelError(f"variable {name}: unknown kind {kind!r}")
        if not range:
            raise ModelError(f"variable {name}: range is empty")
        if len(set(range)) != len(range):
            raise ModelError(f"variable {name}: duplicate values in range")
        super().__init__(name, kind, range)


# --- equation bodies ---------------------------------------------------------
#
# An equation body is a small expression tree over integers; `referenced()`
# returns the variable names the body mentions, which drives both acyclicity
# checking and evaluation order.  The trees carry no evaluator: `_translate`
# turns a body into Python source, which `_kernel` fuses into every solve
# and `_compile` into the walks, behaviours and the isomorphism check.


class Const(Record):
    def __init__(self, value: int):
        super().__init__(value)

    def referenced(self) -> frozenset[str]:
        return frozenset()


class Ref(Record):
    def __init__(self, name: str):
        super().__init__(name)

    def referenced(self) -> frozenset[str]:
        return frozenset((self.name,))


class BinOp(Record):
    def __init__(self, op: str, left: Expr, right: Expr):
        """``op`` is one of "min", "max", "+", "-" and "*"."""
        super().__init__(op, left, right)

    def referenced(self) -> frozenset[str]:
        return self.left.referenced() | self.right.referenced()


class Ite(Record):
    """ite(left == right, then, other): equality test with two branches."""

    def __init__(self, left: Expr, right: Expr, then: Expr, other: Expr):
        super().__init__(left, right, then, other)

    def referenced(self) -> frozenset[str]:
        return (
            self.left.referenced()
            | self.right.referenced()
            | self.then.referenced()
            | self.other.referenced()
        )


class Table(Record):
    """Explicit lookup from argument-value tuples to results; where rows
    repeat an argument tuple, the first one counts."""

    def __init__(self, args: tuple[str, ...], rows: tuple[tuple[tuple[int, ...], int], ...]):
        # ``_map`` is the row map every evaluation reads; built last row
        # first, so the first row for an argument tuple is the one kept.
        super().__init__(args, rows)
        _set(self, "_map", dict(reversed(rows)))

    def referenced(self) -> frozenset[str]:
        return frozenset(self.args)


class _MissingRow(ModelError):
    """A table met an argument tuple it has no row for."""


Expr = Const | Ref | BinOp | Ite | Table


class Equation(Record):
    def __init__(self, target: str, body: Expr):
        super().__init__(target, body)


class ValidationProblem(Record):
    def __init__(self, kind: str, message: str):
        """``kind`` is one of "name", "range", "equation", "cycle" and
        "totality"."""
        super().__init__(kind, message)


class ValidationReport(Record):
    def __init__(self, problems: tuple[ValidationProblem, ...]):
        super().__init__(problems)

    @property
    def ok(self) -> bool:
        return not self.problems


class World(Record):
    """Total assignment to the endogenous variables.

    A world need not satisfy the model's equations; witness worlds produced by
    interventions usually break at least one.
    """

    __slots__ = ("variables", "values")

    def __init__(self, variables: tuple[str, ...], values: tuple[int, ...]):
        if len(variables) != len(values):
            raise ModelError("world has mismatched variable/value counts")
        _set(self, "variables", variables)
        _set(self, "values", values)

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
        # Duplicate targets are a validation problem, not a constructor
        # error; remember each repeat for the report.
        self._duplicate_targets: list[str] = []
        for eq in equations:
            if eq.target in self.equations:
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
        self._reach: Optional[tuple[int, ...]] = None
        # The solve kernel, shared with intervened models, and their pins.
        self._compiled: Optional[Callable] = None
        self._pins: tuple[Optional[int], ...] = (None,) * len(self.endogenous)
        self._directions: dict[str, dict[str, Optional[int]]] = {}
        self._lineage: dict[str, tuple[tuple[str, tuple], ...]] = {}
        # Per tuple of context values, each endogenous variable's class head.
        self._classes: dict[tuple, dict[str, str]] = {}

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
        _check_events(self, assignment.items(), "a world")
        return World(self.endogenous, tuple(assignment[n] for n in self.endogenous))

    def world_from_values(self, values: tuple[int, ...]) -> World:
        return World(self.endogenous, values)

    # -- validation -----------------------------------------------------------

    def validate(self) -> ValidationReport:
        if self._report is None:
            self._report = _validate(self)
        return self._report

    def require_valid(self):
        report = self.validate()
        if not report.ok:
            details = "; ".join(p.message for p in report.problems)
            raise ModelError(f"model failed validation: {details}")

    def topological_order(self) -> tuple[str, ...]:
        """Endogenous variables ordered so references point backwards: the
        order validation proved acyclic, or an intervened model's parent's."""
        self.require_valid()
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
    counts = Counter(v.name for v in model.variables)
    for name in sorted(n for n, count in counts.items() if count > 1):
        problems.append(ValidationProblem("name", f"variable {name} declared twice"))
    for dup in model._duplicate_targets:
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

    try:
        model._topo = _reference_walk(model)
    except graphlib.CycleError as exc:
        # graphlib lists each variable before one that references it
        path = " -> ".join(reversed(exc.args[1]))
        problems.append(ValidationProblem("cycle", f"equations form a cycle: {path}"))
    else:
        problems.extend(_totality_problems(model))
    return ValidationReport(tuple(problems))


def _reference_walk(model: CausalModel) -> tuple[str, ...]:
    """The endogenous variables of a well-formed signature ordered so that
    references point backwards, by ``graphlib`` from the variables in
    declaration order and their references in name order; raises
    ``graphlib.CycleError`` on the first cycle it finds.  Validation runs it
    once per model and keeps the order."""
    graph = {name: sorted(ref for ref in model.equations[name].body.referenced()
                          if ref in model._endo_index)
             for name in model.endogenous}
    return tuple(graphlib.TopologicalSorter(graph).static_order())


def _reach_masks(model: CausalModel) -> tuple[int, ...]:
    """Per endogenous position, the bitmask over endogenous positions of the
    variable and of its descendants: every variable whose equation refers to
    it, directly or through other equations.

    Computed once per valid model, children before parents.
    """
    if model._reach is None:
        index = model._endo_index
        reach = [1 << i for i in range(len(model.endogenous))]
        for name in reversed(model.topological_order()):
            mask = reach[index[name]]
            for ref in model.equations[name].body.referenced():
                if ref in index:
                    reach[index[ref]] |= mask
        model._reach = tuple(reach)
    return model._reach


def _totality_problems(model: CausalModel) -> list[ValidationProblem]:
    """Check that each equation has a value in its target's range at every
    combination of its references: proved by the equation's interval when
    that fits the range, else by walking the combinations to the first
    fault, a missing table row or a value outside the range."""
    problems = []
    for target in model.endogenous:
        body = model.equations[target].body
        target_range = set(model.range_of(target))
        bounds = _bounds(model, body)
        if bounds is not None:
            low, high = bounds
            if high - low < len(target_range) and all(
                value in target_range for value in range(low, high + 1)
            ):
                continue
        for env, output in _walk(model, body):
            if isinstance(output, _MissingRow):
                message = f"equation for {target} has no value at {env}: {output}"
            elif output not in target_range:
                message = (f"equation for {target} yields {_decimal(output)} "
                           f"(outside range) at {env}")
            else:
                continue
            problems.append(ValidationProblem("totality", message))
            break
    return problems


def _decimal(value: int) -> str:
    """The value in decimal, or past the interpreter's limit on decimal
    conversion its bit length, which needs no conversion."""
    try:
        return str(value)
    except ValueError:
        return f"a {'negative ' * (value < 0)}value of {abs(value).bit_length()} bits"


def _bounds(model: CausalModel, expr: Expr) -> Optional[tuple[int, int]]:
    """An interval holding every value the expression takes over the ranges
    of the variables it references, by interval arithmetic; None when a table
    in it lacks a row somewhere on its arguments' ranges, which only the walk
    can tell from a row the expression never reaches."""
    if isinstance(expr, Const):
        return expr.value, expr.value
    if isinstance(expr, Ref):
        values = model.range_of(expr.name)
        return min(values), max(values)
    if isinstance(expr, Table):
        rows = expr._map
        if any(combo not in rows for combo in
               itertools.product(*(model.range_of(a) for a in expr.args))):
            return None
        return min(rows.values()), max(rows.values())
    if isinstance(expr, Ite):
        parts = [_bounds(model, e) for e in (expr.left, expr.right, expr.then, expr.other)]
        if None in parts:
            return None
        (low, high), (low2, high2) = parts[2:]
        return min(low, low2), max(high, high2)
    left, right = _bounds(model, expr.left), _bounds(model, expr.right)
    if left is None or right is None:
        return None
    (a, b), (c, d) = left, right
    if expr.op == "min":
        return min(a, c), min(b, d)
    if expr.op == "max":
        return max(a, c), max(b, d)
    if expr.op == "+":
        return a + c, b + d
    if expr.op == "-":
        return a - d, b - c
    if expr.op == "*":
        corners = (a * c, a * d, b * c, b * d)
        return min(corners), max(corners)
    return None


def _walk(model: CausalModel, body: Expr):
    """Every combination of the values of the body's references, as an env,
    with the body's output there, or with the missing-row fault met instead.
    Names in sorted order, each range ascending, the last name fastest.  The
    body runs compiled over the combination; any other fault, such as an
    unknown operator, is raised."""
    refs = sorted(body.referenced())
    [compiled] = _compile((body,), {name: i for i, name in enumerate(refs)})
    for combo in itertools.product(*(sorted(model.range_of(r)) for r in refs)):
        try:
            output = compiled(combo)
        except _MissingRow as fault:
            output = fault
        yield dict(zip(refs, combo)), output


def validate_model(model: CausalModel) -> ValidationReport:
    """Report-style validation: returns problems instead of raising."""
    return model.validate()


def _event_fault(model: CausalModel, name: str, value: int, where: str,
                 kind: str = ENDOGENOUS) -> Optional[str]:
    """The event rule: ``name=value``, stated in ``where``, names a declared
    variable of the given kind at a value in its range.  Returns the fault's
    message, or None when the event keeps the rule."""
    variable = model._by_name.get(name)
    if variable is None:
        return f"undeclared variable {name}"
    if variable.kind != kind:
        if kind == EXOGENOUS:
            return f"{where} assigns endogenous variable {name}"
        return f"{name} is exogenous; {where} needs an endogenous variable"
    if value not in variable.range:
        return f"value {value} outside the range of {name}"
    return None


def _check_events(model: CausalModel, events: Iterable[tuple[str, int]], where: str,
                  error: type = ModelError, kind: str = ENDOGENOUS):
    """Raise ``error`` with the first fault of the event rule among the
    ``(name, value)`` events stated in ``where``: the one raise site of the
    rule in the library."""
    for name, value in events:
        fault = _event_fault(model, name, value, where, kind)
        if fault is not None:
            raise error(fault)


def check_context(model: CausalModel, context: Context):
    """Reject contexts that are partial or out of range."""
    for name in model.exogenous:
        if name not in context:
            raise ModelError(f"context is missing exogenous variable {name}")
    _check_events(model, context.items(), "context", kind=EXOGENOUS)


def solve(model: CausalModel, context: Context) -> World:
    """Unique solution of the equations under the given context: one call
    of the model's kernel, running every equation (but an intervened
    model's targets) in topological order, so each sees its inputs settled.
    """
    model.require_valid()
    check_context(model, context)
    return World(model.endogenous, _kernel(model)(model._pins, -1, _start(model, context)))


def _start(model: CausalModel, context: Context) -> list:
    """The env list before any equation runs: None at each endogenous
    position, then the context's values, each in declaration order."""
    return [None] * len(model.endogenous) + [context[name] for name in model.exogenous]


# Generated code is filed under the package, so its frames count as the package's.
_GENERATED = os.path.join(os.path.dirname(__file__), "<generated>")

# Parsing takes some 10 KB per position: a wider kernel is a function per chunk.
_CHUNK = 256


def _define(lines: list[str], names: dict):
    exec(compile("\n".join(lines), _GENERATED, "exec"), names)


def _kernel(model: CausalModel) -> Callable[[tuple, int, list], tuple[int, ...]]:
    """The model's solve kernel ``settle(key, run, env)``, made once: each
    position holds its pin in ``key``, else runs its equation inline, in
    topological order, when its bit is set in the mask ``run``, else reads
    ``env`` (the endogenous positions, then the context's values).  Past
    ``_CHUNK`` positions it calls one function per chunk of the order."""
    if model._compiled is None:
        n = len(model.endogenous)
        index = {name: i for i, name in enumerate(model.endogenous + model.exogenous)}
        order = [index[name] for name in model.topological_order()]
        held, names = "".join(f"v{i}, " for i in range(n)), {}
        reads = [f"v{i}" if i < n else f"env[{i}]" for i in range(len(index))]
        for k in range(0, n or 1, _CHUNK):
            lines = [f"def {'settle' if n <= _CHUNK else f'c{k}'}(key, run, env):",
                     f" ({held}) = key"]
            for i in order[k:k + _CHUNK]:
                shared, text = _translate(model.equations[model.endogenous[i]].body, names,
                                          lambda ref: reads[index[ref]])
                # A wide mask would make the source long and slow to compile.
                test = f"run & {1 << i}" if i < 62 else f"run >> {i} & 1"
                lines += [f" if v{i} is None:",
                          f"  if {test}: {'; '.join([*shared, f'v{i} = {text}'])}",
                          f"  else: v{i} = env[{i}]"]
            _define(lines + [f" return ({held})"], names)
        if n > _CHUNK:
            _define(["def settle(key, run, env):", *(
                f" key = c{k}(key, run, env)" for k in range(0, n, _CHUNK)), " return key"], names)
        model._compiled = names["settle"]
    return model._compiled


class _Rows(dict):
    """A table's rows; an argument tuple with no row raises ``_MissingRow``."""

    def __missing__(self, key):
        raise _MissingRow(f"table({', '.join(self.args)}) has no row for {key}")


# Each operator's source: every composite is bracketed, needing no precedence.
_OPERATORS = {"min": "min({}, {})", "max": "max({}, {})", "+": "({} + {})",
              "-": "({} - {})", "*": "({} * {})"}


def _translate(expr: Expr, names: dict, read: Callable[[str], str]) -> tuple[list[str], str]:
    """Statements computing each table-free subexpression met more than once
    into a local, and the expression, reading variables as ``read`` gives:
    only ints and positions formatted here.  A table (lazy in its ite branch)
    or a constant that is no small int is bound in ``names``."""
    counts: Counter = Counter()
    lines: list[str] = []
    local: dict = {}

    def parts(e: Expr) -> list:  # the subexpressions: the fields that are records
        return [field for field in e._key(e) if isinstance(field, Record)]

    def count(e: Expr):
        counts[e] += 1
        if counts[e] == 1:
            for part in parts(e):
                count(part)

    def emit(e: Expr, depth: int) -> tuple[str, bool]:  # source, and if it holds a table
        if isinstance(e, Ref):
            return read(e.name), False
        if isinstance(e, Const) and type(e.value) is int and e.value.bit_length() < 64:
            return f"{e.value:d}", False
        key = f"_k{len(names)}"
        if isinstance(e, Const):
            names[key] = e.value
            return key, False
        if isinstance(e, Table):
            names[key] = rows = _Rows(e._map)
            rows.args = e.args
            return f"{key}[{''.join(f'{read(a)}, ' for a in e.args) or '()'}]", True
        if e in local:
            return local[e], False
        found = [emit(part, depth + 1) for part in parts(e)]
        texts, tabled = [text for text, _ in found], any(held for _, held in found)
        if isinstance(e, Ite):
            text = "({2} if {0} == {1} else {3})".format(*texts)
        elif e.op in _OPERATORS:
            text = _OPERATORS[e.op].format(*texts)
        else:
            raise ModelError(f"unknown operator {e.op!r}")
        # Every 64 levels a subtree gets a local too, which keeps the source
        # within the parser's limit on nested brackets.
        if (counts[e] > 1 or depth % 64 == 63) and not tabled:
            local[e] = f"s{len(local)}"
            lines.append(f"{local[e]} = {text}")
            return local[e], False
        return text, tabled

    count(expr)
    return lines, emit(expr, 0)[0]


def _compile(exprs: Sequence[Expr],
             positions: Mapping[str, int]) -> tuple[Callable[[Sequence], int], ...]:
    """Per expression, a function of an env sequence holding each variable
    at its position, all from one run of generated source."""
    lines, names = [], {}
    for k, expr in enumerate(exprs):
        shared, text = _translate(expr, names, lambda name: f"env[{positions[name]:d}]")
        lines += [f"def f{k}(env):", *(f" {line}" for line in shared), f" return {text}"]
    if lines:
        _define(lines, names)
    return tuple(names[f"f{k}"] for k in range(len(exprs)))


def intervene(model: CausalModel, setting: Mapping[str, int]) -> CausalModel:
    """New model with each targeted equation replaced by a constant.

    Interventions target endogenous variables only; the original model is
    unchanged.
    """
    _check_events(model, setting.items(), "an intervention")
    equations = [
        Equation(t, Const(setting[t])) if t in setting else eq
        for t, eq in model.equations.items()
    ]
    child = CausalModel(model.variables, equations)
    if model.validate().ok:
        # Replacing equations by in-range constants preserves validity; the
        # parent's report, order and kernel serve the child, which holds
        # every pin of the parent's and its own.
        child._report, child._topo = model._report, model._topo
        child._compiled, child._pins = _kernel(model), tuple(
            map(setting.get, model.endogenous, model._pins))
    return child


class DependenceGraph(Record):
    """Semantic parent/child structure over the endogenous variables.

    There is an edge parent -> child when some change of the parent's value,
    everything else fixed, changes the child's equation output.  Past
    ``DIRECTION_CAP`` combinations of an equation's references, every
    endogenous reference counts as a parent: a superset, not an exhaustive
    walk.
    """

    def __init__(self, variables: tuple[str, ...], edges: frozenset[tuple[str, str]]):
        super().__init__(variables, edges)

    def parents(self, name: str) -> tuple[str, ...]:
        return tuple(p for p, c in sorted(self.edges) if c == name)

    def children(self, name: str) -> tuple[str, ...]:
        return tuple(c for p, c in sorted(self.edges) if p == name)

    def sorted_edges(self) -> tuple[tuple[str, str], ...]:
        return tuple(sorted(self.edges))


def dependence_graph(model: CausalModel) -> DependenceGraph:
    """Graph of semantic (not merely syntactic) dependencies."""
    model.require_valid()
    return DependenceGraph(model.endogenous, frozenset(
        (parent, target) for target in model.endogenous
        for parent, _ in _moving_parents(model, target)))


def semantic_parents(model: CausalModel, target: str) -> tuple[str, ...]:
    """Variables whose value actually matters to the target's equation, read
    from its directions: past ``DIRECTION_CAP`` every reference counts."""
    return tuple(name for name, way in _directions(model, target).items() if way != 0)


# Past this many combinations of an equation's references, its directions
# are unknown: the search then refutes nothing through it, and every
# reference counts as a semantic parent.
DIRECTION_CAP = 1 << 12


def _directions(model: CausalModel, target: str) -> dict[str, Optional[int]]:
    """Direction of the target's equation in each variable it references, in
    name order: 0 when the output never moves with the variable, 1 when it
    never falls and -1 when it never rises as the variable steps up its
    range, every other reference held fixed; None when it does both (mixed),
    or when the references have more than ``DIRECTION_CAP`` combinations
    (unknown).  Computed once per model, on first use.

    Reads the outputs of ``_walk``; neighbours along a reference sit one
    stride apart in it."""
    found = model._directions.get(target)
    if found is not None:
        return found
    body = model.equations[target].body
    refs = sorted(body.referenced())
    ranges = [sorted(model.range_of(r)) for r in refs]
    size = math.prod(len(values) for values in ranges)
    directions = dict.fromkeys(refs)
    if size <= DIRECTION_CAP:
        outputs = []
        for _, output in _walk(model, body):
            if isinstance(output, _MissingRow):
                raise output
            outputs.append(output)
        stride = size
        for name, values in zip(refs, ranges):
            stride //= len(values)
            top = len(values) - 1
            rises = falls = False
            for p in range(size - stride):
                if p // stride % len(values) != top:
                    step = outputs[p + stride] - outputs[p]
                    rises |= step > 0
                    falls |= step < 0
            directions[name] = None if rises and falls else int(rises) - int(falls)
    model._directions[target] = directions
    return directions


def _moving_parents(model: CausalModel, target: str) -> tuple[tuple[str, Optional[int]], ...]:
    """The target's endogenous references whose direction is not 0, each with it:
    its parents in ``dependence_graph``."""
    return tuple((name, way) for name, way in _directions(model, target).items()
                 if way != 0 and name in model._endo_index)


def _lineage(model: CausalModel, target: str) -> tuple[tuple[str, tuple], ...]:
    """The target and each variable with a path of moving references to it,
    latest in the topological order first, each with ``_moving_parents``:
    the variables a backward pass from the target can reach, worked out once
    per model and target."""
    found = model._lineage.get(target)
    if found is None:
        reached, found = {target}, []
        for name in reversed(model.topological_order()):
            if name in reached:
                parents = _moving_parents(model, name)
                found.append((name, parents))
                reached.update(parent for parent, _ in parents)
        found = model._lineage[target] = tuple(found)
    return found
