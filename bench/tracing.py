"""Spans and counters around the package's public entry points.

The tracer measures each layer from outside: it replaces the public
functions and methods named in ``SPANS`` by wrappers that record one span per
call (name, start, end, parent span, query id) and bump the counters the
benchmark reports.  Spans are kept in flat arrays in memory and written out
when the benchmark ends.  ``uninstall`` puts every original back.

Every binding of a wrapped function inside the package is replaced, so
modules that imported it by name (``from .checker import is_actual_cause``)
see the wrapper too.  A target that a later version of the package no longer
has is listed in ``missing`` and left out; the benchmark then fails rather
than report its counters as zero.
"""

from __future__ import annotations

import importlib
import sys
from array import array
from collections import Counter
from time import perf_counter

# (module, attribute path, span name).  Two targets may share a span name.
SPANS = (
    ("actualcause.dsl", "parse_document", "dsl.parse"),
    ("actualcause.dsl", "parse_query", "dsl.parse_query"),
    ("actualcause.model", "CausalModel.validate", "model.validate"),
    ("actualcause.model", "solve", "model.solve"),
    ("actualcause.formula", "satisfies", "formula.satisfies"),
    ("actualcause.checker", "Engine.__init__", "checker.engine_build"),
    ("actualcause.checker", "Engine.solve_tuple", "checker.solve"),
    ("actualcause.checker", "CauseSearch.enumerate", "checker.enumerate"),
    ("actualcause.checker", "CauseSearch.has_witness", "checker.has_witness"),
    ("actualcause.checker", "CauseSearch.ac2b", "checker.ac2b"),
    ("actualcause.checker", "CauseSearch.ac3", "checker.ac3"),
    ("actualcause.checker", "is_actual_cause", "checker.is_actual_cause"),
    ("actualcause.checker", "find_all_causes", "checker.find_all_causes"),
    ("actualcause.normality", "NormalityOrder.compare", "normality.compare"),
    ("actualcause.normality", "world_marks", "normality.marks"),
    ("actualcause.normality", "derive_from_typicality", "normality.order_build"),
    ("actualcause.normality", "explicit_order", "normality.order_build"),
    ("actualcause.graded", "is_extended_cause", "graded.extended"),
    ("actualcause.graded", "best_witnesses", "graded.best_witnesses"),
    ("actualcause.graded", "grade_candidates", "graded.grade"),
    ("actualcause.cli", "main", "cli.main"),
)

QUERY = "query"
SETUP = "setup"


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("H")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("l")
        self.qid = array("l")
        self.child = array("d")  # time covered by direct children
        self.stack: list[int] = []
        self.counts: Counter = Counter()
        self.query_id = -1
        self._patched: list[tuple[object, str, object]] = []
        self.missing: list[str] = []  # SPANS targets the package does not have

    # -- spans -------------------------------------------------------------------

    def _id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def open(self, nid: int) -> int:
        i = len(self.name)
        self.name.append(nid)
        self.parent.append(self.stack[-1] if self.stack else -1)
        self.qid.append(self.query_id)
        self.child.append(0.0)
        self.end.append(0.0)
        self.stack.append(i)
        self.start.append(perf_counter())
        return i

    def close(self, i: int):
        now = perf_counter()
        self.end[i] = now
        self.stack.pop()
        if self.stack:
            self.child[self.stack[-1]] += now - self.start[i]

    def parent_name(self) -> str:
        return self.names[self.name[self.stack[-1]]] if self.stack else ""

    def run(self, root: str, query_id: int, fn, *args):
        """Call fn under a root span (``query`` or ``setup``) with its id."""
        self.query_id = query_id
        i = self.open(self._id(root))
        try:
            return fn(*args)
        finally:
            self.close(i)
            self.query_id = -1

    # -- patching ----------------------------------------------------------------

    def install(self):
        for module_name, path, span in SPANS:
            try:
                module = importlib.import_module(module_name)
            except ImportError:
                module = None
            owner_name, _, attr = path.rpartition(".")
            owner = getattr(module, owner_name, None) if owner_name else module
            original = getattr(owner, attr, None) if owner is not None else None
            if original is None:
                self.missing.append(f"{module_name}.{path}")
                continue
            wrapper = self._wrap(span, original)
            self._set(owner, attr, wrapper)
            if not owner_name:  # also every other name bound to the function
                for name, other in list(sys.modules.items()):
                    if name.startswith("actualcause"):
                        for key, value in list(vars(other).items()):
                            if value is original:
                                self._set(other, key, wrapper)
        return self

    def uninstall(self):
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        self._patched.clear()

    def _set(self, owner, attr, value):
        self._patched.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def _wrap(self, span: str, fn):
        tracer = self
        nid = self._id(span)
        counts = self.counts
        before = _BEFORE.get(span)
        after = _AFTER.get(span)
        validate = span == "model.validate"

        def wrapper(*args, **kwargs):
            if validate and getattr(args[0], "_report", None) is not None:
                return fn(*args, **kwargs)  # cached report: no validation work
            state = before(tracer, args, kwargs) if before else None
            i = tracer.open(nid)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.close(i)
            counts[span] += 1
            if after:
                after(tracer, args, result, state)
            return result

        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", span)
        return wrapper

    # -- results -----------------------------------------------------------------

    def totals(self) -> tuple[dict[str, float], dict[str, float]]:
        """Per span name: inclusive seconds and self seconds."""
        inclusive: Counter = Counter()
        own: Counter = Counter()
        for i in range(len(self.name)):
            name = self.names[self.name[i]]
            duration = self.end[i] - self.start[i]
            inclusive[name] += duration
            own[name] += duration - self.child[i]
        return dict(inclusive), dict(own)

    def unattributed_share(self) -> float:
        """Share of query wall time outside every wrapped entry point: the
        self time of the query root spans over their duration."""
        qid = self._ids.get(QUERY)
        wall = own = 0.0
        for i in range(len(self.name)):
            if self.name[i] == qid:
                duration = self.end[i] - self.start[i]
                wall += duration
                own += duration - self.child[i]
        return own / wall if wall else 0.0

    def write(self, path):
        """Spans as tab-separated rows: id, name, start, end, self, parent, query."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="utf-8") as out:
            out.write("id\tname\tstart\tend\tself\tparent\tquery\n")
            t0 = self.start[0] if len(self.start) else 0.0
            for i in range(len(self.name)):
                s, e = self.start[i] - t0, self.end[i] - t0
                out.write(f"{i}\t{self.names[self.name[i]]}\t{s:.9f}\t{e:.9f}\t"
                          f"{e - s - self.child[i]:.9f}\t{self.parent[i]}\t{self.qid[i]}\n")


# -- counter hooks ----------------------------------------------------------------
#
# Hit detection reads the size of the memo dicts before and after a call; that
# is an observation from outside, and reads as all-miss if the memo goes away.


def _size(obj, attr: str) -> int:
    return len(getattr(obj, attr, ()))


def _solve_before(tracer, args, kwargs):
    counts = tracer.counts
    parent = tracer.parent_name()
    if parent == "checker.ac2b":
        counts["checker.ac2b_solves"] += 1
    elif parent in ("checker.enumerate", "checker.has_witness"):
        counts["checker.ac2a_solves"] += 1
    return _size(args[0], "_cache")


def _solve_after(tracer, args, result, size):
    if _size(args[0], "_cache") != size or not hasattr(args[0], "_cache"):
        tracer.counts["checker.solve_distinct"] += 1


def _ac2b_before(tracer, args, kwargs):
    return _size(args[0], "_ac2b_cache")


def _ac2b_after(tracer, args, result, size):
    if hasattr(args[0], "_ac2b_cache") and _size(args[0], "_ac2b_cache") == size:
        tracer.counts["checker.ac2b_hits"] += 1


def _enumerate_after(tracer, args, result, state):
    tracer.counts["checker.records"] += len(result)


def _has_witness_after(tracer, args, result, state):
    tracer.counts["checker.records"] += int(bool(result))


def _extended_after(tracer, args, result, state):
    tracer.counts["graded.hp_records"] += len(result.hp_witnesses)
    tracer.counts["graded.admissible_records"] += len(result.admissible_witnesses)


def _parse_before(tracer, args, kwargs):
    text = args[0] if args else kwargs.get("text", "")
    tracer.counts["dsl.lines"] += text.count("\n") + 1


_BEFORE = {
    "checker.solve": _solve_before,
    "checker.ac2b": _ac2b_before,
    "dsl.parse": _parse_before,
}
_AFTER = {
    "checker.solve": _solve_after,
    "checker.ac2b": _ac2b_after,
    "checker.enumerate": _enumerate_after,
    "checker.has_witness": _has_witness_after,
    "graded.extended": _extended_after,
}


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(tracer: Tracer) -> dict[str, float]:
    """The per-layer metrics, from one traced pass.  ``_s`` figures are the
    time inside the calls, children included; ``cli.main_s`` is main's self
    time."""
    c = tracer.counts
    inclusive, own = tracer.totals()
    t = inclusive.get
    return {
        "checker.solve_calls": c["checker.solve"],
        "checker.solve_distinct": c["checker.solve_distinct"],
        "checker.solve_hit_ratio": _ratio(c["checker.solve"] - c["checker.solve_distinct"],
                                          c["checker.solve"]),
        "checker.solve_s": t("checker.solve", 0.0),
        "checker.ac2a_solves": c["checker.ac2a_solves"],
        "checker.witness_yield_ratio": _ratio(c["checker.records"], c["checker.ac2a_solves"]),
        "checker.ac2b_calls": c["checker.ac2b"],
        "checker.ac2b_hit_ratio": _ratio(c["checker.ac2b_hits"], c["checker.ac2b"]),
        "checker.ac2b_solves": c["checker.ac2b_solves"],
        "checker.ac2b_s": t("checker.ac2b", 0.0),
        "checker.has_witness_calls": c["checker.has_witness"],
        "checker.ac3_calls": c["checker.ac3"],
        "checker.ac3_s": t("checker.ac3", 0.0),
        "checker.engine_builds": c["checker.engine_build"],
        "checker.engine_build_s": t("checker.engine_build", 0.0),
        "normality.compare_calls": c["normality.compare"],
        "normality.compare_s": t("normality.compare", 0.0),
        "normality.marks_calls": c["normality.marks"],
        "normality.marks_per_compare": _ratio(c["normality.marks"], c["normality.compare"]),
        "normality.order_build_s": t("normality.order_build", 0.0),
        "graded.extended_calls": c["graded.extended"],
        "graded.extended_s": t("graded.extended", 0.0),
        "graded.best_witnesses_s": t("graded.best_witnesses", 0.0),
        "graded.grade_s": t("graded.grade", 0.0),
        "graded.admissible_ratio": _ratio(c["graded.admissible_records"],
                                          c["graded.hp_records"]),
        "dsl.parse_calls": c["dsl.parse"],
        "dsl.parse_s": t("dsl.parse", 0.0),
        "dsl.lines_per_s": _ratio(c["dsl.lines"], t("dsl.parse", 0.0)),
        "model.validate_calls": c["model.validate"],
        "model.validate_s": t("model.validate", 0.0),
        "model.solve_calls": c["model.solve"],
        "model.solve_s": t("model.solve", 0.0),
        "formula.satisfies_calls": c["formula.satisfies"],
        "cli.main_s": own.get("cli.main", 0.0),
        "trace.spans": len(tracer.name),
        "trace.unattributed_share": tracer.unattributed_share(),
    }
