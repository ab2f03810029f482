"""Text renderings that a JSON query never runs.

``pretty_print`` writes a parsed document in canonical form, and parsing
what it prints gives the document back.  ``_render_text`` writes the CLI's
``--format text`` output from the payloads its JSON output encodes.  They
live apart from ``dsl`` and ``cli``, which every CLI process imports, so a
process that answers in JSON does not compile them.
"""

from __future__ import annotations

from .dsl import ParsedDocument, format_query
from .errors import ActualCauseError
from .model import EXOGENOUS, BinOp, CausalModel, Const, Expr, Ite, Ref, Table


def format_expr(expr: Expr, parent_level: int = 0, right_side: bool = False) -> str:
    if isinstance(expr, Const):
        return str(expr.value)
    if isinstance(expr, Ref):
        return expr.name
    if isinstance(expr, BinOp):
        if expr.op in ("min", "max"):
            return f"{expr.op}({format_expr(expr.left)}, {format_expr(expr.right)})"
        level = 2 if expr.op == "*" else 1
        text = (f"{format_expr(expr.left, level, False)} {expr.op} "
                f"{format_expr(expr.right, level, True)}")
        if level < parent_level or (level == parent_level and right_side):
            return f"({text})"
        return text
    if isinstance(expr, Ite):
        return (f"ite({format_expr(expr.left)} == {format_expr(expr.right)}, "
                f"{format_expr(expr.then)}, {format_expr(expr.other)})")
    if isinstance(expr, Table):
        rows = ", ".join(
            "(" + ", ".join(str(v) for v in key) + f") -> {value}"
            for key, value in expr.rows
        )
        return f"table({', '.join(expr.args)}){{{rows}}}"
    raise TypeError(f"unexpected expression node {expr!r}")




def pretty_print(document: ParsedDocument) -> str:
    """Canonical rendering; printing a parsed document and reparsing is a
    fixed point on the text."""
    lines = []
    model = document.model
    for variable in model.variables:
        values = ",".join(str(v) for v in variable.range)
        if variable.kind == EXOGENOUS:
            lines.append(f"exo {variable.name} : {{{values}}}")
        else:
            body = format_expr(model.equations[variable.name].body)
            lines.append(f"var {variable.name} : {{{values}}} = {body}")
    spec = document.typicality
    if spec is not None:
        for ranking in spec.value_rankings:
            order = " > ".join(str(v) for v in ranking.ranking)
            lines.append(f"typical {ranking.variable} = {order}")
        for chain in spec.severity_chains:
            text = " < ".join(f"{n}={v}" for n, v in chain)
            lines.append(f"severity {text}")
        if spec.mechanism:
            lines.append("mechanism on")
        for ranking in spec.behavior_rankings:
            parts = " > ".join(
                f'"{b.label}" = {format_expr(b.body)}' for b in ranking.behaviors
            )
            lines.append(f"behavior {ranking.variable} : {parts}")
    for left, op, right in document.explicit_norms:
        lines.append(f"norm {_format_world_literal(model, left)} {op} "
                     f"{_format_world_literal(model, right)}")
    for name, assignment in document.contexts.items():
        items = ", ".join(f"{n}={assignment[n]}" for n in model.exogenous)
        lines.append(f"context {name} : {items}")
    for query in document.queries:
        lines.append(format_query(query))
    return "\n".join(lines) + "\n"


def _format_world_literal(model: CausalModel, assignment: dict[str, int]) -> str:
    items = ", ".join(f"{n}={assignment[n]}" for n in model.endogenous)
    return f"({items})"


def _format_world_dict(world: dict[str, int]) -> str:
    return "(" + ", ".join(f"{n}={v}" for n, v in world.items()) + ")"


def _render_text(kind: str, result: dict) -> str:
    if kind == "validate":
        if result["ok"]:
            return "model: ok"
        lines = ["model: invalid"]
        lines += [f"  {p['kind']}: {p['message']}" for p in result["problems"]]
        return "\n".join(lines)
    if kind == "solve":
        return (f"query: {result['query']}\n"
                f"world: {_format_world_dict(result['world'])}")
    if kind == "satisfies":
        return (f"query: {result['query']}\n"
                f"holds: {'yes' if result['holds'] else 'no'}")
    if kind == "all-causes":
        lines = [f"query: {result['query']}", "causes:"]
        lines += [f"  {c}" for c in result["causes"]]
        return "\n".join(lines)
    if kind == "check":
        lines = [
            f"query: {result['query']}",
            f"mode: {result['mode']}",
            f"is_cause: {'yes' if result['is_cause'] else 'no'} "
            f"(AC1 {'yes' if result['ac1'] else 'no'}, "
            f"{len(result['witnesses'])} witness record(s), "
            f"AC3 {'yes' if result['ac3'] else 'no'})",
        ]
        if result["witnesses"]:
            lines.append("witnesses:")
            for witness in result["witnesses"]:
                w_pairs = ", ".join(
                    f"{n}={v}" for n, v in zip(witness["w_set"], witness["w_values"])
                )
                note = ""
                if witness["relation_to_actual"] is not None:
                    note = f" [{witness['relation_to_actual'].replace('_', ' ')}" \
                           f"{'' if witness['admissible'] else ', inadmissible'}]"
                alt = ", ".join(str(v) for v in witness["x_prime"])
                lines.append(
                    f"  W={{{w_pairs}}}, x'=({alt}) -> "
                    f"{_format_world_dict(witness['world'])}{note}"
                )
        if result["best_witnesses"]:
            lines.append("best witnesses:")
            lines += [f"  {_format_world_dict(w)}" for w in result["best_witnesses"]]
        return "\n".join(lines)
    if kind == "grade":
        lines = [f"query: {result['query']}", f"mode: {result['mode']}",
                 "candidates:"]
        for cand in result["candidates"]:
            verdict = "cause" if cand["is_cause"] else "not a cause"
            best = ", ".join(_format_world_dict(w) for w in cand["best_witnesses"])
            suffix = f" (best: {best})" if best else ""
            lines.append(f"  {cand['cause']}: {verdict}{suffix}")
        lines.append("grading:")
        for entry in result["grading"]:
            if entry == "incomparable":
                lines.append("  incomparable pair")
            elif "equal" in entry:
                lines.append(f"  {entry['equal'][0]} == {entry['equal'][1]}")
            else:
                lines.append(f"  {entry['above']} above {entry['below']}")
        return "\n".join(lines)
    raise ActualCauseError(f"unknown result kind {kind}")
