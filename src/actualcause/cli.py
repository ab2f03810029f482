"""Command-line front end.

Subcommands: validate, solve, satisfies, check, witnesses, grade.  Queries
may be given inline or taken from the document's own query lines.  Exit
codes: 0 the query was answered (whatever the verdict), 1 usage or parse
error, 2 search budget exceeded, 3 internal invariant failure.

JSON output is deterministic: key order is fixed and arrays follow the
search order, so identical inputs produce identical bytes.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Optional, TextIO

from . import dsl
from .checker import (
    DEFAULT_SEARCH_BUDGET,
    CauseVerdict,
    WitnessRecord,
    find_all_causes,
    is_actual_cause,
)
from .errors import ActualCauseError, SearchBudgetExceeded
from .formula import format_body
from .graded import (
    ExtendedCausalModel,
    GradingResult,
    grade_candidates,
    is_extended_cause,
)
from .model import World, solve, validate_model
from .normality import NormalityOrder, Relation


class UsageError(ActualCauseError):
    pass


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="actualcause",
        description="Decide and grade actual causation in finite structural "
                    "causal models.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, needs_query in [
        ("validate", False),
        ("solve", False),
        ("satisfies", True),
        ("check", True),
        ("witnesses", True),
        ("grade", True),
    ]:
        cmd = sub.add_parser(name)
        cmd.add_argument("file", help="model document (.scm.txt)")
        if name == "solve":
            cmd.add_argument("selector", nargs="?", default=None,
                             help="context selector, e.g. @u11")
        elif needs_query:
            cmd.add_argument("query", nargs="?", default=None,
                             help="inline query; defaults to the document's "
                                  "query lines")
        cmd.add_argument("--format", choices=("text", "json"), default="text")
        cmd.add_argument("--context", default=None, help="context name")
        cmd.add_argument("--mode", choices=("hp", "extended"), default="hp")
        cmd.add_argument("--max-search", type=int, default=DEFAULT_SEARCH_BUDGET)
        if name == "check":
            cmd.add_argument("--all-causes", type=int, default=None, metavar="K",
                             help="sweep all candidate causes up to K conjuncts")
    return parser


def main(argv: Optional[list[str]] = None, stdout: Optional[TextIO] = None,
         stderr: Optional[TextIO] = None) -> int:
    out = stdout if stdout is not None else sys.stdout
    err = stderr if stderr is not None else sys.stderr
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code == 0 else 1
    try:
        results = _dispatch(args)
    except dsl.DslError as exc:
        for diagnostic in exc.diagnostics:
            print(f"error: {diagnostic}", file=err)
        return 1
    except SearchBudgetExceeded as exc:
        print(f"error: {exc}", file=err)
        return 2
    except (UsageError, ActualCauseError) as exc:
        print(f"error: {exc}", file=err)
        return 1
    except Exception as exc:  # noqa: BLE001 - invariant failures map to exit 3
        print(f"internal error: {exc}", file=err)
        return 3
    if args.format == "json":
        payloads = [payload for _, payload in results]
        body = payloads[0] if len(payloads) == 1 else payloads
        print(json.dumps(body, indent=2), file=out)
    else:
        blocks = [_render_text(kind, payload) for kind, payload in results]
        print("\n\n".join(blocks), file=out)
    return 0


def _dispatch(args) -> list[tuple[str, dict]]:
    try:
        with open(args.file, "r", encoding="utf-8") as handle:
            text = handle.read()
    except OSError as exc:
        raise UsageError(f"cannot read {args.file}: {exc}") from None
    document = dsl.parse_document(text)
    command = args.command
    if command == "validate":
        return [_run_validate(document)]
    if command == "solve":
        return [_run_solve(document, args)]

    queries = _select_queries(document, args)
    order = _prepare_mode(document, args)
    results = []
    for query in queries:
        if isinstance(query, dsl.SatisfiesQuery):
            results.append(_run_satisfies(document, query))
        elif isinstance(query, dsl.CauseQuery):
            if getattr(args, "all_causes", None):
                results.append(_run_all_causes(document, query, args, order))
            else:
                results.append(_run_check(document, query, args, order))
        elif isinstance(query, dsl.WitnessQuery):
            results.append(_run_check(document, query, args, order))
        elif isinstance(query, dsl.GradeQuery):
            results.append(_run_grade(document, query, args, order))
        else:
            raise UsageError(f"query {dsl.format_query(query)} does not fit "
                             f"the {command} command")
    return results


def _select_queries(document: dsl.ParsedDocument, args) -> list[dsl.Query]:
    wanted = {
        "satisfies": (dsl.SatisfiesQuery,),
        "check": (dsl.CauseQuery,),
        "witnesses": (dsl.WitnessQuery, dsl.CauseQuery),
        "grade": (dsl.GradeQuery,),
    }[args.command]
    if args.query is not None:
        query = dsl.parse_query(args.query, document)
        if args.command == "witnesses" and isinstance(query, dsl.CauseQuery):
            query = dsl.WitnessQuery(query.cause, query.effect, query.context)
        if not isinstance(query, wanted):
            raise UsageError(
                f"the {args.command} command expects a matching query kind"
            )
        return [query]
    queries = [q for q in document.queries if isinstance(q, wanted)]
    if args.context:
        queries = [q for q in queries if q.context == args.context]
    if not queries:
        raise UsageError(
            f"no inline query given and the document has no matching "
            f"{args.command}-style query lines"
        )
    return queries


def _prepare_mode(document, args) -> Optional[NormalityOrder]:
    if getattr(args, "mode", "hp") != "extended":
        return None
    if not document.has_normality():
        raise UsageError(
            "extended mode needs typicality declarations or norm relations "
            "in the document"
        )
    return document.normality_order()


def _context(document: dsl.ParsedDocument, name: str) -> dict[str, int]:
    try:
        return document.contexts[name]
    except KeyError:
        raise UsageError(f"unknown context {name}") from None


def _run_validate(document: dsl.ParsedDocument) -> dict:
    report = validate_model(document.model)
    return ("validate", {
        "ok": report.ok,
        "problems": [
            {"kind": p.kind, "message": p.message} for p in report.problems
        ],
    })


def _run_solve(document: dsl.ParsedDocument, args) -> dict:
    name = None
    if getattr(args, "selector", None):
        name = args.selector.lstrip("@")
    elif args.context:
        name = args.context
    else:
        solve_queries = [q for q in document.queries
                         if isinstance(q, dsl.SolveQuery)]
        if len(solve_queries) == 1:
            name = solve_queries[0].context
        elif len(document.contexts) == 1:
            name = next(iter(document.contexts))
    if name is None:
        raise UsageError("solve needs a context (pass @NAME or --context NAME)")
    world = solve(document.model, _context(document, name))
    return ("solve", {
        "query": f"solve @ {name}",
        "world": world.as_dict(),
    })


def _run_satisfies(document: dsl.ParsedDocument, query: dsl.SatisfiesQuery) -> dict:
    from .formula import satisfies

    context = _context(document, query.context)
    holds = satisfies(document.model, context, query.formula)
    return ("satisfies", {
        "query": dsl.format_query(query),
        "holds": holds,
    })


def _witness_payload(
    record: WitnessRecord,
    order: Optional[NormalityOrder],
    actual: Optional[World],
) -> dict:
    if order is None:
        admissible = True
        relation = None
    else:
        verdict = order.compare(record.world, actual)
        admissible = verdict in (Relation.MORE_NORMAL, Relation.EQUALLY_NORMAL)
        relation = verdict.value
    return {
        "w_set": list(record.w_set),
        "w_values": list(record.w_values),
        "x_prime": list(record.x_prime),
        "world": record.world.as_dict(),
        "admissible": admissible,
        "relation_to_actual": relation,
    }


def _verdict_payload(
    query_text: str,
    verdict: CauseVerdict,
    order: Optional[NormalityOrder],
    actual: Optional[World],
) -> dict:
    return ("check", {
        "query": query_text,
        "mode": verdict.mode,
        "ac1": verdict.ac1,
        "is_cause": verdict.is_cause,
        "witnesses": [
            _witness_payload(record, order, actual)
            for record in verdict.hp_witnesses
        ],
        "best_witnesses": [world.as_dict() for world in verdict.best_witnesses],
        "ac3": verdict.ac3,
        "grading": None,
    })


def _run_check(document, query, args, order: Optional[NormalityOrder]) -> dict:
    context = _context(document, query.context)
    if order is not None:
        ext = ExtendedCausalModel(document.model, order)
        verdict = is_extended_cause(ext, context, query.cause, query.effect,
                                    max_search=args.max_search)
    else:
        verdict = is_actual_cause(document.model, context, query.cause,
                                  query.effect, max_search=args.max_search)
    actual = solve(document.model, context)
    text = dsl.format_query(query)
    return _verdict_payload(text, verdict, order, actual)


def _run_all_causes(document, query, args, order) -> dict:
    if order is not None:
        raise UsageError("--all-causes sweeps run in plain mode")
    context = _context(document, query.context)
    causes = find_all_causes(document.model, context, query.effect,
                             max_conjuncts=args.all_causes,
                             max_search=args.max_search)
    return ("all-causes", {
        "query": (f"all-causes k={args.all_causes} for "
                  f"{format_body(query.effect)} @ {query.context}"),
        "causes": [str(c) for c in causes],
    })


def _run_grade(document, query: dsl.GradeQuery, args, order) -> dict:
    context = _context(document, query.context)
    if order is None:
        raise UsageError("grading needs --mode extended and a normality section")
    ext = ExtendedCausalModel(document.model, order)
    result = grade_candidates(ext, context, list(query.candidates), query.effect,
                              max_search=args.max_search)
    actual = solve(document.model, context)
    entries: list = []
    for pair in result.pairs:
        if pair.relation == "first_above":
            entries.append({"above": str(pair.first), "below": str(pair.second)})
        elif pair.relation == "second_above":
            entries.append({"above": str(pair.second), "below": str(pair.first)})
        elif pair.relation == "equal":
            entries.append({"equal": [str(pair.first), str(pair.second)]})
        else:
            entries.append("incomparable")
    return ("grade", {
        "query": dsl.format_query(query),
        "mode": "extended",
        "candidates": [
            {
                "cause": str(verdict.cause),
                "ac1": verdict.ac1,
                "is_cause": verdict.is_cause,
                "ac3": verdict.ac3,
                "admissible_witnesses": len(verdict.admissible_witnesses),
                "best_witnesses": [w.as_dict() for w in verdict.best_witnesses],
            }
            for verdict in result.verdicts
        ],
        "grading": entries,
    })


# -- text rendering -----------------------------------------------------------------


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


if __name__ == "__main__":
    sys.exit(main())
