"""Normality-filtered cause test, best witnesses, and graded comparison.

The extended test is the plain one with a single added demand: the world a
contingency produces must be at least as normal as the actual world before it
may serve as a witness.  Minimality is re-checked against the filtered test.
Both tests share one search and one verdict assembly, in the checker module;
this module supplies the order.  Candidates are then graded by their
maximally normal witnesses.

A grading decides every candidate on one search, so the candidates share one
solve memo, one AC2(b) memo and one witness filter.  Each query wraps the
order in a ``_QueryOrder``, which reads each distinct world's marks once;
covering asks only the weak relation (``admits``).  Nothing outlives the
call.
"""

from __future__ import annotations

import itertools
from typing import Sequence

from .checker import (
    DEFAULT_SEARCH_BUDGET,
    CauseVerdict,
    _verdicts,
    best_witnesses,  # defined beside the verdict that uses it; public here
)
from .formula import BooleanFormula, CandidateCause
from .model import CausalModel, Context, Record, World
from .normality import NormalityOrder, Relation, _QueryOrder


class ExtendedCausalModel(Record):
    def __init__(self, base: CausalModel, order: NormalityOrder):
        super().__init__(base, order)


def is_extended_cause(
    ext: ExtendedCausalModel,
    context: Context,
    cause: CandidateCause | Sequence,
    effect: BooleanFormula,
    max_search: int = DEFAULT_SEARCH_BUDGET,
) -> CauseVerdict:
    """Verdict under the normality-filtered test.

    The verdict also carries the plain-mode outcome: every unfiltered witness
    is listed, and ``is_cause_hp`` uses plain minimality.
    """
    return _verdicts(ext.base, context, (cause,), effect, max_search,
                     _QueryOrder(ext.order))[0]


class GradedPair(Record):
    def __init__(self, first: CandidateCause, second: CandidateCause, relation: str):
        """``relation`` is one of "first_above", "second_above", "equal" and
        "incomparable"."""
        super().__init__(first, second, relation)


class GradingResult(Record):
    def __init__(self, verdicts: tuple[CauseVerdict, ...], pairs: tuple[GradedPair, ...]):
        super().__init__(verdicts, pairs)

    def verdict_for(self, cause: CandidateCause) -> CauseVerdict:
        for verdict in self.verdicts:
            if verdict.cause == cause:
                return verdict
        raise KeyError(str(cause))

    def relation(self, first: CandidateCause, second: CandidateCause) -> str:
        for pair in self.pairs:
            if pair.first == first and pair.second == second:
                return pair.relation
            if pair.first == second and pair.second == first:
                return _flip(pair.relation)
        raise KeyError(f"{first} vs {second}")


def _flip(relation: str) -> str:
    if relation == "first_above":
        return "second_above"
    if relation == "second_above":
        return "first_above"
    return relation


def grade_candidates(
    ext: ExtendedCausalModel,
    context: Context,
    candidates: Sequence[CandidateCause],
    effect: BooleanFormula,
    max_search: int = DEFAULT_SEARCH_BUDGET,
) -> GradingResult:
    """Pairwise grading by best witnesses.

    A candidate sits above another when its best witnesses cover the other's
    (every best witness of the other is matched by an at-least-as-normal one)
    and beat it somewhere; mutual covering grades them equal.  Candidates that
    fail the extended test sit below every passing one.
    """
    order = _QueryOrder(ext.order)
    verdicts = _verdicts(ext.base, context, candidates, effect, max_search, order)
    pairs = []
    for i, j in itertools.combinations(range(len(candidates)), 2):
        pairs.append(
            GradedPair(
                first=candidates[i],
                second=candidates[j],
                relation=_pair_relation(order, verdicts[i], verdicts[j]),
            )
        )
    return GradingResult(verdicts=verdicts, pairs=tuple(pairs))


def _pair_relation(
    order: NormalityOrder, first: CauseVerdict, second: CauseVerdict
) -> str:
    f_cause = bool(first.is_cause_extended)
    s_cause = bool(second.is_cause_extended)
    if f_cause and not s_cause:
        return "first_above"
    if s_cause and not f_cause:
        return "second_above"
    if not f_cause and not s_cause:
        return "equal"
    f_best = first.best_witnesses
    s_best = second.best_witnesses
    f_covers = _covers(order, f_best, s_best)
    s_covers = _covers(order, s_best, f_best)
    if f_covers and s_covers:
        return "equal"
    if f_covers and _strictly_exceeds(order, f_best, s_best):
        return "first_above"
    if s_covers and _strictly_exceeds(order, s_best, f_best):
        return "second_above"
    return "incomparable"


def _covers(
    order: NormalityOrder, covering: Sequence[World], covered: Sequence[World]
) -> bool:
    return all(any(order.admits(b1, b2) for b1 in covering) for b2 in covered)


def _strictly_exceeds(
    order: NormalityOrder, winners: Sequence[World], losers: Sequence[World]
) -> bool:
    return any(
        order.compare(b1, b2) is Relation.MORE_NORMAL
        for b1 in winners
        for b2 in losers
    )
