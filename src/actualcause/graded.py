"""Normality-filtered cause test, best witnesses, and graded comparison.

The extended test is the plain one with a single added demand: the world a
contingency produces must be at least as normal as the actual world before it
may serve as a witness.  Minimality is re-checked against the filtered test.
Both tests share one search and one verdict assembly, in the checker module;
this module supplies the order.  Candidates are then graded by their
maximally normal witnesses.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Sequence

from .checker import (
    DEFAULT_SEARCH_BUDGET,
    CandidateCause,
    CauseVerdict,
    _verdict,
    best_witnesses,  # defined beside the verdict that uses it; public here
)
from .formula import BooleanFormula
from .model import CausalModel, Context, World
from .normality import NormalityOrder, Relation


@dataclass(frozen=True)
class ExtendedCausalModel:
    base: CausalModel
    order: NormalityOrder


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
    return _verdict(ext.base, context, cause, effect, max_search, ext.order)


@dataclass(frozen=True)
class GradedPair:
    first: CandidateCause
    second: CandidateCause
    relation: str  # "first_above" | "second_above" | "equal" | "incomparable"


@dataclass(frozen=True)
class GradingResult:
    verdicts: tuple[CauseVerdict, ...]
    pairs: tuple[GradedPair, ...]

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
    verdicts = tuple(
        is_extended_cause(ext, context, c, effect, max_search=max_search)
        for c in candidates
    )
    pairs = []
    for i, j in itertools.combinations(range(len(candidates)), 2):
        pairs.append(
            GradedPair(
                first=candidates[i],
                second=candidates[j],
                relation=_pair_relation(ext.order, verdicts[i], verdicts[j]),
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
    return all(
        any(
            order.compare(b1, b2) in (Relation.MORE_NORMAL, Relation.EQUALLY_NORMAL)
            for b1 in covering
        )
        for b2 in covered
    )


def _strictly_exceeds(
    order: NormalityOrder, winners: Sequence[World], losers: Sequence[World]
) -> bool:
    return any(
        order.compare(b1, b2) is Relation.MORE_NORMAL
        for b1 in winners
        for b2 in losers
    )
