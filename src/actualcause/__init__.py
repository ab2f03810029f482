"""Deciding and grading actual causation in finite structural causal models."""

from .checker import (
    DEFAULT_SEARCH_BUDGET,
    CauseVerdict,
    WitnessRecord,
    check_ac1,
    check_ac2,
    enumerate_witnesses,
    find_all_causes,
    is_actual_cause,
)
from .errors import (
    ActualCauseError,
    FormulaError,
    ModelError,
    NormalityError,
    OracleCapExceeded,
    SearchBudgetExceeded,
)
from .formula import (
    BooleanFormula,
    CandidateCause,
    CausalFormula,
    Conjunction,
    Disjunction,
    Negation,
    PrimitiveEvent,
    evaluate,
    satisfies,
)
from .graded import (
    ExtendedCausalModel,
    GradedPair,
    GradingResult,
    best_witnesses,
    grade_candidates,
    is_extended_cause,
)
from .model import (
    BinOp,
    CausalModel,
    Const,
    Equation,
    Ite,
    Ref,
    Table,
    Variable,
    World,
    dependence_graph,
    equation_isomorphism,
    intervene,
    semantic_parents,
    solve,
    validate_model,
)
from .normality import (
    Behavior,
    BehaviorRanking,
    NormalityOrder,
    Relation,
    TrivialOrder,
    TypicalitySpec,
    ValueRanking,
    assign_behavior,
    compare,
    derive_from_typicality,
    explicit_order,
)

__version__ = "0.1.0"
