"""Deciding and grading actual causation in finite structural causal models.

Each public name is imported from its module when it is first read, so a
program loads only the modules it uses.
"""

import importlib

_EXPORTS = {
    "checker": ("CauseVerdict", "WitnessRecord", "check_ac1", "check_ac2",
                "enumerate_witnesses", "find_all_causes", "is_actual_cause"),
    "errors": ("DEFAULT_SEARCH_BUDGET", "ActualCauseError", "FormulaError", "ModelError",
               "NormalityError", "OracleCapExceeded", "SearchBudgetExceeded"),
    "formula": ("BooleanFormula", "CandidateCause", "CausalFormula", "Conjunction",
                "Disjunction", "Negation", "PrimitiveEvent", "evaluate", "satisfies"),
    "graded": ("ExtendedCausalModel", "GradedPair", "GradingResult", "best_witnesses",
               "grade_candidates", "is_extended_cause"),
    "model": ("BinOp", "CausalModel", "Const", "Equation", "Ite", "Ref", "Table", "Variable",
              "World", "dependence_graph", "intervene", "semantic_parents", "solve",
              "validate_model"),
    "normality": ("Behavior", "BehaviorRanking", "NormalityOrder", "Relation",
                  "TrivialOrder", "TypicalitySpec", "ValueRanking", "assign_behavior",
                  "compare", "derive_from_typicality", "explicit_order"),
    "symmetry": ("equation_isomorphism",),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = list(_MODULE_OF)
__version__ = "0.1.0"


def __getattr__(name: str):
    # Not stored in the package's globals: each read looks the name up in its
    # module, so a binding replaced there is what the package gives.
    module = _MODULE_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(importlib.import_module(f"{__name__}.{module}"), name)


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
