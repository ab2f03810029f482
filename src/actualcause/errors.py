"""Exception types shared across the package."""


class ActualCauseError(Exception):
    """Base class for all errors raised by this package."""


class ModelError(ActualCauseError):
    """A model, context, or intervention violates a structural constraint."""


class FormulaError(ActualCauseError):
    """A formula refers to unknown variables or out-of-range values."""


class NormalityError(ActualCauseError):
    """A typicality spec or normality relation is ill-formed or inconsistent."""


# Candidate settings a witness search may enumerate unless the caller says
# otherwise (the CLI's --max-search).
DEFAULT_SEARCH_BUDGET = 1 << 24


class SearchBudgetExceeded(ActualCauseError):
    """A witness search would enumerate more candidates than the configured cap."""

    def __init__(self, candidates: int, budget: int):
        super().__init__(
            f"witness search needs {_count(candidates)} candidate settings, "
            f"budget allows {_count(budget)}"
        )
        self.candidates = candidates
        self.budget = budget


def _count(n: int) -> str:
    """Decimal below 10^12; above, a power of two, so that an estimate of any
    size renders short and without a decimal conversion."""
    if n < 10**12:
        return str(n)
    return f"at least 2^{n.bit_length() - 1}"


class OracleCapExceeded(ActualCauseError):
    """The brute-force oracle only handles very small models."""
