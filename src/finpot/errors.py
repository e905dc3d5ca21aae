"""Exception hierarchy.  Every domain failure raises a FinpotError subclass
carrying a stable ``code`` used by the CLI's structured error output."""


class FinpotError(Exception):
    code = "error"


class VariableMismatchError(FinpotError):
    code = "variable_mismatch"


class PrecisionError(FinpotError):
    code = "precision"


class SeriesDomainError(FinpotError):
    code = "series_domain"


class NotFinitePotentError(FinpotError):
    code = "not_finite_potent"


class IncompatibleTailsError(FinpotError):
    code = "incompatible_tails"


class StraddlingTailError(FinpotError):
    code = "straddling_tail"


class NotInvertibleError(FinpotError):
    code = "not_invertible"


class CompatibilityError(FinpotError):
    code = "compatibility"


class ReductionError(FinpotError):
    """Input cannot be reduced to the operator model (poles away from the place)."""

    code = "reduction"

