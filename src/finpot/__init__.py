"""Exact traces, infinite determinants, and local symbols of finite potent
operators on countable-basis spaces, with Laurent-series exponentials, the
residue pairing on the projective line, and the loop-group pairing."""

from .determinants import (
    DetResult,
    det_one_plus,
    det_poly,
    det_routes,
    exterior_trace,
    invert_one_plus,
    log_det_series,
    plemelj_smithies_series,
    regularized_det_series,
    restrict_scalars,
    routes_agree,
    tate_trace,
    wedge_scaling_check,
)
from .errors import (
    CompatibilityError,
    FinpotError,
    IncompatibleTailsError,
    NotFinitePotentError,
    NotInvertibleError,
    PrecisionError,
    ReductionError,
    SeriesDomainError,
    StraddlingTailError,
    VariableMismatchError,
    WindowExhaustedError,
)
from .exponentials import (
    OperatorSeries,
    det_series,
    exp_op,
    exp_product,
    infinite_product_det,
    zassenhaus_check,
    zassenhaus_terms,
)
from .fitting import ASTDecomposition, fitting, lift_ast
from .operators import (
    Certificate,
    FinitePotentOperator,
    HalfSpaceSpec,
    SparseOperator,
    TailDescriptor,
    certify_finite_potent,
    op_add,
    op_apply,
    op_commutator,
    op_compose,
    op_entry,
    op_scale,
    op_sub,
)
from .parsing import parse_loop_exponent, parse_place, parse_rational_function
from .places import LocalExpansion, Place, local_expand, relevant_places
from .polynomials import Polynomial, RationalFunction, coprime_basis, squarefree_parts
from .residues import residue_classical, residue_sum, residue_tate, squarefree_residues
from .scalars import NumberField, NumberFieldElement, field_norm, field_trace
from .segal_wilson import (
    LoopExponent,
    sw_group_cocycle_check,
    sw_pairing_closed,
    sw_pairing_interval,
    sw_pairing_truncated,
    sw_vs_tate_check,
    toeplitz_block,
)
from .series import (
    TruncatedLaurentSeries,
    series_exp,
    series_inv,
    series_log,
    series_mul,
)
from .symbols import (
    SymbolValue,
    c4_check,
    c5_check,
    cocycle,
    cocycle_identity_check,
    cocycle_via_operators,
    pairing,
    pairing_via_operators,
    reciprocity_check,
)

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
