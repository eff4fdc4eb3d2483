"""seprkit: exact sepr-sequence analysis for sign patterns.

The sepr-sequence of an n x n matrix records, for every order k, which of
+, -, 0 occur among the order-k principal minors.  This package computes
such sequences exactly for rational matrices, lifts the notion to sign
patterns (signed determinants, fixed terms, sepr-sets), tests qualitative
stability, and ships an exhaustive small-order verification harness.
"""
from types import ModuleType as _ModuleType

from .signs import (
    AmbSign,
    SeprSequence,
    SeprSymbol,
    Sign,
    combine,
    neg_superscripts,
    parse_sequence,
    symbol_add,
    symbol_mul,
)
from .pattern import (
    DetSummary,
    SignPattern,
    bigraph,
    has_perfect_matching,
    is_ambiguous,
    parse_pattern,
    signed_det,
    subpattern,
)
from .digraph import (
    CycleReport,
    DigraphFamily,
    cycle_report,
    is_irreducible,
    is_sign_semi_stable,
    is_sign_stable_irreducible,
    make_family,
    matching_number,
    simplify,
    strong_components,
    to_dot,
)
from .realize import (
    MagnitudeGrid,
    RationalMatrix,
    allnonzero_realization,
    grid_realizations,
    scale_diagonal_to_one,
    sepr_of_matrix,
    sweep_sepr_table,
    verify_inverse_relation,
)
from .analysis import (
    PredictedSepr,
    SeprSetEstimate,
    SymNonnegClass,
    TermVerdict,
    UniqueStatus,
    UniqueVerdict,
    add_cycle_witness,
    check_semistable_laws,
    classify_symmetric_nonneg_unique,
    fixed_term,
    nonneg_sequence_check,
    predicted_sepr,
    semistability_recognizable,
    sepr_set_estimate,
    unique_verdict,
)

__all__ = [name for name in dir()  # the API, not the submodules that importing it binds here
           if not name.startswith("_") and not isinstance(globals()[name], _ModuleType)]
__version__ = "0.1.0"
