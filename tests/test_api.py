"""The public API: the names `seprkit` exports, and names retired from it.

Adding or removing a public name changes PUBLIC_NAMES, so it shows up as a
test diff.  The library names that `bench/` reads are pinned separately by
test_bench_names.
"""
import inspect
from types import ModuleType

import seprkit
from seprkit import digraph, enumeration, pattern, realize, signs

PUBLIC_NAMES = [
    "AmbSign",
    "CycleReport",
    "DetSummary",
    "DigraphFamily",
    "MagnitudeGrid",
    "PredictedSepr",
    "RationalMatrix",
    "SeprSequence",
    "SeprSetEstimate",
    "SeprSymbol",
    "Sign",
    "SignPattern",
    "SymNonnegClass",
    "TermVerdict",
    "UniqueStatus",
    "UniqueVerdict",
    "add_cycle_witness",
    "allnonzero_realization",
    "bigraph",
    "check_semistable_laws",
    "classify_symmetric_nonneg_unique",
    "combine",
    "cycle_report",
    "fixed_term",
    "grid_realizations",
    "has_perfect_matching",
    "is_ambiguous",
    "is_irreducible",
    "is_sign_semi_stable",
    "is_sign_stable_irreducible",
    "make_family",
    "matching_number",
    "neg_superscripts",
    "nonneg_sequence_check",
    "parse_pattern",
    "parse_sequence",
    "predicted_sepr",
    "scale_diagonal_to_one",
    "semistability_recognizable",
    "sepr_of_matrix",
    "sepr_set_estimate",
    "signed_det",
    "simplify",
    "strong_components",
    "subpattern",
    "sweep_sepr_table",
    "symbol_add",
    "symbol_mul",
    "to_dot",
    "unique_verdict",
    "verify_inverse_relation",
]

# names that nothing in the library, the CLI or the benchmark called
RETIRED = [
    (digraph, "CycleSignStructure"),
    (digraph, "classify_cycle_sign_structure"),
    (digraph, "all_signed_cycle_products_positive"),
    (signs.AmbSign, "from_sign"),
    (signs.AmbSign, "to_sign"),
    (signs.AmbSign, "add"),
    (signs.AmbSign, "mul"),
    (signs.SeprSequence, "of"),
    (signs.SeprSequence, "order"),
    (pattern.DetSummary.from_signs(1), "term_count_bound"),  # a field lives on instances
    (realize.MagnitudeGrid, "epsilon_preset"),
    (digraph, "cycle_pattern"),
    (digraph, "complete_pattern"),
    (digraph, "leaf_loop_star_pattern"),
    (enumeration, "family_size"),
    (pattern, "Bigraph"),  # bigraph(P) returns its rows' nonzero columns
]


def test_public_names_are_pinned():
    assert PUBLIC_NAMES == sorted(PUBLIC_NAMES)
    assert seprkit.__all__ == PUBLIC_NAMES
    # the submodules stay importable but are not exported
    assert not [name for name in seprkit.__all__ if isinstance(getattr(seprkit, name), ModuleType)]


def test_retired_names_are_gone():
    for owner, name in RETIRED:
        assert not hasattr(owner, name), (owner, name)
        assert name not in seprkit.__all__
    # the cycle cap is the module constant, read when the cycles are listed
    assert list(inspect.signature(digraph.simple_cycles).parameters) == ["P"]
