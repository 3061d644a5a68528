"""Exact generalized matrix polynomials of tree q-Laplacians.

The package computes, in exact rational arithmetic, the polynomial
d_gamma(xI - L) where L is the q-Laplacian of a tree and gamma is a degree-n
symmetric function in any of the six standard bases, and verifies that every
signed coefficient weakly decreases (in the non-negative q^2 cone) along
every proper generalized tree shift.
"""

from .partitions import Partition, enumerate_partitions, mn_character, z_order
from .qpoly import Q, Q2, QP_ONE, QP_ZERO, QPolynomial, XQPolynomial
from .symfunc import (
    BASES,
    ClassFunctionValue,
    PowerExpansion,
    alpha,
    alpha_table,
    inverse_frobenius,
    involution_class_values,
    power_expansion,
)
from .trees import (
    CanonicalTree,
    LabeledTree,
    Matching,
    ahu_canonical,
    ascii_sketch,
    centroids,
    enumerate_free_trees,
    matching_counts,
    matchings,
    parse_tree,
    q_laplacian,
    q_laplacian_entry,
    rooted_code,
    tree_to_edge_text,
    tree_to_json_obj,
)
from .gts import GtsPair, gts_shift, proper_gts_pairs, shift_is_proper, tree_path
from .gmf import (
    AirTable,
    GmfPolynomial,
    air_table,
    gmf_poly_bruteforce,
    gmf_poly_matching,
    verify_air_monotone,
    verify_coeff_formula,
    verify_monotone,
)

__all__ = [
    "BASES",
    "AirTable",
    "CanonicalTree",
    "ClassFunctionValue",
    "GmfPolynomial",
    "GtsPair",
    "LabeledTree",
    "Matching",
    "Partition",
    "PowerExpansion",
    "Q",
    "Q2",
    "QP_ONE",
    "QP_ZERO",
    "QPolynomial",
    "XQPolynomial",
    "ahu_canonical",
    "air_table",
    "alpha",
    "alpha_table",
    "ascii_sketch",
    "centroids",
    "enumerate_free_trees",
    "enumerate_partitions",
    "gmf_poly_bruteforce",
    "gmf_poly_matching",
    "gts_shift",
    "inverse_frobenius",
    "involution_class_values",
    "matching_counts",
    "matchings",
    "mn_character",
    "parse_tree",
    "power_expansion",
    "proper_gts_pairs",
    "q_laplacian",
    "q_laplacian_entry",
    "rooted_code",
    "shift_is_proper",
    "tree_path",
    "tree_to_edge_text",
    "tree_to_json_obj",
    "verify_air_monotone",
    "verify_coeff_formula",
    "verify_monotone",
    "z_order",
]
