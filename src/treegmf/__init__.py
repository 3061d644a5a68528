"""Exact generalized matrix polynomials of tree q-Laplacians.

The package computes, in exact rational arithmetic, the polynomial
d_gamma(xI - L) where L is the q-Laplacian of a tree and gamma is a degree-n
symmetric function in any of the six standard bases, and verifies that every
signed coefficient weakly decreases (in the non-negative q^2 cone) along
every proper generalized tree shift.

The public names are resolved on first access (PEP 562), so importing the
package, or one of its modules such as the command-line front end, loads
only the modules that are used.
"""

from __future__ import annotations

import importlib

# every public name, in __all__ order -> the module that defines it
_HOME = {
    "BASES": "symfunc",
    "AirTable": "gmf",
    "CanonicalTree": "trees",
    "ClassFunctionValue": "symfunc",
    "GmfPolynomial": "gmf",
    "GtsPair": "gts",
    "LabeledTree": "trees",
    "Matching": "trees",
    "Partition": "partitions",
    "PowerExpansion": "symfunc",
    "Q": "qpoly",
    "QP_ONE": "qpoly",
    "QP_ZERO": "qpoly",
    "QPolynomial": "qpoly",
    "XQPolynomial": "qpoly",
    "ahu_canonical": "trees",
    "air_table": "gmf",
    "alpha": "symfunc",
    "alpha_table": "symfunc",
    "ascii_sketch": "trees",
    "centroids": "trees",
    "enumerate_free_trees": "trees",
    "enumerate_partitions": "partitions",
    "gmf_poly_bruteforce": "gmf",
    "gmf_poly_matching": "gmf",
    "gts_shift": "gts",
    "inverse_frobenius": "symfunc",
    "involution_class_values": "symfunc",
    "matching_counts": "trees",
    "matchings": "trees",
    "mn_character": "partitions",
    "parse_tree": "trees",
    "power_expansion": "symfunc",
    "proper_gts_pairs": "gts",
    "q_laplacian": "trees",
    "q_laplacian_entry": "trees",
    "rooted_code": "trees",
    "shift_is_proper": "gts",
    "tree_path": "gts",
    "tree_to_edge_text": "trees",
    "tree_to_json_obj": "trees",
    "verify_air_monotone": "gmf",
    "verify_coeff_formula": "gmf",
    "verify_monotone": "gmf",
    "z_order": "partitions",
}
__all__ = list(_HOME)


def __getattr__(name: str):
    module = _HOME.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{module}", __name__), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(__all__))
