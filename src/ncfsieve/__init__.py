"""Exact verification of the cyclic sieving phenomenon for non-crossing
forests on a circle: enumeration, q-analogues evaluated in cyclotomic
quotient rings, and the structural bijections behind the fixed-point
counts. Everything is exact integer arithmetic; no floats anywhere."""

__version__ = "0.1.0"

from .bijections import (
    BijectionError,
    Mark,
    TreeExtent,
    all_marks,
    classify_vertices,
    construct_diameter,
    construct_periodic,
    decompose_diameter,
    decompose_periodic,
    enumerate_images,
    tree_extents,
)
from .enumeration import (
    count_forests,
    divisors,
    enumerate_forests,
    enumerate_invariant,
    invariant_counts,
)
from .forest import NonCrossingForest, chord, crosses, rotate_label
from .qpoly import (
    CyclotomicResidue,
    ExactDivisionError,
    QPoly,
    cyclotomic,
    eval_at_root,
    forest_count,
    forest_count_poly,
    q_binomial,
    q_lucas,
)
from .sieving import (
    CspReport,
    CspRow,
    closed_form_eval,
    fixed_count_bijection,
    fixed_count_brute,
    poly_eval,
    verify_csp,
)

__all__ = [
    "BijectionError",
    "CspReport",
    "CspRow",
    "CyclotomicResidue",
    "ExactDivisionError",
    "Mark",
    "NonCrossingForest",
    "QPoly",
    "TreeExtent",
    "all_marks",
    "chord",
    "classify_vertices",
    "closed_form_eval",
    "construct_diameter",
    "construct_periodic",
    "count_forests",
    "crosses",
    "cyclotomic",
    "decompose_diameter",
    "decompose_periodic",
    "divisors",
    "enumerate_forests",
    "enumerate_images",
    "enumerate_invariant",
    "eval_at_root",
    "fixed_count_bijection",
    "fixed_count_brute",
    "forest_count",
    "forest_count_poly",
    "invariant_counts",
    "poly_eval",
    "q_binomial",
    "q_lucas",
    "rotate_label",
    "tree_extents",
    "verify_csp",
]
