"""Exact verification of the cyclic sieving phenomenon for non-crossing
forests on a circle: enumeration, q-analogues evaluated at roots of unity
from their coefficients folded modulo q^d - 1, and the structural
bijections behind the fixed-point counts. Everything is exact integer
arithmetic; no floats anywhere."""

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
)
from .forest import NonCrossingForest, chord, crosses, rotate_label
from .qpoly import (
    ExactDivisionError,
    QPoly,
    forest_count,
    forest_count_poly,
    q_binomial,
)
from .sieving import (
    CspRow,
    closed_form_eval,
    fixed_count_bijection,
    poly_eval,
    verify_csp,
)

__all__ = [
    "BijectionError",
    "CspRow",
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
    "decompose_diameter",
    "decompose_periodic",
    "divisors",
    "enumerate_forests",
    "enumerate_images",
    "enumerate_invariant",
    "fixed_count_bijection",
    "forest_count",
    "forest_count_poly",
    "poly_eval",
    "q_binomial",
    "rotate_label",
    "tree_extents",
    "verify_csp",
]
