"""Families of quadrics over P^m: counting, reduction, relation checks,
recipe experiments, and the seeded search for well-behaved integer nets."""

from .family import (
    NET_FORMAT_VERSION,
    QuadricNet,
    RegularityReport,
    count_total_space,
    lines_through_point,
    load_net,
    points_on_X,
    regularity_check,
)
from .recipes import (
    CubicReport,
    VerraReport,
    cubic_fiber_grams,
    cubic_with_plane_counts,
    swap_verra_factors,
    validate_cubic_with_plane,
    validate_verra_form,
    verra_counts,
)
from .reduction import (
    REDUCED_FORMAT_VERSION,
    ReducedFamily,
    corank_histogram_reduced,
    count_double_cover,
    count_reduced_family,
    count_reduced_family_dual,
    hyperbolic_reduce_family,
)
from .relations import SUPPORTED_SHAPES, CountReport, verify_relations
from .search import (
    SearchResult,
    random_cubic_with_plane,
    random_net_search,
    random_verra_form,
)

__all__ = [
    "NET_FORMAT_VERSION",
    "REDUCED_FORMAT_VERSION",
    "SUPPORTED_SHAPES",
    "QuadricNet",
    "ReducedFamily",
    "CountReport",
    "RegularityReport",
    "CubicReport",
    "VerraReport",
    "SearchResult",
    "corank_histogram_reduced",
    "count_double_cover",
    "count_reduced_family",
    "count_reduced_family_dual",
    "count_total_space",
    "cubic_fiber_grams",
    "cubic_with_plane_counts",
    "hyperbolic_reduce_family",
    "lines_through_point",
    "load_net",
    "points_on_X",
    "random_cubic_with_plane",
    "random_net_search",
    "random_verra_form",
    "regularity_check",
    "swap_verra_factors",
    "validate_cubic_with_plane",
    "validate_verra_form",
    "verify_relations",
    "verra_counts",
]
