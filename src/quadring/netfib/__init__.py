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
    validate_cubic_with_plane,
    validate_verra_form,
    verra_counts,
)
from .reduction import (
    REDUCED_FORMAT_VERSION,
    ReducedFamily,
    count_double_cover,
    count_reduced_family,
    hyperbolic_reduce_family,
)
from .relations import SUPPORTED_SHAPES, CountReport, verify_relations
from .search import (
    SearchResult,
    random_cubic_with_plane,
    random_net_search,
    random_verra_form,
)
