"""Exact combinatorics and Monte Carlo for tensor trace-invariants."""

from .graphs import (
    BoundaryReport,
    ColoredGraph,
    GraphFamily,
    GraphStats,
    boundary_graph,
    build_graph,
    conjugate,
    connected_components,
    disjoint_union,
    family_of,
    flip_edges,
    graph_from_json_dict,
    graph_stats,
)
from .search import (
    BudgetError,
    DEFAULT_KMAX,
    DegreeReport,
    SearchReport,
    cayley_delta,
    degree_report,
    gamma_tree_check,
    gurau_bound,
    k_connectivity,
    mst_pair_f0,
    pairing_f0,
    search_f0,
    search_f0_connected,
    treelike_report,
)
from .moments import (
    FactorizationVerdict,
    LaurentPoly,
    LeadingOrder,
    TieredVerdict,
    connected_cumulant,
    cumulant_consistency,
    decide_factorization,
    factorization_verdict,
    gaussian_moment,
    haar_factor,
    leading_order,
    limit_moments_prop34,
    prop32_scaling_check,
    set_partitions,
    thm41_check,
)
from .families import (
    build_with_delta,
    cyclic,
    fig7,
    joint_realignment,
    melonic,
    random_graph,
    realignment,
    two_vertex,
)
from .sampling import (
    MCEstimate,
    MemoryCapError,
    annealed_coefficients,
    concentration_experiment,
    entropy_slope_experiment,
    make_rng,
    mc_moment,
    quenched_annealed_report,
    quenched_entropy,
)

__version__ = "0.1.0"
