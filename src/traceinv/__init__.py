"""Exact combinatorics and Monte Carlo for tensor trace-invariants.

Importing the package loads the exact layer (graphs, search, moments,
families) and neither numpy nor scipy.  numpy is loaded by the first
pairing walk (``search``) or the first access to a Monte Carlo name, such
as ``traceinv.mc_moment``, which imports ``sampling``; scipy only by
``annealed_coefficients``.
"""

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

__version__ = "0.1.0"

# sampling's names, which import it and so numpy on first access (PEP 562)
_SAMPLING = (
    "MCEstimate",
    "MemoryCapError",
    "annealed_coefficients",
    "concentration_experiment",
    "entropy_slope_experiment",
    "make_rng",
    "mc_moment",
    "quenched_annealed_report",
    "quenched_entropy",
)


def __getattr__(name):
    if name in _SAMPLING:
        from . import sampling

        return getattr(sampling, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return sorted({*globals(), *_SAMPLING})
