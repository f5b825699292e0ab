"""Toolkit for clique-graph dynamics over bitset-backed simple graphs.

Core pieces: maximal cliques and the clique graph operator, the
clique-Helly decision via extended triangles, canonical labeling and
coaffination search, divergence certificates and the convergence
classifier, exhaustive/random regular-graph generation, and the exact
counting bounds that tie them together in census sweeps.
"""

from .behavior import (
    BehaviorResult,
    ConnectedSumCertificate,
    CycleComplementCertificate,
    DEFAULT_LIMITS,
    Limits,
    OctahedronCertificate,
    ThreeSummandsCertificate,
    certificate_is_valid,
    classify_behavior,
    divergence_certificate,
    join_summands,
)
from .bounds import (
    BoundReport,
    bound_report,
    bound_table,
    cotriangle_adjacency_profile,
    cotriangle_lower_bound,
    cotriangle_lower_bound_exact,
    helly_threshold,
    threshold_poly,
    triangle_sum_rhs,
    verify_triangle_sum,
    vertex_cotriangle_cap,
)
from .canon import (
    are_isomorphic,
    canonical_form,
    canonical_graph,
    canonical_labeling,
    find_coaffination,
    is_coaffination,
)
from .census import ALL_CHECKS, CensusReport, SEARCH_TARGETS, run_census, search_graphs
from .cliques import CliqueLimitError, clique_graph, maximal_cliques
from .graph6 import Graph6Error, decode, encode, read_edge_list
from .graphs import (
    Graph,
    bits,
    complement,
    complete_bipartite,
    complete_graph,
    connected_components,
    cycle_graph,
    disjoint_union,
    empty_graph,
    induced,
    is_connected,
    join,
    mask_of,
    matching_graph,
    octahedron,
    relabel,
)
from .helly import (
    HellyVerdict,
    check_cotriangle_cover,
    cotriangle_count,
    cotriangles,
    extended_triangle,
    is_helly,
    triangle_count,
    triangles,
)
from .regular import RegularGenSpec, enumerate_regular, random_regular

__version__ = "0.1.0"
