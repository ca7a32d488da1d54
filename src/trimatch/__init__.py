"""trimatch: triangle-plus-matching partitions of regular hypergraphs.

Given a 3-uniform 3-regular hypergraph, partition its vertex set into a
perfect matching of the shadow graph (even order) or exactly one triangle
plus such a matching (odd order), constructively and with independently
verifiable certificates.  Includes the k-uniform/k-regular variant and the
kept-edge subgraph of regular bipartite graphs.
"""

from .core import (
    BipartiteGraph,
    ComponentPartition,
    Hypergraph,
    SimpleGraph,
    ValidationReport,
    VertexId,
    components,
    degree,
    hereditary_members,
    make_graph,
    make_hypergraph,
    shadow_graph,
    validate,
)
from .ears import (
    Ear,
    EarDecomposition,
    dump_decomposition,
    ear_label,
    is_odd_edge,
    last_nontrivial_ear,
    maximalize,
    odd_ear_decomposition,
    validate_decomposition,
)
from .generate import SplitMix64, random_regular_bipartite, random_triple_system
from .matching import (
    Matching,
    bipartite_perfect_matching,
    component_bound_check,
    extract_disjoint_perfect_matchings,
    is_factor_critical,
    make_bipartite,
    maximum_matching,
    perfect_matching,
    perfect_matching_avoiding,
)
from .oracle import (
    OracleBudget,
    all_perfect_matchings,
    all_tri_partitions,
    factor_critical_by_enumeration,
)
from .partition import (
    lu_subgraph,
    matching_with_edge_avoiding,
    solve,
    solve_components,
    solve_k_uniform,
    triangle_partition,
)
from .verify import (
    LuSubgraph,
    TriMatchingPartition,
    VerificationReport,
    verify_certificate,
    verify_lu,
    verify_partition,
)

__version__ = "0.1.0"
