"""Triangle-plus-matching partitions and the regular-bipartite subgraph map.

The vertex set of a 3-uniform 3-regular connected hypergraph splits into a
perfect matching of its shadow graph when |V| is even, and into exactly one
triangle (a hyperedge) plus such a matching when |V| is odd.  The odd case
is driven by a maximal odd ear decomposition: pick an odd edge on the last
nontrivial ear, complete it with a hyperedge to a triangle, and read a
matching of the rest that keeps the edge off the ears, with a hole that
starts at the triangle's third vertex (the apex).

The same construction keeps, inside a k-regular bipartite graph, an edge set
with all B-degrees 1 and A-degrees 0 or 2 except at most one A-vertex of
degree 3, and reads back on k-uniform k-regular hypergraphs as a partition
into hyperedge 2-subsets plus at most one 3-subset.
"""

from __future__ import annotations

from collections import Counter
from itertools import chain, repeat

from .core import (
    BipartiteGraph,
    Hypergraph,
    VertexId,
    _component_blocks,
    _ListGraph,
    _shadow_lists,
    canonical_edge,
    components,
    make_hypergraph,
    validate,
)
from .ears import (
    EarDecomposition,
    _ear_walks,
    _slice,
    is_odd_edge,
    last_nontrivial_ear,
)
from .errors import (
    Disconnected,
    InternalError,
    NotFactorCritical,
    NotRegular,
    PreconditionViolated,
)
from .matching import (
    Matching,
    _peel,
    perfect_matching,
    require_regular_bipartite,
)
# the construction calls its checkers through these module-level names, which
# a tracer or a test may replace; verify_certificate is only passed on
from .verify import (
    LuSubgraph,
    TriMatchingPartition,
    VerificationReport,
    verify_certificate as verify_certificate,
    verify_lu,
    verify_partition,
)


def _canon_pairs(pairs):
    return tuple(sorted([(u, v) if u < v else (v, u) for u, v in pairs]))


def _require_ok(report: VerificationReport) -> None:
    """Stop a constructed certificate that fails its own verifier."""
    if not report.ok:
        raise InternalError(
            "constructed certificate failed verification: "
            + "; ".join(report.violations)
        )


def _prefix_matching(walks, labels, positions, k: int, avoid: VertexId):
    """Pairs of a perfect matching of the first k ears minus `avoid`, for
    the ears' walks with their first-ear labels and positions.

    Lovász's induction on the odd ear decomposition, from ear k-1 back to
    the circuit with a hole that starts at `avoid`.  The ear on which the
    hole first appears, at position t, gives the alternating edges around
    t, and the hole moves to the end those edges cover: walk[-1] for an odd
    t, walk[0] for an even t.  Every other ear gives its odd edges, which
    pair positions 1, 3, ... with 2, 4, ...  The circuit is closed, so the
    same rule covers it around the hole last.
    """
    pairs = []
    hole = avoid
    for j in range(k - 1, -1, -1):
        walk = walks[j]
        if labels[hole] == j:
            t = positions[hole]
            pairs.extend(_alternating_cover(walk, t))
            hole = walk[-1] if t % 2 else walk[0]
        else:
            pairs.extend(zip(walk[1::2], walk[2::2]))
    return pairs


def _alternating_cover(walk, t):
    """Edges (walk[i], walk[i + 1]) for i < t of t's parity and i > t of
    the other.  On a walk of odd length L they cover walk[1..L] (odd t) or
    walk[0..L-1] (even t) except walk[t].
    """
    length = len(walk) - 1
    return [
        (walk[i], walk[i + 1])
        for i in chain(range(t % 2, t, 2), range(t + 1, length, 2))
    ]


def matching_with_edge_avoiding(
    d: EarDecomposition, edge, avoid: VertexId
) -> Matching:
    """Perfect matching of host - avoid containing `edge`.

    Requires: edge is an odd edge lying on its (nontrivial) ear, and `avoid`
    first appears on a strictly earlier ear.  Read off the ears up to the
    last nontrivial one by `_prefix_matching`, in which the edge's ear gives
    its odd edges, and checked, since d need not be the solver's.
    """
    a, b = edge
    g = d.host
    if not g.has_edge(a, b):
        raise ValueError(f"({a}, {b}) is not an edge of the host")
    if d.labels[a] != d.labels[b]:
        raise PreconditionViolated(
            "edge endpoints first appear on different ears"
        )
    k = d.labels[a]
    if not is_odd_edge(d, edge):
        raise PreconditionViolated("not an odd edge")
    ce = canonical_edge(a, b)
    if ce not in set(d.ears[k].edge_walk()):
        raise PreconditionViolated("odd edge does not lie on its ear")
    if not 0 <= avoid < g.n:
        raise ValueError(f"vertex {avoid} out of range [0, {g.n})")
    if d.labels[avoid] >= k:
        raise PreconditionViolated(
            "avoided vertex does not precede the edge's ear"
        )

    walks = [ear.vertices for ear in d.ears]
    last = last_nontrivial_ear(d) + 1
    pairs = _canon_pairs(_prefix_matching(walks, d.labels, d.positions, last, avoid))
    _check_near_perfect(pairs, g.adjacency, avoid, ce)
    return Matching(pairs=pairs, host=g)


def _check_near_perfect(pairs, adj, avoid, must_contain):
    covered = [False] * len(adj)
    overlap = False
    for u, v in pairs:
        if v not in adj[u]:
            raise InternalError(f"matching pair ({u}, {v}) is not an edge")
        overlap = overlap or covered[u] or covered[v]
        covered[u] = covered[v] = True
    if overlap:
        raise InternalError("matching pairs overlap")
    # disjoint pairs cover 2 * len(pairs) vertices
    if covered[avoid] or 2 * len(pairs) != len(adj) - 1:
        raise InternalError("matching does not cover exactly host minus one vertex")
    if must_contain not in pairs:
        raise InternalError("matching lost its forced edge")


def triangle_partition(h: Hypergraph) -> TriMatchingPartition:
    """One hyperedge as the triangle plus a perfect matching of the rest.

    Needs a 3-uniform hypergraph whose shadow graph is connected and
    factor-critical (NotFactorCritical carries a witness otherwise).
    """
    validate(h, 3).require_uniform()
    cert = _odd_partition(h, _shadow_lists(h))
    _require_ok(verify_partition(h, cert))
    return cert


def _odd_partition(h: Hypergraph, g: _ListGraph) -> TriMatchingPartition:
    """The odd construction on the maximal odd ear decomposition of h's
    shadow graph g, read off its nontrivial walks, unchecked: the caller's
    `verify_partition` is the one check of the certificate.

    The chosen edge sits at positions 1 and 2 of ear k, the last nontrivial
    one, and the hole starts at the apex, the third vertex of a hyperedge
    through the edge.  `_prefix_matching` of the ears up to k then keeps
    the edge: ear k gives its odd edges when the apex first appears on an
    earlier ear, and the alternating edges before the apex, which are odd
    ones too, when it first appears on ear k at an odd position.  It does:
    an apex first seen on ear k sits elsewhere on it, at a position t >= 3,
    and t is odd, since an even t would make the apex and walk[1], both in
    that hyperedge, an odd edge off the ear, and `_slice` finishes no walk
    that has one (its stopping rule).  The single edges after ear k give no
    pairs.

    The circuit is the last nontrivial ear only at n = 3.  Every chord of
    the circuit is odd, so slicing cuts it off, and a maximal decomposition
    whose only nontrivial ear is the circuit is a chordless cycle through
    every vertex.  Every shadow edge lies in a hyperedge, so that cycle
    contains a triangle and is one.  There the apex is walk[0], and a hole
    at position 0 leaves the circuit's odd edges, which are just the edge.
    """
    walks, labels, positions = _slice(g.adjacency, _ear_walks(g))
    k = len(walks) - 1
    if len(walks[k]) < 3:
        raise InternalError("the last nontrivial ear has fewer than 2 edges")
    a, b = walks[k][1:3]
    apex = None
    for he in h.hyperedges:
        if a in he and b in he:
            apex = next(v for v in he if v not in (a, b))
            break
    if apex is None:
        raise InternalError("shadow edge not inside any hyperedge")
    ce = canonical_edge(a, b)
    pairs = _canon_pairs(_prefix_matching(walks, labels, positions, k + 1, apex))
    return TriMatchingPartition(
        triangle=tuple(sorted((a, b, apex))),
        pairs=tuple(p for p in pairs if p != ce),
        host=h,
    )


def _incidence_graph(h: Hypergraph):
    """The A-side and B-side lists of h's incidence graph: one A-vertex per
    hyperedge copy, in hyperedge order, adjacent to its vertices on B.

    Each hyperedge must be a sorted tuple of distinct vertices in [0, n),
    as `make_hypergraph` builds it; ValueError otherwise.  The hyperedge
    tuples are then the A-side lists, and one pass in A order gives
    increasing B-side lists.  No edge tuples are built.
    """
    n = h.n
    adj_a = tuple(chain.from_iterable(map(repeat, h.hyperedges, h.multiplicities)))
    adj_b = [[] for _ in range(n)]
    for a, e in enumerate(adj_a):
        prev = -1
        for v in e:
            if not prev < v < n:
                raise ValueError(
                    f"hyperedge {e} is not a sorted tuple of distinct vertices"
                    f" in [0, {n})"
                )
            adj_b[v].append(a)
            prev = v
    return adj_a, tuple(map(tuple, adj_b))


def _solve_connected(h: Hypergraph, g: _ListGraph) -> TriMatchingPartition:
    """Unchecked certificate for a 3-uniform 3-regular h, given its shadow
    graph's lists g, connected unless n is odd: there a disconnected h
    raises InternalError, from the failed construction."""
    if h.n % 2 == 0:
        pm = perfect_matching(g)
        if pm is None:
            raise InternalError(
                "even-order 3-uniform 3-regular shadow without a perfect matching"
            )
        return TriMatchingPartition(triangle=None, pairs=pm.pairs, host=h)
    try:
        return _odd_partition(h, g)
    except NotFactorCritical as exc:
        raise InternalError(
            f"shadow graph not factor-critical despite regularity: {exc}"
        ) from exc


def _incidence_certificates(h: Hypergraph, k: int, g):
    """The unchecked certificates of h's components at k > 3, in order of
    least vertex, read off one extraction of its whole incidence graph g.
    A residual block lies in a slot, the rest of one hyperedge copy, so in
    the component that `_fitting_residual`'s map gives its first vertex;
    with no map the residual, and so h, is connected (or empty).  Of its
    blocks, the one 3-block is the triangle, the 2-blocks, sorted, are the
    pairs, and any other shape is left out, for the verifier to find
    uncovered."""
    _, certs, part_of = _fitting_residual(g[0], h.n, k, g[0], g[1])
    count = len(certs) if part_of is None else max(part_of.values()) + 1
    groups = [[] for _ in range(count)]
    for b in filter(None, chain.from_iterable((c.triangle, *c.pairs) for c in certs)):
        groups[0 if part_of is None else part_of[b[0]]].append(b)
    return [TriMatchingPartition(
        triangle=next((b for b in blocks if len(b) == 3), None),
        pairs=_canon_pairs(b for b in blocks if len(b) == 2),
        host=h,
    ) for blocks in groups]


def _gated_graph(h: Hypergraph, k: int):
    """The graph the construction of a k-uniform k-regular h with k >= 3
    reads, once h passes that gate: the shadow graph's neighbour tuples when
    k = 3, the incidence graph's lists when k > 3.

    k is checked first: with k = 0 a huge declared count passes `validate`,
    and its shadow graph would hold one list per declared vertex.
    """
    validate(h, k).require()
    if k < 3:
        raise PreconditionViolated("uniformity must be at least 3")
    return _shadow_lists(h) if k == 3 else _incidence_graph(h)


def _incidence_blocks(adj_a, adj_b):
    """Unsorted node lists of the components of the bipartite graph with
    A-side lists `adj_a` and B-side lists `adj_b`, with B-vertex b as node
    b and A-vertex a as node |B| + a, in order of least B-vertex (no
    A-vertex of a regular graph is isolated)."""
    n_b = len(adj_b)
    return _component_blocks([[n_b + a for a in nbrs] for nbrs in adj_b] + list(adj_a))


def solve(h: Hypergraph) -> TriMatchingPartition:
    """Certificate for a connected 3-uniform 3-regular hypergraph.

    Even vertex count: a perfect matching of the shadow graph (no triangle).
    Odd vertex count: exactly one triangle plus a perfect matching of the
    rest; the shadow graph is factor-critical in that case, and a failure of
    that guarantee is an internal error carrying the witness vertex.
    """
    return solve_k_uniform(h, 3)


def solve_k_uniform(h: Hypergraph, k: int) -> TriMatchingPartition:
    """Partition into hyperedge 2-subsets plus at most one 3-subset.

    Valid for connected k-uniform k-regular hypergraphs with k >= 3; for
    k > 3 routed through the bipartite construction on the vertex/hyperedge
    incidence graph.

    Connectivity is decided where the construction leaves it open.  At
    k = 3 and odd n the alternating tree of `_ear_walks` decides it: a
    disconnected shadow graph is not factor-critical, so the construction
    fails, and only then are the components searched, to tell Disconnected
    from an internal error.  Otherwise h is solved as `solve_components`
    solves it, and more than one certificate is Disconnected: a
    disconnected even instance may still have a perfect matching, and at
    k > 3 the extraction searches the input's components only when its
    first residual, a spanning subgraph, splits.  An empty h, with no
    component, gets the empty certificate.
    """
    g = _gated_graph(h, k)
    odd = k == 3 and h.n % 2 == 1
    try:
        certs = [_solve_connected(h, g)] if odd else _component_certificates(h, k, g)
    except InternalError:
        if not odd or len(components(g).blocks) == 1:
            raise
        certs = None
    if certs is None or len(certs) > 1:
        raise Disconnected(
            "the hypergraph is disconnected; solve each component separately"
        )
    cert = certs[0] if certs else TriMatchingPartition(triangle=None, pairs=(), host=h)
    _require_ok(verify_partition(h, cert))
    return cert


def solve_components(h: Hypergraph, k: int = 3) -> list[TriMatchingPartition]:
    """Per-component certificates (one triangle per odd component), checked
    together against h."""
    certs = _component_certificates(h, k, _gated_graph(h, k))
    _require_ok(verify_partition(h, certs))
    return certs


def _component_certificates(h: Hypergraph, k: int, g):
    """The unchecked certificate of each component of h, in h's ids and in
    order of least vertex, given the graph g that `_gated_graph(h, k)`
    gave: at k > 3 all from one extraction, at k = 3 each component of one
    search solved on its own."""
    if k > 3:
        return _incidence_certificates(h, k, g)
    blocks = components(g).blocks
    if len(blocks) == 1:
        # the one block is h itself: nothing to reindex or build again
        return [_solve_connected(h, g)]
    block_of = [0] * h.n
    new_id = [0] * h.n
    for i, block in enumerate(blocks):
        for j, v in enumerate(block):
            block_of[v] = i
            new_id[v] = j
    # a block's ids are its sorted members, so the map into them and the map
    # back, block[v], are monotone: relabelled hyperedges, neighbour tuples,
    # triangles and pairs stay sorted, folded and in range, and nothing is
    # built or checked again.  Each block gets only its own hyperedges.
    relabel = new_id.__getitem__
    parts = [([], []) for _ in blocks]
    for e, m in zip(h.hyperedges, h.multiplicities):
        edges, mults = parts[block_of[e[0]]]
        edges.append(tuple(map(relabel, e)))
        mults.append(m)
    certs = []
    for block, (edges, mults) in zip(blocks, parts):
        sub = Hypergraph(len(block), tuple(edges), tuple(mults), h.k)
        sub_g = _ListGraph(
            len(block), tuple(tuple(map(relabel, g.adjacency[v])) for v in block)
        )
        sub_cert = _solve_connected(sub, sub_g)
        tri = sub_cert.triangle
        certs.append(TriMatchingPartition(
            triangle=None if tri is None else tuple(map(block.__getitem__, tri)),
            pairs=tuple((block[u], block[v]) for u, v in sub_cert.pairs),
            host=h,
        ))
    return certs


def _residual_certificates(adj, n_b, t, order):
    """The slots of one extraction and their unchecked component
    certificates.  `_peel` deletes t disjoint perfect matchings (none when
    t = 0) from the bipartite graph with A-side lists `adj`, scanning A in
    `order`, and hands back the residual, 3-regular by construction.  Read
    as a 3-uniform hypergraph on B, one hyperedge (slot) per A-vertex, it is
    solved one component at a time: each component with odd |B| gets one
    triangle, each even one none.
    """
    _, residual = _peel(adj, n_b, t, order)
    slots = list(map(tuple, residual))
    h3 = make_hypergraph(n_b, slots, k=3)
    return slots, _component_certificates(h3, 3, _shadow_lists(h3))


def _fitting_residual(adj, n_b, k, witness, adj_b):
    """Slots and certificates of the first extraction whose certificates
    hold at most one triangle per component of the input, k-regular with
    A-side lists `adj`, and the input component of each node (B-vertex b
    as node b, A-vertex a as node n_b + a), or None when the first
    residual is connected.  The triangle rule is what `verify_lu` decides
    on the kept edges: a residual component lies inside an input component
    and has a triangle exactly when its |B| is odd, so two degree-3
    A-vertices share an input component exactly when two triangles do.

    The residual spans the input, so a connected first residual proves the
    input connected, and nothing is searched.  Only when the first peel's
    residual has two or more components are the input's components
    searched, once, on the B-side lists `adj_b`.

    Each input component has a rotation of its own, of 0, 1, ... below
    min(|A_c|, 24) (only 0 at k = 3), and one peel of the whole graph scans
    each component's ascending A-vertices from its rotation on: Hopcroft-
    Karp peels each component of a union as it peels it alone, in the order
    the union's order induces on it.  The first peel, in ascending order,
    is rotation 0 of every component.  A component with two or more
    triangles moves to its next rotation and every other one keeps its
    own.  When a component fits none of its rotations, an InternalError
    names them and carries `witness`.
    """
    order = range(len(adj))
    part_of = None
    while True:
        slots, certs = _residual_certificates(adj, n_b, k - 3, order)
        if len(certs) < 2:
            return slots, certs, part_of
        if part_of is None:
            blocks = _incidence_blocks(adj, adj_b)
            part_of = {v: i for i, block in enumerate(blocks) for v in block}
            parts = [sorted(v - n_b for v in block if v >= n_b) for block in blocks]
            rotation = [0] * len(parts)
        triangles = Counter(part_of[c.triangle[0]] for c in certs if c.triangle is not None)
        if max(triangles.values(), default=0) < 2:
            return slots, certs, part_of
        for i, a_ids in enumerate(parts):
            if triangles[i] > 1:
                rotation[i] += 1
                limit = min(len(a_ids), 24) if k > 3 else 1
                if rotation[i] == limit:
                    raise InternalError(
                        f"extraction rotations 0..{limit - 1} all leave two odd"
                        " residual components in one input component",
                        witness=witness,
                    )
        order = [a for ids, r in zip(parts, rotation) for a in chain(ids[r:], ids[:r])]


def _kept_edges(slots, certs):
    """The 2 or 3 kept edges of each certificate block, unsorted: those of
    the first A-vertex through block[0] whose slot contains the block.
    Blocks are disjoint and have at least 2 vertices, so a 3-vertex slot
    contains at most one of them and no A-vertex is chosen twice.  A block
    inside no slot stops here; overlapping or missing ones leave B-degrees
    other than 1 for `verify_lu`.
    """
    slots_at = [[] for _ in slots]  # a regular graph has |B| = |A|
    for a, nbrs in enumerate(slots):
        for b in nbrs:
            slots_at[b].append(a)
    kept = []
    for cert in certs:
        tri = () if cert.triangle is None else (cert.triangle,)
        for block in chain(tri, cert.pairs):
            # every slot listed at block[0] contains it: test only the rest
            rest = set(block[1:])
            for a in slots_at[block[0]]:
                if rest.issubset(slots[a]):
                    break
            else:
                raise InternalError(f"no A-vertex carries block {block}")
            kept.extend((a, x) for x in block)
    return kept


def lu_subgraph(bg: BipartiteGraph, k: int) -> LuSubgraph:
    """Kept edge set with B-degrees 1 and A-degrees 0/2 plus at most one 3
    per input component: the slots of the fitting extraction, each input
    component at its own rotation, that carry the residual's blocks.

    Regularity is checked once, naming the first irregular vertex or an
    empty side, and `verify_lu` checks the final kept edges once, whatever
    rotations they took.
    """
    deg_k = require_regular_bipartite(bg)
    if deg_k != k:
        raise NotRegular(f"graph is {deg_k}-regular, expected {k}-regular")
    if k < 3:
        raise PreconditionViolated("degree must be at least 3")
    slots, certs, _ = _fitting_residual(bg.adj_a, bg.n_b, k, bg.edges, bg.adj_b)
    lu = LuSubgraph(kept=tuple(sorted(_kept_edges(slots, certs))), host=bg)
    _require_ok(verify_lu(bg, lu))
    return lu
