"""Constructive partitions, the bipartite subgraph map, and verification."""

import hashlib
import itertools
import random
from collections import Counter

import pytest

from trimatch import (
    all_perfect_matchings,
    all_tri_partitions,
    components,
    is_factor_critical,
    last_nontrivial_ear,
    lu_subgraph,
    make_bipartite,
    make_graph,
    make_hypergraph,
    matching_with_edge_avoiding,
    maximalize,
    odd_ear_decomposition,
    shadow_graph,
    solve,
    solve_components,
    solve_k_uniform,
    triangle_partition,
    validate,
    verify_lu,
    verify_partition,
)
from trimatch.ears import Ear, EarDecomposition, _ear_walks, validate_decomposition
from trimatch.errors import (
    Disconnected,
    InternalError,
    InvariantViolation,
    NotFactorCritical,
    NotRegular,
    NotUniform,
    PreconditionViolated,
)
from trimatch.formats import (
    format_bipartite,
    format_hypergraph,
    format_lu,
    format_partition,
    parse_bipartite,
    parse_certificate,
)
from trimatch.core import _component_blocks, _shadow_lists
from trimatch.matching import (
    BipartiteGraph,
    _peel,
    extract_disjoint_perfect_matchings,
    require_regular_bipartite,
)
from trimatch.partition import (
    LuSubgraph,
    TriMatchingPartition,
    _canon_pairs,
    _check_near_perfect,
    _incidence_graph,
    _prefix_matching,
    _require_ok,
)

from conftest import (
    DISCONNECTED,
    FANO_LINES,
    assemble,
    cycle_graph,
    disconnected_odd_unions,
    five_quads_with,
    hypergraph_union,
    old_extract_disjoint_perfect_matchings,
    partition_union_hypergraph,
    random_regular_bipartite,
    random_triple_system,
    relabelled,
    rotate_block_ids,
    seeded_odd_instances,
)
from prefix_census import (
    SAME_EAR_INSTANCES,
    decompositions,
    prefix_cases,
    solve_path_fault,
    tail_cases,
)
from rotation_census import (
    disjoint_union,
    graph_of,
    kept_at,
    lu_with_rotations,
    with_orders,
    with_rotations,
)


def c5_plus_ear_decomposition():
    g = make_graph(7, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 0), (0, 5), (5, 6), (6, 1)])
    d = assemble(g, [[0, 1, 2, 3, 4, 0], [0, 5, 6, 1]])
    assert not validate_decomposition(d)
    return d


def test_forced_edge_matching_avoiding_2():
    d = c5_plus_ear_decomposition()
    m = matching_with_edge_avoiding(d, (5, 6), 2)
    reference = all_perfect_matchings(d.host, avoid=2)
    assert m.pairs in reference
    assert (5, 6) in m.pairs


def test_forced_edge_matching_avoiding_3():
    d = c5_plus_ear_decomposition()
    m = matching_with_edge_avoiding(d, (5, 6), 3)
    reference = all_perfect_matchings(d.host, avoid=3)
    assert m.pairs in reference
    assert (5, 6) in m.pairs


def test_forced_edge_matching_rejects_non_odd_edge():
    d = c5_plus_ear_decomposition()
    with pytest.raises(PreconditionViolated):
        matching_with_edge_avoiding(d, (0, 5), 2)


def test_forced_edge_matching_shape():
    d = c5_plus_ear_decomposition()
    for avoid in (2, 3, 4):
        m = matching_with_edge_avoiding(d, (5, 6), avoid)
        assert len(m.pairs) == (d.host.n - 1) // 2
        assert avoid not in m.covered()


def test_triangle_partition_triple(triple):
    cert = triangle_partition(triple)
    assert cert.triangle == (0, 1, 2)
    assert cert.pairs == ()


def test_triangle_partition_fano(fano):
    cert = triangle_partition(fano)
    assert verify_partition(fano, cert).ok
    assert set(cert.triangle) in [set(line) for line in FANO_LINES]
    assert len(cert.pairs) == 2


def test_triangle_partition_five_vertices():
    h = make_hypergraph(5, [(0, 1, 2), (2, 3, 4), (4, 0, 1)], k=3)
    assert is_factor_critical(shadow_graph(h))
    cert = triangle_partition(h)
    assert (cert.triangle, cert.pairs) in all_tri_partitions(h)


def test_triangle_partition_requires_factor_critical():
    h = make_hypergraph(6, [(0, 1, 2), (3, 4, 5)], k=3)
    with pytest.raises(NotFactorCritical):
        triangle_partition(h)


def test_triangle_partition_requires_uniform():
    h = make_hypergraph(4, [(0, 1, 2, 3)], k=4)
    with pytest.raises(NotUniform):
        triangle_partition(h)


def test_solve_even_case(four_triples):
    cert = solve(four_triples)
    assert cert.triangle is None
    assert cert.pairs == ((0, 1), (2, 3))


def test_solve_triple(triple):
    cert = solve(triple)
    assert cert.triangle == (0, 1, 2) and cert.pairs == ()


def test_solve_fano(fano):
    cert = solve(fano)
    assert verify_partition(fano, cert).ok
    assert (cert.triangle, cert.pairs) in all_tri_partitions(fano)


def test_solve_rejects_bad_inputs():
    nonuniform = make_hypergraph(4, [(0, 1, 2, 3)], k=4)
    with pytest.raises(NotUniform):
        solve(nonuniform)
    irregular = make_hypergraph(3, [(0, 1, 2)], k=3)
    with pytest.raises(NotRegular):
        solve(irregular)
    disconnected = make_hypergraph(6, [(0, 1, 2)] * 3 + [(3, 4, 5)] * 3, k=3)
    with pytest.raises(Disconnected):
        solve(disconnected)


def test_solve_components_two_triples():
    h = make_hypergraph(6, [(0, 1, 2)] * 3 + [(3, 4, 5)] * 3, k=3)
    certs = solve_components(h)
    assert [c.triangle for c in certs] == [(0, 1, 2), (3, 4, 5)]
    assert verify_partition(h, certs).ok


def test_solve_components_mixed(four_triples):
    edges = list(four_triples.hyperedges) + [(4, 5, 6)] * 3
    h = make_hypergraph(7, edges, k=3)
    certs = solve_components(h)
    assert len(certs) == 2
    assert certs[0].triangle is None and len(certs[0].pairs) == 2
    assert certs[1].triangle == (4, 5, 6)
    assert verify_partition(h, certs).ok


def test_solve_components_hands_each_block_only_its_hyperedges(monkeypatch):
    """Splitting costs one pass over the hyperedges, not one per block: each
    block is solved on its own hyperedges alone, and together, with
    multiplicity and mapped back, they are h's."""
    import trimatch.partition as partition_module

    parts = [random_triple_system(n, n, require_connected=True) for n in (5, 8, 3, 11, 6)]
    h = hypergraph_union(parts)
    blocks = components(shadow_graph(h)).blocks
    subs = []
    solve_connected = partition_module._solve_connected

    def spy(sub, g):
        subs.append(sub)
        return solve_connected(sub, g)

    monkeypatch.setattr(partition_module, "_solve_connected", spy)
    certs = solve_components(h)
    assert len(certs) == len(parts) and verify_partition(h, certs).ok
    assert [sub.n for sub in subs] == list(map(len, blocks))
    assert sum(sub.total_multiplicity for sub in subs) == h.total_multiplicity
    seen = Counter()
    for block, sub in zip(blocks, subs):
        for e, m in zip(sub.hyperedges, sub.multiplicities):
            seen[tuple(block[v] for v in e)] += m
    assert seen == Counter(dict(zip(h.hyperedges, h.multiplicities)))


def test_solve_components_checks_its_certificates_in_the_input_ids(monkeypatch):
    """Each block's certificate is right in the block's own ids (k = 3) or
    as the one extraction groups it (k = 4); handed back with wrong ids,
    the list fails the check against the input."""
    views = [make_hypergraph(bg.n_b, bg.adj_a, k=4)
             for bg in (random_regular_bipartite(9, 4, 1), random_regular_bipartite(10, 4, 2))]
    for k, parts in [
        (3, [random_triple_system(9, 1), random_triple_system(10, 2)]),
        (4, views),
    ]:
        h = hypergraph_union(parts)
        assert verify_partition(h, solve_components(h, k)).ok
        with monkeypatch.context() as patch:
            rotate_block_ids(patch, h.n, k)
            with pytest.raises(InternalError, match="is not inside any hyperedge"):
                solve_components(h, k)


def test_solve_components_connected_agrees(fano):
    assert solve_components(fano) == [solve(fano)]


def old_induced_hypergraph(h, block):
    """The sub-hypergraph induced by a component block, reindexed to
    0..|block|-1, and the list mapping new ids back, as `solve_components`
    built each block before it relabelled the whole graph's structures."""
    old_ids = sorted(block)
    new_of = {old: new for new, old in enumerate(old_ids)}
    edges = []
    mults = []
    inside = set(old_ids)
    for e, m in zip(h.hyperedges, h.multiplicities):
        hit = sum(1 for v in e if v in inside)
        if hit == 0:
            continue
        if hit != len(e):
            raise InvariantViolation(
                f"hyperedge {e} straddles the component boundary"
            )
        edges.append(tuple(new_of[v] for v in e))
        mults.append(m)
    sub = make_hypergraph(len(old_ids), edges, k=h.k, multiplicities=mults)
    return sub, old_ids


def interleaved_union(parts, rng):
    """The union of the hypergraphs `parts` with their vertex ids dealt out
    at random, and each part's ids in it.  A part's ids keep their order,
    so its hyperedges and their order stay its own."""
    owner = [i for i, h in enumerate(parts) for _ in range(h.n)]
    rng.shuffle(owner)
    ids = [[v for v, o in enumerate(owner) if o == i] for i in range(len(parts))]
    edges, mults = [], []
    for h, at in zip(parts, ids):
        edges.extend(tuple(at[v] for v in e) for e in h.hyperedges)
        mults.extend(h.multiplicities)
    return make_hypergraph(len(owner), edges, k=parts[0].k, multiplicities=mults), ids


@pytest.mark.parametrize("k", [3, 4, 5])
def test_each_block_is_the_whole_graphs_structures_relabelled(monkeypatch, k):
    """At k = 3 each block's sub-hypergraph and shadow lists equal a
    rebuild of the block through the old `induced_hypergraph` and fresh
    `_shadow_lists`, on unions whose components interleave their ids and
    repeat hyperedges.  At k > 3 no block is built: the certificates of
    `solve_components` are each part's own `solve_k_uniform`, relabelled,
    from one incidence graph of the union whose first peel is the whole
    graph's, with census views that need rotation 1 among the k = 4 parts."""
    if k > 3:
        check_one_extraction_is_each_parts_own(monkeypatch, k)
        return
    import trimatch.partition as partition_module

    seen = []
    solve_connected = partition_module._solve_connected

    def spy(sub, g):
        seen.append((sub, g))
        return solve_connected(sub, g)

    monkeypatch.setattr(partition_module, "_solve_connected", spy)
    rng = random.Random(40 + k)
    for trial in range(30):
        parts = []
        for _ in range(rng.randint(2, 5)):
            if rng.random() < 0.5:
                parts.append(partition_union_hypergraph(
                    k, rng.randint(1, 6), rng.randrange(999), rng.random() < 0.5
                ))
            else:
                n = rng.randint(3, 40)
                parts.append(random_triple_system(n, n, require_connected=True))
        h = relabelled(hypergraph_union(parts), rng)
        seen.clear()
        assert verify_partition(h, solve_components(h, k)).ok
        blocks = components(shadow_graph(h)).blocks
        assert len(seen) == len(blocks) > 1, trial
        for block, (sub, g) in zip(blocks, seen):
            ref, old_ids = old_induced_hypergraph(h, block)
            assert old_ids == list(block)
            assert sub == ref
            assert g == _shadow_lists(ref)


def check_one_extraction_is_each_parts_own(monkeypatch, k):
    """`solve_components(union, k)` at k > 3 against each connected part's
    own `solve_k_uniform`, mapped back, on unions with interleaved ids and
    repeated hyperedges.  One incidence graph is built per call, and every
    peel is of the whole graph, the first in ascending order."""
    import trimatch.partition as partition_module

    built = []
    incidence_graph = partition_module._incidence_graph

    def spy(h):
        built.append(h.n)
        return incidence_graph(h)

    monkeypatch.setattr(partition_module, "_incidence_graph", spy)

    def connected_part():
        while True:
            if rng.random() < 0.5:
                part = partition_union_hypergraph(
                    k, rng.randint(1, 6), rng.randrange(999), rng.random() < 0.5
                )
            else:
                bg = random_regular_bipartite(rng.randint(k, k + 12), k, rng.randrange(999))
                part = make_hypergraph(bg.n_b, bg.adj_a, k=k)
            if len(components(shadow_graph(part)).blocks) == 1:
                return part

    splits = [rotation_0_split(missing) for missing in ROTATION_0_SPLITS[:12]]
    rng = random.Random(40 + k)
    retried = 0
    for trial in range(30):
        parts = [connected_part() for _ in range(rng.randint(2, 5))]
        if k == 4 and trial % 3 == 0:
            split = splits[trial // 3 % len(splits)]
            parts.insert(rng.randrange(len(parts) + 1), make_hypergraph(6, split.adj_a, k=4))
        h, ids = interleaved_union(parts, rng)
        expected = []
        for part, at in sorted(zip(parts, ids), key=lambda p: p[1][0]):
            cert = solve_k_uniform(part, k)
            tri = cert.triangle
            expected.append(TriMatchingPartition(
                triangle=None if tri is None else tuple(at[v] for v in tri),
                pairs=tuple((at[u], at[v]) for u, v in cert.pairs),
                host=h,
            ))
        built.clear()
        certs, orders = with_orders(solve_components, h, k)
        assert certs == expected, trial
        assert built == [h.n]
        copies = h.total_multiplicity
        assert orders[0] == list(range(copies))
        assert all(sorted(order) == list(range(copies)) for order in orders)
        retried += len(orders) > 1
    # the census views, and at k = 5 one random part, need a second peel
    assert retried == {4: 10, 5: 1}[k]


def test_lu_k33():
    k33 = make_bipartite(3, 3, [(a, b) for a in range(3) for b in range(3)])
    lu = lu_subgraph(k33, 3)
    assert lu.kept == ((0, 0), (0, 1), (0, 2))
    assert verify_lu(k33, lu).ok


def test_lu_fano_incidence(fano_incidence):
    lu = lu_subgraph(fano_incidence, 3)
    assert verify_lu(fano_incidence, lu).ok
    deg_a = [0] * 7
    deg_b = [0] * 7
    for a, b in lu.kept:
        deg_a[a] += 1
        deg_b[b] += 1
    assert deg_b == [1] * 7
    assert sorted(deg_a) == [0, 0, 0, 0, 2, 2, 3]


def test_lu_fano_plus_matching(fano_incidence):
    # 4-regular: Fano incidence plus a perfect matching of non-incident pairs
    extra = [(0, 3), (1, 1), (2, 2), (3, 0), (4, 5), (5, 4), (6, 6)]
    assert not set(extra) & set(fano_incidence.edges)
    bg = make_bipartite(7, 7, list(fano_incidence.edges) + extra)
    lu = lu_subgraph(bg, 4)
    assert verify_lu(bg, lu).ok


def peeled(adj, pair_lists):
    """What `_peel` hands back for matchings with these (a, b) pairs: their
    match arrays, and the A-side lists `adj` without the matched edges.  A
    pair that is no edge, or is matched twice, raises ValueError."""
    residual = [list(nbrs) for nbrs in adj]
    matches = []
    for pairs in pair_lists:
        match_a = [-1] * len(adj)
        for a, b in pairs:
            match_a[a] = b
            residual[a].remove(b)
        matches.append(match_a)
    return matches, residual


def test_lu_retries_residual_splitting_extraction(monkeypatch):
    """If the first extraction would split the residual into two odd
    components, the next rotation is tried."""
    import trimatch.partition as partition_module

    # 4-regular: two K3,3 blocks joined by the diagonal crossing matching
    edges = [(a, b) for a in range(3) for b in (3, 4, 5)]
    edges += [(a, b) for a in range(3, 6) for b in (0, 1, 2)]
    edges += [(i, i) for i in range(6)]
    bg = make_bipartite(6, 6, edges)
    crossing = [(i, i) for i in range(6)]
    block_internal = [(a, a + 3) for a in range(3)] + [(a, a - 3) for a in range(3, 6)]
    calls = []

    def fake_peel(adj, n_b, t, order):
        # a rotation's order starts at the rotation
        calls.append(order[0])
        return peeled(adj, [crossing] if order[0] == 0 else [block_internal])

    monkeypatch.setattr(partition_module, "_peel", fake_peel)
    lu = lu_subgraph(bg, 4)
    assert calls[:2] == [0, 1]  # rotation 0 rejected, rotation 1 accepted
    assert verify_lu(bg, lu).ok
    deg_a = [0] * 6
    for a, _ in lu.kept:
        deg_a[a] += 1
    assert sum(1 for d in deg_a if d == 3) == 0  # |B| even: no 3-block


# The labelled 4-regular 6 + 6 graphs on which the first extraction leaves a
# residual with too many odd components, out of all 67,950 that
# rotation_census.py enumerates.  Each string lists, A-vertex by A-vertex,
# the two B-vertices it is not adjacent to.
ROTATION_0_SPLITS = """
    010212343545 010212344535 010212353445 010212354534 010212453435 010212453534
    011202343545 011202344535 011202353445 011202354534 011202453435 011202453534
    020112343545 020112344535 020112353445 020112354534 020112453435 020112453534
    021201343545 021201344535 021201353445 021201354534 021201453435 021201453534
    031345012425 031345012524 041425350123 041435250123 051523243401 051523342401
    051524233401 051524342301 051534232401 051534242301 120102343545 120102344535
    120102353445 120102354534 120102453435 120102453534 120201343545 120201344535
    120201353445 120201354534 120201453435 120201453534 130345012425 130345012524
    140425350123 140435250123 150523243401 150523342401 150524233401 150524342301
    150534232401 150534242301 234502031415 234502031514 234503021415 234503021514
    243504150213 253405131402 253405141302 341525030412 341525040312 342515030412
    342515040312 351424051203 352414051203 451213230405 451213230504 451223130405
    451223130504 451312230405 451312230504 451323120405 451323120504 452312130405
    452312130504 452313120405 452313120504
""".split()


@pytest.mark.parametrize("missing", ROTATION_0_SPLITS)
def test_lu_retries_on_every_known_rotation_0_split(missing):
    bg = rotation_0_split(missing)
    lu, rotations = lu_with_rotations(bg)
    assert verify_lu(bg, lu).ok
    assert rotations[0] == 0 and rotations[-1] > 0


def test_lu_disjoint_blocks_keep_first_extraction(monkeypatch):
    """Two disjoint 4-regular 5+5 blocks have two components with odd |B|;
    rotation 0 leaves exactly those two odd residual components."""
    import trimatch.partition as partition_module

    block = [(a, b) for a in range(5) for b in range(5) if a != b]
    bg = make_bipartite(10, 10, block + [(a + 5, b + 5) for a, b in block])
    original = partition_module._peel
    calls = []

    def spy(adj, n_b, t, order):
        calls.append(order[0])
        return original(adj, n_b, t, order)

    monkeypatch.setattr(partition_module, "_peel", spy)
    lu = lu_subgraph(bg, 4)
    assert calls == [0]
    assert verify_lu(bg, lu).ok


@pytest.mark.parametrize("m", [3, 13])
def test_lu_gives_up_when_every_rotation_splits(monkeypatch, m):
    """An extraction that always splits the residual into two odd components
    ends in InternalError after min(n_a, 24) rotations."""
    import trimatch.partition as partition_module

    # 4-regular: two 3-regular m+m circulant blocks joined by a crossing
    # perfect matching; removing the crossing leaves both blocks, |B| odd
    edges = [(a + o, (a + s) % m + o) for o in (0, m) for a in range(m) for s in range(3)]
    crossing = [(a, (a + m) % (2 * m)) for a in range(2 * m)]
    bg = make_bipartite(2 * m, 2 * m, edges + crossing)
    calls = []

    def fake_peel(adj, n_b, t, order):
        calls.append(order[0])
        return peeled(adj, [crossing])

    monkeypatch.setattr(partition_module, "_peel", fake_peel)
    tried = min(2 * m, 24)
    with pytest.raises(InternalError, match=f"rotations 0..{tried - 1} ") as err:
        lu_subgraph(bg, 4)
    assert calls == list(range(tried))
    assert err.value.witness == bg.edges


def test_lu_gives_up_when_a_component_fits_none_of_its_rotations(monkeypatch):
    """Disconnected input: after rotation 0 of the whole graph puts two
    triangles in one component, that component moves through its own
    rotations inside each peel of the whole graph, while the other keeps
    rotation 0.  One whose every own rotation splits ends in InternalError
    naming its rotations, with the input's edges as the witness."""
    import trimatch.partition as partition_module

    # the splitting 3 + 3 circulant pair of the test above, then K4,4
    m = 3
    edges = [(a + o, (a + s) % m + o) for o in (0, m) for a in range(m) for s in range(3)]
    crossing = [(a, (a + m) % (2 * m)) for a in range(2 * m)]
    k44 = [(2 * m + a, 2 * m + b) for a in range(4) for b in range(4)]
    bg = make_bipartite(2 * m + 4, 2 * m + 4, edges + crossing + k44)
    orders = []

    def fake_peel(adj, n_b, t, order):
        orders.append(list(order))
        return peeled(adj, [crossing + [(2 * m + i, 2 * m + i) for i in range(4)]])

    monkeypatch.setattr(partition_module, "_peel", fake_peel)
    with pytest.raises(InternalError, match=f"rotations 0..{2 * m - 1} ") as err:
        lu_subgraph(bg, 4)
    first = list(range(2 * m))
    assert orders == [first[r:] + first[:r] + [6, 7, 8, 9] for r in range(2 * m)]
    assert err.value.witness == bg.edges


def test_lu_searches_the_input_components_once(monkeypatch):
    """The input's components are searched only when rotation 0 of the
    whole graph has two triangles, once, on its incidence lists, and no
    residual is searched: `verify_lu` alone accepts the final kept edges."""
    import trimatch.partition as partition_module

    # the splitting 3 + 3 circulant pair of the tests above, then K4,4
    m = 3
    edges = [(a + o, (a + s) % m + o) for o in (0, m) for a in range(m) for s in range(3)]
    crossing = [(a, (a + m) % (2 * m)) for a in range(2 * m)]
    k44 = [(2 * m + a, 2 * m + b) for a in range(4) for b in range(4)]
    bg = make_bipartite(2 * m + 4, 2 * m + 4, edges + crossing + k44)
    peel = partition_module._peel
    search = partition_module._component_blocks
    n_b = bg.n_b
    full = [[n_b + a for a in nbrs] for nbrs in bg.adj_b] + list(map(list, bg.adj_a))
    searches, orders = [], []

    def fake_peel(adj, n_b, t, order):
        orders.append(list(order))
        if orders[-1] == list(range(bg.n_a)):
            return peeled(adj, [crossing + [(2 * m + i, 2 * m + i) for i in range(4)]])
        return peel(adj, n_b, t, order)

    def spy(adj, *args):
        searches.append([list(a) for a in adj] == full)
        return search(adj, *args)

    monkeypatch.setattr(partition_module, "_peel", fake_peel)
    monkeypatch.setattr(partition_module, "_component_blocks", spy)
    lu = lu_subgraph(bg, 4)
    assert verify_lu(bg, lu).ok
    assert searches == [True]
    assert orders == [list(range(10)), [1, 2, 3, 4, 5, 0, 6, 7, 8, 9]]


def test_lu_rotates_an_interleaved_component_over_its_own_ids(monkeypatch):
    """When the components' ids interleave, the one with two triangles at
    rotation 0 is rotated over its own ids, and the kept edges are each
    component's own at its rotation, in the input's ids, sorted."""
    import trimatch.partition as partition_module

    # the splitting 3 + 3 circulant pair of the tests above and K4,4, with
    # the pair on ids 0, 2, 4, 6, 8, 9 and K4,4 on ids 1, 3, 5, 7 of each side
    m = 3
    edges = [(a + o, (a + s) % m + o) for o in (0, m) for a in range(m) for s in range(3)]
    crossing = [(a, (a + m) % (2 * m)) for a in range(2 * m)]
    first = make_bipartite(2 * m, 2 * m, edges + crossing)
    k44 = make_bipartite(4, 4, [(a, b) for a in range(4) for b in range(4)])
    at_first, at_k44 = [0, 2, 4, 6, 8, 9], [1, 3, 5, 7]
    bg = make_bipartite(10, 10, [(at_first[a], at_first[b]) for a, b in first.edges]
                        + [(at_k44[a], at_k44[b]) for a, b in k44.edges])
    splitting = [(at_first[a], at_first[b]) for a, b in crossing]
    splitting += [(at_k44[i], at_k44[i]) for i in range(4)]
    peel = partition_module._peel
    orders = []

    def fake_peel(adj, n_b, t, order):
        orders.append(list(order))
        if orders[-1] == list(range(bg.n_a)):
            return peeled(adj, [splitting])
        return peel(adj, n_b, t, order)

    # the pair alone at its rotation 1 fits, so no other rotation is tried
    first_kept, triangles = kept_at(first, 1, 1)
    assert triangles <= 1
    expected = sorted(
        [(at_first[a], at_first[b]) for a, b in first_kept]
        + [(at_k44[a], at_k44[b]) for a, b in lu_subgraph(k44, 4).kept]
    )
    monkeypatch.setattr(partition_module, "_peel", fake_peel)
    assert lu_subgraph(bg, 4).kept == tuple(expected)
    assert orders == [list(range(10)), at_first[1:] + at_first[:1] + at_k44]


def test_lu_many_components_with_one_rotation_0_split(monkeypatch):
    """199 random 4-regular components plus one census graph that needs
    rotation 1: rotation 0 of the whole graph puts two triangles in that
    one alone, so the second peel of the whole graph moves it to its
    rotation 1 and keeps every other component at rotation 0.  The kept
    edges are checked once and are each component's own."""
    import trimatch.partition as partition_module

    split = rotation_0_split(ROTATION_0_SPLITS[0])
    parts = [random_regular_bipartite(5 + i % 8, 4, i) for i in range(199)]
    bg = disjoint_union(*parts, split)
    assert bg.n_b == 1694
    verify, peel = partition_module.verify_lu, partition_module._residual_certificates
    checked, peeled_at = [], []

    def spy(graph, cert):
        checked.append(graph.n_b)
        return verify(graph, cert)

    def peel_spy(adj, n_b, t, order):
        peeled_at.append((n_b, list(order)))
        return peel(adj, n_b, t, order)

    monkeypatch.setattr(partition_module, "verify_lu", spy)
    monkeypatch.setattr(partition_module, "_residual_certificates", peel_spy)
    lu = lu_subgraph(bg, 4)
    assert verify(bg, lu).ok
    # one final call on the whole graph, none per rotation or component
    assert checked == [bg.n_b]
    # two peels of the whole graph, the second with the split one rotated
    rest = list(range(1688))
    assert peeled_at == [(1694, rest + [1688, 1689, 1690, 1691, 1692, 1693]),
                         (1694, rest + [1689, 1690, 1691, 1692, 1693, 1688])]
    monkeypatch.undo()
    kept, offset = [], 0
    for part in parts + [split]:
        kept.extend((a + offset, b + offset) for a, b in lu_subgraph(part, 4).kept)
        offset += part.n_a
    assert lu.kept == tuple(kept)


def union_with_ids(graphs, rng=None):
    """The union of `graphs`, side by side or, given `rng`, with each side's
    ids dealt out at random, and each graph's A and B ids in it.  A graph's
    ids keep their order, so its adjacency lists and scan orders keep theirs."""
    sides = []
    for n in ([g.n_a for g in graphs], [g.n_b for g in graphs]):
        owner = [i for i, size in enumerate(n) for _ in range(size)]
        if rng is not None:
            rng.shuffle(owner)
        sides.append([[x for x, o in enumerate(owner) if o == i] for i in range(len(n))])
    at_a, at_b = sides
    edges = [(at_a[i][a], at_b[i][b]) for i, g in enumerate(graphs) for a, b in g.edges]
    return make_bipartite(sum(g.n_a for g in graphs), sum(g.n_b for g in graphs), edges), at_a, at_b


@pytest.mark.parametrize("k", [4, 5])
def test_rotation_0_of_a_union_is_rotation_0_of_each_component(k):
    """Hopcroft-Karp matches each component of a union as it would match it
    alone, so the extracted matchings and the kept edges of rotation 0 are
    those of every component at its own rotation 0, with the components
    side by side or dealt out among each other's ids.  So `lu` of the union
    keeps each component's own kept edges.  At k = 4 the parts include
    census graphs that need rotation 1, which `lu` of the union reaches in
    a second peel of the whole graph."""
    rng = random.Random(k)

    def check(parts, ids_rng):
        bg, at_a, at_b = union_with_ids(parts, ids_rng)
        alone = [set() for _ in range(k - 3)]
        kept, lu_kept = [], []
        for part, ids_a, ids_b in zip(parts, at_a, at_b):
            for j, m in enumerate(extract_disjoint_perfect_matchings(part, k - 3)):
                alone[j].update((ids_a[a], ids_b[b]) for a, b in m.pairs)
            kept.extend((ids_a[a], ids_b[b]) for a, b in kept_at(part, k - 3, 0)[0])
            lu_kept.extend((ids_a[a], ids_b[b]) for a, b in lu_subgraph(part, k).kept)
        whole = extract_disjoint_perfect_matchings(bg, k - 3)
        assert [set(m.pairs) for m in whole] == alone
        assert kept_at(bg, k - 3, 0)[0] == tuple(sorted(kept))
        lu, orders = with_orders(lu_subgraph, bg, k)
        assert lu.kept == tuple(sorted(lu_kept))
        return len(orders)

    for seed in range(30):
        parts = [
            random_regular_bipartite(rng.randrange(k, 13), k, 40 * seed + i)
            for i in range(2 + seed % 4)
        ]
        check(parts, rng if seed % 2 else None)
    if k == 4:
        for seed in range(12):
            splits = [rotation_0_split(ROTATION_0_SPLITS[(7 * seed + 3 * i) % 81]) for i in range(2)]
            parts = [splits[0], random_regular_bipartite(rng.randrange(4, 13), 4, 900 + seed)]
            parts += splits[1:] * (seed % 3 > 0)
            assert check(parts, rng if seed % 2 else None) == 2


@pytest.mark.parametrize("k", [3, 4, 5])
def test_any_order_peels_a_union_as_it_peels_each_component(k):
    """Hopcroft-Karp matches each component of a union as it would match it
    alone, under any A-order and not only rotation 0: `_peel` of the union
    in a random order gives, on each component, the match arrays and the
    residual lists of that component's `_peel` in the order the union's
    order induces on it, in the union's ids, which interleave."""
    rng = random.Random(50 + k)
    for seed in range(30):
        parts = [
            random_regular_bipartite(rng.randrange(k, 13), k, 40 * seed + i)
            for i in range(1 + seed % 4)
        ]
        bg, at_a, at_b = union_with_ids(parts, rng)
        order = list(range(bg.n_a))
        rng.shuffle(order)
        t = rng.randrange(k + 1)
        matches, residual = _peel(bg.adj_a, bg.n_b, t, order)
        for part, ids_a, ids_b in zip(parts, at_a, at_b):
            local = {a: i for i, a in enumerate(ids_a)}
            part_matches, part_residual = _peel(
                part.adj_a, part.n_b, t, [local[a] for a in order if a in local]
            )
            for match_a, part_match in zip(matches, part_matches, strict=True):
                assert [match_a[a] for a in ids_a] == [ids_b[b] for b in part_match]
            assert [list(residual[a]) for a in ids_a] == [
                [ids_b[b] for b in nbrs] for nbrs in part_residual
            ]


@pytest.mark.parametrize("k", range(3, 8))
def test_peel_is_the_extraction_at_every_rotation_and_leaves_a_regular_residual(k):
    """The construction check behind `_residual_certificates`, which has no
    run-time check of its residual: on seeded k-regular graphs, at every
    t <= k and every rotation r < min(n, 24), `_peel` gives t perfect,
    pairwise edge-disjoint matchings, equal to the old extractor's at
    rotation r, and a residual of sorted A-lists with k - t entries each,
    the host's lists without the matched edges, that is (k - t)-regular on
    B too.  Each t is peeled alone, and its matchings compared with the
    first t of the old extractor at t = k."""
    for n in list(range(k, 41)) + [97, 200]:
        for seed in (1, 2):
            bg = random_regular_bipartite(n, k, seed)
            edges = set(bg.edges)
            for r in range(min(n, 24)):
                order = [(i + r) % n for i in range(n)]
                old = old_extract_disjoint_perfect_matchings(bg, k, _rotation=r)
                for t in range(k + 1):
                    matches, residual = _peel(bg.adj_a, bg.n_b, t, order)
                    pairs = [tuple(enumerate(m)) for m in matches]
                    assert pairs == [m.pairs for m in old[:t]]
                    union = {p for ps in pairs for p in ps}
                    assert len(union) == t * n and union <= edges
                    for m in matches:
                        assert sorted(m) == list(range(n))
                    assert all(
                        len(nbrs) == k - t and list(nbrs) == sorted(nbrs) for nbrs in residual
                    )
                    left = {(a, b) for a, nbrs in enumerate(residual) for b in nbrs}
                    assert left == edges - union
                    deg_b = [0] * n
                    for nbrs in residual:
                        for b in nbrs:
                            deg_b[b] += 1
                    assert deg_b == [k - t] * n


def test_lu_checks_regularity_once_per_call(monkeypatch):
    """`lu_subgraph` checks its input's regularity once and runs `verify_lu`
    once, on its final kept edges, whatever rotations it tries: each peel's
    residual is regular by construction, and a retry peels the whole graph
    again with no check of its own."""
    import trimatch.matching as matching_module
    import trimatch.partition as partition_module

    checks, verified = [], []
    for module in (partition_module, matching_module):
        def check(graph, _real=module.require_regular_bipartite):
            checks.append(graph.n_a)
            return _real(graph)

        monkeypatch.setattr(module, "require_regular_bipartite", check)
    verify = partition_module.verify_lu

    def verify_spy(graph, cert):
        verified.append(graph.n_a)
        return verify(graph, cert)

    monkeypatch.setattr(partition_module, "verify_lu", verify_spy)
    split = rotation_0_split(ROTATION_0_SPLITS[0])
    for bg, orders in [
        (random_regular_bipartite(40, 5, 1), [list(range(40))]),
        (split, [[0, 1, 2, 3, 4, 5], [1, 2, 3, 4, 5, 0]]),
        # rotation 0 of the union, then both copies at their rotation 1
        (disjoint_union(split, split),
         [list(range(12)), [1, 2, 3, 4, 5, 0, 7, 8, 9, 10, 11, 6]]),
    ]:
        for seen in (checks, verified):
            seen.clear()
        lu, tried = with_orders(lu_subgraph, bg, len(bg.adj_a[0]))
        assert verify(bg, lu).ok
        assert tried == orders
        assert checks == verified == [bg.n_a]


# The complements of the edges of a 6-cycle: a 4-uniform 4-regular
# hypergraph on 6 vertices
C6_COMPLEMENTS = "p hyp 6 6 4\n" + "".join(
    "e " + " ".join(str(v) for v in range(6) if v not in (i, (i + 1) % 6)) + "\n"
    for i in range(6)
)


@pytest.mark.parametrize("blocks", [
    [(0, 1, 2, 5), (3, 4)],  # a 4-vertex block
    [(0, 1, 2), (3, 4, 5)],  # two 3-blocks
])
def test_kept_blocks_of_a_wrong_shape_are_an_internal_error(
    monkeypatch, tmp_path, capsys, blocks
):
    """Residual certificate blocks that are neither the one triangle nor
    pairs, handed to `solve --k 4` with no triangle to count: the blocks of
    another shape are left out of its certificate, the certificate check
    finds their vertices uncovered, and the CLI exits 3."""
    import trimatch.partition as partition_module
    from trimatch.cli import main

    def fake(adj, n_b, t, rotation):
        return None, [TriMatchingPartition(triangle=None, pairs=tuple(blocks), host=None)]

    monkeypatch.setattr(partition_module, "_residual_certificates", fake)
    f = tmp_path / "c6.hyp"
    f.write_text(C6_COMPLEMENTS)
    assert main(["solve", "--k", "4", str(f)]) == 3
    err = capsys.readouterr().err
    assert err.startswith(
        "error: InternalError: constructed certificate failed verification: "
        "blocks do not cover the vertex set"
    )


@pytest.mark.parametrize(
    "solver, hypergraphs",
    [
        ("lu", 1),
        ("solve_k_uniform", 2),
        ("solve_components", 1),
        ("solve", 1),
        ("solve_disconnected", 1),
    ],
)
def test_each_hypergraph_is_validated_built_and_split_once(
    monkeypatch, solver, hypergraphs
):
    """`lu` builds and splits its residual once, and does not gate it, since
    it is 3-uniform and 3-regular by construction; `solve --k` also gates
    its k = 4 input, and splits it on the incidence lists without a shadow
    graph; `solve --components` gates and splits a union of four components
    once.  No component is gated or built again.  The shadow graph is built
    as its neighbour tuples, by `_shadow_lists`.  An odd `solve` searches no
    components when its construction succeeds, and once when it fails on a
    disconnected input."""
    import trimatch.partition as partition_module

    calls = []
    for name in ("validate", "make_hypergraph", "_shadow_lists", "components"):
        def spy(*args, _name=name, _real=getattr(partition_module, name), **kw):
            calls.append(_name)
            return _real(*args, **kw)

        monkeypatch.setattr(partition_module, name, spy)
    bg = random_regular_bipartite(40, 4, 3)
    if solver == "lu":
        lu_subgraph(bg, 4)
    elif solver == "solve_components":
        parts = [random_triple_system(n, n, require_connected=True) for n in (5, 8, 3, 11)]
        assert len(solve_components(hypergraph_union(parts))) == 4
    elif solver == "solve":
        solve(random_triple_system(101, 1, require_connected=True))
    elif solver == "solve_disconnected":
        with pytest.raises(Disconnected):
            solve(disconnected_odd_unions()["odd-beside-even"])
    else:
        h = make_hypergraph(bg.n_b, [bg.adj_a[a] for a in range(bg.n_a)], k=4)
        solve_k_uniform(h, 4)
    # the one shadow graph, and its split, is the 3-uniform residual's or
    # input's; each hypergraph is either an input, gated, or a residual, built
    residuals = 1 if solver in ("lu", "solve_k_uniform") else 0
    searches = 0 if solver == "solve" else 1
    assert sorted(calls) == sorted(
        ["validate"] * (hypergraphs - residuals)
        + ["make_hypergraph"] * residuals
        + ["_shadow_lists"]
        + ["components"] * searches
    )


@pytest.mark.parametrize("shape", sorted(disconnected_odd_unions()))
def test_a_disconnected_odd_instance_is_refused_as_disconnected(shape):
    """The construction fails on it before any walk is built, and the
    component search that follows names the fault."""
    h = disconnected_odd_unions()[shape]
    assert h.n % 2 == 1 and len(components(shadow_graph(h)).blocks) > 1
    with pytest.raises(NotFactorCritical):
        _ear_walks(_shadow_lists(h))
    for call in (solve, lambda h: solve_k_uniform(h, 3)):
        with pytest.raises(Disconnected) as info:
            call(h)
        assert str(info.value) == DISCONNECTED


@pytest.mark.parametrize("k", [4, 5])
def test_k_above_3_blocks_are_the_shadow_components(k):
    """For k > 3 the blocks come from the incidence graph, with no shadow
    graph, and equal the shadow graph's components, in the same order, on
    unions whose components interleave their vertex ids."""
    import random

    from trimatch import components
    from trimatch.partition import _blocks, _gated_graph

    rng = random.Random(k)
    for trial in range(20):
        parts = [random_regular_bipartite(rng.randrange(k, 12), k, rng.randrange(99))
                 for _ in range(rng.randrange(1, 5))]
        union = disjoint_union(*parts)
        ids = list(range(union.n_b))
        rng.shuffle(ids)
        h = make_hypergraph(
            union.n_b, [[ids[b] for b in nbrs] for nbrs in union.adj_a], k=k
        )
        g = _gated_graph(h, k)
        blocks = _blocks(h, k, g)
        assert g == _incidence_graph(h)
        assert blocks == components(shadow_graph(h)).blocks, trial


def old_incidence_graph(h):
    """The incidence graph as `solve --k` built it before: the (copy,
    vertex) pairs of every hyperedge copy through `make_bipartite`."""
    edges = []
    slot = 0
    for he, mult in zip(h.hyperedges, h.multiplicities):
        for _ in range(mult):
            edges.extend((slot, v) for v in he)
            slot += 1
    return make_bipartite(slot, h.n, edges)


@pytest.mark.parametrize("k", [4, 5, 6])
def test_incidence_graph_equals_make_bipartite_of_the_copy_vertex_pairs(k):
    """Built straight from the hyperedges, one A-vertex per copy, its A-side
    and B-side lists equal those of `make_bipartite` of the old pair list,
    repeated hyperedges included."""
    cases = [make_hypergraph(k + 1, list(itertools.combinations(range(k + 1), k)), k=k),
             make_hypergraph(k, [tuple(range(k))] * k, k=k)]
    cases += [partition_union_hypergraph(k, q, 10 * q + seed, seed % 2)
              for q in range(1, 8) for seed in range(4)]
    assert any(max(h.multiplicities) > 1 for h in cases)
    for h in cases:
        old = old_incidence_graph(h)
        assert _incidence_graph(h) == (old.adj_a, old.adj_b)


@pytest.mark.parametrize("solver", [solve_k_uniform, solve_components])
@pytest.mark.parametrize("hyperedges", [
    [(1, 3, 2, 4)],  # unsorted
    [(2, 2, 3, 4), (0, 1, 3, 4)],  # a repeated vertex
    [(-1, 1, 2, 3)],  # -1 for 4, which a list index would take it for
])
def test_k4_hand_built_malformed_hyperedges_are_refused(solver, hyperedges):
    """As `shadow_graph` refuses them at k = 3, the incidence graph refuses
    hyperedges that are not sorted tuples of distinct vertices, though every
    degree is 4.  A vertex outside [0, n) is refused before, by `validate`."""
    h = five_quads_with(hyperedges)
    if min(map(min, hyperedges)) < 0:
        with pytest.raises(ValueError, match=r"^vertex -1 out of range \[0, 5\)$"):
            validate(h, 4)
        message = "out of range"
    else:
        assert validate(h, 4).ok
        message = "not a sorted tuple of distinct vertices"
    with pytest.raises(ValueError, match=message):
        solver(h, 4)


@pytest.mark.parametrize("fault", ["overlap", "no slot"])
@pytest.mark.parametrize("command", ["lu", "solve", "solve-components"])
def test_faked_residual_certificates_are_an_internal_error(
    monkeypatch, tmp_path, capsys, fault, command
):
    """The residual certificates are not checked on their own.  In `lu` two
    pairs that overlap are stopped by the final `verify_lu`, and a pair
    inside no residual hyperedge by the slot lookup.  `solve --k 4` looks up
    no slot, and its final `verify_partition` stops both, with or without
    `--components`, whose one block reads the same extraction.  Either way
    the CLI exits 3."""
    import trimatch.partition as partition_module
    from dataclasses import replace

    from trimatch.cli import main
    from trimatch.formats import format_bipartite

    certificates = partition_module._component_certificates

    def fake(h, k, g):
        cert, *rest = certificates(h, k, g)
        pairs = list(cert.pairs)
        if fault == "overlap":
            pairs[1] = pairs[0]
        else:
            inside = {p for e in h.hyperedges for p in itertools.combinations(e, 2)}
            pairs[0] = next(p for p in itertools.combinations(range(h.n), 2) if p not in inside)
        return [replace(cert, pairs=tuple(pairs)), *rest]

    bg = random_regular_bipartite(12, 4, 5)
    h = make_hypergraph(bg.n_b, bg.adj_a, k=4)
    assert len(components(shadow_graph(h)).blocks) == 1
    monkeypatch.setattr(partition_module, "_component_certificates", fake)
    if command == "lu":
        f = tmp_path / "g.bip"
        f.write_text(format_bipartite(bg))
        argv = ["lu", "--k", "4", str(f)]
    else:
        f = tmp_path / "g.hyp"
        f.write_text(format_hypergraph(h))
        argv = ["solve", "--k", "4", str(f)] + ["--components"] * (command != "solve")
    assert main(argv) == 3
    failed = "error: InternalError: constructed certificate failed verification: "
    assert capsys.readouterr().err == {
        ("lu", "overlap"): failed + (
            "kept edge (3, 0) repeated; kept edge (3, 2) repeated;"
            " B-vertex 0 has kept degree 2, expected 1;"
            " B-vertex 1 has kept degree 0, expected 1;"
            " B-vertex 2 has kept degree 2, expected 1;"
            " B-vertex 4 has kept degree 0, expected 1; A-vertex 3 has kept degree 4\n"
        ),
        ("lu", "no slot"): "error: InternalError: no A-vertex carries block (0, 1)\n",
        ("solve", "overlap"): failed + (
            "blocks are not disjoint; blocks do not cover the vertex set (missing [1, 4])\n"
        ),
        ("solve", "no slot"): failed + (
            "blocks are not disjoint; blocks do not cover the vertex set (missing [2]);"
            " pair (0, 1) is not inside any hyperedge\n"
        ),
    }[command.split("-")[0], fault]


@pytest.mark.parametrize("components", [False, True])
def test_solve_k_reads_its_blocks_off_the_residual(monkeypatch, tmp_path, capsys, components):
    """`solve --k` and `solve --components --k` build their certificates
    from the residual certificates: no `lu_subgraph`, no kept edges, no
    `verify_lu` and no regularity check of an incidence graph, on the view
    of a census graph that needs rotation 1 there too, a random view at
    |B| = 300, and their union."""
    import trimatch.matching as matching_module
    import trimatch.partition as partition_module
    from trimatch.cli import main

    calls = []
    for module, name in [
        (partition_module, "lu_subgraph"),
        (partition_module, "_kept_edges"),
        (partition_module, "verify_lu"),
        (partition_module, "require_regular_bipartite"),
        (matching_module, "require_regular_bipartite"),
    ]:
        def spy(*args, _name=name, _real=getattr(module, name)):
            calls.append(_name)
            return _real(*args)

        monkeypatch.setattr(module, name, spy)
    graphs = (rotation_0_split(ROTATION_0_SPLITS[0]), random_regular_bipartite(300, 4, 7))
    views = [make_hypergraph(bg.n_b, bg.adj_a, k=4) for bg in graphs]
    cases = views + [hypergraph_union(views)] if components else views
    for i, h in enumerate(cases):
        f = tmp_path / "v.hyp"
        f.write_text(format_hypergraph(h))
        code, tried = with_rotations(main, ["solve", "--k", "4", str(f)] + ["--components"] * components)
        assert code == 0 and (i > 0 or tried == [0, 1])
        triangles, pairs, _ = parse_certificate(capsys.readouterr().out)
        assert verify_partition(h, (triangles, pairs)).ok
    assert calls == []


@pytest.mark.parametrize("m", [3, 13])
def test_solve_k_gives_up_naming_the_rotations_with_the_hyperedges(monkeypatch, m):
    """An extraction that always splits the residual of a connected view
    into two odd components ends in InternalError after min(|A|, 24)
    rotations, with the input's hyperedges, one per copy, as the witness."""
    import trimatch.partition as partition_module

    # the splitting circulant pair of `test_lu_gives_up_when_every_rotation_splits`
    edges = [(a + o, (a + s) % m + o) for o in (0, m) for a in range(m) for s in range(3)]
    crossing = {a: (a + m) % (2 * m) for a in range(2 * m)}
    bg = make_bipartite(2 * m, 2 * m, edges + list(crossing.items()))
    h = make_hypergraph(bg.n_b, bg.adj_a, k=4)
    slot = {nbrs: a for a, nbrs in enumerate(bg.adj_a)}
    calls = []

    def fake_peel(adj, n_b, t, order):
        calls.append(order[0])
        # the view lists the A-vertices in another order
        return peeled(adj, [[(i, crossing[slot[nbrs]]) for i, nbrs in enumerate(adj)]])

    monkeypatch.setattr(partition_module, "_peel", fake_peel)
    tried = min(2 * m, 24)
    with pytest.raises(InternalError, match=f"rotations 0..{tried - 1} ") as err:
        solve_k_uniform(h, 4)
    assert calls == list(range(tried))
    assert set(h.multiplicities) == {1} and err.value.witness == h.hyperedges


@pytest.mark.parametrize("k", [4, 5, 6])
def test_solve_k_blocks_are_the_lu_kept_edges_by_a_vertex(k):
    """On the hypergraph view of a k-regular graph with pairwise distinct
    A-lists, one hyperedge per A-vertex, the blocks of `solve_k_uniform` are
    the kept edges of `lu_subgraph` on the view's incidence graph grouped by
    A-vertex: the 3-block is the triangle, the 2-blocks the pairs."""
    checked = 0
    for n in [k + 2, 13, 40, 97, 500, 2000]:
        for seed in (1, 2):
            bg = random_regular_bipartite(n, k, seed)
            if len(set(bg.adj_a)) < n:
                continue
            h = make_hypergraph(n, bg.adj_a, k=k)
            view = make_bipartite(n, n, [(a, v) for a, e in enumerate(h.hyperedges) for v in e])
            blocks = [
                tuple(b for _, b in kept)
                for _, kept in itertools.groupby(lu_subgraph(view, k).kept, key=lambda e: e[0])
            ]
            cert = solve_k_uniform(h, k)
            assert [b for b in blocks if len(b) == 3] == ([cert.triangle] if cert.triangle else [])
            assert sorted(b for b in blocks if len(b) == 2) == list(cert.pairs)
            assert set(map(len, blocks)) <= {2, 3}
            checked += 1
    assert checked >= 10


@pytest.mark.parametrize("solver", [solve_k_uniform, solve_components])
@pytest.mark.parametrize(
    "k, h",
    [
        (0, make_hypergraph(4, [], k=0)),
        (1, make_hypergraph(2, [(0,), (1,)], k=1)),
        (2, make_hypergraph(4, [(0, 1), (1, 2), (2, 3), (0, 3)], k=2)),
    ],
)
def test_uniformity_below_3_is_refused_before_the_shadow_graph(monkeypatch, solver, k, h):
    """A k < 3 instance that passes `validate` is refused before its shadow
    graph is built, which for a huge declared vertex count would hold one
    list per vertex."""
    import trimatch.partition as partition_module

    built = []
    monkeypatch.setattr(partition_module, "_shadow_lists", built.append)
    with pytest.raises(PreconditionViolated, match="uniformity must be at least 3"):
        solver(h, k)
    assert built == []


def test_lu_disconnected_input_one_triangle_per_component():
    two = make_bipartite(
        6, 6,
        [(a, b) for a in range(3) for b in range(3)]
        + [(a, b) for a in range(3, 6) for b in range(3, 6)],
    )
    lu = lu_subgraph(two, 3)
    assert verify_lu(two, lu).ok
    deg_a = [0] * 6
    for a, _ in lu.kept:
        deg_a[a] += 1
    assert sum(1 for d in deg_a if d == 3) == 2  # one per odd component


def test_lu_rejects_irregular():
    bad = make_bipartite(2, 2, [(0, 0), (0, 1), (1, 0)])
    with pytest.raises(NotRegular):
        lu_subgraph(bad, 2)


def test_lu_degree_three_iff_odd_side():
    for n_side, k, seed in [(6, 3, 1), (7, 3, 2), (8, 4, 3), (9, 4, 4), (10, 5, 5), (11, 5, 6)]:
        bg = random_regular_bipartite(n_side, k, seed)
        lu = lu_subgraph(bg, k)
        assert verify_lu(bg, lu).ok
        deg_a = [0] * n_side
        for a, _ in lu.kept:
            deg_a[a] += 1
        threes = sum(1 for d in deg_a if d == 3)
        assert threes == n_side % 2


# Copies of `lu_subgraph` and its two helpers as they were while a rotation
# was accepted by counting residual components with odd |B| against the
# input's count, verbatim but for the `old_` prefix on their names.


def old_residual_odd_components(bg: BipartiteGraph, removed_pairs) -> int:
    """Number of residual components with an odd number of B-vertices."""
    removed = set(removed_pairs)
    n_a = bg.n_a
    adj = [
        [n_a + b for b in bg.adj_a[a] if (a, b) not in removed] for a in range(n_a)
    ]
    adj.extend(
        [a for a in bg.adj_b[b] if (a, b) not in removed] for b in range(bg.n_b)
    )
    return sum(
        sum(v >= n_a for v in block) % 2 for block in _component_blocks(adj)
    )


def old_extract_keeping_odd_count(bg: BipartiteGraph, t: int) -> set:
    """Pairs of t disjoint perfect matchings whose removal leaves exactly as
    many components with odd |B| as the input has.

    Each input component with odd |B| leaves at least one odd residual
    component, so equal counts mean one per such component and none
    elsewhere, which is what `verify_lu` asks.  Rotated scan orders are
    tried in turn, and the first that fits the whole graph wins.

    A rotation of the whole graph leaves the scan order inside most of its
    components unchanged, so when none fits and the input is disconnected,
    each component is extracted alone, with rotations of its own, and the
    pairs are combined.  When a connected graph fits no rotation, an
    InternalError names them and carries the graph's edges as its witness.
    """
    n_a = bg.n_a
    blocks = _component_blocks(
        [[n_a + b for b in nbrs] for nbrs in bg.adj_a] + list(bg.adj_b)
    )
    target = sum(sum(v >= n_a for v in block) % 2 for block in blocks)
    rotations = min(bg.n_a, 24)
    for rotation in range(rotations):
        attempt = old_extract_disjoint_perfect_matchings(bg, t, _rotation=rotation)
        pairs = {p for m in attempt for p in m.pairs}
        if old_residual_odd_components(bg, pairs) == target:
            return pairs
    if len(blocks) == 1:
        raise InternalError(
            f"extraction rotations 0..{rotations - 1} all leave a residual with "
            f"other than {target} components of odd |B|",
            witness=bg.edges,
        )
    pairs = set()
    for block in blocks:
        a_ids = sorted(v for v in block if v < n_a)
        b_ids = sorted(v - n_a for v in block if v >= n_a)
        b_new = {b: j for j, b in enumerate(b_ids)}
        sub = make_bipartite(
            len(a_ids),
            len(b_ids),
            [(i, b_new[b]) for i, a in enumerate(a_ids) for b in bg.adj_a[a]],
        )
        pairs.update(
            (a_ids[a], b_ids[b]) for a, b in old_extract_keeping_odd_count(sub, t)
        )
    return pairs


def old_lu_subgraph(bg: BipartiteGraph, k: int) -> LuSubgraph:
    """Kept edge set with B-degrees 1 and A-degrees 0/2 plus at most one 3.

    Deletes k-3 disjoint perfect matchings, reads the residual as a 3-uniform
    3-regular hypergraph on B (one hyperedge per A-vertex), solves it
    componentwise, and keeps the 2 or 3 edges of the A-vertex assigned to
    each block.  Extraction retries rotated scan orders when the residual
    would split into more odd components than the input has.
    """
    deg_k = require_regular_bipartite(bg)
    if deg_k != k:
        raise NotRegular(f"graph is {deg_k}-regular, expected {k}-regular")
    if k < 3:
        raise PreconditionViolated("degree must be at least 3")

    t = k - 3
    removed_pairs = old_extract_keeping_odd_count(bg, t) if t > 0 else set()

    slots = []
    for a in range(bg.n_a):
        nbrs = tuple(b for b in bg.adj_a[a] if (a, b) not in removed_pairs)
        if len(nbrs) != 3:
            raise InternalError("residual is not 3-regular on the A side")
        slots.append(nbrs)
    residual_h = make_hypergraph(bg.n_b, slots, k=3)
    certs = solve_components(residual_h)

    slot_of_vertex: dict[int, list[int]] = {}
    for a, nbrs in enumerate(slots):
        for v in nbrs:
            slot_of_vertex.setdefault(v, []).append(a)

    used = [False] * bg.n_a
    kept = []

    def assign(block):
        for a in slot_of_vertex.get(block[0], []):
            if not used[a] and all(x in slots[a] for x in block):
                used[a] = True
                kept.extend((a, x) for x in block)
                return
        raise InternalError(f"no free A-vertex carries block {block}")

    blocks = []
    for cert in certs:
        if cert.triangle is not None:
            blocks.append(tuple(cert.triangle))
        blocks.extend(cert.pairs)
    for block in sorted(blocks, key=lambda blk: blk[0]):
        assign(block)

    lu = LuSubgraph(kept=tuple(sorted(kept)), host=bg)
    _require_ok(verify_lu(bg, lu))
    return lu


def rotation_0_split(missing):
    """The census graph that a ROTATION_0_SPLITS string names."""
    return graph_of([
        (1 << int(missing[2 * a])) | (1 << int(missing[2 * a + 1])) for a in range(6)
    ])


def assert_same_kept(bg, k=None):
    k = len(bg.adj_a[0]) if k is None else k
    assert lu_subgraph(bg, k).kept == old_lu_subgraph(bg, k).kept


@pytest.mark.parametrize("k", [3, 4, 5, 6])
def test_lu_keeps_the_edges_of_the_odd_count_rule_on_seeded_graphs(k):
    for n_side in list(range(k, 40)) + [97, 200]:
        for seed in (1, 2):
            assert_same_kept(random_regular_bipartite(n_side, k, seed))


@pytest.mark.parametrize("k", [3, 4, 5])
def test_lu_keeps_the_edges_of_the_odd_count_rule_on_unions(k):
    for seed in range(40):
        sizes = [k + (seed * 7 + 3 * i) % (13 - k) for i in range(2 + seed % 3)]
        assert_same_kept(disjoint_union(
            *(random_regular_bipartite(n, k, 100 * seed + i) for i, n in enumerate(sizes))
        ))
    # four k=5 components: about one union in twenty needs a rotation past 0,
    # and a few fit no rotation of the whole graph
    if k == 5:
        for seed in range(120):
            assert_same_kept(disjoint_union(
                *(random_regular_bipartite(n, 5, 4 * seed + i) for i, n in enumerate((5, 6, 12, 6)))
            ))


def test_lu_keeps_the_edges_of_the_odd_count_rule_on_retried_census_graphs():
    """Each graph that needs rotation 1, alone and joined with a copy of
    itself (which reaches the per-component fallback)."""
    for missing in ROTATION_0_SPLITS:
        bg = rotation_0_split(missing)
        assert_same_kept(bg)
        assert_same_kept(disjoint_union(bg, bg))


def test_solve_k_uniform_k3_matches_solve(fano, triple, four_triples):
    for h in (fano, triple, four_triples):
        assert solve_k_uniform(h, 3) == solve(h)


def test_solve_k_uniform_single_quad():
    h = make_hypergraph(4, [(0, 1, 2, 3)] * 4, k=4)
    cert = solve_k_uniform(h, 4)
    assert cert.triangle is None
    assert len(cert.pairs) == 2
    assert verify_partition(h, cert).ok


def test_solve_k_uniform_five_quads():
    h = make_hypergraph(5, list(itertools.combinations(range(5), 4)), k=4)
    cert = solve_k_uniform(h, 4)
    assert cert.triangle is not None
    assert len(cert.pairs) == 1
    assert (cert.triangle, cert.pairs) in all_tri_partitions(h)


def test_solve_k_uniform_blocks_in_hereditary_closure():
    from trimatch import hereditary_members

    h = make_hypergraph(5, list(itertools.combinations(range(5), 4)), k=4)
    cert = solve_k_uniform(h, 4)
    assert tuple(cert.triangle) in hereditary_members(h, 3)
    for p in cert.pairs:
        assert p in hereditary_members(h, 2)


def test_verify_catches_overlap(triple):
    report = verify_partition(triple, ([(0, 1, 2)], [(0, 1)]))
    assert not report.ok
    assert any("disjoint" in v for v in report.violations)


def test_verify_catches_pair_outside_hyperedges(fano):
    # {1, 2} spans two lines of the Fano plane but lies inside none? it does
    # lie inside line (0,1,2); pick a real non-pair instead
    h = make_hypergraph(5, [(0, 1, 2), (2, 3, 4), (4, 0, 1)], k=3)
    report = verify_partition(h, ([(2, 3, 4)], [(0, 1)]))
    assert report.ok
    report = verify_partition(h, ([(0, 1, 2)], [(3, 4)]))
    assert report.ok
    report = verify_partition(h, ([(2, 3, 4)], [(0, 3)]))  # 0,3 share no hyperedge
    assert not report.ok


def test_verify_catches_missing_coverage(triple):
    report = verify_partition(triple, ([], [(0, 1)]))
    assert not report.ok
    # an empty list is zero certificates, not a malformed raw tuple
    report = verify_partition(triple, [])
    assert report.violations == (
        "blocks do not cover the vertex set (missing [0, 1, 2])",
    )


def test_verify_empty_certificate_list():
    empty = make_hypergraph(0, [], k=3)
    certs = solve_components(empty)
    assert certs == []
    assert verify_partition(empty, certs).ok


def test_verify_triangle_must_be_hyperedge(fano):
    # {0, 1, 3} is not a Fano line
    pairs = [(2, 4), (5, 6)]
    report = verify_partition(fano, ([(0, 1, 3)], pairs))
    assert any("hyperedge" in v for v in report.violations)


def closed_ear_decomposition():
    """Circuit 0-1-2 plus the closed ear 2-3-4-5-6-2."""
    g = make_graph(7, [(0, 1), (1, 2), (0, 2), (2, 3), (3, 4), (4, 5), (5, 6), (2, 6)])
    d = assemble(g, [[0, 1, 2, 0], [2, 3, 4, 5, 6, 2]])
    assert not validate_decomposition(d)
    return d


def trivial_ear_inside_decomposition():
    """Circuit 0-1-2-3-4-0, the chord 0-2 as a trivial ear, then 1-5-6-3."""
    g = make_graph(
        7, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 0), (0, 2), (1, 5), (5, 6), (6, 3)]
    )
    d = assemble(g, [[0, 1, 2, 3, 4, 0], [0, 2], [1, 5, 6, 3]])
    assert not validate_decomposition(d)
    return d


def forced_edge_pairs(d, k, edge, avoid):
    """The canonical pairs that the odd construction reads off d's ears up
    to k with the hole at `avoid`, checked as a perfect matching of the host
    minus `avoid` that keeps `edge`."""
    walks = [ear.vertices for ear in d.ears]
    pairs = _canon_pairs(_prefix_matching(walks, d.labels, d.positions, k + 1, avoid))
    _check_near_perfect(pairs, d.host.adjacency, avoid, edge)
    return pairs


def test_same_ear_apex_construction_on_closed_ear():
    # apex 5 shares the closed ear with the chosen edge (3, 4), at the odd
    # position 3 after it: the alternating edges before it keep the edge
    d = closed_ear_decomposition()
    assert forced_edge_pairs(d, 1, (3, 4), 5) == ((0, 1), (2, 6), (3, 4))


def test_apex_at_an_even_position_on_the_edge_ear_loses_the_edge():
    """Apex 6 at the even position 4 of the closed ear, as only a
    decomposition that is not maximal allows: the alternating edges before
    it are even ones, and the check stops the matching."""
    d = closed_ear_decomposition()
    with pytest.raises(InternalError, match="matching lost its forced edge"):
        forced_edge_pairs(d, 1, (3, 4), 6)


def test_forced_edge_matching_on_closed_ear():
    d = closed_ear_decomposition()
    m = matching_with_edge_avoiding(d, (3, 4), 0)
    assert m.pairs == ((1, 2), (3, 4), (5, 6))


@pytest.mark.parametrize(
    "build", [closed_ear_decomposition, trivial_ear_inside_decomposition]
)
def test_prefix_matching_on_hand_built_decompositions(build):
    d = build()
    cases = list(prefix_cases(d))
    assert len(cases) == sum(
        len({v for ear in d.ears[:k] for v in ear.vertices})
        for k in range(1, len(d.ears) + 1)
    )
    assert [c for c in cases if c[2] is not None] == []
    # library callers may pass either decomposition to the forced-edge matching
    edge = (3, 4) if build is closed_ear_decomposition else (5, 6)
    for avoid in (v for v in range(d.host.n) if d.labels[v] < d.labels[edge[0]]):
        m = matching_with_edge_avoiding(d, edge, avoid)
        assert m.pairs in all_perfect_matchings(d.host, avoid=avoid)
        assert edge in m.pairs


@pytest.mark.parametrize("n", range(3, 30, 2))
def test_prefix_matching_every_prefix_and_hole(n):
    """Every prefix of k ears minus every vertex on it, on the unsliced and
    the maximal decomposition, and the ears after the last nontrivial one
    adding no pair for any hole; `tests/prefix_census.py` runs larger n."""
    for seed, d in decompositions(n, (1, 2, 3)):
        faults = [c for c in prefix_cases(d) if c[2] is not None]
        assert faults == [], (n, seed, faults[:3])
        faults = [c for c in tail_cases(d) if c[1] is not None]
        assert faults == [], (n, seed, faults[:3])


def test_interleaved_trivial_ear_on_a_value_built_by_hand():
    """A trivial ear between two nontrivial ones and another after them, on
    a value that the ears module did not build: the last nontrivial ear is
    found from the back, and the ears up to it give the forced-edge
    matching."""
    g = make_graph(
        7,
        [(0, 1), (1, 2), (2, 3), (3, 4), (4, 0), (0, 2), (1, 5), (5, 6), (6, 3), (2, 4)],
    )
    d = EarDecomposition(
        host=g,
        ears=(Ear((0, 1, 2, 3, 4, 0)), Ear((0, 2)), Ear((1, 5, 6, 3)), Ear((2, 4))),
        labels=(0, 0, 0, 0, 0, 2, 2),
        positions=(0, 1, 2, 3, 4, 1, 2),
    )
    assert validate_decomposition(d) == []
    assert last_nontrivial_ear(d) == 2
    for avoid in range(5):
        m = matching_with_edge_avoiding(d, (5, 6), avoid)
        assert m.pairs in all_perfect_matchings(g, avoid=avoid)
        assert (5, 6) in m.pairs


def matching_calls(monkeypatch, cases):
    """For each (n, seed), the sorted blossom matchings ("blossom") and tree
    searches ("tree") that a solve of that instance runs."""
    import trimatch.matching as matching_module

    calls = []
    blossom = matching_module._max_matching_arrays
    tree_init = matching_module.AlternatingTree.__init__

    def blossom_spy(adj, active):
        calls.append("blossom")
        return blossom(adj, active)

    def tree_spy(self, *args):
        calls.append("tree")
        tree_init(self, *args)

    monkeypatch.setattr(matching_module, "_max_matching_arrays", blossom_spy)
    monkeypatch.setattr(matching_module.AlternatingTree, "__init__", tree_spy)
    out = []
    for n, seed in cases:
        calls.clear()
        h = random_triple_system(n, seed=seed, require_connected=True)
        assert verify_partition(h, solve(h)).ok
        out.append(sorted(calls))
    return out


def test_odd_solve_runs_one_blossom_matching_and_one_search(monkeypatch):
    # apex on an earlier ear, on the same ear
    assert matching_calls(monkeypatch, ((101, 1), (33, 9))) == [
        ["blossom", "tree"]
    ] * 2


def test_even_solve_runs_one_blossom_matching_and_no_search(monkeypatch):
    assert matching_calls(monkeypatch, ((100, 1), (500, 2))) == [["blossom"]] * 2


def forced_edge_spy(monkeypatch):
    """The (k, apex on ear k) of each `_prefix_matching` call from now on
    that reads the ears up to k, with the hole starting at the apex."""
    import trimatch.partition as partition_module

    hits = []
    original = partition_module._prefix_matching

    def spy(walks, labels, positions, k, apex):
        hits.append((k - 1, labels[apex] == k - 1))
        return original(walks, labels, positions, k, apex)

    monkeypatch.setattr(partition_module, "_prefix_matching", spy)
    return hits


def test_same_ear_apex_instances_end_to_end(monkeypatch):
    """Deterministic instances whose apex first appears on the chosen edge's
    own ear, a nontrivial one after the circuit, rather than an earlier one."""
    hits = forced_edge_spy(monkeypatch)
    for n, seed in SAME_EAR_INSTANCES:
        hits.clear()
        h = random_triple_system(n, seed=seed, require_connected=True)
        cert = solve(h)
        assert verify_partition(h, cert).ok
        assert len(hits) == 1 and hits[0][0] >= 1 and hits[0][1], (n, seed, hits)


def test_the_solver_reads_the_maximal_decomposition_off_its_walks():
    """The walks, labels, positions and last nontrivial ear that an odd
    solve reads equal those of `maximalize(odd_ear_decomposition(g))`."""
    instances = dict(seeded_odd_instances())
    for n, seed in SAME_EAR_INSTANCES:
        instances[n, seed] = random_triple_system(n, seed=seed, require_connected=True)
    for (n, seed), h in instances.items():
        d = maximalize(odd_ear_decomposition(shadow_graph(h)))
        assert solve_path_fault(d) is None, (n, seed, solve_path_fault(d))


def old_check_near_perfect(pairs, g, avoid, must_contain):
    """`_check_near_perfect` as it was, on edge tuples and vertex sets."""
    cov = []
    for u, v in pairs:
        if not g.has_edge(u, v):
            raise InternalError(f"matching pair ({u}, {v}) is not an edge")
        cov.extend((u, v))
    if len(set(cov)) != len(cov):
        raise InternalError("matching pairs overlap")
    if set(cov) != set(range(g.n)) - {avoid}:
        raise InternalError("matching does not cover exactly host minus one vertex")
    if must_contain not in pairs:
        raise InternalError("matching lost its forced edge")


def test_near_perfect_check_on_the_lists_agrees_with_the_old_check():
    """On the forced-edge matchings of odd solves and on broken copies of
    them (a pair dropped, repeated, turned into a non-edge or moved onto
    the avoided vertex; the forced edge dropped; another vertex avoided),
    the check raises what the old one raised, or passes where it passed."""
    rng = random.Random(13)
    raised = Counter()
    for n in range(5, 60, 2):
        h = random_triple_system(n, seed=n, require_connected=True)
        g = shadow_graph(h)
        cert = solve(h)
        a, b, apex = cert.triangle
        edge = (a, b)
        pairs = tuple(sorted(cert.pairs + (edge,)))
        i = rng.randrange(len(pairs))
        u, v = pairs[i]
        cases = [
            (pairs, apex),
            (pairs[:i] + pairs[i + 1:], apex),
            (pairs + pairs[i:i + 1], apex),
            (tuple(p for p in pairs if p != edge), apex),
            (pairs, u),
        ]
        for non_edge in itertools.combinations(range(n), 2):
            if not g.has_edge(*non_edge):
                cases.append((pairs[:i] + (non_edge,) + pairs[i + 1:], apex))
                break
        if apex in g.adjacency[v]:
            cases.append((pairs[:i] + (tuple(sorted((apex, v))),) + pairs[i + 1:], apex))
        for case, avoid in cases:
            results = []
            for check, graph in ((old_check_near_perfect, g),
                                 (_check_near_perfect, g.adjacency)):
                try:
                    results.append(check(case, graph, avoid, edge))
                except InternalError as exc:
                    results.append(str(exc))
            assert results[0] == results[1], (n, case, avoid)
            raised[results[0]] += 1
    assert len(raised) == 5, raised


def test_circuit_cut_construction_on_triple(monkeypatch):
    """The triple is the k=0 case, the only one: its shadow is the circuit
    itself, the hyperedge is the triangle and no pairs are left."""
    hits = forced_edge_spy(monkeypatch)
    h = make_hypergraph(3, [(0, 1, 2)] * 3, k=3)
    cert = solve(h)
    assert cert.triangle == (0, 1, 2) and cert.pairs == ()
    assert hits == [(0, True)]


@pytest.mark.parametrize("apex", [2, 3, 4])
def test_circuit_case_on_c5_keeps_the_edge_or_is_refused(apex):
    """Only n = 3 has the circuit as its last nontrivial ear.  Read off a
    5-cycle's circuit, a hole at the even positions 2 and 4 leaves the edge
    (0, 1) in a perfect matching of the rest; a hole at 3 loses it, and the
    check refuses the matching."""
    g = cycle_graph(5)
    d = assemble(g, [[0, 1, 2, 3, 4, 0]])
    assert not validate_decomposition(d)
    if apex == 3:
        with pytest.raises(InternalError, match="matching lost its forced edge"):
            forced_edge_pairs(d, 0, (0, 1), apex)
    else:
        pairs = forced_edge_pairs(d, 0, (0, 1), apex)
        assert pairs in all_perfect_matchings(g, avoid=apex)
        assert (0, 1) in pairs


def test_solved_random_instances_verify_and_match_parity():
    for n in range(4, 14):
        for s in range(6):
            h = random_triple_system(n, seed=31 * n + s, require_connected=True)
            cert = solve(h)
            assert verify_partition(h, cert).ok
            assert (cert.triangle is None) == (n % 2 == 0)
            if n % 2 == 1:
                g = shadow_graph(h)
                assert is_factor_critical(g)
                d = maximalize(odd_ear_decomposition(g))
                assert last_nontrivial_ear(d) >= 1


def test_exhaustive_small_uniform_regular_hypergraphs():
    """Every connected 3-uniform 3-regular hypergraph on 4..6 vertices."""
    from trimatch import components

    solved = 0
    for n in (4, 5, 6):
        triples = list(itertools.combinations(range(n), 3))
        for combo in itertools.combinations_with_replacement(
            range(len(triples)), n
        ):
            deg = [0] * n
            for idx in combo:
                for v in triples[idx]:
                    deg[v] += 1
            if any(d != 3 for d in deg):
                continue
            h = make_hypergraph(n, [triples[i] for i in combo], k=3)
            if len(components(shadow_graph(h)).blocks) > 1:
                continue
            cert = solve(h)
            assert verify_partition(h, cert).ok
            assert (cert.triangle, cert.pairs) in all_tri_partitions(h)
            solved += 1
    assert solved == 563


def test_solve_scales_to_mid_sizes():
    for n, seed in [(100, 1), (101, 2), (250, 3), (301, 4)]:
        h = random_triple_system(n, seed=seed, require_connected=True)
        cert = solve(h)
        assert verify_partition(h, cert).ok
        assert (cert.triangle is None) == (n % 2 == 0)


# SHA-256 over `format_partition(solve(h))` of
# `random_triple_system(n, seed, require_connected=True)` for n in
# LADDER_SIZES, then seed 1 to 4, in that order: the sizes the benchmark's
# ladders solve
LADDER_SIZES = (500, 501, 1000, 1001, 2000, 2001)
LADDER_SHA256 = "ebb2d302b3b4d3919ee31244667c1858d7b8971d66c94a40399afe7e283c4e86"


def test_solve_certificate_bytes_are_pinned_at_the_ladder_sizes():
    digest = hashlib.sha256()
    for n in LADDER_SIZES:
        for seed in range(1, 5):
            h = random_triple_system(n, seed, require_connected=True)
            digest.update(format_partition(solve(h)).encode("ascii"))
    assert digest.hexdigest() == LADDER_SHA256


# SHA-256 over `format_lu(lu_subgraph(bg, k))` of the parsed text of
# `random_regular_bipartite(nb, k, 10 * nb + k)` for k in (4, 5), then nb in
# LU_SIDES, in that order: the sizes the benchmark's bip-lu workload reads
LU_SIDES = (*range(500, 1001, 50), 2000)
LU_SHA256 = "4d726bcc614ad6ad484ea36bf3ba3c602d00ecd4c9db1932e4d03f23ce820a17"


def test_lu_certificate_bytes_are_pinned_at_the_benchmark_sizes():
    digest = hashlib.sha256()
    for k in (4, 5):
        for nb in LU_SIDES:
            text = format_bipartite(random_regular_bipartite(nb, k, 10 * nb + k))
            digest.update(format_lu(lu_subgraph(parse_bipartite(text), k)).encode("ascii"))
    assert digest.hexdigest() == LU_SHA256


@pytest.mark.parametrize("enabled", [True, False])
def test_library_calls_leave_the_collector_alone(monkeypatch, enabled):
    """Interpreter-global state belongs to the caller: `solve` and
    `lu_subgraph` neither switch the cyclic collector nor run it."""
    import gc

    h = random_triple_system(501, 1, require_connected=True)
    bg = random_regular_bipartite(200, 5, 1)
    was = gc.isenabled()
    (gc.enable if enabled else gc.disable)()
    try:
        with monkeypatch.context() as patch:
            for name in ("enable", "disable", "collect", "freeze"):
                patch.setattr(gc, name, lambda *args, _name=name: pytest.fail(f"gc.{_name}"))
            assert verify_partition(h, solve(h)).ok
            assert verify_lu(bg, lu_subgraph(bg, 5)).ok
        assert gc.isenabled() is enabled
    finally:
        (gc.enable if was else gc.disable)()
