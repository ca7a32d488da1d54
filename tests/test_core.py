"""Hypergraph model: shadow graphs, degrees, validation, components."""

import itertools
import random
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from trimatch import (
    Hypergraph,
    SimpleGraph,
    components,
    degree,
    hereditary_members,
    make_graph,
    make_hypergraph,
    shadow_graph,
    solve_components,
    solve_k_uniform,
    validate,
)
from trimatch.core import ValidationReport, _shadow_lists

from conftest import five_quads_with, random_regular_bipartite, random_triple_system


def test_shadow_of_triple_is_k3(triple):
    g = shadow_graph(triple)
    assert g.edges == ((0, 1), (0, 2), (1, 2))


def test_shadow_of_four_triples_is_k4(four_triples):
    g = shadow_graph(four_triples)
    assert g.m == 6
    assert set(g.edges) == set(itertools.combinations(range(4), 2))


def test_shadow_of_fano_is_k7(fano):
    g = shadow_graph(fano)
    assert g.m == 21


def test_degree_examples(triple, fano):
    assert degree(triple, 0) == 3
    assert all(degree(fano, v) == 3 for v in range(7))
    h = make_hypergraph(4, [(0, 1, 2)], k=3)
    assert degree(h, 3) == 0


def test_degree_out_of_range(triple):
    with pytest.raises(ValueError):
        degree(triple, 3)


def test_validate_examples(triple, four_triples):
    assert validate(triple, 3).ok
    assert validate(four_triples, 3).ok
    h = make_hypergraph(3, [(0, 1, 2)], k=3)
    rep = validate(h, 3)
    assert rep.uniform and not rep.regular
    assert rep.first_irregular_vertex == 0


@pytest.mark.parametrize("k", [-1, 0, 1, 2, 3])
@pytest.mark.parametrize(
    "n, hyperedges",
    [
        (3, [(0, 1, 2)] * 3),
        (7, [(0, 1, 2)] * 3),
        (8, [(3, 4, 5)] * 3),
        (9, [(2, 4, 6)] * 2 + [(1,)]),
        (4, []),
        (0, []),
    ],
)
def test_validate_first_irregular_vertex_with_vertices_on_no_hyperedge(
    n, hyperedges, k
):
    """More vertices than incidences: the degrees of the vertices that occur
    and the degree 0 of the others name the same first irregular vertex as
    a count over every vertex."""
    h = make_hypergraph(n, hyperedges, k=3)
    first = next((v for v in range(n) if degree(h, v) != k), None)
    assert validate(h, k).first_irregular_vertex == first


def test_validate_huge_declared_vertex_count():
    h = make_hypergraph(10**20, [(0, 1, 2)] * 3, k=3)
    assert validate(h, 3).first_irregular_vertex == 3
    assert validate(h, 0).first_irregular_vertex == 0
    assert validate(make_hypergraph(10**20, [], k=0), 0).ok


def test_validate_reports_first_nonuniform():
    h = make_hypergraph(4, [(0, 1, 2), (0, 1)], k=3)
    rep = validate(h, 3)
    assert not rep.uniform
    assert rep.first_nonuniform_hyperedge == 1


def test_components_examples():
    k3 = make_graph(3, [(0, 1), (1, 2), (0, 2)])
    assert components(k3).blocks == ((0, 1, 2),)
    two = make_graph(6, [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5)])
    assert components(two).blocks == ((0, 1, 2), (3, 4, 5))
    empty = make_graph(2, [])
    assert components(empty).blocks == ((0,), (1,))


def test_hereditary_members(triple, fano):
    assert hereditary_members(triple, 2) == [(0, 1), (0, 2), (1, 2)]
    assert hereditary_members(triple, 3) == [(0, 1, 2)]
    assert len(hereditary_members(fano, 2)) == 21
    with pytest.raises(ValueError):
        hereditary_members(triple, 4)


def test_hyperedge_with_repeated_vertex_rejected():
    with pytest.raises(ValueError):
        make_hypergraph(3, [(0, 0, 1)], k=3)


def test_multiplicity_folding():
    h = make_hypergraph(3, [(2, 1, 0), (0, 1, 2), (0, 1, 2)], k=3)
    assert h.hyperedges == ((0, 1, 2),)
    assert h.multiplicities == (3,)
    assert h.total_multiplicity == 3


def test_graph_rejects_loops():
    with pytest.raises(ValueError):
        make_graph(2, [(0, 0)])


def test_shadow_graph_is_the_graph_of_all_within_hyperedge_pairs():
    """shadow_graph reads its edges off sorted per-vertex neighbour lists; it
    builds exactly what make_graph builds from every within-hyperedge pair."""
    rng = random.Random(23)
    hs = []
    for _ in range(200):
        k = rng.randrange(3, 7)
        n = rng.randrange(k, 40)
        edges = [rng.sample(range(n), k) for _ in range(rng.randrange(2 * n))]
        hs.append(make_hypergraph(n, edges + edges[:3], k=k))
    for k in range(3, 7):
        # a regular bipartite graph read as a hypergraph: one hyperedge per A-vertex
        for n_side in (k, 10, 25, 60):
            bg = random_regular_bipartite(n_side, k, seed=n_side + k)
            hs.append(make_hypergraph(bg.n_b, bg.adj_a, k=k))
    hs.extend(random_triple_system(n, 1) for n in range(3, 60))
    for h in hs:
        pairs = [p for e in h.hyperedges for p in itertools.combinations(e, 2)]
        assert shadow_graph(h) == make_graph(h.n, pairs)


@pytest.mark.parametrize(
    "hyperedge", [(0, 2, 1), (0, 1, 1), (1, 2, 4), (-1, 0, 2)]
)
def test_shadow_graph_rejects_hand_built_malformed_hyperedges(hyperedge):
    """Unsorted, repeating a vertex, or leaving [0, n)."""
    h = Hypergraph(n=4, hyperedges=((0, 1, 2), hyperedge), multiplicities=(1, 1), k=3)
    with pytest.raises(ValueError, match="not a sorted tuple of distinct vertices"):
        shadow_graph(h)


# A copy of `shadow_graph` as it was when it built the adjacency itself; the
# builder that it now wraps must give the same lists and the same errors.


def old_shadow_graph(h):
    n = h.n
    near = [[] for _ in range(n)]
    for e in h.hyperedges:
        prev = -1
        for v in e:
            if not prev < v < n:
                raise ValueError(
                    f"hyperedge {e} is not a sorted tuple of distinct vertices"
                    f" in [0, {n})"
                )
            near[v].extend(e)
            prev = v
    adjacency = []
    for v, xs in enumerate(near):
        ys = set(xs)
        ys.discard(v)
        adjacency.append(tuple(sorted(ys)))
    edges = tuple((v, u) for v, a in enumerate(adjacency) for u in a if u > v)
    return SimpleGraph(
        n=n,
        edges=edges,
        adjacency=tuple(adjacency),
        edge_set=frozenset(edges),
    )


def test_shadow_lists_are_the_old_shadow_graph_adjacency():
    """On seeded instances and on hand-built ones (sorted tuples, repeated
    hyperedges not folded, vertices on no hyperedge), the builder's lists
    are the old shadow graph's adjacency, and `shadow_graph` is unchanged.

    Among them: pairs inside two or more hyperedges (all four triples on
    four vertices, the cyclic triples on five), repeats unfolded and folded
    into multiplicities above 1, widths 1, 2 and 4 to 6, n = 0 and n = 1,
    and seeded triple systems up to n = 16001, so that a list is checked
    where its vertices repeat, where it would hold its own vertex, and in
    order."""
    rng = random.Random(29)
    hs = [random_triple_system(n, seed) for n in range(3, 80) for seed in (1, 2)]
    for k in (3, 4, 5):
        hs.extend(make_hypergraph(bg.n_b, bg.adj_a, k=k)
                  for bg in (random_regular_bipartite(n, k, n) for n in range(k, 30)))
    for _ in range(100):
        n = rng.randrange(1, 12)
        k = rng.randrange(1, n + 1)
        edges = [tuple(sorted(rng.sample(range(n), k))) for _ in range(rng.randrange(6))]
        hs.append(Hypergraph(n=n, hyperedges=tuple(edges + edges[:2]),
                             multiplicities=(1,) * (len(edges) + len(edges[:2])), k=k))
    hs.append(make_hypergraph(4, itertools.combinations(range(4), 3), k=3))
    hs.append(make_hypergraph(5, [(i, (i + 1) % 5, (i + 2) % 5) for i in range(5)]))
    unfolded = ((0, 1, 2), (1, 2, 3), (0, 1, 2), (0, 1, 2), (2, 3, 5))
    hs.append(Hypergraph(n=7, hyperedges=unfolded, multiplicities=(1,) * 5, k=3))
    hs.append(make_hypergraph(7, unfolded, multiplicities=(2, 1, 3, 1, 4)))
    for k in (1, 2, 4, 5, 6):
        # the top k vertices lie on no hyperedge
        edges = [tuple(sorted(rng.sample(range(2 * k), k))) for _ in range(2 * k)]
        hs.append(Hypergraph(n=3 * k, hyperedges=tuple(edges + edges[::2]),
                             multiplicities=(1,) * (len(edges) + len(edges[::2])), k=k))
        hs.append(make_hypergraph(3 * k, edges, k=k))
    hs.append(Hypergraph(n=0, hyperedges=(), multiplicities=(), k=3))
    hs.append(Hypergraph(n=1, hyperedges=(), multiplicities=(), k=3))
    hs.append(Hypergraph(n=1, hyperedges=((0,), (0,)), multiplicities=(2, 1), k=1))
    hs.extend(random_triple_system(n, 1, require_connected=True)
              for n in (2000, 2001, 16001))
    for h in hs:
        old = old_shadow_graph(h)
        assert _shadow_lists(h) == (h.n, old.adjacency)
        assert shadow_graph(h) == old


@pytest.mark.parametrize(
    "hyperedge", [(0, 2, 1), (0, 1, 1), (1, 2, 4), (-1, 0, 2), (3, 2), (0, 0)]
)
def test_shadow_lists_refuse_what_the_old_shadow_graph_refused(hyperedge):
    """Unsorted, repeating a vertex, or leaving [0, n): the same ValueError,
    message for message."""
    h = Hypergraph(n=4, hyperedges=((0, 1, 2), hyperedge), multiplicities=(1, 1), k=3)
    with pytest.raises(ValueError) as old:
        old_shadow_graph(h)
    with pytest.raises(ValueError) as new:
        _shadow_lists(h)
    assert str(new.value) == str(old.value)


def four_triples_with(hyperedge):
    """The four triples on 0..3, hand-built with `hyperedge` in place of
    (0, 2, 3)."""
    triples = [(0, 1, 2), (0, 1, 3), hyperedge, (1, 2, 3)]
    return Hypergraph(n=4, hyperedges=tuple(triples), multiplicities=(1,) * 4, k=3)


@pytest.mark.parametrize("solver", [solve_k_uniform, solve_components])
@pytest.mark.parametrize("h, k, bad", [
    (five_quads_with([(1, 2, 3, 5)]), 4, 5),
    (five_quads_with([(-1, 2, 3, 4)]), 4, -1),
    (four_triples_with((0, 2, 4)), 3, 4),
    (four_triples_with((-1, 0, 2)), 3, -1),
])
def test_out_of_range_vertices_are_refused_by_validate(solver, h, k, bad):
    """A hand-built hypergraph with a vertex outside [0, n) is refused with
    a ValueError naming it, before any degree is counted: not an
    IndexError, and a negative vertex is not counted from the end."""
    message = rf"^vertex {bad} out of range \[0, {h.n}\)$"
    with pytest.raises(ValueError, match=message):
        validate(h, k)
    with pytest.raises(ValueError, match=message):
        solver(h, k)


def test_validate_names_the_first_out_of_range_vertex_in_hyperedge_order():
    h = Hypergraph(n=4, hyperedges=((0, 1, 2), (1, 9, -3), (-1, 2, 3)),
                   multiplicities=(1, 1, 1), k=3)
    with pytest.raises(ValueError, match=r"^vertex 9 out of range"):
        validate(h, 3)
    h = Hypergraph(n=4, hyperedges=((0, 1, 2), (-2, 1, 3), (1, 2, 7)),
                   multiplicities=(1, 1, 1), k=3)
    with pytest.raises(ValueError, match=r"^vertex -2 out of range"):
        validate(h, 3)


@st.composite
def hypergraphs(draw):
    n = draw(st.integers(min_value=3, max_value=9))
    m = draw(st.integers(min_value=0, max_value=8))
    edges = [
        tuple(
            draw(
                st.lists(
                    st.integers(min_value=0, max_value=n - 1),
                    min_size=3,
                    max_size=3,
                    unique=True,
                )
            )
        )
        for _ in range(m)
    ]
    return make_hypergraph(n, edges, k=3)


@settings(max_examples=100, deadline=None)
@given(hypergraphs())
def test_shadow_edges_come_from_hyperedges(h):
    g = shadow_graph(h)
    for u, v in g.edges:
        assert any(u in e and v in e for e in h.hyperedges)
    for e in h.hyperedges:
        for u, v in itertools.combinations(e, 2):
            assert g.has_edge(u, v)
    # adjacency lists are strictly increasing and read off the edge list
    from_edges = [[] for _ in range(h.n)]
    for u, v in g.edges:
        from_edges[u].append(v)
        from_edges[v].append(u)
    for v in range(h.n):
        assert list(g.adjacency[v]) == sorted(set(from_edges[v]))


@settings(max_examples=100, deadline=None)
@given(hypergraphs())
def test_components_never_split_hyperedges(h):
    block_of = {}
    for i, block in enumerate(components(shadow_graph(h)).blocks):
        for v in block:
            block_of[v] = i
    for e in h.hyperedges:
        assert len({block_of[v] for v in e}) == 1


@settings(max_examples=100, deadline=None)
@given(hypergraphs())
def test_degree_sum_identity(h):
    total = sum(degree(h, v) for v in range(h.n))
    assert total == 3 * h.total_multiplicity


@settings(max_examples=100, deadline=None)
@given(hypergraphs())
def test_validate_consistent_with_degree(h):
    rep = validate(h, 3)
    assert rep.regular == all(degree(h, v) == 3 for v in range(h.n))


# A copy of `validate` as it was before it tested uniformity in bulk: one
# length test per hyperedge.


def loop_validate(h, k) -> ValidationReport:
    flat = list(itertools.chain.from_iterable(h.hyperedges))
    if flat and (min(flat) < 0 or max(flat) >= h.n):
        v = next(v for v in flat if not 0 <= v < h.n)
        raise ValueError(f"vertex {v} out of range [0, {h.n})")
    bad_edge = None
    for i, e in enumerate(h.hyperedges):
        if len(e) != k:
            bad_edge = i
            break
    # more vertices than incidences, which no k-regular input with k >= 1
    # has: a Counter keeps a huge declared n from allocating per vertex
    deg = [0] * h.n if h.n <= len(flat) else Counter()
    for e, m in zip(h.hyperedges, h.multiplicities):
        for v in e:
            deg[v] += m
    # a Counter's scan stops at the first vertex on no hyperedge (degree 0),
    # unless k is 0: then only the vertices that occur can be irregular; a
    # list is tested in bulk, and scanned only to name a bad vertex
    scan = sorted(deg) if k == 0 and isinstance(deg, Counter) else range(h.n)
    if isinstance(deg, list) and deg.count(k) == h.n:
        scan = ()
    bad_vertex = next((v for v in scan if deg[v] != k), None)
    return ValidationReport(
        k=k,
        uniform=bad_edge is None,
        regular=bad_vertex is None,
        first_nonuniform_hyperedge=bad_edge,
        first_irregular_vertex=bad_vertex,
    )


def outcome(call, *args):
    """What a call returns, or the class and message of its ValueError."""
    try:
        return call(*args)
    except ValueError as exc:
        return type(exc), str(exc)


@settings(max_examples=300, deadline=None)
@given(
    st.integers(0, 7),
    st.lists(st.lists(st.integers(0, 6), min_size=0, max_size=4), max_size=8),
    st.lists(st.integers(-1, 3), max_size=8),
    st.integers(-1, 4),
)
def test_validate_agrees_with_the_loop_form(n, edges, mults, k):
    """Hyperedges of mixed sizes and multiplicities, some repeating a vertex
    or outside [0, n), built without `make_hypergraph`'s checks: the same
    report, or the same ValueError."""
    mults = (mults + [1] * len(edges))[: len(edges)]
    h = Hypergraph(n=n, hyperedges=tuple(map(tuple, edges)),
                   multiplicities=tuple(mults), k=k)
    assert outcome(validate, h, k) == outcome(loop_validate, h, k)

