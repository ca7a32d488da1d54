"""Matching engine against brute force, plus the bipartite toolbox."""

import functools
import hashlib
import itertools
import random
from collections import deque

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from trimatch import (
    all_perfect_matchings,
    bipartite_perfect_matching,
    component_bound_check,
    extract_disjoint_perfect_matchings,
    factor_critical_by_enumeration,
    is_factor_critical,
    make_bipartite,
    make_graph,
    maximum_matching,
    perfect_matching,
    perfect_matching_avoiding,
    shadow_graph,
)
from trimatch.errors import (
    InternalError,
    NotRegular,
    ParallelEdges,
    PreconditionViolated,
)
import trimatch.matching as matching_module
from trimatch.matching import (
    AlternatingTree,
    _augment,
    _hopcroft_karp,
    _max_matching_arrays,
    _pairs_of,
    _peel,
    _search,
    bipartite_degrees,
    near_perfect_matching,
    require_regular_bipartite,
)

from conftest import (
    complete_graph,
    cycle_graph,
    old_extract_disjoint_perfect_matchings,
    random_regular_bipartite,
    random_triple_system,
    time_limit,
)


def brute_max_size(g):
    best = 0

    def rec(i, used, size):
        nonlocal best
        best = max(best, size)
        for j in range(i, len(g.edges)):
            u, v = g.edges[j]
            if u not in used and v not in used:
                rec(j + 1, used | {u, v}, size + 1)

    rec(0, frozenset(), 0)
    return best


def assert_valid_matching(g, m):
    covered = [v for p in m.pairs for v in p]
    assert len(set(covered)) == len(covered)
    for u, v in m.pairs:
        assert g.has_edge(u, v)


def test_maximum_matching_examples():
    assert len(maximum_matching(cycle_graph(5))) == 2
    assert len(maximum_matching(complete_graph(4))) == 2
    star = make_graph(4, [(0, 1), (0, 2), (0, 3)])
    assert len(maximum_matching(star)) == 1


def test_perfect_matching_examples():
    assert perfect_matching(complete_graph(4)).pairs == ((0, 1), (2, 3))
    assert perfect_matching(cycle_graph(5)) is None
    c6 = perfect_matching(cycle_graph(6))
    assert c6.pairs == ((0, 1), (2, 3), (4, 5))


def test_perfect_matching_avoiding_examples():
    assert perfect_matching_avoiding(cycle_graph(5), 0).pairs == ((1, 2), (3, 4))
    assert perfect_matching_avoiding(complete_graph(4), 0) is None
    assert perfect_matching_avoiding(complete_graph(3), 2).pairs == ((0, 1),)
    with pytest.raises(ValueError):
        perfect_matching_avoiding(cycle_graph(5), 7)


@pytest.mark.parametrize("root", [-1, 3])
def test_near_perfect_matching_rejects_out_of_range_root(root):
    with pytest.raises(ValueError, match="out of range"):
        near_perfect_matching(complete_graph(3), root)


@pytest.mark.parametrize("root", [-1, 3])
def test_alternating_tree_rejects_out_of_range_root(root):
    g = complete_graph(3)
    with pytest.raises(ValueError, match="out of range"):
        AlternatingTree(g, [1, 0, -1], root)


def test_is_factor_critical_examples():
    assert is_factor_critical(complete_graph(3))
    assert is_factor_critical(cycle_graph(5))
    assert not is_factor_critical(complete_graph(4))
    assert is_factor_critical(make_graph(1, []))


def test_factor_critical_implies_odd_and_connected():
    for n in (3, 5, 7):
        g = random_shadow(n, seed=n)
        if is_factor_critical(g):
            assert g.n % 2 == 1


def random_shadow(n, seed):
    return shadow_graph(random_triple_system(n, seed, require_connected=True))


def test_exhaustive_small_graphs_match_brute_force():
    for n in range(2, 6):
        pairs = list(itertools.combinations(range(n), 2))
        for mask in range(1 << len(pairs)):
            g = make_graph(n, [pairs[i] for i in range(len(pairs)) if mask >> i & 1])
            m = maximum_matching(g)
            assert_valid_matching(g, m)
            assert len(m) == brute_max_size(g)
            assert is_factor_critical(g) == factor_critical_by_enumeration(g)


@st.composite
def graphs(draw):
    n = draw(st.integers(min_value=2, max_value=10))
    pairs = list(itertools.combinations(range(n), 2))
    chosen = draw(st.lists(st.sampled_from(pairs), max_size=len(pairs)))
    return make_graph(n, chosen)


@settings(max_examples=150, deadline=None)
@given(graphs())
def test_maximum_matching_matches_brute_force(g):
    m = maximum_matching(g)
    assert_valid_matching(g, m)
    assert len(m) == brute_max_size(g)


@settings(max_examples=60, deadline=None)
@given(graphs())
def test_factor_critical_matches_oracle(g):
    assert is_factor_critical(g) == factor_critical_by_enumeration(g)


@settings(max_examples=60, deadline=None)
@given(graphs())
def test_avoiding_matches_oracle(g):
    for v in range(g.n):
        engine = perfect_matching_avoiding(g, v)
        reference = all_perfect_matchings(g, avoid=v)
        assert (engine is not None) == bool(reference)
        if engine is not None:
            assert engine.pairs in reference


def test_even_path_tracer_on_factor_critical_graphs():
    for n, seed in [(5, 1), (7, 2), (9, 3), (11, 4), (13, 5)]:
        g = random_shadow(n, seed)
        match = near_perfect_matching(g, 0)
        assert match is not None
        tree = AlternatingTree(g, match, 0)
        for v in range(n):
            assert tree.is_outer(v)
            path = tree.even_path_to(v)
            assert path[0] == 0 and path[-1] == v
            assert len(set(path)) == len(path) and len(path) % 2 == 1
            # out of the root on a non-matching edge, then alternating, so the
            # last edge is the matching edge into v
            for i, (a, b) in enumerate(zip(path, path[1:])):
                assert g.has_edge(a, b)
                assert (match[a] == b) == (i % 2 == 1)
            assert v == 0 or match[v] == path[-2]


def _reference_root_path(tree, v):
    """The root .. v path read off the search pointers: v, its partner, that
    partner's parent, and so on up to the root."""
    rev = [v]
    while rev[-1] != tree.root:
        m = tree.match[rev[-1]]
        rev += [m, tree._p[m]]
    return rev[::-1]


def test_trace_from_placed_is_the_root_path_cut_at_its_last_placed_vertex():
    """The early-stop trace returns the part of the root path after its last
    placed vertex, and raises InternalError when no vertex of the path is
    placed."""
    rng = random.Random(13)
    traced = cut = 0
    for n in range(5, 200, 2):
        for seed in (1, 2, 3):
            g = shadow_graph(random_triple_system(n, seed, require_connected=True))
            tree = AlternatingTree(g, near_perfect_matching(g, 0), 0)
            for density in (0.05, 0.3, 0.8):
                placed = [rng.random() < density for _ in range(n)]
                placed[0] = True
                for v in rng.sample(range(n), min(n, 20)):
                    path = _reference_root_path(tree, v)
                    assert tree.even_path_to(v) == path
                    j = max(i for i, x in enumerate(path) if placed[x])
                    assert tree.path_from_placed(v, placed) == path[j:]
                    traced += 1
                    cut += j > 0
            nowhere = [False] * n
            for v in rng.sample(range(n), 3):
                with pytest.raises(InternalError):
                    tree.path_from_placed(v, nowhere)
    assert traced > 15000 and cut > traced // 2


# The engine before stamped marks, member lists by base and inactive
# sentinels: per-contraction sets and a dict of member lists made per search,
# and an `active` mask tested on every scanned edge.  Kept as the reference
# that `_max_matching_arrays` must equal, array for array.


def _lca(match, p, base, a, b):
    mark = set()
    v = a
    while True:
        v = base[v]
        mark.add(v)
        if match[v] == -1:
            break
        v = p[match[v]]
    v = b
    while True:
        v = base[v]
        if v in mark:
            return v
        v = p[match[v]]


def _mark_blossom(match, p, base, flagged, v, b, child):
    while base[v] != b:
        flagged.add(base[v])
        flagged.add(base[match[v]])
        p[v] = child
        child = match[v]
        v = p[match[v]]


def _old_search(adj, match, root, active, p, base, outer, touched):
    outer[root] = True
    touched.append(root)
    members = {}
    queue = deque([root])
    pop, push = queue.popleft, queue.append
    while queue:
        v = pop()
        mate = match[v]
        for to in adj[v]:
            if to == mate or not active[to] or base[v] == base[to]:
                continue
            if outer[to]:
                cur = _lca(match, p, base, v, to)
                flagged = set()
                _mark_blossom(match, p, base, flagged, v, cur, to)
                _mark_blossom(match, p, base, flagged, to, cur, v)
                blossom = members.setdefault(cur, [cur])
                fresh = []
                for b in flagged:
                    group = members.pop(b, [b])
                    for i in group:
                        base[i] = cur
                        if not outer[i]:
                            fresh.append(i)
                    blossom.extend(group)
                fresh.sort()
                for i in fresh:
                    outer[i] = True
                    push(i)
            elif p[to] == -1:
                p[to] = v
                touched.append(to)
                if match[to] == -1:
                    return to
                w = match[to]
                if not outer[w]:
                    outer[w] = True
                    touched.append(w)
                    push(w)
    return -1


def _old_greedy_init(adj, active, match):
    for v in range(len(adj)):
        if active[v] and match[v] == -1:
            for u in adj[v]:
                if active[u] and match[u] == -1:
                    match[v] = u
                    match[u] = v
                    break


def _old_max_matching_arrays(adj, active):
    n = len(adj)
    match = [-1] * n
    _old_greedy_init(adj, active, match)
    p = [-1] * n
    base = list(range(n))
    outer = [False] * n
    touched = []
    for root in range(n):
        if active[root] and match[root] == -1:
            end = _old_search(adj, match, root, active, p, base, outer, touched)
            if end != -1:
                _augment(match, p, end)
            for v in touched:
                p[v] = -1
                base[v] = v
                outer[v] = False
            touched.clear()
    return match


def _reference_mark_blossom(match, p, base, flag, v, b, child):
    while base[v] != b:
        flag[base[v]] = True
        flag[base[match[v]]] = True
        p[v] = child
        child = match[v]
        v = p[match[v]]


def _reference_search(adj, match, root, active):
    """Reference blossom search: each contraction flags bases in an n-long
    array and scans all n vertices to relabel them.  `_search` must return
    the same arrays."""
    n = len(adj)
    p = [-1] * n
    base = list(range(n))
    outer = [False] * n
    outer[root] = True
    queue = deque([root])
    while queue:
        v = queue.popleft()
        for to in adj[v]:
            if not active[to]:
                continue
            if base[v] == base[to] or match[v] == to:
                continue
            if outer[to]:
                cur = _lca(match, p, base, v, to)
                flag = [False] * n
                _reference_mark_blossom(match, p, base, flag, v, cur, to)
                _reference_mark_blossom(match, p, base, flag, to, cur, v)
                for i in range(n):
                    if flag[base[i]]:
                        base[i] = cur
                        if not outer[i]:
                            outer[i] = True
                            queue.append(i)
            elif p[to] == -1:
                p[to] = v
                if match[to] == -1:
                    return to, p, base, outer
                w = match[to]
                if not outer[w]:
                    outer[w] = True
                    queue.append(w)
    return -1, p, base, outer


def fresh_search(adj, match, root, active):
    """`_search` on clean arrays of its own, returned as the reference does.

    Inactive vertices go in as `_max_matching_arrays` hands them over, as
    their own mate and p; the search must leave both as they were."""
    n = len(adj)
    inactive = [v for v in range(n) if not active[v]]
    match, p = list(match), [-1] * n
    for v in inactive:
        match[v] = p[v] = v
    base, outer = list(range(n)), [False] * n
    end = _search(adj, match, root, p, base, outer, [], [0] * n, [None] * n)
    for v in inactive:
        assert match[v] == p[v] == v
        p[v] = -1
    return end, p, base, outer


def assert_search_matches_reference(adj, active):
    """Run the maximum-matching loop; before each augmentation, search from
    every exposed root with both contractions and require equal results."""
    n = len(adj)
    match = [-1] * n
    _old_greedy_init(adj, active, match)
    searches = 0
    for root in range(n):
        if not active[root] or match[root] != -1:
            continue
        for r in range(n):
            if active[r] and match[r] == -1:
                assert fresh_search(adj, match, r, active) == _reference_search(
                    adj, match, r, active
                ), (root, r)
                searches += 1
        end, p, _base, _outer = fresh_search(adj, match, root, active)
        if end != -1:
            _augment(match, p, end)
    return searches


@time_limit(60)
def test_search_matches_full_scan_reference_on_triple_systems():
    searches = 0
    for n in range(4, 301, 3):
        g = random_shadow(n, 1)
        active = [True] * n
        searches += assert_search_matches_reference(g.adjacency, active)
        if n % 2:
            # the near-perfect matching's search: one vertex left out
            active[1] = False
            searches += assert_search_matches_reference(g.adjacency, active)
    assert searches > 1000


@time_limit(60)
def test_search_matches_full_scan_reference_on_dense_graphs():
    rng = random.Random(7)
    for _ in range(600):
        n = rng.randint(5, 40)
        density = rng.uniform(0.08, 0.6)
        edges = [
            e for e in itertools.combinations(range(n), 2) if rng.random() < density
        ]
        g = make_graph(n, edges)
        active = [rng.random() < 0.9 for _ in range(n)]
        assert_search_matches_reference(g.adjacency, active)


@time_limit(60)
def test_alternating_tree_search_matches_full_scan_reference():
    for n in range(5, 302, 2):
        g = random_shadow(n, n)
        match = near_perfect_matching(g, 0)
        reference = _reference_search(g.adjacency, match, 0, [True] * n)
        assert reference[0] == -1 and all(reference[3])  # factor-critical
        tree = AlternatingTree(g, match, 0)
        assert (tree._p, tree._outer) == (reference[1], reference[3])
        assert fresh_search(g.adjacency, match, 0, [True] * n) == reference


def fresh_array_matching(adj, active):
    """The maximum-matching loop with new search arrays for every root, as
    it ran before the arrays were shared; returns each search's end and the
    final match."""
    n = len(adj)
    match = [-1] * n
    _old_greedy_init(adj, active, match)
    ends = []
    for root in range(n):
        if active[root] and match[root] == -1:
            end, p, _base, _outer = _reference_search(adj, match, root, active)
            ends.append(end)
            if end != -1:
                _augment(match, p, end)
    return ends, match


def assert_clean(p, base, outer, mark, blossoms, inactive=()):
    """The search arrays as a search must find them: each inactive vertex
    its own p, everything else reset."""
    n = len(p)
    clean_p = [-1] * n
    for v in inactive:
        clean_p[v] = v
    assert p == clean_p
    assert base == list(range(n))
    assert outer == [False] * n
    assert mark == [0] * n
    assert blossoms == [None] * n


def shared_array_matching(monkeypatch, adj, active):
    """`_max_matching_arrays` with each search's end recorded, asserting that
    every search gets the same arrays and finds them reset, with every
    inactive vertex its own mate and p, and that the last reset leaves them
    clean and every inactive vertex unmatched."""
    ends = []
    seen = []
    search = matching_module._search
    inactive = [v for v in range(len(adj)) if not active[v]]

    def recording(adj, match, root, p, base, outer, touched, mark, blossoms):
        assert_clean(p, base, outer, mark, blossoms, inactive)
        assert all(match[v] == v for v in inactive)
        assert not touched
        seen.append((p, base, outer, mark, blossoms))
        assert all(a is b for a, b in zip(seen[0], seen[-1]))
        end = search(adj, match, root, p, base, outer, touched, mark, blossoms)
        ends.append(end)
        return end

    monkeypatch.setattr(matching_module, "_search", recording)
    try:
        match = _max_matching_arrays(adj, active)
    finally:
        monkeypatch.undo()
    if seen:
        assert_clean(*seen[-1])  # the reset after the last root
    assert all(match[v] == -1 for v in inactive)
    return ends, match


def inactive_vertex_cases():
    """(adjacency, active): an inactive vertex that is isolated or adjacent
    to every other vertex, and every graph and mask on one and three
    vertices."""
    rng = random.Random(23)
    cases = [(((),), [False]), (((),), [True])]
    pairs = list(itertools.combinations(range(3), 2))
    for chosen in itertools.product((False, True), repeat=3):
        adj = make_graph(3, list(itertools.compress(pairs, chosen))).adjacency
        for active in itertools.product((False, True), repeat=3):
            cases.append((adj, list(active)))
    for _ in range(100):
        n = rng.randint(2, 30)
        density = rng.uniform(0.1, 0.6)
        edges = [
            e for e in itertools.combinations(range(n), 2) if rng.random() < density
        ]
        extra = rng.randrange(n + 1)
        # the new vertex `extra` goes in isolated, then adjacent to all
        shift = [v + (v >= extra) for v in range(n)]
        moved = [(shift[a], shift[b]) for a, b in edges]
        hub = moved + [(min(v, extra), max(v, extra)) for v in shift]
        for graph_edges in (moved, hub):
            adj = make_graph(n + 1, graph_edges).adjacency
            active = [v != extra and rng.random() < 0.9 for v in range(n + 1)]
            cases.append((adj, active))
    return cases


@time_limit(60)
def test_shared_array_search_matches_fresh_arrays(monkeypatch):
    cases = []
    for n in range(4, 302, 3):
        g = random_shadow(n, n + 1)
        cases.append((g.adjacency, [True] * n))
        if n % 2:
            cases.append((g.adjacency, [v != 1 for v in range(n)]))
    rng = random.Random(11)
    for _ in range(400):
        n = rng.randint(5, 40)
        density = rng.uniform(0.08, 0.6)
        edges = [
            e for e in itertools.combinations(range(n), 2) if rng.random() < density
        ]
        active = [rng.random() < 0.9 for _ in range(n)]
        cases.append((make_graph(n, edges).adjacency, active))
    cases += inactive_vertex_cases()
    searches = augmentations = 0
    for adj, active in cases:
        ends, match = shared_array_matching(monkeypatch, adj, active)
        assert (ends, match) == fresh_array_matching(adj, active)
        searches += len(ends)
        augmentations += sum(1 for end in ends if end != -1)
    # both outcomes occur often: augmenting paths and exhausted searches
    assert augmentations > 500 and searches - augmentations > 500


def test_max_matching_arrays_matches_the_old_masked_engine():
    """The random masks of the search tests and sparser ones, and one vertex
    left out of triple-system shadows, as `near_perfect_matching` does."""
    rng = random.Random(17)
    cases = []
    for _ in range(500):
        n = rng.randint(5, 40)
        density = rng.uniform(0.08, 0.6)
        edges = [
            e for e in itertools.combinations(range(n), 2) if rng.random() < density
        ]
        keep = rng.choice((0.5, 0.9))
        active = [rng.random() < keep for _ in range(n)]
        cases.append((make_graph(n, edges).adjacency, active))
    for n in range(5, 402, 4):
        adj = random_shadow(n, 2).adjacency
        for left_out in (0, n // 2, n - 1):
            cases.append((adj, [v != left_out for v in range(n)]))
    cases += inactive_vertex_cases()
    assert sum(active.count(False) for _, active in cases) > 2500
    with time_limit(60):
        for adj, active in cases:
            match = _max_matching_arrays(adj, active)
            assert match == _old_max_matching_arrays(adj, active)
            # the pairs as they were read off before, with a sort
            assert _pairs_of(match) == tuple(
                sorted((v, match[v]) for v in range(len(match)) if match[v] > v)
            )


# SHA-256 over the blossom engine's own output, one comma-separated line per
# array: for odd n in (501, 1001, 2001), then seed 1 to 4, the match array
# of `near_perfect_matching(g, 0)` and `AlternatingTree(g, match, 0)`'s p and
# outer arrays; then for even n in (500, 1000, 2000), seed 1 to 4, the
# flattened `maximum_matching(g).pairs`; g is the shadow graph of
# `random_triple_system(n, seed, require_connected=True)`.  Certificates see
# p only through the paths they trace, so this pins every entry.
ENGINE_SHA256 = "6fff5bedf8d8fe35099f0e1cc43e876323e76c5dd0e5943ccd7f97a4eaa46f79"


@time_limit(60)
def test_engine_arrays_are_pinned_at_the_ladder_sizes():
    def line(seq):
        return (",".join(map(str, map(int, seq))) + "\n").encode("ascii")

    digest = hashlib.sha256()
    for n in (501, 1001, 2001):
        for seed in range(1, 5):
            g = random_shadow(n, seed)
            match = near_perfect_matching(g, 0)
            tree = AlternatingTree(g, match, 0)
            for seq in (match, tree._p, tree._outer):
                digest.update(line(seq))
    for n in (500, 1000, 2000):
        for seed in range(1, 5):
            pairs = maximum_matching(random_shadow(n, seed)).pairs
            digest.update(line(itertools.chain.from_iterable(pairs)))
    assert digest.hexdigest() == ENGINE_SHA256


def test_bipartite_perfect_matching_examples():
    k33 = make_bipartite(3, 3, [(a, b) for a in range(3) for b in range(3)])
    m = bipartite_perfect_matching(k33)
    assert len(m) == 3
    assert len({a for a, _ in m.pairs}) == 3 and len({b for _, b in m.pairs}) == 3
    single = make_bipartite(1, 1, [(0, 0)])
    assert bipartite_perfect_matching(single).pairs == ((0, 0),)
    lonely = make_bipartite(1, 1, [])
    assert bipartite_perfect_matching(lonely) is None


def test_bipartite_matching_follows_an_augmenting_path_through_every_vertex():
    """a_i ~ b_i, b_{i+1} and a_{n-1} ~ b_0: the last A-vertex can only be
    matched along an augmenting path through all n A-vertices, deeper than
    the interpreter's default recursion limit."""
    n = 5000
    edges = [(i, i) for i in range(n - 1)] + [(i, i + 1) for i in range(n - 1)]
    bg = make_bipartite(n, n, edges + [(n - 1, 0)])
    m = bipartite_perfect_matching(bg)
    assert m.pairs == tuple((i, i + 1) for i in range(n - 1)) + ((n - 1, 0),)


def brute_bipartite_max(bg):
    @functools.lru_cache(maxsize=None)
    def best(a, used):
        if a == bg.n_a:
            return 0
        options = [best(a + 1, used)]
        for b in bg.adj_a[a]:
            if not used >> b & 1:
                options.append(1 + best(a + 1, used | 1 << b))
        return max(options)

    return best(0, 0)


@st.composite
def bipartite_graphs_and_orders(draw):
    """Small bipartite graphs of any shape, with an A-side scan order."""
    n_a = draw(st.integers(min_value=0, max_value=6))
    n_b = draw(st.integers(min_value=0, max_value=6))
    pairs = list(itertools.product(range(n_a), range(n_b)))
    edges = draw(st.sets(st.sampled_from(pairs))) if pairs else set()
    order = draw(st.permutations(range(n_a)))
    return make_bipartite(n_a, n_b, edges), order


# unequal sides; equal sides without a perfect matching; non-regular with one
@example((make_bipartite(3, 2, [(0, 0), (1, 0), (1, 1), (2, 1)]), [2, 0, 1]))
@example((make_bipartite(3, 3, [(0, 0), (1, 0), (2, 1), (2, 2)]), [0, 1, 2]))
@example((make_bipartite(3, 3, [(0, 0), (0, 1), (1, 1), (2, 2), (1, 2)]), [1, 2, 0]))
@settings(max_examples=200, deadline=None)
@given(bipartite_graphs_and_orders())
def test_hopcroft_karp_finds_a_maximum_matching(case):
    bg, order = case
    match_a = _hopcroft_karp(bg.adj_a, bg.n_b, order)
    taken = [b for b in match_a if b != -1]
    assert len(match_a) == bg.n_a and len(set(taken)) == len(taken)
    assert all(b == -1 or b in bg.adj_a[a] for a, b in enumerate(match_a))
    size = brute_bipartite_max(bg)
    assert len(taken) == size
    m = bipartite_perfect_matching(bg)
    assert (m is None) == (bg.n_a != bg.n_b or size < bg.n_a)
    if m is not None:
        assert set(m.pairs) <= set(bg.edges)
        assert sorted(b for _, b in m.pairs) == list(range(bg.n_b))


@st.composite
def regular_bipartite_graphs(draw):
    n = draw(st.integers(min_value=1, max_value=7))
    k = draw(st.integers(min_value=1, max_value=min(n, 4)))
    return random_regular_bipartite(n, k, draw(st.integers(0, 2**32)))


@settings(max_examples=100, deadline=None)
@given(regular_bipartite_graphs(), st.data())
def test_every_rotation_extracts_disjoint_perfect_matchings(bg, data):
    """`_peel` at every rotation of the A-order gives t disjoint perfect
    matchings, those of the old extractor at that rotation."""
    t = data.draw(st.integers(min_value=0, max_value=len(bg.adj_a[0])))
    for rotation in range(bg.n_a):
        order = [(i + rotation) % bg.n_a for i in range(bg.n_a)]
        matches, _ = _peel(bg.adj_a, bg.n_b, t, order)
        ms = [tuple(enumerate(m)) for m in matches]
        old = old_extract_disjoint_perfect_matchings(bg, t, _rotation=rotation)
        assert ms == [m.pairs for m in old]
        assert len(ms) == t
        union = [p for pairs in ms for p in pairs]
        assert len(set(union)) == len(union) and set(union) <= set(bg.edges)
        for pairs in ms:
            assert [a for a, _ in pairs] == list(range(bg.n_a))
            assert sorted(b for _, b in pairs) == list(range(bg.n_b))


def test_peel_refuses_a_pass_that_is_not_perfect(monkeypatch):
    """The residual is regular only because every pass is perfect: a pass
    that leaves an A-vertex unmatched is an internal error, in `_peel` and
    so in `lu`, not a residual with one list too long."""
    from trimatch.partition import lu_subgraph

    real = matching_module._hopcroft_karp

    def short(adj, n_b, order):
        match_a = real(adj, n_b, order)
        match_a[0] = -1
        return match_a

    monkeypatch.setattr(matching_module, "_hopcroft_karp", short)
    bg = random_regular_bipartite(7, 5, 1)
    for run in (lambda: _peel(bg.adj_a, bg.n_b, 1, range(7)), lambda: lu_subgraph(bg, 5)):
        with pytest.raises(InternalError, match="lost its perfect matching"):
            run()


def test_extraction_builds_no_intermediate_graph(monkeypatch):
    """Extraction removes matched edges from adjacency lists in place and
    builds no intermediate graph."""
    edges = [(i, (i + s) % 7) for s in range(5) for i in range(7)]
    bg = make_bipartite(7, 7, edges)

    def no_build(*args):
        raise AssertionError("make_bipartite called during extraction")

    monkeypatch.setattr(matching_module, "make_bipartite", no_build)
    ms = extract_disjoint_perfect_matchings(bg, 4)
    union = [p for m in ms for p in m.pairs]
    assert len(set(union)) == 28 and set(union) <= set(bg.edges)
    assert all(sorted(b for _, b in m.pairs) == list(range(7)) for m in ms)


def test_bipartite_rejects_parallel_edges():
    with pytest.raises(ParallelEdges):
        make_bipartite(2, 2, [(0, 0), (0, 0)])


def test_extract_zero_matchings():
    k33 = make_bipartite(3, 3, [(a, b) for a in range(3) for b in range(3)])
    assert extract_disjoint_perfect_matchings(k33, 0) == []


def test_extract_all_three_from_k33():
    k33 = make_bipartite(3, 3, [(a, b) for a in range(3) for b in range(3)])
    ms = extract_disjoint_perfect_matchings(k33, 3)
    assert len(ms) == 3
    union = sorted(p for m in ms for p in m.pairs)
    assert union == sorted(k33.edges)


def test_extract_from_overlaid_cycles():
    # two edge-disjoint 8-cycles on 4+4 vertices overlay to K4,4
    edges = [(i, (i + s) % 4) for s in range(4) for i in range(4)]
    bg = make_bipartite(4, 4, edges)
    (m,) = extract_disjoint_perfect_matchings(bg, 1)
    removed = set(m.pairs)
    deg_a = [0] * 4
    deg_b = [0] * 4
    for a, b in bg.edges:
        if (a, b) not in removed:
            deg_a[a] += 1
            deg_b[b] += 1
    assert deg_a == [3] * 4 and deg_b == [3] * 4


def test_extract_requires_regularity():
    bad = make_bipartite(2, 2, [(0, 0), (0, 1), (1, 0)])
    with pytest.raises(Exception):
        extract_disjoint_perfect_matchings(bad, 1)


def old_require_regular_bipartite(bg):
    """`require_regular_bipartite` as it was, a loop over every degree."""
    deg_a, deg_b = bipartite_degrees(bg)
    if not deg_a or not deg_b:
        raise NotRegular("empty side")
    k = deg_a[0]
    for a, d in enumerate(deg_a):
        if d != k:
            raise NotRegular(f"A-vertex {a} has degree {d}, expected {k}")
    for b, d in enumerate(deg_b):
        if d != k:
            raise NotRegular(f"B-vertex {b} has degree {d}, expected {k}")
    return k


def test_regularity_check_agrees_with_the_old_loop():
    """The bulk degree test returns the old degree on regular graphs and,
    on irregular ones, raises the old message: the first irregular A-vertex,
    else the first irregular B-vertex, else an empty side."""
    rng = random.Random(41)
    graphs = [make_bipartite(0, 0, []), make_bipartite(2, 0, []),
              make_bipartite(0, 3, []), make_bipartite(2, 2, [])]
    for _ in range(300):
        n_a, n_b = rng.randrange(1, 8), rng.randrange(1, 8)
        pairs = [(a, b) for a in range(n_a) for b in range(n_b)]
        graphs.append(make_bipartite(n_a, n_b, rng.sample(pairs, rng.randrange(len(pairs) + 1))))
    for k in (1, 3, 4):
        for n in range(max(k, 2), 12):
            bg = random_regular_bipartite(n, k, n)
            graphs.append(bg)
            # one edge moved to another B-vertex: irregular on B only
            a, b = bg.edges[rng.randrange(bg.m)]
            free = [c for c in range(n) if c not in bg.adj_a[a]]
            if free:
                edges = [e for e in bg.edges if e != (a, b)] + [(a, free[0])]
                graphs.append(make_bipartite(n, n, edges))
    seen = set()
    for bg in graphs:
        outcomes = []
        for check in (old_require_regular_bipartite, require_regular_bipartite):
            try:
                outcomes.append(check(bg))
            except NotRegular as exc:
                outcomes.append(str(exc))
        assert outcomes[0] == outcomes[1], bg
        seen.add(str(outcomes[0]).split(" ")[0])
    assert seen >= {"1", "3", "4", "A-vertex", "B-vertex", "empty"}


def test_extract_disjointness_across_matchings():
    edges = [(i, (i + s) % 5 ) for s in range(4) for i in range(5)]
    bg = make_bipartite(5, 5, edges)
    ms = extract_disjoint_perfect_matchings(bg, 2)
    seen = set()
    for m in ms:
        assert len(m) == 5
        assert not seen & set(m.pairs)
        seen.update(m.pairs)


def test_component_bound_examples(triple, fano, four_triples):
    assert component_bound_check(triple, [0]) == (1, 1)
    count, card = component_bound_check(fano, [0, 1, 2])
    assert card == 3 and count <= 3
    assert component_bound_check(four_triples, [0, 1]) == (1, 2)


def test_component_bound_rejects_empty(triple):
    with pytest.raises(PreconditionViolated):
        component_bound_check(triple, [])


def test_component_bound_exhaustive_small():
    for n, seed in [(7, 1), (8, 2), (9, 3)]:
        h = random_triple_system(n, seed, require_connected=True)
        for size in range(1, 5):
            for xs in itertools.combinations(range(n), size):
                count, card = component_bound_check(h, xs)
                assert count <= card
