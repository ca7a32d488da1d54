"""Matching engine.

Maximum matching in general graphs by alternating BFS with blossom
contraction, perfect-matching queries, factor-criticality, bipartite matching
by Hopcroft-Karp, and extraction of pairwise disjoint perfect matchings from
regular bipartite graphs.

The general-graph functions read only a graph's `n` and `adjacency`, so the
solver hands them its shadow graph as the sorted neighbour tuples alone
(`core._ListGraph`), with no edge tuples.

Everything is deterministic for a fixed input ordering: vertices are scanned
in increasing index, adjacency lists are sorted, the BFS queue is FIFO, and
ties break toward the lowest index.  That determinism is what makes emitted
certificates byte-reproducible.
"""

from __future__ import annotations

import operator
from collections import deque
from dataclasses import dataclass, field
from itertools import islice

from .core import (
    BipartiteGraph,
    Hypergraph,
    SimpleGraph,
    VertexId,
    _component_blocks,
    _shadow_lists,
    validate,
)
from .errors import (
    InternalError,
    NotRegular,
    ParallelEdges,
    PreconditionViolated,
)


@dataclass(frozen=True)
class Matching:
    """Pairwise vertex-disjoint edges of a host graph.

    For bipartite hosts the pairs are (a, b) with a on the A side and b on
    the B side; otherwise each pair is sorted and the list is sorted.
    """

    pairs: tuple[tuple[VertexId, VertexId], ...]
    host: object = field(repr=False, compare=False)

    def covered(self) -> set[VertexId]:
        return {v for p in self.pairs for v in p}

    def __len__(self) -> int:
        return len(self.pairs)


def make_bipartite(n_a, n_b, edges) -> BipartiteGraph:
    """Build a BipartiteGraph; duplicate (a, b) pairs raise ParallelEdges.

    Edges are checked in input order, each for range, then repeats, and a
    negative side size raises ValueError.  Edges of two endpoints go to
    `_bipartite_graph` as they are, with their A and B columns; any other
    width leaves through `_first_bipartite_fault`.
    """
    edges = list(map(tuple, edges))
    if set(map(len, edges)) <= {2}:
        side_a = [a for a, _ in edges]
        side_b = [b for _, b in edges]
        return _bipartite_graph(n_a, n_b, side_a, side_b, edges)
    _first_bipartite_fault(n_a, n_b, edges)


def _bipartite_graph(n_a, n_b, side_a, side_b, edges=None) -> BipartiteGraph:
    """The BipartiteGraph of the edges (side_a[i], side_b[i]): the builder
    of `make_bipartite`, which holds the edge tuples and passes them, and of
    `parse_bipartite`, which holds the columns of a `bip` text and leaves
    the tuples to be zipped here.

    The checks run over all edges at once: the side sizes, range by min/max
    over the A and B columns, and repeats with no set, since sorted edges
    are distinct exactly when they strictly increase.  Edges that increase
    already, as `format_bipartite` writes them, are not sorted.  Only when a
    check fails does `_first_bipartite_fault` walk the edges in input order
    to raise the first fault.  Both sides' lists are filled in one pass in
    sorted edge order, so every list comes out increasing.
    """
    if edges is None:
        edges = list(zip(side_a, side_b))
    ok = n_a >= 0 and n_b >= 0 and (
        not edges
        or min(side_a) >= 0 and max(side_a) < n_a
        and min(side_b) >= 0 and max(side_b) < n_b
    )
    ordered = edges
    if ok and not all(map(operator.lt, edges, islice(edges, 1, None))):
        ordered = sorted(edges)
        ok = all(map(operator.lt, ordered, islice(ordered, 1, None)))
    if not ok:
        _first_bipartite_fault(n_a, n_b, edges)
    adj_a = [[] for _ in range(n_a)]
    adj_b = [[] for _ in range(n_b)]
    for a, b in ordered:
        adj_a[a].append(b)
        adj_b[b].append(a)
    return BipartiteGraph(
        n_a=n_a,
        n_b=n_b,
        edges=tuple(ordered),
        adj_a=tuple(map(tuple, adj_a)),
        adj_b=tuple(map(tuple, adj_b)),
    )


def _first_bipartite_fault(n_a, n_b, edges):
    """Raise the error of a negative side size, else of the first faulty
    edge in input order."""
    if n_a < 0 or n_b < 0:
        raise ValueError("vertex count must be nonnegative")
    seen = set()
    for a, b in edges:
        if not (0 <= a < n_a and 0 <= b < n_b):
            raise ValueError(f"edge ({a}, {b}) out of range")
        if (a, b) in seen:
            raise ParallelEdges(f"parallel edge ({a}, {b})")
        seen.add((a, b))


# ---------------------------------------------------------------------------
# General graphs: blossom machinery
# ---------------------------------------------------------------------------
#
# _search runs one alternating BFS from an exposed root.  It either returns a
# second exposed vertex (the far end of an augmenting path, recovered through
# the p[] pointers) or, when none exists, leaves behind the final p/base/outer
# arrays.  In the latter case every outer vertex v is reachable from the root
# by an even-length alternating path, and that path can be read off by
# following v -> match[v] -> p[match[v]] -> ... back to the root; blossom
# contraction rewires p[] precisely so that this walk stays a simple path.
#
# base[v] always holds the exact base of v's outermost blossom.  A contraction
# touches only the blossom it forms (Gabow 1976, J. ACM 23): `blossoms[b]`
# lists the vertices with base b when b is the base of a nontrivial blossom
# and is None otherwise.  The common base `cur` is the first base on `to`'s
# tree path that the walk up from `v` has stamped.  The bases flagged next
# are the blossoms and inner singletons on the two tree paths up to `cur`
# (both walks stop at `cur`'s blossom, so `cur` itself is never flagged);
# each is flagged once, under a second stamp.  Their members are relabelled
# to `cur` and appended to its list; no other vertex's base changes.  Every
# vertex of a nontrivial blossom is already outer, so the vertices that turn
# outer are exactly the flagged inner singletons.  They join the queue in
# increasing index, the order in which a scan over all n vertices would meet
# them.  So the order of `flagged` reaches only the order inside a member
# list, which nothing reads in order, and the search order, the p[] it
# leaves and with them the certificate bytes do not depend on how the
# blossom is found.
#
# The caller owns p/base/outer/mark/blossoms, clean on entry (p all -1, base
# the identity, outer all False, mark all 0, blossoms all None), and a
# `touched` list.  _search appends to it the root, every `to` whose p it sets
# and every `w` it makes outer.  p is only ever set on those vertices, every
# blossom member is one of them, and every stamped or listed entry is a base,
# so resetting the touched entries cleans all five arrays for the next root
# in time proportional to the search, not to n.  Each search stamps from 1
# again.  A contraction makes no set, dict or default list: `flagged` and
# `fresh` are made once per search and cleared, and the only list it may
# make is the member list of a base that had none.
#
# A vertex left out of the matching is its own mate and its own p for the
# whole of `_max_matching_arrays`: the greedy start and the root loop see it
# matched, and every search sees it as already reached, so no edge scan tests
# a mask.  It is never touched, so no reset clears it.


def _search(adj, match, root, p, base, outer, touched, mark, blossoms):
    """Alternating BFS from exposed `root`.

    Returns the exposed end of an augmenting path, or -1 when none exists;
    the search itself is left in p, base, outer, mark and blossoms.
    """
    outer[root] = True
    touched.append(root)
    stamp = 0
    flagged = []
    fresh = []
    queue = deque([root])
    pop, push = queue.popleft, queue.append
    while queue:
        v = pop()
        # only an augmentation changes match; a contraction may change base[v]
        mate = match[v]
        for to in adj[v]:
            if to == mate or base[v] == base[to]:
                continue
            if outer[to]:
                # odd cycle: contract the blossom up to the common base
                stamp += 1
                x = v
                while True:
                    x = base[x]
                    mark[x] = stamp
                    m = match[x]
                    if m == -1:
                        break
                    x = p[m]
                cur = base[to]
                while mark[cur] != stamp:
                    cur = base[p[match[cur]]]
                stamp += 1
                x, child, last = v, to, False
                while True:
                    while True:
                        b = base[x]
                        if b == cur:
                            break
                        if mark[b] != stamp:
                            mark[b] = stamp
                            flagged.append(b)
                        m = match[x]
                        b = base[m]
                        if mark[b] != stamp:
                            mark[b] = stamp
                            flagged.append(b)
                        p[x] = child
                        child = m
                        x = p[m]
                    if last:
                        break
                    x, child, last = to, v, True
                group = blossoms[cur]
                if group is None:
                    group = blossoms[cur] = [cur]
                for b in flagged:
                    inner = blossoms[b]
                    if inner is None:
                        base[b] = cur
                        group.append(b)
                        if not outer[b]:
                            fresh.append(b)
                    else:
                        blossoms[b] = None
                        for i in inner:
                            base[i] = cur
                        group.extend(inner)
                flagged.clear()
                fresh.sort()
                for i in fresh:
                    outer[i] = True
                    push(i)
                fresh.clear()
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


def _augment(match, p, end):
    v = end
    while v != -1:
        pv = p[v]
        nxt = match[pv]
        match[v] = pv
        match[pv] = v
        v = nxt


def _greedy_init(adj, match):
    for v, nbrs in enumerate(adj):
        if match[v] == -1:
            for u in nbrs:
                if match[u] == -1:
                    match[v] = u
                    match[u] = v
                    break


def _max_matching_arrays(adj, active) -> list[int]:
    n = len(adj)
    match = [-1] * n
    p = [-1] * n
    # inactive vertices are sentinels, their own mate and p until the end
    inactive = [v for v in range(n) if not active[v]]
    for v in inactive:
        match[v] = p[v] = v
    _greedy_init(adj, match)
    # one set of search arrays, reset after each root to its clean state
    base = list(range(n))
    outer = [False] * n
    mark = [0] * n
    blossoms = [None] * n
    touched = []
    for root in range(n):
        if match[root] == -1:
            end = _search(
                adj, match, root, p, base, outer, touched, mark, blossoms
            )
            if end != -1:
                _augment(match, p, end)
            for v in touched:
                p[v] = -1
                base[v] = v
                outer[v] = False
                mark[v] = 0
                blossoms[v] = None
            touched.clear()
    for v in inactive:
        match[v] = p[v] = -1
    return match


def _require_vertex(n, v):
    # a negative index would wrap around to a vertex at the end
    if not 0 <= v < n:
        raise ValueError(f"vertex {v} out of range [0, {n})")


def _pairs_of(match) -> tuple[tuple[int, int], ...]:
    # inactive vertices are never matched, so the array alone gives the
    # pairs; walked in order of their smaller end, they come out sorted
    return tuple((v, m) for v, m in enumerate(match) if m > v)


def maximum_matching(g: SimpleGraph) -> Matching:
    """A maximum-cardinality matching of g."""
    active = [True] * g.n
    match = _max_matching_arrays(g.adjacency, active)
    return Matching(pairs=_pairs_of(match), host=g)


def perfect_matching(g: SimpleGraph) -> Matching | None:
    """A perfect matching of g, or None if there is none."""
    if g.n % 2 != 0:
        return None
    m = maximum_matching(g)
    return m if 2 * len(m) == g.n else None


def perfect_matching_avoiding(g: SimpleGraph, v: VertexId) -> Matching | None:
    """A perfect matching of g - v, or None."""
    match = near_perfect_matching(g, v)
    return None if match is None else Matching(pairs=_pairs_of(match), host=g)


class AlternatingTree:
    """Final blossom-search structure rooted at the one exposed vertex of a
    near-perfect matching; serves even alternating root-to-v paths.

    The served path starts at the root with a non-matching edge, alternates,
    and ends with a matching edge into v, so it has even length.  A vertex is
    "outer" exactly when such a path exists; for factor-critical graphs that
    is every vertex.
    """

    def __init__(self, g: SimpleGraph, match, root: VertexId):
        _require_vertex(g.n, root)
        if match[root] != -1:
            raise PreconditionViolated("root must be exposed")
        n = g.n
        p = [-1] * n
        outer = [False] * n
        end = _search(
            g.adjacency, match, root, p, list(range(n)), outer, [], [0] * n,
            [None] * n,
        )
        if end != -1:
            raise InternalError(
                "augmenting path found; the matching was not maximum"
            )
        self.graph = g
        self.root = root
        self.match = list(match)
        self._p = p
        self._outer = outer

    def is_outer(self, v: VertexId) -> bool:
        return self._outer[v]

    def first_non_outer(self) -> VertexId | None:
        try:
            return self._outer.index(False)
        except ValueError:
            return None

    def even_path_to(self, v: VertexId) -> list[VertexId]:
        """Even path root .. v: the root is exposed, so no partner stops it."""
        only_root = [False] * self.graph.n
        only_root[self.root] = True
        return self.path_from_placed(v, only_root)

    def path_from_placed(self, v: VertexId, placed) -> list[VertexId]:
        """The even path root .. v from its last vertex x with placed[x] set.

        Walks from v toward the root and stops at the first placed vertex, so
        the work covers only the part that is returned.  Raises InternalError
        when no vertex of the path is placed.  Unchecked: see `ears._ear_walks`.
        """
        if not self._outer[v]:
            raise PreconditionViolated(f"vertex {v} is not evenly reachable")
        match, p, root = self.match, self._p, self.root
        rev = [v]
        cur = v
        cap = 2 * (self.graph.n + 1)
        while not placed[cur]:
            if cur == root:
                raise InternalError("no placed vertex on the even path")
            m = match[cur]
            rev.append(m)
            if placed[m]:
                break
            cur = p[m]
            rev.append(cur)
            if len(rev) > cap:
                raise InternalError("even-path trace did not terminate")
        rev.reverse()
        return rev


def near_perfect_matching(g: SimpleGraph, root: VertexId) -> list[int] | None:
    """Matching array covering everything except `root`, or None."""
    _require_vertex(g.n, root)
    active = [True] * g.n
    active[root] = False
    match = _max_matching_arrays(g.adjacency, active)
    # the inactive root is never matched: it is the one exposed vertex
    return match if match.count(-1) == 1 else None


def is_factor_critical(g: SimpleGraph) -> bool:
    """True iff g - v has a perfect matching for every vertex v.

    Decided by one near-perfect matching M missing vertex 0 and one Edmonds
    search from 0, which marks outer exactly the vertices v reached from 0
    by an even M-alternating path (Gallai's lemma; Lovasz & Plummer,
    Matching Theory).  Such a path P gives the perfect matching M xor P of
    g - v.  Conversely, if g - v has a perfect matching M_v, the component
    of M xor M_v at 0 is such a path ending at v.  So g is factor-critical
    exactly when every vertex is outer; vertices outside 0's component
    never are.
    """
    if g.n % 2 == 0:
        return False
    match = near_perfect_matching(g, 0)
    return match is not None and AlternatingTree(g, match, 0).first_non_outer() is None


# ---------------------------------------------------------------------------
# Bipartite graphs: Hopcroft-Karp, no blossoms needed
# ---------------------------------------------------------------------------


def _hopcroft_karp(adj_a, n_b, order) -> list[int]:
    """Maximum bipartite matching as the B-partner of each A-vertex (-1: none).

    Hopcroft & Karp (SIAM J. Comput. 2(4), 1973).  A greedy start scans A in
    `order` and takes the first free neighbour in list order.  Each phase
    then grows BFS layers from the exposed A-vertices in `order`, up to the
    first layer that sees a free B-vertex, and augments along a maximal set
    of vertex-disjoint shortest paths found by depth-first search from the
    same roots, neighbours in list order.  A vertex leaves its layer once it
    is on an augmenting path or is a dead end, so each phase scans every
    edge at most once; the search keeps an explicit stack, since a path can
    be as long as |A|.
    """
    match_a = [-1] * len(adj_a)
    match_b = [-1] * n_b
    for a in order:
        for b in adj_a[a]:
            if match_b[b] == -1:
                match_a[a] = b
                match_b[b] = a
                break
    while True:
        roots = [a for a in order if match_a[a] == -1]
        # layer[a]: BFS depth of a, -1 when a is in no layer
        layer = [-1] * len(adj_a)
        for a in roots:
            layer[a] = 0
        frontier = roots
        found = False
        while frontier and not found:
            nxt = []
            for a in frontier:
                below = layer[a] + 1
                for b in adj_a[a]:
                    m = match_b[b]
                    if m == -1:
                        found = True
                    elif layer[m] == -1:
                        layer[m] = below
                        nxt.append(m)
            if found:
                # shortest paths end in this layer; the next is never entered
                for m in nxt:
                    layer[m] = -1
            frontier = nxt
        if not found:
            return match_a
        for root in roots:
            # one [A-vertex, neighbour iterator, B-vertex taken] frame per step
            stack = [[root, iter(adj_a[root]), -1]]
            while stack:
                frame = stack[-1]
                a = frame[0]
                want = layer[a] + 1
                for b in frame[1]:
                    m = match_b[b]
                    if m == -1 or layer[m] == want:
                        break
                else:
                    layer[a] = -1
                    stack.pop()
                    continue
                frame[2] = b
                if m == -1:
                    for a, _, b in stack:
                        layer[a] = -1
                        match_a[a] = b
                        match_b[b] = a
                    break
                stack.append([m, iter(adj_a[m]), -1])


def bipartite_perfect_matching(bg: BipartiteGraph) -> Matching | None:
    """Perfect matching covering both sides, or None (also when n_a != n_b)."""
    if bg.n_a != bg.n_b:
        return None
    match_a = _hopcroft_karp(bg.adj_a, bg.n_b, range(bg.n_a))
    if -1 in match_a:
        return None
    return Matching(pairs=tuple(enumerate(match_a)), host=bg)


def bipartite_degrees(bg: BipartiteGraph) -> tuple[list[int], list[int]]:
    deg_a = [len(x) for x in bg.adj_a]
    deg_b = [len(x) for x in bg.adj_b]
    return deg_a, deg_b


def require_regular_bipartite(bg: BipartiteGraph) -> int:
    """The common degree k of a regular bipartite graph; NotRegular otherwise."""
    if not bg.adj_a or not bg.adj_b:
        raise NotRegular("empty side")
    k = len(bg.adj_a[0])
    if set(map(len, bg.adj_a)) == {k} == set(map(len, bg.adj_b)):
        return k
    # the first irregular vertex, for the message
    deg_a, deg_b = bipartite_degrees(bg)
    for a, d in enumerate(deg_a):
        if d != k:
            raise NotRegular(f"A-vertex {a} has degree {d}, expected {k}")
    for b, d in enumerate(deg_b):
        if d != k:
            raise NotRegular(f"B-vertex {b} has degree {d}, expected {k}")


def _peel(adj, n_b, t, order):
    """t edge-disjoint perfect matchings of the bipartite graph with A-side
    lists `adj`, as match arrays, and the A-side lists they leave.

    Each `_hopcroft_karp` pass scans A in `order`, on `adj` first and then
    on a copy without the edges matched last, which stays sorted.  It
    matches only along the lists and injectively, and each match array is
    checked perfect, so every A-list and every B-vertex loses exactly one
    entry per pass: a k-regular graph leaves a (k-t)-regular residual.
    """
    matches = []
    for _ in range(t):
        match_a = _hopcroft_karp(adj, n_b, order)
        if -1 in match_a:
            raise InternalError("regular bipartite graph lost its perfect matching")
        matches.append(match_a)
        adj = [[b for b in nbrs if b != m] for nbrs, m in zip(adj, match_a)]
    return matches, adj


def extract_disjoint_perfect_matchings(bg: BipartiteGraph, t: int) -> list[Matching]:
    """t pairwise edge-disjoint perfect matchings of a regular bipartite graph.

    After removing them the graph is (k-t)-regular (see `_peel`).  The
    matcher scans A in increasing order for its greedy start and its search
    roots; that order is part of the output contract.
    """
    k = require_regular_bipartite(bg)
    if t < 0 or t > k:
        raise PreconditionViolated(f"cannot extract {t} matchings from degree {k}")
    if bg.n_a != bg.n_b:
        raise NotRegular("regular bipartite graph must have equal sides")
    matches, _ = _peel(bg.adj_a, bg.n_b, t, range(bg.n_a))
    return [Matching(pairs=tuple(enumerate(m)), host=bg) for m in matches]


# ---------------------------------------------------------------------------
# Component-count bound for 3-uniform 3-regular hypergraphs
# ---------------------------------------------------------------------------


def component_bound_check(h: Hypergraph, removed) -> tuple[int, int]:
    """(number of shadow components after deleting `removed`, |removed|).

    Instances must be 3-uniform and 3-regular; for connected ones the count
    never exceeds |removed|, which is what the tests assert.
    """
    xs = sorted(set(removed))
    if not xs:
        raise PreconditionViolated("the removed set must be nonempty")
    validate(h, 3).require()
    gone = [False] * h.n
    for v in xs:
        _require_vertex(h.n, v)
        gone[v] = True
    return len(_component_blocks(_shadow_lists(h).adjacency, gone)), len(xs)
