"""Hypergraph, simple-graph and bipartite-graph data model.

A hypergraph is a set of vertices 0..n-1 plus hyperedges (sets of distinct
vertices) carried with positive multiplicities.  The shadow graph of a
hypergraph is the simple graph whose edges are exactly the 2-element subsets
of hyperedges; components, degrees and uniformity/regularity validation all
live here.  Every type is immutable after construction and every operation is
a pure function, so values can be shared freely across threads.
"""

from __future__ import annotations

import itertools
import operator
from collections import Counter
from dataclasses import dataclass
from typing import NamedTuple

from .errors import NotRegular, NotUniform

VertexId = int


@dataclass(frozen=True)
class Hypergraph:
    """Vertex/hyperedge incidence structure with hyperedge multiplicities.

    Hyperedges are stored as sorted tuples of distinct vertices in first-seen
    order; repeated hyperedges fold into `multiplicities`.  ``k`` is the
    declared uniformity parameter (hyperedges of other sizes are allowed in
    the data model so that `validate` can report on them).
    """

    n: int
    hyperedges: tuple[tuple[VertexId, ...], ...]
    multiplicities: tuple[int, ...]
    k: int

    @property
    def total_multiplicity(self) -> int:
        return sum(self.multiplicities)


@dataclass(frozen=True)
class SimpleGraph:
    """Loopless simple undirected graph on vertices 0..n-1."""

    n: int
    edges: tuple[tuple[VertexId, VertexId], ...]
    adjacency: tuple[tuple[VertexId, ...], ...]
    edge_set: frozenset[tuple[VertexId, VertexId]]

    def has_edge(self, u: VertexId, v: VertexId) -> bool:
        return ((u, v) if u < v else (v, u)) in self.edge_set

    @property
    def m(self) -> int:
        return len(self.edges)


@dataclass(frozen=True)
class BipartiteGraph:
    """Simple bipartite graph with sides A (size n_a) and B (size n_b)."""

    n_a: int
    n_b: int
    edges: tuple[tuple[VertexId, VertexId], ...]
    adj_a: tuple[tuple[VertexId, ...], ...]
    adj_b: tuple[tuple[VertexId, ...], ...]

    @property
    def m(self) -> int:
        return len(self.edges)


class _ListGraph(NamedTuple):
    """A simple graph as its sorted neighbour tuples alone: the `n` and
    `adjacency` of a SimpleGraph, which is all the solver and the matching
    code read of one."""

    n: int
    adjacency: tuple[tuple[VertexId, ...], ...]


@dataclass(frozen=True)
class ComponentPartition:
    """Connected components as disjoint sorted blocks covering 0..n-1."""

    blocks: tuple[tuple[VertexId, ...], ...]


@dataclass(frozen=True)
class ValidationReport:
    """Outcome of the uniformity/regularity check against a parameter k."""

    k: int
    uniform: bool
    regular: bool
    first_nonuniform_hyperedge: int | None
    first_irregular_vertex: int | None

    @property
    def ok(self) -> bool:
        return self.uniform and self.regular

    def require_uniform(self) -> None:
        """Raise NotUniform naming the first hyperedge of the wrong size."""
        if not self.uniform:
            raise NotUniform(
                f"hyperedge {self.first_nonuniform_hyperedge} has size != {self.k}"
            )

    def require(self) -> None:
        """Raise NotUniform or NotRegular naming the first violation."""
        self.require_uniform()
        if not self.regular:
            raise NotRegular(
                f"vertex {self.first_irregular_vertex} has degree != {self.k}"
            )


def canonical_edge(u: VertexId, v: VertexId) -> tuple[VertexId, VertexId]:
    return (u, v) if u < v else (v, u)


def make_hypergraph(n, hyperedges, k=None, multiplicities=None) -> Hypergraph:
    """Build a canonical Hypergraph, folding repeated hyperedges.

    Raises ValueError on out-of-range vertices or a repeated vertex inside a
    hyperedge (hyperedges are vertex sets).  Hyperedges are checked in input
    order, each for multiplicity, then range, then repeats; an out-of-range
    message names the hyperedge's first such vertex in input order.  The
    checks run over the whole input at once; only when one fails does
    `_first_hyperedge_fault` walk the hyperedges to raise the first fault.
    """
    if n < 0:
        raise ValueError("vertex count must be nonnegative")
    hyperedges = list(map(tuple, hyperedges))
    return _fold_hyperedges(
        n, hyperedges, list(itertools.chain.from_iterable(hyperedges)), k,
        multiplicities,
    )


def _fold_hyperedges(n, hyperedges, flat, k, multiplicities=None) -> Hypergraph:
    """`make_hypergraph`'s checks and fold, given a nonnegative n, the
    hyperedges as a list of tuples and `flat`, their vertices in order."""
    if multiplicities is not None and len(multiplicities) != len(hyperedges):
        raise ValueError("multiplicities do not match hyperedges")
    widths = set(map(len, hyperedges))
    width = widths.pop() if len(widths) == 1 else 0
    if width and all(
        all(map(operator.lt, itertools.islice(flat, i, None, width),
                itertools.islice(flat, i + 1, None, width)))
        for i in range(width - 1)
    ):
        # every hyperedge already increases, as `format_hypergraph` writes
        # them: a sorted vertex set
        canon = hyperedges
    else:
        canon = list(map(tuple, map(sorted, map(set, hyperedges))))
    if (
        (multiplicities is not None and min(multiplicities, default=1) < 1)
        or (flat and (min(flat) < 0 or max(flat) >= n))
        # a sorted vertex set is shorter than its hyperedge exactly on a repeat
        or sum(map(len, canon)) != len(flat)
    ):
        _first_hyperedge_fault(n, hyperedges, multiplicities)
    if multiplicities is None:
        folded = Counter(canon)
    else:
        folded = Counter()
        for ce, mult in zip(canon, multiplicities):
            folded[ce] += mult
    if k is None:
        k = len(next(iter(folded), ()))
    return Hypergraph(
        n=n,
        hyperedges=tuple(folded.keys()),
        multiplicities=tuple(folded.values()),
        k=k,
    )


def _first_hyperedge_fault(n, hyperedges, multiplicities):
    """Raise the ValueError of the first faulty hyperedge in input order."""
    if multiplicities is None:
        multiplicities = itertools.repeat(1)
    for e, mult in zip(hyperedges, multiplicities):
        if mult < 1:
            raise ValueError("multiplicities must be positive")
        ce = tuple(sorted(e))
        if ce and (ce[0] < 0 or ce[-1] >= n):
            v = next(v for v in e if not 0 <= v < n)
            raise ValueError(f"vertex {v} out of range [0, {n})")
        if len(set(ce)) != len(ce):
            raise ValueError(f"hyperedge {e} repeats a vertex")


def make_graph(n, edges) -> SimpleGraph:
    """Build a canonical SimpleGraph; loops rejected, parallel edges folded.

    Edges are checked in input order, each for a loop, then range.  The
    checks run over all edges at once; only when one fails does
    `_first_edge_fault` walk them to raise the first fault.  A negative
    vertex count raises ValueError.
    """
    if n < 0:
        raise ValueError("vertex count must be nonnegative")
    edges = list(map(tuple, edges))
    ok = set(map(len, edges)) <= {2}
    if ok and edges:
        flat = list(itertools.chain.from_iterable(edges))
        ok = (
            not any(map(operator.eq, flat[::2], flat[1::2]))
            and min(flat) >= 0
            and max(flat) < n
        )
    if not ok:
        _first_edge_fault(n, edges)
    ordered = tuple(sorted(set(zip(map(min, edges), map(max, edges)))))
    # filled in sorted edge order, so every list comes out increasing
    adj = [[] for _ in range(n)]
    for u, v in ordered:
        adj[u].append(v)
        adj[v].append(u)
    return SimpleGraph(
        n=n,
        edges=ordered,
        adjacency=tuple(map(tuple, adj)),
        edge_set=frozenset(ordered),
    )


def _first_edge_fault(n, edges):
    """Raise the ValueError of the first faulty edge in input order."""
    for u, v in edges:
        if u == v:
            raise ValueError(f"loop at vertex {u}")
        if not (0 <= u < n and 0 <= v < n):
            raise ValueError(f"edge ({u}, {v}) out of range [0, {n})")


def shadow_graph(h: Hypergraph) -> SimpleGraph:
    """Simple graph on the same vertices whose edges are the within-hyperedge
    pairs; multiplicities collapse to one.

    Each hyperedge must be a sorted tuple of distinct vertices in [0, n), as
    `make_hypergraph` builds it; ValueError otherwise.  It wraps
    `_shadow_lists` and reads the edges off those lists in order.
    """
    adjacency = _shadow_lists(h).adjacency
    edges = tuple((v, u) for v, a in enumerate(adjacency) for u in a if u > v)
    return SimpleGraph(
        n=h.n,
        edges=edges,
        adjacency=adjacency,
        edge_set=frozenset(edges),
    )


def _shadow_lists(h: Hypergraph) -> _ListGraph:
    """The shadow graph of h as its sorted neighbour tuples alone.

    Refuses a malformed hyperedge as `shadow_graph` does.  Built by
    transposition in two passes.  The first gathers, per vertex, the members
    of its hyperedges, itself and repeats included.  The second walks the
    vertices v in increasing order and appends v to the list of each member
    it gathered; since the shadow graph is symmetric, u gathered v exactly
    when v gathered u, so each list receives its neighbours in increasing
    order and needs no sort.  A last-seen stamp per list skips a repeat (a
    pair inside two hyperedges, or a hyperedge repeated unfolded) and, set
    before v's walk, v itself.
    """
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
    adjacency = [[] for _ in range(n)]
    # stamp[u] == v once v is on u's list, or when u is v
    stamp = [-1] * n
    for v, xs in enumerate(near):
        stamp[v] = v
        for u in xs:
            if stamp[u] != v:
                stamp[u] = v
                adjacency[u].append(v)
    return _ListGraph(n, tuple(map(tuple, adjacency)))


def degree(h: Hypergraph, v: VertexId) -> int:
    """Number of hyperedges containing v, counted with multiplicity."""
    if not 0 <= v < h.n:
        raise ValueError(f"vertex {v} out of range [0, {h.n})")
    return sum(m for e, m in zip(h.hyperedges, h.multiplicities) if v in e)


def validate(h: Hypergraph, k: int) -> ValidationReport:
    """Report whether h is k-uniform and k-regular, with first violations.

    A vertex outside [0, n) raises ValueError naming the first one in
    hyperedge order; the hyperedges are walked for it only when a bulk
    min/max test fails.
    """
    flat = list(itertools.chain.from_iterable(h.hyperedges))
    if flat and (min(flat) < 0 or max(flat) >= h.n):
        v = next(v for v in flat if not 0 <= v < h.n)
        raise ValueError(f"vertex {v} out of range [0, {h.n})")
    bad_edge = None
    if not set(map(len, h.hyperedges)) <= {k}:
        bad_edge = next(i for i, e in enumerate(h.hyperedges) if len(e) != k)
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


def components(g: SimpleGraph) -> ComponentPartition:
    """Connected components, singleton blocks for isolated vertices.

    Blocks are sorted internally and ordered by smallest member.
    """
    return ComponentPartition(
        blocks=tuple(tuple(sorted(b)) for b in _component_blocks(g.adjacency))
    )


def _component_blocks(adj, skip=None) -> list[list[VertexId]]:
    """Vertex lists of the connected components of the graph with adjacency
    lists `adj`, leaving out the vertices v with `skip[v]` set.

    Components come in order of smallest member; each list is unsorted.
    """
    seen = list(skip) if skip is not None else [False] * len(adj)
    blocks = []
    for start in range(len(adj)):
        if seen[start]:
            continue
        seen[start] = True
        block = [start]
        stack = [start]
        while stack:
            for w in adj[stack.pop()]:
                if not seen[w]:
                    seen[w] = True
                    block.append(w)
                    stack.append(w)
        blocks.append(block)
    return blocks


def hereditary_members(h: Hypergraph, size: int) -> list[tuple[VertexId, ...]]:
    """All size-element subsets of hyperedges, deduplicated (multiplicity one)."""
    if size > h.k:
        raise ValueError(f"subset size {size} exceeds uniformity {h.k}")
    if size < 1:
        raise ValueError("subset size must be positive")
    members = set()
    for e in h.hyperedges:
        members.update(itertools.combinations(e, size))
    return sorted(members)

