"""Certificate checkers, apart from the code that builds certificates.

A partition certificate (at most one triangle per component plus pairs,
each inside a hyperedge, covering the vertex set) and a kept-edge
certificate of a regular bipartite graph (B-degrees 1, A-degrees 0 or 2
plus at most one 3 per component) are checked here against their instance
alone.  This module imports only the standard library, `errors` and the
data types of `core`, so no check can call solver code and a fault in the
construction cannot hide itself in the check; a test reads the imports.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass, field
from itertools import chain, combinations, filterfalse, islice, repeat

from .core import BipartiteGraph, Hypergraph, VertexId


@dataclass(frozen=True)
class TriMatchingPartition:
    """At most one triangle plus disjoint pairs covering the vertex set.

    Certificates produced per component (solve_components) cover only their
    component; coverage of the full vertex set is then checked jointly.
    """

    triangle: tuple[VertexId, VertexId, VertexId] | None
    pairs: tuple[tuple[VertexId, VertexId], ...]
    host: Hypergraph = field(repr=False, compare=False)


@dataclass(frozen=True)
class LuSubgraph:
    """Kept bipartite edges: B-degrees 1, A-degrees 0/2 plus at most one 3."""

    kept: tuple[tuple[VertexId, VertexId], ...]
    host: BipartiteGraph = field(repr=False, compare=False)


@dataclass(frozen=True)
class VerificationReport:
    violations: tuple[str, ...]

    @property
    def ok(self) -> bool:
        return not self.violations


def verify_partition(h: Hypergraph, cert) -> VerificationReport:
    """Check a partition certificate against its instance.

    Accepts a TriMatchingPartition, a list of them (componentwise, possibly
    empty), or a raw (triangles, pairs) tuple as parsed from a certificate
    file.  A vertex outside [0, n) raises ValueError naming the first one in
    block order; every other fault is a violation.  Each hyperedge is read
    as a vertex set, whatever the order of its tuple: a pair or triangle
    lies inside it when all its vertices are members.

    When the blocks are disjoint and cover V and every pair has two
    vertices, `_mate_pass` reads the pairs, and at k = 3 the triangles, off
    a mate array in one pass over the hyperedges.  The array's n slots are
    then the certificate's own n vertices, so a huge declared n allocates
    nothing.  If the pass finds every pair inside a hyperedge, none is at
    fault and no pair is looked at alone.  Otherwise the pairs are
    intersected with the hyperedges' 2-subsets and each bad one is named
    in certificate order.

    The rule "at most one triangle per shadow component" can only fail with
    two or more triangles, so its component search, a union-find over every
    hyperedge that costs more than all other checks together, runs
    only then.  A connected instance's certificate never pays for it.
    """
    if isinstance(cert, TriMatchingPartition):
        cert = [cert]
    if isinstance(cert, (list, tuple)) and all(
        isinstance(c, TriMatchingPartition) for c in cert
    ):
        triangles = [c.triangle for c in cert if c.triangle is not None]
        pairs = [p for c in cert for p in c.pairs]
    else:
        triangles, pairs = map(list, cert)

    n = h.n
    flat = list(chain.from_iterable(chain(triangles, pairs)))
    if flat and (min(flat) < 0 or max(flat) >= n):
        v = next(v for v in flat if not 0 <= v < n)
        raise ValueError(f"certificate vertex {v} out of range [0, {n})")
    violations = []
    seen = set(flat)
    if len(seen) != len(flat):
        violations.append("blocks are not disjoint")
    if len(seen) != n:
        # stops at the fifth, so a huge declared n costs no pass over range(n)
        missing = list(islice((v for v in range(n) if v not in seen), 5))
        violations.append(f"blocks do not cover the vertex set (missing {missing})")

    passed = None
    if len(seen) == len(flat) == n and set(map(len, pairs)) <= {2}:
        passed = _mate_pass(h, triangles, pairs)
    if triangles and h.k == 3:
        # the pass kept the triangles that are hyperedges stored sorted, as
        # `make_hypergraph` stores them; only when one is missing are all
        # hyperedges sorted for the lookup
        hyperedge_set = set() if passed is None else passed[1]
        if any(tuple(sorted(tri)) not in hyperedge_set for tri in triangles):
            hyperedge_set = set(map(tuple, map(sorted, h.hyperedges)))
    elif triangles:
        # the verifier's own index of the triangles by least vertex, matched
        # in one pass over the hyperedges through those vertices that stops
        # once every triangle lies inside one
        waiting = {}
        for tri in map(frozenset, triangles):
            if len(tri) == 3:
                waiting.setdefault(min(tri), set()).add(tri)
        inside = set()
        for e in filterfalse(waiting.keys().isdisjoint, h.hyperedges):
            e = set(e)
            for v in waiting.keys() & e:
                found = {tri for tri in waiting[v] if tri <= e}
                inside |= found
                waiting[v] -= found
                if not waiting[v]:
                    del waiting[v]
            if not waiting:
                break
    for tri in triangles:
        tset = set(tri)
        if len(tset) != 3:
            violations.append(f"triangle {tri} does not have 3 distinct vertices")
            continue
        if h.k == 3:
            key = tuple(sorted(tri))
            if key not in hyperedge_set:
                violations.append(f"triangle {key} is not a hyperedge")
        elif tset not in inside:
            violations.append(
                f"triangle {tuple(sorted(tri))} is not inside any hyperedge"
            )
    if passed is None or passed[0] != len(pairs):
        violations.extend(_pairs_outside(h, pairs))

    # at most one triangle per shadow component
    if len(triangles) >= 2:
        comp_of = _component_ids(n, h.hyperedges)
        per_comp: dict[int, int] = {}
        for tri in triangles:
            cids = {comp_of(v) for v in tri}
            if len(cids) == 1:
                cid = cids.pop()
                per_comp[cid] = per_comp.get(cid, 0) + 1
        for cid, cnt in per_comp.items():
            if cnt > 1:
                violations.append(f"component {cid} carries {cnt} triangles")
    return VerificationReport(violations=tuple(violations))


def _mate_pass(h: Hypergraph, triangles, pairs):
    """How many certificate pairs lie inside a hyperedge, and at k = 3 the
    set of sorted triangles that are hyperedges, from one pass over the
    hyperedges; None if the pass cannot read one.

    The blocks are disjoint and cover [0, h.n), so `mate` holds each pair
    vertex's partner and each triangle vertex its sorted triangle.  A pair
    lies inside a hyperedge when both its vertices are members.  At k = 3
    the pass looks only where a sorted tuple would put a pair or the
    triangle, so on an unsorted one it can miss either but never reports
    one falsely, and a miss sends the caller to its fallbacks.  A pair
    found is marked at its smaller vertex in `hit`, so a pair inside two
    hyperedges counts once and cannot make up for one never found.  A
    hyperedge vertex at or above n raises IndexError, and at k = 3 a
    hyperedge of another width raises ValueError on unpacking; either sends
    the caller to the 2-subsets.  A negative one would index from the end,
    so no match is taken at one.
    """
    n = h.n
    mate = [None] * n
    for u, v in pairs:
        mate[u] = v
        mate[v] = u
    for tri in triangles:
        key = tuple(sorted(tri))
        for v in tri:
            mate[v] = key
    hit = [0] * n
    triangles_inside = set()
    try:
        if h.k == 3:
            # three vertices hold at most one pair of disjoint ones
            for a, b, c in h.hyperedges:
                m = mate[a]
                if (m == b or m == c) and m > a >= 0:
                    hit[a] = 1
                elif mate[b] == c and c > b >= 0:
                    hit[b] = 1
                elif m.__class__ is tuple and m == (a, b, c):
                    triangles_inside.add(m)
        else:
            for e in h.hyperedges:
                for a in e:
                    m = mate[a]
                    if m in e and m > a >= 0:
                        hit[a] = 1
    except (IndexError, ValueError):
        return None
    return hit.count(1), triangles_inside


def _pairs_outside(h: Hypergraph, pairs):
    """A violation for each pair, in certificate order, that is a loop or
    lies inside no hyperedge, found by intersecting the pairs, keyed
    (smaller, larger), with the 2-subsets of the sorted hyperedges."""
    # an index of the verifier's own, built without solver code: of the
    # hyperedges' 2-subsets, only the certificate's own pairs are kept
    need = {(u, v) if u < v else (v, u) for u, v in pairs}
    within = need.intersection(
        chain.from_iterable(map(combinations, map(sorted, h.hyperedges), repeat(2)))
    )
    return [
        f"pair ({u}, {v}) is not inside any hyperedge"
        for u, v in pairs
        if u == v or ((u, v) if u < v else (v, u)) not in within
    ]


def verify_lu(bg: BipartiteGraph, cert) -> VerificationReport:
    """Check kept-edge degrees: B all 1; A in {0, 2} plus at most one 3 per
    component of the input graph.

    The per-component rule can only fail with two or more degree-3
    A-vertices, so its component search, a union-find over every edge of
    the graph, runs only then; a connected graph's kept set never pays for
    it.
    """
    kept = cert.kept if isinstance(cert, LuSubgraph) else tuple(cert)
    violations = []
    deg_a = [0] * bg.n_a
    deg_b = [0] * bg.n_b
    seen = set()
    for a, b in kept:
        if not (0 <= a < bg.n_a and 0 <= b < bg.n_b):
            raise ValueError(f"kept edge ({a}, {b}) out of range")
        if b not in bg.adj_a[a]:
            violations.append(f"kept edge ({a}, {b}) is not an edge of the graph")
            continue
        if (a, b) in seen:
            violations.append(f"kept edge ({a}, {b}) repeated")
        seen.add((a, b))
        deg_a[a] += 1
        deg_b[b] += 1
    for b, dv in enumerate(deg_b):
        if dv != 1:
            violations.append(f"B-vertex {b} has kept degree {dv}, expected 1")
    threes = []
    for a, dv in enumerate(deg_a):
        if dv == 3:
            threes.append(a)
        elif dv not in (0, 2):
            violations.append(f"A-vertex {a} has kept degree {dv}")
    if len(threes) >= 2:
        comp = _component_ids(
            bg.n_a + bg.n_b, [(a, bg.n_a + b) for a, b in bg.edges]
        )
        three_per_comp: dict[int, int] = {}
        for a in threes:
            cid = comp(a)
            three_per_comp[cid] = three_per_comp.get(cid, 0) + 1
        for cid, cnt in three_per_comp.items():
            if cnt > 1:
                violations.append(f"component {cid} has {cnt} degree-3 A-vertices")
    return VerificationReport(violations=tuple(violations))


def _component_ids(n: int, groups):
    """Component id of each vertex 0..n-1, as a function, once the members
    of every group are joined.  Ids number the components in order of least
    member, isolated vertices included; only grouped vertices get a
    union-find slot, so a huge n allocates nothing per vertex.  It is the
    verifiers' own: this module cannot import the solver's component
    search."""
    members = sorted({v for group in groups for v in group})
    slot = {v: i for i, v in enumerate(members)}
    parent = list(range(len(members)))

    def find(i):
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    for group in groups:
        if len(group) > 1:
            root = find(slot[group[0]])
            for v in group[1:]:
                parent[find(slot[v])] = root
    ids: dict[int, int] = {}
    starts = []  # least member of each joined component, ascending
    for i, v in enumerate(members):
        root = find(i)
        if root not in ids:
            # len(starts) joined and v - i isolated components come first
            ids[root] = len(starts) + v - i
            starts.append(v)

    def component_id(v):
        if v in slot:
            return ids[find(slot[v])]
        return bisect_left(starts, v) + v - bisect_left(members, v)

    return component_id


def verify_certificate(instance, cert) -> VerificationReport:
    """Dispatch on certificate type (partition vs kept-edge)."""
    if isinstance(cert, LuSubgraph) or isinstance(instance, BipartiteGraph):
        return verify_lu(instance, cert)
    return verify_partition(instance, cert)
