"""Odd ear decompositions of factor-critical graphs.

A decomposition is an odd circuit followed by ears: paths (or closed walks)
whose endpoints lie on earlier ears, whose interior vertices are new, and
whose edge counts are odd.  The ear edge sets partition the host's edges;
leftover single edges ride along as trivial ears at the tail.

`odd_ear_decomposition` builds one constructively from a near-perfect
matching, and `maximalize` runs the slicing loop until every odd edge lies on
its own ear.  Both wrap functions on plain walks over the host's sorted
neighbour tuples: `_ear_walks` builds the nontrivial walks, and `_slice`
slices them and gives each vertex's first-ear label and position; the
result is maximal by `_slice`'s stopping rule.  The public functions check
each value they take or return with one `_scan`.  The solver calls
`_ear_walks` and `_slice` directly, builds no `Ear` and checks no
decomposition: the verifier's check of the certificate it reads off the
walks is the one check of an odd solve.

In `_scan`, "is uv an edge" is whether `adj[u].index(v)` finds it, and "is
it on an ear yet" is a mark on its slot: the edge (u, v) with u < v owns
position `off[u] + adj[u].index(v)` of one flat list, where `off` holds the
running sums of the list lengths.  The walks are the nontrivial ears only;
the edges they leave unmarked are the trivial ears.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from itertools import accumulate, chain, takewhile
from operator import attrgetter

from .core import SimpleGraph, VertexId, canonical_edge
from .errors import (
    InternalError,
    InvariantViolation,
    NotFactorCritical,
    PreconditionViolated,
)
from .matching import AlternatingTree, near_perfect_matching


@dataclass(frozen=True)
class Ear:
    """One ear as its vertex walk.

    Closed ears (including the initial circuit) repeat their start vertex at
    the end of the walk, so edges are always consecutive walk pairs.
    """

    vertices: tuple[VertexId, ...]

    @property
    def u1(self) -> VertexId:
        return self.vertices[0]

    @property
    def u2(self) -> VertexId:
        return self.vertices[-1]

    @property
    def trivial(self) -> bool:
        return len(self.vertices) == 2

    @property
    def closed(self) -> bool:
        return self.vertices[0] == self.vertices[-1]

    @property
    def n_edges(self) -> int:
        return len(self.vertices) - 1

    def edge_walk(self):
        w = self.vertices
        return [canonical_edge(w[i], w[i + 1]) for i in range(len(w) - 1)]


@dataclass(frozen=True)
class EarDecomposition:
    """Ordered ears plus the first-ear label and in-ear position per vertex."""

    host: SimpleGraph
    ears: tuple[Ear, ...]
    labels: tuple[int, ...]
    positions: tuple[int, ...]


def validate_decomposition(d: EarDecomposition) -> list[str]:
    """All invariant violations of d (empty list means valid)."""
    if not d.ears:
        return ["decomposition has no ears"]
    errs, labels, positions, marks = _scan(
        d.host.adjacency, [ear.vertices for ear in d.ears]
    )
    # every edge has two slots, and its first one is marked when on an ear
    if 2 * marks.count(True) != len(marks):
        errs.append("ear edges do not partition the host edge set")
    if (tuple(labels), tuple(positions)) != (d.labels, d.positions):
        errs.append("stored labels/positions disagree with the ears")
    return errs


def _slot_offsets(adj):
    """off[u]: the flat position of the first slot of u's neighbour tuple."""
    return list(accumulate(map(len, adj), initial=0))


def _scan(adj, walks):
    """Every violation of `walks` as ears on the graph with sorted neighbour
    tuples `adj`, but for their partition of the edges; the index of the
    first walk on which each vertex occurs with its position there (-1 for
    vertices on no walk); and the slot marks of the edges on the walks, in
    one pass.

    An ear with a vertex outside 0..n-1 is reported and skipped, so no lookup
    indexes with it.  Host edges, odd lengths, fresh and distinct interiors
    and coverage are all an odd ear decomposition is.  Each edge may lie on
    one walk; whether every edge lies on one is the caller's question, and
    the public functions' answer is that the unmarked ones are the trivial
    ears.
    """
    n = len(adj)
    labels = [-1] * n
    positions = [-1] * n
    errs = []
    off = _slot_offsets(adj)
    marks = [False] * off[-1]
    placed = [False] * n
    flat = list(chain.from_iterable(walks))
    in_range = not flat or (min(flat) >= 0 and max(flat) < n)
    for i, w in enumerate(walks):
        if not in_range:
            bad = next((v for v in w if not 0 <= v < n), None)
            if bad is not None:
                errs.append(f"ear {i} has vertex {bad} out of range [0, {n})")
                continue
        if len(w) < 2:
            errs.append(f"ear {i} has no edges")
        elif len(w) % 2 == 1:
            errs.append(f"ear {i} has an even number of edges")
        u = -1
        for j, v in enumerate(w):
            if labels[v] == -1:
                labels[v] = i
                positions[v] = j
            if j:
                a, b = (u, v) if u < v else (v, u)
                try:
                    slot = off[a] + adj[a].index(b)
                except ValueError:
                    errs.append(f"ear {i} uses non-edge ({u}, {v})")
                else:
                    if marks[slot]:
                        errs.append(f"edge ({a}, {b}) appears on more than one ear")
                    else:
                        marks[slot] = True
            u = v
        if len(w) < 2:
            continue
        if i == 0:
            if w[0] != w[-1]:
                errs.append("the initial ear is not a closed circuit")
            if len(w) < 4:
                errs.append("the initial circuit has fewer than 3 edges")
            new = w[:-1]
            if len(set(new)) != len(new):
                errs.append("the initial circuit repeats a vertex")
        else:
            if not (placed[w[0]] and placed[w[-1]]):
                errs.append(f"ear {i} endpoints do not lie on earlier ears")
            new = w[1:-1]
            if new:
                if len(set(new)) != len(new):
                    errs.append(f"ear {i} repeats an interior vertex")
                if any(map(placed.__getitem__, new)):
                    errs.append(f"ear {i} interior revisits a placed vertex")
        for v in new:
            placed[v] = True
    if not all(placed):
        errs.append("ears do not cover the vertex set")
    return errs, labels, positions, marks


def _unmarked_edges(adj, marks):
    """The edges (u, v), u < v, whose slot is unmarked, in sorted order: the
    trivial ears that walks with these marks leave."""
    slots = ((u, v) for u, row in enumerate(adj) for v in row)
    return [e for e, on in zip(slots, marks) if not on and e[0] < e[1]]


def ear_label(d: EarDecomposition, v: VertexId) -> int:
    """Index of the first ear on which v occurs."""
    if not 0 <= v < d.host.n:
        raise ValueError(f"vertex {v} out of range [0, {d.host.n})")
    return d.labels[v]


def last_nontrivial_ear(d: EarDecomposition) -> int:
    """Largest index of an ear with more than one edge (the circuit counts)."""
    back = len(list(takewhile(attrgetter("trivial"), reversed(d.ears))))
    return max(len(d.ears) - 1 - back, 0)


def is_odd_edge(d: EarDecomposition, edge) -> bool:
    """Odd-edge predicate for an edge ab of the host.

    Both endpoints must first appear on the same ear i; on the circuit that
    is the whole condition, on a later ear both endpoints must additionally
    sit at odd distance from the ear ends on the side away from each other.
    """
    u, v = edge
    if not d.host.has_edge(u, v):
        raise ValueError(f"({u}, {v}) is not an edge of the host")
    if d.labels[u] != d.labels[v]:
        return False
    i = d.labels[u]
    if i == 0:
        return True
    length = d.ears[i].n_edges
    p, q = sorted((d.positions[u], d.positions[v]))
    return p % 2 == 1 and (length - q) % 2 == 1


def dump_decomposition(d: EarDecomposition) -> str:
    lines = []
    for i, ear in enumerate(d.ears):
        kind = "trivial" if ear.trivial else "nontrivial"
        verts = " ".join(str(v) for v in ear.vertices)
        lines.append(f"ear {i} {kind} : {verts}")
    return "\n".join(lines) + "\n"


def odd_ear_decomposition(g: SimpleGraph) -> EarDecomposition:
    """Ear decomposition of a factor-critical graph with all ears odd.

    Uses one near-perfect matching M of G-0 and one alternating search from
    vertex 0.  The circuit is the even alternating path to 0's lowest
    neighbor closed by that edge; each later ear takes the lowest unplaced
    vertex v adjacent to the placed set, follows the alternating path from v
    back into the placed set, and closes with the lowest placed neighbor.
    Remaining edges become trivial ears.
    """
    walks = _ear_walks(g)
    errs, labels, positions, marks = _scan(g.adjacency, walks)
    if errs:
        raise InternalError("constructed decomposition invalid: " + "; ".join(errs))
    walks += _unmarked_edges(g.adjacency, marks)
    return EarDecomposition(
        host=g,
        ears=tuple(Ear(tuple(w)) for w in walks),
        labels=tuple(labels),
        positions=tuple(positions),
    )


def _ear_walks(g):
    """The nontrivial walks of `odd_ear_decomposition(g)`, unchecked, as
    lists in order; g needs only `n` and `adjacency`.  They are an odd ear
    decomposition by Lovász's construction: each traced path is an even
    alternating path from a new vertex into the placed set, closed by one
    host edge to a placed vertex, so its edges are host edges, its interior
    is new and its length is odd.

    This is where an odd instance's connectivity is decided.  The search
    from vertex 0 marks every vertex outer exactly when g is factor-critical
    (Gallai's lemma), so a disconnected g fails before any walk is built:
    either G - 0 has no perfect matching, or some vertex is not outer.

    Each vertex joins the frontier heap at most once, when it first
    neighbours a placed vertex; the unplaced vertices on the heap are then
    the same as with a push per placed neighbour, and so is the minimum each
    ear starts from.
    """
    n = g.n
    if n % 2 == 0:
        raise NotFactorCritical(
            "graphs of even order are not factor-critical", witness=0
        )
    if n == 1:
        raise PreconditionViolated(
            "an ear decomposition needs at least 3 vertices"
        )
    match = near_perfect_matching(g, 0)
    if match is None:
        raise NotFactorCritical("no perfect matching avoiding vertex", witness=0)
    tree = AlternatingTree(g, match, 0)
    w = tree.first_non_outer()
    if w is not None:
        raise NotFactorCritical("no perfect matching avoiding vertex", witness=w)

    adj = g.adjacency
    circuit = tree.even_path_to(adj[0][0]) + [0]
    walks = [circuit]
    placed = [False] * n
    queued = [False] * n
    frontier: list[int] = []
    push = heapq.heappush

    def place(xs):
        for x in xs:
            placed[x] = queued[x] = True
        for x in xs:
            for y in adj[x]:
                if not queued[y]:
                    queued[y] = True
                    push(frontier, y)

    place(circuit[:-1])
    remaining = n - (len(circuit) - 1)

    while remaining > 0:
        while frontier and placed[frontier[0]]:
            heapq.heappop(frontier)
        if not frontier:
            raise InternalError("ran out of frontier before covering all vertices")
        v = heapq.heappop(frontier)
        suffix = tree.path_from_placed(v, placed)
        # the neighbour tuple is sorted: its first placed entry is the least
        suffix.append(next(filter(placed.__getitem__, adj[v])))
        walks.append(suffix)
        place(suffix[1:-1])
        remaining -= len(suffix) - 2
    return walks


def maximalize(d: EarDecomposition) -> EarDecomposition:
    """Slice until every odd edge lies on its own ear.

    d is checked first and InvariantViolation names what is broken.  Trivial
    ears are normalized to the tail (sorted and canonical).  The slicing is
    the solver's own, `_slice`, and one `_scan` checks its result; the
    trivial ears are the edges the sliced walks leave.
    """
    errs = validate_decomposition(d)
    if errs:
        raise InvariantViolation("; ".join(errs))
    adj = d.host.adjacency
    walks, _, _ = _slice(adj, [list(ear.vertices) for ear in d.ears if not ear.trivial])
    errs, labels, positions, marks = _scan(adj, walks)
    if errs:
        raise InternalError("sliced decomposition invalid: " + "; ".join(errs))
    walks += _unmarked_edges(adj, marks)
    return EarDecomposition(
        host=d.host,
        ears=tuple(Ear(tuple(w)) for w in walks),
        labels=tuple(labels),
        positions=tuple(positions),
    )


def _slice(adj, walks):
    """The slicing loop on the nontrivial `walks` (lists, in order) over the
    graph with sorted neighbour tuples `adj`: the finished walks in order,
    with each vertex's first-ear label and position on them (-1 for a
    vertex on no finished walk).

    The walks sit on a stack with the circuit on top.  Each round pops a
    walk, which is the circuit exactly when no walk has finished yet, and
    looks for its lowest off-ear odd edge.  With none the walk is finished;
    otherwise the walk and the edge become two odd ears, pushed so that the
    one in the walk's place (the new circuit, or the ear keeping the walk's
    ends) is popped next.  Each slice splits a walk into two shorter ones,
    so the loop ends; a piece that is not shorter raises InternalError.
    A cut along an edge already on another walk leaves it on two.

    Every chord of the circuit is odd, so the circuit's round looks from
    each of its vertices.  On a later walk of odd length L an edge between
    new vertices at positions p < q is odd when p and L - q are odd, that is
    p odd and q even, and off the walk when q > p + 1, so q >= p + 3 and
    p <= L - 4: the round looks only from positions 1, 3, ..., L - 4, at
    neighbours at even positions from p + 3 on, and meets each such edge
    once, from its odd end.  A walk of length 3 has none.  The positions
    compared and cut at are the stored ones, so a faulty walk that repeats
    a vertex is still cut into two shorter pieces.

    The result is maximal.  A popped walk's ends lie on finished walks, so
    the vertices it labels (the circuit's, or the interior) are the ones new
    on it, at their positions on it; the finished walks are the ears in
    order, and no later round relabels those vertices, so each round's
    number, taken in the order the walks finish, gives the first-ear labels
    and positions.  An odd edge has both ends first on one ear, at odd
    distances from that ear's ends unless that ear is the circuit, so the
    round that finished the ear looked at the edge, and a walk finishes only
    when each edge it looks at joins consecutive vertices of the walk, that
    is, lies on it.
    """
    stack = walks[::-1]
    # label[v]: the round that last placed v, 0 for none; rank[r]: the
    # index of round r's walk among the finished ones, -1 while it is not
    label = [0] * len(adj)
    pos = [-1] * len(adj)
    rank = [-1]
    done: list = []
    while stack:
        walk = stack.pop()
        wid = len(rank)
        rank.append(-1)
        circuit = not done
        length = len(walk) - 1
        intro = walk[:-1] if circuit else walk[1:-1]
        for p, v in enumerate(intro, 0 if circuit else 1):
            label[v] = wid
            pos[v] = p
        best = None
        if circuit:
            for w in intro:
                pw = pos[w]
                for y in adj[w]:
                    if y <= w or label[y] != wid:
                        continue
                    diff = (pos[y] - pw) % length
                    if diff != 1 and diff != length - 1:
                        e = (w, y)
                        if best is None or e < best:
                            best = e
        else:
            for w in walk[1 : length - 3 : 2]:
                pw = pos[w]
                for y in adj[w]:
                    if label[y] == wid:
                        py = pos[y]
                        if py % 2 == 0 and py > pw + 2:
                            e = (w, y) if w < y else (y, w)
                            if best is None or e < best:
                                best = e
        if best is None:
            rank[wid] = len(done)
            done.append(walk)
            continue

        a, b = best
        pa, pb = sorted((pos[a], pos[b]))
        if circuit:
            cycle = walk[:-1]
            if (pb - pa) % 2 == 0:
                first = cycle[pa : pb + 1] + [cycle[pa]]
                second = cycle[pb:] + cycle[: pa + 1]
            else:
                first = cycle[pb:] + cycle[: pa + 1] + [cycle[pb]]
                second = cycle[pa : pb + 1]
        else:
            first = walk[: pa + 1] + walk[pb:]
            second = walk[pa : pb + 1]
        if len(first) >= len(walk) or len(second) >= len(walk):
            raise InternalError(f"slicing along {best} does not shorten its walk")
        # the first piece is popped next: it may still carry off-ear odd edges
        stack += (second, first)
    labels = list(map(rank.__getitem__, label))
    return done, labels, pos
