import contextlib
import dataclasses
import functools
import itertools
import random
import signal

import pytest

import trimatch
import trimatch.partition as partition_module
from trimatch import (
    Ear,
    EarDecomposition,
    Hypergraph,
    make_bipartite,
    make_graph,
    make_hypergraph,
)
from trimatch.ears import _scan
from trimatch.errors import InternalError, NotRegular, PreconditionViolated
from trimatch.matching import (
    BipartiteGraph,
    Matching,
    _hopcroft_karp,
    require_regular_bipartite,
)

# The generators, memoized for the test session: tests draw many instances
# with the same arguments again, and each instance is frozen, so every
# caller may share it.  test_generate.py spies on the generators' rounds
# and test_acceptance.py times them with the solver, so both call the
# generators themselves.
random_triple_system = functools.cache(trimatch.random_triple_system)
random_regular_bipartite = functools.cache(trimatch.random_regular_bipartite)

FANO_LINES = [
    (0, 1, 2),
    (0, 3, 4),
    (0, 5, 6),
    (1, 3, 5),
    (1, 4, 6),
    (2, 3, 6),
    (2, 4, 5),
]


@pytest.fixture
def triple():
    """The hyperedge {0,1,2} with multiplicity 3."""
    return make_hypergraph(3, [(0, 1, 2)] * 3, k=3)


@pytest.fixture
def four_triples():
    """All four 3-subsets of {0,1,2,3}."""
    return make_hypergraph(4, list(itertools.combinations(range(4), 3)), k=3)


@pytest.fixture
def fano():
    """The Fano plane: 7 points, 7 lines, 3-uniform 3-regular."""
    return make_hypergraph(7, FANO_LINES, k=3)


@pytest.fixture
def fano_incidence():
    """Point/line incidence bipartite graph of the Fano plane (A = lines)."""
    edges = [(a, v) for a, line in enumerate(FANO_LINES) for v in line]
    return make_bipartite(7, 7, edges)


@functools.cache
def seeded_odd_instances():
    """{(n, seed): random_triple_system(n, seed, require_connected=True)}
    for odd n 3..401 and seeds 1-3, drawn once per test session."""
    return {
        (n, seed): random_triple_system(n, seed, require_connected=True)
        for n in range(3, 402, 2)
        for seed in (1, 2, 3)
    }


def five_quads_with(hyperedges):
    """The 4-regular five quads on 0..4, hand-built with `hyperedges` in
    place of its first ones, bypassing `make_hypergraph`, which would sort
    or refuse them."""
    quads = [tuple(v for v in range(5) if v != skip) for skip in range(5)]
    quads[:len(hyperedges)] = hyperedges
    return Hypergraph(n=5, hyperedges=tuple(quads), multiplicities=(1,) * 5, k=4)


def hypergraph_union(parts):
    """The hypergraphs side by side, each shifted past the ones before."""
    edges, mults, offset = [], [], 0
    for h in parts:
        edges.extend(tuple(v + offset for v in e) for e in h.hyperedges)
        mults.extend(h.multiplicities)
        offset += h.n
    return make_hypergraph(offset, edges, k=parts[0].k, multiplicities=mults)


DISCONNECTED = "the hypergraph is disconnected; solve each component separately"


def disconnected_odd_unions():
    """{shape: a disconnected 3-uniform 3-regular hypergraph with an odd
    vertex count}.  Vertex 0 lies in a factor-critical odd component beside
    even ones, in an even component, in one of three odd components, in a
    tripled triple, or wherever a shuffle of the ids puts it."""
    def connected(n, seed):
        return random_triple_system(n, seed, require_connected=True)

    tripled = make_hypergraph(3, [(0, 1, 2)] * 3, k=3)
    four = make_hypergraph(4, list(itertools.combinations(range(4), 3)), k=3)
    shapes = {
        "odd-beside-even": [connected(21, 1), connected(10, 2), connected(8, 3)],
        "even-first": [connected(10, 2), connected(21, 1)],
        "three-odd": [connected(5, 1), connected(7, 2), connected(9, 3)],
        "tripled-triple": [tripled, four],
        "tripled-triple-last": [connected(10, 2), tripled],
    }
    out = {shape: hypergraph_union(parts) for shape, parts in shapes.items()}
    out["shuffled"] = relabelled(out["odd-beside-even"], random.Random(4))
    return out


def relabelled(h, rng):
    """h with its vertex ids dealt out at random."""
    ids = list(range(h.n))
    rng.shuffle(ids)
    return make_hypergraph(
        h.n, [[ids[v] for v in e] for e in h.hyperedges], k=h.k,
        multiplicities=h.multiplicities,
    )


def partition_union_hypergraph(k, q, seed, repeat_first):
    """k-uniform k-regular hypergraph on k * q vertices: the k-sets of k
    random partitions of the vertices into k-sets, the first one taken
    twice when `repeat_first` (so its k-sets are repeated hyperedges)."""
    rng = random.Random(seed)
    rounds = []
    for r in range(k):
        if r == 1 and repeat_first:
            rounds.append(rounds[0])
            continue
        ids = list(range(k * q))
        rng.shuffle(ids)
        rounds.append([sorted(ids[i:i + k]) for i in range(0, k * q, k)])
    return make_hypergraph(k * q, [e for part in rounds for e in part], k=k)


def rotate_block_ids(monkeypatch, n, k=3):
    """Make `solve_components` on a k-uniform input with n vertices hand
    back each block's certificate with wrong ids.  At k = 3 each block is
    solved in its own ids, and these are rotated by one inside the block
    before they are mapped back.  At k > 3 the blocks' certificates are
    read in the input's ids off one extraction, and each residual
    certificate is rotated by one inside the input component that the map
    of `_fitting_residual` gives it, before they are grouped."""
    solve_connected = partition_module._solve_connected
    fitting_residual = partition_module._fitting_residual

    def turned(cert, block):
        def turn(ids):
            return tuple(block[(block.index(v) + 1) % len(block)] for v in ids)

        triangle = None if cert.triangle is None else turn(cert.triangle)
        return dataclasses.replace(
            cert, triangle=triangle, pairs=tuple(map(turn, cert.pairs))
        )

    def rotated(sub, g):
        cert = solve_connected(sub, g)
        return cert if sub.n == n else turned(cert, range(sub.n))

    def rotated_residual(adj, n_b, k, witness, adj_b):
        slots, certs, part_of = fitting_residual(adj, n_b, k, witness, adj_b)
        if part_of is None:
            return slots, certs, part_of
        blocks = {}
        for b in range(n_b):
            blocks.setdefault(part_of[b], []).append(b)
        first = [(c.triangle or c.pairs[0])[0] for c in certs]
        return slots, [turned(c, blocks[part_of[v]]) for c, v in zip(certs, first)], part_of

    if k == 3:
        monkeypatch.setattr(partition_module, "_solve_connected", rotated)
    else:
        monkeypatch.setattr(partition_module, "_fitting_residual", rotated_residual)


def circulant_hypergraph(n, a, b):
    """The 3-uniform 3-regular hypergraph on 0..n-1 whose hyperedge i is
    {i, i + a, i + b} mod n: ids that follow the structure.  a = 1, b = 2
    gives the ring."""
    return make_hypergraph(n, ({i, (i + a) % n, (i + b) % n} for i in range(n)), k=3)


def circulant_bipartite(n, k):
    """The k-regular bipartite graph with n vertices a side whose A-vertex a
    is adjacent to a, a + 1, ..., a + k - 1 mod n, each a's edges in
    increasing order."""
    return make_bipartite(
        n, n, [(a, b) for a in range(n) for b in sorted((a + j) % n for j in range(k))]
    )


def cycle_graph(n):
    return make_graph(n, [(i, (i + 1) % n) for i in range(n)])


def complete_graph(n):
    return make_graph(n, list(itertools.combinations(range(n), 2)))


def assemble(host, walks):
    """The decomposition with these walks as its ears, each vertex labelled
    with the first walk it occurs on and its position there.  Nothing is
    checked, so broken walks give a broken value."""
    _, labels, positions, _ = _scan(host.adjacency, walks)
    return EarDecomposition(
        host=host,
        ears=tuple(Ear(tuple(w)) for w in walks),
        labels=tuple(labels),
        positions=tuple(positions),
    )


# `extract_disjoint_perfect_matchings` as it was while it took a rotation
# and `lu` read its residual from the Matching objects, verbatim but for the
# `old_` prefix on its name: the reference for `_peel` at every rotation.


def old_extract_disjoint_perfect_matchings(
    bg: BipartiteGraph, t: int, _rotation: int = 0
) -> list[Matching]:
    """t pairwise edge-disjoint perfect matchings of a regular bipartite graph.

    After removing them the graph is (k-t)-regular.  `_rotation` rotates the
    A-side order in which the matcher scans for its greedy start and its
    search roots; the default order is part of the output contract, the
    rotation is an internal knob.
    """
    k = require_regular_bipartite(bg)
    if t < 0 or t > k:
        raise PreconditionViolated(f"cannot extract {t} matchings from degree {k}")
    if bg.n_a != bg.n_b:
        raise NotRegular("regular bipartite graph must have equal sides")
    # the first matching reads the host's sorted lists as they are; each
    # later one a copy without the edges matched last, which stays sorted
    adj = bg.adj_a
    out = []
    order = [(i + _rotation) % bg.n_a for i in range(bg.n_a)]
    for _ in range(t):
        if out:
            adj = [[b for b in nbrs if b != m] for nbrs, m in zip(adj, match_a)]
        match_a = _hopcroft_karp(adj, bg.n_b, order)
        if -1 in match_a:
            raise InternalError(
                "regular bipartite graph lost its perfect matching"
            )
        out.append(Matching(pairs=tuple(enumerate(match_a)), host=bg))
    return out


def hand_edited(text):
    """`text` as an editor might leave it: CRLF line ends, a comment line
    and a blank line after its first line, and every space doubled.  None
    of these is the writers' form, so the text takes the line loop."""
    first, *rest = text.splitlines()
    lines = [first, "c a comment", "", *rest]
    return "".join(line + "\r\n" for line in lines).replace(" ", "  ")


@contextlib.contextmanager
def time_limit(seconds):
    """Raise TimeoutError in the block after `seconds`: a search whose
    stamps or lists are stale can walk a p[] cycle for ever, and a slicer
    whose cut-off pieces are not shorter than their walks can fill memory;
    this turns either into a failure.  No limit where there is no interval timer.  Also
    a decorator, which limits the whole test."""
    if not hasattr(signal, "setitimer"):
        yield
        return

    def expire(signum, frame):
        raise TimeoutError(f"no result within {seconds} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)
