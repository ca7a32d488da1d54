"""Seeded instance generators.

All randomness comes from splitmix64, written out below so any implementation
can reproduce corpora bit-exactly: the 64-bit state advances by the constant
0x9E3779B97F4A7C15, and each output mixes the new state with

    z = state
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9   (mod 2**64)
    z = (z ^ (z >> 27)) * 0x94D049BB133111EB   (mod 2**64)
    return z ^ (z >> 31)

Identical (parameters, seed) always produce byte-identical instances.
"""

from __future__ import annotations

from operator import eq

from .core import Hypergraph, _shadow_lists, components, make_hypergraph
from .errors import GenerationFailed, PreconditionViolated
from .matching import BipartiteGraph, _hopcroft_karp, make_bipartite

_MASK = (1 << 64) - 1
_GAMMA = 0x9E3779B97F4A7C15

REJECTION_CAP = 10_000


class SplitMix64:
    """Splittable 64-bit generator (splitmix64)."""

    def __init__(self, seed: int):
        self._state = seed & _MASK
        self._seed0 = seed & _MASK

    def next_u64(self) -> int:
        self._state = (self._state + _GAMMA) & _MASK
        z = self._state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK
        return z ^ (z >> 31)

    def next_below(self, n: int) -> int:
        """Uniform draw in [0, n) by rejection, bias-free."""
        if n <= 0:
            raise ValueError("bound must be positive")
        limit = _MASK + 1 - ((_MASK + 1) % n)
        while True:
            x = self.next_u64()
            if x < limit:
                return x % n

    def shuffle(self, xs: list) -> None:
        """In-place Fisher-Yates, descending, with draw i from
        `next_below(i + 1)`.

        The splitmix64 step runs in a local loop.  Every bound here is at
        most len(xs), and `next_below`'s rejection limit for a bound n is
        above 2**64 - n, so a draw below 2**64 - len(xs) is always kept;
        only a draw at or above it needs the exact limit.
        """
        state = self._state
        safe = _MASK + 1 - len(xs)
        for i in range(len(xs) - 1, 0, -1):
            n = i + 1
            while True:
                state = (state + _GAMMA) & _MASK
                z = ((state ^ (state >> 30)) * 0xBF58476D1CE4E5B9) & _MASK
                z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK
                z ^= z >> 31
                if z < safe or z < _MASK + 1 - ((_MASK + 1) % n):
                    break
            j = z % n
            xs[i], xs[j] = xs[j], xs[i]
        self._state = state

    def spawn(self, index: int) -> "SplitMix64":
        """Independent child stream number `index` of this generator's seed."""
        return SplitMix64((self._seed0 ^ ((index + 1) * _GAMMA)) & _MASK)


def _permutation(rng: SplitMix64, n: int) -> list[int]:
    xs = list(range(n))
    rng.shuffle(xs)
    return xs


def random_triple_system(
    n: int, seed: int, require_connected: bool = False
) -> Hypergraph:
    """Random 3-uniform 3-regular hypergraph on n vertices, n hyperedges.

    Permutation model: three independent random bijections from hyperedge
    slots to vertices; a draw is rejected whenever some slot repeats a vertex
    (and, optionally, when the result is disconnected).
    """
    if n < 3:
        raise PreconditionViolated("need at least 3 vertices")
    rng = SplitMix64(seed)
    for _ in range(REJECTION_CAP):
        a, b, c = (_permutation(rng, n) for _ in range(3))
        # a slot repeats a vertex exactly when two columns agree there
        if any(map(eq, a, b)) or any(map(eq, a, c)) or any(map(eq, b, c)):
            continue
        h = make_hypergraph(n, zip(a, b, c), k=3)
        if require_connected and len(components(_shadow_lists(h)).blocks) > 1:
            continue
        return h
    raise GenerationFailed(
        f"no valid draw within {REJECTION_CAP} rounds (n={n}, seed={seed})"
    )


def random_regular_bipartite(n_side: int, k: int, seed: int) -> BipartiteGraph:
    """Random simple k-regular bipartite graph on sides of size n_side.

    Union of k random perfect matchings; each matching is redrawn until the
    union stays simple.  (Redrawing whole k-tuples instead would need about
    e^(k(k-1)/2) rounds, which blows the rejection cap already at k = 5.)
    A matching still clashing after REJECTION_CAP redraws, as happens when
    k is close to n_side, is taken from the complement instead.
    """
    if not n_side >= k >= 1:
        raise PreconditionViolated("need side size >= degree >= 1")
    rng = SplitMix64(seed)
    perms: list[list[int]] = []
    for _ in range(k):
        for _ in range(REJECTION_CAP):
            cand = _permutation(rng, n_side)
            if not any(any(map(eq, cand, perm)) for perm in perms):
                break
        else:
            cand = _complement_matching(rng, n_side, perms)
        perms.append(cand)
    edges = [(i, perm[i]) for perm in perms for i in range(n_side)]
    return make_bipartite(n_side, n_side, edges)


def _complement_matching(rng: SplitMix64, n_side: int, perms) -> list[int]:
    """A perfect matching of K(n_side, n_side) that avoids the j < n_side
    perfect matchings `perms`, as the partner of each A-vertex.

    What `perms` leaves is (n_side - j)-regular bipartite, so it has a
    perfect matching (König); Hopcroft-Karp finds one, scanning A in an
    order drawn from `rng` and each A-vertex's free partners in a second
    drawn order.
    """
    order_a, order_b = _permutation(rng, n_side), _permutation(rng, n_side)
    adj = [[b for b in order_b if b not in used] for used in map(set, zip(*perms))]
    return _hopcroft_karp(adj, n_side, order_a)
