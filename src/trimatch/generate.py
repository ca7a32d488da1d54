"""Seeded instance generators.

All randomness comes from splitmix64, written out below so any implementation
can reproduce corpora bit-exactly: the 64-bit state advances by the constant
0x9E3779B97F4A7C15, and each output mixes the new state with

    z = state
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9   (mod 2**64)
    z = (z ^ (z >> 27)) * 0x94D049BB133111EB   (mod 2**64)
    return z ^ (z >> 31)

Identical (parameters, seed) always produce byte-identical instances.

A generator's bytes are fixed by eager rounds of shuffles drawn one after
another from one stream; each function's docstring gives its round.  A
rejected round is evaluated only up to its first clash, and the stream is
then moved on by exactly the draws the eager round takes.  That count is
known in advance when no draw of the round can be rejected inside
`next_below`, which a draw can only be if its output lies at or above
2**64 - L for a shuffle of length L.  The finalizer above is a bijection,
so those L outputs come from L known states, and a round whose states
hold one of them is run eagerly instead.
"""

from __future__ import annotations

from bisect import bisect_left
from operator import eq

from .core import Hypergraph, _shadow_lists, components, make_hypergraph
from .errors import GenerationFailed, PreconditionViolated
from .matching import BipartiteGraph, _hopcroft_karp, make_bipartite

_MASK = (1 << 64) - 1
_GAMMA = 0x9E3779B97F4A7C15
_MIX1 = 0xBF58476D1CE4E5B9
_MIX2 = 0x94D049BB133111EB
_UNSTEP = pow(_GAMMA, -1, _MASK + 1)

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
        if n > _MASK + 1:
            raise ValueError("bound must be at most 2**64")
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


def _unsafe_steps(length: int) -> list[int]:
    """Sorted step indices, state * GAMMA^-1 mod 2**64, of the `length`
    states whose output lies at or above 2**64 - length: the only draws
    that a shuffle of at most `length` items can reject.  The state with
    step index t is t * GAMMA, so the draws after a state s have the step
    indices that follow s's, in order and mod 2**64."""
    mod = _MASK + 1
    unmix1, unmix2 = pow(_MIX1, -1, mod), pow(_MIX2, -1, mod)
    steps = []
    for z in range(mod - length, mod):
        # the finalizer inverted: each x ^ (x >> s) undone by its closed form
        z ^= (z >> 31) ^ (z >> 62)
        z = (z * unmix2) & _MASK
        z ^= (z >> 27) ^ (z >> 54)
        z = (z * unmix1) & _MASK
        z ^= (z >> 30) ^ (z >> 60)
        steps.append((z * _UNSTEP) & _MASK)
    steps.sort()
    return steps


def _all_kept(unsafe: list[int], state: int, count: int) -> bool:
    """Whether none of the `count` draws after `state` has its step index in
    `unsafe`, so that `next_below` keeps each: the next unsafe step index at
    or after the first draw's, wrapping past 2**64, is `count` or more on."""
    first = (state * _UNSTEP + 1) & _MASK
    i = bisect_left(unsafe, first)
    return (unsafe[i % len(unsafe)] - first) & _MASK >= count


def _lockstep_round(state: int, n: int) -> tuple[list[int], ...] | None:
    """The round of three shuffles that the eager triple-system round draws
    from `state`, or None if it repeats a vertex in a slot.

    The shuffles of a, b and c take the draws at offsets 1..m, m+1..2m and
    2m+1..3m, m = n - 1, when no draw is rejected, and a descending
    Fisher-Yates fixes position i at step i; so the three run side by side
    and stop at the first slot that repeats a vertex.
    """
    m = n - 1
    a, b, c = list(range(n)), list(range(n)), list(range(n))
    sa = state
    sb = (state + m * _GAMMA) & _MASK
    sc = (state + 2 * m * _GAMMA) & _MASK
    for i in range(m, 0, -1):
        bound = i + 1
        sa = (sa + _GAMMA) & _MASK
        z = ((sa ^ (sa >> 30)) * _MIX1) & _MASK
        z = ((z ^ (z >> 27)) * _MIX2) & _MASK
        j = (z ^ (z >> 31)) % bound
        x = a[j]
        a[j] = a[i]
        a[i] = x
        sb = (sb + _GAMMA) & _MASK
        z = ((sb ^ (sb >> 30)) * _MIX1) & _MASK
        z = ((z ^ (z >> 27)) * _MIX2) & _MASK
        j = (z ^ (z >> 31)) % bound
        y = b[j]
        b[j] = b[i]
        b[i] = y
        sc = (sc + _GAMMA) & _MASK
        z = ((sc ^ (sc >> 30)) * _MIX1) & _MASK
        z = ((z ^ (z >> 27)) * _MIX2) & _MASK
        j = (z ^ (z >> 31)) % bound
        w = c[j]
        c[j] = c[i]
        c[i] = w
        if x == y or x == w or y == w:
            return None
    if a[0] == b[0] or a[0] == c[0] or b[0] == c[0]:
        return None
    return a, b, c


def _lazy_redraw(state: int, n_side: int, taken: list[tuple]) -> list[int] | None:
    """The matching that one eager bipartite redraw shuffles from `state`,
    or None if it gives some A-vertex i a partner in `taken[i]`.

    The shuffle takes the draws at offsets 1..n_side - 1 when none is
    rejected, and position i is fixed at step i, so it stops at the first
    clash.
    """
    xs = list(range(n_side))
    for i in range(n_side - 1, 0, -1):
        state = (state + _GAMMA) & _MASK
        z = ((state ^ (state >> 30)) * _MIX1) & _MASK
        z = ((z ^ (z >> 27)) * _MIX2) & _MASK
        j = (z ^ (z >> 31)) % (i + 1)
        x = xs[j]
        xs[j] = xs[i]
        xs[i] = x
        if x in taken[i]:
            return None
    return None if xs[0] in taken[0] else xs


def random_triple_system(
    n: int, seed: int, require_connected: bool = False
) -> Hypergraph:
    """Random 3-uniform 3-regular hypergraph on n vertices, n hyperedges.

    Permutation model: three independent random bijections from hyperedge
    slots to vertices; a draw is rejected whenever some slot repeats a vertex
    (and, optionally, when the result is disconnected).

    The bytes are those of the eager round: shuffle a, then b, then c, each
    a fresh `list(range(n))` through `SplitMix64.shuffle`, and hyperedge i
    is (a[i], b[i], c[i]); the round is redrawn from where the stream stands
    while some slot repeats a vertex.  A round whose draws are all kept
    (`_all_kept`) is run by `_lockstep_round`, which stops at the first
    repeat; the stream then moves on by the 3(n - 1) draws of the eager
    round.
    """
    if n < 3:
        raise PreconditionViolated("need at least 3 vertices")
    rng = SplitMix64(seed)
    span = 3 * (n - 1)
    unsafe = _unsafe_steps(n)
    for _ in range(REJECTION_CAP):
        state = rng._state
        if _all_kept(unsafe, state, span):
            rng._state = (state + span * _GAMMA) & _MASK
            cols = _lockstep_round(state, n)
            if cols is None:
                continue
            a, b, c = cols
        else:
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

    The bytes are those of the eager redraw: shuffle a fresh
    `list(range(n_side))` through `SplitMix64.shuffle`, A-vertex i taking
    partner cand[i], and reject it when some i has that partner in a
    matching already kept.  A redraw whose draws are all kept (`_all_kept`)
    is run by `_lazy_redraw`, which stops at the first clash; the stream
    then moves on by the n_side - 1 draws of the eager redraw.
    """
    if not n_side >= k >= 1:
        raise PreconditionViolated("need side size >= degree >= 1")
    rng = SplitMix64(seed)
    span = n_side - 1
    unsafe = _unsafe_steps(n_side)
    perms: list[list[int]] = []
    for _ in range(k):
        # the partners each A-vertex already has
        taken = list(zip(*perms)) if perms else [()] * n_side
        for _ in range(REJECTION_CAP):
            state = rng._state
            if _all_kept(unsafe, state, span):
                rng._state = (state + span * _GAMMA) & _MASK
                cand = _lazy_redraw(state, n_side, taken)
                if cand is not None:
                    break
            else:
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
