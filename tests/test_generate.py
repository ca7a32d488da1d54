"""Seeded generators: determinism, validity, and the splitmix64 stream."""

import hashlib

import pytest

from trimatch import (
    components,
    random_regular_bipartite,
    random_triple_system,
    shadow_graph,
    validate,
)
from trimatch.formats import format_bipartite, format_hypergraph
from trimatch.generate import SplitMix64
from trimatch.errors import PreconditionViolated


def test_splitmix64_reference_stream():
    # first outputs of the published splitmix64 for seed 1234567
    rng = SplitMix64(1234567)
    assert rng.next_u64() == 6457827717110365317
    assert rng.next_u64() == 3203168211198807973
    assert rng.next_u64() == 9817491932198370423


def test_splitmix64_spawn_independent():
    rng = SplitMix64(99)
    a = rng.spawn(0)
    b = rng.spawn(1)
    assert a.next_u64() != b.next_u64()
    assert SplitMix64(99).spawn(0).next_u64() == SplitMix64(99).spawn(0).next_u64()


def test_next_below_range():
    rng = SplitMix64(5)
    draws = [rng.next_below(7) for _ in range(200)]
    assert set(draws) <= set(range(7))
    assert len(set(draws)) == 7


def test_triple_system_n3_is_forced():
    h = random_triple_system(3, seed=0)
    assert h.hyperedges == ((0, 1, 2),)
    assert h.multiplicities == (3,)


def test_triple_system_valid_and_deterministic():
    a = random_triple_system(7, seed=42)
    b = random_triple_system(7, seed=42)
    assert a == b
    assert format_hypergraph(a) == format_hypergraph(b)
    assert validate(a, 3).ok
    c = random_triple_system(7, seed=43)
    assert validate(c, 3).ok


def test_triple_system_connected_flag():
    for n in (4, 9, 20):
        h = random_triple_system(n, seed=n, require_connected=True)
        assert validate(h, 3).ok
        assert len(components(shadow_graph(h)).blocks) == 1


def test_triple_system_rejects_tiny():
    with pytest.raises(PreconditionViolated):
        random_triple_system(2, seed=0)


def test_bipartite_k33_forced():
    bg = random_regular_bipartite(3, 3, seed=0)
    assert bg.m == 9
    assert all(len(adj) == 3 for adj in bg.adj_a)


def test_bipartite_valid_and_deterministic():
    a = random_regular_bipartite(7, 3, seed=1)
    b = random_regular_bipartite(7, 3, seed=1)
    assert a == b and format_bipartite(a) == format_bipartite(b)
    assert all(len(x) == 3 for x in a.adj_a)
    assert all(len(x) == 3 for x in a.adj_b)
    # adjacency lists are strictly increasing and read off the edge list
    for n_side, k, seed in [(7, 3, 1), (12, 4, 2), (30, 5, 3), (50, 6, 4)]:
        bg = random_regular_bipartite(n_side, k, seed)
        assert bg.adj_a == tuple(
            tuple(sorted({b for a, b in bg.edges if a == x})) for x in range(bg.n_a)
        )
        assert bg.adj_b == tuple(
            tuple(sorted({a for a, b in bg.edges if b == y})) for y in range(bg.n_b)
        )


def is_simple_regular(bg, n_side, k):
    return (
        bg.n_a == bg.n_b == n_side
        and len(set(bg.edges)) == bg.m == n_side * k
        and {len(adj) for adj in bg.adj_a + bg.adj_b} == {k}
    )


@pytest.mark.parametrize("n_side, k, seed", [(8, 8, 1), (8, 7, 2), (7, 6, 762)])
def test_bipartite_dense_requests_once_called_infeasible(n_side, k, seed):
    """Each raised GenerationFailed when a matching's redraws hit the cap."""
    bg = random_regular_bipartite(n_side, k, seed)
    assert is_simple_regular(bg, n_side, k)
    assert bg == random_regular_bipartite(n_side, k, seed)


def test_bipartite_every_degree_up_to_the_side_size():
    for n_side in range(1, 9):
        for k in range(1, n_side + 1):
            for seed in range(20):
                bg = random_regular_bipartite(n_side, k, seed)
                assert is_simple_regular(bg, n_side, k), (n_side, k, seed)


def test_bipartite_precondition():
    with pytest.raises(PreconditionViolated):
        random_regular_bipartite(2, 3, seed=0)


def test_instance_counts():
    h = random_triple_system(11, seed=9)
    assert h.n == 11
    assert h.total_multiplicity == 11


def generated_instances():
    """Instance texts from both generators over a spread of sizes and seeds,
    connected draws included."""
    for n in range(3, 40):
        for seed in (0, 1, 7):
            yield format_hypergraph(random_triple_system(n, seed))
        yield format_hypergraph(random_triple_system(n, n, require_connected=True))
    for n in (101, 500):
        yield format_hypergraph(random_triple_system(n, 3, require_connected=True))
    for k in range(1, 7):
        for n_side in list(range(k, k + 12)) + [60, 200]:
            yield format_bipartite(random_regular_bipartite(n_side, k, 31 * n_side + k))


# SHA-256 over the texts of `generated_instances`, in order
GENERATED_SHA256 = "71c661805a8546e7e84ae7e8ac993509014f24c4872d7280a27783dd93b1de2f"


def test_generated_instance_bytes_are_pinned():
    digest = hashlib.sha256()
    for text in generated_instances():
        digest.update(text.encode("ascii"))
    assert digest.hexdigest() == GENERATED_SHA256


def reference_shuffle(rng, xs):
    """Fisher-Yates, descending, on `next_below`: the shuffle's definition."""
    for i in range(len(xs) - 1, 0, -1):
        j = rng.next_below(i + 1)
        xs[i], xs[j] = xs[j], xs[i]


def test_shuffle_draws_as_next_below_does():
    for seed in range(40):
        for length in (0, 1, 2, 3, 10, 97):
            fast, slow = SplitMix64(seed), SplitMix64(seed)
            xs, ys = list(range(length)), list(range(length))
            fast.shuffle(xs)
            reference_shuffle(slow, ys)
            assert xs == ys
            # and leaves the stream where the reference leaves it
            assert fast.next_u64() == slow.next_u64()


def _unxorshift(y, s):
    """The x with x ^ (x >> s) == y."""
    x = y
    for _ in range(64 // s + 1):
        x = y ^ (x >> s)
    return x


def state_before(output):
    """The splitmix64 state whose next output is `output`: the finalizer
    inverted, one step back."""
    mod = 1 << 64
    z = _unxorshift(output, 31)
    z = _unxorshift(z * pow(0x94D049BB133111EB, -1, mod) % mod, 27)
    z = _unxorshift(z * pow(0xBF58476D1CE4E5B9, -1, mod) % mod, 30)
    return (z - 0x9E3779B97F4A7C15) % mod


@pytest.mark.parametrize("length", [3, 10, 12, 97])
@pytest.mark.parametrize("back", [1, 2, 3, 5])
def test_shuffle_rejects_as_next_below_does(length, back):
    """A first draw at 2**64 - back, at or above the shuffle's fast bound
    2**64 - length: `next_below(length)` keeps it exactly when it lies
    below 2**64 - (2**64 % length), and the shuffle must agree."""
    output = (1 << 64) - back
    assert SplitMix64(state_before(output)).next_u64() == output
    fast, slow = SplitMix64(state_before(output)), SplitMix64(state_before(output))
    xs, ys = list(range(length)), list(range(length))
    fast.shuffle(xs)
    reference_shuffle(slow, ys)
    assert xs == ys
    assert fast.next_u64() == slow.next_u64()


def test_forced_first_draws_reach_both_branches():
    """Among the draws above, some are rejected and some kept."""
    kept = set()
    for length in (3, 10, 12, 97):
        for back in (1, 2, 3, 5):
            rng = SplitMix64(state_before((1 << 64) - back))
            first = rng.next_u64()
            kept.add(first < (1 << 64) - ((1 << 64) % length))
    assert kept == {True, False}
