"""Seeded generators: determinism, validity, and the splitmix64 stream."""

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


def test_bipartite_precondition():
    with pytest.raises(PreconditionViolated):
        random_regular_bipartite(2, 3, seed=0)


def test_instance_counts():
    h = random_triple_system(11, seed=9)
    assert h.n == 11
    assert h.total_multiplicity == 11
