"""Seeded generators: determinism, validity, and the splitmix64 stream."""

import hashlib
from operator import eq

import pytest

import trimatch.generate as generate_module
from trimatch import (
    components,
    make_bipartite,
    make_hypergraph,
    random_regular_bipartite,
    random_triple_system,
    shadow_graph,
    validate,
)
from trimatch.core import _shadow_lists
from trimatch.formats import format_bipartite, format_hypergraph
from trimatch.generate import (
    REJECTION_CAP,
    SplitMix64,
    _all_kept,
    _complement_matching,
    _permutation,
    _unsafe_steps,
)
from trimatch.errors import GenerationFailed, PreconditionViolated


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


def test_next_below_refuses_bounds_above_2_64():
    """A bound above 2**64 leaves no output to keep; it once made
    `next_below` draw forever.  The draws are counted, so the old loop
    fails here instead of hanging."""
    rng = SplitMix64(1)
    draws = []

    def counted():
        draws.append(None)
        assert len(draws) < 100, "next_below keeps drawing"
        return SplitMix64.next_u64(rng)

    rng.next_u64 = counted
    for bound in (2**64 + 1, 2**65, 3 * 2**64):
        with pytest.raises(ValueError):
            rng.next_below(bound)
    # 2**64 itself keeps every output
    assert rng.next_below(2**64) == SplitMix64(1).next_u64()
    assert len(draws) == 1


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
    # each reaches `_complement_matching` after 10,000 redraws
    assert bg == eager_regular_bipartite(n_side, k, seed)


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


# The generators as they were before rounds were evaluated lazily, kept
# verbatim: their draws define the bytes.


def eager_triple_system(
    n: int, seed: int, require_connected: bool = False
):
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


def eager_regular_bipartite(n_side: int, k: int, seed: int):
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


GAMMA = 0x9E3779B97F4A7C15
TOP = 1 << 64


def seed_with_output_at(output, offset):
    """The seed whose stream gives `output` as its draw number `offset`."""
    return (state_before(output) - (offset - 1) * GAMMA) % TOP


def seed_at_step(index):
    """The seed whose state has step index `index`, so that the draws after
    it have the step indices index + 1, index + 2, ... mod 2**64."""
    return index * GAMMA % TOP


def kept_by_every_bound(state, count, length):
    """Whether the `count` draws after `state` all lie below
    2**64 - length, drawn one by one."""
    rng = SplitMix64(state)
    return all(rng.next_u64() < TOP - length for _ in range(count))


def test_all_kept_reads_the_next_unsafe_step_around_the_circle():
    unsafe = [5, 100, TOP - 10]
    for index, count, kept in [
        (3, 1, True),
        (4, 1, False),  # the first draw is step 5
        (5, 94, True),  # steps 6..99
        (5, 95, False),  # steps 6..100
        (TOP - 12, 1, True),
        (TOP - 11, 1, False),
        (TOP - 3, 7, True),  # steps 2**64 - 2, 2**64 - 1, 0..4
        (TOP - 3, 8, False),  # ... and 5
        (TOP - 1, 5, True),  # steps 0..4: the range starts past the top
        (TOP - 1, 6, False),
        (TOP - 10, 14, True),  # steps 2**64 - 9 .. 4
        (TOP - 10, 15, False),
        (100, TOP - 111, True),  # steps 101 .. 2**64 - 11
        (100, TOP - 110, False),
    ]:
        assert _all_kept(unsafe, seed_at_step(index), count) is kept, (index, count)


@pytest.mark.parametrize("length", [1, 2, 3, 10, 12, 97])
def test_unsafe_steps_are_the_states_of_the_top_outputs(length):
    unsafe = _unsafe_steps(length)
    assert unsafe == sorted(unsafe) and len(set(unsafe)) == length
    for back in range(1, length + 1):
        output = TOP - back
        for offset in (1, 2, 5, 3 * length):
            seed = seed_with_output_at(output, offset)
            for count in (offset - 1, offset, offset + 4):
                assert _all_kept(unsafe, seed, count) == kept_by_every_bound(
                    seed, count, length
                ), (back, offset, count)


@pytest.mark.parametrize("connected", [False, True])
def test_triple_system_matches_the_eager_rounds(connected):
    for n in range(3, 61):
        for seed in (0, 1, 2, 7):
            assert random_triple_system(n, seed, connected) == eager_triple_system(
                n, seed, connected
            ), (n, seed)


def spy_on_rounds(monkeypatch, lazy_name):
    """Record each round as (how, start state, result): "lazy" through
    `lazy_name`, or "eager" through one `_permutation` call."""
    rounds = []
    lazy, eager = getattr(generate_module, lazy_name), generate_module._permutation

    def lazy_spy(state, *args):
        rounds.append(("lazy", state, lazy(state, *args)))
        return rounds[-1][2]

    def eager_spy(rng, n):
        rounds.append(("eager", rng._state, eager(rng, n)))
        return rounds[-1][2]

    monkeypatch.setattr(generate_module, lazy_name, lazy_spy)
    monkeypatch.setattr(generate_module, "_permutation", eager_spy)
    return rounds


def triple_rounds(monkeypatch, n, seed, connected):
    """The triple system's round starts; each eager round is one entry,
    and each is checked to be one whose draws `next_below` might reject."""
    rounds = spy_on_rounds(monkeypatch, "_lockstep_round")
    h = random_triple_system(n, seed, connected)
    monkeypatch.undo()
    assert h == eager_triple_system(n, seed, connected)
    starts = []
    while rounds:
        kind, state, _ = rounds.pop(0)
        if kind == "eager":
            assert [kind for kind, _, _ in rounds[:2]] == ["eager", "eager"]
            del rounds[:2]
        # a round is lazy exactly when its 3(n - 1) draws are all kept
        assert (kind == "lazy") == kept_by_every_bound(state, 3 * (n - 1), n)
        starts.append((kind, state))
    return starts


@pytest.mark.parametrize("n", [5, 10, 12, 31])
@pytest.mark.parametrize("top", ["highest", "lowest"])
def test_triple_system_with_a_draw_at_the_top_matches_the_eager_rounds(
    monkeypatch, n, top
):
    """An unsafe output at each round boundary and in later rounds: the
    round that holds it runs eagerly, every other round runs lazily, and
    the bytes stay those of the eager rounds.  The highest output,
    2**64 - 1, is rejected by every bound that is no power of 2, as n = 5,
    10, 12 and 31 are; the lowest, 2**64 - n, is kept by every bound."""
    m = n - 1
    output = TOP - 1 if top == "highest" else TOP - n
    rejected = 0
    # the boundaries of rounds 1 and 2, then draw r + 1 of round r + 1
    for offset in [1, m - 1, m, m + 1, 2 * m, 2 * m + 1, 3 * m, 3 * m + 1] + [
        3 * m * r + 1 + r for r in (2, 3, 5)
    ]:
        seed = seed_with_output_at(output, offset)
        for connected in (False, True):
            starts = triple_rounds(monkeypatch, n, seed, connected)
            # the rounds before the one holding the draw are lazy and take
            # 3m draws each
            before = (offset - 1) // (3 * m)
            if len(starts) > before:
                start = (seed + before * 3 * m * GAMMA) % TOP
                assert starts[before] == ("eager", start)
                assert all(kind == "lazy" for kind, _ in starts[:before])
        bound = n - (offset - 1) % m
        rejected += output >= TOP - TOP % bound
    assert (rejected > 0) == (top == "highest")


@pytest.mark.parametrize("n", [5, 12, 60])
def test_triple_system_over_the_top_of_the_step_indices(monkeypatch, n):
    """Rounds whose step indices wrap past 2**64 hold no unsafe state,
    so they run lazily."""
    m = n - 1
    for back in (1, 2, m, 2 * m, 3 * m - 1, 3 * m, 3 * m + 1):
        for connected in (False, True):
            starts = triple_rounds(monkeypatch, n, seed_at_step(TOP - back), connected)
            assert all(kind == "lazy" for kind, _ in starts)


def bipartite_redraws(monkeypatch, n_side, k, seed):
    """The bipartite generator's redraws, checked as the triple system's
    rounds are.  The complement draws its two orders by `_permutation` as
    well, so callers keep k well below n_side."""
    rounds = spy_on_rounds(monkeypatch, "_lazy_redraw")
    bg = random_regular_bipartite(n_side, k, seed)
    monkeypatch.undo()
    assert bg == eager_regular_bipartite(n_side, k, seed)
    for kind, state, _ in rounds:
        assert (kind == "lazy") == kept_by_every_bound(state, n_side - 1, n_side)
    return rounds


def test_bipartite_matches_the_eager_redraws():
    for n_side in range(1, 25):
        for k in range(1, min(n_side, 5) + 1):
            for seed in (0, 1, 5):
                assert random_regular_bipartite(n_side, k, seed) == (
                    eager_regular_bipartite(n_side, k, seed)
                ), (n_side, k, seed)


@pytest.mark.parametrize("n_side", [3, 7, 10, 12])
@pytest.mark.parametrize("top", ["highest", "lowest"])
def test_bipartite_with_a_draw_at_the_top_at_each_redraw_boundary(
    monkeypatch, n_side, top
):
    """An unsafe output as the first or last draw of redraw number r: that
    redraw runs eagerly, the ones before it lazily."""
    m = n_side - 1
    output = TOP - 1 if top == "highest" else TOP - n_side
    for r in range(6):
        for offset in (r * m + 1, r * m + m):
            seed = seed_with_output_at(output, offset)
            rounds = bipartite_redraws(monkeypatch, n_side, 3, seed)
            if len(rounds) > r:
                assert all(kind == "lazy" for kind, _, _ in rounds[:r])
                assert rounds[r][:2] == ("eager", (seed + r * m * GAMMA) % TOP)


@pytest.mark.parametrize("n_side", [7, 10, 12])
def test_bipartite_with_a_draw_at_the_top_of_an_abandoned_redraw(
    monkeypatch, n_side
):
    """A rejected output, 2**64 - 1 at bound 3, placed on the draw that
    fixes position 2 of redraw number r.  Where that redraw clashes at a
    higher position, the lazy redraw would stop before the draw; the
    redraw runs eagerly instead and takes the one extra draw."""
    m, k = n_side - 1, 4
    abandoned = 0
    for r in range(24):
        seed = seed_with_output_at(TOP - 1, r * m + m - 1)
        rounds = bipartite_redraws(monkeypatch, n_side, k, seed)
        if len(rounds) <= r:
            continue
        # the redraws before number r take m draws each
        assert all(kind == "lazy" for kind, _, _ in rounds[:r])
        assert rounds[r][:2] == ("eager", (seed + r * m * GAMMA) % TOP)
        perms = [perm for _, _, perm in rounds[:r] if perm is not None]
        cand = rounds[r][2]
        clashes = [i for i in range(n_side) if any(p[i] == cand[i] for p in perms)]
        abandoned += max(clashes, default=0) > 2
    assert abandoned > 0
    # redraws whose step indices wrap past 2**64
    for back in (1, 2, m, m + 1):
        rounds = bipartite_redraws(monkeypatch, n_side, k, seed_at_step(TOP - back))
        assert all(kind == "lazy" for kind, _, _ in rounds)
