"""Odd ear decompositions: construction, odd-edge predicate, slicing."""

import dataclasses
import functools
import heapq
import itertools
import random
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from trimatch import (
    Ear,
    EarDecomposition,
    dump_decomposition,
    ear_label,
    is_factor_critical,
    is_odd_edge,
    last_nontrivial_ear,
    make_graph,
    make_hypergraph,
    maximalize,
    odd_ear_decomposition,
    shadow_graph,
    solve,
    validate_decomposition,
    verify_partition,
)
import trimatch.ears as ears_module
import trimatch.partition as partition_module
from trimatch.core import _shadow_lists, canonical_edge
from trimatch.ears import (
    _ear_walks,
    _scan,
    _slice,
    _unmarked_edges,
)
from trimatch.errors import (
    InternalError,
    InvariantViolation,
    NotFactorCritical,
    PreconditionViolated,
)
from trimatch.matching import AlternatingTree, near_perfect_matching

from conftest import (
    assemble,
    circulant_hypergraph,
    complete_graph,
    cycle_graph,
    random_triple_system,
    seeded_odd_instances,
    time_limit,
)
from prefix_census import SAME_EAR_INSTANCES


def nontrivial_count(d):
    return sum(1 for e in d.ears if not e.trivial)


def test_k3_single_circuit():
    d = odd_ear_decomposition(complete_graph(3))
    assert len(d.ears) == 1
    assert d.ears[0].n_edges == 3
    assert not validate_decomposition(d)


def test_c5_single_circuit():
    d = odd_ear_decomposition(cycle_graph(5))
    assert len(d.ears) == 1
    assert d.ears[0].n_edges == 5
    assert not validate_decomposition(d)


def test_k5_accepted_by_invariant_checker():
    d = odd_ear_decomposition(complete_graph(5))
    assert not validate_decomposition(d)


def test_not_factor_critical_witness():
    path = make_graph(5, [(0, 1), (1, 2), (2, 3), (3, 4)])
    with pytest.raises(NotFactorCritical) as info:
        odd_ear_decomposition(path)
    assert info.value.witness is not None


def test_even_order_rejected():
    with pytest.raises(NotFactorCritical):
        odd_ear_decomposition(complete_graph(4))


def c5_plus_ear():
    g = make_graph(7, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 0), (0, 5), (5, 6), (6, 1)])
    d = assemble(g, [[0, 1, 2, 3, 4, 0], [0, 5, 6, 1]])
    assert not validate_decomposition(d)
    return d


def test_is_odd_edge_examples():
    c5 = odd_ear_decomposition(cycle_graph(5))
    assert all(is_odd_edge(c5, e) for e in c5.host.edges)

    d = c5_plus_ear()
    assert is_odd_edge(d, (5, 6))
    assert not is_odd_edge(d, (0, 5))
    with pytest.raises(ValueError):
        is_odd_edge(d, (2, 6))


def test_ear_label_examples():
    c5 = odd_ear_decomposition(cycle_graph(5))
    assert ear_label(c5, 3) == 0
    d = c5_plus_ear()
    assert ear_label(d, 5) == 1
    assert ear_label(d, 0) == 0
    with pytest.raises(ValueError):
        ear_label(d, 9)


def test_last_nontrivial_ear():
    assert last_nontrivial_ear(odd_ear_decomposition(cycle_graph(5))) == 0
    assert last_nontrivial_ear(odd_ear_decomposition(complete_graph(3))) == 0
    d = c5_plus_ear()
    assert last_nontrivial_ear(d) == 1
    g = make_graph(7, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 0), (0, 5), (5, 6), (6, 1), (0, 2)])
    d2 = assemble(g, [[0, 1, 2, 3, 4, 0], [0, 5, 6, 1], [0, 2]])
    assert last_nontrivial_ear(d2) == 1


def test_maximalize_fixpoints():
    k3 = odd_ear_decomposition(complete_graph(3))
    assert maximalize(k3) == k3
    d = maximalize(odd_ear_decomposition(complete_graph(5)))
    assert maximalize(d) == d


def test_maximalize_c5_with_chord():
    g = make_graph(5, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 0), (0, 2)])
    d = assemble(g, [[0, 1, 2, 3, 4, 0], [0, 2]])
    out = maximalize(d)
    assert not validate_decomposition(out)
    assert nontrivial_count(out) == 2
    assert sum(1 for e in out.ears if e.trivial) == 0
    assert out.ears[0].vertices == (0, 1, 2, 0)
    assert out.ears[1].vertices == (2, 3, 4, 0)
    # C7 with chord (0, 3): a circuit split across an odd span
    g = make_graph(7, [(i, (i + 1) % 7) for i in range(7)] + [(0, 3)])
    out = maximalize(assemble(g, [[0, 1, 2, 3, 4, 5, 6, 0], [0, 3]]))
    assert not validate_decomposition(out)
    assert [e.vertices for e in out.ears] == [(3, 4, 5, 6, 0, 3), (0, 1, 2, 3)]
    # a triangle, an ear 0-3-4-5-6-1 and chord (3, 6): an ear split
    g = make_graph(
        7, [(0, 1), (1, 2), (0, 2), (0, 3), (3, 4), (4, 5), (5, 6), (1, 6), (3, 6)]
    )
    out = maximalize(assemble(g, [[0, 1, 2, 0], [0, 3, 4, 5, 6, 1], [3, 6]]))
    assert not validate_decomposition(out)
    assert [e.vertices for e in out.ears] == [(0, 1, 2, 0), (0, 3, 6, 1), (3, 4, 5, 6)]


@time_limit(60)
def test_a_slice_along_an_edge_on_another_walk_is_reported_by_the_scan():
    """The slicer does not ask whether the edge it slices along is on a
    walk yet: here the chord (0, 2) of the C5 is also a walk of its own, so
    after the cut it lies on two walks, and the scan of the result names
    it."""
    g = make_graph(5, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 0), (0, 2)])
    walks, _, _ = _slice(g.adjacency, [[0, 1, 2, 3, 4, 0], [0, 2]])
    assert "edge (0, 2) appears on more than one ear" in _scan(g.adjacency, walks)[0]


def test_maximalize_keeps_canonical_trivial_ears_and_normalizes_the_rest():
    g = shadow_graph(random_triple_system(21, 4, require_connected=True))
    d = odd_ear_decomposition(g)
    out = maximalize(d)
    t = last_nontrivial_ear(out) + 1
    # the tail holds input trivial ears, which are canonical already
    assert t < len(out.ears) and set(out.ears[t:]) <= set(d.ears)
    # a reversed trivial ear comes out canonical
    ears = tuple(Ear(e.vertices[::-1]) if e.trivial else e for e in d.ears)
    assert maximalize(dataclasses.replace(d, ears=ears)) == out


def test_maximalize_rejects_invalid_input():
    g = make_graph(3, [(0, 1), (1, 2), (0, 2)])
    bad = assemble(g, [[0, 1, 2, 0], [0, 1]])  # edge reuse
    with pytest.raises(InvariantViolation):
        maximalize(bad)


@pytest.mark.parametrize(
    "labels, positions",
    [((0, 0, 0, 0, 1), (0, 1, 2, 3, 4)), ((0, 0, 0, 0, 0), (0, 1, 2, 4, 3))],
)
def test_validate_reports_stored_labels_that_disagree(labels, positions):
    """A decomposition whose walks are valid but whose stored first-ear labels
    or positions are not those of the walks."""
    d = EarDecomposition(
        host=cycle_graph(5),
        ears=(Ear(vertices=(0, 1, 2, 3, 4, 0)),),
        labels=labels,
        positions=positions,
    )
    assert validate_decomposition(d) == [
        "stored labels/positions disagree with the ears"
    ]


def no_off_ear_odd_edge(d):
    on_ear = [set(e.edge_walk()) for e in d.ears]
    for e in d.host.edges:
        if is_odd_edge(d, e) and e not in on_ear[d.labels[e[0]]]:
            return False
    return True


def test_maximalize_invariants_on_random_shadows():
    for n in range(5, 32, 2):
        for s in range(4):
            g = shadow_graph(random_triple_system(n, seed=97 * n + s, require_connected=True))
            d = odd_ear_decomposition(g)
            out = maximalize(d)
            assert not validate_decomposition(out)
            assert nontrivial_count(out) >= nontrivial_count(d)
            assert no_off_ear_odd_edge(out)
            # every nontrivial ear carries an odd edge right next to its end
            for ear in out.ears:
                if not ear.trivial:
                    w = ear.vertices
                    assert is_odd_edge(out, (w[1], w[2]))
            # trivial ears stay at the tail
            kinds = [e.trivial for e in out.ears]
            assert kinds == sorted(kinds)


def test_decomposition_edges_partition_host():
    g = shadow_graph(random_triple_system(11, seed=6, require_connected=True))
    d = maximalize(odd_ear_decomposition(g))
    seen = set()
    for ear in d.ears:
        for e in ear.edge_walk():
            assert e not in seen
            seen.add(e)
    assert seen == set(g.edges)


def test_dump_format():
    d = c5_plus_ear()
    text = dump_decomposition(d)
    lines = text.splitlines()
    assert lines[0] == "ear 0 nontrivial : 0 1 2 3 4 0"
    assert lines[1] == "ear 1 nontrivial : 0 5 6 1"


def test_out_of_range_ear_vertex_is_a_violation():
    """An ear vertex outside 0..n-1 is reported by the checker, never used as
    an index, and makes maximalize raise InvariantViolation."""
    for bad in (5, 3, -1):
        d = EarDecomposition(
            host=complete_graph(3),
            ears=(Ear((0, 1, 2, 0)), Ear((1, bad))),
            labels=(0, 0, 0),
            positions=(0, 1, 2),
        )
        assert validate_decomposition(d) == [
            f"ear 1 has vertex {bad} out of range [0, 3)"
        ]
        with pytest.raises(InvariantViolation, match="out of range"):
            maximalize(d)


def test_out_of_range_circuit_vertex_is_a_violation():
    d = EarDecomposition(
        host=complete_graph(3),
        ears=(Ear((0, 1, 7, 0)),),
        labels=(0, 0, -1),
        positions=(0, 1, -1),
    )
    assert validate_decomposition(d)[0] == "ear 0 has vertex 7 out of range [0, 3)"


# Copies of the checks as they were before they became one pass; the
# rewritten checks must agree with them message for message.


def _first_seen(n, walks):
    """Index of the first walk on which each vertex occurs, and its position
    there (-1 for vertices on no walk)."""
    labels = [-1] * n
    positions = [-1] * n
    for i, w in enumerate(walks):
        for j, v in enumerate(w):
            if labels[v] == -1:
                labels[v] = i
                positions[v] = j
    return tuple(labels), tuple(positions)


def old_validate_decomposition(d):
    host = d.host
    errs = []
    if not d.ears:
        return ["decomposition has no ears"]
    used = set()
    placed = set()
    for i, ear in enumerate(d.ears):
        w = ear.vertices
        if len(w) < 2:
            errs.append(f"ear {i} has no edges")
            continue
        if ear.n_edges % 2 == 0:
            errs.append(f"ear {i} has an even number of edges")
        for j in range(len(w) - 1):
            u, v = w[j], w[j + 1]
            if u == v or not host.has_edge(u, v):
                errs.append(f"ear {i} uses non-edge ({u}, {v})")
                continue
            ce = canonical_edge(u, v)
            if ce in used:
                errs.append(f"edge {ce} appears on more than one ear")
            used.add(ce)
        if i == 0:
            if w[0] != w[-1]:
                errs.append("the initial ear is not a closed circuit")
            if ear.n_edges < 3:
                errs.append("the initial circuit has fewer than 3 edges")
            if len(set(w[:-1])) != ear.n_edges:
                errs.append("the initial circuit repeats a vertex")
            placed.update(w[:-1])
        else:
            if w[0] not in placed or w[-1] not in placed:
                errs.append(f"ear {i} endpoints do not lie on earlier ears")
            internal = w[1:-1]
            if len(set(internal)) != len(internal):
                errs.append(f"ear {i} repeats an interior vertex")
            if any(v in placed for v in internal):
                errs.append(f"ear {i} interior revisits a placed vertex")
            placed.update(internal)
    if placed != set(range(host.n)):
        errs.append("ears do not cover the vertex set")
    if used != set(host.edges):
        errs.append("ear edges do not partition the host edge set")
    if _first_seen(host.n, (e.vertices for e in d.ears)) != (d.labels, d.positions):
        errs.append("stored labels/positions disagree with the ears")
    return errs


def old_assert_maximal(d):
    """The maximality check as the solver once ran it: every odd edge of d
    lies on its ear."""
    on_ear = [set(e.edge_walk()) for e in d.ears]
    for e in d.host.edges:
        if is_odd_edge(d, e) and e not in on_ear[d.labels[e[0]]]:
            raise InternalError(f"odd edge {e} is off its ear after slicing")


def slicing_instances():
    """Odd n 3..401 with seeds 1-3, the seven same-ear seeds and one
    instance each at odd n 501, 1001 and 2001."""
    hs = list(seeded_odd_instances().values())
    hs += [random_triple_system(n, seed, require_connected=True)
           for n, seed in SAME_EAR_INSTANCES]
    hs += [random_triple_system(n, 3, require_connected=True) for n in (501, 1001, 2001)]
    return hs


@time_limit(120)
def test_the_solvers_sliced_walks_are_maximal(monkeypatch):
    """Nothing in the solver checks the walks, labels and positions that
    `_slice` gives; those an odd solve reads, with the edges the walks
    leave as trivial ears, are a valid decomposition that passes the old
    maximality check."""
    seen = []

    def spy(adj, walks):
        out = _slice(adj, walks)
        seen.append(out)
        return out

    monkeypatch.setattr(partition_module, "_slice", spy)
    for h in slicing_instances():
        seen.clear()
        solve(h)
        (walks, labels, positions), = seen
        g = shadow_graph(h)
        marks = _scan(g.adjacency, walks)[3]
        d = EarDecomposition(
            host=g,
            ears=tuple(map(Ear, map(tuple, walks + _unmarked_edges(g.adjacency, marks)))),
            labels=tuple(labels),
            positions=tuple(positions),
        )
        assert not validate_decomposition(d), h.n
        assert old_assert_maximal(d) is None, h.n


def as_sliced(adj, walks):
    """`walks` as they came, with the first-ear labels and positions that
    `_slice` would give them: a stand-in for a slicer that cuts nothing."""
    _, labels, positions, _ = _scan(adj, walks)
    return walks, labels, positions


@time_limit(120)
def test_an_unsliced_solve_is_refused_or_verifies(monkeypatch):
    """With `_slice` returning its walks as they came, each solve ends in
    InternalError or in a certificate that verifies: no unchecked
    decomposition reaches the output."""
    monkeypatch.setattr(partition_module, "_slice", as_sliced)
    for h in slicing_instances():
        try:
            cert = solve(h)
        except InternalError:
            continue
        assert verify_partition(h, cert).ok, h.n


def outcome(check, d):
    """What a check returns, or the class and message of what it raises."""
    try:
        return check(d)
    except Exception as exc:  # compared, never swallowed
        return type(exc), str(exc)


WHOLE = (
    "ears do not cover the vertex set",
    "ear edges do not partition the host edge set",
    "stored labels/positions disagree with the ears",
)


def old_validate_outcome(d):
    """outcome(old_validate_decomposition, d).  The old check indexed with a
    vertex out of range; for one on the last ear the expected outcome is the
    old check's without that ear, with the one-pass check's report of it
    after the per-ear violations and before the whole-decomposition ones."""
    n = d.host.n
    bad = [v for v in d.ears[-1].vertices if not 0 <= v < n]
    if not bad:
        return outcome(old_validate_decomposition, d)
    errs = old_validate_decomposition(dataclasses.replace(d, ears=d.ears[:-1]))
    k = len(errs)
    while k and errs[k - 1] in WHOLE:
        k -= 1
    report = f"ear {len(d.ears) - 1} has vertex {bad[0]} out of range [0, {n})"
    return errs[:k] + [report] + errs[k:]


def mutants(d, rng):
    """Broken copies of d: swapped vertices, a dropped, duplicated, even or
    open ear, stored labels or positions that disagree with the walks, and
    a broken trivial tail."""
    walks = [list(e.vertices) for e in d.ears]
    n = d.host.n

    def build(ws, labels=None, positions=None):
        if labels is None or positions is None:
            own_labels, own_positions = _first_seen(n, ws)
        return EarDecomposition(
            host=d.host,
            ears=tuple(Ear(tuple(w)) for w in ws),
            labels=own_labels if labels is None else tuple(labels),
            positions=own_positions if positions is None else tuple(positions),
        )

    out = []
    for _ in range(3):
        ws = [list(w) for w in walks]
        spots = [(i, j) for i, w in enumerate(ws) for j in range(len(w))]
        (i1, j1), (i2, j2) = rng.sample(spots, 2)
        ws[i1][j1], ws[i2][j2] = ws[i2][j2], ws[i1][j1]
        out.append(build(ws))
        out.append(build(ws, d.labels, d.positions))
    for i in {0, 1, len(walks) - 1, rng.randrange(len(walks))}:
        if i < len(walks):
            out.append(build(walks[:i] + walks[i + 1 :]))
            out.append(build(walks[: i + 1] + walks[i:]))
            out.append(build(walks + [walks[i]]))
            even = [list(w) for w in walks]
            even[i] = even[i][:-1] if len(even[i]) > 2 else even[i] + [even[i][0]]
            out.append(build(even))
    out.append(build([walks[0][:-1]] + walks[1:]))
    out.append(build([walks[0] + [walks[0][1]]] + walks[1:]))
    out.append(build(walks[1:] + walks[:1]))
    out.append(build([[walks[0][0]]] + walks))
    for field in ("labels", "positions"):
        for _ in range(3):
            values = list(getattr(d, field))
            values[rng.randrange(n)] = rng.randrange(-1, len(walks))
            out.append(build(walks, **{field: values}))
    # a host edge whose two ends both carry label -1, which indexes the last
    # ear from the back: an edge of the last ear, and any host edge
    for u, v in (walks[-1][:2], rng.choice(d.host.edges)):
        labels = list(d.labels)
        labels[u] = labels[v] = -1
        out.append(build(walks, labels=labels))
    return out + tail_mutants(d, walks, build, rng)


def tail_mutants(d, walks, build, rng):
    """Breakages confined to the run of trivial ears at the tail, which the
    solver leaves unlisted."""
    t = last_nontrivial_ear(d) + 1
    tail = range(t, len(walks))
    if not tail:
        return []
    n = d.host.n
    out = []
    # reversed: still its edge, but not canonical
    ws = [list(w) for w in walks]
    ws[rng.choice(tail)].reverse()
    out.append(build(ws))
    # duplicated within the tail
    j = rng.choice(tail)
    out.append(build(walks[:j] + [walks[rng.choice(tail)]] + walks[j:]))
    # an edge of a nontrivial ear once more, as a trivial ear in the tail
    w = walks[rng.randrange(t)]
    a = rng.randrange(len(w) - 1)
    j = rng.choice(tail)
    out.append(build(walks[:j] + [sorted(w[a : a + 2])] + walks[j:]))
    # on a non-edge
    others = [
        e for e in itertools.combinations(range(n), 2) if e not in d.host.edge_set
    ]
    if others:
        ws = list(walks)
        ws[rng.choice(tail)] = list(rng.choice(others))
        out.append(build(ws))
    # a vertex out of range on the last ear, with the stored labels
    ws = walks[:-1] + [[walks[-1][0], n]]
    out.append(build(ws, d.labels, d.positions))
    # moved in front of the last nontrivial ear, from an end that ear places
    # when there is one (otherwise the move may leave the ears valid)
    inner = set(walks[t - 1][1:-1])
    j = rng.choice([j for j in tail if inner & set(walks[j])] or tail)
    out.append(build(walks[: t - 1] + [walks[j]] + walks[t - 1 : j] + walks[j + 1 :]))
    return out


def non_edge_mutants(d):
    """Copies of d whose circuit, and whose last nontrivial ear, take a
    non-edge at their first, a middle and their last step: the vertex at
    that step's end replaced by one that is not adjacent to the vertex
    before it, or by that vertex itself."""
    walks = [list(e.vertices) for e in d.ears]
    adj = d.host.adjacency
    n = d.host.n
    out = []
    for i in sorted({0, last_nontrivial_ear(d)}):
        m = len(walks[i]) - 1
        for j, before in ((0, 1), (m // 2 + 1, m // 2), (m, m - 1)):
            u = walks[i][before]
            far = next((x for x in range(n) if x != u and x not in adj[u]), None)
            for x in (u, far):
                if x is None:
                    continue
                ws = [list(w) for w in walks]
                ws[i][j] = x
                labels, positions = _first_seen(n, ws)
                out.append(EarDecomposition(
                    host=d.host,
                    ears=tuple(Ear(tuple(w)) for w in ws),
                    labels=labels,
                    positions=positions,
                ))
    return out


@functools.cache
def mutant_cases():
    """(d, maximalize(d), the mutants of both) for odd n 5..61, two seeds
    each, with one rng drawn in that order."""
    rng = random.Random(5)
    out = []
    for n in range(5, 62, 2):
        for s in range(2):
            g = shadow_graph(random_triple_system(n, seed=31 * n + s, require_connected=True))
            d = odd_ear_decomposition(g)
            sliced = maximalize(d)
            out.append((d, sliced, mutants(d, rng) + mutants(sliced, rng)))
    return out


def test_one_pass_checks_agree_with_the_old_checks():
    broken = caught = unsliced = non_edges = 0
    for d, out, cases in mutant_cases():
        assert not validate_decomposition(d) and not validate_decomposition(out)
        for x in [d, out] + cases:
            errs = outcome(validate_decomposition, x)
            assert errs == old_validate_outcome(x)
        assert old_assert_maximal(out) is None
        for x in non_edge_mutants(d) + non_edge_mutants(out):
            errs = validate_decomposition(x)
            assert errs == old_validate_outcome(x)
            assert any("uses non-edge" in e for e in errs)
            non_edges += 1
        broken += len(cases)
        caught += sum(1 for x in cases if validate_decomposition(x))
        unsliced += outcome(old_assert_maximal, d) is not None
    # a few mutants are valid (a swap of equal vertices, an unchanged label)
    assert broken > 3000 and caught > 0.95 * broken
    # the unsliced decompositions that slicing would change fail the check
    assert unsliced > 20
    assert non_edges > 500


# Copies of the one-pass checks as they were on edge tuples: a set of the
# host's edges, a set of the edges used so far, and the run of trivial ears
# at the tail checked in bulk.  The slot marks must agree with them.


def tuple_set_scan(host, walks):
    n = host.n
    labels = [-1] * n
    positions = [-1] * n
    errs = []
    edge_set = host.edge_set
    used = set()
    placed = [False] * n
    flat = list(itertools.chain.from_iterable(walks))
    in_range = not flat or (min(flat) >= 0 and max(flat) < n)
    trivial_run = len(list(itertools.takewhile((2).__eq__, map(len, reversed(walks)))))
    tail = max(len(walks) - trivial_run, 1)
    bulk = 0
    for i, w in enumerate(walks):
        if i == tail and all(placed):
            run = walks[i:]
            edges = set(map(tuple, run))
            if (
                len(edges) == len(run)
                and edges <= edge_set
                and used.isdisjoint(edges)
            ):
                bulk = len(edges)
                break
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
                e = (u, v) if u < v else (v, u)
                if u == v or e not in edge_set:
                    errs.append(f"ear {i} uses non-edge ({u}, {v})")
                elif e in used:
                    errs.append(f"edge {e} appears on more than one ear")
                else:
                    used.add(e)
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
    if len(used) + bulk != len(edge_set):
        errs.append("ear edges do not partition the host edge set")
    return errs, labels, positions


def tuple_set_validate(d):
    if not d.ears:
        return ["decomposition has no ears"]
    errs, labels, positions = tuple_set_scan(d.host, [ear.vertices for ear in d.ears])
    if (tuple(labels), tuple(positions)) != (d.labels, d.positions):
        errs.append("stored labels/positions disagree with the ears")
    return errs


def test_slot_marks_check_as_the_edge_tuple_sets_did():
    """Violations, labels and positions are those of the tuple-set checks
    on every mutant; where the ears are valid, the unmarked edges are the
    trivial ears."""
    valid = 0
    for d, out, cases in mutant_cases():
        for x in [d, out] + cases:
            assert outcome(validate_decomposition, x) == outcome(tuple_set_validate, x)
            walks = [e.vertices for e in x.ears]
            _, labels, positions, _ = _scan(x.host.adjacency, walks)
            assert (labels, positions) == tuple_set_scan(x.host, walks)[1:]
            if not validate_decomposition(x):
                valid += 1
                nontrivial = [w for w in walks if len(w) > 2]
                marks = _scan(x.host.adjacency, nontrivial)[3]
                trivial = sorted(canonical_edge(*w) for w in walks if len(w) == 2)
                assert trivial == _unmarked_edges(x.host.adjacency, marks)
    assert valid > 100


# A copy of the ear walks as they were built with a heap push per placed
# neighbour and the trivial ears as the host edges the walks leave; the
# push-once frontier must give the same walks, and the unmarked edges the
# same trivial ears.


def push_per_neighbour_ear_walks(g):
    n = g.n
    if n % 2 == 0:
        raise NotFactorCritical("graphs of even order are not factor-critical", witness=0)
    if n == 1:
        raise PreconditionViolated("an ear decomposition needs at least 3 vertices")
    match = near_perfect_matching(g, 0)
    if match is None:
        raise NotFactorCritical("no perfect matching avoiding vertex", witness=0)
    tree = AlternatingTree(g, match, 0)
    w = tree.first_non_outer()
    if w is not None:
        raise NotFactorCritical("no perfect matching avoiding vertex", witness=w)

    start = g.adjacency[0][0]
    circuit = tree.even_path_to(start) + [0]
    walks = [circuit]
    placed = [False] * n
    frontier = []

    def place(v):
        placed[v] = True
        for y in g.adjacency[v]:
            if not placed[y]:
                heapq.heappush(frontier, y)

    for v in circuit[:-1]:
        place(v)
    remaining = n - (len(circuit) - 1)

    while remaining > 0:
        while frontier and placed[frontier[0]]:
            heapq.heappop(frontier)
        if not frontier:
            raise InternalError("ran out of frontier before covering all vertices")
        v = heapq.heappop(frontier)
        suffix = tree.path_from_placed(v, placed)
        close = min(y for y in g.adjacency[v] if placed[y])
        walks.append(suffix + [close])
        for x in suffix[1:]:
            place(x)
        remaining -= len(suffix) - 1

    covered = {
        (a, b) if a < b else (b, a) for walk in walks for a, b in zip(walk, walk[1:])
    }
    return walks, dict.fromkeys(e for e in g.edges if e not in covered)


def test_push_once_frontier_walks_like_a_push_per_neighbour():
    """On odd n 3..401 with seeds 1-3, the seven same-ear seeds and the
    triangle, as the solver reads its shadow graph."""
    hs = list(seeded_odd_instances().values())
    hs += [random_triple_system(n, seed, require_connected=True)
           for n, seed in SAME_EAR_INSTANCES]
    hs.append(make_hypergraph(3, [(0, 1, 2)] * 3, k=3))
    for h in hs:
        g = shadow_graph(h)
        old_walks, old_trivial = push_per_neighbour_ear_walks(g)
        walks = _ear_walks(_shadow_lists(h))
        assert walks == old_walks, h.n
        marks = _scan(g.adjacency, walks)[3]
        assert _unmarked_edges(g.adjacency, marks) == list(old_trivial), h.n
    assert len(hs) == 200 * 3 + 7 + 1


# A copy of the slicing loop as it was before it ran on a stack of walks,
# with a counter per split shape; the stack must produce the same ears.


def old_maximalize(d, shapes):
    errs = validate_decomposition(d)
    if errs:
        raise InvariantViolation("; ".join(errs))
    host = d.host
    adj = host.adjacency
    n = host.n

    trivial_set = {
        canonical_edge(e.vertices[0], e.vertices[1])
        for e in d.ears
        if e.trivial
    }
    label = [-1] * n
    pos = [-1] * n
    tok_walk: list[list[int]] = []
    tok_len: list[int] = []
    tok_intro: list[list[int]] = []

    def make_token(walk, is_circuit):
        tok = len(tok_walk)
        tok_walk.append(walk)
        tok_len.append(len(walk) - 1)
        intro = walk[:-1] if is_circuit else walk[1:-1]
        offset = 0 if is_circuit else 1
        for off, v in enumerate(intro):
            label[v] = tok
            pos[v] = offset + off
        tok_intro.append(list(intro))
        return tok

    order = []
    for i, ear in enumerate(e for e in d.ears if not e.trivial):
        order.append(make_token(list(ear.vertices), i == 0))

    idx = 0
    while idx < len(order):
        tok = order[idx]
        length = tok_len[tok]
        best = None
        for w in tok_intro[tok]:
            pw = pos[w]
            for y in adj[w]:
                if y <= w or label[y] != tok:
                    continue
                py = pos[y]
                if idx == 0:
                    diff = (py - pw) % length
                    if diff == 1 or diff == length - 1:
                        continue
                else:
                    lo, hi = (pw, py) if pw < py else (py, pw)
                    if hi - lo == 1:
                        continue
                    if lo % 2 == 0 or (length - hi) % 2 == 0:
                        continue
                e = (w, y)
                if best is None or e < best:
                    best = e
        if best is None:
            idx += 1
            continue

        a, b = best
        if best not in trivial_set:
            raise InternalError(f"off-ear odd edge {best} is not a trivial ear")
        trivial_set.remove(best)
        pa, pb = sorted((pos[a], pos[b]))
        if idx == 0:
            cycle = tok_walk[tok][:-1]
            if (pb - pa) % 2 == 0:
                shapes["even-span circuit split"] += 1
                circuit_walk = cycle[pa : pb + 1] + [cycle[pa]]
                branch_walk = cycle[pb:] + cycle[: pa + 1]
            else:
                shapes["odd-span circuit split"] += 1
                circuit_walk = cycle[pb:] + cycle[: pa + 1] + [cycle[pb]]
                branch_walk = cycle[pa : pb + 1]
            t_a = make_token(circuit_walk, True)
            t_b = make_token(branch_walk, False)
        else:
            shapes["ear split"] += 1
            walk = tok_walk[tok]
            t_a = make_token(walk[: pa + 1] + walk[pb:], False)
            t_b = make_token(walk[pa : pb + 1], False)
        order[idx : idx + 1] = [t_a, t_b]
        # stay on idx: the replacement ear may still carry off-ear odd edges

    final_walks = [tok_walk[t] for t in order]
    final_walks.extend([u, v] for u, v in sorted(trivial_set))
    out = assemble(host, final_walks)
    errs = validate_decomposition(out)
    if errs:
        raise InternalError("sliced decomposition invalid: " + "; ".join(errs))
    old_assert_maximal(out)
    return out


def reference_decompositions():
    """Triple-system shadows, factor-critical random graphs and odd cycles
    whose chords ride along as trivial ears."""
    for n in range(5, 100, 2):
        for s in (1, 2, 3):
            g = shadow_graph(random_triple_system(n, seed=s, require_connected=True))
            yield odd_ear_decomposition(g)
    rng = random.Random(7)
    found = 0
    while found < 150:
        n = rng.randrange(5, 40, 2)
        p = rng.uniform(0.15, 0.9)
        pairs = [e for e in itertools.combinations(range(n), 2) if rng.random() < p]
        g = make_graph(n, pairs)
        if is_factor_critical(g):
            found += 1
            yield odd_ear_decomposition(g)
    rng = random.Random(11)
    for n in range(5, 60, 2):
        chords = [
            (u, v)
            for u, v in itertools.combinations(range(n), 2)
            if v - u not in (1, n - 1) and rng.random() < 0.3
        ]
        g = make_graph(n, [(i, (i + 1) % n) for i in range(n)] + chords)
        yield assemble(g, [list(range(n)) + [0]] + [list(c) for c in chords])


@time_limit(120)
def test_stack_of_walks_slices_like_the_token_tables():
    shapes = Counter()
    count = 0
    for d in reference_decompositions():
        assert maximalize(d) == old_maximalize(d, shapes)
        count += 1
    assert count == 322
    # every split shape is reached often
    for shape in ("ear split", "even-span circuit split", "odd-span circuit split"):
        assert shapes[shape] >= 20, shapes


# `_slice` as it was before it looked for chords only from odd positions:
# each round looked from every new vertex at every neighbour, and kept the
# edges with an odd lower end at odd distance from the walk's far end.


def old_slice(adj, walks):
    stack = walks[::-1]
    label = [-1] * len(adj)
    pos = [-1] * len(adj)
    done = []
    wid = 0
    while stack:
        walk = stack.pop()
        wid += 1
        circuit = not done
        length = len(walk) - 1
        intro = walk[:-1] if circuit else walk[1:-1]
        for p, v in enumerate(intro, 0 if circuit else 1):
            label[v] = wid
            pos[v] = p
        best = None
        for w in intro:
            pw = pos[w]
            for y in adj[w]:
                if y <= w or label[y] != wid:
                    continue
                py = pos[y]
                if circuit:
                    diff = (py - pw) % length
                    if diff == 1 or diff == length - 1:
                        continue
                else:
                    lo, hi = (pw, py) if pw < py else (py, pw)
                    if hi - lo == 1:
                        continue
                    if lo % 2 == 0 or (length - hi) % 2 == 0:
                        continue
                e = (w, y)
                if best is None or e < best:
                    best = e
        if best is None:
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
        stack += (second, first)
    return done


# `_slice` as it was before it finished each walk in the round that popped
# it: each cut pushed both pieces back, and the walk kept was scanned again
# from its start in a round of its own.


def rescan_slice(adj, walks):
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


def slices_alike(n, edges, walks):
    """Both slicers on `walks` over the graph on 0..n-1 with `edges` (each
    pair once, either order); True when they slice at all."""
    nbrs = [set() for _ in range(n)]
    for u, v in edges:
        nbrs[u].add(v)
        nbrs[v].add(u)
    adj = tuple(tuple(sorted(s)) for s in nbrs)
    new, labels, positions = _slice(adj, [list(w) for w in walks])
    assert new == old_slice(adj, [list(w) for w in walks]), walks
    assert (labels, positions) == tuple(_scan(adj, new)[1:3]), walks
    assert (new, labels, positions) == rescan_slice(adj, [list(w) for w in walks]), walks
    return len(new) > len(walks)


@time_limit(120)
def test_odd_position_slicer_slices_like_the_old_one_on_solver_walks():
    sliced = 0
    for h in slicing_instances():
        g = _shadow_lists(h)
        walks = _ear_walks(g)
        new, labels, positions = _slice(g.adjacency, [list(w) for w in walks])
        assert new == old_slice(g.adjacency, walks), h.n
        assert (labels, positions) == tuple(_scan(g.adjacency, new)[1:3]), h.n
        assert (new, labels, positions) == rescan_slice(g.adjacency, walks), h.n
        sliced += len(new) > len(walks)
    assert sliced > 450


def walk_edges(walks):
    return [(w[i], w[i + 1]) for w in walks for i in range(len(w) - 1)]


@time_limit(120)
@pytest.mark.parametrize("shape", ["circuit", "open", "closed"])
def test_odd_position_slicer_on_every_planted_gap(shape):
    """One walk of odd length L, the circuit or an ear on a triangle, its
    vertices numbered up or down along it, and one edge planted between
    every pair of its positions at gaps 1-6 (the walk's ends included)."""
    sliced = 0
    for length in range(3, 16, 2):
        for down in (False, True):
            if shape == "circuit":
                ids = list(range(length))
                walk = ids[::-1] if down else ids
                walks = [walk + [walk[0]]]
            else:
                ids = list(range(3, length + 2))
                inner = ids[::-1] if down else ids
                walks = [[0, 1, 2, 0], [0, *inner, 0 if shape == "closed" else 1]]
            walk = walks[-1]
            n = max(walk) + 1
            for gap in range(1, 7):
                for p in range(len(walk) - gap):
                    u, v = walk[p], walk[p + gap]
                    edges = set(map(frozenset, walk_edges(walks)))
                    if u == v or {u, v} in edges:
                        continue
                    edges.add(frozenset((u, v)))
                    sliced += slices_alike(n, [tuple(e) for e in edges], walks)
    assert sliced >= 72


@time_limit(120)
@settings(max_examples=300, deadline=None)
@given(st.data())
def test_odd_position_slicer_on_random_walks_with_planted_edges(data):
    """A random odd circuit and odd open or closed ears on it, extra edges
    planted anywhere, and the ids dealt out at random."""
    c = data.draw(st.sampled_from([3, 5, 7, 9]))
    walks = [list(range(c)) + [0]]
    n = c
    for _ in range(data.draw(st.integers(0, 4))):
        length = data.draw(st.sampled_from([3, 5, 7, 9, 11]))
        a = data.draw(st.integers(0, n - 1))
        b = a if data.draw(st.booleans()) else data.draw(st.integers(0, n - 1))
        walks.append([a, *range(n, n + length - 1), b])
        n += length - 1
    edges = set(map(frozenset, walk_edges(walks)))
    pairs = st.tuples(st.integers(0, n - 1), st.integers(0, n - 1))
    for u, v in data.draw(st.lists(pairs, max_size=12)):
        if u != v:
            edges.add(frozenset((u, v)))
    ids = data.draw(st.permutations(range(n)))
    slices_alike(
        n,
        [tuple(ids[v] for v in e) for e in edges],
        [[ids[v] for v in w] for w in walks],
    )


# Ids that follow the structure: the ring {i, i + 1, i + 2} mod n cuts one
# long walk again and again, which the rescanning slicer paid for on every
# cut, and the circulants {i, i + a, i + b} cut in other patterns.
STRUCTURED = [(n, 1, 2) for n in [*range(3, 42, 2), 101, 501, 1001, 2001]] + [
    (n, a, b) for a, b in ((1, 3), (2, 5), (1, 5), (3, 7)) for n in (101, 2001)
]


@time_limit(120)
@pytest.mark.parametrize("n, a, b", STRUCTURED)
def test_the_slicer_slices_id_ordered_instances_like_the_rescanning_one(n, a, b):
    h = circulant_hypergraph(n, a, b)
    g = _shadow_lists(h)
    walks = _ear_walks(g)
    out = _slice(g.adjacency, [list(w) for w in walks])
    assert out == rescan_slice(g.adjacency, walks)
    assert verify_partition(h, solve(h)).ok


@time_limit(120)
@settings(max_examples=500, deadline=None)
@given(st.data())
def test_the_slicer_returns_on_arbitrary_walk_lists(data):
    """Walks that are no ear decomposition (repeated vertices, non-edges,
    any length, the circuit included): the loop still ends, each round
    over a finite list with each position dropped at most once.  What it
    returns is not compared: no caller gives it such walks."""
    n = data.draw(st.integers(1, 12))
    vertex = st.integers(0, n - 1)
    edges = data.draw(st.lists(st.tuples(vertex, vertex), max_size=40))
    nbrs = [set() for _ in range(n)]
    for u, v in edges:
        if u != v:
            nbrs[u].add(v)
            nbrs[v].add(u)
    adj = tuple(tuple(sorted(s)) for s in nbrs)
    walks = data.draw(st.lists(st.lists(vertex, max_size=14), max_size=6))
    done, labels, positions = _slice(adj, walks)
    assert len(labels) == len(positions) == n


# An odd solve checks no decomposition and no matching: the verifier's check
# of its certificate is the one check.  The public functions check each
# value they take or return.


def count_checks(monkeypatch):
    """Spy on the one-pass check; returns the list its calls append to."""
    calls = []
    scan = ears_module._scan

    def spy(adj, walks):
        calls.append(len(walks))
        return scan(adj, walks)

    monkeypatch.setattr(ears_module, "_scan", spy)
    return calls


ODD_SOLVES = [(n, seed) for n in (3, 5, 7, 9, 21, 55, 101) for seed in (1, 2, 3)]


def test_an_odd_solve_runs_no_scan_and_no_near_perfect_check(monkeypatch):
    calls = count_checks(monkeypatch)
    check = partition_module._check_near_perfect

    def spy(*args):
        calls.append("near-perfect")
        return check(*args)

    monkeypatch.setattr(partition_module, "_check_near_perfect", spy)
    for n, seed in ODD_SOLVES:
        h = random_triple_system(n, seed, require_connected=True)
        assert verify_partition(h, solve(h)).ok
    assert calls == []
    # the spies do see the public functions check
    d = maximalize(odd_ear_decomposition(complete_graph(5)))
    partition_module.matching_with_edge_avoiding(d, (3, 4), 0)
    assert len(calls) == 4 and calls[-1] == "near-perfect"


def test_an_odd_solve_builds_no_ear(monkeypatch):
    built = []
    for name in ("Ear", "EarDecomposition"):
        def spy(*args, _real=getattr(ears_module, name), **kwargs):
            built.append(_real)
            return _real(*args, **kwargs)

        monkeypatch.setattr(ears_module, name, spy)
    for n, seed in ODD_SOLVES:
        h = random_triple_system(n, seed, require_connected=True)
        assert verify_partition(h, solve(h)).ok
    assert built == []
    # the spies do see the public functions build their values
    maximalize(odd_ear_decomposition(complete_graph(5)))
    assert built


def test_maximalize_checks_values_it_did_not_build(monkeypatch):
    """maximalize checks every input, whoever built it, and then the value
    it returns."""
    g = shadow_graph(random_triple_system(21, 4, require_connected=True))
    d = odd_ear_decomposition(g)
    calls = count_checks(monkeypatch)
    out = maximalize(d)
    by_hand = EarDecomposition(
        host=d.host, ears=d.ears, labels=d.labels, positions=d.positions
    )
    for x in (d, by_hand, dataclasses.replace(d)):
        calls.clear()
        assert maximalize(x) == out
        # the input, then the output's nontrivial ears, whose unmarked edges
        # are its trivial ones
        assert calls == [len(d.ears), last_nontrivial_ear(out) + 1]
    # and a broken one still raises
    w = d.ears[1].vertices
    ears = list(d.ears)
    ears[1] = Ear(w[:1] + w[2:])  # drops a vertex: the ear is even
    with pytest.raises(InvariantViolation, match="ear 1 has an even number"):
        maximalize(dataclasses.replace(d, ears=tuple(ears)))
    with pytest.raises(InvariantViolation, match="more than one ear"):
        maximalize(
            EarDecomposition(
                host=complete_graph(3),
                ears=(Ear((0, 1, 2, 0)), Ear((0, 1))),
                labels=(0, 0, 0),
                positions=(0, 1, 2),
            )
        )


def test_maximalize_refuses_each_broken_value_with_its_violations():
    """On valid and broken values alike, maximalize raises InvariantViolation
    carrying exactly validate_decomposition's violations, or returns a valid
    decomposition."""
    rng = random.Random(17)
    broken = 0
    for n in range(5, 40, 2):
        g = shadow_graph(random_triple_system(n, n, require_connected=True))
        d = odd_ear_decomposition(g)
        for x in [d, maximalize(d)] + mutants(d, rng):
            errs = validate_decomposition(x)
            if errs:
                assert outcome(maximalize, x) == (InvariantViolation, "; ".join(errs))
                broken += 1
            else:
                assert not validate_decomposition(maximalize(x))
    assert broken > 300


# Faults in the traced paths, which nothing checks before the certificate:
# `trimatch solve` must exit 3 with the verifier's InternalError.

VERIFIER_FAULT = "error: InternalError: constructed certificate failed verification: "


def cli_solve(tmp_path, capsys, h):
    """Exit code and stderr of `trimatch solve` on h."""
    from trimatch import formats
    from trimatch.cli import main

    f = tmp_path / "in.hyp"
    f.write_text(formats.format_hypergraph(h))
    code = main(["solve", str(f)])
    return code, capsys.readouterr().err


def solve_with_traced_paths(monkeypatch, tmp_path, capsys, fault):
    """Exit code and stderr of `trimatch solve` on an odd instance, with
    `fault(tree, v, placed, path)` rewriting the first traced ear path it
    does not return as None.  The circuit's trace is left alone."""
    trace = AlternatingTree.path_from_placed
    done = []

    def faulty(tree, v, placed):
        path = trace(tree, v, placed)
        if done or sum(placed) == 1:
            return path
        bad = fault(tree, v, placed, path)
        if bad is None:
            return path
        done.append(bad)
        return bad

    monkeypatch.setattr(AlternatingTree, "path_from_placed", faulty)
    out = cli_solve(tmp_path, capsys, random_triple_system(101, 1, require_connected=True))
    assert done
    return out


def test_a_traced_non_edge_is_an_internal_error(monkeypatch, tmp_path, capsys):
    def fault(tree, v, placed, path):
        # swap the second and third new vertices: the first and the third,
        # no neighbours, become the pair at positions 1 and 2, on an ear with
        # no odd edge off it along which the slicer could cut the pair away
        adj = tree.graph.adjacency
        if len(path) < 5 or path[3] in adj[path[1]]:
            return None
        bad = [path[0], path[1], path[3], path[2], *path[4:]]
        length = len(bad)  # with the vertex that closes the ear
        odd = range(1, length - 3, 2)
        if any(bad[q] in adj[bad[p]] for p in odd for q in range(p + 3, length, 2)):
            return None
        return bad

    code, err = solve_with_traced_paths(monkeypatch, tmp_path, capsys, fault)
    assert code == 3
    assert err.startswith(VERIFIER_FAULT) and err.count("\n") == 1
    assert "is not inside any hyperedge" in err


def test_a_traced_repeated_vertex_is_an_internal_error(monkeypatch, tmp_path, capsys):
    def fault(tree, v, placed, path):
        # walk the last edge back and forth once more: still host edges
        return path + path[-2:]

    code, err = solve_with_traced_paths(monkeypatch, tmp_path, capsys, fault)
    assert code == 3
    assert err.startswith(VERIFIER_FAULT) and err.count("\n") == 1
    assert "blocks are not disjoint" in err


def test_an_even_traced_ear_is_an_internal_error(monkeypatch, tmp_path, capsys):
    def fault(tree, v, placed, path):
        # one host edge from a placed vertex other than the one that closes
        # the ear: an ear of two edges
        near = [y for y in tree.graph.adjacency[v] if placed[y]]
        return [max(near), v] if len(near) > 1 else None

    code, err = solve_with_traced_paths(monkeypatch, tmp_path, capsys, fault)
    assert code == 3
    assert err.startswith(VERIFIER_FAULT) and err.count("\n") == 1
    assert "blocks are not disjoint" in err


# Faults in the walks, labels and positions that `_slice` hands the solver,
# which checks none of them.  The instance is the affine plane of order 3
# without one parallel class: 3-uniform and 3-regular on 9 points, with the
# shadow graph K9 minus the triangles {0, 5, 7}, {1, 3, 8} and {2, 4, 6}.
# The solver's own walks on it are [0, 2, 1, 0], [0, 4, 3, 0], [0, 6, 5, 1]
# and [0, 8, 7, 1].  Each list below stands in for them, with the first-ear
# labels and positions of its walks, next to what `_scan` says of it.

NINE_LINES = [
    (0, 1, 2), (3, 4, 5), (6, 7, 8), (0, 3, 6), (1, 4, 7), (2, 5, 8),
    (0, 4, 8), (1, 5, 6), (2, 3, 7),
]
FAULTY_WALKS = {
    # the non-edge (4, 6) is an odd edge of ear 2, so a pair
    "non-edge": (
        [[0, 2, 1, 0], [0, 3, 7, 1], [0, 4, 6, 0], [2, 5, 8, 2]],
        "ear 2 uses non-edge (4, 6)",
    ),
    # the hole starts at 6 and walks through the repeated 6 and 5
    "repeated vertex": (
        [[0, 2, 1, 0], [0, 4, 3, 0], [0, 6, 5, 6, 5, 1], [0, 8, 7, 1]],
        "ear 2 repeats an interior vertex",
    ),
    # with distinct new interiors, even ears come in twos
    "even ears": (
        [[0, 2, 1, 0], [0, 4, 3, 5, 1], [1, 6, 8, 7, 2]],
        "ear 1 has an even number of edges",
    ),
    # 7 and 8 are on no walk
    "uncovered vertex": (
        [[0, 2, 1, 0], [0, 4, 3, 0], [0, 6, 5, 1]],
        "ears do not cover the vertex set",
    ),
    # a valid decomposition, not a maximal one: the apex 6 of the edge
    # (7, 8) sits at the even position 4 of its ear, so the alternating
    # edges before it leave the edge out
    "dropped forced edge": ([[0, 2, 1, 0], [0, 4, 3, 0], [1, 7, 8, 5, 6, 0]], None),
    # the last walk is a single edge, which has no positions 1 and 2
    "short last walk": (
        [[0, 2, 1, 0], [0, 4, 3, 0], [0, 6, 5, 1], [0, 8, 7, 1], [7, 8]],
        "edge (7, 8) appears on more than one ear",
    ),
}


def nine():
    return make_hypergraph(9, NINE_LINES, k=3)


def test_the_nine_point_instance_solves_on_its_own_walks(tmp_path, capsys):
    h = nine()
    g = _shadow_lists(h)
    assert _ear_walks(g) == [[0, 2, 1, 0], [0, 4, 3, 0], [0, 6, 5, 1], [0, 8, 7, 1]]
    assert verify_partition(h, solve(h)).ok
    assert cli_solve(tmp_path, capsys, h) == (0, "")


@time_limit(10)
@pytest.mark.parametrize("fault", FAULTY_WALKS)
def test_faulty_sliced_walks_are_an_internal_error(monkeypatch, tmp_path, capsys, fault):
    walks, says = FAULTY_WALKS[fault]
    h = nine()
    adj = _shadow_lists(h).adjacency
    errs = _scan(adj, walks)[0]
    if says is None:
        assert errs == []
    else:
        assert says in errs
    monkeypatch.setattr(
        partition_module, "_slice", lambda adj, _: as_sliced(adj, [list(w) for w in walks])
    )
    with pytest.raises(InternalError):
        solve(h)
    code, err = cli_solve(tmp_path, capsys, h)
    assert code == 3
    assert err.startswith("error: InternalError: ") and err.count("\n") == 1


@time_limit(10)
def test_the_slicer_labels_a_vertex_on_no_walk_minus_one(monkeypatch, tmp_path, capsys):
    """The circuit 0-1-2-3-4 has the chords (0, 2), (0, 3) and (1, 4), so
    its round cuts vertices off, labelled -1 until their pieces are popped;
    7 and 8 are on no walk, and keep -1."""
    h = nine()
    adj = _shadow_lists(h).adjacency
    traced = [[0, 1, 2, 3, 4, 0], [0, 6, 5, 1]]
    walks, labels, positions = _slice(adj, [list(w) for w in traced])
    assert len(walks) > len(traced)
    assert labels[7] == labels[8] == positions[7] == positions[8] == -1
    assert (labels, positions) == tuple(_scan(adj, walks)[1:3])
    monkeypatch.setattr(partition_module, "_ear_walks", lambda g: [list(w) for w in traced])
    with pytest.raises(InternalError):
        solve(h)
    code, err = cli_solve(tmp_path, capsys, h)
    assert code == 3
    assert err.startswith("error: InternalError: ") and err.count("\n") == 1
