"""The certificate verifiers against copies of their linear-pass forebears.

`verify_partition` and `verify_lu` run their per-component rule only when
it can fail, and `verify_partition` reads its pairs off a mate array in one
pass over the hyperedges.  The copies below are the verifiers as they were
before each change; on solver certificates, broken variants of them and
hand-built hypergraphs the verifiers must return the same violations,
message for message, or raise the same ValueError.  The copies read a
hyperedge tuple in its order and `verify_partition` reads it as a vertex
set, so on hand-built hypergraphs the copies run on the tuples sorted.
"""

from collections import Counter
from dataclasses import replace
from itertools import chain, combinations, filterfalse, islice, repeat
from operator import lt

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import trimatch.verify as verify_module
from trimatch import (
    Hypergraph,
    LuSubgraph,
    TriMatchingPartition,
    lu_subgraph,
    make_bipartite,
    make_hypergraph,
    solve,
    solve_components,
    verify_certificate,
    verify_lu,
    verify_partition,
)
from trimatch.core import canonical_edge
from trimatch.verify import VerificationReport

from conftest import hypergraph_union, random_regular_bipartite, random_triple_system
from rotation_census import kept_at, lu_with_rotations, with_orders


# Copies of the verifiers as they were before the component search became
# conditional.


def old_verify_partition(h, cert) -> VerificationReport:
    if isinstance(cert, TriMatchingPartition):
        cert = [cert]
    if isinstance(cert, (list, tuple)) and all(
        isinstance(c, TriMatchingPartition) for c in cert
    ):
        triangles = [c.triangle for c in cert if c.triangle is not None]
        pairs = [p for c in cert for p in c.pairs]
    else:
        triangles, pairs = map(list, cert)

    violations = []
    seen: set[int] = set()
    dup = False
    for block in triangles + pairs:
        for v in block:
            if not 0 <= v < h.n:
                raise ValueError(f"certificate vertex {v} out of range [0, {h.n})")
            if v in seen:
                dup = True
            seen.add(v)
    if dup:
        violations.append("blocks are not disjoint")
    if seen != set(range(h.n)):
        missing = sorted(set(range(h.n)) - seen)
        violations.append(f"blocks do not cover the vertex set (missing {missing[:5]})")

    within = {p for e in h.hyperedges for p in combinations(e, 2)}
    hyperedge_sets = {frozenset(e) for e in h.hyperedges}
    for tri in triangles:
        tset = set(tri)
        if len(tset) != 3:
            violations.append(f"triangle {tri} does not have 3 distinct vertices")
            continue
        if h.k == 3:
            if frozenset(tset) not in hyperedge_sets:
                violations.append(f"triangle {tuple(sorted(tri))} is not a hyperedge")
        elif not any(tset.issubset(e) for e in h.hyperedges):
            violations.append(
                f"triangle {tuple(sorted(tri))} is not inside any hyperedge"
            )
    for u, v in pairs:
        if u == v or canonical_edge(u, v) not in within:
            violations.append(f"pair ({u}, {v}) is not inside any hyperedge")

    comp_of = old_component_ids(h.n, h.hyperedges)
    per_comp: dict[int, int] = {}
    for tri in triangles:
        cids = {comp_of[v] for v in tri}
        if len(cids) == 1:
            cid = cids.pop()
            per_comp[cid] = per_comp.get(cid, 0) + 1
    for cid, cnt in per_comp.items():
        if cnt > 1:
            violations.append(f"component {cid} carries {cnt} triangles")
    return VerificationReport(violations=tuple(violations))


def old_verify_lu(bg, cert) -> VerificationReport:
    kept = cert.kept if isinstance(cert, LuSubgraph) else tuple(cert)
    violations = []
    edge_set = set(bg.edges)
    deg_a = [0] * bg.n_a
    deg_b = [0] * bg.n_b
    seen = set()
    for a, b in kept:
        if not (0 <= a < bg.n_a and 0 <= b < bg.n_b):
            raise ValueError(f"kept edge ({a}, {b}) out of range")
        if (a, b) not in edge_set:
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
    comp = old_component_ids(
        bg.n_a + bg.n_b, [(a, bg.n_a + b) for a, b in bg.edges]
    )
    three_per_comp: dict[int, int] = {}
    for a, dv in enumerate(deg_a):
        if dv == 3:
            cid = comp[a]
            three_per_comp[cid] = three_per_comp.get(cid, 0) + 1
        elif dv not in (0, 2):
            violations.append(f"A-vertex {a} has kept degree {dv}")
    for cid, cnt in three_per_comp.items():
        if cnt > 1:
            violations.append(f"component {cid} has {cnt} degree-3 A-vertices")
    return VerificationReport(violations=tuple(violations))


def old_component_ids(n, groups):
    parent = list(range(n))

    def find(v):
        while parent[v] != v:
            parent[v] = parent[parent[v]]
            v = parent[v]
        return v

    for group in groups:
        for v in group[1:]:
            parent[find(v)] = find(group[0])
    ids = {}
    return [ids.setdefault(find(v), len(ids)) for v in range(n)]


# A copy of `verify_partition` as it was before its pair index and pair
# check ran in bulk: one canonical pair per certificate pair, and one
# lookup per pair.


def loop_verify_partition(h, cert) -> VerificationReport:
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
    flat = [v for block in chain(triangles, pairs) for v in block]
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

    # indexes of the verifier's own, built without solver code: of the
    # hyperedges' 2-subsets, only the certificate's own pairs are kept
    need = {(u, v) if u < v else (v, u) for u, v in pairs}
    within = need.intersection(
        chain.from_iterable(map(combinations, h.hyperedges, repeat(2)))
    )
    if triangles and h.k == 3:
        # hyperedges are stored as sorted tuples
        hyperedge_set = set(h.hyperedges)
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
    for u, v in pairs:
        if u == v or ((u, v) if u < v else (v, u)) not in within:
            violations.append(f"pair ({u}, {v}) is not inside any hyperedge")

    # at most one triangle per shadow component
    if len(triangles) >= 2:
        comp_of = verify_module._component_ids(n, h.hyperedges)
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


# A copy of `verify_partition` as it was before its pairs were read off a
# mate array: the pairs intersected with every hyperedge 2-subset, and at
# k = 3 the triangles looked up in a set of all hyperedges.


def set_verify_partition(h, cert) -> VerificationReport:
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

    # indexes of the verifier's own, built without solver code: of the
    # hyperedges' 2-subsets, only the certificate's own pairs are kept
    ordered = False
    if set(map(len, pairs)) <= {2}:
        # the pairs' vertices close `flat`
        start = len(flat) - 2 * len(pairs)
        us, vs = flat[start::2], flat[start + 1 :: 2]
        ordered = all(map(lt, us, vs))
    if ordered:
        need = set(zip(us, vs))
    else:
        need = {(u, v) if u < v else (v, u) for u, v in pairs}
    within = need.intersection(
        chain.from_iterable(map(combinations, h.hyperedges, repeat(2)))
    )
    if triangles and h.k == 3:
        # hyperedges are stored as sorted tuples
        hyperedge_set = set(h.hyperedges)
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
    # with every pair ordered, none is a loop, and only a pair that is not
    # inside a hyperedge leaves `within` short of `need`
    if not ordered or len(within) != len(need):
        for u, v in pairs:
            if u == v or ((u, v) if u < v else (v, u)) not in within:
                violations.append(f"pair ({u}, {v}) is not inside any hyperedge")

    # at most one triangle per shadow component
    if len(triangles) >= 2:
        comp_of = verify_module._component_ids(n, h.hyperedges)
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


@settings(max_examples=300, deadline=None)
@given(
    st.integers(1, 12).flatmap(
        lambda n: st.tuples(
            st.just(n),
            st.lists(st.lists(st.integers(0, n - 1), max_size=4), max_size=6),
        )
    )
)
def test_component_ids_agree_with_the_list_form(case):
    """Ids computed from the grouped vertices alone, isolated vertices
    included, equal the old n-long union-find's."""
    n, groups = case
    component_id = verify_module._component_ids(n, groups)
    assert [component_id(v) for v in range(n)] == old_component_ids(n, groups)


def outcome(check, instance, cert):
    """The violations a verifier returns, or the class and message of what
    it raises."""
    try:
        return check(instance, cert).violations
    except Exception as exc:  # compared, never swallowed
        return type(exc), str(exc)


# ---------------------------------------------------------------------------
# Instances: disjoint unions of connected ones, so that certificates carry
# one triangle per odd component
# ---------------------------------------------------------------------------


def k4_hypergraph(n, seed):
    """4-uniform 4-regular hypergraph read off a 4-regular bipartite graph
    (one hyperedge per A-vertex)."""
    bg = random_regular_bipartite(n, 4, seed)
    return make_hypergraph(n, list(bg.adj_a), k=4)


def bipartite_union(parts):
    edges, off_a, off_b = [], 0, 0
    for bg in parts:
        edges.extend((a + off_a, b + off_b) for a, b in bg.edges)
        off_a += bg.n_a
        off_b += bg.n_b
    return make_bipartite(off_a, off_b, edges)


@st.composite
def hypergraph_instances(draw):
    k = draw(st.sampled_from((3, 4)))
    seed = draw(st.integers(0, 2**16))
    if k == 3:
        sizes = draw(st.lists(st.integers(3, 21), min_size=1, max_size=4))
        parts = [
            random_triple_system(n, seed + i, require_connected=True)
            for i, n in enumerate(sizes)
        ]
    else:
        sizes = draw(st.lists(st.integers(4, 11), min_size=1, max_size=4))
        parts = [k4_hypergraph(n, seed + i) for i, n in enumerate(sizes)]
    return hypergraph_union(parts)


@st.composite
def bipartite_instances(draw):
    k = draw(st.integers(3, 5))
    seed = draw(st.integers(0, 2**16))
    sizes = draw(st.lists(st.integers(k, 12), min_size=1, max_size=4))
    return bipartite_union(
        [random_regular_bipartite(n, k, seed + i) for i, n in enumerate(sizes)]
    )


# ---------------------------------------------------------------------------
# Broken variants
# ---------------------------------------------------------------------------


def put(blocks, i, j, v):
    block = list(blocks[i])
    block[j] = v
    blocks[i] = tuple(block)


def mutate_partition(data, h, triangles, pairs):
    """Apply a few drawn edits to raw (triangles, pairs) lists."""
    n = h.n
    vertex = st.integers(0, n - 1)
    for _ in range(data.draw(st.integers(0, 4))):
        spots = [
            (blocks, i, j)
            for blocks in (triangles, pairs)
            for i, block in enumerate(blocks)
            for j in range(len(block))
        ]
        blocks = triangles if triangles and data.draw(st.booleans()) else pairs
        op = data.draw(
            st.sampled_from(
                ("drop", "duplicate", "swap", "replace", "out-of-range",
                 "non-hyperedge", "hyperedge", "repeat")
            )
        )
        if op in ("drop", "duplicate") and blocks:
            i = data.draw(st.integers(0, len(blocks) - 1))
            if op == "drop":
                del blocks[i]
            else:
                blocks.insert(data.draw(st.integers(0, len(blocks))), blocks[i])
        elif op == "swap" and spots:
            (b1, i1, j1), (b2, i2, j2) = (data.draw(st.sampled_from(spots)) for _ in "12")
            x, y = b1[i1][j1], b2[i2][j2]
            put(b1, i1, j1, y)
            put(b2, i2, j2, x)
        elif op == "replace" and spots:
            put(*data.draw(st.sampled_from(spots)), data.draw(vertex))
        elif op == "out-of-range" and spots:
            # several, so that the first in block order is seldom the extreme
            for _ in range(data.draw(st.integers(1, 3))):
                put(*data.draw(st.sampled_from(spots)),
                    data.draw(st.sampled_from((-1, -5, n, n + 3))))
        elif op == "non-hyperedge" and n >= 3:
            tri = tuple(data.draw(st.lists(vertex, min_size=3, max_size=3, unique=True)))
            triangles.insert(data.draw(st.integers(0, len(triangles))), tri)
        elif op == "hyperedge":
            # a second or third triangle, in the same component as another
            # or in a different one
            e = data.draw(st.sampled_from(h.hyperedges))
            tri = tuple(data.draw(st.permutations(e))[:3])
            triangles.insert(data.draw(st.integers(0, len(triangles))), tri)
        elif op == "repeat":
            v = data.draw(vertex)
            if data.draw(st.booleans()):
                pairs.append((v, v))
            else:
                triangles.append((v, v, data.draw(vertex)))
    return triangles, pairs


# 4-uniform 4-regular, 200 components with 5 to 12 vertices, about half of
# them odd: a certificate with many triangles, each to be found inside a
# hyperedge
K4_UNION = hypergraph_union([k4_hypergraph(5 + i % 8, i) for i in range(200)])


@settings(max_examples=300, deadline=None)
@given(hypergraph_instances(), st.data())
@example(K4_UNION, None)
def test_verify_partition_agrees_with_the_old_verifier(h, data):
    certs = solve_components(h, h.k)
    for cert in (certs, certs[0], tuple(certs)):
        assert outcome(verify_partition, h, cert) == outcome(old_verify_partition, h, cert)
        assert outcome(verify_partition, h, cert) == outcome(set_verify_partition, h, cert)
    assert verify_partition(h, certs).ok
    if data is None:  # a pinned example: its certificates alone
        return
    triangles = [c.triangle for c in certs if c.triangle is not None]
    pairs = [p for c in certs for p in c.pairs]
    raw = mutate_partition(data, h, triangles, pairs)
    assert outcome(verify_partition, h, raw) == outcome(old_verify_partition, h, raw)
    assert outcome(verify_partition, h, raw) == outcome(loop_verify_partition, h, raw)
    assert outcome(verify_partition, h, raw) == outcome(set_verify_partition, h, raw)


def tamper_pairs(data, h, pairs):
    """A few drawn pair edits, each at a drawn place in the list: a pair
    turned around, made a loop, widened or narrowed, moved, repeated, or a
    new pair of two drawn vertices, in order half the time, which few
    hyperedges hold; or the whole list shuffled."""
    vertex = st.integers(0, h.n - 1)
    for _ in range(data.draw(st.integers(1, 5))):
        op = data.draw(st.sampled_from(
            ("reverse", "loop", "width", "move", "repeat", "new", "shuffle")
        ))
        if op == "new" or not pairs:
            u, v = data.draw(vertex), data.draw(vertex)
            if data.draw(st.booleans()):
                u, v = min(u, v), max(u, v)
            pairs.insert(data.draw(st.integers(0, len(pairs))), (u, v))
            continue
        i = data.draw(st.integers(0, len(pairs) - 1))
        if op == "reverse":
            pairs[i] = pairs[i][::-1]
        elif op == "loop":
            pairs[i] = (pairs[i][0], pairs[i][0])
        elif op == "width":
            pairs[i] = data.draw(st.sampled_from((pairs[i][:1], pairs[i] + (0,))))
        elif op == "move":
            pairs.insert(data.draw(st.integers(0, len(pairs) - 1)), pairs.pop(i))
        elif op == "repeat":
            pairs.insert(data.draw(st.integers(0, len(pairs))), pairs[i])
        else:
            data.draw(st.randoms(use_true_random=False)).shuffle(pairs)
    return pairs


def test_a_loop_pair_is_named_where_a_hyperedge_repeats_its_vertex():
    """A hand-built hyperedge with a repeated vertex puts the loop pair in
    the pair index, so a pair list out of order is always checked pair by
    pair."""
    h = Hypergraph(n=3, hyperedges=((0, 0, 1), (0, 1, 2)), multiplicities=(1, 1), k=3)
    raw = ([], [(0, 0), (2, 1)])
    assert outcome(verify_partition, h, raw) == outcome(loop_verify_partition, h, raw)
    assert verify_partition(h, raw).violations == (
        "blocks are not disjoint", "pair (0, 0) is not inside any hyperedge"
    )


# ---------------------------------------------------------------------------
# The mate-array pass on hand-built certificates
# ---------------------------------------------------------------------------


REFERENCES = (set_verify_partition, loop_verify_partition, old_verify_partition)


def hand_built(n, hyperedges, k):
    """A Hypergraph as given: tuples unsorted, vertices repeated or out of
    range, widths mixed."""
    return Hypergraph(
        n=n, hyperedges=tuple(hyperedges), multiplicities=(1,) * len(hyperedges), k=k
    )


def sorted_hyperedges(h):
    """h with each hyperedge tuple sorted: the references read a tuple in
    its order, and `verify_partition` reads each hyperedge as a vertex set."""
    return replace(h, hyperedges=tuple(tuple(sorted(e)) for e in h.hyperedges))


UNSORTED = hand_built(6, [(2, 0, 1), (5, 3, 4), (2, 5, 0)], 3)

# (h, (triangles, pairs), what `_mate_pass` returns, the violations, the
# reference verifiers that agree on h with its hyperedges sorted):
# `old_verify_partition`'s n-long union-find indexes every hyperedge
# vertex, so it is left out where a hyperedge vertex reaches n
MATE_PASS_CASES = {
    # a pair found twice must not make up for a pair found never
    "pair in two hyperedges, another in none": (
        make_hypergraph(6, [(0, 1, 2), (0, 1, 3), (2, 4, 5)], k=3),
        ([], [(0, 1), (2, 3), (4, 5)]),
        (2, set()),
        ("pair (2, 3) is not inside any hyperedge",),
        REFERENCES,
    ),
    "pair in two hyperedges, another in none, k=4": (
        make_hypergraph(6, [(0, 1, 2, 3), (0, 1, 2, 4)], k=4),
        ([], [(5, 4), (1, 0), (3, 2)]),
        (2, set()),
        ("pair (5, 4) is not inside any hyperedge",),
        REFERENCES,
    ),
    "unsorted hyperedges": (
        UNSORTED, ([], [(1, 0), (4, 3), (2, 5)]), (3, set()), (), REFERENCES,
    ),
    # at k = 3 the pass misses (1, 2) and (0, 5), whose larger vertex comes
    # first in the tuple, and the 2-subsets of the sorted hyperedges find
    # them; at k = 4 the pass reads membership and finds every pair
    "unsorted hyperedges, pairs out of tuple order": (
        UNSORTED, ([], [(1, 2), (0, 5), (3, 4)]), (1, set()), (), REFERENCES,
    ),
    "unsorted hyperedges, pairs out of tuple order, k=4": (
        hand_built(6, [(3, 0, 1, 2), (5, 4, 1, 0)], 4),
        ([], [(0, 1), (3, 2), (4, 5)]), (3, set()), (), REFERENCES,
    ),
    # the pass misses it, and the sorted hyperedges hold it
    "a triangle as an unsorted hyperedge": (
        hand_built(5, [(2, 1, 0), (3, 4, 0)], 3),
        ([(0, 1, 2)], [(3, 4)]), (1, set()), (), REFERENCES,
    ),
    "a triangle as a sorted hyperedge": (
        hand_built(5, [(0, 1, 2), (3, 4, 0)], 3),
        ([(2, 0, 1)], [(3, 4)]),
        (1, {(0, 1, 2)}),
        (),
        REFERENCES,
    ),
    "repeated hyperedge vertices": (
        hand_built(4, [(0, 0, 1), (3, 2, 3)], 3),
        ([], [(1, 0), (2, 3)]), (2, set()), (), REFERENCES,
    ),
    "a hyperedge vertex at or above n": (
        hand_built(4, [(7, 0, 1), (2, 3, 9)], 3),
        ([], [(0, 1), (2, 3)]), None, (), REFERENCES[:2],
    ),
    "a hyperedge vertex at or above n, pairs in none": (
        hand_built(4, [(7, 0, 1), (0, 1, 9), (2, 3, 9)], 3),
        ([], [(0, 2), (1, 3)]),
        None,
        ("pair (0, 2) is not inside any hyperedge",
         "pair (1, 3) is not inside any hyperedge"),
        REFERENCES[:2],
    ),
    # -1 would read vertex 3's partner, 0, and find the pair (0, 3) in
    # hyperedges that do not hold 3
    "a negative hyperedge vertex": (
        hand_built(4, [(-1, 0, 1), (1, -1, 0), (1, 2, 3)], 3),
        ([], [(0, 3), (1, 2)]),
        (1, set()),
        ("pair (0, 3) is not inside any hyperedge",),
        REFERENCES,
    ),
    "a negative hyperedge vertex, k=4": (
        hand_built(4, [(-1, 0, 1, 2)], 4),
        ([], [(0, 3), (1, 2)]),
        (1, set()),
        ("pair (0, 3) is not inside any hyperedge",),
        REFERENCES,
    ),
    "non-uniform hyperedges": (
        make_hypergraph(6, [(0, 1), (2, 3, 4, 5)], k=3),
        ([], [(0, 1), (2, 3), (4, 5)]), None, (), REFERENCES,
    ),
    "non-uniform hyperedges, pairs in none": (
        make_hypergraph(6, [(0, 1), (2, 3, 4, 5)], k=3),
        ([], [(0, 2), (1, 3), (4, 5)]),
        None,
        ("pair (0, 2) is not inside any hyperedge",
         "pair (1, 3) is not inside any hyperedge"),
        REFERENCES,
    ),
    "non-uniform hyperedges, k=4": (
        make_hypergraph(6, [(0, 1), (2, 3, 4), (1, 3, 4, 5)], k=4),
        ([], [(1, 0), (2, 3), (5, 4)]), (3, set()), (), REFERENCES,
    ),
    "n=0, an empty certificate": (
        hand_built(0, [], 3), ([], []), (0, set()), (), REFERENCES,
    ),
    "n=3, a triangle alone": (
        make_hypergraph(3, [(0, 1, 2)], k=3),
        ([(2, 0, 1)], []), (0, {(0, 1, 2)}), (), REFERENCES,
    ),
    "n=3, a triangle and no hyperedge": (
        hand_built(3, [], 3),
        ([(0, 1, 2)], []),
        (0, set()),
        ("triangle (0, 1, 2) is not a hyperedge",),
        REFERENCES,
    ),
}


@pytest.mark.parametrize("case", MATE_PASS_CASES)
def test_hand_built_certificates_reach_the_mate_pass(case):
    """Each certificate's blocks are disjoint and cover V, so the pass runs;
    where it counts short or cannot read a hyperedge, the 2-subsets name
    the bad pairs.  Either way the violations are the references' on the
    sorted hyperedges."""
    h, raw, passed, violations, references = MATE_PASS_CASES[case]
    assert verify_module._mate_pass(h, *raw) == passed
    assert outcome(verify_partition, h, raw) == violations
    for check in references:
        assert outcome(check, sorted_hyperedges(h), raw) == violations, check.__name__


@st.composite
def hand_built_partitions(draw):
    """A hand-built hypergraph and a certificate whose blocks are disjoint
    and, but for one vertex when the count does not work out, cover V.
    Some hyperedges hold a block in drawn tuple order; the others are drawn
    vertices, some of them below 0 or at or above n, and their widths are
    k or drawn."""
    n = draw(st.integers(0, 10))
    k = draw(st.sampled_from((2, 3, 4)))
    order = draw(st.permutations(range(n)))
    t = draw(st.integers(0, n // 3))
    triangles = [tuple(order[3 * i : 3 * i + 3]) for i in range(t)]
    rest = order[3 * t :]
    pairs = [tuple(rest[i : i + 2]) for i in range(0, len(rest) - 1, 2)]
    vertex = st.one_of(st.integers(0, max(n - 1, 0)), st.integers(-2, n + 1))
    width = st.just(k) if draw(st.booleans()) else st.integers(1, 5)
    hyperedges = draw(st.lists(width.flatmap(
        lambda w: st.lists(vertex, min_size=w, max_size=w)), max_size=8))
    for block in draw(st.lists(st.sampled_from(triangles + pairs), max_size=8)
                      if triangles or pairs else st.just([])):
        e = list(block) + draw(st.lists(vertex, max_size=max(0, k - len(block))))
        hyperedges.insert(
            draw(st.integers(0, len(hyperedges))),
            sorted(e) if draw(st.booleans()) else draw(st.permutations(e)),
        )
    h = hand_built(n, [tuple(e) for e in hyperedges], k)
    return h, (triangles, pairs)


@settings(max_examples=500, deadline=None)
@given(hand_built_partitions())
def test_the_mate_pass_agrees_on_hand_built_hypergraphs(case):
    """Unsorted tuples, repeated and out-of-range vertices and mixed widths:
    wherever the pass runs, the verdict is the references' on the same
    hyperedges sorted, since each hyperedge is read as a vertex set."""
    h, raw = case
    expected = outcome(set_verify_partition, sorted_hyperedges(h), raw)
    assert outcome(verify_partition, h, raw) == expected
    assert outcome(loop_verify_partition, sorted_hyperedges(h), raw) == expected


def test_several_triangles_are_found_in_the_pass():
    """A `solve_components` certificate with one triangle per odd
    component: the pass finds every pair and every triangle; moved
    triangles and pairs are named as the references name them."""
    h = hypergraph_union([
        random_triple_system(n, seed, require_connected=True)
        for seed, n in enumerate((7, 9, 8, 11, 5, 10))
    ])
    certs = solve_components(h)
    triangles = [c.triangle for c in certs if c.triangle is not None]
    pairs = [p for c in certs for p in c.pairs]
    assert len(triangles) == 4
    assert verify_module._mate_pass(h, triangles, pairs) == (
        len(pairs), set(triangles)
    )
    assert outcome(verify_partition, h, certs) == ()
    for check in REFERENCES:
        assert outcome(check, h, certs) == ()
    # each triangle trades its last vertex for a pair's first: the blocks
    # still cover V, so the pass runs, and it finds none of the triangles
    for i, tri in enumerate(triangles):
        j = 7 * i % len(pairs)
        (u, v), w = pairs[j], tri[2]
        triangles[i], pairs[j] = (*tri[:2], u), (w, v)
    assert verify_module._mate_pass(h, triangles, pairs)[1] == set()
    raw = (triangles, pairs)
    expected = outcome(set_verify_partition, h, raw)
    assert sum(s.endswith("is not a hyperedge") for s in expected) == 4
    assert outcome(verify_partition, h, raw) == expected
    for check in REFERENCES[1:]:
        assert outcome(check, h, raw) == expected


def test_a_solver_certificate_is_checked_in_one_pass(monkeypatch):
    """On a certificate that passes, the 2-subsets are never built."""
    solved = [
        (h, solve_components(h, h.k))
        for h in (
            random_triple_system(20, 3, require_connected=True),
            random_triple_system(21, 3, require_connected=True),
            k4_hypergraph(11, 2),
            K4_UNION,
        )
    ]
    calls = []
    real = verify_module._mate_pass

    def spy(h, triangles, pairs):
        calls.append(h.k)
        return real(h, triangles, pairs)

    monkeypatch.setattr(verify_module, "_mate_pass", spy)
    monkeypatch.setattr(verify_module, "_pairs_outside", None)
    for h, certs in solved:
        assert verify_partition(h, certs).ok
    assert calls == [3, 3, 4, 4]


@settings(max_examples=300, deadline=None)
@given(hypergraph_instances(), st.data())
def test_verify_partition_names_tampered_pairs_as_the_loop_did(h, data):
    """Bad pairs in several places and orders, among pairs that are in
    order or not: the violations come in line order, as the per-pair loop
    gave them."""
    certs = solve_components(h, h.k)
    assert outcome(verify_partition, h, certs) == outcome(loop_verify_partition, h, certs)
    assert outcome(verify_partition, h, certs) == outcome(set_verify_partition, h, certs)
    triangles = [c.triangle for c in certs if c.triangle is not None]
    raw = (triangles, tamper_pairs(data, h, [p for c in certs for p in c.pairs]))
    assert outcome(verify_partition, h, raw) == outcome(loop_verify_partition, h, raw)
    assert outcome(verify_partition, h, raw) == outcome(set_verify_partition, h, raw)


def mutate_kept(data, bg, kept):
    """Apply a few drawn edits to a kept-edge list."""
    edge = st.sampled_from(bg.edges)
    for _ in range(data.draw(st.integers(0, 4))):
        op = data.draw(
            st.sampled_from(("drop", "duplicate", "add-edge", "non-edge",
                             "out-of-range", "third-edge", "subset"))
        )
        if op == "drop" and kept:
            del kept[data.draw(st.integers(0, len(kept) - 1))]
        elif op == "duplicate" and kept:
            kept.append(kept[data.draw(st.integers(0, len(kept) - 1))])
        elif op == "add-edge":
            kept.append(data.draw(edge))
        elif op == "non-edge":
            kept.append((data.draw(st.integers(0, bg.n_a - 1)),
                         data.draw(st.integers(0, bg.n_b - 1))))
        elif op == "out-of-range":
            kept.append(data.draw(st.sampled_from(
                ((bg.n_a, 0), (0, bg.n_b), (-1, 0), (0, -1)))))
        elif op == "third-edge":
            # raise kept A-degrees 2 to 3, in one component or in several
            for a in data.draw(st.lists(st.integers(0, bg.n_a - 1), max_size=4)):
                spare = [(a, b) for b in bg.adj_a[a] if (a, b) not in kept]
                if spare:
                    kept.append(data.draw(st.sampled_from(spare)))
        elif op == "subset":
            kept[:] = data.draw(st.lists(edge, unique=True))
    return kept


# 5-regular, four components with |B| = 5, 6, 12 and 6: each has a rotation
# whose residual fits it, but no rotation of the whole graph fits them all
LU_WITNESS_PARTS = [random_regular_bipartite(n, 5, 18 + i) for i, n in enumerate((5, 6, 12, 6))]
LU_WITNESS = bipartite_union(LU_WITNESS_PARTS)


def test_lu_gives_each_component_its_own_rotation_when_none_fits_the_union():
    union_fits = [
        verify_lu(LU_WITNESS, kept_at(LU_WITNESS, 2, r)[0]).ok
        for r in range(24)
    ]
    assert union_fits == [False] * 24
    lu, orders = with_orders(lu_subgraph, LU_WITNESS, 5)
    # rotation 0 of the union put two triangles in the last component only,
    # so the second peel of the union moved that one alone to its rotation 1
    assert orders == [list(range(29)), list(range(23)) + [24, 25, 26, 27, 28, 23]]
    assert outcome(verify_lu, LU_WITNESS, lu) == outcome(old_verify_lu, LU_WITNESS, lu) == ()
    degrees = Counter(a for a, _ in lu.kept)
    assert sorted(degrees.values()).count(3) == 1
    # each component settles at that rotation alone, with the same kept edges
    kept, offset = [], 0
    for part, rotations in zip(LU_WITNESS_PARTS, ([0], [0], [0], [0, 1])):
        alone, tried = lu_with_rotations(part, 5)
        assert tried == rotations
        kept.extend((a + offset, b + offset) for a, b in alone.kept)
        offset += part.n_a
    assert lu.kept == tuple(kept)


@settings(max_examples=300, deadline=None)
@given(bipartite_instances(), st.data())
@example(LU_WITNESS, None)
def test_verify_lu_agrees_with_the_old_verifier(bg, data):
    k = len(bg.adj_a[0])
    lu = lu_subgraph(bg, k)
    assert outcome(verify_lu, bg, lu) == outcome(old_verify_lu, bg, lu) == ()
    if data is None:  # a pinned example: its certificate alone
        return
    kept = mutate_kept(data, bg, list(lu.kept))
    assert outcome(verify_lu, bg, kept) == outcome(old_verify_lu, bg, kept)


def test_component_search_runs_only_when_its_rule_can_fail(monkeypatch):
    odd = random_triple_system(21, 3, require_connected=True)
    even = random_triple_system(20, 3, require_connected=True)
    two_odd = hypergraph_union([odd, random_triple_system(9, 4, require_connected=True)])
    bg = random_regular_bipartite(15, 4, 2)
    two_bg = bipartite_union([bg, random_regular_bipartite(9, 4, 3)])
    odd_cert, even_cert, two_odd_certs = solve(odd), solve(even), solve_components(two_odd)
    lu, two_lu = lu_subgraph(bg, 4), lu_subgraph(two_bg, 4)
    calls = []
    real = verify_module._component_ids

    def spy(n, groups):
        calls.append(n)
        return real(n, groups)

    monkeypatch.setattr(verify_module, "_component_ids", spy)

    # connected solver certificates: at most one triangle or degree-3 A-vertex
    assert verify_partition(odd, odd_cert).ok
    assert verify_partition(even, even_cert).ok
    assert verify_lu(bg, lu).ok
    assert calls == []

    # one triangle or degree-3 A-vertex per odd component: the rule can fail
    assert sum(c.triangle is not None for c in two_odd_certs) == 2
    assert verify_partition(two_odd, two_odd_certs).ok
    assert calls == [two_odd.n]
    e, f = odd.hyperedges[:2]
    assert "component 0 carries 2 triangles" in verify_partition(odd, ([e, f], [])).violations
    assert calls == [two_odd.n, odd.n]
    assert sorted(Counter(a for a, _ in two_lu.kept).values()).count(3) == 2
    assert verify_lu(two_bg, two_lu).ok
    assert calls == [two_odd.n, odd.n, two_bg.n_a + two_bg.n_b]


def test_verify_certificate_reaches_the_checker_of_its_kind():
    """Kept edges, as an LuSubgraph or as a raw list for a BipartiteGraph,
    go to `verify_lu`; one partition, a list of them or a raw (triangles,
    pairs) tuple go to `verify_partition`.  Every other certificate misses
    a block, so the reports differ."""
    bg = random_regular_bipartite(9, 4, 3)
    lu = lu_subgraph(bg, 4)
    h = random_triple_system(21, 3, require_connected=True)
    cert = solve(h)
    short = TriMatchingPartition(triangle=cert.triangle, pairs=cert.pairs[1:], host=h)
    two = hypergraph_union([h, random_triple_system(9, 4, require_connected=True)])
    certs = solve_components(two)
    cases = [
        (verify_lu, bg, lu),
        (verify_lu, bg, LuSubgraph(kept=lu.kept[1:], host=bg)),
        (verify_lu, bg, list(lu.kept)),
        (verify_lu, bg, list(lu.kept[1:])),
        (verify_partition, h, cert),
        (verify_partition, h, short),
        (verify_partition, two, certs),
        (verify_partition, two, certs[1:]),
        (verify_partition, h, ([cert.triangle], list(cert.pairs))),
        (verify_partition, h, ([short.triangle], list(short.pairs))),
    ]
    reports = [verify_certificate(instance, c) for _, instance, c in cases]
    assert reports == [check(instance, c) for check, instance, c in cases]
    assert [r.ok for r in reports] == [True, False] * 5
