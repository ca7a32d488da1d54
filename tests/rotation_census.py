"""Exhaustive check of the extraction-rotation retry behind `lu`.

Runs `lu_subgraph(bg, 4)` on every labelled 4-regular bipartite graph with
6 + 6 vertices: 67,950 graphs, each the complement of a 6x6 0/1 matrix with
row and column sums 2.  Prints how many graphs `lu_subgraph` settles at each
extraction rotation, read by a spy on `partition._kept_edges`, which runs
one pass per rotation, then runs `lu` on each graph that needed a rotation
past 0 joined with a copy of itself, and prints how many of those unions
fit no rotation of the whole graph and are solved one component at a time.
Exits non-zero if `lu` fails on any graph (every rotation fails `verify_lu`),
if either count differs from the pinned one (67,869 graphs at rotation
0, 81 at rotation 1, and all 81 unions solved per component), or if the
SHA-256 of all 67,950 `lu` certificates, as `format_lu` writes them and
in enumeration order, differs from the pinned one.  It takes about 20 s on
one core, so it runs as its own CI step rather than in the pytest suite:

    PYTHONPATH=src python tests/rotation_census.py
"""

from __future__ import annotations

import hashlib
import sys
from collections import Counter
from itertools import combinations

import trimatch.partition as partition
from trimatch import make_bipartite
from trimatch.errors import InternalError
from trimatch.formats import format_lu

SIDE = 6
EXPECTED_ROTATIONS = {0: 67869, 1: 81}
EXPECTED_FALLBACKS = 81
EXPECTED_SHA256 = "6390ff19dd8363567acb659315c0411f7e7c42e32bb8f89824bb1609d9d6368d"
ROW_MASKS = [(1 << i) | (1 << j) for i, j in combinations(range(SIDE), 2)]


def complement_masks():
    """Every 6x6 0/1 matrix with row and column sums 2, as row bitmasks."""
    rows = []
    col_sum = [0] * SIDE

    def extend():
        if len(rows) == SIDE:
            yield tuple(rows)
            return
        for mask in ROW_MASKS:
            cols = [c for c in range(SIDE) if mask >> c & 1]
            if all(col_sum[c] < 2 for c in cols):
                for c in cols:
                    col_sum[c] += 1
                rows.append(mask)
                yield from extend()
                rows.pop()
                for c in cols:
                    col_sum[c] -= 1

    yield from extend()


def graph_of(masks):
    """The 4-regular 6 + 6 graph whose non-edges are the set bits of `masks`."""
    edges = [
        (a, b) for a in range(SIDE) for b in range(SIDE) if not masks[a] >> b & 1
    ]
    return make_bipartite(SIDE, SIDE, edges)


def disjoint_union(*graphs):
    """The bipartite graphs side by side, each shifted past the ones before."""
    edges, off_a, off_b = [], 0, 0
    for bg in graphs:
        edges.extend((a + off_a, b + off_b) for a, b in bg.edges)
        off_a += bg.n_a
        off_b += bg.n_b
    return make_bipartite(off_a, off_b, edges)


def lu_with_rotations(bg, k=4):
    """`lu_subgraph(bg, k)` and the extraction rotations it tried, in order,
    as a spy on `_kept_edges` sees them: one pass per rotation."""
    original = partition._kept_edges
    rotations = []

    def spy(graph, t, rotation):
        rotations.append(rotation)
        return original(graph, t, rotation)

    partition._kept_edges = spy
    try:
        return partition.lu_subgraph(bg, k), rotations
    finally:
        partition._kept_edges = original


def lu_calls(bg, k=4):
    """`lu_subgraph(bg, k)` and how many times `lu_subgraph` ran, the
    per-component calls of its fallback included."""
    original = partition.lu_subgraph
    calls = []

    def spy(graph, degree):
        calls.append(graph)
        return original(graph, degree)

    partition.lu_subgraph = spy
    try:
        return spy(bg, k), len(calls)
    finally:
        partition.lu_subgraph = original


def main() -> int:
    settled = Counter()
    failed = []
    retried = []
    graphs = 0
    digest = hashlib.sha256()
    for masks in complement_masks():
        graphs += 1
        bg = graph_of(masks)
        try:
            lu, rotations = lu_with_rotations(bg)
        except InternalError as exc:
            # no rotation passed verify_lu
            failed.append((masks, exc))
            continue
        digest.update(format_lu(lu).encode("ascii"))
        settled[rotations[-1]] += 1
        if rotations[-1] > 0:
            retried.append(masks)
    fallbacks = 0
    for masks in retried:
        bg = graph_of(masks)
        try:
            _, calls = lu_calls(disjoint_union(bg, bg))
        except InternalError as exc:
            failed.append(((masks, masks), exc))
            continue
        fallbacks += calls > 1
    print(f"graphs: {graphs}")
    for rotation in sorted(settled):
        print(f"rotation {rotation}: {settled[rotation]}")
    print(f"self-unions of retried graphs solved per component: {fallbacks}")
    print(f"sha256 of the lu certificates: {digest.hexdigest()}")
    print(f"failed: {len(failed)}")
    for masks, exc in failed:
        print(f"  complement row masks {masks}: {exc}")
    pinned = (
        graphs == 67950
        and settled == EXPECTED_ROTATIONS
        and fallbacks == EXPECTED_FALLBACKS
        and digest.hexdigest() == EXPECTED_SHA256
    )
    return 0 if pinned and not failed else 1


if __name__ == "__main__":
    sys.exit(main())
