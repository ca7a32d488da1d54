"""Exhaustive check of the extraction-rotation choice behind `lu` and
`solve --k`.

Runs on every labelled 4-regular bipartite graph with 6 + 6 vertices:
67,950 graphs, each the complement of a 6x6 0/1 matrix with row and column
sums 2.  For each graph it

- runs `lu_subgraph(bg, 4)` and counts the extraction rotation it settles
  at, read by a spy on `partition._residual_certificates`, which peels
  once per rotation in an A-order that, on a connected graph, starts at
  the rotation;
- runs `solve_k_uniform(h, 4)` on the hypergraph view of the graph, one
  hyperedge per A-vertex (17,550 of the views fold a repeated hyperedge),
  and counts its rotation the same way;
- checks the triangle rule at rotations 0 and 1: `verify_lu` accepts the
  kept edges of a rotation exactly when its residual certificates hold at
  most one triangle.

Then it runs `lu` on each graph that needed a rotation past 0 joined with
a copy of itself, and counts the unions whose kept edges are the graph's
own beside those of the copy shifted by 6: each copy is rotated on its
own inside the union's peel.  Exits non-zero if `lu` or `solve --k` fails
on any graph, if the triangle rule and `verify_lu` disagree anywhere, or
if a count differs from the pinned one: 67,869 graphs at rotation 0 and
81 at rotation 1 for both commands, and all 81 unions kept as their
copies.  It also pins the SHA-256 of all
67,950 `lu` certificates as `format_lu` writes them, and of all 67,950
view certificates as `format_partition` writes them, in enumeration
order.  It takes about 25 s on one core, so it runs as its own CI step
rather than in the pytest suite:

    PYTHONPATH=src python tests/rotation_census.py
"""

from __future__ import annotations

import hashlib
import sys
from collections import Counter
from itertools import combinations

import trimatch.partition as partition
from trimatch import make_bipartite, make_hypergraph, solve_k_uniform, verify_lu
from trimatch.errors import InternalError
from trimatch.formats import format_lu, format_partition

SIDE = 6
EXPECTED_ROTATIONS = {0: 67869, 1: 81}
EXPECTED_UNIONS = 81
EXPECTED_SHA256 = "6390ff19dd8363567acb659315c0411f7e7c42e32bb8f89824bb1609d9d6368d"
EXPECTED_VIEW_SHA256 = "42e71e7638ed4bfd92c2113b9afd38030f527d8578e7d5e9e9a409a033c5789c"
EXPECTED_FOLDED = 17550
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


def with_orders(call, *args):
    """`call(*args)` and the A-order of each peel it ran, as a spy on
    `_residual_certificates` sees them."""
    original = partition._residual_certificates
    orders = []

    def spy(adj, n_b, t, order):
        orders.append(list(order))
        return original(adj, n_b, t, order)

    partition._residual_certificates = spy
    try:
        return call(*args), orders
    finally:
        partition._residual_certificates = original


def with_rotations(call, *args):
    """`call(*args)` and the first A-vertex of each peel's order: on a
    connected graph, one peel per rotation, whose order starts at it."""
    result, orders = with_orders(call, *args)
    return result, [order[0] for order in orders]


def lu_with_rotations(bg, k=4):
    """`lu_subgraph(bg, k)` and the extraction rotations it tried."""
    return with_rotations(partition.lu_subgraph, bg, k)


def kept_at(bg, t, rotation):
    """The sorted kept edges of the residual certificates that deleting t
    matchings at `rotation` of the whole graph leaves, and how many
    triangles they hold."""
    order = [(i + rotation) % bg.n_a for i in range(bg.n_a)]
    slots, certs = partition._residual_certificates(bg.adj_a, bg.n_b, t, order)
    triangles = sum(cert.triangle is not None for cert in certs)
    return tuple(sorted(partition._kept_edges(slots, certs))), triangles


def rule_holds(bg, rotation, k=4):
    """Whether `verify_lu` accepts the kept edges of `rotation` exactly when
    its residual certificates hold at most one triangle."""
    kept, triangles = kept_at(bg, k - 3, rotation)
    return verify_lu(bg, kept).ok == (triangles <= 1)


def main() -> int:
    settled = Counter()
    view_settled = Counter()
    failed = []
    retried = []
    graphs = folded = rule_checks = 0
    digest = hashlib.sha256()
    view_digest = hashlib.sha256()
    for masks in complement_masks():
        graphs += 1
        bg = graph_of(masks)
        h = make_hypergraph(SIDE, bg.adj_a, k=4)
        folded += max(h.multiplicities) > 1
        try:
            lu, rotations = lu_with_rotations(bg)
            cert, view_rotations = with_rotations(solve_k_uniform, h, 4)
        except InternalError as exc:
            # no rotation fitted, or the final verifier refused
            failed.append((masks, exc))
            continue
        digest.update(format_lu(lu).encode("ascii"))
        view_digest.update(format_partition(cert).encode("ascii"))
        settled[rotations[-1]] += 1
        view_settled[view_rotations[-1]] += 1
        if rotations[-1] > 0:
            retried.append(masks)
        for rotation in (0, 1):
            rule_checks += 1
            if not rule_holds(bg, rotation):
                failed.append((masks, f"triangle rule disagrees at rotation {rotation}"))
    unions = 0
    for masks in retried:
        bg = graph_of(masks)
        try:
            union = partition.lu_subgraph(disjoint_union(bg, bg), 4)
        except InternalError as exc:
            failed.append(((masks, masks), exc))
            continue
        kept = partition.lu_subgraph(bg, 4).kept
        unions += union.kept == kept + tuple((a + SIDE, b + SIDE) for a, b in kept)
    print(f"graphs: {graphs}")
    for rotation in sorted(settled):
        print(f"lu rotation {rotation}: {settled[rotation]}")
    for rotation in sorted(view_settled):
        print(f"solve --k view rotation {rotation}: {view_settled[rotation]}")
    print(f"views folding a repeated hyperedge: {folded}")
    print(f"triangle rule checked against verify_lu: {rule_checks}")
    print(f"self-unions of retried graphs kept as their copies: {unions}")
    print(f"sha256 of the lu certificates: {digest.hexdigest()}")
    print(f"sha256 of the solve --k view certificates: {view_digest.hexdigest()}")
    print(f"failed: {len(failed)}")
    for masks, exc in failed:
        print(f"  complement row masks {masks}: {exc}")
    pinned = (
        graphs == 67950
        and settled == view_settled == EXPECTED_ROTATIONS
        and folded == EXPECTED_FOLDED
        and rule_checks == 2 * graphs
        and unions == EXPECTED_UNIONS
        and digest.hexdigest() == EXPECTED_SHA256
        and view_digest.hexdigest() == EXPECTED_VIEW_SHA256
    )
    return 0 if pinned and not failed else 1


if __name__ == "__main__":
    sys.exit(main())
