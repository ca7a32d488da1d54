"""Exhaustive check of the extraction-rotation retry behind `lu`.

Runs `lu_subgraph(bg, 4)` on every labelled 4-regular bipartite graph with
6 + 6 vertices: 67,950 graphs, each the complement of a 6x6 0/1 matrix with
row and column sums 2.  Prints how many graphs the retry in
`partition._extract_keeping_odd_count` settles at each rotation, and exits
non-zero if `lu` fails on any graph: every rotation splits its residual, or
the kept edges fail `lu`'s own `verify_lu` check.  It takes about 20 s on one
core, so it runs as its own CI step rather than in the pytest suite:

    PYTHONPATH=src python tests/rotation_census.py
"""

from __future__ import annotations

import sys
from collections import Counter
from itertools import combinations

import trimatch.partition as partition
from trimatch import make_bipartite
from trimatch.errors import InternalError

SIDE = 6
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


def lu_with_rotations(bg, k=4):
    """`lu_subgraph(bg, k)` and the extraction rotations it tried, in order."""
    original = partition.extract_disjoint_perfect_matchings
    rotations = []

    def spy(graph, t, _rotation=0):
        rotations.append(_rotation)
        return original(graph, t, _rotation=_rotation)

    partition.extract_disjoint_perfect_matchings = spy
    try:
        return partition.lu_subgraph(bg, k), rotations
    finally:
        partition.extract_disjoint_perfect_matchings = original


def main() -> int:
    settled = Counter()
    failed = []
    graphs = 0
    for masks in complement_masks():
        graphs += 1
        bg = graph_of(masks)
        try:
            _, rotations = lu_with_rotations(bg)
        except InternalError as exc:
            # every rotation split the residual, or the self-check failed
            failed.append((masks, exc))
            continue
        settled[rotations[-1]] += 1
    print(f"graphs: {graphs}")
    for rotation in sorted(settled):
        print(f"rotation {rotation}: {settled[rotation]}")
    print(f"failed: {len(failed)}")
    for masks, exc in failed:
        print(f"  complement row masks {masks}: {exc}")
    return 1 if failed or graphs != 67950 else 0


if __name__ == "__main__":
    sys.exit(main())
