"""Exhaustive check of the forced-edge matchings read off the ears.

For every odd n from 3 to MAX_N and every seed from 1 to 5, takes the odd
ear decomposition of the shadow graph of
`random_triple_system(n, seed, require_connected=True)` and its maximal
form.  On each, for every prefix of k ears and every vertex (hole) on it,
`partition._prefix_matching(walks, labels, positions, k, hole)` must be a
perfect matching of the prefix's edges minus the hole.  For every vertex as
the hole, the ears after the last nontrivial one must add no pair: the
matching of all the ears must equal that of the ears up to the last
nontrivial one.  On each instance, the walks, labels, positions and last
nontrivial ear that the solver reads off `ears._slice`, labels and
positions as `_slice` gives them, must equal those of the maximal form, and
the edges its walks leave unmarked must be the maximal form's trivial ears.

The odd solve's output bytes are pinned: one SHA-256 over
`format_partition(solve(h))` of each instance in turn, then of each of
SAME_EAR_INSTANCES, must equal SOLVE_SHA256.  On the same instances, the
number whose apex (the triangle's vertex off the chosen edge) lies on the
circuit, on an earlier ear or on the chosen edge's own ear must equal
APEX_CASES.  Prints the number of (prefix, hole) cases, of tail cases and
of instances, the digest and the apex cases, and exits non-zero if any
check fails.  It takes about 30 s on one core, so it runs as its own CI
step rather than in the pytest suite:

    PYTHONPATH=src python tests/prefix_census.py
"""

from __future__ import annotations

import hashlib
import sys
from collections import Counter

from trimatch import (
    last_nontrivial_ear,
    maximalize,
    odd_ear_decomposition,
    random_triple_system,
    shadow_graph,
    solve,
)
from trimatch.core import canonical_edge
from trimatch.ears import _ear_walks, _scan, _slice, _unmarked_edges
from trimatch.formats import format_partition
from trimatch.partition import _prefix_matching

MAX_N = 55
SEEDS = range(1, 6)
# (n, seed) of `random_triple_system` instances whose apex first appears on
# the chosen edge's own ear, after the circuit: random instances rarely do
SAME_EAR_INSTANCES = [
    (7, 10), (11, 8583), (19, 14789), (25, 19442), (33, 9), (51, 10), (127, 9)
]
SOLVE_SHA256 = "cbcbfb9be7415a55873dd7a38a51bc8e516d68d74e2b76ce27f8177613f7d387"
APEX_CASES = {"circuit": 5, "earlier ear": 130, "same ear": 7}


def decompositions(n, seeds):
    """(seed, d) for the unsliced and the maximal decomposition of each
    seed's instance."""
    for seed in seeds:
        h = random_triple_system(n, seed=seed, require_connected=True)
        d = odd_ear_decomposition(shadow_graph(h))
        yield seed, d
        yield seed, maximalize(d)


def solve_path_fault(d):
    """None when the solver's walks, labels, positions, last nontrivial ear
    and unmarked edges for d's host equal those of d, a maximal
    decomposition of it built by the public functions, with d's trivial
    ears as the unmarked edges; else what differs."""
    g = d.host
    walks, labels, positions = _slice(g.adjacency, _ear_walks(g))
    k = len(walks) - 1
    if k != last_nontrivial_ear(d):
        return "the last nontrivial ear differs"
    if list(map(tuple, walks)) != walks_of(d)[: k + 1]:
        return "the walks differ"
    if (tuple(labels), tuple(positions)) != (d.labels, d.positions):
        return "the labels or positions differ"
    marks = _scan(g.adjacency, walks)[3]
    if _unmarked_edges(g.adjacency, marks) != walks_of(d)[k + 1 :]:
        return "the trivial ears differ"
    return None


def walks_of(d):
    return [ear.vertices for ear in d.ears]


def prefix_cases(d):
    """(k, hole, fault) for every prefix of k ears and every hole on it;
    fault is None when the matching is right, else what is wrong with it."""
    walks = walks_of(d)
    edges = set()
    vertices = set()
    for k, ear in enumerate(d.ears, start=1):
        edges.update(ear.edge_walk())
        vertices.update(ear.vertices)
        for hole in sorted(vertices):
            pairs = _prefix_matching(walks, d.labels, d.positions, k, hole)
            covered = [v for pair in pairs for v in pair]
            fault = None
            if any(canonical_edge(*pair) not in edges for pair in pairs):
                fault = "a pair is not an edge of the prefix"
            elif len(set(covered)) != len(covered):
                fault = "pairs overlap"
            elif set(covered) != vertices - {hole}:
                fault = "pairs do not cover the prefix minus the hole"
            yield k, hole, fault


def tail_cases(d):
    """(hole, fault) for every vertex as the hole; fault is None when the
    ears after the last nontrivial one add no pair, as single edges must."""
    walks = walks_of(d)
    k = last_nontrivial_ear(d) + 1
    for hole in range(d.host.n):
        whole = _prefix_matching(walks, d.labels, d.positions, len(walks), hole)
        fault = None
        if whole != _prefix_matching(walks, d.labels, d.positions, k, hole):
            fault = "the ears after the last nontrivial one add pairs"
        yield hole, fault


def apex_case(h, cert):
    """Where the apex of h's odd solve `cert` first appears: on the circuit,
    on an earlier ear than the chosen edge or on the edge's own ear."""
    g = shadow_graph(h)
    walks, labels, _ = _slice(g.adjacency, _ear_walks(g))
    k = len(walks) - 1
    (apex,) = set(cert.triangle) - set(walks[k][1:3])
    if k == 0:
        return "circuit"
    return "same ear" if labels[apex] == k else "earlier ear"


def solve_census(instances):
    """The SHA-256 over the certificate text of each instance's odd solve,
    in turn, and the number of instances of each apex case."""
    digest = hashlib.sha256()
    cases = Counter()
    for n, seed in instances:
        h = random_triple_system(n, seed=seed, require_connected=True)
        cert = solve(h)
        digest.update(format_partition(cert).encode())
        cases[apex_case(h, cert)] += 1
    return digest.hexdigest(), dict(cases)


def main() -> int:
    cases = tails = instances = 0
    failed = []
    for n in range(3, MAX_N + 1, 2):
        for i, (seed, d) in enumerate(decompositions(n, SEEDS)):
            if i % 2:  # each instance's unsliced form comes before its maximal one
                instances += 1
                fault = solve_path_fault(d)
                if fault is not None:
                    failed.append((n, seed, "solve path", None, fault))
            for k, hole, fault in prefix_cases(d):
                cases += 1
                if fault is not None:
                    failed.append((n, seed, f"prefix of {k} ears", hole, fault))
            for hole, fault in tail_cases(d):
                tails += 1
                if fault is not None:
                    failed.append((n, seed, "all ears", hole, fault))
    sha, apex_cases = solve_census(
        [(n, seed) for n in range(3, MAX_N + 1, 2) for seed in SEEDS]
        + SAME_EAR_INSTANCES
    )
    if sha != SOLVE_SHA256:
        failed.append((None, None, "solve bytes", None, f"SHA-256 {sha}"))
    if apex_cases != APEX_CASES:
        failed.append((None, None, "apex cases", None, f"{apex_cases}"))
    print(f"cases: {cases}")
    print(f"tail cases: {tails}")
    print(f"instances: {instances}")
    print(f"solve sha256: {sha}")
    print(f"apex cases: {apex_cases}")
    print(f"failed: {len(failed)}")
    for n, seed, where, hole, fault in failed[:20]:
        print(f"  n={n} seed={seed}, {where}, hole {hole}: {fault}")
    return 1 if failed or not cases or not tails or not instances else 0


if __name__ == "__main__":
    sys.exit(main())
