"""Exhaustive census of `solve` on every small instance, odd cases first.

Enumerates every labelled 3-uniform 3-regular hypergraph on n vertices for
n from 3 to MAX_N: every multiset of triples on 0..n-1 in which each vertex
lies in exactly three, in lexicographic order of its sorted triples.  Each
instance is solved by `solve`, or by `solve_components` (`solve
--components`) when it is disconnected, and its certificate must pass
`verify_partition`; on a connected instance it must also be one of the
oracle's `all_tri_partitions`.

On every odd connected instance the solver's own path is checked step by
step: `_slice` on the walks of `_ear_walks` must give the walks, labels and
positions that the rescanning slicer of `test_ears.py` gives; the walks,
with the edges they leave as trivial ears, must be a valid decomposition
with those labels and positions that passes `old_assert_maximal`; and the
pairs read off it must pass `_check_near_perfect` with the chosen edge.
The apex (the triangle's vertex off the chosen edge) is counted by where
it first appears: on the circuit, on an earlier ear than the edge or on
the edge's own ear.

Pins the instance counts, the connected counts and the apex cases per n,
and one SHA-256 over the certificate text of every instance in turn, as
`format_partition` writes it.  Prints them and exits non-zero if any check
fails or any pin differs.  It takes a few seconds on one core, so it runs
as its own CI step rather than in the pytest suite:

    PYTHONPATH=src python tests/solve_census.py
"""

from __future__ import annotations

import hashlib
import sys
from collections import Counter
from itertools import chain, combinations

from trimatch import (
    Ear,
    EarDecomposition,
    all_tri_partitions,
    components,
    make_hypergraph,
    shadow_graph,
    solve,
    solve_components,
    validate_decomposition,
    verify_partition,
)
from trimatch.core import canonical_edge
from trimatch.ears import _ear_walks, _scan, _slice, _unmarked_edges
from trimatch.errors import InternalError
from trimatch.formats import format_partition
from trimatch.partition import _canon_pairs, _check_near_perfect, _prefix_matching

from test_ears import old_assert_maximal, rescan_slice

MAX_N = 7
INSTANCES = {3: 1, 4: 1, 5: 22, 6: 550, 7: 16700}
CONNECTED = {3: 1, 4: 1, 5: 22, 6: 540, 7: 16665}
APEX_CASES = {
    3: {"circuit": 1},
    5: {"earlier ear": 22},
    7: {"earlier ear": 16443, "same ear": 222},
}
SOLVE_SHA256 = "713b9d48a98e6de9d314ff5d308e3ec67da699d7ab31b76f69b7bd7353038dda"


def triple_systems(n):
    """Every multiset of triples on 0..n-1 in which each vertex lies in
    exactly three, as its sorted list of triples, in lexicographic order.

    The triples are taken in order, so when v is the lowest vertex not yet
    in three of them, every vertex below v is, and the next triple is one
    whose lowest vertex is v."""
    triples = list(combinations(range(n), 3))
    left = [3] * n
    chosen = []

    def extend(first):
        v = next((u for u in range(n) if left[u]), None)
        if v is None:
            yield list(chosen)
            return
        for i in range(first, len(triples)):
            t = triples[i]
            if t[0] > v:
                return
            if t[0] == v and all(left[u] for u in t):
                for u in t:
                    left[u] -= 1
                chosen.append(t)
                yield from extend(i)
                chosen.pop()
                for u in t:
                    left[u] += 1

    return extend(0)


def odd_path_fault(h, cert):
    """The apex case of the odd solve `cert` of the connected h, and what
    is wrong on the solver's path to it (None when nothing is)."""
    g = shadow_graph(h)
    adj = g.adjacency
    walks = _ear_walks(g)
    sliced = _slice(adj, [list(w) for w in walks])
    if sliced != rescan_slice(adj, walks):
        return None, "the slicer differs from the rescanning one"
    walks, labels, positions = sliced
    marks = _scan(adj, walks)[3]
    d = EarDecomposition(
        host=g,
        ears=tuple(Ear(tuple(w)) for w in chain(walks, _unmarked_edges(adj, marks))),
        labels=tuple(labels),
        positions=tuple(positions),
    )
    errs = validate_decomposition(d)
    if errs:
        return None, "; ".join(errs)
    k = len(walks) - 1
    a, b = walks[k][1:3]
    (apex,) = set(cert.triangle) - {a, b}
    case = ("circuit" if k == 0
            else "same ear" if labels[apex] == k else "earlier ear")
    pairs = _canon_pairs(_prefix_matching(walks, labels, positions, k + 1, apex))
    try:
        old_assert_maximal(d)
        _check_near_perfect(pairs, adj, apex, canonical_edge(a, b))
    except InternalError as exc:
        return case, str(exc)
    return case, None


def main() -> int:
    digest = hashlib.sha256()
    instances = Counter()
    connected = Counter()
    apex_cases = {}
    failed = []
    for n in range(3, MAX_N + 1):
        cases = Counter()
        for triples in triple_systems(n):
            instances[n] += 1
            h = make_hypergraph(n, triples, k=3)
            whole = len(components(shadow_graph(h)).blocks) == 1
            connected[n] += whole
            try:
                cert = solve(h) if whole else solve_components(h)
            except InternalError as exc:
                failed.append((triples, f"{type(exc).__name__}: {exc}"))
                continue
            digest.update(format_partition(cert).encode("ascii"))
            fault = None
            if not verify_partition(h, cert).ok:
                fault = "the certificate does not verify"
            elif whole and (cert.triangle, cert.pairs) not in all_tri_partitions(h):
                fault = "the certificate is not among the oracle's partitions"
            elif whole and n % 2:
                case, fault = odd_path_fault(h, cert)
                cases[case] += 1
            if fault is not None:
                failed.append((triples, fault))
        if n % 2:
            apex_cases[n] = dict(cases)
    sha = digest.hexdigest()
    for n in sorted(instances):
        print(f"n={n}: {instances[n]} instances, {connected[n]} connected"
              + (f", apex cases {apex_cases[n]}" if n in apex_cases else ""))
    print(f"solve sha256: {sha}")
    print(f"failed: {len(failed)}")
    for triples, fault in failed[:20]:
        print(f"  {triples}: {fault}")
    pinned = (
        dict(instances) == INSTANCES
        and dict(connected) == CONNECTED
        and apex_cases == APEX_CASES
        and sha == SOLVE_SHA256
    )
    return 0 if pinned and not failed else 1


if __name__ == "__main__":
    sys.exit(main())
