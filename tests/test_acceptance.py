"""Acceptance suite: every criterion at its stated tolerance and budget.

Run with `pytest tests/test_acceptance.py -v -s` to see one line per
criterion.  All checks are exact combinatorial assertions; the only
tolerances are the wall-clock budgets.
"""

import hashlib
import itertools
import subprocess
import sys
import time

from trimatch import (
    all_perfect_matchings,
    all_tri_partitions,
    component_bound_check,
    factor_critical_by_enumeration,
    is_factor_critical,
    is_odd_edge,
    lu_subgraph,
    make_graph,
    make_hypergraph,
    matching_with_edge_avoiding,
    maximalize,
    odd_ear_decomposition,
    random_regular_bipartite,
    random_triple_system,
    shadow_graph,
    solve,
    validate_decomposition,
    verify_lu,
    verify_partition,
)
from trimatch.formats import format_partition

from conftest import FANO_LINES, circulant_bipartite, circulant_hypergraph


def _report(num, name, elapsed, limit):
    print(f"[acceptance {num}] PASS {name} ({elapsed:.2f}s < {limit}s)")
    assert elapsed < limit, f"criterion {num} exceeded its {limit}s budget"


def _instances_upto_13():
    out = []
    for n in range(4, 14):
        for s in range(50):
            out.append(random_triple_system(n, seed=1_000 * n + s, require_connected=True))
    out.append(make_hypergraph(7, FANO_LINES, k=3))
    out.append(make_hypergraph(4, list(itertools.combinations(range(4), 3)), k=3))
    return out


def test_criterion_1_paper_example():
    h = make_hypergraph(3, [(0, 1, 2)] * 3, k=3)
    solve(h)  # warm caches so the timed run measures the algorithm
    t0 = time.perf_counter()
    cert = solve(h)
    elapsed = time.perf_counter() - t0
    assert format_partition(cert) == "triangle 0 1 2\n"
    assert verify_partition(h, cert).ok
    assert elapsed < 0.010
    print(f"[acceptance 1] PASS triple example -> 'triangle 0 1 2' ({elapsed*1000:.2f}ms < 10ms)")


def test_criterion_2_theorem_oracle_equivalence():
    t0 = time.perf_counter()
    instances = _instances_upto_13()
    assert len(instances) >= 502
    for h in instances:
        cert = solve(h)
        assert (cert.triangle is None) == (h.n % 2 == 0)
        assert (cert.triangle, cert.pairs) in all_tri_partitions(h)
    _report(2, f"solver output in oracle list on {len(instances)} instances",
            time.perf_counter() - t0, 60)


def test_criterion_3_factor_criticality_claim():
    t0 = time.perf_counter()
    count = 0
    for n in range(5, 52, 2):
        for s in range(9):
            h = random_triple_system(n, seed=2_000 * n + s, require_connected=True)
            g = shadow_graph(h)
            assert is_factor_critical(g)
            if n <= 13:
                assert factor_critical_by_enumeration(g)
            count += 1
    assert count >= 200
    _report(3, f"factor-criticality on {count} odd instances (n<=51)",
            time.perf_counter() - t0, 120)


def test_criterion_4_component_bound():
    t0 = time.perf_counter()
    instances = _instances_upto_13()
    checked = 0
    for h in instances:
        for size in (1, 2, 3):
            for xs in itertools.combinations(range(h.n), size):
                count, card = component_bound_check(h, xs)
                assert count <= card
                checked += 1
    _report(4, f"component bound on {checked} (instance, X) pairs",
            time.perf_counter() - t0, 60)


def test_criterion_5_ear_invariants():
    t0 = time.perf_counter()
    count = 0
    for n in range(5, 52, 2):
        for s in range(9):
            h = random_triple_system(n, seed=3_000 * n + s, require_connected=True)
            g = shadow_graph(h)
            d = odd_ear_decomposition(g)
            assert not validate_decomposition(d)
            out = maximalize(d)
            assert not validate_decomposition(out)
            before = sum(1 for e in d.ears if not e.trivial)
            after = sum(1 for e in out.ears if not e.trivial)
            assert after >= before
            on_ear = [set(e.edge_walk()) for e in out.ears]
            for e in g.edges:
                if is_odd_edge(out, e):
                    assert e in on_ear[out.labels[e[0]]]
            count += 1
    assert count >= 200
    _report(5, f"ear invariants on {count} factor-critical shadows",
            time.perf_counter() - t0, 60)


def test_criterion_6_forced_edge_matchings():
    t0 = time.perf_counter()
    samples = 0
    oracle_cache = {}
    for n in (9, 11, 13):
        for s in range(40):
            if samples >= 1000:
                break
            h = random_triple_system(n, seed=4_000 * n + s, require_connected=True)
            g = shadow_graph(h)
            d = maximalize(odd_ear_decomposition(g))
            for k, ear in enumerate(d.ears):
                if k == 0 or ear.trivial:
                    continue
                walk = ear.vertices
                odd_edges = [
                    (walk[i], walk[i + 1]) for i in range(1, ear.n_edges - 1, 2)
                ]
                eligible = [v for v in range(g.n) if d.labels[v] < k]
                for e in odd_edges:
                    for v in eligible:
                        m = matching_with_edge_avoiding(d, e, v)
                        ce = tuple(sorted(e))
                        assert ce in m.pairs
                        assert len(m.pairs) == (g.n - 1) // 2
                        assert v not in m.covered()
                        key = (n, s, v)
                        if key not in oracle_cache:
                            oracle_cache[key] = all_perfect_matchings(g, avoid=v)
                        assert m.pairs in oracle_cache[key]
                        samples += 1
    assert samples >= 1000
    _report(6, f"forced-edge matchings on {samples} (D, e, v) triples",
            time.perf_counter() - t0, 60)


def _bip_connected(bg):
    g = make_graph(
        bg.n_a + bg.n_b, [(a, bg.n_a + b) for a, b in bg.edges]
    )
    from trimatch import components

    return len(components(g).blocks) == 1


def test_criterion_7_regular_bipartite_subgraphs():
    t0 = time.perf_counter()
    count = 0
    sizes = [5, 6, 7, 9, 12, 15, 21, 30, 50, 80, 140, 200]
    for k in (3, 4, 5):
        for n_side in sizes:
            for s in range(3):
                seed = 5_000_000 + 10_000 * k + 10 * n_side + s
                bg = random_regular_bipartite(n_side, k, seed)
                bump = 0
                while not _bip_connected(bg):
                    bump += 1
                    bg = random_regular_bipartite(n_side, k, seed + 1_000_000 * bump)
                lu = lu_subgraph(bg, k)
                assert verify_lu(bg, lu).ok
                deg_a = [0] * bg.n_a
                deg_b = [0] * bg.n_b
                for a, b in lu.kept:
                    deg_a[a] += 1
                    deg_b[b] += 1
                assert all(d == 1 for d in deg_b)
                threes = sum(1 for d in deg_a if d == 3)
                assert all(d in (0, 2, 3) for d in deg_a)
                assert threes == bg.n_b % 2
                count += 1
    assert count >= 100
    _report(7, f"kept-subgraph invariants on {count} bipartite instances (k in 3..5)",
            time.perf_counter() - t0, 60)


def test_criterion_8_scale():
    t0 = time.perf_counter()
    h = random_triple_system(2001, seed=42, require_connected=True)
    cert = solve(h)
    assert verify_partition(h, cert).ok
    elapsed = time.perf_counter() - t0
    assert cert.triangle is not None
    _report(8, "n=2001 instance solved and verified", elapsed, 10)


def test_criterion_10_id_ordered_ring():
    """The ring {i, i + 1, i + 2} mod n with its ids in ring order: slicing
    cuts one long walk about n / 2 times."""
    h = circulant_hypergraph(16001, 1, 2)
    t0 = time.perf_counter()
    cert = solve(h)
    elapsed = time.perf_counter() - t0
    assert hashlib.sha256(format_partition(cert).encode()).hexdigest() == (
        "a967d63bbdd60d92407faa00aa1af71a770420eedc8a98f02e5214a224df3640"
    )
    _report(10, "odd ring n=16001 solved", elapsed, 0.5)


def test_criterion_11_id_ordered_lu():
    """`lu` on the 4-regular circulant with odd |B| peels a ring as its
    residual, which the odd construction slices."""
    bg = circulant_bipartite(16001, 4)
    t0 = time.perf_counter()
    lu = lu_subgraph(bg, 4)
    elapsed = time.perf_counter() - t0
    assert verify_lu(bg, lu).ok
    _report(11, "lu on the odd 4-regular circulant |B|=16001", elapsed, 0.5)


def test_criterion_9_determinism(tmp_path):
    t0 = time.perf_counter()

    def run3(*argv):
        outs = {
            subprocess.run(
                [sys.executable, "-m", "trimatch", *argv],
                capture_output=True,
                check=True,
            ).stdout
            for _ in range(3)
        }
        assert len(outs) == 1
        return outs.pop()

    hyp = run3("gen", "--n", "11", "--seed", "9", "--connected")
    bip = run3("gen", "--bip", "--n", "6", "--k", "4", "--seed", "9")
    hyp_file = tmp_path / "i.hyp"
    hyp_file.write_bytes(hyp)
    bip_file = tmp_path / "i.bip"
    bip_file.write_bytes(bip)
    cert = run3("solve", str(hyp_file))
    run3("solve", str(hyp_file), "--json")
    cert_file = tmp_path / "i.cert"
    cert_file.write_bytes(cert)
    run3("verify", str(hyp_file), str(cert_file))
    keep = run3("lu", str(bip_file))
    keep_file = tmp_path / "i.keep"
    keep_file.write_bytes(keep)
    run3("verify", "--lu", str(bip_file), str(keep_file))
    run3("oracle", str(hyp_file))
    _report(9, "byte-identical outputs across 3 repetitions of each command",
            time.perf_counter() - t0, 60)
