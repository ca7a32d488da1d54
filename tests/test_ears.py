"""Odd ear decompositions: construction, odd-edge predicate, slicing."""

import pytest

from trimatch import (
    Ear,
    EarDecomposition,
    dump_decomposition,
    ear_label,
    is_odd_edge,
    last_nontrivial_ear,
    make_graph,
    maximalize,
    odd_ear_decomposition,
    random_triple_system,
    shadow_graph,
    validate_decomposition,
)
from trimatch.ears import _assemble
from trimatch.errors import InvariantViolation, NotFactorCritical

from conftest import complete_graph, cycle_graph


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
    d = _assemble(g, [[0, 1, 2, 3, 4, 0], [0, 5, 6, 1]])
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
    d2 = _assemble(g, [[0, 1, 2, 3, 4, 0], [0, 5, 6, 1], [0, 2]])
    assert last_nontrivial_ear(d2) == 1


def test_maximalize_fixpoints():
    k3 = odd_ear_decomposition(complete_graph(3))
    assert maximalize(k3) == k3
    d = maximalize(odd_ear_decomposition(complete_graph(5)))
    assert maximalize(d) == d


def test_maximalize_c5_with_chord():
    g = make_graph(5, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 0), (0, 2)])
    d = _assemble(g, [[0, 1, 2, 3, 4, 0], [0, 2]])
    out = maximalize(d)
    assert not validate_decomposition(out)
    assert nontrivial_count(out) == 2
    assert sum(1 for e in out.ears if e.trivial) == 0
    assert out.ears[0].vertices == (0, 1, 2, 0)
    assert out.ears[1].vertices == (2, 3, 4, 0)


def test_maximalize_rejects_invalid_input():
    g = make_graph(3, [(0, 1), (1, 2), (0, 2)])
    bad = _assemble(g, [[0, 1, 2, 0], [0, 1]])  # edge reuse
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
