"""Instance/certificate text formats: round trips and diagnostics."""

import random

import pytest

from trimatch import (
    make_bipartite,
    make_graph,
    make_hypergraph,
    solve,
    solve_components,
    solve_k_uniform,
)
from trimatch.errors import ParseError
from trimatch.formats import (
    format_bipartite,
    format_graph,
    format_hypergraph,
    format_partition,
    parse_bipartite,
    parse_certificate,
    parse_graph,
    parse_hypergraph,
)
from trimatch.partition import TriMatchingPartition

from conftest import (
    hypergraph_union,
    partition_union_hypergraph,
    random_regular_bipartite,
    random_triple_system,
    relabelled,
)


def test_hypergraph_round_trip(fano):
    assert parse_hypergraph(format_hypergraph(fano)) == fano


def test_multiplicity_via_repeated_lines():
    text = "c the running example\np hyp 3 3 3\ne 0 1 2\ne 2 1 0\ne 0 1 2\n"
    h = parse_hypergraph(text)
    assert h.hyperedges == ((0, 1, 2),)
    assert h.multiplicities == (3,)
    assert format_hypergraph(h) == "p hyp 3 3 3\ne 0 1 2\ne 0 1 2\ne 0 1 2\n"


def test_graph_round_trip():
    g = make_graph(4, [(0, 1), (2, 3), (1, 2)])
    assert parse_graph(format_graph(g)) == g


def test_bipartite_round_trip():
    bg = make_bipartite(2, 3, [(0, 0), (0, 2), (1, 1)])
    assert parse_bipartite(format_bipartite(bg)) == bg


def test_parse_errors_carry_line_numbers():
    with pytest.raises(ParseError) as info:
        parse_hypergraph("p hyp 3 1 3\ne 0 zero 2\n")
    assert info.value.line == 2
    with pytest.raises(ParseError):
        parse_hypergraph("e 0 1 2\n")  # hyperedge before problem line
    with pytest.raises(ParseError):
        parse_hypergraph("p hyp 3 2 3\ne 0 1 2\n")  # count mismatch
    with pytest.raises(ParseError):
        parse_graph("p gr 2 1\ne 0\n")
    with pytest.raises(ParseError):
        parse_bipartite("p bip 1 1 1\nx 0 0\n")
    for parse, header, edge in (
        (parse_hypergraph, "p hyp 3 1 3", "e 0 1 2"),
        (parse_graph, "p gr 2 1", "e 0 1"),
        (parse_bipartite, "p bip 2 2 1", "e 0 1"),
    ):
        with pytest.raises(ParseError) as info:
            parse(f"{edge}\n{header}\n")  # e line before the problem line
        assert info.value.line == 1
        with pytest.raises(ParseError) as info:
            parse(f"{header}\n{header}\n{edge}\n")  # second problem line
        assert info.value.line == 2


def test_repeated_vertex_rejected_at_parse_time():
    with pytest.raises(ParseError):
        parse_hypergraph("p hyp 3 1 3\ne 0 0 1\n")


def test_certificate_parsing():
    triangles, pairs, keeps = parse_certificate(
        "c cert\ntriangle 2 0 1\npair 3 4\nkeep 0 5\n"
    )
    assert triangles == [(2, 0, 1)]
    assert pairs == [(3, 4)]
    assert keeps == [(0, 5)]
    with pytest.raises(ParseError):
        parse_certificate("triangle 0 1\n")
    with pytest.raises(ParseError):
        parse_certificate("block 0 1\n")


def test_partition_formatting_sorted_by_smallest_member(triple):
    cert = TriMatchingPartition(triangle=(3, 7, 8), pairs=((0, 1), (4, 5), (2, 6)), host=triple)
    text = format_partition(cert)
    assert text.splitlines() == [
        "pair 0 1",
        "pair 2 6",
        "triangle 3 7 8",
        "pair 4 5",
    ]


def test_partition_formatting_empty(triple):
    cert = TriMatchingPartition(triangle=None, pairs=(), host=triple)
    assert format_partition(cert) == ""


def old_format_partition(certs):
    """The certificate writer as it was before each block carried its `%`
    template: one f-string and one join per block."""
    if not isinstance(certs, (list, tuple)):
        certs = [certs]
    blocks = []
    for cert in certs:
        if cert.triangle is not None:
            blocks.append(("triangle", tuple(sorted(cert.triangle))))
        blocks.extend(("pair", p) for p in cert.pairs)
    blocks.sort(key=lambda kb: kb[1][0])
    lines = [f"{kind} " + " ".join(map(str, block)) for kind, block in blocks]
    return "\n".join(lines) + ("\n" if lines else "")


def writer_cases():
    """Odd and even certificates, componentwise lists over unions with
    interleaved ids at k = 3 and k = 4, `solve --k` certificates with a
    triangle of a k > 3 hyperedge, and the empty list."""
    rng = random.Random(5)
    triples = [
        random_triple_system(n, seed, require_connected=True)
        for n in (3, 12, 13, 100, 101, 501)
        for seed in (1, 2)
    ]
    for h in triples:
        yield solve(h)
    for size in (2, 3, 5):
        yield solve_components(relabelled(hypergraph_union(rng.sample(triples, size)), rng))
    for k in (4, 5):
        parts = [partition_union_hypergraph(k, q, 10 * q + k, True) for q in (1, 3, 5)]
        bg = random_regular_bipartite(9, k, k)
        parts.append(make_hypergraph(bg.n_b, bg.adj_a, k=k))
        for h in parts:
            yield solve_k_uniform(h, k)
        yield solve_components(relabelled(hypergraph_union(parts), rng), k)
    yield []


def test_one_template_writer_places_blocks_as_the_sort_did(triple):
    """Hand-built certificates around the triangle's place: first, last,
    between pairs, alone, sharing its head with pairs (which no valid
    partition does, so only the stable sort decides the order), and with
    pairs out of order, which take the sort."""
    for triangle, pairs in (
        ((9, 7, 8), ((0, 1), (2, 3))),
        ((0, 5, 6), ((1, 2), (3, 4))),
        ((6, 2, 3), ((0, 1), (4, 5), (7, 8))),
        ((2, 1, 0), ()),
        ((2, 5, 3), ((0, 1), (2, 4), (2, 6))),
        ((5, 2, 3), ((2, 4), (3, 6))),
        ((4, 3, 5), ((6, 7), (0, 1))),
        (None, ((6, 7), (0, 1), (2, 3))),
    ):
        cert = TriMatchingPartition(triangle=triangle, pairs=pairs, host=triple)
        for certs in (cert, [cert], (cert,)):
            assert format_partition(certs) == old_format_partition(certs)


def test_certificate_writer_agrees_with_the_old_writer():
    cases = list(writer_cases())
    for certs in cases:
        assert format_partition(certs) == old_format_partition(certs)
    # the cases reach a k > 3 triangle, componentwise lists and no block at all
    assert any(getattr(c, "triangle", None) and c.host.k > 3 for c in cases)
    assert sum(isinstance(c, list) and len(c) > 1 for c in cases) == 5
    assert format_partition([]) == ""
