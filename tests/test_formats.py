"""Instance/certificate text formats: round trips and diagnostics."""

import pytest

from trimatch import make_bipartite, make_graph, make_hypergraph
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
