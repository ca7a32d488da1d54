"""Malformed and hostile input text: the parsers and builders against
copies of their earlier forms, and the CLI's exit codes.

The copies below are the line-by-line parsers and the item-by-item
builders as they were before writer-form text was read by one JSON pass
and rows were checked in bulk, with one check added since to the graph
builders: a negative vertex count.  Every parser and builder must give the
same value as its copy, or raise the same exception class with the same
message and line.
"""

import contextlib
import io
import os
import random
import tempfile

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from trimatch import (
    cli,
    formats,
    lu_subgraph,
    make_bipartite,
    make_graph,
    make_hypergraph,
    shadow_graph,
    solve,
    solve_k_uniform,
)
from trimatch.core import Hypergraph, SimpleGraph, canonical_edge
from trimatch.errors import ParallelEdges, ParseError
from trimatch.matching import BipartiteGraph

from conftest import hand_edited, random_regular_bipartite, random_triple_system


def old_tokenized(text):
    for lineno, raw in enumerate(text.splitlines(), start=1):
        tokens = raw.split()
        if tokens and tokens[0][0] != "c":
            yield lineno, tokens


def old_ints(tokens, lineno):
    try:
        return list(map(int, tokens))
    except ValueError as exc:
        raise ParseError(f"expected integers, got {tokens!r}", line=lineno) from exc


def old_parse_problem(text, kind, fields, arity, build):
    header = None
    rows = []
    for lineno, tokens in old_tokenized(text):
        if tokens[0] == "p":
            if header is not None:
                raise ParseError("duplicate problem line", line=lineno)
            if len(tokens) != 2 + len(fields) or tokens[1] != kind:
                usage = " ".join(f"<{f}>" for f in fields)
                raise ParseError(f"expected `p {kind} {usage}`", line=lineno)
            header = old_ints(tokens[2:], lineno)
        elif tokens[0] == "e":
            if header is None:
                raise ParseError("e line before problem line", line=lineno)
            row = old_ints(tokens[1:], lineno)
            if len(row) != arity if arity else not row:
                raise ParseError(f"e line has {len(row)} vertices", line=lineno)
            rows.append(row)
        else:
            raise ParseError(f"unknown line type {tokens[0]!r}", line=lineno)
    if header is None:
        raise ParseError(f"missing `p {kind}` problem line")
    m = header.pop(fields.index("m"))
    if len(rows) != m:
        raise ParseError(f"problem line promises {m} e lines, found {len(rows)}")
    try:
        return build(rows, *header)
    except ValueError as exc:
        raise ParseError(str(exc)) from exc


def old_parse_hypergraph(text: str) -> Hypergraph:
    return old_parse_problem(
        text, "hyp", ("n", "m", "k"), 0,
        lambda rows, n, k: old_make_hypergraph(n, rows, k=k),
    )


def old_parse_graph(text: str) -> SimpleGraph:
    return old_parse_problem(
        text, "gr", ("n", "m"), 2, lambda rows, n: old_make_graph(n, rows)
    )


def old_parse_bipartite(text: str) -> BipartiteGraph:
    return old_parse_problem(
        text, "bip", ("nA", "nB", "m"), 2,
        lambda rows, n_a, n_b: old_make_bipartite(n_a, n_b, rows),
    )


def old_parse_certificate(text: str) -> tuple[list, list, list]:
    triangles, pairs, keeps = [], [], []
    for lineno, tokens in old_tokenized(text):
        kind, rest = tokens[0], old_ints(tokens[1:], lineno)
        if kind == "triangle":
            if len(rest) != 3:
                raise ParseError("triangle needs 3 vertices", line=lineno)
            triangles.append(tuple(rest))
        elif kind == "pair":
            if len(rest) != 2:
                raise ParseError("pair needs 2 vertices", line=lineno)
            pairs.append(tuple(rest))
        elif kind == "keep":
            if len(rest) != 2:
                raise ParseError("keep needs 2 endpoints", line=lineno)
            keeps.append(tuple(rest))
        else:
            raise ParseError(f"unknown certificate line {kind!r}", line=lineno)
    return triangles, pairs, keeps


def old_make_hypergraph(n, hyperedges, k=None, multiplicities=None) -> Hypergraph:
    if n < 0:
        raise ValueError("vertex count must be nonnegative")
    hyperedges = [tuple(e) for e in hyperedges]
    if multiplicities is None:
        multiplicities = [1] * len(hyperedges)
    elif len(multiplicities) != len(hyperedges):
        raise ValueError("multiplicities do not match hyperedges")
    folded: dict[tuple[int, ...], int] = {}
    for e, mult in zip(hyperedges, multiplicities):
        if mult < 1:
            raise ValueError("multiplicities must be positive")
        ce = tuple(sorted(e))
        if ce and (ce[0] < 0 or ce[-1] >= n):
            v = next(v for v in e if not 0 <= v < n)
            raise ValueError(f"vertex {v} out of range [0, {n})")
        if len(set(ce)) != len(ce):
            raise ValueError(f"hyperedge {e} repeats a vertex")
        folded[ce] = folded.get(ce, 0) + mult
    if k is None:
        k = len(next(iter(folded), ()))
    return Hypergraph(
        n=n,
        hyperedges=tuple(folded.keys()),
        multiplicities=tuple(folded.values()),
        k=k,
    )


def old_make_graph(n, edges) -> SimpleGraph:
    if n < 0:
        raise ValueError("vertex count must be nonnegative")
    canon = set()
    for u, v in edges:
        if u == v:
            raise ValueError(f"loop at vertex {u}")
        if not (0 <= u < n and 0 <= v < n):
            raise ValueError(f"edge ({u}, {v}) out of range [0, {n})")
        canon.add(canonical_edge(u, v))
    ordered = tuple(sorted(canon))
    # filled in sorted edge order, so every list comes out increasing
    adj = [[] for _ in range(n)]
    for u, v in ordered:
        adj[u].append(v)
        adj[v].append(u)
    return SimpleGraph(
        n=n,
        edges=ordered,
        adjacency=tuple(map(tuple, adj)),
        edge_set=frozenset(ordered),
    )


def old_make_bipartite(n_a, n_b, edges) -> BipartiteGraph:
    if n_a < 0 or n_b < 0:
        raise ValueError("vertex count must be nonnegative")
    seen = set()
    for a, b in edges:
        if not (0 <= a < n_a and 0 <= b < n_b):
            raise ValueError(f"edge ({a}, {b}) out of range")
        if (a, b) in seen:
            raise ParallelEdges(f"parallel edge ({a}, {b})")
        seen.add((a, b))
    ordered = tuple(sorted(seen))
    # filled in sorted edge order, so every list comes out increasing
    adj_a = [[] for _ in range(n_a)]
    adj_b = [[] for _ in range(n_b)]
    for a, b in ordered:
        adj_a[a].append(b)
        adj_b[b].append(a)
    return BipartiteGraph(
        n_a=n_a,
        n_b=n_b,
        edges=ordered,
        adj_a=tuple(map(tuple, adj_a)),
        adj_b=tuple(map(tuple, adj_b)),
    )


def outcome(call, *args):
    """What a call returns, or the class, message and line of what it
    raises."""
    try:
        return call(*args)
    except Exception as exc:  # compared, never swallowed
        return type(exc), str(exc), getattr(exc, "line", None)


# ---------------------------------------------------------------------------
# Text over a token alphabet
# ---------------------------------------------------------------------------

HUGE = ("99999999999999999999", str(2**64), "-18446744073709551617")
ODD_INTS = ("+2", "1_0", "-0", "007", "\u0663")  # int() reads them all
# tokens JSON reads other than `int` does, and an integer past the digit
# limit of both
JSON_TOKENS = (
    "1,2", "true", "null", "NaN", "Infinity", "-0", "[1]", '"1"', "1E3", "9" * 5000,
)
JUNK = ("x", "cat", "e1", "0x1", "1e3", "1.0", "--", "#", "triangles", "hyp")
SMALL = st.integers(-2, 9).map(str)
# Declared `gr` and `bip` vertex counts stay small: those builders allocate
# per declared vertex, so a count like 10**20 would exhaust memory rather
# than test parsing.  Nothing is built per `hyp` vertex, so its counts, like
# every other value, may be huge.
COUNT = st.one_of(SMALL, st.sampled_from(ODD_INTS[:4] + JUNK))
VALUE = st.one_of(SMALL, st.sampled_from(HUGE + ODD_INTS + JUNK + JSON_TOKENS))
# str.split whitespace; \x0b, \x0c, \x85 and \u2028 also end a line for
# str.splitlines
GAP = st.sampled_from((" ", "  ", "\t", "\x0b", "\x0c", "\x1f", "\x85", "\xa0", "\u2028"))
NEWLINE = st.sampled_from(("\n", "\r\n", "\r"))


@st.composite
def token_lines(draw):
    shape = draw(st.sampled_from(("p", "e", "cert", "comment", "blank", "junk")))
    if shape == "p":
        kind = draw(st.sampled_from(("hyp", "gr", "bip", "x")))
        count = VALUE if kind == "hyp" else COUNT
        values = draw(st.lists(count, min_size=1, max_size=4))
        if draw(st.booleans()):
            # the last field is never a vertex count in any format
            values[-1] = draw(VALUE)
        tokens = ["p", kind, *values]
    elif shape == "e":
        tokens = ["e", *draw(st.lists(VALUE, max_size=5))]
    elif shape == "cert":
        kind = draw(st.sampled_from(("triangle", "pair", "keep", "pairs", "e")))
        tokens = [kind, *draw(st.lists(VALUE, max_size=4))]
    elif shape == "comment":
        tokens = [draw(st.sampled_from(("c", "cx", "comment"))), *draw(st.lists(VALUE, max_size=3))]
    elif shape == "blank":
        tokens = []
    else:
        tokens = draw(st.lists(st.one_of(VALUE, st.sampled_from(("p", "e", "c"))), min_size=1, max_size=4))
    text = "".join(t + draw(GAP) for t in tokens)
    return draw(st.sampled_from(("", " ", "\t"))) + text.rstrip(" ")


def real_cases():
    """(instance lines, certificate lines) of small valid instances, which
    line edits turn into near misses."""
    cases = []
    for n in (5, 6, 7):
        h = random_triple_system(n, n, require_connected=True)
        cases.append((formats.format_hypergraph(h), formats.format_partition(solve(h))))
    g = shadow_graph(h)
    cases.append((formats.format_graph(g), ""))
    k4 = make_hypergraph(5, list(random_regular_bipartite(5, 4, 2).adj_a), k=4)
    cases.append((formats.format_hypergraph(k4), formats.format_partition(solve_k_uniform(k4, 4))))
    bg = random_regular_bipartite(5, 4, 1)
    cases.append((formats.format_bipartite(bg), formats.format_lu(lu_subgraph(bg, 4))))
    cases = [(a.splitlines(), b.splitlines()) for a, b in cases]
    # the n = 7 hyp case and the bip case again, with a comment line and a
    # blank line after the problem line, and each line ending in "\r" so
    # that the newline drawn after it mostly makes CRLF
    for lines, cert in (cases[2], cases[-1]):
        lines = [lines[0], "c a comment", "", *lines[1:]]
        cases.append(([line + "\r" for line in lines], cert))
    return cases


REAL = real_cases()


@st.composite
def edited(draw, lines):
    """`lines` with up to three lines inserted, replaced, deleted, joined
    onto the next line or split at a token gap, or tokens replaced, as
    text.  A join or a split keeps every token in place: only a check that
    reads lines, not the token stream, sees it."""
    lines = list(lines)
    for _ in range(draw(st.sampled_from((0, 0, 1, 1, 2, 3)))):
        i = draw(st.integers(0, len(lines)))
        edit = draw(st.sampled_from(("insert", "replace", "delete", "token", "join", "split")))
        if edit == "insert" or not lines:
            lines.insert(i, draw(token_lines()))
            continue
        i = min(i, len(lines) - 1)
        tokens = lines[i].split()
        if edit == "replace":
            lines[i] = draw(token_lines())
        elif edit == "delete":
            del lines[i]
        elif edit == "join":
            lines[i : i + 2] = [draw(GAP).join(lines[i : i + 2])]
        elif edit == "split" and len(tokens) > 1:
            j = draw(st.integers(1, len(tokens) - 1))
            lines[i : i + 1] = [" ".join(tokens[:j]), " ".join(tokens[j:])]
        elif edit == "token" and tokens:
            tokens[draw(st.integers(0, len(tokens) - 1))] = draw(VALUE)
            lines[i] = " ".join(tokens)
    return "".join(line + draw(NEWLINE) for line in lines)


# what a character edit of writer-form text inserts
PIECES = st.one_of(
    GAP, NEWLINE, st.sampled_from(("\x1c", "\x1d", "\x1e", "\u2029")),
    st.sampled_from(("e", "c", "p", "-", "0", "7", "pair", "keep ", "\ne ", "\npair ")),
    st.sampled_from(JSON_TOKENS[:-1]),
)


@st.composite
def writer_texts(draw):
    """Lines written as `_format_problem`, `format_partition` and
    `format_lu` write them, most rows of the right width, then up to three
    character edits: an insertion, deletion or replacement anywhere, CRLF
    line ends, or a blank line.  Unedited and harmlessly edited texts reach
    the JSON pass; the other edits probe its edges."""
    value = st.one_of(st.integers(-1, 9), st.sampled_from((2**64, -(10**20))))
    kind = draw(st.sampled_from(("hyp", "gr", "bip", "cert")))
    if kind == "cert":
        width = {"triangle": 3, "pair": 2, "keep": 2}
        lines = []
        for word in draw(st.lists(st.sampled_from(sorted(width)), max_size=6)):
            w = width[word] + draw(st.sampled_from((0, 0, 0, -1, 1)))
            row = tuple(draw(st.lists(value, min_size=w, max_size=w)))
            lines.append((word + " %d" * w) % row)
    else:
        arity = draw(st.integers(1, 4)) if kind == "hyp" else 2
        rows = draw(st.lists(
            st.lists(value, min_size=arity, max_size=arity).map(tuple), max_size=6
        ))
        if rows and draw(st.booleans()):
            # one row of another width
            i = draw(st.integers(0, len(rows) - 1))
            rows[i] = rows[i][:-1] if draw(st.booleans()) else rows[i] + (0,)
        m = len(rows) + draw(st.sampled_from((0, 0, 0, 1, -1)))
        sizes = {"hyp": (8, m, arity), "gr": (8, m), "bip": (5, 5, m)}[kind]
        lines = [" ".join(map(str, ("p", kind, *sizes)))]
        lines.extend(("e" + " %d" * len(row)) % row for row in rows)
    text = "\n".join(lines) + "\n"
    for _ in range(draw(st.sampled_from((0, 0, 1, 1, 2, 3)))):
        edit = draw(st.sampled_from(("insert", "delete", "replace", "crlf", "blank")))
        i = draw(st.integers(0, len(text)))
        if edit == "crlf":
            text = text.replace("\n", "\r\n")
        elif edit == "blank":
            j = text.find("\n", i)
            if j >= 0:
                text = text[: j + 1] + "\n" + text[j + 1 :]
        elif edit == "insert":
            text = text[:i] + draw(PIECES) + text[i:]
        elif edit == "delete":
            text = text[:i] + text[i + 1 :]
        else:
            text = text[:i] + draw(PIECES) + text[i + 1 :]
    return text


def pairs_of_texts():
    """An instance text and a certificate text: an edited valid pair, or
    lines drawn from the token alphabet."""
    drawn = st.lists(token_lines(), max_size=8).flatmap(edited)
    return st.one_of(
        st.sampled_from(REAL).flatmap(lambda case: st.tuples(*map(edited, case))),
        st.tuples(drawn, drawn),
    )


def texts():
    return pairs_of_texts().flatmap(st.sampled_from)


PARSERS = (
    (formats.parse_hypergraph, old_parse_hypergraph),
    (formats.parse_graph, old_parse_graph),
    (formats.parse_bipartite, old_parse_bipartite),
    (formats.parse_certificate, old_parse_certificate),
)


def check_parsers(text):
    for parse, old_parse in PARSERS:
        assert outcome(parse, text) == outcome(old_parse, text), (parse, text)


def test_parsers_agree_with_the_old_parsers_on_valid_files():
    for case in REAL:
        for lines in case:
            check_parsers("".join(line + "\n" for line in lines))


@settings(max_examples=400, deadline=None)
@given(texts())
def test_parsers_agree_with_the_old_parsers(text):
    check_parsers(text)


@settings(max_examples=600, deadline=None)
@given(writer_texts())
def test_parsers_agree_with_the_old_parsers_on_writer_form_texts(text):
    check_parsers(text)


def test_every_writer_output_takes_the_json_pass(monkeypatch):
    """The line loops never run on what the writers emit, so a silent
    fallback cannot take the JSON pass's saving away."""
    h = random_triple_system(2001, 3, require_connected=True)
    even = random_triple_system(2000, 3, require_connected=True)
    k4 = make_hypergraph(9, list(random_regular_bipartite(9, 4, 2).adj_a), k=4)
    bg = random_regular_bipartite(500, 5, 1)
    cases = [
        (formats.format_hypergraph(h), formats.parse_hypergraph),
        (formats.format_hypergraph(k4), formats.parse_hypergraph),
        (formats.format_graph(shadow_graph(h)), formats.parse_graph),
        (formats.format_bipartite(bg), formats.parse_bipartite),
        (formats.format_partition(solve(h)), formats.parse_certificate),
        (formats.format_partition(solve(even)), formats.parse_certificate),
        (formats.format_partition(solve_k_uniform(k4, 4)), formats.parse_certificate),
        (formats.format_lu(lu_subgraph(bg, 5)), formats.parse_certificate),
    ]
    old = dict(PARSERS)
    expected = [old[parse](text) for text, parse in cases]

    def refuse(*args):
        raise AssertionError("a writer's output left the JSON pass")

    monkeypatch.setattr(formats, "_problem_lines", refuse)
    monkeypatch.setattr(formats, "_certificate_lines", refuse)
    assert [parse(text) for text, parse in cases] == expected


def with_multiplicities(edges):
    """Hyperedge lists with no multiplicities, one per hyperedge, or a list
    of any length."""
    mult = st.integers(-1, 3)
    return edges.flatmap(lambda es: st.tuples(st.just(es), st.one_of(
        st.none(),
        st.lists(mult, min_size=len(es), max_size=len(es)),
        st.lists(mult, max_size=6),
    )))


@settings(max_examples=200, deadline=None)
@given(
    st.integers(-1, 8),
    with_multiplicities(st.lists(st.lists(st.integers(-2, 9), max_size=5), max_size=6)),
)
def test_make_hypergraph_agrees_with_the_old_builder(n, case):
    edges, mults = case
    assert outcome(make_hypergraph, n, edges, None, mults) == outcome(
        old_make_hypergraph, n, edges, None, mults
    )


@settings(max_examples=200, deadline=None)
@given(
    st.integers(-1, 8),
    with_multiplicities(st.integers(1, 4).flatmap(
        lambda k: st.lists(
            st.lists(st.integers(-2, 9), min_size=k, max_size=k).map(sorted), max_size=6
        )
    )),
)
def test_make_hypergraph_agrees_with_the_old_builder_on_sorted_rows(n, case):
    """Rows of one width, each sorted as a file writer emits them, some with a
    repeated vertex."""
    edges, mults = case
    assert outcome(make_hypergraph, n, edges, None, mults) == outcome(
        old_make_hypergraph, n, edges, None, mults
    )


# vertices near the declared count, so that repeats and collisions are common
VERTEX = st.integers(-2, 6)
EDGE = st.one_of(st.tuples(VERTEX, VERTEX), st.lists(VERTEX, max_size=3))


@settings(max_examples=200, deadline=None)
@given(st.integers(-1, 6), st.lists(EDGE, max_size=8))
def test_make_graph_agrees_with_the_old_builder(n, edges):
    assert outcome(make_graph, n, edges) == outcome(old_make_graph, n, edges)


@st.composite
def bipartite_inputs(draw):
    """Side sizes and edges, most of them at most one past either side.

    Half the draws are distinct edges on nonempty sides, sorted as a file
    writer emits them, so strictly increasing, and then given at most one
    fault: an adjacent
    repeat, an out-of-range last edge that still increases, or a row of
    width 1 or 3.
    """
    n_a, n_b = draw(st.integers(-1, 5)), draw(st.integers(-1, 5))
    near = st.tuples(st.integers(-1, max(n_a, 0)), st.integers(-1, max(n_b, 0)))
    if draw(st.booleans()):
        return n_a, n_b, draw(st.lists(st.one_of(near, near, EDGE), max_size=8))
    n_a, n_b = max(n_a, 1), max(n_b, 1)
    inside = st.tuples(st.integers(0, n_a - 1), st.integers(0, n_b - 1))
    edges = sorted(draw(st.sets(inside, min_size=1, max_size=8)))
    fault = draw(st.sampled_from(["none", "repeat", "out of range", "width"]))
    if fault == "out of range":
        edges.append(draw(st.sampled_from([(n_a, 0), (n_a - 1, n_b)])))
    elif fault != "none":
        i = draw(st.integers(0, len(edges) - 1))
        a, b = edges[i]
        if fault == "repeat":
            edges.insert(i, (a, b))
        else:
            edges[i] = draw(st.sampled_from([(a,), (a, b, b + 1)]))
    return n_a, n_b, edges


@settings(max_examples=400, deadline=None)
@given(bipartite_inputs())
def test_make_bipartite_agrees_with_the_old_builder(case):
    n_a, n_b, edges = case
    assert outcome(make_bipartite, n_a, n_b, edges) == outcome(
        old_make_bipartite, n_a, n_b, edges
    )


def boundary_texts():
    """Hand-written texts at the edges of the JSON pass and of the line
    loop that reads every text it refuses."""
    good = ["e %d %d %d" % (i, i + 1, i + 2) for i in range(1000)]
    good_pairs = ["e %d %d" % (i, i + 1) for i in range(1000)]
    texts = [
        # a bad token on line 1,001, and on the line after 1,000 good e lines
        "\n".join(["p hyp 1003 1000 3", *good[:-1], "e 0 1 x"]) + "\n",
        "\n".join(["p hyp 1003 1001 3", *good, "e 0 1 x"]) + "\n",
        "\n".join(["p bip 1003 1003 1001", *good_pairs, "e 0 1 x"]),
        "\n".join(["p bip 1003 1003 1000", *good_pairs]),
        # comment and blank lines between e lines
        "p hyp 4 2 3\ne 0 1 2\nc a comment\ncat 1 2\n\n  \ne 1 2 3\n",
        "c lead\np hyp 4 2 3\ne 0 1 2\nc 1\ne 1 2 x\n",
        # other line ends
        "p hyp 4 2 3\re 0 1 2\re 1 2 3\r",
        "p hyp 4 2 3\x0be 0 1 2\x0be 1 2 3",
        "p hyp 4 2 3\u2028e 0 1 2\u2028e 1 2 3\u2028",
        "p hyp 4 2 3\r\ne 0 1 2\u2028e 1 2 z\r",
        "p hyp 4 2 3\x1ce 0 1 2\x1de 1 2 3\x1e",
        # integers as `int` reads them
        "p hyp +11 2 003\ne 0 1_0 2\ne \u0663 1 -0\n",
        "p hyp 4 2 3\ne 0 1 2\ne 1 2 3.0\n",
        # ragged hyp rows, which `validate` reports later
        "p hyp 5 3 3\ne 0 1 2\ne 1 2\ne 1 2 3 4\n",
        "p hyp 5 2 3\ne 0 1 2\ne 3\n",
        "p hyp 5 2 3\ne 0 1 2\ne\n",
        "p hyp 5 2 3\ne 0 1\ne 3 x\n",
        # wrong-arity e lines in gr and bip
        "p gr 4 2\ne 0 1\ne 1 2 3\n",
        "p gr 4 2\ne 0\ne 1 2\n",
        "p bip 3 3 2\ne 0 1\ne 1 2 0\n",
        "p bip 3 3 2\ne 0 1 2\ne 1 x\n",
        "p bip 3 3 2\ne 0 1\ne\n",
        "p bip 3 3 2\ne 0 1\ne 0 1\n",
        "p bip 4 2 2\ne 0 1\ne 3 2\n",
        "p bip 2 4 2\ne 0 1\ne 2 3\n",
        # line faults that a flat token stream hides: a row split across
        # lines, and a line head that starts with `e` but is not `e`
        "p bip 3 3 2\ne 0\n1 e 1 2\n",
        "p gr 3 2\ne 0 1 e\n1 2\n",
        "p bip 3 3 2\ne 0 1\ne2 1 2\n",
        "p hyp 4 2 3\ne 0\n1 2 e 1 2 3\n",
        # header faults
        "p bip 3 3\ne 0 1\n",
        "p bip 3 3 x\ne 0 1\n",
        "p hyp 3 1 3\np hyp 3 1 3\ne 0 1 2\n",
        "e 0 1 2\np hyp 3 1 3\n",
        "p hyp 3 2 3\ne 0 1 2\n",
        "c only a comment\n\n",
        "",
        # certificates mixing every kind, each with one bad line
        "pair 0 1\ntriangle 2 3 4\nkeep 5 6\npair 7 8\n",
        "pair 0 1\ntriangle 2 3 4\nkeep 5 6\npair 7 x\n",
        "pair 0 1\ntriangle 2 3\nkeep 5 6\npair 7 8\n",
        "keep 0 1\ntriangle 2 3 4\nkeep 5 6 7\npair 7 8\n",
        "triangle 0 1 2\npair 3 4\nblock 5 6\nkeep 7 8\n",
        "triangle 0 1 2\npair 3 4\nblock x\nkeep 7 8\n",
        "triangle 0 1 2\npair 3 4\npair\nkeep 7 8\n",
        "c x\npair 0 1\ncat\n\ntriangle 2 3 4\r\nkeep 5 6\n",
        "pair 0 1\ne 2 3\n",
        # writer form but for one character: a line break inside the `p`
        # line that only `str.splitlines` sees, and a space beside a line
        # break, which JSON would read as whitespace inside a row
        "p hyp 3\x0b1 3\ne 0 1 2\n",
        "p hyp 3 1 3\x1c\ne 0 1 2\n",
        "p hyp 4 2 3\ne 1 \r2 3\ne 0 1 2\n",
        "p hyp 4 1 3\ne \n0 1 2\n",
        "p hyp 3 1 0\ne \n",
        "p hyp 3 1 3\ne 0 \t\n1 2\n",
        "p hyp 3 2 0\ne \ne \r\n",
        "p hyp 4 2 3\ne 0 1 2\n e 1 2 3\n",
        "p gr 3 1\ne 0 \n1\n",
        "p gr 3 2\ne 0 1\r\n e 1 2\r\n",
        "p bip 2 2 1\ne 0\r 1\n",
        "p bip 2 2 2\ne 0 1 \ne 1 0\n",
        "keep 2\n 1\n",
        "pair 0 1 \r\npair 2 3\r\n",
        "triangle \n1 2 3\n",
        "pair 0\n 1\ntriangle 2 3 4\n",
        # JSON's own tokens in writer-form lines
        "p hyp 3 1 3\ne 0 1,2\n",
        "p gr 3 1\ne 0 true\n",
        "pair 0 -0\npair NaN 1\n",
        "p bip 2 2 1\ne 1E3 0\n",
        "p gr 3 1\ne 0 1e0\n",
        "pair 0 1\nkeep 2 " + "9" * 5000 + "\n",
    ]
    return texts


def test_parsers_agree_with_the_old_parsers_on_boundary_texts():
    texts = boundary_texts()
    for text in texts:
        check_parsers(text)
    for text, parse, line in (
        (texts[0], formats.parse_hypergraph, 1001),
        (texts[1], formats.parse_hypergraph, 1002),
        (texts[2], formats.parse_bipartite, 1002),
    ):
        assert outcome(parse, text) == (
            ParseError, f"line {line}: expected integers, got ['0', '1', 'x']", line
        )


def hand_edits(text):
    """`text` with CRLF line ends, with a comment line, with a blank line
    and with doubled spaces, each alone, then with all four."""
    lines = text.splitlines()
    return [
        "".join(line + "\r\n" for line in lines),
        "\n".join([lines[0], "c a comment", *lines[1:]]) + "\n",
        "\n".join([lines[0], "", *lines[1:]]) + "\n",
        text.replace(" ", "  "),
        hand_edited(text),
    ]


def test_parsers_agree_with_the_old_parsers_on_large_files():
    h = random_triple_system(2001, 3, require_connected=True)
    bg = random_regular_bipartite(2000, 5, 3)
    for text, parse, old_parse in (
        (formats.format_hypergraph(h), formats.parse_hypergraph, old_parse_hypergraph),
        (formats.format_partition(solve(h)), formats.parse_certificate, old_parse_certificate),
        (formats.format_bipartite(bg), formats.parse_bipartite, old_parse_bipartite),
        (formats.format_lu(lu_subgraph(bg, 5)), formats.parse_certificate, old_parse_certificate),
    ):
        expected = old_parse(text)
        assert parse(text) == expected
        for edited in hand_edits(text):
            assert parse(edited) == old_parse(edited) == expected
    assert formats.parse_hypergraph(formats.format_hypergraph(h)) == h
    assert formats.parse_bipartite(formats.format_bipartite(bg)) == bg


@pytest.mark.parametrize("k", [4, 5])
@pytest.mark.parametrize("nb", [500, 1000, 2000])
def test_bipartite_graphs_agree_with_the_old_builders_at_the_benchmark_sizes(nb, k):
    bg = random_regular_bipartite(nb, k, 7 * nb + k)
    text = formats.format_bipartite(bg)
    new, old = formats.parse_bipartite(text), old_parse_bipartite(text)
    # field for field: the dataclass compares edges, adj_a and adj_b
    assert new == old
    shuffled = list(bg.edges)
    random.Random(nb + k).shuffle(shuffled)
    for edges in (shuffled, bg.edges[::-1]):
        assert make_bipartite(nb, nb, edges) == old_make_bipartite(nb, nb, edges)


CLI_CALLS = (
    ("solve", "{hyp}"),
    ("solve", "--components", "{hyp}"),
    ("solve", "--k", "4", "{hyp}"),
    ("lu", "{bip}"),
    ("verify", "{hyp}", "{cert}"),
    ("verify", "--lu", "{bip}", "{keeps}"),
)


@settings(max_examples=150, deadline=None)
@given(pairs_of_texts(), pairs_of_texts())
def test_cli_exits_0_1_or_2_on_any_text(hyp_case, bip_case):
    (hyp, cert), (bip, keeps) = hyp_case, bip_case
    with tempfile.TemporaryDirectory() as tmp:
        paths = {}
        for name, text in (("hyp", hyp), ("cert", cert), ("bip", bip), ("keeps", keeps)):
            paths[name] = os.path.join(tmp, name)
            with open(paths[name], "w", encoding="utf-8") as fh:
                fh.write(text)
        for call in CLI_CALLS:
            argv = [arg.format(**paths) for arg in call]
            with contextlib.redirect_stdout(io.StringIO()), \
                    contextlib.redirect_stderr(io.StringIO()):
                code = cli.main(argv)
            assert code in (0, 1, 2), (argv, hyp, cert, bip, keeps)


@pytest.mark.parametrize("text", ["p bip -1 -1 0\n", "p bip 2 -1 0\n"])
def test_verify_lu_refuses_a_negative_side_size(tmp_path, text):
    """With an empty certificate both once printed OK and exited 0."""
    bip, cert = tmp_path / "g.bip", tmp_path / "empty.cert"
    bip.write_text(text)
    cert.write_text("")
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        code = cli.main(["verify", "--lu", str(bip), str(cert)])
    assert (code, err.getvalue()) == (
        2, "error: ParseError: vertex count must be nonnegative\n"
    )


def test_builders_refuse_a_negative_vertex_count():
    for call in (
        lambda: make_graph(-3, []),
        lambda: make_bipartite(-1, 2, []),
        lambda: make_bipartite(2, -1, []),
    ):
        with pytest.raises(ValueError, match="^vertex count must be nonnegative$"):
            call()
    assert outcome(formats.parse_graph, "p gr -3 0\n") == (
        ParseError, "vertex count must be nonnegative", None
    )
