"""Malformed and hostile input text: the parsers against copies of their
earlier forms, and the CLI's exit codes.

The copies below are the line splitter, the integer reader and the
hypergraph builder as they were before each line was split once and each
hyperedge sorted once.  Run through the same `_parse_problem`, they must
give every parser the same value, or the same ParseError message and line.
"""

import contextlib
import io
import os
import tempfile
from unittest import mock

from hypothesis import given, settings
from hypothesis import strategies as st

from trimatch import (
    cli,
    formats,
    lu_subgraph,
    make_hypergraph,
    random_regular_bipartite,
    random_triple_system,
    shadow_graph,
    solve,
    solve_k_uniform,
)
from trimatch.core import Hypergraph
from trimatch.errors import ParseError


def old_tokenized(text):
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("c"):
            continue
        yield lineno, line.split()


def old_ints(tokens, lineno):
    try:
        return [int(t) for t in tokens]
    except ValueError as exc:
        raise ParseError(f"expected integers, got {tokens!r}", line=lineno) from exc


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
        for v in e:
            if not 0 <= v < n:
                raise ValueError(f"vertex {v} out of range [0, {n})")
        ce = tuple(sorted(e))
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


def outcome(call, *args):
    """What a call returns, or the class, message and line of what it
    raises."""
    try:
        return call(*args)
    except Exception as exc:  # compared, never swallowed
        return type(exc), str(exc), getattr(exc, "line", None)


def old_outcome(parse, text):
    with mock.patch.object(formats, "_tokenized", old_tokenized), \
            mock.patch.object(formats, "_ints", old_ints), \
            mock.patch.object(formats, "make_hypergraph", old_make_hypergraph):
        return outcome(parse, text)


# ---------------------------------------------------------------------------
# Text over a token alphabet
# ---------------------------------------------------------------------------

HUGE = ("99999999999999999999", str(2**64), "-18446744073709551617")
ODD_INTS = ("+2", "1_0", "-0", "007", "\u0663")  # int() reads them all
JUNK = ("x", "cat", "e1", "0x1", "1e3", "1.0", "--", "#", "triangles", "hyp")
SMALL = st.integers(-2, 9).map(str)
# Declared `gr` and `bip` vertex counts stay small: those builders allocate
# per declared vertex, so a count like 10**20 would exhaust memory rather
# than test parsing.  Nothing is built per `hyp` vertex, so its counts, like
# every other value, may be huge.
COUNT = st.one_of(SMALL, st.sampled_from(ODD_INTS[:4] + JUNK))
VALUE = st.one_of(SMALL, st.sampled_from(HUGE + ODD_INTS + JUNK))
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
    return [(a.splitlines(), b.splitlines()) for a, b in cases]


REAL = real_cases()


@st.composite
def edited(draw, lines):
    """`lines` with up to three lines inserted, replaced or deleted, or
    tokens replaced, as text."""
    lines = list(lines)
    for _ in range(draw(st.sampled_from((0, 0, 1, 1, 2, 3)))):
        i = draw(st.integers(0, len(lines)))
        edit = draw(st.sampled_from(("insert", "replace", "delete", "token")))
        if edit == "insert" or not lines:
            lines.insert(i, draw(token_lines()))
            continue
        i = min(i, len(lines) - 1)
        if edit == "replace":
            lines[i] = draw(token_lines())
        elif edit == "delete":
            del lines[i]
        elif lines[i].split():
            tokens = lines[i].split()
            tokens[draw(st.integers(0, len(tokens) - 1))] = draw(VALUE)
            lines[i] = " ".join(tokens)
    return "".join(line + draw(NEWLINE) for line in lines)


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
    formats.parse_hypergraph,
    formats.parse_graph,
    formats.parse_bipartite,
    formats.parse_certificate,
)


def check_parsers(text):
    for parse in PARSERS:
        assert outcome(parse, text) == old_outcome(parse, text)


def test_parsers_agree_with_the_old_parsers_on_valid_files():
    for case in REAL:
        for lines in case:
            check_parsers("".join(line + "\n" for line in lines))


@settings(max_examples=400, deadline=None)
@given(texts())
def test_parsers_agree_with_the_old_parsers(text):
    check_parsers(text)


@settings(max_examples=200, deadline=None)
@given(
    st.integers(-1, 8),
    st.lists(st.lists(st.integers(-2, 9), max_size=5), max_size=6),
    st.one_of(st.none(), st.lists(st.integers(-1, 3), max_size=6)),
)
def test_make_hypergraph_agrees_with_the_old_builder(n, edges, mults):
    assert outcome(make_hypergraph, n, edges, None, mults) == outcome(
        old_make_hypergraph, n, edges, None, mults
    )


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
