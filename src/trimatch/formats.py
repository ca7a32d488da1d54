"""Text formats for instances and certificates.

Hypergraph:  `p hyp <n> <m> <k>` then m lines `e v1 ... vk`; repeated
identical lines accumulate multiplicity.
Graph:       `p gr <n> <m>` then `e u v`.
Bipartite:   `p bip <nA> <nB> <m>` then `e a b` with a in A, b in B.
Certificate: optional `triangle v1 v2 v3` lines, `pair u v` lines, and for
kept-edge certificates `keep a b` lines.
Lines starting with `c` are comments; tokens are whitespace-separated and
output is newline-terminated.  Writers emit blocks sorted by smallest member.
"""

from __future__ import annotations

from .core import Hypergraph, SimpleGraph, make_graph, make_hypergraph
from .errors import ParseError
from .matching import BipartiteGraph, make_bipartite


def _tokenized(text):
    """(line number, tokens) of each line that is neither blank nor a
    comment; `str.split` and `str.strip` share one notion of whitespace, so
    the first token starts where the stripped line does."""
    for lineno, raw in enumerate(text.splitlines(), start=1):
        tokens = raw.split()
        if tokens and tokens[0][0] != "c":
            yield lineno, tokens


def _ints(tokens, lineno):
    try:
        return list(map(int, tokens))
    except ValueError as exc:
        raise ParseError(f"expected integers, got {tokens!r}", line=lineno) from exc


def _parse_problem(text, kind, fields, arity, build):
    """Shared skeleton of the `p <kind> ...` formats.

    `fields` names the problem-line values, one of them the `e`-line count
    `m`; `arity` is the number of integers per `e` line (0: any positive
    number).  `build(rows, *values)` gets the `e` rows and the other values
    in order, and its ValueError becomes a ParseError.
    """
    header = None
    rows = []
    for lineno, tokens in _tokenized(text):
        if tokens[0] == "p":
            if header is not None:
                raise ParseError("duplicate problem line", line=lineno)
            if len(tokens) != 2 + len(fields) or tokens[1] != kind:
                usage = " ".join(f"<{f}>" for f in fields)
                raise ParseError(f"expected `p {kind} {usage}`", line=lineno)
            header = _ints(tokens[2:], lineno)
        elif tokens[0] == "e":
            if header is None:
                raise ParseError("e line before problem line", line=lineno)
            row = _ints(tokens[1:], lineno)
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


def parse_hypergraph(text: str) -> Hypergraph:
    return _parse_problem(
        text, "hyp", ("n", "m", "k"), 0,
        lambda rows, n, k: make_hypergraph(n, rows, k=k),
    )


def parse_graph(text: str) -> SimpleGraph:
    return _parse_problem(
        text, "gr", ("n", "m"), 2, lambda rows, n: make_graph(n, rows)
    )


def parse_bipartite(text: str) -> BipartiteGraph:
    return _parse_problem(
        text, "bip", ("nA", "nB", "m"), 2,
        lambda rows, n_a, n_b: make_bipartite(n_a, n_b, rows),
    )


def parse_certificate(text: str) -> tuple[list, list, list]:
    """Raw (triangles, pairs, keeps) from a certificate file."""
    triangles, pairs, keeps = [], [], []
    for lineno, tokens in _tokenized(text):
        kind, rest = tokens[0], _ints(tokens[1:], lineno)
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


def _format_problem(kind, values, rows) -> str:
    """`p <kind> <values>` and one `e` line per row (a tuple of ints): the
    writer shared by the formats `_parse_problem` reads."""
    lines = [" ".join(map(str, ("p", kind, *values)))]
    lines.extend(("e" + " %d" * len(row)) % row for row in rows)
    return "\n".join(lines) + "\n"


def format_hypergraph(h: Hypergraph) -> str:
    rows = (e for e, mult in zip(h.hyperedges, h.multiplicities) for _ in range(mult))
    return _format_problem("hyp", (h.n, h.total_multiplicity, h.k), rows)


def format_graph(g: SimpleGraph) -> str:
    return _format_problem("gr", (g.n, g.m), g.edges)


def format_bipartite(bg: BipartiteGraph) -> str:
    return _format_problem("bip", (bg.n_a, bg.n_b, bg.m), bg.edges)


def format_partition(certs) -> str:
    """Certificate text for one partition or a componentwise list of them.

    All blocks (the triangles included) are emitted sorted by smallest
    member.
    """
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


def format_lu(lu) -> str:
    lines = [f"keep {a} {b}" for a, b in lu.kept]
    return "\n".join(lines) + ("\n" if lines else "")


def partition_json_object(cert) -> dict:
    """Fixed-field-order JSON object for one partition certificate."""
    return {
        "kind": "partition",
        "triangle": list(cert.triangle) if cert.triangle is not None else None,
        "pairs": [list(p) for p in cert.pairs],
        "keep": None,
    }
