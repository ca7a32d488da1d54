"""Text formats for instances and certificates.

Hypergraph:  `p hyp <n> <m> <k>` then m lines `e v1 ... vk`; repeated
identical lines accumulate multiplicity.
Graph:       `p gr <n> <m>` then `e u v`.
Bipartite:   `p bip <nA> <nB> <m>` then `e a b` with a in A, b in B.
Certificate: optional `triangle v1 v2 v3` lines, `pair u v` lines, and for
kept-edge certificates `keep a b` lines.
A line whose first token starts with `c` is a comment; tokens are
whitespace-separated, integers are whatever `int()` reads, and output is
newline-terminated.  Writers emit blocks sorted by smallest member.

An instance is read in a few whole-text passes, with no token list per
line.  One `str.splitlines` pass gives the kept lines: leading whitespace
stripped, blank lines and comment lines (whose stripped text starts with
`c`) dropped.  One `str.split` of the text, re-joined first only when it
has comment lines, gives the tokens.  Counts then stand in for the line
checks: the first kept line is the `p` line, every other kept line
starts with `e`, the tokens after the `p` line's are all `e` at stride
1 + arity (1 + k for `hyp`), there are as many of those positions as kept
lines after the `p` line, the stride divides the token count, and one
`int` pass converts every other token.  These accept exactly the texts
the line checks accept.  A token that starts with `e` but is not `e`
fails `int`, so every kept line starts at a stride position; with as many
lines as positions, each line is one row.  And `str.split` over the text
gives the tokens of `splitlines` followed by a split of each line, since
every line boundary is whitespace.  Ragged `hyp` rows, which `validate`
reports, are split line by line.  A certificate is split into token lists
per line (`_lines`); set operations over the line kinds and widths check
it, and one `int` pass per kind converts it.  Only when a pass finds a
fault does the line loop (`_tokenized`/`_ints`) walk the text again, to
raise the first faulty line's ParseError with its line number.  It builds
no value.
"""

from __future__ import annotations

from itertools import chain, groupby
from operator import itemgetter

from .core import Hypergraph, SimpleGraph, make_graph, make_hypergraph
from .errors import InternalError, ParseError
from .matching import BipartiteGraph, _bipartite_graph

_head = itemgetter(0)
_PAIR = ("pair %d %d",)

# certificate line kind -> (values per line, message when that is wrong)
_CERTIFICATE_LINES = {
    "triangle": (3, "triangle needs 3 vertices"),
    "pair": (2, "pair needs 2 vertices"),
    "keep": (2, "keep needs 2 endpoints"),
}
_CERTIFICATE_TOKENS = {kind: 1 + w for kind, (w, _) in _CERTIFICATE_LINES.items()}


def _lines(text):
    """Token lists of the lines that are neither blank nor a comment."""
    lines = list(filter(None, map(str.split, text.splitlines())))
    if any(head[0] == "c" for head in set(map(_head, lines))):
        lines = [t for t in lines if t[0][0] != "c"]
    return lines


def _rows(tokens, width):
    """Integer tuples of `width`-token lines, given as one flat token list,
    without each line's first token; ValueError on a token `int` does not
    read."""
    del tokens[::width]
    return list(zip(*[map(int, tokens)] * (width - 1)))


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
    number).  `build(values, width, *others)` gets the `e` lines' values as
    `_problem_values` gives them and the other problem-line values in
    order, and its ValueError becomes a ParseError.
    """
    header, values, width = _problem_values(text, kind, fields, arity)
    m = header.pop(fields.index("m"))
    found = len(values) // width if width else len(values)
    if found != m:
        raise ParseError(f"problem line promises {m} e lines, found {found}")
    try:
        return build(values, width, *header)
    except ValueError as exc:
        raise ParseError(str(exc)) from exc


def _problem_values(text, kind, fields, arity):
    """The problem-line values as a list of ints, then the `e` lines'
    values: one flat list of ints, `width` of them to a line, or, for
    ragged `hyp` lines, which `validate` reports, one int tuple per line
    and width 0.  A `hyp` line's width is the problem line's k, its last
    value.  The kept lines are freed before the text is split into tokens.
    """
    kept = list(filter(None, map(str.lstrip, text.splitlines())))
    heads = list(map(_head, kept))
    uncommented = text
    if "c" in heads:
        kept = [line for line in kept if line[0] != "c"]
        heads = list(map(_head, kept))
        uncommented = "\n".join(kept)
    if not kept:
        raise ParseError(f"missing `p {kind}` problem line")
    head, lines = kept[0].split(), len(kept) - 1
    del kept
    if (
        head[0] == "p"
        and len(head) == 2 + len(fields)
        and head[1] == kind
        and heads.count("e") == lines
    ):
        try:
            header = list(map(int, head[2:]))
            if not lines:
                return header, [], 0
            stride = 1 + (arity or header[-1])
            tokens = uncommented.split()
            del tokens[: len(head)]
            if (
                stride > 1
                and len(tokens) == stride * lines
                and tokens[::stride].count("e") == lines
            ):
                del tokens[::stride]
                return header, list(map(int, tokens)), stride - 1
            if not arity:
                body = list(filter(None, map(str.split, uncommented.splitlines())))[1:]
                if all(t[0] == "e" and len(t) > 1 for t in body):
                    return header, [tuple(map(int, t[1:])) for t in body], 0
        except ValueError:
            pass  # the line loop names the line
    _problem_fault(text, kind, fields, arity)


def _problem_fault(text, kind, fields, arity):
    """The line loop: raise the ParseError of the first faulty line."""
    header = False
    for lineno, tokens in _tokenized(text):
        if tokens[0] == "p":
            if header:
                raise ParseError("duplicate problem line", line=lineno)
            if len(tokens) != 2 + len(fields) or tokens[1] != kind:
                usage = " ".join(f"<{f}>" for f in fields)
                raise ParseError(f"expected `p {kind} {usage}`", line=lineno)
            _ints(tokens[2:], lineno)
            header = True
        elif tokens[0] == "e":
            if not header:
                raise ParseError("e line before problem line", line=lineno)
            width = len(_ints(tokens[1:], lineno))
            if width != arity if arity else not width:
                raise ParseError(f"e line has {width} vertices", line=lineno)
        else:
            raise ParseError(f"unknown line type {tokens[0]!r}", line=lineno)
    raise InternalError("the whole-text pass saw a fault the line loop did not")


def _cut(values, width):
    """Rows of `_problem_values`: int tuples of `width` values each."""
    return list(zip(*[iter(values)] * width)) if width else values


def parse_hypergraph(text: str) -> Hypergraph:
    return _parse_problem(
        text, "hyp", ("n", "m", "k"), 0,
        lambda values, width, n, k: make_hypergraph(n, _cut(values, width), k=k),
    )


def parse_graph(text: str) -> SimpleGraph:
    return _parse_problem(
        text, "gr", ("n", "m"), 2,
        lambda values, width, n: make_graph(n, _cut(values, width)),
    )


def parse_bipartite(text: str) -> BipartiteGraph:
    return _parse_problem(
        text, "bip", ("nA", "nB", "m"), 2,
        lambda values, width, n_a, n_b: _bipartite_graph(
            n_a, n_b, values[::2], values[1::2]
        ),
    )


def parse_certificate(text: str) -> tuple[list, list, list]:
    """Raw (triangles, pairs, keeps) from a certificate file, each in line
    order."""
    lines = _lines(text)
    if set(zip(map(_head, lines), map(len, lines))) <= _CERTIFICATE_TOKENS.items():
        try:
            # a stable sort keeps each kind's lines in order
            rows = {
                kind: _rows(list(chain.from_iterable(group)), _CERTIFICATE_TOKENS[kind])
                for kind, group in groupby(sorted(lines, key=_head), _head)
            }
        except ValueError:
            pass  # the line loop names the line
        else:
            return rows.get("triangle", []), rows.get("pair", []), rows.get("keep", [])
    _certificate_fault(text)


def _certificate_fault(text):
    """The line loop: raise the ParseError of the first faulty line."""
    for lineno, tokens in _tokenized(text):
        kind, width = tokens[0], len(_ints(tokens[1:], lineno))
        if kind not in _CERTIFICATE_LINES:
            raise ParseError(f"unknown certificate line {kind!r}", line=lineno)
        expected, message = _CERTIFICATE_LINES[kind]
        if width != expected:
            raise ParseError(message, line=lineno)
    raise InternalError("the whole-text pass saw a fault the line loop did not")


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
    member.  Each block is its vertices followed by its line's `%` template.
    """
    if not isinstance(certs, (list, tuple)):
        certs = [certs]
    blocks = []
    for cert in certs:
        if cert.triangle is not None:
            blocks.append((*sorted(cert.triangle), "triangle %d %d %d"))
        blocks.extend(p + _PAIR for p in cert.pairs)
    blocks.sort(key=_head)
    lines = [b[-1] % b[:-1] for b in blocks]
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
