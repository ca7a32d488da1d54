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

Text is read in one of two tiers, which give the same values and raise
the same ParseError on every input.

1. The JSON pass, for text in the writers' form: a `p` line equal to its
   tokens joined by single spaces (no other whitespace, and none of the
   line breaks that only `str.splitlines` sees), then lines that are a row
   keyword (`e`; `triangle`, `pair`, `keep`), one space and integers one
   space apart, or empty, each ended by `\n` or `\r\n`.  Two
   `str.replace` calls make the rows one JSON array of arrays (a
   certificate row starts with a kind code, and a stable sort by it keeps
   each kind in line order) and one `json.loads` reads every integer.  A
   text takes it only if it has none of `,` (JSON reads `1,2` as two
   integers), `[`, `]`, `{`, `}` and `"` (nesting and strings) or a tab;
   once the keywords are gone, none of `t`, `f`, `n`, `N`, `I` (the
   literals `true`, `false`, `null`, `NaN`, `Infinity`), `e`, `E` and `.`
   (floats, and an `e` that began no line); no line break beside a comma
   or a row's opening bracket (JSON allows whitespace there, so `e 1 \r2 3`
   would read as one row); `json.loads` raises no ValueError, as it does
   for an integer past `sys.get_int_max_str_digits()`, which `int` refuses
   too; and every row has the format's width.  Only `-?(0|[1-9][0-9]*)`
   tokens pass, and `int` reads each to the same value.
2. The line loop (`_problem_lines`, `_certificate_lines`), for every text
   the JSON pass refuses: it walks the `str.splitlines` lines that are
   neither blank nor a comment, builds the values row by row, and raises
   the first faulty line's ParseError with its line number.
"""

from __future__ import annotations

import json
from bisect import bisect_left
from itertools import chain
from operator import itemgetter

from .core import (
    Hypergraph,
    SimpleGraph,
    _fold_hyperedges,
    make_graph,
    make_hypergraph,
)
from .errors import ParseError
from .matching import BipartiteGraph, _bipartite_graph

_head = itemgetter(0)
_PAIR_LINE = "pair %d %d\n"
_TRIANGLE_LINE = "triangle %d %d %d\n"

# Characters JSON reads other than `str.split` does: `,` splits `1,2` into
# two integers, `[`, `]`, `{`, `}` and `"` nest or quote, and a tab is
# whitespace, which JSON allows around a comma.
_NOT_JSON_ROWS = (",", "[", "]", "{", "}", '"', "\t")
# What JSON reads as a literal or a float once the row keywords are gone:
# `true`, `false`, `null`, `NaN`, `Infinity`, `1e3`, `1E3`, `1.0`, and
# an `e` that began no line.
_NOT_JSON_INTEGERS = ("t", "f", "n", "N", "I", "E", "e", ".")
# A line break beside a comma or after a row's opening bracket: JSON
# reads it as whitespace inside a row, so `e 1 \r2 3` or `keep 2\n 1`
# would be one row.
_BREAK_IN_ROW = (",\n", ",\r", "[\n", "[\r", "\n,", "\r,")
# row keyword after a line break -> the start of a JSON row
_E_ROWS = (("\ne ", "],["),)
# the certificate's rows start with a kind code: 0, 1 and 2 sort as the
# triangles, pairs and keeps are returned
_CERTIFICATE_ROWS = (
    ("\ntriangle ", "],[0,"), ("\npair ", "],[1,"), ("\nkeep ", "],[2,"),
)

# certificate line kind -> (values per line, message when that is wrong),
# in the order `parse_certificate` returns the kinds
_CERTIFICATE_KINDS = {
    "triangle": (3, "triangle needs 3 vertices"),
    "pair": (2, "pair needs 2 vertices"),
    "keep": (2, "keep needs 2 endpoints"),
}


def _json_rows(body, keywords):
    """The rows of `body`, a text that starts with a line break, as lists of
    ints read by one `json.loads`; None unless `body` is in writer form.

    Writer form: every line is a row keyword of `keywords`, one space and
    integers one space apart, or is empty, and every row ends with `\n` or
    `\r\n`.  Each keyword after a line break becomes the start of a row
    and every space a comma.  The checks leave JSON only
    `-?(0|[1-9][0-9]*)` tokens, each a line's token that `int` reads to
    the same value, and only line breaks at a row's end as whitespace.
    """
    if not body.endswith("\n") or any(map(body.__contains__, _NOT_JSON_ROWS)):
        return None
    for keyword, row in keywords:
        body = body.replace(keyword, row)
    if not body.startswith("],[") or any(map(body.__contains__, _NOT_JSON_INTEGERS)):
        return None
    rows = body[2:].replace(" ", ",")
    # in the writers' own text the last line break is the only one left,
    # and a search for each pair of characters scans all of it
    if rows.find("\n") == len(rows) - 1 and "\r" not in rows:
        if rows[-2] in ",[":
            return None
    elif any(map(rows.__contains__, _BREAK_IN_ROW)):
        return None
    try:
        return json.loads("[" + rows + "]]")
    except ValueError:  # no JSON, or an integer too long for `int` as well
        return None


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
    value.
    """
    return _json_values(text, kind, fields, arity) or _problem_lines(
        text, kind, fields, arity
    )


def _json_values(text, kind, fields, arity):
    """`_problem_values` of a text in writer form, else None: a
    single-spaced `p` line, then `e` rows of `_json_rows`, all `width`
    wide.  The `p` line must equal its tokens joined by single spaces,
    which no other line break or whitespace inside it does."""
    end = text.find("\n")
    line = text[:end].removesuffix("\r")
    head = line.split()
    if (
        end < 0
        or line != " ".join(head)
        or len(head) != 2 + len(fields)
        or head[0] != "p"
        or head[1] != kind
    ):
        return None
    try:
        header = list(map(int, head[2:]))
    except ValueError:
        return None
    width = arity or header[-1]
    rows = _json_rows(text[end:], _E_ROWS)
    if rows is None or set(map(len, rows)) != {width}:
        return None
    return header, list(chain.from_iterable(rows)), width


def _problem_lines(text, kind, fields, arity):
    """`_problem_values` by the line loop, which raises the first faulty
    line's ParseError."""
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
    width = arity or header[-1]
    if all(len(row) == width for row in rows):
        return header, list(chain.from_iterable(rows)), width
    return header, list(map(tuple, rows)), 0


def _cut(values, width):
    """Rows of `_problem_values`: int tuples of `width` values each."""
    return list(zip(*[iter(values)] * width)) if width else values


def _hypergraph(values, width, n, k):
    """Rows of one width go to `make_hypergraph`'s checks and fold with the
    flat list they were cut from."""
    if not width or n < 0:
        return make_hypergraph(n, _cut(values, width), k=k)
    return _fold_hyperedges(n, _cut(values, width), values, k)


def parse_hypergraph(text: str) -> Hypergraph:
    return _parse_problem(text, "hyp", ("n", "m", "k"), 0, _hypergraph)


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
    return _json_certificate(text) or _certificate_lines(text)


def _json_certificate(text):
    """`parse_certificate` of a text in writer form, else None."""
    rows = _json_rows("\n" + text, _CERTIFICATE_ROWS)
    if rows is None:
        return None
    # a stable sort keeps each kind's rows in line order; every row starts
    # with its kind code, so [1] and [2] fall between the kinds
    rows.sort(key=_head)
    a, b = bisect_left(rows, [1]), bisect_left(rows, [2])
    try:
        return (
            [(u, v, w) for _, u, v, w in rows[:a]],
            [(u, v) for _, u, v in rows[a:b]],
            [(u, v) for _, u, v in rows[b:]],
        )
    except ValueError:  # a row of the wrong width
        return None


def _certificate_lines(text):
    """`parse_certificate` by the line loop, which raises the first faulty
    line's ParseError."""
    rows = {kind: [] for kind in _CERTIFICATE_KINDS}
    for lineno, tokens in _tokenized(text):
        kind, row = tokens[0], tuple(_ints(tokens[1:], lineno))
        if kind not in _CERTIFICATE_KINDS:
            raise ParseError(f"unknown certificate line {kind!r}", line=lineno)
        expected, message = _CERTIFICATE_KINDS[kind]
        if len(row) != expected:
            raise ParseError(message, line=lineno)
        rows[kind].append(row)
    return tuple(rows.values())


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
    member.  One certificate whose pairs already come in that order, as the
    solver gives them, is written with one `%` template over its vertices,
    the triangle line placed before the first pair with a larger or equal
    head, where a stable sort puts it.  Otherwise each block is its
    vertices followed by its line's `%` template, and the blocks are
    sorted.
    """
    if not isinstance(certs, (list, tuple)):
        certs = [certs]
    if len(certs) == 1 and set(map(len, certs[0].pairs)) <= {2}:
        triangle, m = certs[0].triangle, len(certs[0].pairs)
        values = tuple(chain.from_iterable(certs[0].pairs))
        heads = values[::2]
        if list(heads) == sorted(heads) and (triangle is None or len(triangle) == 3):
            if triangle is None:
                return _PAIR_LINE * m % values
            triangle = tuple(sorted(triangle))
            i = bisect_left(heads, triangle[0])
            template = _PAIR_LINE * i + _TRIANGLE_LINE + _PAIR_LINE * (m - i)
            return template % (values[: 2 * i] + triangle + values[2 * i :])
    blocks = []
    for cert in certs:
        if cert.triangle is not None:
            blocks.append((*sorted(cert.triangle), _TRIANGLE_LINE))
        blocks.extend(p + (_PAIR_LINE,) for p in cert.pairs)
    blocks.sort(key=_head)
    return "".join(b[-1] % b[:-1] for b in blocks)


def format_lu(lu) -> str:
    return "keep %d %d\n" * len(lu.kept) % tuple(chain.from_iterable(lu.kept))


def partition_json_object(cert) -> dict:
    """Fixed-field-order JSON object for one partition certificate."""
    return {
        "kind": "partition",
        "triangle": list(cert.triangle) if cert.triangle is not None else None,
        "pairs": [list(p) for p in cert.pairs],
        "keep": None,
    }
