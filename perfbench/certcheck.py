"""The benchmark's own certificate check, written apart from the program.

`verify` is part of the program under test, and a change to it could accept
wrong certificates.  This check reads the instance and certificate text
itself and returns a list of problems (empty when the certificate is right).
It also applies the shape rules: for a connected 3-uniform instance a
triangle appears exactly when n is odd, a k-uniform certificate has at most
one 3-block, and a kept-edge certificate gives every B-vertex degree 1.
"""

from __future__ import annotations

from itertools import combinations


def _rows(text: str):
    for line in text.splitlines():
        tokens = line.split()
        if tokens and not tokens[0].startswith("c"):
            yield tokens[0], [int(t) for t in tokens[1:] if t.lstrip("-").isdigit()], tokens


def _blocks(cert: str, kinds):
    out = {kind: [] for kind in kinds}
    for kind, ints, tokens in _rows(cert):
        if kind not in out or len(ints) != len(tokens) - 1:
            raise ValueError(f"unexpected certificate line {' '.join(tokens)!r}")
        out[kind].append(tuple(ints))
    return out


def check_partition(instance: str, cert: str, kind: str) -> list[str]:
    problems = []
    header, *edges = [ints for tag, ints, _ in _rows(instance) if tag in ("p", "e")]
    n = header[0]
    try:
        blocks = _blocks(cert, ("triangle", "pair"))
    except ValueError as exc:
        return [str(exc)]
    triangles, pairs = blocks["triangle"], blocks["pair"]
    if any(len(t) != 3 for t in triangles) or any(len(p) != 2 for p in pairs):
        return ["block of the wrong size"]
    seen = [0] * n
    for block in triangles + pairs:
        for v in block:
            if not 0 <= v < n:
                return [f"vertex {v} out of range"]
            seen[v] += 1
    if any(c != 1 for c in seen):
        problems.append("blocks do not cover every vertex exactly once")
    inside = {frozenset(p) for e in edges for p in combinations(e, 2)}
    bad = [p for p in pairs if frozenset(p) not in inside]
    if bad:
        problems.append(f"pair {bad[0]} is not inside a hyperedge")
    # for k = 3 a triple inside a hyperedge is the hyperedge itself
    hyperedges = [set(e) for e in edges]
    for t in triangles:
        if len(set(t)) != 3 or not any(set(t) <= e for e in hyperedges):
            problems.append(f"triangle {t} is not inside a hyperedge")
    if kind == "connected3" and len(triangles) != n % 2:
        problems.append(f"{len(triangles)} triangles for n = {n}")
    if kind == "kuniform" and len(triangles) > 1:
        problems.append(f"{len(triangles)} 3-blocks on a connected instance")
    return problems


def check_lu(instance: str, cert: str) -> list[str]:
    header, *edges = [ints for tag, ints, _ in _rows(instance) if tag in ("p", "e")]
    n_a, n_b, _m = header
    try:
        keeps = _blocks(cert, ("keep",))["keep"]
    except ValueError as exc:
        return [str(exc)]
    edge_set = {tuple(e) for e in edges}
    if len(set(keeps)) != len(keeps):
        return ["kept edge repeated"]
    if any(tuple(e) not in edge_set for e in keeps):
        return ["kept edge is not an edge of the graph"]
    deg_a, deg_b = [0] * n_a, [0] * n_b
    for a, b in keeps:
        deg_a[a] += 1
        deg_b[b] += 1
    problems = []
    if any(d != 1 for d in deg_b):
        problems.append("a B-vertex has kept degree other than 1")
    if any(d not in (0, 2, 3) for d in deg_a):
        problems.append("an A-vertex has kept degree outside {0, 2, 3}")
    # at most one degree-3 A-vertex per connected component of the graph
    parent = list(range(n_a + n_b))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for a, b in edges:
        parent[find(a)] = find(n_a + b)
    roots = [find(a) for a in range(n_a) if deg_a[a] == 3]
    if len(roots) != len(set(roots)):
        problems.append("a component has two degree-3 A-vertices")
    return problems


def check(slot, cert: str) -> list[str]:
    if slot.kind == "lu":
        return check_lu(slot.text, cert)
    return check_partition(slot.text, cert, slot.kind)
