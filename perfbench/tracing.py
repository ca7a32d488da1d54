"""Spans at trimatch's module boundaries, recorded from outside `src/`.

While a traced op runs, the module-level names through which one layer
calls another are replaced by wrappers that record a span (name, start,
end, parent span, op id), and are restored afterwards.  Hot helpers such as
`canonical_edge` or `has_edge` are left alone.  `layer_totals` turns the
spans of one op into the per-layer metrics.
"""

from __future__ import annotations

import functools
from time import perf_counter

# (module, attribute) pairs that are wrapped; a span is named "module.attr".
PARTITION_NAMES = (
    "validate", "shadow_graph", "components", "induced_hypergraph",
    "perfect_matching", "matching_on_subgraph",
    "extract_disjoint_perfect_matchings", "odd_ear_decomposition",
    "maximalize", "matching_with_edge_avoiding", "verify_partition",
    "verify_lu", "solve", "solve_components", "solve_k_uniform", "lu_subgraph",
)
EARS_NAMES = ("near_perfect_matching", "AlternatingTree")
CLI_NAMES = (
    "solve", "solve_components", "solve_k_uniform", "lu_subgraph",
    "verify_partition", "verify_lu",
)
FORMATS_NAMES = (
    "parse_hypergraph", "parse_bipartite", "parse_certificate",
    "format_partition", "format_lu", "partition_json_object",
)

BLOSSOM = ("partition.perfect_matching", "partition.matching_on_subgraph",
           "ears.near_perfect_matching")
CONSTRUCT = ("cli.solve", "cli.solve_components", "cli.solve_k_uniform",
             "cli.lu_subgraph", "partition.solve", "partition.solve_components",
             "partition.solve_k_uniform", "partition.lu_subgraph",
             "partition.matching_with_edge_avoiding")
LU = ("cli.lu_subgraph", "partition.lu_subgraph")

# Per-layer metrics that are counts: exact for a given instance, so they
# must repeat exactly whenever the same instance is traced again.
COUNTS = (
    "matching.blossom.calls", "matching.extract.calls", "ears.nontrivial_ears",
    "ears.slices", "partition.branch.forced_edge", "partition.components_solved",
    "core.shadow_graph.calls", "core.components.calls",
    "formats.bytes_in", "formats.bytes_out",
)


def _nontrivial(d) -> int:
    return sum(1 for ear in d.ears if not ear.trivial)


# Counts read from a call's arguments and result once its span has ended.
def _maximalize_counts(args, result):
    inn, out = _nontrivial(args[0]), _nontrivial(result)
    return {"ears.nontrivial_ears": out, "ears.slices": out - inn}


def _components_solved(args, result):
    return {"partition.components_solved": len(result)}


COUNTERS = {
    "partition.maximalize": _maximalize_counts,
    "partition.solve_components": _components_solved,
    "cli.solve_components": _components_solved,
}


class Tracer:
    """In-memory span recorder.  A span is [name, start, end, parent, op,
    counts, error]; `parent` is an index into `spans` or -1."""

    def __init__(self):
        self.spans: list[list] = []
        self.op = -1
        self._stack: list[int] = []
        self._saved: list[tuple] = []

    def wrap(self, name, fn):
        counter = COUNTERS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(self.spans)
            span = [name, 0.0, 0.0, self._stack[-1] if self._stack else -1,
                    self.op, None, None]
            self.spans.append(span)
            self._stack.append(idx)
            span[1] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                span[6] = type(exc).__name__
                raise
            finally:
                span[2] = perf_counter()
                self._stack.pop()
            if counter is not None:
                span[5] = counter(args, result)
            return result

        return traced

    def install(self, program) -> list[str]:
        """Wrap every boundary name; return the names the program lacks."""
        missing = []
        table = [(program.partition, "partition", PARTITION_NAMES),
                 (program.ears, "ears", EARS_NAMES),
                 (program.cli, "cli", CLI_NAMES),
                 (program.formats, "formats", FORMATS_NAMES)]
        for module, prefix, names in table:
            for attr in names:
                if not hasattr(module, attr):
                    missing.append(f"{prefix}.{attr}")
                    continue
                original = getattr(module, attr)
                self._saved.append((module, attr, original))
                setattr(module, attr, self.wrap(f"{prefix}.{attr}", original))
        return missing

    def uninstall(self) -> None:
        while self._saved:
            module, attr, original = self._saved.pop()
            setattr(module, attr, original)


def layer_totals(spans: list[list], start: int) -> dict[str, float]:
    """Per-layer metrics of the op whose spans are `spans[start:]`.

    Times are in seconds.  Self time is a span's duration minus the
    durations of its child spans; children of one span never overlap
    because the program is single-threaded.
    """
    child: dict[int, float] = {}
    for s in spans[start:]:
        if s[3] >= 0:
            child[s[3]] = child.get(s[3], 0.0) + s[2] - s[1]
    t: dict[str, float] = {}

    def add(key, value):
        t[key] = t.get(key, 0.0) + value

    for i in range(start, len(spans)):
        name, t0, t1, _parent, _op, counts, error = spans[i]
        d = t1 - t0
        own = d - child.get(i, 0.0)
        key = SPAN_METRIC.get(name)
        if key is not None:
            add(key, own if key.endswith("self_s") else d)
        if name in CALLS:
            add(CALLS[name], 1)
        if name in CONSTRUCT:
            add("partition.construct_self_s", own)
        if name in LU and error is None:
            add("lu.completed", 1)
        for ckey, value in (counts or {}).items():
            add(ckey, value)
    return t


# span name -> the per-layer time it adds to (duration, or self time for
# metrics ending in "self_s")
SPAN_METRIC = {
    **{name: "matching.blossom_s" for name in BLOSSOM},
    "ears.AlternatingTree": "matching.tree_s",
    "partition.odd_ear_decomposition": "ears.decompose_self_s",
    "partition.maximalize": "ears.maximalize_s",
    "partition.verify_partition": "partition.selfcheck_s",
    "partition.verify_lu": "partition.selfcheck_s",
    "cli.verify_partition": "partition.verify_s",
    "cli.verify_lu": "partition.verify_s",
    "partition.extract_disjoint_perfect_matchings": "matching.extract_s",
    "partition.validate": "core.validate_s",
    "partition.shadow_graph": "core.shadow_graph_s",
    "partition.components": "core.components_s",
    "partition.induced_hypergraph": "core.induced_hypergraph_s",
    "formats.parse_hypergraph": "formats.parse_s",
    "formats.parse_bipartite": "formats.parse_s",
    "formats.parse_certificate": "formats.parse_certificate_s",
    "formats.format_partition": "formats.format_s",
    "formats.format_lu": "formats.format_s",
    "formats.partition_json_object": "formats.format_s",
    "cli.main": "cli.self_s",
}
# span name -> the call counter it adds one to
CALLS = {
    **{name: "matching.blossom.calls" for name in BLOSSOM},
    "partition.extract_disjoint_perfect_matchings": "matching.extract.calls",
    "partition.shadow_graph": "core.shadow_graph.calls",
    "partition.components": "core.components.calls",
    "partition.matching_with_edge_avoiding": "partition.branch.forced_edge",
}
