"""Seeded instance sets, one per workload.

Every workload is a list of slots.  A slot is one instance file plus the
command a user would run on it (`solve`, `solve --k K` or `lu --k K`) and the
matching `verify` command.  All randomness comes from the workload seed: the
benchmark's own `random.Random` picks sizes and per-instance seeds, and the
program's generators build the instances from those seeds.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from pathlib import Path

# Ladders stop at 2k vertices.  The ops of a 4k rung take seconds each, so
# a run holds only a few of them and their median follows the machine's
# speed and the particular instances.  Short ops on eight instances per
# rung, interleaved over the run, give a median that stays put.
ODD_LADDER = (501, 1001, 2001)
EVEN_LADDER = (500, 1000, 2000)
LADDER_SEEDS_PER_SIZE = 8
# Small instances: per-call fixed costs dominate.  Generation costs about
# 10 ms an instance and set-up runs several times per run, so the pool is
# 400 instances rather than a thousand.  Sizes are spread evenly over the
# range (the seed picks the instances), so that the size mix, and with it
# the medians, does not change from seed to seed.
SMALL_COUNT = 400
SMALL_N = (5, 199)
# Regular bipartite graphs, instances per |B| and degree.  Sizes step
# evenly from 500 to 1000 so that op times form a continuum: a median taken
# where two clusters of similar ops meet would jump between them from run
# to run.  |B| = 2000 is past the depth at which the recursive Kuhn search
# overflows the default recursion limit; it stays so that the defect shows
# as failed ops (2 of 13 instances).
BIP_DEGREES = (4, 5)
BIP_SIDES = {**{nb: 1 for nb in range(500, 1001, 50)}, 2000: 2}

WORKLOADS = ("odd-ladder", "even-ladder", "small-sweep", "bip-lu")
# The tail percentile of solve time reported for each workload: the highest
# one that a run of the benchmark's length leaves at least 10 samples beyond.
# It is fixed per workload so that it cannot change with the sample count.
# On the ladders p75 lies in the largest rung's ops and leaves 12 samples
# beyond it at the minimum of two cycles.
# On bip-lu 2 of 13 ops fail (+inf) at |B| = 2000, so anything above p84
# would read as a failure until the recursion defect is fixed.
TAIL_PERCENTILE = {"odd-ladder": 75.0, "even-ladder": 75.0,
                   "small-sweep": 98.0, "bip-lu": 75.0}


@dataclass(frozen=True)
class Slot:
    """One instance and the command the closed loop runs on it."""

    key: str
    kind: str  # "connected3", "kuniform" or "lu": selects the shape check
    size: int  # n of a hypergraph, |B| of a bipartite graph
    vertices: int  # vertex count of the file the program reads
    k: int
    instance: Path
    certificate: Path
    text: str  # instance text, for the benchmark's own certificate check

    def solve_argv(self) -> list[str]:
        if self.kind == "connected3":
            return ["solve", str(self.instance)]
        if self.kind == "kuniform":
            return ["solve", str(self.instance), "--k", str(self.k)]
        return ["lu", str(self.instance), "--k", str(self.k)]

    def verify_argv(self) -> list[str]:
        flags = ["--lu"] if self.kind == "lu" else []
        return ["verify", *flags, str(self.instance), str(self.certificate)]


def _hypergraph_view(bg, k: int) -> str:
    """A k-regular bipartite graph read as a k-uniform k-regular hypergraph
    on B: one hyperedge per A-vertex, made of its B-neighbours."""
    lines = [f"p hyp {bg.n_b} {bg.n_a} {k}"]
    lines.extend("e " + " ".join(map(str, bg.adj_a[a])) for a in range(bg.n_a))
    return "\n".join(lines) + "\n"


def build(name: str, seed: int, program, workdir: Path, tick) -> tuple[list[Slot], dict]:
    """Generate the workload's instances, write them under `workdir`, and
    return its slots with the seeds that made them.  `tick()` is called
    after each instance."""
    gen, fmt = program.generate, program.formats
    rng = random.Random(f"{name}:{seed}")
    slots: list[Slot] = []
    seeds: dict[str, int] = {}

    def add(key, kind, size, vertices, k, text, suffix):
        path = workdir / f"{key}.{suffix}"
        path.write_text(text, encoding="ascii")
        slots.append(
            Slot(key, kind, size, vertices, k, path, workdir / f"{key}.cert", text)
        )
        tick()

    def triple_system(key, n):
        s = seeds[key] = rng.getrandbits(63)
        h = gen.random_triple_system(n, s, require_connected=True)
        add(key, "connected3", n, n, 3, fmt.format_hypergraph(h), "hyp")

    if name in ("odd-ladder", "even-ladder"):
        for j in range(LADDER_SEEDS_PER_SIZE):
            for n in ODD_LADDER if name == "odd-ladder" else EVEN_LADDER:
                triple_system(f"n{n}-{j}", n)
    elif name == "small-sweep":
        lo, hi = SMALL_N
        for i in range(SMALL_COUNT):
            triple_system(f"s{i:04d}", lo + i * (hi - lo + 1) // SMALL_COUNT)
    elif name == "bip-lu":
        for k in BIP_DEGREES:
            for nb, count in BIP_SIDES.items():
                for j in range(count):
                    key = f"k{k}-b{nb}-{j}"
                    s = seeds[key] = rng.getrandbits(63)
                    bg = gen.random_regular_bipartite(nb, k, s)
                    add(f"{key}-lu", "lu", nb, 2 * nb, k, fmt.format_bipartite(bg), "bip")
                    add(f"{key}-hyp", "kuniform", nb, nb, k, _hypergraph_view(bg, k), "hyp")
    else:
        raise ValueError(f"unknown workload {name!r}")
    return slots, seeds
