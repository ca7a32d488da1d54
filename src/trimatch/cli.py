"""Command-line surface: solve, verify, gen, lu, oracle.

Artifacts go to stdout, diagnostics to stderr.  Exit codes: 0 success or
verified, 1 infeasible/invalid certificate, 2 bad input, 3 internal
invariant violation (see errors module).

One command runs with the cyclic garbage collector paused: the solve path
allocates millions of long-lived containers and next to no reference
cycles, so the collector's passes over them find nothing.  `main` restores
the state it found however the command ends; library functions never touch
it.
"""

from __future__ import annotations

import argparse
import gc
import json
import sys

from . import formats
from .errors import (
    EXIT_BAD_INPUT,
    EXIT_INTERNAL,
    EXIT_INVALID,
    EXIT_OK,
    BudgetExceeded,
    NotUniform,
    TrimatchError,
)
from .generate import random_regular_bipartite, random_triple_system
from .oracle import OracleBudget, all_tri_partitions
from .partition import lu_subgraph, solve_components, solve_k_uniform
from .verify import verify_lu, verify_partition


def _read(path):
    try:
        with open(path, "r", encoding="ascii") as fh:
            return fh.read()
    except OSError as exc:
        raise ValueError(f"cannot read {path}: {exc}") from exc


def cmd_solve(args) -> int:
    h = formats.parse_hypergraph(_read(args.file))
    if h.k != args.k:
        raise NotUniform(f"file declares k={h.k} but --k is {args.k}")
    if args.components:
        cert = solve_components(h, k=args.k)
    else:
        cert = solve_k_uniform(h, args.k)
    if not args.json:
        sys.stdout.write(formats.format_partition(cert))
    elif args.components:
        obj = {
            "kind": "components",
            "components": [formats.partition_json_object(c) for c in cert],
        }
        print(json.dumps(obj))
    else:
        print(json.dumps(formats.partition_json_object(cert)))
    return EXIT_OK


def cmd_verify(args) -> int:
    instance_text = _read(args.instance)
    triangles, pairs, keeps = formats.parse_certificate(_read(args.certificate))
    if args.lu:
        bg = formats.parse_bipartite(instance_text)
        if triangles or pairs:
            raise ValueError("partition lines in a kept-edge certificate")
        report = verify_lu(bg, keeps)
    else:
        h = formats.parse_hypergraph(instance_text)
        if keeps:
            raise ValueError("keep lines in a partition certificate")
        report = verify_partition(h, (triangles, pairs))
    for violation in report.violations:
        print(violation)
    if report.ok:
        print("OK")
        return EXIT_OK
    return EXIT_INVALID


def cmd_gen(args) -> int:
    if args.bip:
        k = args.k if args.k is not None else 3
        bg = random_regular_bipartite(args.n, k, args.seed)
        sys.stdout.write(formats.format_bipartite(bg))
        return EXIT_OK
    if args.k is not None and args.k != 3:
        raise ValueError("hypergraph generation supports k=3 only")
    h = random_triple_system(args.n, args.seed, require_connected=args.connected)
    sys.stdout.write(formats.format_hypergraph(h))
    return EXIT_OK


def cmd_lu(args) -> int:
    bg = formats.parse_bipartite(_read(args.file))
    # without --k, lu_subgraph's one regularity check names the first
    # irregular vertex, or the empty side
    k = args.k if args.k is not None else len(bg.adj_a[0]) if bg.adj_a else 0
    lu = lu_subgraph(bg, k)
    sys.stdout.write(formats.format_lu(lu))
    return EXIT_OK


def cmd_oracle(args) -> int:
    h = formats.parse_hypergraph(_read(args.file))
    budget = OracleBudget(max_vertices=args.budget)
    if h.n > budget.max_vertices:
        raise BudgetExceeded(
            f"instance has {h.n} vertices, budget is {budget.max_vertices}"
        )
    cert = solve_k_uniform(h, h.k)
    reference = all_tri_partitions(h, budget)
    key = (cert.triangle, cert.pairs)
    print(f"instance: n={h.n} hyperedges={h.total_multiplicity} k={h.k}")
    print(f"solver: triangle={'none' if cert.triangle is None else cert.triangle}"
          f" pairs={len(cert.pairs)}")
    print(f"oracle: {len(reference)} feasible partitions")
    if key in reference:
        print("agreement: yes")
        return EXIT_OK
    print("agreement: NO", file=sys.stderr)
    return EXIT_INTERNAL


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="trimatch",
        description=(
            "Partition the vertices of 3-uniform 3-regular hypergraphs into "
            "at most one triangle plus a matching, with verifiable "
            "certificates."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_solve = sub.add_parser("solve", help="emit a partition certificate")
    p_solve.add_argument("file", help="hypergraph instance (`p hyp` format)")
    p_solve.add_argument("--k", type=int, default=3, help="uniformity (default 3)")
    p_solve.add_argument(
        "--components", action="store_true", help="solve disconnected input componentwise"
    )
    p_solve.add_argument("--json", action="store_true", help="structured output")
    p_solve.set_defaults(func=cmd_solve)

    p_verify = sub.add_parser("verify", help="check a certificate")
    p_verify.add_argument("instance")
    p_verify.add_argument("certificate")
    p_verify.add_argument(
        "--lu", action="store_true", help="kept-edge certificate for a bipartite instance"
    )
    p_verify.set_defaults(func=cmd_verify)

    p_gen = sub.add_parser("gen", help="emit a random instance")
    p_gen.add_argument("--n", type=int, required=True, help="vertices (or side size)")
    p_gen.add_argument("--k", type=int, default=None, help="degree for --bip")
    p_gen.add_argument("--seed", type=int, default=0)
    p_gen.add_argument("--connected", action="store_true")
    p_gen.add_argument("--bip", action="store_true", help="regular bipartite graph")
    p_gen.set_defaults(func=cmd_gen)

    p_lu = sub.add_parser("lu", help="kept-edge certificate for a regular bipartite graph")
    p_lu.add_argument("file", help="bipartite instance (`p bip` format)")
    p_lu.add_argument("--k", type=int, default=None, help="expected degree")
    p_lu.set_defaults(func=cmd_lu)

    p_oracle = sub.add_parser("oracle", help="compare the solver against brute force")
    p_oracle.add_argument("file")
    p_oracle.add_argument("--budget", type=int, default=14, help="vertex cap")
    p_oracle.set_defaults(func=cmd_oracle)

    return parser


def main(argv=None) -> int:
    enabled = gc.isenabled()
    gc.disable()
    try:
        return _run(argv)
    finally:
        if enabled:
            gc.enable()


def _run(argv) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except TrimatchError as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return exc.exit_code
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BAD_INPUT


def entry() -> None:
    sys.exit(main())
