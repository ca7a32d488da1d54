#!/usr/bin/env python3
"""End-to-end benchmark of the trimatch CLI.

Runs one seeded workload as a closed loop with one caller in one process:
for each slot it calls `trimatch.cli.main` in-process with stdout captured,
first `solve`/`lu` and then `verify` on the certificate just written, and
checks every certificate with the benchmark's own checker.  The loop cycles
over the workload's slots until `--seconds` have passed (and at least once
over every slot).  The last line of stdout is one JSON object with the
end-to-end metrics (`--trace 0`) or the per-layer metrics (`--trace 1`).

    python3 perfbench/run.py --workload odd-ladder --seed 1 --seconds 12 --trace 0

A traced run times the calls between trimatch's modules (see tracing.py);
it alternates untraced and traced ops on the same slot, which also gives the
tracing overhead.  Results files, spans and temporary instance files go to
`.perfbench/` at the root of the checkout.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import math
import os
import platform
import resource
import shutil
import statistics
import sys
import time
from dataclasses import dataclass, field, replace
from pathlib import Path
from types import SimpleNamespace

import certcheck
import tracing
import workloads
from speed import SpeedRef

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench"
SETUP_REPEATS = 3
# A percentile that lands on a failed op (which counts as +inf) reads this.
FAILED_S = 1e9
# In a traced run every REPEAT_EVERY-th slot is traced twice, so that the
# exact counters are seen to repeat.
REPEAT_EVERY = 8

OVERHEAD = ("vertices_per_s", "solve_s.p50", "solve_s.tail", "verify_s.p50",
            "ok_rate", "growth_exp")
PER_LAYER_TIMES = (
    "matching.blossom_s", "matching.tree_s", "matching.extract_s",
    "ears.decompose_self_s", "ears.maximalize_s",
    "partition.selfcheck_s", "partition.verify_s", "partition.construct_self_s",
    "core.validate_s", "core.shadow_graph_s", "core.components_s",
    "core.induced_hypergraph_s",
    "formats.parse_s", "formats.format_s", "formats.parse_certificate_s",
    "cli.self_s",
)
EXACT = tracing.COUNTS + ("matching.recursion_errors",)


def load_program():
    """Import trimatch from this checkout's src/, or exit without a result."""
    if not (SRC / "trimatch" / "__init__.py").is_file():
        sys.exit(f"error: no trimatch sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import trimatch
    from trimatch import cli, ears, formats, generate, partition

    if Path(trimatch.__file__).resolve().parent != SRC / "trimatch":
        sys.exit(f"error: imported trimatch from {trimatch.__file__}, not {SRC}")
    return SimpleNamespace(cli=cli, ears=ears, formats=formats,
                           generate=generate, partition=partition)


@dataclass
class Attempt:
    slot: int
    traced: bool
    solve_s: float = math.inf  # +inf once the op has failed
    verify_s: float | None = None
    elapsed_s: float = 0.0  # solve plus verify wall time, failed or not
    failure: str | None = None
    origin: str | None = None  # module an escaping exception was raised in
    wrong: bool = False  # a certificate was produced and is wrong
    repeat: bool = False  # a second traced op of its slot in the cycle
    layers: dict = field(default_factory=dict)
    t0: float = 0.0  # perf_counter() at the start and end of the op
    t1: float = 0.0


def call(main, argv):
    """Run one CLI call in-process; return (exit code or exception, time,
    stdout, the module an exception escaped from)."""
    out = io.StringIO()
    origin = None
    t0 = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            rc = main(argv)
    except SystemExit as exc:
        rc = exc.code if isinstance(exc.code, int) else 1
    except Exception as exc:  # an op boundary: record the failure, keep going
        rc = type(exc).__name__
        tb = exc.__traceback__
        while tb.tb_next is not None:
            tb = tb.tb_next
        origin = Path(tb.tb_frame.f_code.co_filename).stem
        exc.__traceback__ = None
    return rc, time.perf_counter() - t0, out.getvalue(), origin


class Runner:
    def __init__(self, program, slots, ref: SpeedRef):
        self.program = program
        self.slots = slots
        self.ref = ref
        self.tracer = tracing.Tracer()
        self.missing_names: list[str] = []
        self.first_cert: dict[int, str] = {}
        self.problems: list[str] = []
        self.recursion_in_matching: dict[int, int] = {}
        self.op_slots: list[int] = []  # slot of each traced op, by op id

    def attempt(self, index: int, traced: bool) -> Attempt:
        slot = self.slots[index]
        a = Attempt(index, traced)
        main = self.program.cli.main
        start = len(self.tracer.spans)
        if traced:
            self.tracer.op = len(self.op_slots)
            self.op_slots.append(index)
            self.missing_names = self.tracer.install(self.program)
            main = self.tracer.wrap("cli.main", main)
        a.t0 = time.perf_counter()
        try:
            cert = self._solve_and_verify(slot, main, a)
        finally:
            a.t1 = time.perf_counter()
            if traced:
                self.tracer.uninstall()
        if a.failure is None:
            if self.first_cert.setdefault(index, cert) != cert:
                a.failure, a.wrong = "nondeterministic", True
            elif self.first_cert[index] is cert:
                problems = certcheck.check(slot, cert)
                if problems:
                    a.failure, a.wrong = "check", True
                    self.problems.append(f"{slot.key}: {problems[0]}")
        if a.failure is not None:
            a.solve_s = math.inf
        if traced:
            a.layers = tracing.layer_totals(self.tracer.spans, start)
            read = len(slot.text) + (len(slot.text) + len(cert) if a.verify_s else 0)
            a.layers["formats.bytes_in"] = read
            a.layers["formats.bytes_out"] = len(cert)
        elif index not in self.recursion_in_matching:
            self.recursion_in_matching[index] = int(a.failure == "solve:RecursionError"
                                                    and a.origin == "matching")
        return a

    @staticmethod
    def _solve_and_verify(slot, main, a: Attempt) -> str:
        """Run `solve`/`lu` and then `verify`; fill in `a`; return the
        certificate text ("" when solve failed)."""
        rc, a.solve_s, cert, a.origin = call(main, slot.solve_argv())
        a.elapsed_s = a.solve_s
        if rc != 0:
            a.failure = f"solve:{rc if isinstance(rc, str) else f'exit {rc}'}"
            return ""
        slot.certificate.write_text(cert, encoding="ascii")
        rc, a.verify_s, said, _ = call(main, slot.verify_argv())
        a.elapsed_s += a.verify_s
        if rc != 0 or said.splitlines()[-1:] != ["OK"]:
            a.failure = f"verify:{rc if isinstance(rc, str) else f'exit {rc}'}"
            a.wrong = isinstance(rc, int)  # verify rejected or could not read it
        return cert

    def loop(self, seconds: float, traced: bool) -> list[Attempt]:
        """Run whole cycles over the slots for about `seconds`: another
        cycle starts while it would end within half a cycle of `seconds`,
        and at least two always run, so every slot has two samples.  A
        whole number of cycles keeps the mix of slots the same in every run.

        A traced run does each slot untraced and traced, in alternating
        order, and every REPEAT_EVERY-th slot traced once more."""
        done: list[Attempt] = []
        cycles = 0
        t0 = time.perf_counter()
        while cycles < 2 or (time.perf_counter() - t0) * (1 + 0.5 / cycles) < seconds:
            for i in range(len(self.slots)):
                kinds = [False] if not traced else [i % 2 == 1, i % 2 == 0]
                if traced and i % REPEAT_EVERY == 0:
                    kinds.append(True)
                for j, traced_op in enumerate(kinds):
                    self.ref.tick()
                    done.append(self.attempt(i, traced_op))
                    done[-1].repeat = j == 2
            cycles += 1
        self.ref.tick(force=True)
        return done


def normalized(attempts: list[Attempt], ref: SpeedRef) -> list[Attempt]:
    """The attempts with every time scaled to the reference speed."""
    out = []
    for a in attempts:
        f = ref.factor(a.t0, a.t1)
        out.append(replace(
            a, solve_s=a.solve_s * f, elapsed_s=a.elapsed_s * f,
            verify_s=None if a.verify_s is None else a.verify_s * f,
            layers={k: v * f if k.endswith("_s") else v for k, v in a.layers.items()}))
    return out


def percentile(sorted_xs, p):
    """Nearest-rank percentile of an ascending list."""
    rank = max(1, math.ceil(p / 100 * len(sorted_xs)))
    return sorted_xs[rank - 1]


def finite(x):
    return x if math.isfinite(x) else FAILED_S


def op_metrics(attempts, slots, tail_p) -> tuple[dict, dict]:
    """End-to-end op metrics of a set of attempts, plus the sample counts
    and per-slot medians behind them."""
    solve = sorted(a.solve_s for a in attempts)
    verify = sorted(a.verify_s for a in attempts if a.verify_s is not None)
    record = {"solve_samples": len(solve), "verify_samples": len(verify),
              "tail_percentile": tail_p,
              "tail_samples_beyond": len(solve) - math.ceil(tail_p / 100 * len(solve)),
              "per_slot": {}}
    # Per slot: median time of its attempts, passed when all of them passed.
    by_slot: dict[int, list[Attempt]] = {}
    for a in attempts:
        by_slot.setdefault(a.slot, []).append(a)
    vertices = elapsed = 0.0
    xs, ys = [], []
    for i, group in by_slot.items():
        elapsed += statistics.median(a.elapsed_s for a in group)
        record["per_slot"][slots[i].key] = {
            "n": slots[i].size, "ops": len(group),
            "solve_s.p50": finite(statistics.median(a.solve_s for a in group)),
            "failures": sorted({a.failure for a in group if a.failure}),
        }
        if all(a.failure is None for a in group):
            vertices += slots[i].vertices
            xs.append(math.log(slots[i].size))
            ys.append(math.log(statistics.median(a.solve_s for a in group)))
    metrics = {
        "vertices_per_s": vertices / elapsed,
        "solve_s.p50": finite(percentile(solve, 50)),
        "solve_s.tail": finite(percentile(solve, tail_p)),
        "verify_s.p50": finite(percentile(verify, 50)) if verify else FAILED_S,
        "ok_rate": sum(a.failure is None for a in attempts) / len(attempts),
        "growth_exp": slope(xs, ys),
    }
    return metrics, record


def slope(xs, ys) -> float:
    """Least-squares slope of ys against xs (0 with fewer than two sizes)."""
    if len(set(xs)) < 2:
        return 0.0
    mx, my = statistics.fmean(xs), statistics.fmean(ys)
    return (sum((x - mx) * (y - my) for x, y in zip(xs, ys))
            / sum((x - mx) ** 2 for x in xs))


def layer_metrics(attempts, runner, setup_gen) -> tuple[dict, list[str]]:
    """Per-layer metrics for one pass over the slots: per slot the median
    of its traced ops for times and the (checked equal) value for counts."""
    by_slot: dict[int, list[dict]] = {}
    for a in attempts:
        if a.traced:
            by_slot.setdefault(a.slot, []).append(a.layers)
    totals = {name: 0.0 for name in PER_LAYER_TIMES}
    totals.update({name: 0 for name in EXACT})
    completed = 0
    mismatched = []
    for i, layers in by_slot.items():
        for name in PER_LAYER_TIMES:
            totals[name] += statistics.median(lay.get(name, 0.0) for lay in layers)
        for name in tracing.COUNTS + ("lu.completed",):
            values = {lay.get(name, 0) for lay in layers}
            if len(values) != 1:
                mismatched.append(f"{runner.slots[i].key}:{name}")
            value = int(min(values))
            if name == "lu.completed":
                completed += value
            else:
                totals[name] += value
    totals["matching.recursion_errors"] = sum(runner.recursion_in_matching.values())
    calls = totals["matching.extract.calls"]
    totals["matching.extract.useful_ratio"] = completed / calls if calls else 0.0
    totals["generate.instance_s"] = setup_gen
    return totals, mismatched


def digest(paths) -> str:
    h = hashlib.sha256()
    for p in sorted(paths):
        h.update(str(p.relative_to(ROOT)).encode())
        h.update(p.read_bytes())
    return h.hexdigest()[:16]


def git_commit() -> str | None:
    """HEAD of the checkout's git repository, read without running git."""
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    loose = ROOT / ".git" / name
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return None


def setup(args, program, workdir, ref: SpeedRef):
    """Generate and write the workload's instances and warm up, several
    times; return the slots, seeds, and the median set-up and generation
    times (normalized, and set-up also raw).  Kernel time is left out."""
    totals, gens, raw, texts = [], [], [], None
    for _ in range(SETUP_REPEATS):
        ref.tick(force=True)
        spent, t0 = ref.spent, time.perf_counter()
        slots, seeds = workloads.build(args.workload, args.seed, program, workdir,
                                       ref.tick)
        t_gen = time.perf_counter() - t0 - (ref.spent - spent)
        Runner(program, slots, ref).attempt(0, False)
        t1 = time.perf_counter()
        total = t1 - t0 - (ref.spent - spent)
        ref.tick(force=True)
        f = ref.factor(t0, t1)
        totals.append(total * f)
        gens.append(t_gen * f)
        raw.append(total)
        now = [s.text for s in slots]
        if texts is not None and now != texts:
            sys.exit("error: the same seed generated different instances")
        texts = now
    return (slots, seeds, statistics.median(totals), statistics.median(gens),
            statistics.median(raw))


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    program = load_program()
    stamp = time.strftime("%Y%m%dT%H%M%S", time.gmtime())
    label = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    workdir = OUT / f"work-{os.getpid()}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    ref = SpeedRef()
    try:
        slots, seeds, setup_s, setup_gen, setup_raw = setup(args, program, workdir, ref)
        runner = Runner(program, slots, ref)
        raw_attempts = runner.loop(args.seconds, traced=bool(args.trace))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    tail_p = workloads.TAIL_PERCENTILE[args.workload]
    raw_e2e, _ = op_metrics([a for a in raw_attempts if not a.traced], slots, tail_p)
    raw_e2e.update(setup_s=setup_raw, peak_rss_mb=peak_rss_mb)
    attempts = normalized(raw_attempts, ref)
    plain = [a for a in attempts if not a.traced]
    e2e, samples = op_metrics(plain, slots, tail_p)
    e2e.update(setup_s=setup_s, peak_rss_mb=peak_rss_mb)
    failures: dict[str, int] = {}
    for a in attempts:
        if a.failure is not None:
            failures[a.failure] = failures.get(a.failure, 0) + 1
    correct = not any(a.wrong for a in attempts)

    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "instance_seeds": seeds,
        "git_commit": git_commit(),
        "src_sha256": digest((SRC / "trimatch").glob("*.py")),
        "bench_sha256": digest(Path(__file__).parent.glob("*.py")),
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "slots": len(slots),
        "attempts": len(attempts),
        "failures": failures,
        "certificate_problems": runner.problems[:20],
        "samples": samples,
        "end_to_end": e2e,
        "end_to_end_wall": raw_e2e,
        "speed_reference": ref.summary(),
    }
    if args.trace:
        traced = [a for a in attempts if a.traced and not a.repeat]
        t_e2e, t_samples = op_metrics(traced, slots, tail_p)
        layers, mismatched = layer_metrics(attempts, runner, setup_gen)
        for name in OVERHEAD:
            layers[f"overhead.{name}"] = t_e2e[name] - e2e[name]
        previous = _previous_counts(label, record["src_sha256"], record["bench_sha256"])
        if previous is not None:
            mismatched += [f"run:{n}" for n in EXACT if previous.get(n) != layers[n]]
        correct = correct and not mismatched
        record.update(traced_samples=t_samples, traced_end_to_end=t_e2e,
                      per_layer=layers, counts_not_exact=mismatched,
                      unwrapped_names=runner.missing_names)
        values = layers
        _write_spans(label, stamp, runner.tracer.spans,
                     [slots[i].key for i in runner.op_slots])
    else:
        values = e2e
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    metrics = {m["name"]: (values[m["name"]], m["unit"])
               for m in spec["per_layer" if args.trace else "end_to_end"]}
    record["correct"] = correct

    results = OUT / "results"
    results.mkdir(parents=True, exist_ok=True)
    (results / f"{label}-{stamp}-{os.getpid()}.json").write_text(
        json.dumps(record, indent=1, sort_keys=True) + "\n")
    for name, (value, unit) in metrics.items():
        print(f"{args.workload:12s} {name:34s} {value:14.6g} {unit}")
    failed = sum(a.failure is not None for a in attempts)
    print(json.dumps({
        "correct": correct,
        "attempted": len(attempts),
        "failed": failed,
        "metrics": {n: {"value": v, "unit": u} for n, (v, u) in metrics.items()},
    }))
    return 0


def _previous_counts(label, src_sha, bench_sha) -> dict | None:
    """Exact counters of an earlier traced run of the same workload, seed,
    program and benchmark, if one was recorded in this checkout."""
    for path in sorted((OUT / "results").glob(f"{label}-*.json")):
        rec = json.loads(path.read_text())
        if rec.get("src_sha256") == src_sha and rec.get("bench_sha256") == bench_sha:
            return rec.get("per_layer")
    return None


def _write_spans(label, stamp, spans, op_keys) -> None:
    path = OUT / "spans" / f"{label}-{stamp}-{os.getpid()}.jsonl"
    path.parent.mkdir(parents=True, exist_ok=True)
    with path.open("w") as fh:
        for i, (name, t0, t1, parent, op, counts, error) in enumerate(spans):
            fh.write(json.dumps({
                "id": i, "name": name, "start": t0, "end": t1, "parent": parent,
                "op": op, "slot": op_keys[op], "counts": counts, "error": error,
            }) + "\n")


if __name__ == "__main__":
    sys.exit(main())
