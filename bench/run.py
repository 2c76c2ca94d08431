"""Benchmark of the decomposed VQE pipeline.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root.  The package is imported from ``src/`` of that
checkout.  The run repeats whole rounds of the workload's fixed work until S
seconds have passed, checks every output against ``checks.py``, and prints as
its last stdout line one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``:

* ``--trace 0``: the end-to-end metrics (medians over the rounds after the
  warm-up round; set-up time is the median of fresh-interpreter probes).
* ``--trace 1``: the per-layer metrics.  Each iteration runs set-up plus
  round 0 once untraced and once traced; the traced outputs must equal the
  untraced ones.  Spans go to
  ``bench/out/spans-WORKLOAD-seedN.jsonl``.

Every run also writes its per-round figures to ``bench/out/``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(BENCH_DIR, "out")
SETUP_PROBES = 3  # fresh-interpreter set-ups before and again after the rounds
WARMUP_ROUNDS = 1  # run and checked, but left out of the timing medians


def load_spec() -> dict:
    """BENCHMARK.json names the workloads and every metric with its unit."""
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        return json.load(handle)


class Checker:
    """Runs the independent checks on a round's outputs; counts optimal routes."""

    def __init__(self, ctx, checks, sweep_grid) -> None:
        self.checks = checks
        self.sweep_grid = sweep_grid
        self.blocks = {b.key: b for b in ctx.blocks}
        self.truths: dict = {}
        self.tables: dict = {}

    def truth(self, key):
        if key not in self.truths:
            block = self.blocks[key]
            truth = self.checks.truth_for(block.instance, block.cable, block.kappa)
            if block.qubo.dim != truth.block.dim:
                raise self.checks.CheckError(f"{key}: block dim {block.qubo.dim} != {truth.block.dim}")
            self.truths[key] = truth
        return self.truths[key]

    def __call__(self, outcome) -> int:
        c = self.checks
        optimal = 0
        for key, solution in outcome.brute:
            truth = self.truth(key)
            c.check_brute_force(truth, solution)
            optimal += c.is_optimal(truth, solution.bitstring)
        for key, result, maxiter in outcome.vqe:
            truth = self.truth(key)
            c.check_vqe_result(truth, result, maxiter)
            optimal += c.is_optimal(truth, result.bitstring)
        if outcome.sweep is not None:
            layout = next(iter(self.blocks))[0]
            truths = {(cid, kappa): self.truth((name, cid, kappa)) for name, cid, kappa in self.blocks}
            for key, truth in truths.items():
                if key not in self.tables:
                    self.tables[key] = c.all_energies(truth.block)
            rows = c.check_sweep(layout, truths, self.tables, *self.sweep_grid, *outcome.sweep)
            optimal += sum(r.feasible and c.close(r.objective, truths[(r.cable_id, r.kappa)].optimum) for r in rows)
        return optimal


def probe_setup(workload: str, seed: int) -> float:
    done = subprocess.run(
        [sys.executable, os.path.join(BENCH_DIR, "probe.py"), workload, str(seed)],
        cwd=ROOT, capture_output=True, text=True, timeout=120,
    )
    if done.returncode != 0:
        raise RuntimeError(f"set-up probe failed: {done.stderr[-2000:]}")
    return float(done.stdout.strip().splitlines()[-1])


def peak_rss_mib() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024.0


def run_plain(args, ctx, run_round, check, record) -> tuple[int, int, dict]:
    attempted = failed = 0
    walls, evals_rate, solves_rate, optimal = [], [], [], []
    start = time.perf_counter()
    r = 0
    while True:
        t0 = time.perf_counter()
        outcome = run_round(ctx, r)
        wall = time.perf_counter() - t0
        attempted += outcome.attempted
        failed += outcome.failed
        walls.append(wall)
        evals_rate.append(outcome.evals / wall)
        solves_rate.append(outcome.solves / wall)
        optimal.append(check(outcome))
        record["rounds"].append({"round": r, "wall_s": wall, "evals": outcome.evals, "solves": outcome.solves,
                                 "optimal_routes": optimal[-1], "attempted": outcome.attempted,
                                 "failed": outcome.failed, "warmup": r < WARMUP_ROUNDS})
        print(f"round {r}: wall {wall:.3f} s, {outcome.solves} solves, {outcome.evals} evals, "
              f"{optimal[-1]} optimal routes{' (warm-up)' if r < WARMUP_ROUNDS else ''}", file=sys.stderr)
        r += 1
        if r > WARMUP_ROUNDS and time.perf_counter() - start >= args.seconds:
            break
    timed = slice(WARMUP_ROUNDS, None)
    metrics = {
        "wall_s": statistics.median(walls[timed]),
        "evals_per_s": statistics.median(evals_rate[timed]),
        "cable_solves_per_s": statistics.median(solves_rate[timed]),
        "optimal_routes": statistics.fmean(optimal),
    }
    return attempted, failed, metrics


def run_traced(args, setup, run_round, check, spans, checks, record) -> tuple[int, int, dict]:
    tracer = spans.Tracer()
    attempted = failed = 0
    iterations: list[dict] = []
    bounds: list[tuple[int, int]] = []

    def setup_and_round():
        return run_round(setup(args.seed, OUT_DIR), 0)

    start = time.perf_counter()
    while True:
        t0 = time.perf_counter()
        plain = setup_and_round()
        untraced = time.perf_counter() - t0
        tracer.install()
        lo = len(tracer.names)
        t0 = time.perf_counter()
        try:
            with tracer.span("bench.iteration"):
                traced = setup_and_round()
        finally:
            wall = time.perf_counter() - t0
            tracer.uninstall()
        hi = len(tracer.names)
        bounds.append((lo, hi))
        for outcome in (plain, traced):
            attempted += outcome.attempted
            failed += outcome.failed
            check(outcome)
        if plain.signature() != traced.signature():
            raise checks.CheckError("the traced round returned other outputs than the untraced round")
        layer = tracer.summarize(lo, hi)
        layer["trace.wall_s"] = wall
        layer["trace.untraced_wall_s"] = untraced
        layer["trace.overhead_pct"] = 100.0 * (wall - untraced) / untraced
        iterations.append(layer)
        record["rounds"].append(layer)
        print(f"iteration {len(iterations) - 1}: untraced {untraced:.3f} s, traced {wall:.3f} s, "
              f"{hi - lo} spans, self-time sum {layer['trace.self_sum_s']:.3f} s", file=sys.stderr)
        if time.perf_counter() - start >= args.seconds:
            break

    def iteration_of(i: int) -> int:
        return next(k for k, (lo, hi) in enumerate(bounds) if lo <= i < hi)

    tracer.write_jsonl(os.path.join(OUT_DIR, f"spans-{args.workload}-seed{args.seed}.jsonl"), iteration_of)
    metrics = {name: statistics.median(it[name] for it in iterations) for name in iterations[0]}
    return attempted, failed, metrics


def main() -> int:
    spec = load_spec()
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=[w["name"] for w in spec["workloads"]])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not args.seconds > 0:
        parser.error("--seconds must be positive")

    if not os.path.isfile(os.path.join(SRC, "qcroute", "__init__.py")):
        print(f"error: no qcroute package under {SRC}; run from a full checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    import checks
    import numpy
    import qcroute
    import spans
    import workloads

    if os.path.dirname(os.path.abspath(qcroute.__file__)) != os.path.join(SRC, "qcroute"):
        print(f"error: imported qcroute from {qcroute.__file__}, not from {SRC}", file=sys.stderr)
        return 2
    os.makedirs(OUT_DIR, exist_ok=True)

    setup, run_round = workloads.WORKLOADS[args.workload]
    setup_samples = [] if args.trace else [probe_setup(args.workload, args.seed) for _ in range(SETUP_PROBES)]
    ctx = setup(args.seed, OUT_DIR)
    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
        "nproc": len(os.sched_getaffinity(0)), "python": platform.python_version(),
        "numpy": numpy.__version__, "setup_samples_s": setup_samples, "rounds": [],
    }
    check = Checker(ctx, checks, (workloads.SWEEP_KAPPAS, workloads.SWEEP_SEEDS))
    correct = True
    try:
        if args.trace:
            attempted, failed, metrics = run_traced(args, setup, run_round, check, spans, checks, record)
        else:
            attempted, failed, metrics = run_plain(args, ctx, run_round, check, record)
            setup_samples += [probe_setup(args.workload, args.seed) for _ in range(SETUP_PROBES)]
            metrics["setup_s"] = statistics.median(setup_samples)
            metrics["peak_rss_mib"] = peak_rss_mib()
    except checks.CheckError as exc:
        print(f"CHECK FAILED: {exc}", file=sys.stderr)
        correct, attempted, failed, metrics = False, max(1, len(record["rounds"])), 0, {}

    units = {m["name"]: m["unit"] for m in spec["per_layer" if args.trace else "end_to_end"]}
    if correct and set(metrics) != set(units):
        raise RuntimeError(f"metrics {sorted(set(metrics) ^ set(units))} disagree with BENCHMARK.json")
    result = {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in sorted(metrics)},
    }
    record["result"] = result
    with open(os.path.join(OUT_DIR, f"run-{args.workload}-seed{args.seed}-trace{args.trace}.json"), "w",
              encoding="utf-8") as handle:
        json.dump(record, handle, indent=1)
    print(json.dumps(result))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
