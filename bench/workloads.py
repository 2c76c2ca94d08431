"""The four benchmark workloads: set-up, one round of work, and its outputs.

Set-up (timed as ``setup_s``) imports the package, parses or generates the
instances and builds the cable blocks.  A round is the workload's fixed
amount of work; round ``r`` of a run with seed ``s`` draws its solver master
seed from ``(s, workload, r)``, so the same seed always gives the same inputs.
The program only ever sees the generated inputs.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import sys
from dataclasses import dataclass, field

import numpy as np

from qcroute import cli, instance, oracle, qubo, vqe

SWEEP_KAPPAS = (0.25, 0.5, 1.0, 2.0, 4.0)
SWEEP_SEEDS = 1  # 5 kappas x 1 seed = 5 cells, 20 cable solves per round
BLOCK_DIMS = (18, 19, 20)  # one generated layout per block size
BLOCK_MAXITER = 4
SOLVE_MAXITER = 30
EXACT_MAXITER = 2


def derive(seed: int, tag: int, index: int) -> int:
    """Bench-side seed derivation, independent of the package's own."""
    return int(np.random.SeedSequence((seed, tag, index)).generate_state(1, np.uint32)[0])


@dataclass
class Block:
    instance: object
    cable: object
    kappa: float
    qubo: object

    @property
    def key(self) -> tuple[str, str, float]:
        return (self.instance.name, self.cable.id, self.kappa)


@dataclass
class Context:
    seed: int
    out_dir: str
    instances: list
    blocks: list[Block]


@dataclass
class Outcome:
    """What one round produced, checked after the round's clock stops."""

    attempted: int = 0
    failed: int = 0
    solves: int = 0
    evals: int = 0
    vqe: list = field(default_factory=list)  # (block key, SolveResult, maxiter)
    brute: list = field(default_factory=list)  # (block key, OracleSolution)
    sweep: tuple | None = None  # (csv text, summary text)

    def signature(self) -> tuple:
        """Everything deterministic the round returned, for equality checks."""
        return (
            tuple((k, r.bitstring, r.energy, r.e_exp_final, r.evaluations_used) for k, r, _ in self.vqe),
            tuple((k, s.bitstring, s.energy) for k, s in self.brute),
            self.sweep,
        )


def _blocks(inst, kappas) -> list[Block]:
    out = []
    for kappa in kappas:
        for cable in inst.cables:
            penalties = qubo.scale_penalties(qubo.default_penalties(inst, cable), kappa)
            out.append(Block(inst, cable, kappa, qubo.build_cable_qubo(inst, cable, penalties)))
    return out


def _brute(ctx: Context, outcome: Outcome) -> None:
    for block in ctx.blocks:
        outcome.attempted += 1
        try:
            outcome.brute.append((block.key, oracle.brute_force_min(block.qubo, block.instance)))
        except Exception as exc:  # a failed operation is counted, not fatal
            outcome.failed += 1
            print(f"brute_force_min {block.key} failed: {exc!r}", file=sys.stderr)


def _decomposed(ctx: Context, config: "vqe.VqeConfig") -> Outcome:
    outcome = Outcome()
    inst = ctx.instances[0]
    outcome.attempted += inst.num_cables
    try:
        assignment = vqe.solve_decomposed(inst, 1.0, config)
    except Exception as exc:
        outcome.failed += inst.num_cables
        print(f"solve_decomposed failed: {exc!r}", file=sys.stderr)
    else:
        for result in assignment.results:
            outcome.vqe.append(((inst.name, result.cable_id, 1.0), result, config.maxiter))
            outcome.solves += 1
            outcome.evals += result.evaluations_used
    _brute(ctx, outcome)
    return outcome


# --- sweep-l1 ----------------------------------------------------------------


@contextlib.contextmanager
def counting_solves():
    """Counts cable solves and objective evaluations of an in-process sweep.

    ``qcroute.vqe.vqe_solve`` is the name ``solve_decomposed`` looks up; the
    wrapper adds one call and two additions per 0.15 s solve.
    """
    tally = [0, 0]
    original = vqe.vqe_solve

    def counted(*args, **kwargs):
        result = original(*args, **kwargs)
        tally[0] += 1
        tally[1] += result.evaluations_used
        return result

    vqe.vqe_solve = counted
    try:
        yield tally
    finally:
        vqe.vqe_solve = original


def setup_sweep(seed: int, out_dir: str) -> Context:
    layout1 = instance.bundled_layouts()[0]
    return Context(seed, out_dir, [layout1], _blocks(layout1, SWEEP_KAPPAS))


def round_sweep(ctx: Context, r: int) -> Outcome:
    outcome = Outcome()
    cells = len(SWEEP_KAPPAS) * SWEEP_SEEDS * ctx.instances[0].num_cables
    csv_path = os.path.join(ctx.out_dir, f"sweep-l1-seed{ctx.seed}.csv")
    argv = [
        "sweep", "layout-1", "--kappas", ",".join(f"{k:g}" for k in SWEEP_KAPPAS),
        "--seeds", str(SWEEP_SEEDS), "--shots", "1000", "--reps", "1", "--maxiter", "100",
        "--seed", str(derive(ctx.seed, 1, r)), "--jobs", "1", "--out", csv_path,
    ]
    stdout, stderr = io.StringIO(), io.StringIO()
    outcome.attempted += cells
    with counting_solves() as tally:
        try:
            with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
                code = cli.main(argv)
        except Exception as exc:
            code = repr(exc)
    outcome.solves, outcome.evals = tally
    if code != 0:
        outcome.failed += cells
        print(f"qcroute {' '.join(argv)} exited {code}: {stderr.getvalue()[-500:]}", file=sys.stderr)
    else:
        with open(csv_path, encoding="utf-8") as handle:
            outcome.sweep = (handle.read(), stdout.getvalue())
        if outcome.solves != cells:
            raise RuntimeError(f"solve counter saw {outcome.solves} cable solves, the sweep ran {cells}")
    _brute(ctx, outcome)
    return outcome


# --- solve-l2 / exact-l2 -----------------------------------------------------


def setup_layout2(seed: int, out_dir: str) -> Context:
    layout2 = instance.bundled_layouts()[1]
    return Context(seed, out_dir, [layout2], _blocks(layout2, (1.0,)))


def round_solve(ctx: Context, r: int) -> Outcome:
    return _decomposed(ctx, vqe.VqeConfig(shots=1000, reps=1, maxiter=SOLVE_MAXITER, seed=derive(ctx.seed, 2, r)))


def round_exact(ctx: Context, r: int) -> Outcome:
    return _decomposed(ctx, vqe.VqeConfig(shots=0, reps=1, maxiter=EXACT_MAXITER, seed=derive(ctx.seed, 3, r)))


# --- block-20q ---------------------------------------------------------------


def generate_layout(seed: int, dim: int) -> str:
    """A connected layout document whose cable block has ``dim`` variables.

    n nodes (7 to 9, drawn) on a ring in random order, plus random chords
    until there are dim + 2 - n segments, so segments + internal nodes = dim.
    The ring makes the graph 2-edge-connected.  Lengths are drawn from
    {1.0, 1.1, ..., 3.0}; one cable with alpha in {1, 1.5, 2} joins two
    distinct random nodes.
    """
    rng = np.random.default_rng(derive(seed, 4, dim))
    n = int(rng.integers(7, 10))
    m = dim + 2 - n
    order = [int(v) for v in rng.permutation(n)]
    pairs = [tuple(sorted((order[i], order[(i + 1) % n]))) for i in range(n)]
    chords = [(a, b) for a in range(n) for b in range(a + 1, n) if (a, b) not in pairs]
    for i in rng.choice(len(chords), size=m - n, replace=False):
        pairs.append(chords[int(i)])
    source, terminal = (int(v) for v in rng.choice(n, size=2, replace=False))
    doc = {
        "name": f"gen{dim}-{seed}",
        "nodes": [{"id": f"v{i}"} for i in range(n)],
        "segments": [
            {"id": f"e{k}", "u": f"v{a}", "v": f"v{b}", "length": int(rng.integers(10, 31)) / 10}
            for k, (a, b) in enumerate(pairs)
        ],
        "cables": [{"id": "c1", "source": f"v{source}", "terminal": f"v{terminal}",
                    "alpha": float(rng.choice([1.0, 1.5, 2.0]))}],
    }
    return json.dumps(doc)


def setup_blocks(seed: int, out_dir: str) -> Context:
    instances = [instance.parse_instance(generate_layout(seed, dim)) for dim in BLOCK_DIMS]
    blocks = [b for inst in instances for b in _blocks(inst, (1.0,))]
    return Context(seed, out_dir, instances, blocks)


def round_blocks(ctx: Context, r: int) -> Outcome:
    outcome = Outcome()
    _brute(ctx, outcome)
    for i, block in enumerate(ctx.blocks):
        config = vqe.VqeConfig(shots=1000, reps=1, maxiter=BLOCK_MAXITER, seed=derive(ctx.seed, 5, r * 16 + i))
        outcome.attempted += 1
        try:
            result = vqe.vqe_solve(block.qubo, config, block.instance)
        except Exception as exc:
            outcome.failed += 1
            print(f"vqe_solve {block.key} failed: {exc!r}", file=sys.stderr)
            continue
        outcome.vqe.append((block.key, result, config.maxiter))
        outcome.solves += 1
        outcome.evals += result.evaluations_used
    return outcome


# name -> (set-up, one round); why each was chosen is in BENCHMARK.json.
WORKLOADS = {
    "sweep-l1": (setup_sweep, round_sweep),
    "solve-l2": (setup_layout2, round_solve),
    "exact-l2": (setup_layout2, round_exact),
    "block-20q": (setup_blocks, round_blocks),
}
