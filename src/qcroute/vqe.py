"""Hybrid variational loop: per-cable sampling VQE and the decomposed solve.

Each cable block is solved independently: prepare the ansatz state, measure
(or use the exact distribution when shots=0), estimate the expected block
energy, and let a derivative-free simplex optimizer update the angles.  The
optimizer steers on the expectation; the returned bitstring is the best
energy sample observed anywhere in the run, which never discards a lucky
measurement.  Per-cable results merge additively into the global assignment.
A sampled decomposed solve of large blocks runs its cables on threads
(``solve_cables``); the results are those of the plain loop.

Everything is deterministic given (instance, kappa, config, seed): the master
seed is expanded into independent per-cable and per-purpose substreams.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass, field, replace
from typing import Callable, Generator, Sequence

import numpy as np

from .instance import Cable, Instance
from .oracle import FeasibilityReport, check_feasibility, chosen_objective
from .quantum import AnsatzSpec, _Workspace, estimate_energy, exact_distribution, prepare_state, sample
from .qubo import CableQubo, build_cable_qubo, default_penalties, qubo_energy, scale_penalties

__all__ = [
    "VqeConfig",
    "OptTrace",
    "SolveResult",
    "GlobalAssignment",
    "minimize",
    "vqe_solve",
    "cable_block",
    "solve_cables",
    "solve_decomposed",
    "cable_subseed",
    "check_shots",
    "check_kappa",
]


@dataclass(frozen=True)
class VqeConfig:
    """Solver settings; defaults match the benchmark protocol.

    ``shots=0`` is a sentinel for sampling-free runs on the exact measurement
    distribution.  ``maxiter`` bounds objective evaluations.
    """

    shots: int = 1000
    reps: int = 1
    maxiter: int = 100
    seed: int = 0
    ftol: float = 1e-6

    def __post_init__(self) -> None:
        if not 0 <= self.shots < 2**63:  # the multinomial draw takes an int64 count
            raise ValueError(f"shots must be within [0, 2**63 - 1] (0 = exact distribution), got {self.shots}")
        if self.reps < 0:
            raise ValueError(f"reps must be nonnegative, got {self.reps}")
        if self.maxiter < 1:
            raise ValueError("maxiter must be positive")
        if self.seed < 0:
            raise ValueError(f"seed must be nonnegative, got {self.seed}")
        if not 0 < self.ftol < math.inf:  # NaN fails too
            raise ValueError(f"ftol must be positive and finite, got {self.ftol}")


@dataclass
class OptTrace:
    """Objective values in evaluation order, and whether the run converged."""

    values: list[float] = field(default_factory=list)
    converged: bool = False


def _nelder_mead(x0: np.ndarray, ftol: float) -> Generator[np.ndarray, float, None]:
    """Nelder-Mead simplex descent as an ask/tell generator.

    Yields each point to evaluate and receives its value through ``send``.
    Every full update cycle (dim + 1 simplex iterations) convergence is
    checked: the generator returns once the lowest simplex value improved by
    less than ``ftol`` over the cycle and the simplex values have collapsed to
    within ``ftol`` of each other.  (The spread condition keeps episodic
    non-improving cycles, common mid-descent, from stopping the run while the
    simplex is still large.)  The lowest simplex value is the lowest value
    ever received: rejected trial points never beat vertex 0, and a shrink
    keeps it.  The caller owns the budget and simply stops sending.
    """
    step, alpha, gamma, rho, sigma = 0.5, 1.0, 2.0, 0.5, 0.5
    vertices = [x0]
    values = [(yield x0)]
    for i in range(len(x0)):
        point = x0.copy()
        point[i] += step
        vertices.append(point)
        values.append((yield point))

    cycle = len(x0) + 1
    best_at_check = min(values)
    iteration = 0
    while True:
        order = np.argsort(values, kind="stable")
        vertices = [vertices[i] for i in order]
        values = [values[i] for i in order]
        centroid = np.mean(vertices[:-1], axis=0)
        worst = vertices[-1]

        reflected = centroid + alpha * (centroid - worst)
        f_reflected = yield reflected
        if f_reflected < values[0]:
            expanded = centroid + gamma * (centroid - worst)
            f_expanded = yield expanded
            if f_expanded < f_reflected:
                vertices[-1], values[-1] = expanded, f_expanded
            else:
                vertices[-1], values[-1] = reflected, f_reflected
        elif f_reflected < values[-2]:
            vertices[-1], values[-1] = reflected, f_reflected
        else:
            if f_reflected < values[-1]:
                contracted = centroid + rho * (reflected - centroid)
            else:
                contracted = centroid + rho * (worst - centroid)
            f_contracted = yield contracted
            if f_contracted < min(f_reflected, values[-1]):
                vertices[-1], values[-1] = contracted, f_contracted
            else:
                for i in range(1, len(vertices)):
                    vertices[i] = vertices[0] + sigma * (vertices[i] - vertices[0])
                    values[i] = yield vertices[i]

        iteration += 1
        if iteration % cycle == 0:
            best = min(values)
            if best_at_check - best < ftol and max(values) - best < ftol:
                return
            best_at_check = best


def minimize(
    fn: Callable[[np.ndarray], float],
    dim: int,
    config: VqeConfig,
    rng: np.random.Generator,
) -> tuple[np.ndarray, float, OptTrace]:
    """Budgeted Nelder-Mead: drive ``_nelder_mead`` for at most ``config.maxiter`` evaluations.

    The start point is uniform in [0, 2pi) per angle.  Each point the
    generator asks for is evaluated once and its value sent back; the run
    ends when the budget is spent or the generator reports convergence
    (``config.ftol``).  Deterministic given (config, rng state).  Returns the
    first point that reached the lowest value, that value, and the
    evaluation trace.
    """
    if dim < 1:
        raise ValueError("dim must be positive")
    x0 = rng.random(dim) * 2.0 * np.pi

    trace = OptTrace()
    best_x, best_f = x0, np.inf
    steps = _nelder_mead(x0, config.ftol)
    x = next(steps)
    while len(trace.values) < config.maxiter:
        value = float(fn(x))
        trace.values.append(value)
        if value < best_f:
            best_x, best_f = x.copy(), value
        try:
            x = steps.send(value)
        except StopIteration:
            trace.converged = True
            break
    return best_x, best_f, trace


@dataclass(frozen=True)
class SolveResult:
    """Outcome of one cable solve."""

    cable_id: str
    bitstring: str
    energy: float
    e_exp_final: float
    feasibility: FeasibilityReport
    objective: float | None
    evaluations_used: int
    seed: int


@dataclass(frozen=True)
class GlobalAssignment:
    """Merged per-cable solutions; energies add because blocks never couple."""

    results: tuple[SolveResult, ...]
    total_energy: float
    all_feasible: bool

    @property
    def bitstring(self) -> str:
        return "".join(r.bitstring for r in self.results)


def vqe_solve(q: CableQubo, config: VqeConfig, instance: Instance) -> SolveResult:
    """Variationally minimize one cable block.

    The instance is needed to decode feasibility and routing cost of the
    returned bitstring; the cable is looked up by the block's cable id.  A
    block over the dimension cap (``qubo.check_block_dim``), or whose
    ``config.shots`` sampled energies could overflow their sum
    (``check_shots``), raises ValueError before the first evaluation.

    Every evaluation runs in one ``_Workspace``, built here: the state is
    prepared into its buffer and squared there into the weights.
    """
    spec = AnsatzSpec(num_qubits=q.dim, reps=config.reps)
    workspace = _Workspace(spec)
    check_shots(q, config.shots)
    cable = instance.cable(q.cable_id)
    theta_stream, sample_stream = np.random.SeedSequence(config.seed).spawn(2)
    theta_rng = np.random.default_rng(theta_stream)
    sample_rng = np.random.default_rng(sample_stream)

    best = (np.inf, "")  # (energy, bitstring): lower energy, then the smaller bitstring

    def objective(theta: np.ndarray) -> float:
        nonlocal best
        state = prepare_state(spec, theta, workspace)
        if config.shots == 0:
            weights = exact_distribution(state, workspace)
        else:
            weights = sample(state, config.shots, sample_rng, workspace)
        e_exp, (bits, energy) = estimate_energy(weights, q)
        best = min(best, (energy, bits))
        return e_exp

    _, e_star, trace = minimize(objective, spec.parameter_count, config, theta_rng)
    _, best_bits = best
    assert best_bits  # empty only if every sampled energy was NaN
    feasibility = check_feasibility(instance, cable, best_bits)
    objective_value = (
        chosen_objective(instance, cable, best_bits) if feasibility.feasible_path else None
    )
    return SolveResult(
        cable_id=q.cable_id,
        bitstring=best_bits,
        energy=qubo_energy(q, best_bits),
        e_exp_final=e_star,
        feasibility=feasibility,
        objective=objective_value,
        evaluations_used=len(trace.values),
        seed=config.seed,
    )


def cable_subseed(master_seed: int, cable_index: int) -> int:
    """Expand a master seed into one independent stream seed per index (cable or sweep run)."""
    return int(np.random.SeedSequence((master_seed, cable_index)).generate_state(1, np.uint64)[0])


def check_shots(q: CableQubo, shots: int) -> None:
    """Raise ValueError unless ``shots`` sampled energies of ``q`` sum without overflow.

    A count-weighted sum of ``shots`` energies is at most ``shots`` times the
    block's energy bound ``sum |Q_ij| + |offset|``; as in
    ``build_cable_qubo``, twice that must be finite.  ``shots=0`` weighs the
    energies by probabilities, which the block's own bound covers.
    """
    if shots and not math.isfinite(2.0 * shots * (float(np.abs(q.q).sum()) + abs(q.offset))):
        raise ValueError(
            f"{shots} shots of cable {q.cable_id!r} at kappa {q.penalties.kappa} overflow the sampled energy sum"
        )


def check_kappa(instance: Instance, kappa: float, shots: int = 0) -> None:
    """Raise ValueError unless ``kappa`` builds every cable's block and each
    admits ``shots`` sampled energies (``check_shots``)."""
    for block in _cable_row(instance, kappa):
        check_shots(block, shots)


# The latest (instance, kappa, blocks) row, replaced whole when the key changes: a
# caller keeps the row it matched, so a concurrent swap never mixes two keys.
_row: tuple[Instance, float, tuple[CableQubo, ...]] | None = None


def _build_block(instance: Instance, cable: Cable, kappa: float) -> CableQubo:
    return build_cable_qubo(instance, cable, scale_penalties(default_penalties(instance, cable), kappa))


def _cable_row(instance: Instance, kappa: float) -> tuple[CableQubo, ...]:
    """Every cable's block at ``kappa``, in cable order, built whole.

    The latest row is kept, its key matched by value, so the solves of one
    row (a sweep row's seeds, in each worker process too) share its
    read-only blocks and their ``energy_table``: with ``shots=0``,
    ``num_cables`` tables of ``2^dim`` floats.
    """
    global _row
    row = _row
    if row is None or row[1] != kappa or row[0] != instance:
        row = _row = (instance, kappa, tuple(_build_block(instance, c, kappa) for c in instance.cables))
    return row[2]


def cable_block(instance: Instance, cable: Cable, kappa: float) -> CableQubo:
    """One cable's block with its baseline penalty weights scaled by ``kappa``:
    the row's, so a kappa that fails any cable raises; a cable not in
    ``instance`` gets a block of its own, not kept."""
    row = _cable_row(instance, kappa)
    return row[instance.cables.index(cable)] if cable in instance.cables else _build_block(instance, cable, kappa)


# A solve runs its cables on threads only if it samples and every block has at
# least this many states.  Time of four solves of one block on 2 threads as a
# fraction of 1 thread (1000 shots, maxiter 30; exact: shots=0):
#
#   qubits    11    13    14    15    16    18
#   sampled  0.97  1.05  0.96  0.84  0.58  0.68
#   exact    1.66    -   1.11    -   1.14  1.08
#
# From 2^15 states the multinomial draw, which releases the GIL, is a large
# share of an evaluation; below it, and in exact solves, the threads mostly
# wait for the GIL.
_CONCURRENT_MIN_STATES = 1 << 15

# At most this many cable threads per process.  Only 2 threads were measured;
# with about half of a 16-qubit evaluation holding the GIL, more cannot get
# far below half the sequential time, while each adds a whole solve's memory.
_CONCURRENT_MAX_THREADS = 2


def _usable_cores() -> int:
    """The cores this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        return os.cpu_count() or 1


def solve_cables(
    instance: Instance, indices: Sequence[int], kappa: float, config: VqeConfig, workers: int = 1
) -> list[SolveResult]:
    """VQE on the block of each cable of ``indices``, the results in that order.

    The whole row is built first (``_cable_row``), on the calling thread,
    and each block is handed to ``vqe_solve`` with its cable's subseed.  A
    sampled solve (``shots >= 1``) of at least two cables whose blocks all
    have at least ``_CONCURRENT_MIN_STATES`` states runs the cables on
    ``min(cables, 2, usable cores // workers)`` threads, where ``workers``
    is the number of processes that solve at the same time (a sweep's
    workers); every other solve runs them one after another.  Each cable
    keeps its own seed streams and only reads its block, so the results are
    the loop's.  The first cable in order that fails raises its error, once
    the cables already running have finished; pending cables never start.
    """
    row = _cable_row(instance, kappa)
    blocks = [row[index] for index in indices]
    configs = [replace(config, seed=cable_subseed(config.seed, index)) for index in indices]
    threads = min(len(blocks), _CONCURRENT_MAX_THREADS, _usable_cores() // workers)
    if config.shots == 0 or threads < 2 or min(1 << b.dim for b in blocks) < _CONCURRENT_MIN_STATES:
        return [vqe_solve(block, cable_config, instance) for block, cable_config in zip(blocks, configs)]
    from concurrent.futures import ThreadPoolExecutor  # here, so importing qcroute does not load it
    with ThreadPoolExecutor(max_workers=threads) as pool:
        return list(pool.map(lambda block, cable_config: vqe_solve(block, cable_config, instance), blocks, configs))


def solve_decomposed(instance: Instance, kappa: float, config: VqeConfig, workers: int = 1) -> GlobalAssignment:
    """Solve every cable with ``solve_cables`` and merge.

    ``workers`` is the number of processes solving at the same time (see
    ``solve_cables``).  The per-run qubit requirement is the largest single
    block, never the sum.
    """
    results = solve_cables(instance, range(instance.num_cables), kappa, config, workers)
    return GlobalAssignment(
        results=tuple(results),
        total_energy=sum(r.energy for r in results),
        all_feasible=all(r.feasibility.feasible_path for r in results),
    )
