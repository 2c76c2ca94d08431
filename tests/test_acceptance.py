"""Acceptance suite: one test per release criterion, each printing a PASS or
FAIL line (run with ``pytest tests/test_acceptance.py -v -s`` to see them).

Statistical criteria run on fixed seeds, so every assertion here is
deterministic and reproducible.
"""

import itertools
import time

import numpy as np
import pytest

from qcroute import (
    VqeConfig,
    assemble_global,
    brute_force_min,
    build_cable_qubo,
    bundled_layouts,
    check_feasibility,
    default_penalties,
    ising_energy,
    qubo_energy,
    run_sweep,
    scale_penalties,
    shortest_path_opt,
    to_ising,
    vqe_solve,
)
from qcroute.cli import main
from qcroute.metrics import RunRecord, emp_prob, opt_gap_stats
from qcroute.quantum import AnsatzSpec, estimate_energy, exact_distribution, index_to_bitstring, prepare_state, sample
from qcroute.qubo import spins_from_bits
from conftest import TRIANGLE_DOC, TRIANGLE_TWO_CABLES_DOC
from reference import reference_energy
from qcroute import parse_instance


def verdict(ok: bool, label: str) -> None:
    print(f"{'PASS' if ok else 'FAIL'}: {label}")
    assert ok, label


def baseline_qubo(instance, cable, kappa=1.0):
    return build_cable_qubo(
        instance, cable, scale_penalties(default_penalties(instance, cable), kappa)
    )


@pytest.fixture(scope="module")
def triangle():
    return parse_instance(TRIANGLE_DOC)


@pytest.fixture(scope="module")
def layout1():
    return bundled_layouts()[0]


@pytest.fixture(scope="module")
def kappa_sweep(layout1):
    """One 30-seed sweep at kappa in {1/4, 1, 4} with default solver settings.

    Shared by the feasibility-probability and scaling-trend criteria; records
    per kappa are identical to separate sweeps because each (seed, cable)
    stream is derived independently of the kappa grid.
    """
    start = time.perf_counter()
    report = run_sweep(layout1, [0.25, 1.0, 4.0], 30, VqeConfig(seed=2026))
    return report, time.perf_counter() - start


def test_criterion_01_exact_penalty_feasibility():
    start = time.perf_counter()
    worst_gap = 0.0
    all_paths = True
    for instance in bundled_layouts():
        for cable in instance.cables:
            block = baseline_qubo(instance, cable)
            lowest = brute_force_min(block, instance)
            optimum = shortest_path_opt(instance, cable)
            report = check_feasibility(instance, cable, lowest.bitstring)
            all_paths = all_paths and report.feasible_path
            worst_gap = max(worst_gap, abs(lowest.objective - optimum.objective))
            worst_gap = max(worst_gap, abs(lowest.energy - optimum.objective))
    elapsed = time.perf_counter() - start
    verdict(
        all_paths and worst_gap <= 1e-9 and elapsed < 60.0,
        "criterion 1: exhaustive block minima are feasible paths at the "
        f"classical optimum (worst gap {worst_gap:.2e}, {elapsed:.1f}s)",
    )


def test_criterion_02_energy_identity():
    rng = np.random.default_rng(20260808)
    worst = 0.0
    for instance in bundled_layouts():
        for cable in instance.cables:
            pens = default_penalties(instance, cable)
            block = build_cable_qubo(instance, cable, pens)
            for _ in range(1000):
                z = "".join(rng.choice(["0", "1"], size=block.dim))
                diff = abs(qubo_energy(block, z) - reference_energy(instance, cable, pens, z))
                worst = max(worst, diff)
    verdict(
        worst <= 1e-9,
        f"criterion 2: matrix energy equals literal constraint expressions (worst {worst:.2e})",
    )


def test_criterion_03_additivity(layout1):
    blocks = [baseline_qubo(layout1, c) for c in layout1.cables]
    g = assemble_global(blocks)

    # Off-diagonal blocks are exactly zero: no cross-cable coupling exists.
    pos, cross_terms = 0, 0.0
    for block in blocks:
        mask = np.ones(g.dim, dtype=bool)
        mask[pos : pos + block.dim] = False
        cross_terms += np.abs(g.q[pos : pos + block.dim, :][:, mask]).sum()
        pos += block.dim

    rng = np.random.default_rng(3)
    exact_adds = True
    dense_gap = 0.0
    for _ in range(1000):
        z = "".join(rng.choice(["0", "1"], size=g.dim))
        parts = g.split(z)
        block_sum = sum(qubo_energy(b, part) for b, part in zip(blocks, parts))
        exact_adds = exact_adds and g.energy(z) == block_sum
        vec = np.array([int(ch) for ch in z], dtype=float)
        dense_gap = max(dense_gap, abs(float(vec @ g.q @ vec + g.offset) - block_sum))

    # Concatenating the per-block minimizers achieves the global minimum; the
    # converse is checked exhaustively on a two-cable assembly small enough
    # to brute force as one matrix (2^8 assignments).
    concat = "".join(brute_force_min(b).bitstring for b in blocks)
    sum_of_minima = sum(brute_force_min(b).energy for b in blocks)
    concat_is_min = abs(g.energy(concat) - sum_of_minima) <= 1e-12

    two = parse_instance(TRIANGLE_TWO_CABLES_DOC)
    small_blocks = [baseline_qubo(two, c) for c in two.cables]
    small_global = assemble_global(small_blocks)
    best = min(
        float(
            np.array(bits) @ small_global.q @ np.array(bits) + small_global.offset
        )
        for bits in itertools.product((0.0, 1.0), repeat=small_global.dim)
    )
    small_matches = abs(best - sum(brute_force_min(b).energy for b in small_blocks)) <= 1e-9

    verdict(
        cross_terms == 0.0
        and exact_adds
        and dense_gap <= 1e-9
        and concat_is_min
        and small_matches,
        "criterion 3: global energy decomposes additively and block minima "
        f"assemble to the global minimum (dense gap {dense_gap:.2e})",
    )


def test_criterion_04_ising_equivalence(triangle, layout1):
    worst = 0.0
    cases = [
        baseline_qubo(triangle, triangle.cables[0]),
        baseline_qubo(layout1, layout1.cable("c1")),
    ]
    for block in cases:
        model = to_ising(block)
        for u in range(1 << block.dim):
            z = format(u, f"0{block.dim}b")
            diff = abs(ising_energy(model, spins_from_bits(z, block.dim)) - qubo_energy(block, z))
            worst = max(worst, diff)
    verdict(
        worst <= 1e-9,
        f"criterion 4: spin energies equal QUBO energies on 2^4 and 2^11 states (worst {worst:.2e})",
    )


def test_criterion_05_vqe_sanity_four_qubits(triangle):
    block = baseline_qubo(triangle, triangle.cables[0])
    optimum = brute_force_min(block).bitstring
    start = time.perf_counter()
    hits = sum(
        vqe_solve(block, VqeConfig(shots=0, reps=1, maxiter=200, seed=seed), triangle).bitstring
        == optimum
        for seed in range(30)
    )
    elapsed = time.perf_counter() - start
    verdict(
        hits >= 27 and elapsed < 10.0,
        f"criterion 5: sampling-free VQE recovers the 4-qubit optimum in {hits}/30 seeds ({elapsed:.1f}s)",
    )


def test_criterion_06_vqe_at_benchmark_scale(layout1, kappa_sweep):
    report, elapsed = kappa_sweep
    probs = [report.emp_prob[(c.id, 1.0)] for c in layout1.cables]
    mean = sum(probs) / len(probs)
    verdict(
        mean >= 0.5 and elapsed < 900.0,
        "criterion 6: mean feasibility probability over the four 11-qubit "
        f"blocks at baseline penalties is {mean:.3f} >= 0.5 ({elapsed:.0f}s for the sweep)",
    )


def test_criterion_07_penalty_scaling_trend(layout1, kappa_sweep):
    report, _ = kappa_sweep
    mean_low = sum(report.emp_prob[(c.id, 0.25)] for c in layout1.cables) / 4
    mean_high = sum(report.emp_prob[(c.id, 4.0)] for c in layout1.cables) / 4
    verdict(
        mean_high - mean_low >= 0.2,
        "criterion 7: quadrupled penalties raise mean feasibility over quartered "
        f"penalties by {mean_high - mean_low:.3f} (>= 0.2)",
    )


def test_criterion_08_estimator_consistency(layout1):
    block = baseline_qubo(layout1, layout1.cable("c1"))
    spec = AnsatzSpec(block.dim, 1)
    rng = np.random.default_rng(88)
    successes = 0
    for trial in range(20):
        theta = rng.random(spec.parameter_count) * 2 * np.pi
        state = prepare_state(spec, theta)
        dist = exact_distribution(state)
        e_exact, _ = estimate_energy(dist, block)
        keys = [index_to_bitstring(i, block.dim) for i in dist.indices.tolist()]
        second_moment = sum(p * qubo_energy(block, z) ** 2 for z, p in zip(keys, dist.weights.tolist()))
        std_error = np.sqrt(max(second_moment - e_exact**2, 0.0) / 1000.0)
        counts = sample(state, 1000, np.random.default_rng(500 + trial))
        e_shots, _ = estimate_energy(counts, block)
        if abs(e_shots - e_exact) <= 5.0 * std_error:
            successes += 1
    verdict(
        successes >= 19,
        f"criterion 8: shot estimate within 5 standard errors of the exact "
        f"expectation in {successes}/20 trials",
    )


def test_criterion_09_sweep_determinism(tmp_path):
    first, second = tmp_path / "a.csv", tmp_path / "b.csv"
    args = ["sweep", "layout-1", "--kappas", "0.5,1", "--seeds", "2", "--seed", "11"]
    assert main(args + ["--out", str(first)]) == 0
    assert main(args + ["--out", str(second)]) == 0
    identical = first.read_bytes() == second.read_bytes()
    verdict(identical, "criterion 9: repeated sweeps with one master seed emit byte-identical CSVs")


def test_criterion_10_metrics_arithmetic():
    def rec(seed, feasible, objective, kappa=1.0):
        gap = None if not feasible else abs(objective - 10.0) / 10.0
        return RunRecord(
            layout="layout-1",
            cable_id="c1",
            kappa=kappa,
            seed=seed,
            feasible=feasible,
            energy=objective if feasible else 99.0,
            objective=objective if feasible else None,
            oracle_objective=10.0,
            opt_gap=gap,
        )

    prob_cases = (
        emp_prob([rec(i, i < 24, 10.0) for i in range(30)]) == 0.8
        and emp_prob([rec(i, False, None) for i in range(30)]) == 0.0
        and emp_prob([rec(i, True, 10.0) for i in range(30)]) == 1.0
    )
    mean, quartiles = opt_gap_stats([rec(0, True, 11.0), rec(1, True, 10.0), rec(2, True, 12.0)])
    gap_cases = (
        abs(mean - 0.1) <= 1e-15
        and quartiles == (0.0, 0.0, pytest.approx(0.1), pytest.approx(0.2), pytest.approx(0.2))
        and opt_gap_stats([rec(0, True, 10.0)]) == (0.0, (0.0,) * 5)
        and opt_gap_stats([rec(i, False, None) for i in range(5)]) is None
    )
    verdict(
        prob_cases and gap_cases,
        "criterion 10: feasibility fractions and gap statistics match hand arithmetic",
    )
