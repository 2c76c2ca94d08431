import dataclasses
import gc
import threading
import time
import weakref

import numpy as np
import pytest

from qcroute import (
    VqeConfig,
    assemble_global,
    brute_force_min,
    build_cable_qubo,
    default_penalties,
    minimize,
    parse_instance,
    qubo_energy,
    render_instance,
    scale_penalties,
    solve_decomposed,
    vqe,
    vqe_solve,
)
from qcroute.qubo import BLOCK_DIM_CAP as STATEVECTOR_DIM_CAP
from qcroute.cli import main
from qcroute.vqe import cable_block, cable_subseed, check_shots, solve_cables
from reference import parent_minimize
from test_oracle import zero_qubo


def baseline_qubo(instance, cable, kappa=1.0):
    return build_cable_qubo(
        instance, cable, scale_penalties(default_penalties(instance, cable), kappa)
    )


class TestVqeConfig:
    def test_defaults(self):
        config = VqeConfig()
        assert (config.shots, config.reps, config.maxiter) == (1000, 1, 100)
        assert config.ftol == 1e-6

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"shots": -1},
            {"shots": 2**63},
            {"reps": -1},
            {"maxiter": 0},
            {"ftol": 0.0},
            {"ftol": float("nan")},
            {"ftol": float("inf")},
        ],
    )
    def test_invalid(self, kwargs):
        with pytest.raises(ValueError):
            VqeConfig(**kwargs)


class TestMinimize:
    def test_quadratic_bowl(self):
        config = VqeConfig(maxiter=200, seed=0)
        for seed in range(10):
            rng = np.random.default_rng(seed)
            theta, value, trace = minimize(
                lambda x: float(np.sum((x - 1.0) ** 2)), 4, config, rng
            )
            assert value < 1e-4
            assert np.allclose(theta, 1.0, atol=0.05)
            assert len(trace.values) <= 200

    def test_constant_objective_converges_at_first_check(self):
        config = VqeConfig(maxiter=500, seed=0)
        _, value, trace = minimize(lambda x: 3.25, 4, config, np.random.default_rng(1))
        assert value == 3.25
        assert trace.converged
        # 5 start points, then one check cycle of dim + 1 = 5 iterations, each
        # a reflection, a contraction and a 4-point shrink: 5 + 5 * 6 evaluations
        assert len(trace.values) == 35
        assert len(trace.values) < 500

    def test_same_stream_identical_traces(self):
        config = VqeConfig(maxiter=60, seed=0)

        def noisy(x):
            return float(np.sum(np.sin(x) ** 2) + 0.1 * np.cos(10 * np.sum(x)))

        a = minimize(noisy, 3, config, np.random.default_rng(42))
        b = minimize(noisy, 3, config, np.random.default_rng(42))
        assert a[1] == b[1]
        assert a[2].values == b[2].values
        assert np.array_equal(a[0], b[0])

    def test_single_evaluation_budget(self):
        config = VqeConfig(maxiter=1, seed=0)
        theta, value, trace = minimize(
            lambda x: float(np.sum(x**2)), 6, config, np.random.default_rng(0)
        )
        assert len(trace.values) == 1
        assert value == trace.values[0]
        assert theta.shape == (6,)

    OBJECTIVES = {
        "constant": (4, 1e-6, lambda x: 3.25),  # converges at the first check, 35 evaluations
        "bowl": (2, 1e-2, lambda x: float(np.sum((x - 3.0) ** 2))),  # converges after 24-32
        "noisy": (3, 1e-6, lambda x: float(np.sum(np.sin(x) ** 2) + 0.1 * np.cos(10 * np.sum(x)))),
        # seed 1 starts on the plateau and converges at its first check, the 15th evaluation
        "plateau": (2, 1e-6, lambda x: float(min(np.sum((x - 3.0) ** 2), 4.0))),
    }

    @pytest.mark.parametrize("name", sorted(OBJECTIVES))
    def test_equals_frozen_parent_at_every_budget(self, name):
        dim, ftol, fn = self.OBJECTIVES[name]
        for seed in range(3):
            for budget in range(1, 41):
                config = VqeConfig(maxiter=budget, ftol=ftol)
                theta, value, trace = minimize(fn, dim, config, np.random.default_rng(seed))
                want_theta, want_value, want_values, want_converged = parent_minimize(
                    fn, dim, config, np.random.default_rng(seed)
                )
                assert trace.values == want_values
                assert trace.converged == want_converged
                assert value == want_value
                assert theta.tobytes() == want_theta.tobytes()

    def test_budget_never_exceeded(self):
        for budget in (1, 3, 7, 25):
            config = VqeConfig(maxiter=budget, seed=0)
            calls = []

            def fn(x):
                calls.append(1)
                return float(np.sum(x**2))

            minimize(fn, 5, config, np.random.default_rng(2))
            assert len(calls) <= budget


class TestVqeSolve:
    def test_triangle_exact_distribution_finds_optimum(self, triangle):
        q = baseline_qubo(triangle, triangle.cables[0])
        hits = 0
        for seed in range(5):
            result = vqe_solve(q, VqeConfig(shots=0, maxiter=200, seed=seed), triangle)
            hits += result.bitstring == "1101"
        assert hits >= 4

    def test_result_is_well_formed(self, triangle):
        q = baseline_qubo(triangle, triangle.cables[0])
        result = vqe_solve(q, VqeConfig(shots=200, maxiter=40, seed=3), triangle)
        assert result.cable_id == "c1"
        assert result.energy == qubo_energy(q, result.bitstring)
        assert result.evaluations_used <= 40
        assert result.seed == 3
        if result.feasibility.feasible_path:
            assert result.objective == pytest.approx(result.energy, abs=1e-9)
        else:
            assert result.objective is None

    def test_single_step_budget(self, triangle):
        q = baseline_qubo(triangle, triangle.cables[0])
        result = vqe_solve(q, VqeConfig(shots=100, maxiter=1, seed=0), triangle)
        assert result.evaluations_used == 1
        assert len(result.bitstring) == q.dim

    def test_energy_bounded_below_by_brute_force(self, triangle):
        q = baseline_qubo(triangle, triangle.cables[0])
        floor = brute_force_min(q).energy
        for seed in range(5):
            result = vqe_solve(q, VqeConfig(shots=100, maxiter=30, seed=seed), triangle)
            assert result.energy >= floor - 1e-12

    def test_feasible_objective_invariant_under_scaling(self, triangle):
        # When both runs land on the optimum, the objective is scale-free
        # because penalties vanish at feasible points.
        results = {}
        for kappa in (1.0, 4.0):
            q = baseline_qubo(triangle, triangle.cables[0], kappa)
            results[kappa] = vqe_solve(q, VqeConfig(shots=0, maxiter=200, seed=1), triangle)
        assert results[1.0].bitstring == results[4.0].bitstring == "1101"
        assert results[1.0].objective == results[4.0].objective == 2.0

    def test_determinism(self, triangle):
        q = baseline_qubo(triangle, triangle.cables[0])
        config = VqeConfig(shots=150, maxiter=25, seed=9)
        assert vqe_solve(q, config, triangle) == vqe_solve(q, config, triangle)

    def test_dimension_cap(self, triangle):
        with pytest.raises(ValueError, match="cap"):
            vqe_solve(zero_qubo(STATEVECTOR_DIM_CAP + 1), VqeConfig(), triangle)


class TestSolveDecomposed:
    def test_layout1_merge(self, layout1):
        assignment = solve_decomposed(layout1, 1.0, VqeConfig(seed=7))
        assert len(assignment.results) == 4
        assert assignment.total_energy == sum(r.energy for r in assignment.results)
        assert assignment.all_feasible == all(
            r.feasibility.feasible_path for r in assignment.results
        )
        assert len(assignment.bitstring) == 44

    def test_total_matches_assembled_global_energy(self, layout1):
        assignment = solve_decomposed(layout1, 1.0, VqeConfig(seed=11, maxiter=20, shots=100))
        blocks = [baseline_qubo(layout1, c) for c in layout1.cables]
        g = assemble_global(blocks)
        assert g.energy(assignment.bitstring) == assignment.total_energy

    def test_single_cable_instance_equals_direct_solve(self, triangle):
        config = VqeConfig(seed=21, maxiter=30, shots=100)
        assignment = solve_decomposed(triangle, 1.0, config)
        q = baseline_qubo(triangle, triangle.cables[0])
        direct = vqe_solve(
            q, VqeConfig(seed=cable_subseed(21, 0), maxiter=30, shots=100), triangle
        )
        assert assignment.results[0] == direct
        assert assignment.total_energy == direct.energy

    def test_determinism(self, layout1):
        config = VqeConfig(seed=5, maxiter=15, shots=100)
        assert solve_decomposed(layout1, 1.0, config) == solve_decomposed(layout1, 1.0, config)

    def test_per_run_state_is_single_block_sized(self, layout2):
        # The decomposition solves 16-variable blocks one at a time; the
        # merged bitstring is 64 wide but no solve ever sees more than 16.
        assignment = solve_decomposed(layout2, 1.0, VqeConfig(seed=1, maxiter=3, shots=50))
        assert max(len(r.bitstring) for r in assignment.results) == 16
        assert len(assignment.bitstring) == 64

    def test_distinct_subseeds_per_cable(self):
        seeds = {cable_subseed(0, i) for i in range(4)}
        assert len(seeds) == 4

    def test_solve_cable_is_one_entry_of_the_merge(self, layout1):
        config = VqeConfig(seed=5, maxiter=15, shots=100)
        assignment = solve_decomposed(layout1, 2.0, config)
        assert solve_cables(layout1, [2], 2.0, config)[0] == assignment.results[2]

    def test_cable_block_scales_baseline_penalties(self, layout1):
        cable = layout1.cables[1]
        block = cable_block(layout1, cable, 0.5)
        expected = baseline_qubo(layout1, cable, kappa=0.5)
        assert block.penalties == expected.penalties
        assert np.array_equal(block.q, expected.q) and block.offset == expected.offset


class TestConcurrentCables:
    """A sampled solve of 16-qubit blocks runs its cables on threads, with the loop's results."""

    CONFIG = VqeConfig(shots=50, maxiter=3, seed=8)

    @pytest.fixture()
    def pools(self, monkeypatch):
        """Two usable cores on any host; lists the thread count of every pool started."""
        import concurrent.futures

        started = []

        class Spy(concurrent.futures.ThreadPoolExecutor):
            def __init__(self, max_workers):
                started.append(max_workers)
                super().__init__(max_workers=max_workers)

        monkeypatch.setattr(vqe, "_usable_cores", lambda: 2)
        monkeypatch.setattr(concurrent.futures, "ThreadPoolExecutor", Spy)
        return started

    def test_results_are_solve_cable_in_cable_order(self, layout2, pools):
        expected = [solve_cables(layout2, [index], 1.0, self.CONFIG)[0] for index in range(layout2.num_cables)]
        assert pools == []
        assignment = solve_decomposed(layout2, 1.0, self.CONFIG)
        assert list(assignment.results) == expected
        assert solve_decomposed(layout2, 1.0, self.CONFIG) == assignment
        assert pools == [2, 2]

    @pytest.mark.parametrize(
        "cores, workers, threads", [(8, 1, 2), (4, 1, 2), (4, 2, 2), (3, 2, None), (2, 4, None)]
    )
    def test_sweep_workers_share_the_cores_up_to_two_threads(
        self, layout2, pools, monkeypatch, cores, workers, threads
    ):
        monkeypatch.setattr(vqe, "_usable_cores", lambda: cores)
        monkeypatch.setattr(vqe, "vqe_solve", lambda q, config, instance: q.cable_id)
        cables = solve_cables(layout2, range(layout2.num_cables), 1.0, self.CONFIG, workers=workers)
        assert cables == [cable.id for cable in layout2.cables]
        assert pools == ([] if threads is None else [threads])

    def test_the_first_failing_cable_in_order_raises(self, layout2, pools, monkeypatch):
        def failing(q, config, instance):
            if q.cable_id == "k2":
                time.sleep(0.05)  # k3 fails first
                raise ValueError("k2 failed")
            if q.cable_id == "k3":
                raise ValueError("k3 failed")
            return q.cable_id

        monkeypatch.setattr(vqe, "vqe_solve", failing)
        running = set(threading.enumerate())
        with pytest.raises(ValueError, match="k2 failed"):
            solve_cables(layout2, range(layout2.num_cables), 1.0, self.CONFIG)
        assert pools == [2]
        assert set(threading.enumerate()) == running
        monkeypatch.setattr(vqe, "_usable_cores", lambda: 1)  # the plain loop fails alike
        with pytest.raises(ValueError, match="k2 failed"):
            solve_cables(layout2, range(layout2.num_cables), 1.0, self.CONFIG)
        assert pools == [2]

    def test_small_exact_and_single_cable_solves_start_no_pool(self, layout1, layout2, triangle, pools, monkeypatch):
        assert main(["solve", "layout-2", "--cable", "k3", "--shots", "50", "--maxiter", "1"]) == 0
        assert pools == []
        assert main(["solve", "layout-2", "--shots", "50", "--maxiter", "1"]) == 0
        assert pools == [2]
        monkeypatch.setattr(vqe, "vqe_solve", lambda q, config, instance: q.cable_id)
        assert solve_cables(layout1, range(layout1.num_cables), 1.0, self.CONFIG) == [cable.id for cable in layout1.cables]
        solve_cables(layout2, [0, 1], 1.0, dataclasses.replace(self.CONFIG, shots=0))
        solve_cables(triangle, range(triangle.num_cables), 1.0, self.CONFIG)
        solve_cables(layout2, [2], 1.0, self.CONFIG)
        assert pools == [2]


class TestBlockRow:
    """``cable_block`` keeps the blocks of the latest (instance, kappa) row."""

    def test_a_repeated_key_gets_the_same_block(self, layout1):
        block = cable_block(layout1, layout1.cables[2], 1.0)
        assert cable_block(layout1, layout1.cables[2], 1.0) is block
        # Matched by value: a re-parsed instance (as a sweep worker receives
        # it) and an equal kappa of another type hit the same row.
        again = parse_instance(render_instance(layout1))
        assert again is not layout1
        assert cable_block(again, again.cables[2], 1) is block

    def test_a_foreign_cable_under_a_kept_id_gets_its_own_block(self, layout1):
        cable = layout1.cables[0]
        kept = cable_block(layout1, cable, 1.0)
        foreign = dataclasses.replace(cable, costs={k: 2.0 * v for k, v in cable.costs.items()})
        block = cable_block(layout1, foreign, 1.0)
        assert block is not kept
        assert np.array_equal(block.q, baseline_qubo(layout1, foreign).q)

    def test_a_kappa_that_fails_another_cable_fails_every_block(self, layout1):
        # At 2e305 c1's block is finite, c3's energy bound is not.
        with pytest.raises(ValueError, match=r"block of cable 'c3' at kappa 2e\+305"):
            cable_block(layout1, layout1.cables[0], 2e305)

    def test_solves_share_the_row_and_its_tables(self, layout1):
        config = VqeConfig(shots=0, maxiter=2, seed=3)
        solve_decomposed(layout1, 1.0, config)
        tables = [cable_block(layout1, c, 1.0).__dict__["energy_table"] for c in layout1.cables]
        solve_decomposed(layout1, 1.0, dataclasses.replace(config, seed=4))
        assert all(cable_block(layout1, c, 1.0).energy_table is t for c, t in zip(layout1.cables, tables))

    def test_another_kappa_releases_the_previous_row(self, layout1):
        config = VqeConfig(shots=0, maxiter=2, seed=3)
        solve_decomposed(layout1, 1.0, config)
        block = cable_block(layout1, layout1.cables[0], 1.0)
        refs = [weakref.ref(block), weakref.ref(block.energy_table)]
        del block
        solve_decomposed(layout1, 2.0, config)
        gc.collect()
        assert [ref() for ref in refs] == [None, None]


class TestCheckShots:
    def test_overflowing_sampled_sum_is_rejected_before_the_first_evaluation(self, layout1):
        # At 1e304 one energy is finite, 1000 count-weighted ones are not.
        block = baseline_qubo(layout1, layout1.cables[0], kappa=1e304)
        with pytest.raises(ValueError, match=r"1000 shots of cable 'c1' at kappa 1e\+304 overflow"):
            vqe_solve(block, VqeConfig(shots=1000, maxiter=2), layout1)
        check_shots(block, 1)
        check_shots(block, 0)
        assert vqe_solve(block, VqeConfig(shots=0, maxiter=2), layout1).evaluations_used == 2

    def test_largest_shot_count_at_kappa_one(self, layout1):
        check_shots(baseline_qubo(layout1, layout1.cables[0]), 2**63 - 1)
