import dataclasses
import itertools
import threading
import time
import tracemalloc
from types import SimpleNamespace

import numpy as np
import pytest

from qcroute import (
    AnsatzSpec,
    BasisWeights,
    SampleCounts,
    build_cable_qubo,
    default_penalties,
    estimate_energy,
    exact_distribution,
    prepare_state,
    qubo_energy,
    sample,
)
from qcroute import quantum, qubo
from qcroute.quantum import _Workspace, index_to_bitstring
from test_oracle import RING_18_CHORDS, baseline_qubo, chorded_ring, zero_qubo
from reference import (
    cnot_chain_by_swaps,
    parent_estimate_energy,
    parent_exact_distribution,
    parent_prepare_state,
    reference_ansatz,
    reference_energy,
)


class TestAnsatzSpec:
    @pytest.mark.parametrize("m, reps, count", [(1, 0, 1), (4, 1, 8), (11, 1, 22), (3, 2, 9)])
    def test_parameter_count(self, m, reps, count):
        assert AnsatzSpec(m, reps).parameter_count == count

    def test_invalid(self):
        with pytest.raises(ValueError):
            AnsatzSpec(0, 1)
        with pytest.raises(ValueError):
            AnsatzSpec(2, -1)


class TestPrepareState:
    def test_single_qubit_identity(self):
        state = prepare_state(AnsatzSpec(1, 0), [0.0])
        assert np.allclose(state.amplitudes, [1.0, 0.0])

    def test_single_qubit_flip(self):
        state = prepare_state(AnsatzSpec(1, 0), [np.pi])
        assert np.allclose(state.amplitudes, [0.0, 1.0], atol=1e-12)

    def test_cnot_chain_propagates_flip(self):
        # First layer flips qubit 0, the chain copies it onto qubit 1, the
        # final zero layer does nothing: state |11> (amplitude index 3).
        state = prepare_state(AnsatzSpec(2, 1), [np.pi, 0.0, 0.0, 0.0])
        expected = np.zeros(4)
        expected[3] = 1.0
        assert np.allclose(np.abs(state.amplitudes), expected, atol=1e-12)

    @pytest.mark.parametrize("m, reps", [(1, 0), (3, 1), (5, 2)])
    def test_zero_parameters_give_all_zero_state(self, m, reps):
        spec = AnsatzSpec(m, reps)
        state = prepare_state(spec, np.zeros(spec.parameter_count))
        expected = np.zeros(1 << m)
        expected[0] = 1.0
        assert np.max(np.abs(state.amplitudes - expected)) <= 1e-12

    def test_normalization_preserved(self):
        rng = np.random.default_rng(11)
        spec = AnsatzSpec(4, 1)
        for _ in range(1000):
            theta = rng.random(spec.parameter_count) * 2 * np.pi
            state = prepare_state(spec, theta)
            assert abs(np.linalg.norm(state.amplitudes) - 1.0) < 1e-10

    def test_normalization_at_eleven_qubits(self):
        rng = np.random.default_rng(12)
        spec = AnsatzSpec(11, 1)
        for _ in range(25):
            state = prepare_state(spec, rng.random(spec.parameter_count) * 2 * np.pi)
            assert abs(np.linalg.norm(state.amplitudes) - 1.0) < 1e-10

    @pytest.mark.parametrize("reps", [0, 1, 2])
    @pytest.mark.parametrize("m", range(1, 7))
    def test_matches_matrix_reference(self, m, reps):
        rng = np.random.default_rng(100 * m + reps)
        spec = AnsatzSpec(m, reps)
        for _ in range(3):
            theta = rng.random(spec.parameter_count) * 2 * np.pi
            state = prepare_state(spec, theta)
            assert state.amplitudes.dtype == np.float64
            assert np.allclose(state.amplitudes, reference_ansatz(m, reps, theta), rtol=0, atol=1e-12)

    @pytest.mark.parametrize("reps", range(4))
    @pytest.mark.parametrize("m", [*range(1, 15), 16])
    def test_bytes_equal_gate_by_gate_kernel(self, m, reps):
        spec = AnsatzSpec(m, reps)
        n = spec.parameter_count
        rng = np.random.default_rng(1000 * m + reps)
        angle_sets = [
            rng.uniform(-2 * np.pi, 2 * np.pi, n),
            rng.uniform(-2 * np.pi, 2 * np.pi, n),
            np.zeros(n),
            np.full(n, np.pi),
            np.full(n, -np.pi),
            rng.choice([-np.pi, 0.0, np.pi], n),
        ]
        for theta in angle_sets:
            amps = prepare_state(spec, theta).amplitudes
            assert amps.dtype == np.float64 and amps.shape == (1 << m,) and amps.flags.c_contiguous
            assert amps.tobytes() == parent_prepare_state(m, reps, theta).tobytes()

    @pytest.mark.parametrize("tile", [1, 2, 8, 64])
    @pytest.mark.parametrize("m", range(1, 13))
    def test_bytes_equal_with_many_tiles(self, monkeypatch, tile, m):
        # Tiles far below the state make both passes run many bands, with
        # bands narrower than a row or a column of the grid at small tiles.
        monkeypatch.setattr(quantum, "_TILE", tile)
        rng = np.random.default_rng(100 * m + tile)
        for reps in range(4):
            n = AnsatzSpec(m, reps).parameter_count
            for theta in (rng.uniform(-2 * np.pi, 2 * np.pi, n), rng.choice([-np.pi, 0.0, np.pi], n)):
                amps = prepare_state(AnsatzSpec(m, reps), theta).amplitudes
                assert amps.tobytes() == parent_prepare_state(m, reps, theta).tobytes()

    @pytest.mark.parametrize("reps", [1, 2])
    @pytest.mark.parametrize("m", [17, 18])
    def test_bytes_equal_gate_by_gate_kernel_past_one_tile(self, m, reps):
        theta = np.random.default_rng(1000 * m + reps).uniform(-2 * np.pi, 2 * np.pi, m * (reps + 1))
        amps = prepare_state(AnsatzSpec(m, reps), theta).amplitudes
        assert amps.tobytes() == parent_prepare_state(m, reps, theta).tobytes()

    def test_twenty_qubit_peak_is_the_state_plus_two_tiles(self):
        spec = AnsatzSpec(20, 1)
        theta = np.linspace(0.1, 1.0, spec.parameter_count)
        tracemalloc.start()
        try:
            prepare_state(spec, theta)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        state, tiles = 8 << 20, 2 * 8 * quantum._TILE
        # Slack for numpy's ufunc iterator buffers (two 64 KiB) and the angles.
        assert peak < state + tiles + (256 << 10)

    @pytest.mark.parametrize("m", range(1, 13))
    def test_cnot_gather_equals_gate_by_gate_swaps(self, m):
        amps = np.random.default_rng(m).standard_normal(1 << m)
        workspace = _Workspace(AnsatzSpec(m, 2))
        workspace.amps[:] = amps
        workspace._cnot_chain()
        assert np.array_equal(workspace.amps, cnot_chain_by_swaps(amps, m))

    def test_parameter_count_mismatch(self):
        with pytest.raises(ValueError, match="parameters"):
            prepare_state(AnsatzSpec(2, 1), [0.0, 0.0])

    def test_sixteen_qubit_preparation_is_fast(self):
        spec = AnsatzSpec(16, 1)
        theta = np.linspace(0.1, 1.0, spec.parameter_count)
        prepare_state(spec, theta)  # warm up
        start = time.perf_counter()
        prepare_state(spec, theta)
        assert time.perf_counter() - start < 0.1


class TestWorkspace:
    """One workspace serves every evaluation of a solve: its states are the
    gate-by-gate bytes whatever the previous call left in its buffers, it
    leaves numpy's buffer size as it found it, and an evaluation through it
    allocates nothing state-sized."""

    @staticmethod
    def assert_states_through_one_workspace(m, reps, thetas):
        spec = AnsatzSpec(m, reps)
        workspace = _Workspace(spec)
        for theta in thetas:
            state = prepare_state(spec, theta, workspace)
            assert state.amplitudes is workspace.amps
            assert state.amplitudes.tobytes() == parent_prepare_state(m, reps, theta).tobytes()
            exact_distribution(state, workspace)  # squares over the state, as a solve does

    @pytest.mark.parametrize("tile", [1, 2, 8, 64])
    @pytest.mark.parametrize("m", range(1, 13))
    def test_states_over_many_angles_equal_the_gate_by_gate_bytes(self, monkeypatch, tile, m):
        monkeypatch.setattr(quantum, "_TILE", tile)
        rng = np.random.default_rng(10 * m + tile)
        for reps in range(4):
            n = AnsatzSpec(m, reps).parameter_count
            thetas = [
                rng.uniform(-2 * np.pi, 2 * np.pi, n),
                rng.choice([-np.pi, 0.0, np.pi], n),
                np.zeros(n),
                rng.uniform(-2 * np.pi, 2 * np.pi, n),
            ]
            self.assert_states_through_one_workspace(m, reps, thetas)

    @pytest.mark.parametrize("reps", range(4))
    @pytest.mark.parametrize("m", [17, 18])
    def test_states_past_one_tile_equal_the_gate_by_gate_bytes(self, m, reps):
        rng = np.random.default_rng(1000 * m + reps)
        n = AnsatzSpec(m, reps).parameter_count
        self.assert_states_through_one_workspace(m, reps, [rng.uniform(-2 * np.pi, 2 * np.pi, n) for _ in range(2)])

    def test_a_state_without_a_workspace_is_never_overwritten(self):
        spec = AnsatzSpec(6, 2)
        rng = np.random.default_rng(6)
        first = prepare_state(spec, rng.uniform(-2 * np.pi, 2 * np.pi, spec.parameter_count))
        kept = first.amplitudes.tobytes()
        workspace = _Workspace(spec)
        for _ in range(3):
            theta = rng.uniform(-2 * np.pi, 2 * np.pi, spec.parameter_count)
            exact_distribution(prepare_state(spec, theta))
            sample(prepare_state(spec, theta, workspace), 10, rng, workspace)
        exact_distribution(first)
        sample(first, 10, rng)
        assert first.amplitudes.tobytes() == kept

    def test_a_foreign_state_is_left_untouched_and_a_foreign_spec_refused(self):
        spec = AnsatzSpec(4, 1)
        workspace = _Workspace(spec)
        fresh = prepare_state(spec, np.ones(8))
        kept = fresh.amplitudes.tobytes()
        for weigh in (
            lambda ws: exact_distribution(fresh, ws),
            lambda ws: sample(fresh, 10, np.random.default_rng(0), ws).counts,
        ):
            want = weigh(None)
            got = weigh(workspace)  # the workspace is only scratch
            assert fresh.amplitudes.tobytes() == kept
            assert got.indices.tobytes() == want.indices.tobytes()
            assert got.weights.dtype == want.weights.dtype and got.weights.tobytes() == want.weights.tobytes()
        with pytest.raises(ValueError, match="workspace built for"):
            prepare_state(AnsatzSpec(4, 2), np.ones(12), workspace)

    @pytest.mark.parametrize("amplitudes, qubits", [(1, 0), (8, 3)])
    def test_a_state_of_another_size_is_refused(self, amplitudes, qubits):
        workspace = _Workspace(AnsatzSpec(4, 1))
        state = quantum.Statevector(np.full(amplitudes, amplitudes ** -0.5))
        match = rf"a {qubits}-qubit state does not fit a workspace built for AnsatzSpec\(num_qubits=4, reps=1\)"
        with pytest.raises(ValueError, match=match):
            exact_distribution(state, workspace)
        with pytest.raises(ValueError, match=match):
            sample(state, 10, np.random.default_rng(0), workspace)

    def test_full_support_is_one_object_checked_once(self, monkeypatch):
        m = 11
        spec = AnsatzSpec(m, 1)
        workspace = _Workspace(spec)
        rng = np.random.default_rng(m)
        thetas = [rng.uniform(-2 * np.pi, 2 * np.pi, spec.parameter_count) for _ in range(5)]
        wants = [exact_distribution(prepare_state(spec, theta)) for theta in thetas]
        built = []
        init = BasisWeights.__init__

        def counted(self, *args):
            built.append(args)
            init(self, *args)

        monkeypatch.setattr(BasisWeights, "__init__", counted)
        gots = []
        for theta, want in zip(thetas, wants):
            got = exact_distribution(prepare_state(spec, theta, workspace), workspace)
            assert len(want) == 1 << m  # every basis state weighted
            assert got.indices.tobytes() == want.indices.tobytes()
            assert got.weights.tobytes() == want.weights.tobytes()
            gots.append(got)
        assert all(got is gots[0] for got in gots) and len(built) == 1

    def test_a_full_support_exact_evaluation_allocates_under_4_kib(self):
        m = 16
        spec = AnsatzSpec(m, 1)
        workspace = _Workspace(spec)
        rng = np.random.default_rng(m)
        exact_distribution(prepare_state(spec, rng.uniform(-2 * np.pi, 2 * np.pi, spec.parameter_count), workspace), workspace)
        state = prepare_state(spec, rng.uniform(-2 * np.pi, 2 * np.pi, spec.parameter_count), workspace)
        tracemalloc.start()
        try:
            dist = exact_distribution(state, workspace)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(dist) == 1 << m
        assert peak < 4 << 10  # no mask of the indices, nothing state-sized

    @pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan])
    @pytest.mark.parametrize("own", [False, True])
    def test_a_non_finite_amplitude_is_named_with_and_without_a_workspace(self, bad, own):
        spec = AnsatzSpec(3, 1)
        workspace = _Workspace(spec)
        theta = np.linspace(0.1, 1.0, spec.parameter_count)
        exact_distribution(prepare_state(spec, theta, workspace), workspace)  # full support built
        amps = prepare_state(spec, theta).amplitudes
        amps[5] = bad
        if own:
            workspace.amps[:] = amps
        state = quantum.Statevector(workspace.amps if own else amps)
        message = f"weight of '101' must be finite and positive, got {bad * bad}"
        with pytest.raises(ValueError, match=f"^{message}$"):
            exact_distribution(quantum.Statevector(amps.copy()))
        with pytest.raises(ValueError, match=f"^{message}$"):
            exact_distribution(state, workspace)

    @pytest.mark.parametrize("m", [3, 11, 16])
    def test_weights_squared_in_place_equal_fresh_ones(self, m):
        spec = AnsatzSpec(m, 1)
        theta = np.random.default_rng(m).uniform(-2 * np.pi, 2 * np.pi, spec.parameter_count)
        fresh = prepare_state(spec, theta)
        expected_dist = exact_distribution(fresh)
        expected_counts = sample(fresh, 100, np.random.default_rng(1)).counts
        workspace = _Workspace(spec)
        for weigh, want in (
            (lambda state: exact_distribution(state, workspace), expected_dist),
            (lambda state: sample(state, 100, np.random.default_rng(1), workspace).counts, expected_counts),
        ):
            got = weigh(prepare_state(spec, theta, workspace))  # exact weights live until the next state
            assert got.indices.tobytes() == want.indices.tobytes()
            assert got.weights.dtype == want.weights.dtype and got.weights.tobytes() == want.weights.tobytes()

    def test_buffer_size_is_restored_in_every_thread_and_on_raise(self, monkeypatch):
        default = np.getbufsize()
        spec = AnsatzSpec(5, 2)
        theta = np.linspace(0.1, 1.0, spec.parameter_count)
        prepare_state(spec, theta)
        assert np.getbufsize() == default

        seen = []

        def in_a_thread():
            prepare_state(spec, theta)
            seen.append(np.getbufsize())

        thread = threading.Thread(target=in_a_thread)
        thread.start()
        thread.join()
        assert seen == [default] and np.getbufsize() == default

        with np.errstate():
            np.setbufsize(1024)  # a caller's own setting is kept, too
            prepare_state(spec, theta)
            assert np.getbufsize() == 1024

        inside = []

        def failing_chain(self):
            inside.append(np.getbufsize())
            raise RuntimeError("chain failed")

        monkeypatch.setattr(_Workspace, "_cnot_chain", failing_chain)
        with pytest.raises(RuntimeError, match="chain failed"):
            prepare_state(spec, theta)
        assert inside == [quantum._BUFSIZE] and np.getbufsize() == default

    def test_second_exact_evaluation_allocates_nothing_state_sized(self):
        m = 16
        q = random_qubo(m, m)
        spec = AnsatzSpec(m, 1)
        workspace = _Workspace(spec)
        rng = np.random.default_rng(m)

        def evaluate():
            theta = rng.uniform(-2 * np.pi, 2 * np.pi, spec.parameter_count)
            return estimate_energy(exact_distribution(prepare_state(spec, theta, workspace), workspace), q)

        evaluate()  # builds the block's energy table and the workspace's full support
        tracemalloc.start()
        try:
            evaluate()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 8 << m  # one float64 state

    def test_over_the_cap_raises_before_allocating(self, monkeypatch):
        def forbidden(*args, **kwargs):
            raise AssertionError("state allocated")

        monkeypatch.setattr(quantum, "np", SimpleNamespace(empty=forbidden))
        with pytest.raises(ValueError, match=f"^block dimension 60 exceeds the cap of {qubo.BLOCK_DIM_CAP} variables$"):
            _Workspace(AnsatzSpec(60, 1))


class TestBitOrdering:
    def test_round_trip(self):
        for u in range(16):
            assert index_to_bitstring(u, 4) == format(u, "04b")[::-1]

    def test_character_i_is_qubit_i(self):
        assert index_to_bitstring(1, 3) == "100"
        assert index_to_bitstring(4, 3) == "001"


class TestExactDistribution:
    def test_point_mass(self):
        state = prepare_state(AnsatzSpec(3, 0), np.zeros(3))
        dist = exact_distribution(state)
        assert dist.indices.tolist() == [0] and dist.weights.tolist() == [1.0]

    def test_uniform_two_qubit(self):
        # Half-turn rotations on both qubits, no entangling layer.
        state = prepare_state(AnsatzSpec(2, 0), [np.pi / 2, np.pi / 2])
        dist = exact_distribution(state)
        assert {index_to_bitstring(i, 2) for i in dist.indices.tolist()} == {"00", "10", "01", "11"}
        for p in dist.weights.tolist():
            assert p == pytest.approx(0.25, abs=1e-10)

    def test_probabilities_sum_to_one(self):
        rng = np.random.default_rng(5)
        spec = AnsatzSpec(4, 1)
        for _ in range(20):
            state = prepare_state(spec, rng.random(spec.parameter_count) * 2 * np.pi)
            assert sum(exact_distribution(state).weights.tolist()) == pytest.approx(1.0, abs=1e-10)

    @pytest.mark.parametrize(
        "m, reps, theta, full",
        [(m, 1, None, True) for m in (1, 2, 5, 11, 16)]
        + [(3, 0, np.zeros(3), False), (8, 1, np.zeros(16), False), (8, 0, np.array([0.0, 1.0] * 4), False)],
    )
    def test_same_bytes_as_the_parent_gather(self, m, reps, theta, full):
        # Random angles give every state weight (the weights pass through);
        # zero angles leave some states out (the weights are gathered).
        if theta is None:
            theta = np.random.default_rng(m).uniform(-2 * np.pi, 2 * np.pi, AnsatzSpec(m, reps).parameter_count)
        state = prepare_state(AnsatzSpec(m, reps), theta)
        dist = exact_distribution(state)
        indices, weights = parent_exact_distribution(state)
        assert (len(dist) == 1 << m) == full
        assert dist.indices.dtype == indices.dtype and dist.indices.tobytes() == indices.tobytes()
        assert dist.weights.dtype == weights.dtype and dist.weights.tobytes() == weights.tobytes()


class TestBasisWeights:
    @pytest.fixture()
    def weights(self):
        # Indices 1, 2, 6 at m = 3 are "100", "010", "011".
        return BasisWeights(np.array([1, 2, 6]), np.array([0.25, 0.5, 0.25]), 3)

    @pytest.mark.parametrize(
        "indices, weights, match",
        [
            ([6, 1], [0.5, 0.5], "strictly ascending"),  # would iterate but fail every lookup
            ([-1, 2], [0.5, 0.5], "strictly ascending"),
            ([1, 8], [0.5, 0.5], r"within \[0, 2\^3\)"),
            ([1, 2], [1.0], "2 indices but 1 weights"),
            ([1, 2], [0.5, 0.0], "weight of '010' must be finite and positive, got 0.0"),
            ([1, 2], [-1, 3], "weight of '100' must be finite and positive, got -1"),
            ([1, 6], [0.5, np.nan], "weight of '011' must be finite and positive, got nan"),
            ([1, 6], [np.inf, 0.5], "weight of '100' must be finite and positive, got inf"),
            ([], [], "no weighted basis states"),
        ],
        ids=["out-of-order", "negative", "past-the-range", "length-mismatch", "zero", "negative-weight", "nan", "inf", "empty"],
    )
    def test_rejects_a_broken_invariant(self, indices, weights, match):
        with pytest.raises(ValueError, match=match):
            BasisWeights(np.array(indices), np.array(weights), 3)

    def test_len_builds_no_bitstrings(self, weights, monkeypatch):
        def forbidden(*args):
            raise AssertionError("bitstring built")

        monkeypatch.setattr(quantum, "index_to_bitstring", forbidden)
        assert len(weights) == 3

    @pytest.mark.parametrize("m", range(3, 12))
    def test_sample_and_exact_weights_are_positive(self, m):
        spec = AnsatzSpec(m, 1)
        state = prepare_state(spec, np.random.default_rng(m).random(spec.parameter_count) * 2 * np.pi)
        counts = sample(state, 100, np.random.default_rng(4)).counts
        assert counts.weights.dtype.kind == "i" and counts.weights.sum() == 100
        dist = exact_distribution(state)
        assert dist.weights.dtype.kind == "f"
        assert (counts.weights > 0).all() and (dist.weights > 0).all()


class TestSample:
    def test_deterministic_state_all_shots_on_one_string(self):
        state = prepare_state(AnsatzSpec(2, 1), [np.pi, 0.0, 0.0, 0.0])
        counts = sample(state, 50, np.random.default_rng(0))
        assert counts.counts.indices.tolist() == [3] and counts.counts.weights.tolist() == [50]
        assert counts.shots == 50

    def test_uniform_counts_within_five_sigma(self):
        state = prepare_state(AnsatzSpec(2, 0), [np.pi / 2, np.pi / 2])
        counts = sample(state, 4000, np.random.default_rng(123))
        sigma = np.sqrt(4000 * 0.25 * 0.75)
        observed = np.zeros(4, dtype=np.int64)
        observed[counts.counts.indices] = counts.counts.weights
        for count in observed.tolist():
            assert abs(count - 1000) <= 5 * sigma

    def test_same_seed_identical_counts(self):
        spec = AnsatzSpec(3, 1)
        theta = np.linspace(0.3, 2.0, spec.parameter_count)
        state = prepare_state(spec, theta)
        a = sample(state, 500, np.random.default_rng(77))
        b = sample(state, 500, np.random.default_rng(77))
        assert a.shots == b.shots
        assert np.array_equal(a.counts.indices, b.counts.indices)
        assert np.array_equal(a.counts.weights, b.counts.weights)

    def test_invalid_shots(self):
        state = prepare_state(AnsatzSpec(1, 0), [0.0])
        with pytest.raises(ValueError, match="shots"):
            sample(state, 0, np.random.default_rng(0))

    def test_chi_square_sanity_at_large_shots(self):
        rng = np.random.default_rng(31)
        spec = AnsatzSpec(4, 1)
        state = prepare_state(spec, rng.random(spec.parameter_count) * 2 * np.pi)
        expected = exact_distribution(state)
        counts = sample(state, 100_000, np.random.default_rng(32))
        observed_counts = np.zeros(16, dtype=np.int64)
        observed_counts[counts.counts.indices] = counts.counts.weights
        chi2 = 0.0
        dof = 0
        for index, p in zip(expected.indices.tolist(), expected.weights.tolist()):
            if 100_000 * p < 5:
                continue
            observed = observed_counts[index].item()
            chi2 += (observed - 100_000 * p) ** 2 / (100_000 * p)
            dof += 1
        # Generous bound: far beyond any plausible quantile for <= 16 bins.
        assert chi2 < 60.0
        assert dof >= 8


@pytest.fixture()
def triangle_qubo(triangle):
    cable = triangle.cables[0]
    return build_cable_qubo(triangle, cable, default_penalties(triangle, cable))


def weights_of(pairs):
    """The ``BasisWeights`` of a bitstring -> weight dict, its keys of one length."""
    items = sorted((int(key[::-1], 2), weight) for key, weight in pairs.items())
    (m,) = {len(key) for key in pairs}
    return BasisWeights(np.array([i for i, _ in items]), np.array([w for _, w in items]), m)


class TestEstimateEnergy:
    def test_point_mass(self, triangle_qubo):
        e_exp, (best, best_energy) = estimate_energy(weights_of({"1101": 1.0}), triangle_qubo)
        assert e_exp == best_energy == 2.0
        assert best == "1101"

    def test_uniform_matches_enumeration_mean(self, triangle, triangle_qubo):
        pens = triangle_qubo.penalties
        keys = ["".join(bits) for bits in itertools.product("01", repeat=4)]
        uniform = {key: 1.0 / 16.0 for key in keys}
        e_exp, (best, _) = estimate_energy(weights_of(uniform), triangle_qubo)
        mean = sum(reference_energy(triangle, triangle.cables[0], pens, z) for z in keys) / 16.0
        assert e_exp == pytest.approx(mean, abs=1e-9)
        assert best == "1101"

    def test_counts_weighting(self, triangle_qubo):
        counts = SampleCounts(counts=weights_of({"0000": 3, "1101": 1}), shots=4)
        e_exp, (best, best_energy) = estimate_energy(counts, triangle_qubo)
        assert e_exp == pytest.approx((3 * 10.0 + 2.0) / 4.0)
        assert (best, best_energy) == ("1101", 2.0)

    def test_tie_breaks_lexicographically(self):
        q = zero_qubo(3)
        e_exp, (best, best_energy) = estimate_energy(weights_of({"100": 0.5, "010": 0.5}), q)
        assert best == "010"
        assert e_exp == best_energy == 0.0

    def test_tie_breaks_lexicographically_not_by_index(self):
        # Index 1 is "100" and index 2 is "010": index order and
        # lexicographic order disagree, and the bitstring order wins.
        weights = BasisWeights(np.array([1, 2]), np.array([0.5, 0.5]), 3)
        e_exp, (best, best_energy) = estimate_energy(weights, zero_qubo(3))
        assert best == "010"
        assert e_exp == best_energy == 0.0

    @pytest.mark.parametrize(
        "weights", [{"1101": 1.0}, SampleCounts(counts={"1101": 1}, shots=1)], ids=["dict", "counts-over-dict"]
    )
    def test_other_weight_types_rejected_naming_the_type(self, triangle_qubo, weights):
        with pytest.raises(ValueError, match="got dict"):
            estimate_energy(weights, triangle_qubo)

    def test_zero_weight_key_never_best(self, triangle_qubo):
        # All-zero angles put no weight on "1101", the block's minimum, so
        # the distribution omits it.
        dist = exact_distribution(prepare_state(AnsatzSpec(4, 0), np.zeros(4)))
        e_exp, (best, best_energy) = estimate_energy(dist, triangle_qubo)
        assert (best, best_energy) == ("0000", 10.0)
        assert e_exp == 10.0

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), -0.5])
    def test_non_finite_or_negative_weight_named(self, triangle_qubo, bad):
        with pytest.raises(ValueError, match="'0000'"):
            estimate_energy(weights_of({"1101": 1.0, "0000": bad}), triangle_qubo)

    def test_all_zero_weights_rejected(self, triangle_qubo):
        with pytest.raises(ValueError, match="'0000' must be finite and positive"):
            estimate_energy(weights_of({"1101": 0.0, "0000": 0.0}), triangle_qubo)

    def test_dimension_mismatch(self, triangle_qubo):
        with pytest.raises(ValueError, match="dimension"):
            estimate_energy(weights_of({"11": 1.0}), triangle_qubo)
        with pytest.raises(ValueError, match="dimension"):
            estimate_energy(BasisWeights(np.array([1]), np.array([1.0]), 3), triangle_qubo)

    def test_empty_weights(self, triangle_qubo):
        with pytest.raises(ValueError, match="no weighted"):
            estimate_energy(BasisWeights(np.array([], dtype=np.int64), np.array([]), 4), triangle_qubo)

    def test_shot_estimate_close_to_exact(self, layout1):
        cable = layout1.cable("c1")
        q = build_cable_qubo(layout1, cable, default_penalties(layout1, cable))
        spec = AnsatzSpec(q.dim, 1)
        rng = np.random.default_rng(9)
        for trial in range(5):
            theta = rng.random(spec.parameter_count) * 2 * np.pi
            state = prepare_state(spec, theta)
            dist = exact_distribution(state)
            e_exact, _ = estimate_energy(dist, q)
            keys = [index_to_bitstring(i, q.dim) for i in dist.indices.tolist()]
            second_moment = sum(
                p * qubo_energy(q, z) ** 2 for z, p in zip(keys, dist.weights.tolist())
            )
            std_error = np.sqrt(max(second_moment - e_exact**2, 0.0) / 1000.0)
            counts = sample(state, 1000, np.random.default_rng(100 + trial))
            e_shots, _ = estimate_energy(counts, q)
            assert abs(e_shots - e_exact) <= 5.0 * std_error + 1e-12


def random_qubo(m, seed):
    """A symmetric half-integer block: many exact energy ties."""
    raw = np.random.default_rng(seed).integers(-4, 5, size=(m, m)) / 2.0
    return dataclasses.replace(zero_qubo(m), q=(raw + raw.T) / 2.0, offset=1.5)


def assert_same_as_parent_formula(weights, q):
    e_exp, (best, energy) = estimate_energy(weights, q)
    parent_e_exp, (parent_best, parent_energy) = parent_estimate_energy(weights, q)
    assert (repr(e_exp), best, repr(energy)) == (repr(parent_e_exp), parent_best, repr(parent_energy))


class TestEnergyTablePath:
    """Weights on every basis state read the block's table; the result is the
    pre-table formula's to the last bit, and weights missing a state bypass it."""

    @pytest.mark.parametrize("m", range(1, 13))
    def test_full_distribution_matches_parent_formula(self, m):
        q = random_qubo(m, m)
        theta = np.random.default_rng(100 + m).uniform(-2 * np.pi, 2 * np.pi, 2 * m)
        dist = exact_distribution(prepare_state(AnsatzSpec(m, 1), theta))
        assert len(dist) == 1 << m
        assert_same_as_parent_formula(dist, q)
        assert "energy_table" in vars(q)

    def test_bundled_blocks_match_parent_formula(self, layout1, layout2):
        rng = np.random.default_rng(5)
        for instance in (layout1, layout2):
            for cable in instance.cables:
                q = build_cable_qubo(instance, cable, default_penalties(instance, cable))
                theta = rng.uniform(-2 * np.pi, 2 * np.pi, 2 * q.dim)
                assert_same_as_parent_formula(exact_distribution(prepare_state(AnsatzSpec(q.dim, 1), theta)), q)

    def test_counts_covering_every_state_match_parent_formula(self):
        q = random_qubo(3, 3)
        state = prepare_state(AnsatzSpec(3, 1), np.full(6, 1.0))
        counts = sample(state, 10_000, np.random.default_rng(0))
        assert len(counts.counts) == 8
        assert_same_as_parent_formula(counts.counts, q)

    @pytest.mark.parametrize("reps, theta", [(1, np.zeros(16)), (0, np.array([0.0, 1.0] * 4))])
    def test_subset_distribution_bypasses_the_table(self, reps, theta):
        # All-zero angles give exactly-zero amplitudes, so some basis states have no weight.
        q = random_qubo(8, 8)
        dist = exact_distribution(prepare_state(AnsatzSpec(8, reps), theta))
        assert len(dist) < 1 << 8
        assert_same_as_parent_formula(dist, q)
        assert "energy_table" not in vars(q)

    def test_full_index_weights_out_of_order_are_rejected(self):
        dist = exact_distribution(prepare_state(AnsatzSpec(5, 1), np.linspace(0.2, 2.7, 10)))
        order = np.random.default_rng(1).permutation(32)
        with pytest.raises(ValueError, match="strictly ascending"):
            quantum.BasisWeights(dist.indices[order], dist.weights[order], 5)
        with pytest.raises(ValueError, match="strictly ascending"):
            quantum.BasisWeights(np.sort(np.r_[0, dist.indices[:-1]]), dist.weights, 5)

    @pytest.mark.parametrize("kappa", [0.25, 1.0, 4.0])
    @pytest.mark.parametrize("chords", [RING_18_CHORDS + [(0, 4)], RING_18_CHORDS + [(0, 4), (3, 6)]], ids=["19q", "20q"])
    def test_sampled_weights_of_large_blocks_match_parent_formula(self, chords, kappa):
        # From 19 variables the few-row bits @ Q of a sample takes another
        # OpenBLAS path than the 2^12-row chunks of the table, and some rows
        # differ from the table in the last bit.  Samples of few shots keep
        # the weighted sum small enough for such a bit to reach e_exp.
        ring = chorded_ring(chords)
        q = baseline_qubo(ring, ring.cables[0], kappa)
        assert q.dim == 14 + len(chords)
        theta = np.random.default_rng(q.dim).uniform(-2 * np.pi, 2 * np.pi, 2 * q.dim)
        state = prepare_state(AnsatzSpec(q.dim, 1), theta)
        rng = np.random.default_rng(3)
        for _ in range(8):
            assert_same_as_parent_formula(sample(state, 20, rng).counts, q)
