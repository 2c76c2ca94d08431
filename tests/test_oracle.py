import json
import time
from dataclasses import replace

import numpy as np
import pytest

from qcroute import (
    CableQubo,
    PenaltyWeights,
    VariableMap,
    brute_force_min,
    bundled_layouts,
    build_cable_qubo,
    check_feasibility,
    default_penalties,
    parse_instance,
    qubo_energy,
    scale_penalties,
    shortest_path_opt,
)
from qcroute import oracle
from qcroute.oracle import route_bitstring
from qcroute.qubo import BLOCK_DIM_CAP as BRUTE_FORCE_DIM_CAP
from reference import min_simple_path_cost, parent_brute_force_min, reference_minimum

# Classical optima of the bundled layouts, frozen from DFS path enumeration
# (cross-checked below against both oracles).
LAYOUT1_OPTIMA = {"c1": 3.0, "c2": 2.5, "c3": 4.0, "c4": 2.5}
LAYOUT2_OPTIMA = {"k1": 2.5, "k2": 1.0, "k3": 6.0, "k4": 4.0}


def baseline_qubo(instance, cable, kappa=1.0):
    return build_cable_qubo(
        instance, cable, scale_penalties(default_penalties(instance, cable), kappa)
    )


RING_18_CHORDS = [(0, 3), (1, 5), (2, 6), (4, 7)]


def chorded_ring(chords, nodes=8):
    """``nodes`` (at least 6) on a ring plus ``chords``, one cable from v0 to v5.

    Its block has nodes + len(chords) segment variables and nodes - 2
    internal-node variables.
    """
    pairs = [(i, (i + 1) % nodes) for i in range(nodes)] + list(chords)
    doc = {
        "name": f"ring-{len(pairs) + nodes - 2}",
        "nodes": [{"id": f"v{i}"} for i in range(nodes)],
        "segments": [
            {"id": f"e{k}", "u": f"v{a}", "v": f"v{b}", "length": 1.0 + 0.3 * (k % 5)}
            for k, (a, b) in enumerate(pairs)
        ],
        "cables": [{"id": "c1", "source": "v0", "terminal": "v5", "alpha": 1.5}],
    }
    return parse_instance(json.dumps(doc))


def zero_qubo(dim):
    return CableQubo(
        dim=dim,
        q=np.zeros((dim, dim)),
        offset=0.0,
        vmap=VariableMap(tuple(f"v{i}" for i in range(dim)), ()),
        penalties=PenaltyWeights(0, 0, 0, 0, 0, 0, 0),
        cable_id="z",
    )


class TestCheckFeasibility:
    def test_two_hop_route(self, triangle):
        report = check_feasibility(triangle, triangle.cables[0], "1101")
        assert report.feasible_model and report.feasible_path
        assert report.decoded_route == ("A", "B", "C")
        assert report.violations == ()

    def test_direct_route(self, triangle):
        report = check_feasibility(triangle, triangle.cables[0], "0010")
        assert report.feasible_path
        assert report.decoded_route == ("A", "C")

    def test_three_violations(self, triangle):
        report = check_feasibility(triangle, triangle.cables[0], "1000")
        assert not report.feasible_model and not report.feasible_path
        tagged = {(v.constraint, v.location): v.value for v in report.violations}
        assert tagged[("terminal", "C")] == 0.0
        assert tagged[("flow", "B")] == 1.0
        assert tagged[("selection", "AB@B")] == 1.0
        assert len(report.violations) == 3

    def test_model_feasible_with_disjoint_cycle(self, layout2):
        # Direct path t2 for m2->m3 plus the cycle m5-m6-m7-m8 (t5,t6,t7,t10)
        # over internal nodes only: every degree constraint holds but the
        # chosen segments are not a single path.
        cable = layout2.cable("k2")
        x = {"t2": 1, "t5": 1, "t6": 1, "t7": 1, "t10": 1}
        bits = "".join(str(x.get(s.id, 0)) for s in layout2.segments)
        b = {"m5": 1, "m6": 1, "m7": 1, "m8": 1}
        bits += "".join(str(b.get(k, 0)) for k in layout2.internal_nodes(cable))
        report = check_feasibility(layout2, cable, bits)
        assert report.feasible_model
        assert not report.feasible_path
        assert report.decoded_route is None

    def test_length_mismatch(self, triangle):
        with pytest.raises(ValueError, match="length"):
            check_feasibility(triangle, triangle.cables[0], "11")

    def test_path_implies_model(self, layout1):
        rng = np.random.default_rng(3)
        cable = layout1.cables[0]
        dim = layout1.block_dim(cable)
        for _ in range(300):
            z = "".join(rng.choice(["0", "1"], size=dim))
            report = check_feasibility(layout1, cable, z)
            assert not (report.feasible_path and not report.feasible_model)
            assert report.feasible_model == (not report.violations)


class TestBruteForce:
    def test_triangle_minimum(self, triangle):
        q = baseline_qubo(triangle, triangle.cables[0])
        solution = brute_force_min(q, triangle)
        assert solution.bitstring == "1101"
        assert solution.energy == 2.0
        assert solution.objective == 2.0
        assert solution.route == ("A", "B", "C")

    def test_matches_literal_enumeration(self, triangle):
        pens = default_penalties(triangle, triangle.cables[0])
        q = build_cable_qubo(triangle, triangle.cables[0], pens)
        ref_z, ref_e = reference_minimum(triangle, triangle.cables[0], pens)
        solution = brute_force_min(q)
        assert solution.bitstring == ref_z
        assert solution.energy == pytest.approx(ref_e, abs=1e-9)
        assert solution.objective is None  # no instance given

    def test_zero_matrix_lexicographic_tie_break(self):
        solution = brute_force_min(zero_qubo(5))
        assert solution.bitstring == "00000"
        assert solution.energy == 0.0

    def test_zero_block_ties_across_chunks_resolve_to_all_zeros(self):
        # 14 variables: four 2^12-row chunks, every state tied at 0.
        solution = brute_force_min(zero_qubo(14))
        assert (solution.bitstring, solution.energy) == ("0" * 14, 0.0)

    def test_tie_in_a_later_chunk_keeps_the_earlier_minimizer(self):
        # Variables 0 and 1 are the top counter bits of a 14-variable block,
        # so the two minimizers 01... and 10... (energy -1 each, both bits set
        # gives 0) lie in the second and third 2^12-row chunks.
        matrix = np.zeros((14, 14))
        matrix[0, 0] = matrix[1, 1] = -1.0
        matrix[0, 1] = matrix[1, 0] = 1.0
        q = replace(zero_qubo(14), q=matrix)
        assert qubo_energy(q, "10" + "0" * 12) == -1.0
        solution = brute_force_min(q)
        assert (solution.bitstring, solution.energy) == ("01" + "0" * 12, -1.0)

    def test_dim_cap(self):
        with pytest.raises(ValueError, match="cap"):
            brute_force_min(zero_qubo(BRUTE_FORCE_DIM_CAP + 1))

    def test_equals_parent_shift_matrix_enumeration(self, layout2):
        # 12 segments + 6 internal nodes: the 18-variable block runs 64
        # 2^12-row chunks.
        ring = chorded_ring(RING_18_CHORDS)
        blocks = [baseline_qubo(ring, ring.cables[0]), zero_qubo(17)]
        blocks += [baseline_qubo(layout2, cable, kappa) for cable in layout2.cables for kappa in (0.25, 1.0)]
        assert blocks[0].dim == 18
        for q in blocks:
            solution = brute_force_min(q)
            parent_bits, parent_energy = parent_brute_force_min(q)
            assert (solution.bitstring, repr(solution.energy)) == (parent_bits, repr(parent_energy)), q.cable_id

    def test_sixteen_variable_block_under_ten_seconds(self, layout2):
        q = baseline_qubo(layout2, layout2.cable("k1"))
        start = time.perf_counter()
        solution = brute_force_min(q, layout2)
        assert time.perf_counter() - start < 10.0
        assert solution.energy == pytest.approx(2.5, abs=1e-9)


# (nodes, chords) of chorded_ring blocks of 13 to 20 variables.
SCREENED_RINGS = [(7, [(0, 3)])] + [(8, RING_18_CHORDS[:k]) for k in range(5)]
SCREENED_RINGS += [(8, RING_18_CHORDS + [(0, 4)]), (8, RING_18_CHORDS + [(0, 4), (3, 6)])]


def assert_equals_parent(q):
    solution = brute_force_min(q)
    parent_bits, parent_energy = parent_brute_force_min(q)
    assert (solution.bitstring, repr(solution.energy)) == (parent_bits, repr(parent_energy)), (q.cable_id, q.dim)


class TestScreenedBruteForce:
    """Blocks over 12 variables form only the chunks the screen keeps; the
    answer must stay the full scan's bitstring and float."""

    @pytest.mark.parametrize("kappa", [0.25, 0.5, 1.0, 2.0, 4.0])
    def test_bundled_layouts_equal_the_parent(self, kappa):
        for instance in bundled_layouts():
            for cable in instance.cables:
                assert_equals_parent(baseline_qubo(instance, cable, kappa))

    @pytest.mark.parametrize("kappa", [0.25, 1.0, 4.0, 1e6, 1e100])
    @pytest.mark.parametrize(
        "nodes, chords", SCREENED_RINGS, ids=[f"{13 + i}q" for i in range(len(SCREENED_RINGS))]
    )
    def test_chorded_rings_equal_the_parent(self, nodes, chords, kappa):
        ring = chorded_ring(chords, nodes)
        q = baseline_qubo(ring, ring.cables[0], kappa)
        assert q.dim == 2 * nodes - 2 + len(chords)
        assert_equals_parent(q)

    @pytest.mark.parametrize("dim", [13, 16])
    def test_zero_block_keeps_every_chunk(self, dim):
        q = zero_qubo(dim)
        assert oracle._kept_chunk_starts(q) == list(range(0, 1 << dim, 1 << 12))
        assert_equals_parent(q)

    @pytest.mark.parametrize("triangle", [np.tril, np.triu])
    def test_non_symmetric_block_equals_the_parent(self, triangle):
        # Every prefix-suffix coupling sits on one side of the diagonal, so
        # a screen built on 2 * Q_ps or 2 * Q_sp^T would drop it.
        rng = np.random.default_rng(2)
        matrix = triangle(rng.uniform(-2.0, 1.0, size=(17, 17)))
        q = replace(zero_qubo(17), q=matrix, offset=0.5)
        assert not np.array_equal(matrix, matrix.T)
        assert_equals_parent(q)

    def test_overflowing_energies_fall_back_to_every_chunk(self):
        # Finite entries near 1e307 whose energies overflow to inf and NaN.
        rng = np.random.default_rng(5)
        q = replace(zero_qubo(14), q=rng.choice([-1.0, 1.0], size=(14, 14)) * 1e307)
        assert np.isfinite(q.q).all()
        with np.errstate(over="ignore", invalid="ignore"):
            assert oracle._kept_chunk_starts(q) is None
            assert_equals_parent(q)

    def test_twenty_variable_ring_forms_at_most_two_chunks(self, monkeypatch):
        # The 20-variable block of test_qubo's TestChunkEnergies: 256 chunks.
        ring = chorded_ring(RING_18_CHORDS + [(0, 4), (3, 6)])
        q = baseline_qubo(ring, ring.cables[0])
        formed = []
        chunk_energies = oracle._chunk_energies

        def counting(*args, **kwargs):
            for start, energies in chunk_energies(*args, **kwargs):
                formed.append(start)
                yield start, energies

        monkeypatch.setattr(oracle, "_chunk_energies", counting)
        brute_force_min(q)
        assert 1 <= len(formed) <= 2
        assert formed == sorted(formed)


class TestShortestPath:
    def test_triangle(self, triangle):
        solution = shortest_path_opt(triangle, triangle.cables[0])
        assert solution.route == ("A", "B", "C")
        assert solution.objective == 2.0
        assert solution.bitstring == "1101"

    def test_single_edge(self, single_edge):
        solution = shortest_path_opt(single_edge, single_edge.cables[0])
        assert solution.route == ("A", "B")
        assert solution.objective == pytest.approx(3.0)
        assert solution.bitstring == "1"

    def test_frozen_layout_optima_match_dfs(self, layout1, layout2):
        for instance, frozen in ((layout1, LAYOUT1_OPTIMA), (layout2, LAYOUT2_OPTIMA)):
            for cable in instance.cables:
                solution = shortest_path_opt(instance, cable)
                assert solution.objective == pytest.approx(frozen[cable.id], abs=1e-12)
                assert solution.objective == pytest.approx(
                    min_simple_path_cost(instance, cable), abs=1e-12
                )

    def test_bitstrings_are_path_feasible(self, layout1, layout2):
        for instance in (layout1, layout2):
            for cable in instance.cables:
                solution = shortest_path_opt(instance, cable)
                report = check_feasibility(instance, cable, solution.bitstring)
                assert report.feasible_path
                assert report.violations == ()
                assert report.decoded_route == solution.route

    def test_energy_equals_objective_under_any_scaling(self, layout1):
        cable = layout1.cable("c2")
        solution = shortest_path_opt(layout1, cable)
        for kappa in (0.25, 1.0, 4.0):
            q = baseline_qubo(layout1, cable, kappa)
            assert qubo_energy(q, solution.bitstring) == pytest.approx(
                solution.objective, abs=1e-9
            )


class TestOracleAgreement:
    def test_brute_force_matches_shortest_path_at_baseline(self, layout1, layout2):
        for instance in (layout1, layout2):
            for cable in instance.cables:
                q = baseline_qubo(instance, cable)
                bf = brute_force_min(q, instance)
                sp = shortest_path_opt(instance, cable)
                assert abs(bf.energy - sp.objective) <= 1e-9
                assert check_feasibility(instance, cable, bf.bitstring).feasible_path

    def test_minimizer_set_invariant_for_kappa_at_least_one(self, layout1, layout2):
        for instance in (layout1, layout2):
            for cable in instance.cables:
                argmin_sets = []
                for kappa in (1.0, 2.0, 4.0):
                    q = baseline_qubo(instance, cable, kappa)
                    shifts = np.arange(q.dim - 1, -1, -1)
                    bits = ((np.arange(1 << q.dim)[:, None] >> shifts) & 1).astype(float)
                    energies = ((bits @ q.q) * bits).sum(axis=1) + q.offset
                    argmin_sets.append(set(np.nonzero(energies <= energies.min() + 1e-12)[0]))
                assert argmin_sets[0] == argmin_sets[1] == argmin_sets[2]


class TestRouteBitstring:
    def test_round_trip_through_decoder(self, layout2):
        cable = layout2.cable("k4")
        bits = route_bitstring(layout2, cable, ("m3", "m4", "m5", "m6", "m7"))
        report = check_feasibility(layout2, cable, bits)
        assert report.feasible_path
        assert report.decoded_route == ("m3", "m4", "m5", "m6", "m7")

    def test_rejects_non_adjacent_step(self, triangle):
        with pytest.raises(ValueError, match="not a segment"):
            route_bitstring(triangle, triangle.cables[0], ("A", "A"))
