import json
import tracemalloc
import warnings
from types import SimpleNamespace

import numpy as np
import pytest

from qcroute import (
    CableQubo,
    PenaltyWeights,
    VariableMap,
    assemble_global,
    build_cable_qubo,
    default_penalties,
    ising_energy,
    parse_instance,
    qubo_energy,
    scale_penalties,
    to_ising,
)
from qcroute import brute_force_min, qubo
from qcroute.qubo import _basis_bits, block_energies, ising_document, qubo_document, spins_from_bits, variable_map
from conftest import TRIANGLE_DOC
from reference import parent_brute_force_min, parent_energy_table, reference_energy
from test_oracle import RING_18_CHORDS, baseline_qubo, chorded_ring, zero_qubo


def make_qubo(instance, cable_id, kappa=1.0):
    cable = instance.cable(cable_id)
    pens = scale_penalties(default_penalties(instance, cable), kappa)
    return build_cable_qubo(instance, cable, pens)


def random_bitstrings(rng, dim, count):
    return ["".join(rng.choice(["0", "1"], size=dim)) for _ in range(count)]


class TestDefaultPenalties:
    def test_triangle_values(self, triangle):
        pens = default_penalties(triangle, triangle.cables[0])
        assert (pens.w1, pens.w2, pens.w3) == (4.0, 4.0, 2.0)
        assert pens.as_vector() == (5.0, 5.0, 3.0, 1.0)
        assert pens.kappa == 1.0

    def test_zero_cost_cable(self):
        doc = json.loads(TRIANGLE_DOC)
        doc["cables"][0]["alpha"] = 0.0
        instance = parse_instance(json.dumps(doc))
        pens = default_penalties(instance, instance.cables[0])
        assert pens.as_vector() == (1.0, 1.0, 1.0, 1.0)

    def test_layout1_first_cable_frozen(self, layout1):
        pens = default_penalties(layout1, layout1.cable("c1"))
        assert (pens.w1, pens.w2, pens.w3) == (3.0, 2.0, 3.5)
        assert pens.as_vector() == (4.0, 3.0, 4.5, 1.0)

    def test_matches_independent_incidence_sums(self):
        from qcroute import bundled_layouts

        for instance in bundled_layouts():
            for cable in instance.cables:
                pens = default_penalties(instance, cable)

                def cost_sum(node_id):
                    return sum(
                        cable.costs[s.id]
                        for s in instance.segments
                        if node_id in (s.u, s.v)
                    )

                assert pens.w1 == cost_sum(cable.source)
                assert pens.w2 == cost_sum(cable.terminal)
                assert pens.w3 == max(cost_sum(k) for k in instance.internal_nodes(cable))
                assert pens.eta1 >= 1 + pens.w1
                assert pens.eta2 >= 1 + pens.w2
                assert pens.eta3 >= 1 + pens.w3
                assert pens.eta4 >= 1

    def test_negative_weight_rejected(self):
        with pytest.raises(ValueError, match="nonnegative"):
            PenaltyWeights(eta1=-1, eta2=0, eta3=0, eta4=0, w1=0, w2=0, w3=0)

    @pytest.mark.parametrize("field", ["eta3", "w2"])
    @pytest.mark.parametrize("value", [float("nan"), float("inf")])
    def test_non_finite_weight_rejected(self, field, value):
        weights = dict(eta1=1, eta2=1, eta3=1, eta4=1, w1=0, w2=0, w3=0, kappa=2.0)
        with pytest.raises(ValueError, match=f"{field} must be nonnegative and finite at kappa 2.0"):
            PenaltyWeights(**{**weights, field: value})


class TestScalePenalties:
    def test_doubling(self):
        pens = PenaltyWeights(5, 5, 3, 1, w1=4, w2=4, w3=2)
        scaled = scale_penalties(pens, 2.0)
        assert scaled.as_vector() == (10.0, 10.0, 6.0, 2.0)
        assert (scaled.w1, scaled.w2, scaled.w3) == (4, 4, 2)
        assert scaled.kappa == 2.0

    def test_identity(self):
        pens = PenaltyWeights(5, 5, 3, 1, w1=4, w2=4, w3=2)
        assert scale_penalties(pens, 1.0) == pens

    def test_quarter_scale_below_bounds_is_allowed(self):
        pens = scale_penalties(PenaltyWeights(5, 5, 3, 1, w1=4, w2=4, w3=2), 0.25)
        assert pens.as_vector() == (1.25, 1.25, 0.75, 0.25)
        assert pens.eta1 < 1 + pens.w1

    def test_kappa_accumulates(self):
        pens = PenaltyWeights(4, 4, 4, 1, w1=3, w2=3, w3=3)
        assert scale_penalties(scale_penalties(pens, 2.0), 2.0).kappa == 4.0

    @pytest.mark.parametrize("kappa", [0.0, -1.0, float("nan"), float("inf")])
    def test_nonpositive_kappa_rejected(self, kappa):
        pens = PenaltyWeights(5, 5, 3, 1, w1=4, w2=4, w3=2)
        with pytest.raises(ValueError, match="positive"):
            scale_penalties(pens, kappa)


class TestBuildCableQubo:
    def test_triangle_block_shape(self, triangle):
        q = make_qubo(triangle, "c1")
        assert q.dim == 4
        assert q.offset == 10.0
        assert q.vmap == VariableMap(segment_vars=("AB", "BC", "AC"), node_vars=("B",))

    def test_q_is_read_only(self, triangle):
        # Blocks are shared by every solve of their (instance, kappa) row.
        q = make_qubo(triangle, "c1")
        assert not q.q.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            q.q[0, 0] = 1.0

    def test_overflowing_coefficient_rejected_without_a_warning(self, triangle):
        # The etas (5, 5, 3, 1) * 1.6e307 and the offset 10 * 1.6e307 are
        # finite; the node diagonal 12 * 1.6e307 is not.
        pens = scale_penalties(default_penalties(triangle, triangle.cables[0]), 1.6e307)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match=r"cable 'c1' at kappa 1.6e\+307 has a non-finite coefficient"):
                build_cable_qubo(triangle, triangle.cables[0], pens)

    def test_triangle_frozen_energies(self, triangle):
        # Derived by literal evaluation of objective + penalty expressions.
        q = make_qubo(triangle, "c1")
        assert qubo_energy(q, "1101") == 2.0
        assert qubo_energy(q, "0010") == 3.0
        assert qubo_energy(q, "0000") == 10.0

    def test_all_zeros_energy_is_offset(self):
        from qcroute import bundled_layouts

        for instance in bundled_layouts():
            for cable in instance.cables:
                q = make_qubo(instance, cable.id)
                assert qubo_energy(q, "0" * q.dim) == q.offset == q.penalties.eta1 + q.penalties.eta2

    def test_single_selection_violation_costs_eta4(self, triangle):
        # x_AB active while b_B is off, vs the repaired assignment with b_B on.
        q = make_qubo(triangle, "c1")
        violated = qubo_energy(q, "1000")
        repaired = qubo_energy(q, "1001")
        assert violated == 10.0
        assert repaired == 9.0
        assert violated - repaired == q.penalties.eta4

    def test_symmetric_exactly(self):
        from qcroute import bundled_layouts

        for instance in bundled_layouts():
            for cable in instance.cables:
                for kappa in (0.25, 1.0, 4.0):
                    q = make_qubo(instance, cable.id, kappa)
                    assert np.max(np.abs(q.q - q.q.T)) <= 1e-12

    def test_energy_identity_against_literal_expressions(self):
        from qcroute import bundled_layouts

        rng = np.random.default_rng(42)
        for instance in bundled_layouts():
            for cable in instance.cables:
                pens = default_penalties(instance, cable)
                q = build_cable_qubo(instance, cable, pens)
                for z in random_bitstrings(rng, q.dim, 200):
                    assert qubo_energy(q, z) == pytest.approx(
                        reference_energy(instance, cable, pens, z), abs=1e-9
                    )

    def test_degenerate_block_without_internal_nodes(self, single_edge):
        q = make_qubo(single_edge, "c1")
        assert q.dim == 1
        assert qubo_energy(q, "1") == pytest.approx(3.0)  # cost 1.5 * length 2.0

    def test_penalty_dominance_under_single_bit_flips(self):
        # Flipping any one bit of a minimal feasible bitstring either keeps
        # feasibility at higher cost or raises the energy by at least 1, the
        # margin built into the baseline weights.
        from qcroute import brute_force_min, bundled_layouts, check_feasibility

        for instance in bundled_layouts():
            for cable in instance.cables:
                q = make_qubo(instance, cable.id)
                base = brute_force_min(q, instance)
                for i in range(q.dim):
                    flip = "1" if base.bitstring[i] == "0" else "0"
                    mutated = base.bitstring[:i] + flip + base.bitstring[i + 1 :]
                    rise = qubo_energy(q, mutated) - base.energy
                    if check_feasibility(instance, cable, mutated).feasible_model:
                        assert rise > 0
                    else:
                        assert rise >= 1.0 - 1e-9


class TestQuboEnergy:
    def test_length_mismatch(self, triangle):
        q = make_qubo(triangle, "c1")
        with pytest.raises(ValueError, match="length"):
            qubo_energy(q, "110")

    def test_bad_characters(self, triangle):
        q = make_qubo(triangle, "c1")
        with pytest.raises(ValueError, match="0/1"):
            qubo_energy(q, "11x1")

    @pytest.mark.parametrize(
        "z, name", [([1, 1, 0, 1], "list"), (np.array([1.0, 1.0, 0.0, 1.0]), "ndarray")], ids=["list", "ndarray"]
    )
    def test_rejects_non_string_bits(self, triangle, z, name):
        q = make_qubo(triangle, "c1")
        with pytest.raises(ValueError, match=f"got {name}"):
            qubo_energy(q, z)
        with pytest.raises(ValueError, match=f"got {name}"):
            spins_from_bits(z, 4)


def shifted_bits(m, shifts):
    """Bit matrix by the shift formula: column i holds bit ``shifts[i]`` of the row."""
    return ((np.arange(1 << m)[:, None] >> np.asarray(shifts)) & 1).astype(np.float64)


class TestBasisBits:
    @pytest.mark.parametrize("m", range(1, 17))
    def test_equals_the_shift_formula_in_both_column_orders(self, m):
        assert np.array_equal(_basis_bits(range(m), m), shifted_bits(m, range(m)))
        assert np.array_equal(_basis_bits(range(m - 1, -1, -1), m), shifted_bits(m, range(m - 1, -1, -1)))

    def test_unlisted_columns_stay_zero(self):
        # The brute-force template: 3 counter bits in the last columns of 5.
        expected = np.zeros((8, 5))
        expected[:, 2:] = shifted_bits(3, [2, 1, 0])
        assert np.array_equal(_basis_bits([4, 3, 2], 5), expected)


def traced_peak(fn):
    """The tracemalloc peak, in bytes, of one call of ``fn``."""
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


class TestChunkEnergies:
    @pytest.mark.parametrize("kappa", [0.25, 1.0, 4.0])
    @pytest.mark.parametrize(
        "nodes, chords",
        [(7, []), (7, [(0, 3)]), (8, []), (8, RING_18_CHORDS[:1]), (8, RING_18_CHORDS[:2])],
        ids=["12q", "13q", "14q", "15q", "16q"],
    )
    def test_small_blocks_equal_the_parent_kernels(self, nodes, chords, kappa):
        # 12 to 16 variables: 1 to 16 chunks of 2^12 rows, whose M*N*K (at
        # most 2^12 * 16 * 16) is near the size below which OpenBLAS takes
        # its small-matrix path; the references form one product of all rows.
        ring = chorded_ring(chords, nodes)
        q = baseline_qubo(ring, ring.cables[0], kappa)
        assert q.dim == 2 * nodes - 2 + len(chords)
        assert q.energy_table.tobytes() == parent_energy_table(q).tobytes()
        solution = brute_force_min(q)
        parent_bits, parent_energy = parent_brute_force_min(q)
        assert (solution.bitstring, repr(solution.energy)) == (parent_bits, repr(parent_energy))

    def twenty_variable_block(self):
        ring = chorded_ring(RING_18_CHORDS + [(0, 4), (3, 6)])
        q = baseline_qubo(ring, ring.cables[0])
        assert q.dim == 20
        return q

    def test_twenty_variable_brute_force_peak_is_the_reused_buffers(self):
        q = self.twenty_variable_block()
        assert traced_peak(lambda: brute_force_min(q)) < 2 << 20

    def test_twenty_variable_table_peak_is_the_table_plus_reused_buffers(self):
        q = self.twenty_variable_block()
        table = 8 << 20
        assert traced_peak(lambda: q.energy_table) < table + (2 << 20)


class TestEnergyTable:
    @pytest.mark.parametrize("kappa", [0.25, 1.0, 4.0])
    def test_bytes_equal_energies_of_the_shifted_bit_matrix(self, layout1, layout2, kappa):
        for instance in (layout1, layout2):
            for cable in instance.cables:
                q = make_qubo(instance, cable.id, kappa)
                expected = block_energies(q, shifted_bits(q.dim, range(q.dim)))
                assert q.energy_table.tobytes() == expected.tobytes()

    @pytest.mark.parametrize("chords", [RING_18_CHORDS[:3], RING_18_CHORDS, RING_18_CHORDS + [(0, 4), (3, 6)]])
    def test_chunked_table_bytes_equal_one_product(self, chords):
        # 17, 18 and 20 variables: 32 to 256 2^12-row chunks.
        ring = chorded_ring(chords)
        q = baseline_qubo(ring, ring.cables[0])
        assert q.dim == 14 + len(chords)
        assert q.energy_table.tobytes() == parent_energy_table(q).tobytes()

    def test_over_the_cap_raises_before_allocating(self, monkeypatch):
        def forbidden(*args, **kwargs):
            raise AssertionError("table allocated")

        monkeypatch.setattr(qubo, "np", SimpleNamespace(empty=forbidden))
        with pytest.raises(ValueError, match=f"^block dimension {qubo.BLOCK_DIM_CAP + 1} exceeds the cap of {qubo.BLOCK_DIM_CAP} variables$"):
            zero_qubo(qubo.BLOCK_DIM_CAP + 1).energy_table

    def test_built_once_and_read_only(self, triangle):
        q = make_qubo(triangle, "c1")
        table = q.energy_table
        assert q.energy_table is table
        assert not table.flags.writeable
        for index in range(1 << q.dim):
            z = "".join("1" if (index >> i) & 1 else "0" for i in range(q.dim))
            assert table[index] == reference_energy(triangle, triangle.cables[0], q.penalties, z)


class TestAssembleGlobal:
    def test_layout1_dimensions(self, layout1):
        blocks = [make_qubo(layout1, c.id) for c in layout1.cables]
        g = assemble_global(blocks)
        assert g.dim == 44
        assert g.offset == sum(b.offset for b in blocks)

    def test_single_block_identity(self, triangle):
        q = make_qubo(triangle, "c1")
        g = assemble_global([q])
        assert g.dim == q.dim
        assert np.array_equal(g.q, q.q)
        assert g.energy("1101") == qubo_energy(q, "1101")

    def test_energy_adds_over_blocks(self, layout1):
        blocks = [make_qubo(layout1, c.id) for c in layout1.cables]
        g = assemble_global(blocks)
        rng = np.random.default_rng(7)
        for z in random_bitstrings(rng, g.dim, 100):
            parts = g.split(z)
            block_sum = sum(qubo_energy(b, part) for b, part in zip(blocks, parts))
            assert g.energy(z) == block_sum
            vec = np.array([int(ch) for ch in z], dtype=float)
            dense = float(vec @ g.q @ vec + g.offset)
            assert dense == pytest.approx(block_sum, abs=1e-9)

    def test_off_diagonal_blocks_are_zero(self, layout1):
        blocks = [make_qubo(layout1, c.id) for c in layout1.cables]
        g = assemble_global(blocks)
        pos = 0
        for block in blocks:
            mask = np.ones(g.dim, dtype=bool)
            mask[pos : pos + block.dim] = False
            assert not g.q[pos : pos + block.dim, :][:, mask].any()
            pos += block.dim

    def test_mixed_instance_blocks_rejected(self, layout1, layout2):
        a = make_qubo(layout1, "c1")
        b = make_qubo(layout2, "k1")
        with pytest.raises(ValueError, match="one instance"):
            assemble_global([a, b])

    def test_empty_rejected(self):
        with pytest.raises(ValueError, match="no blocks"):
            assemble_global([])


def one_variable_qubo(a):
    return CableQubo(
        dim=1,
        q=np.array([[float(a)]]),
        offset=0.0,
        vmap=VariableMap(("s",), ()),
        penalties=PenaltyWeights(0, 0, 0, 0, 0, 0, 0),
        cable_id="c",
    )


class TestIsing:
    def test_one_variable(self):
        model = to_ising(one_variable_qubo(3.0))
        assert ising_energy(model, [1.0]) == pytest.approx(0.0)  # z=0
        assert ising_energy(model, [-1.0]) == pytest.approx(3.0)  # z=1

    def test_zero_matrix(self):
        q = CableQubo(
            dim=2,
            q=np.zeros((2, 2)),
            offset=1.5,
            vmap=VariableMap(("a", "b"), ()),
            penalties=PenaltyWeights(0, 0, 0, 0, 0, 0, 0),
            cable_id="c",
        )
        model = to_ising(q)
        assert not model.h.any()
        assert not model.j.any()
        assert model.constant == 1.5

    def test_triangle_exhaustive_equivalence(self, triangle):
        q = make_qubo(triangle, "c1")
        model = to_ising(q)
        for u in range(16):
            z = format(u, "04b")
            spins = spins_from_bits(z, 4)
            assert ising_energy(model, spins) == pytest.approx(qubo_energy(q, z), abs=1e-9)

    def test_spin_convention(self):
        assert list(spins_from_bits("01", 2)) == [1.0, -1.0]

    def test_rejects_non_spin_values(self):
        model = to_ising(one_variable_qubo(1.0))
        with pytest.raises(ValueError, match="spins"):
            ising_energy(model, [0.5])


class TestExports:
    @staticmethod
    def rebuild_matrix(doc):
        q = np.zeros((doc["dim"], doc["dim"]))
        for term in doc["terms"]:
            i, j, value = term["i"], term["j"], term["value"]
            if i == j:
                q[i, i] = value
            else:
                q[i, j] = q[j, i] = value / 2.0
        return q

    def test_qubo_document_round_trips_energies(self, triangle):
        q = make_qubo(triangle, "c1")
        doc = json.loads(json.dumps(qubo_document(q)))
        assert doc["cable_id"] == "c1"
        assert doc["dim"] == 4
        assert doc["offset"] == 10.0
        assert doc["variables"] == ["x:AB", "x:BC", "x:AC", "b:B"]
        rebuilt = self.rebuild_matrix(doc)
        for u in range(16):
            z = format(u, "04b")
            vec = np.array([int(c) for c in z], dtype=float)
            assert vec @ rebuilt @ vec + doc["offset"] == pytest.approx(
                qubo_energy(q, z), abs=1e-9
            )

    def test_ising_document_round_trips_energies(self, triangle):
        q = make_qubo(triangle, "c1")
        doc = json.loads(json.dumps(ising_document(q)))
        h = np.array(doc["h"])
        for u in range(16):
            z = format(u, "04b")
            spins = spins_from_bits(z, 4)
            coupling = sum(t["value"] * spins[t["i"]] * spins[t["j"]] for t in doc["couplings"])
            energy = doc["constant"] + float(h @ spins) + coupling
            assert energy == pytest.approx(qubo_energy(q, z), abs=1e-9)


class TestVariableMap:
    def test_order_and_bijection(self, layout1):
        for cable in layout1.cables:
            vmap = variable_map(layout1, cable)
            assert vmap.segment_vars == tuple(s.id for s in layout1.segments)
            assert vmap.node_vars == tuple(sorted(vmap.node_vars))
            assert set(vmap.node_vars) == {n.id for n in layout1.nodes} - {cable.source, cable.terminal}
            assert vmap.dim == layout1.block_dim(cable)
            assert len(set(vmap.labels())) == vmap.dim
