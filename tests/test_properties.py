"""Property checks of the oracles and energy forms on random small layouts,
and of the results CSV round trip.

Each layout example is a 2-edge-connected layout (a ring through every node
plus random chords) whose cable block has at most 10 variables, so every
check can enumerate all assignments.  Examples are derandomized, so the
suite stays deterministic.
"""

import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qcroute import (
    RunRecord,
    brute_force_min,
    ising_energy,
    parse_instance,
    qubo_energy,
    records_from_csv,
    records_to_csv,
    render_instance,
    shortest_path_opt,
    to_ising,
)
from qcroute.qubo import spins_from_bits
from qcroute.vqe import cable_block
from reference import reference_energy

MAX_VARIABLES = 10

checks = settings(derandomize=True, max_examples=60, deadline=None, database=None)


@st.composite
def ring_layouts(draw):
    """A layout with one cable whose block has at most MAX_VARIABLES variables."""
    n = draw(st.integers(3, 6))
    order = draw(st.permutations(range(n)))
    ring = sorted({tuple(sorted((order[i], order[(i + 1) % n]))) for i in range(n)})
    chords = [(a, b) for a in range(n) for b in range(a + 1, n) if (a, b) not in ring]
    # Block dimension = segments + internal nodes = segments + n - 2.
    room = min(len(chords), MAX_VARIABLES + 2 - 2 * n)
    pairs = ring + (draw(st.lists(st.sampled_from(chords), unique=True, max_size=room)) if room > 0 else [])
    lengths = draw(st.lists(st.integers(1, 30), min_size=len(pairs), max_size=len(pairs)))
    source, terminal = draw(st.lists(st.integers(0, n - 1), min_size=2, max_size=2, unique=True))
    doc = {
        "name": "ring",
        "nodes": [{"id": f"v{i}"} for i in range(n)],
        "segments": [
            {"id": f"e{k}", "u": f"v{a}", "v": f"v{b}", "length": length / 10}
            for k, ((a, b), length) in enumerate(zip(pairs, lengths))
        ],
        "cables": [{"id": "c1", "source": f"v{source}", "terminal": f"v{terminal}",
                    "alpha": draw(st.sampled_from([1.0, 1.5, 2.0]))}],
    }
    instance = parse_instance(json.dumps(doc))
    assert instance.block_dim(instance.cables[0]) <= MAX_VARIABLES
    return instance


def all_bitstrings(dim):
    return [format(u, f"0{dim}b") for u in range(1 << dim)]


@checks
@given(instance=ring_layouts(), kappa=st.sampled_from([1.0, 1.5, 2.0, 4.0]))
def test_brute_force_equals_shortest_path_at_kappa_one_and_above(instance, kappa):
    cable = instance.cables[0]
    lowest = brute_force_min(cable_block(instance, cable, kappa), instance)
    shortest = shortest_path_opt(instance, cable)
    assert lowest.route, "the block minimum is not a single path"
    assert lowest.objective == pytest.approx(shortest.objective, rel=1e-12, abs=1e-12)
    assert lowest.energy == pytest.approx(shortest.objective, rel=1e-12, abs=1e-12)


@checks
@given(instance=ring_layouts(), kappa=st.sampled_from([0.25, 0.5, 1.0, 2.0, 4.0]))
def test_qubo_energy_equals_literal_penalty_energy(instance, kappa):
    cable = instance.cables[0]
    block = cable_block(instance, cable, kappa)
    for z in all_bitstrings(block.dim):
        expected = reference_energy(instance, cable, block.penalties, z)
        assert qubo_energy(block, z) == pytest.approx(expected, rel=1e-12, abs=1e-9), z


@checks
@given(instance=ring_layouts(), kappa=st.sampled_from([0.25, 0.5, 1.0, 2.0, 4.0]))
def test_ising_energy_equals_qubo_energy(instance, kappa):
    block = cable_block(instance, instance.cables[0], kappa)
    model = to_ising(block)
    for z in all_bitstrings(block.dim):
        spins = spins_from_bits(z, block.dim)
        assert ising_energy(model, spins) == pytest.approx(qubo_energy(block, z), rel=1e-12, abs=1e-9), z


@checks
@given(instance=ring_layouts(), data=st.data())
def test_every_cable_has_segments_plus_nodes_minus_two_variables(instance, data):
    # A cable's source and terminal differ, so every block of a layout has the
    # same dimension: the first cable's solve meets the dimension cap as soon
    # as any cable would.
    n = instance.num_nodes
    ends = data.draw(st.lists(st.lists(st.integers(0, n - 1), min_size=2, max_size=2, unique=True),
                              min_size=1, max_size=4))
    doc = json.loads(render_instance(instance))
    doc["cables"] = [{"id": f"c{k}", "source": f"v{s}", "terminal": f"v{t}", "alpha": 1.0}
                     for k, (s, t) in enumerate(ends)]
    instance = parse_instance(json.dumps(doc))
    dim = instance.num_segments + instance.num_nodes - 2
    assert [instance.block_dim(c) for c in instance.cables] == [dim] * len(ends)
    assert [cable_block(instance, c, 1.0).dim for c in instance.cables] == [dim] * len(ends)


def twelve_digits(x):
    """Records hold floats rounded to 12 significant digits, as the sweep makes them."""
    return float(f"{x:.12g}")


finite = st.floats(allow_nan=False, allow_infinity=False).map(twelve_digits)
ids = st.text(st.characters(blacklist_categories=("Cs",), blacklist_characters="\x00"), max_size=6)


@st.composite
def run_records(draw):
    feasible = draw(st.booleans())
    return RunRecord(
        layout=draw(ids),
        cable_id=draw(ids),
        kappa=draw(st.floats(min_value=0.0, exclude_min=True, allow_infinity=False).map(twelve_digits)),
        seed=draw(st.integers(0, 2**63)),
        feasible=feasible,
        energy=draw(finite),
        objective=draw(finite if feasible else st.none() | finite),
        oracle_objective=draw(finite),
        opt_gap=draw(st.none() | finite),
    )


@checks
@given(records=st.lists(run_records(), max_size=5))
def test_results_csv_round_trip(records):
    text = records_to_csv(records)
    keys = [(r.layout, r.cable_id, r.kappa, r.seed) for r in records]
    # a sweep never writes a negative cost or gap, nor an infeasible row with
    # an objective or a gap; the reader rejects them
    unwritten = any(
        min(r.objective or 0.0, r.oracle_objective, r.opt_gap or 0.0) < 0.0
        or not r.feasible and (r.objective is not None or r.opt_gap is not None)
        for r in records
    )
    if unwritten:
        with pytest.raises(ValueError, match="must be nonnegative|an infeasible row leaves"):
            records_from_csv(text)
    elif len(set(keys)) < len(keys):  # a sweep never writes one; the reader rejects it
        with pytest.raises(ValueError, match="repeats the"):
            records_from_csv(text)
    else:
        assert records_from_csv(text) == records
