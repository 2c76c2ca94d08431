"""The benchmark tracer's contract with the package.

``bench/spans.py`` wraps names that callers look up (``TARGETS``) and reads
the shapes of their results: ``sample(...).counts``, ``minimize(...)[2]``,
``estimate_energy(...)[1][0]``, the ``vqe_solve`` result.  A refactor that
drops, renames or reshapes one of them breaks the benchmark's per-layer
metrics; this test runs the tracer, loaded read-only from its file, around a
small solve and checks that its counts agree with the solve's own results.
"""

import importlib
import importlib.util
import sys
from pathlib import Path

import pytest

from qcroute import VqeConfig, oracle, vqe

SPANS_PATH = Path(__file__).resolve().parents[1] / "bench" / "spans.py"


@pytest.fixture(scope="module")
def spans():
    spec = importlib.util.spec_from_file_location("bench_spans", SPANS_PATH)
    module = importlib.util.module_from_spec(spec)
    write_bytecode = sys.dont_write_bytecode
    sys.dont_write_bytecode = True  # leave bench/ untouched
    try:
        spec.loader.exec_module(module)
    finally:
        sys.dont_write_bytecode = write_bytecode
    return module


def test_every_target_resolves(spans):
    for module_name, attr, _ in spans.TARGETS:
        assert callable(getattr(importlib.import_module(module_name), attr)), (module_name, attr)


def test_summary_agrees_with_the_results(spans, layout1):
    tracer = spans.Tracer()
    tracer.install()
    try:
        sampled = vqe.solve_decomposed(layout1, 1.0, VqeConfig(shots=50, maxiter=5, seed=3))
        exact = vqe.solve_decomposed(layout1, 1.0, VqeConfig(shots=0, maxiter=3, seed=4))
        block = vqe.cable_block(layout1, layout1.cables[0], 1.0)
        oracle.brute_force_min(block, layout1)
    finally:
        tracer.uninstall()
    assert not hasattr(vqe.solve_decomposed, "__wrapped__")  # the originals are back

    summary = tracer.summarize(0, len(tracer.names))
    sampled_evals = sum(r.evaluations_used for r in sampled.results)
    exact_evals = sum(r.evaluations_used for r in exact.results)
    solves = len(sampled.results) + len(exact.results)
    assert (sampled_evals, exact_evals) == (5 * layout1.num_cables, 3 * layout1.num_cables)
    assert summary["vqe.evals"] == sampled_evals + exact_evals
    assert summary["vqe.solves"] == solves
    assert summary["quantum.prepare_calls"] == sampled_evals + exact_evals
    assert summary["quantum.sample_calls"] == sampled_evals
    assert summary["quantum.exact_calls"] == exact_evals
    assert summary["oracle.brute_force_states"] == 1 << block.dim
    assert summary["oracle.feasibility_calls"] == solves
    # default, scale, build per block, once: the exact solve and the last
    # block reuse the sampled solve's row
    assert summary["qubo.build_calls"] == 3 * layout1.num_cables
    assert solves <= summary["vqe.evals_to_best"] <= summary["vqe.evals"]
    assert 0 <= summary["vqe.converged_solves"] <= solves
    # An exact distribution at these angles has all 2^m outcomes, a sample 1 to 50.
    sampled_outcomes = summary["quantum.outcomes"] - exact_evals * (1 << block.dim)
    assert sampled_evals <= sampled_outcomes <= sampled_evals * 50
