"""Outside-in tracing of qcroute: one span per call into a public function.

The tracer replaces the names that each calling module looks up (for example
``qcroute.vqe.prepare_state``, which ``vqe_solve`` calls) with a wrapper that
records the span's name, start, end and parent, then restores them.  Nothing
inside the package changes.  Spans stay in memory as parallel lists and are
written out once the measurement is over.

Self time is a span's duration minus the time covered by its child spans;
summed over every span under a root it equals the root's duration.
"""

from __future__ import annotations

import functools
import importlib
import json
import time
from contextlib import contextmanager

# (module whose global is replaced, attribute, span name).  Each entry is a
# name that a caller on the workloads' paths looks up at call time: the bench
# itself (instance, qubo, vqe, oracle, cli.main), cli, metrics, vqe or
# instance.
TARGETS = [
    ("qcroute.instance", "parse_instance", "instance.parse_instance"),
    ("qcroute.cli", "bundled_layouts", "instance.bundled_layouts"),
    ("qcroute.qubo", "default_penalties", "qubo.default_penalties"),
    ("qcroute.qubo", "scale_penalties", "qubo.scale_penalties"),
    ("qcroute.qubo", "build_cable_qubo", "qubo.build_cable_qubo"),
    ("qcroute.vqe", "default_penalties", "qubo.default_penalties"),
    ("qcroute.vqe", "scale_penalties", "qubo.scale_penalties"),
    ("qcroute.vqe", "build_cable_qubo", "qubo.build_cable_qubo"),
    ("qcroute.vqe", "qubo_energy", "qubo.qubo_energy"),
    ("qcroute.vqe", "prepare_state", "quantum.prepare_state"),
    ("qcroute.vqe", "sample", "quantum.sample"),
    ("qcroute.vqe", "exact_distribution", "quantum.exact_distribution"),
    ("qcroute.vqe", "estimate_energy", "quantum.estimate_energy"),
    ("qcroute.vqe", "minimize", "vqe.minimize"),
    ("qcroute.vqe", "vqe_solve", "vqe.vqe_solve"),
    ("qcroute.vqe", "solve_decomposed", "vqe.solve_decomposed"),
    ("qcroute.metrics", "solve_decomposed", "vqe.solve_decomposed"),
    ("qcroute.vqe", "check_feasibility", "oracle.check_feasibility"),
    ("qcroute.vqe", "chosen_objective", "oracle.chosen_objective"),
    ("qcroute.oracle", "brute_force_min", "oracle.brute_force_min"),
    ("qcroute.metrics", "shortest_path_opt", "oracle.shortest_path_opt"),
    ("qcroute.metrics", "build_report", "metrics.build_report"),
    ("qcroute.cli", "run_sweep", "metrics.run_sweep"),
    ("qcroute.cli", "records_to_csv", "metrics.records_to_csv"),
    ("qcroute.cli", "summary_table", "metrics.summary_table"),
    ("qcroute.cli", "main", "cli.main"),
    ("qcroute.cli", "cmd_sweep", "cli.cmd_sweep"),
]

# Self-time buckets: every span name falls in exactly one, so the buckets sum
# to the self time of all spans.
SELF_BUCKETS = {
    "instance.parse_s": ("instance.",),
    "qubo.build_s": ("qubo.default_penalties", "qubo.scale_penalties", "qubo.build_cable_qubo"),
    "qubo.energy_s": ("qubo.qubo_energy",),
    "quantum.prepare_s": ("quantum.prepare_state",),
    "quantum.sample_s": ("quantum.sample",),
    "quantum.exact_s": ("quantum.exact_distribution",),
    "quantum.estimate_s": ("quantum.estimate_energy",),
    "vqe.self_s": ("vqe.",),
    "oracle.feasibility_s": ("oracle.check_feasibility",),
    "oracle.objective_s": ("oracle.chosen_objective",),
    "oracle.shortest_path_s": ("oracle.shortest_path_opt",),
    "oracle.brute_force_s": ("oracle.brute_force_min",),
    "metrics.sweep_self_s": ("metrics.run_sweep",),
    "metrics.csv_s": ("metrics.records_to_csv",),
    "metrics.report_s": ("metrics.build_report", "metrics.summary_table"),
    "cli.self_s": ("cli.",),
    "bench.self_s": ("bench.",),
}


def _bucket(name: str) -> str:
    for bucket, prefixes in SELF_BUCKETS.items():
        if any(name == p or (p.endswith(".") and name.startswith(p)) for p in prefixes):
            return bucket
    raise KeyError(f"span {name!r} has no self-time bucket")


class Tracer:
    """Records spans for every call through the wrapped names."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.parents: list[int] = []
        self.info: dict[int, object] = {}
        self._stack = [-1]
        self._patched: list[tuple[object, str, object]] = []
        self._estimates: list[tuple[int, str]] = []

    # --- recording -------------------------------------------------------

    def _open(self, name: str) -> int:
        idx = len(self.names)
        self.names.append(name)
        self.parents.append(self._stack[-1])
        self.ends.append(0.0)
        self._stack.append(idx)
        self.starts.append(time.perf_counter())
        return idx

    def _close(self, idx: int) -> None:
        self.ends[idx] = time.perf_counter()
        self._stack.pop()

    @contextmanager
    def span(self, name: str):
        idx = self._open(name)
        try:
            yield idx
        finally:
            self._close(idx)

    def _wrapper(self, original, name: str):
        observe = getattr(self, "_observe_" + name.split(".", 1)[1], None)

        @functools.wraps(original)
        def traced(*args, **kwargs):
            idx = self._open(name)
            try:
                result = original(*args, **kwargs)
            finally:
                self._close(idx)
            if observe is not None:
                observe(idx, args, result)
            return result

        return traced

    def install(self) -> None:
        for module_name, attr, name in TARGETS:
            module = importlib.import_module(module_name)
            original = getattr(module, attr)
            self._patched.append((module, attr, original))
            setattr(module, attr, self._wrapper(original, name))

    def uninstall(self) -> None:
        while self._patched:
            module, attr, original = self._patched.pop()
            setattr(module, attr, original)

    # --- per-call observations (outside the span) --------------------------

    def _observe_prepare_state(self, idx, args, state) -> None:
        spec = args[0]
        gates = spec.reps * (2 * spec.num_qubits - 1) + spec.num_qubits
        self.info[idx] = gates * state.amplitudes.nbytes * 2

    def _observe_sample(self, idx, args, counts) -> None:
        self.info[idx] = len(counts.counts)

    def _observe_exact_distribution(self, idx, args, distribution) -> None:
        self.info[idx] = len(distribution)

    def _observe_estimate_energy(self, idx, args, result) -> None:
        self._estimates.append((idx, result[1][0]))

    def _observe_minimize(self, idx, args, result) -> None:
        self.info[idx] = bool(result[2].converged)

    def _observe_brute_force_min(self, idx, args, solution) -> None:
        self.info[idx] = 1 << args[0].dim

    def _observe_vqe_solve(self, idx, args, result) -> None:
        # Evaluation k of this solve is its k-th estimate_energy call; the
        # returned bitstring first appeared at the first evaluation whose
        # best sample it was.
        mine = [bits for span, bits in self._estimates if span > idx]
        self._estimates.clear()
        first = mine.index(result.bitstring) + 1 if result.bitstring in mine else len(mine)
        self.info[idx] = (result.evaluations_used, first)

    # --- aggregation -----------------------------------------------------

    def summarize(self, lo: int, hi: int) -> dict[str, float]:
        """Per-layer metrics over the spans with index in [lo, hi)."""
        child = [0.0] * (hi - lo)
        for i in range(lo, hi):
            p = self.parents[i]
            if p >= lo:
                child[p - lo] += self.ends[i] - self.starts[i]
        out = {bucket: 0.0 for bucket in SELF_BUCKETS}
        counts = {k: 0 for k in (
            "qubo.build_calls", "quantum.prepare_calls", "quantum.prepare_bytes", "quantum.sample_calls",
            "quantum.exact_calls", "quantum.outcomes", "vqe.evals", "vqe.solves", "vqe.converged_solves",
            "vqe.evals_to_best", "oracle.feasibility_calls", "oracle.brute_force_states")}
        solve_s = 0.0
        for i in range(lo, hi):
            name = self.names[i]
            duration = self.ends[i] - self.starts[i]
            out[_bucket(name)] += duration - child[i - lo]
            info = self.info.get(i)
            if name in SELF_BUCKETS["qubo.build_s"]:
                counts["qubo.build_calls"] += 1
            elif name == "quantum.prepare_state":
                counts["quantum.prepare_calls"] += 1
                counts["quantum.prepare_bytes"] += info
            elif name == "quantum.sample":
                counts["quantum.sample_calls"] += 1
                counts["quantum.outcomes"] += info
            elif name == "quantum.exact_distribution":
                counts["quantum.exact_calls"] += 1
                counts["quantum.outcomes"] += info
            elif name == "vqe.minimize":
                counts["vqe.converged_solves"] += info
            elif name == "vqe.vqe_solve":
                solve_s += duration
                counts["vqe.solves"] += 1
                counts["vqe.evals"] += info[0]
                counts["vqe.evals_to_best"] += info[1]
            elif name == "oracle.check_feasibility":
                counts["oracle.feasibility_calls"] += 1
            elif name == "oracle.brute_force_min":
                counts["oracle.brute_force_states"] += info
        out.update(counts)
        out["vqe.solve_s"] = solve_s
        out["vqe.useful_eval_ratio"] = counts["vqe.evals_to_best"] / counts["vqe.evals"] if counts["vqe.evals"] else 0.0
        out["trace.self_sum_s"] = sum(out[b] for b in SELF_BUCKETS)
        out["trace.spans"] = hi - lo
        return out

    def write_jsonl(self, path, round_of) -> None:
        """One line per span: round, id, name, parent, start, end (seconds)."""
        with open(path, "w", encoding="utf-8") as handle:
            for i, name in enumerate(self.names):
                handle.write(json.dumps({
                    "round": round_of(i), "id": i, "name": name, "parent": self.parents[i],
                    "start": self.starts[i], "end": self.ends[i],
                }) + "\n")
