"""Independent checks of the program's outputs.

Nothing here calls qcroute code to decide what is correct.  The checks read
the instance as plain data (node ids, segment endpoints, per-cable costs) and
recompute everything else from the problem statement:

* the block energy as routing cost plus the four penalty terms, evaluated
  literally and vectorised over many bitstrings at once;
* the exhaustive block minimum on top of that evaluation;
* route decoding (degree conditions, then one connected source-terminal path);
* the classical optimum by depth-first search over all simple paths.

Every ``check_*`` function raises ``CheckError`` on the first violation.
``tests/reference.py`` computes the same quantities in pure Python, which is
too slow at 16 to 20 variables; this module agrees with it on small blocks.
"""

from __future__ import annotations

import csv
import io
from dataclasses import dataclass

import numpy as np

REL_TOL = 1e-9
CHUNK = 1 << 16


class CheckError(AssertionError):
    """An output of the program disagrees with the independent computation."""


def close(a: float, b: float, rel: float = REL_TOL) -> bool:
    return abs(a - b) <= rel * max(abs(a), abs(b), 1e-300)


def at_least(a: float, floor: float, rel: float = REL_TOL) -> bool:
    return a >= floor - rel * max(abs(a), abs(floor), 1e-300)


@dataclass(frozen=True)
class Block:
    """One cable's problem, rebuilt from the instance data.

    Variable order (the documented convention): one bit per segment in
    document order, then one bit per internal node sorted by id.
    """

    cable_id: str
    kappa: float
    source: str
    terminal: str
    segments: tuple[tuple[str, str, str], ...]  # (id, u, v)
    internal: tuple[str, ...]
    costs: np.ndarray  # (d,)
    at_source: np.ndarray  # (d,) 0/1
    at_terminal: np.ndarray  # (d,) 0/1
    at_internal: np.ndarray  # (d, p) 0/1
    etas: tuple[float, float, float, float]

    @property
    def d(self) -> int:
        return len(self.segments)

    @property
    def dim(self) -> int:
        return len(self.segments) + len(self.internal)


def block_for(instance, cable, kappa: float) -> Block:
    """Rebuild a cable block with baseline penalties scaled by ``kappa``.

    eta_i = kappa * (1 + w_i) for i = 1..3 and eta4 = kappa, where w1 and w2
    sum the cable's costs at the source and terminal and w3 is the largest
    such sum over internal nodes.
    """
    segments = tuple((s.id, s.u, s.v) for s in instance.segments)
    internal = tuple(sorted(n.id for n in instance.nodes if n.id not in (cable.source, cable.terminal)))
    costs = np.array([float(cable.costs[sid]) for sid, _, _ in segments])

    def incidence(node: str) -> np.ndarray:
        return np.array([1.0 if node in (u, v) else 0.0 for _, u, v in segments])

    at_source = incidence(cable.source)
    at_terminal = incidence(cable.terminal)
    at_internal = np.stack([incidence(k) for k in internal], axis=1) if internal else np.zeros((len(segments), 0))
    w1 = float(costs @ at_source)
    w2 = float(costs @ at_terminal)
    w3 = float((costs @ at_internal).max()) if internal else 0.0
    etas = (kappa * (1.0 + w1), kappa * (1.0 + w2), kappa * (1.0 + w3), kappa * 1.0)
    return Block(cable.id, kappa, cable.source, cable.terminal, segments, internal, costs,
                 at_source, at_terminal, at_internal, etas)


def literal_energies(block: Block, bits: np.ndarray) -> np.ndarray:
    """Routing cost plus the four penalty terms, for each row of ``bits``."""
    bits = np.asarray(bits, dtype=np.float64)
    x, b = bits[:, : block.d], bits[:, block.d :]
    degree = x @ block.at_internal
    cost = x @ block.costs
    start = (x @ block.at_source - 1.0) ** 2
    terminal = (x @ block.at_terminal - 1.0) ** 2
    flow = ((degree - 2.0 * b) ** 2).sum(axis=1)
    selection = (degree * (1.0 - b)).sum(axis=1)
    e1, e2, e3, e4 = block.etas
    return cost + e1 * start + e2 * terminal + e3 * flow + e4 * selection


def bits_of(z: str) -> np.ndarray:
    return np.frombuffer(z.encode("ascii"), dtype=np.uint8)[None, :] - 48


def energy_of(block: Block, z: str) -> float:
    return float(literal_energies(block, bits_of(z))[0])


def _chunks(dim: int):
    # Counter c encodes the bitstring whose character i is bit (dim-1-i) of c,
    # so counter order is lexicographic bitstring order.
    shifts = np.arange(dim - 1, -1, -1, dtype=np.uint32)
    for lo in range(0, 1 << dim, CHUNK):
        counters = np.arange(lo, min(lo + CHUNK, 1 << dim), dtype=np.uint32)
        yield lo, ((counters[:, None] >> shifts[None, :]) & 1).astype(np.float64)


def exhaustive_min(block: Block) -> tuple[float, str]:
    """Minimum literal energy over all 2^dim bitstrings, with the
    lexicographically smallest bitstring that attains it."""
    best, best_index = np.inf, 0
    for lo, bits in _chunks(block.dim):
        energies = literal_energies(block, bits)
        arg = int(np.argmin(energies))
        if energies[arg] < best:
            best, best_index = float(energies[arg]), lo + arg
    return best, format(best_index, f"0{block.dim}b")


def all_energies(block: Block) -> np.ndarray:
    """Sorted literal energies of every bitstring (small blocks only)."""
    return np.sort(np.concatenate([literal_energies(block, bits) for _, bits in _chunks(block.dim)]))


def decode(block: Block, z: str) -> tuple[bool, tuple[str, ...] | None]:
    """(path-feasible, node route) of a bitstring.

    Path-feasible means: exactly one chosen segment at the source and at the
    terminal, every internal node either unused (bit 0, degree 0) or
    traversed (bit 1, degree 2), and all chosen segments connected to the
    source.  Those degrees on one connected component make a simple path.
    """
    x = [ch == "1" for ch in z[: block.d]]
    on = dict(zip(block.internal, (ch == "1" for ch in z[block.d :])))
    chosen = [(u, v) for (_, u, v), used in zip(block.segments, x) if used]
    degree: dict[str, int] = {}
    for u, v in chosen:
        degree[u] = degree.get(u, 0) + 1
        degree[v] = degree.get(v, 0) + 1
    if degree.get(block.source, 0) != 1 or degree.get(block.terminal, 0) != 1:
        return False, None
    for node, bit in on.items():
        if degree.get(node, 0) != (2 if bit else 0):
            return False, None
    route = [block.source]
    remaining = list(chosen)
    while route[-1] != block.terminal:
        here = route[-1]
        step = next((e for e in remaining if here in e), None)
        if step is None:
            return False, None
        remaining.remove(step)
        route.append(step[1] if step[0] == here else step[0])
    if remaining:
        return False, None
    return True, tuple(route)


def chosen_cost(block: Block, z: str) -> float:
    return float(sum(c for c, ch in zip(block.costs, z[: block.d]) if ch == "1"))


def simple_path_costs(instance, cable) -> list[float]:
    """Cost of every simple source-terminal path, by depth-first search."""
    adjacency: dict[str, list[tuple[str, float]]] = {n.id: [] for n in instance.nodes}
    for s in instance.segments:
        cost = float(cable.costs[s.id])
        adjacency[s.u].append((s.v, cost))
        adjacency[s.v].append((s.u, cost))
    found: list[float] = []

    def dfs(node: str, visited: set[str], cost: float) -> None:
        if node == cable.terminal:
            found.append(cost)
            return
        for nxt, step in adjacency[node]:
            if nxt not in visited:
                visited.add(nxt)
                dfs(nxt, visited, cost + step)
                visited.remove(nxt)

    dfs(cable.source, {cable.source}, 0.0)
    if not found:
        raise CheckError(f"cable {cable.id}: no simple path from {cable.source} to {cable.terminal}")
    return found


@dataclass(frozen=True)
class Truth:
    """Everything the checks know about one block."""

    block: Block
    minimum: float
    argmin: str
    optimum: float
    path_costs: tuple[float, ...]


def truth_for(instance, cable, kappa: float) -> Truth:
    block = block_for(instance, cable, kappa)
    minimum, argmin = exhaustive_min(block)
    costs = simple_path_costs(instance, cable)
    truth = Truth(block, minimum, argmin, min(costs), tuple(sorted(set(costs))))
    compare_minimum(truth)
    return truth


def compare_minimum(truth: Truth) -> None:
    """At kappa >= 1 the penalties are exact: the block minimum is the optimum."""
    if truth.block.kappa >= 1.0 and not close(truth.minimum, truth.optimum):
        _fail(truth, f"block minimum {truth.minimum} != DFS optimum {truth.optimum}")


def is_optimal(truth: Truth, z: str) -> bool:
    feasible, _ = decode(truth.block, z)
    return feasible and close(chosen_cost(truth.block, z), truth.optimum)


def _fail(truth: Truth, what: str) -> None:
    raise CheckError(f"cable {truth.block.cable_id} kappa={truth.block.kappa}: {what}")


def check_bitstring(truth: Truth, z) -> None:
    if not isinstance(z, str) or len(z) != truth.block.dim or set(z) - {"0", "1"}:
        _fail(truth, f"bitstring {z!r} is not {truth.block.dim} characters of 0/1")


def check_route(truth: Truth, z: str, feasible: bool, route) -> None:
    expected_feasible, expected_route = decode(truth.block, z)
    if bool(feasible) != expected_feasible:
        _fail(truth, f"{z}: feasible={feasible}, independent decoding says {expected_feasible}")
    got = tuple(route) if route else None
    if got != expected_route:
        _fail(truth, f"{z}: route {got}, independent decoding gives {expected_route}")


def check_vqe_result(truth: Truth, result, maxiter: int) -> None:
    """A SolveResult from vqe_solve / solve_decomposed."""
    z = result.bitstring
    if result.cable_id != truth.block.cable_id:
        _fail(truth, f"result is for cable {result.cable_id!r}")
    check_bitstring(truth, z)
    literal = energy_of(truth.block, z)
    if not close(result.energy, literal):
        _fail(truth, f"{z}: reported energy {result.energy!r} != literal {literal!r}")
    if not at_least(result.energy, truth.minimum):
        _fail(truth, f"{z}: energy {result.energy!r} below the exhaustive minimum {truth.minimum!r}")
    if not at_least(result.e_exp_final, truth.minimum):
        _fail(truth, f"e_exp_final {result.e_exp_final!r} below the exhaustive minimum {truth.minimum!r}")
    check_route(truth, z, result.feasibility.feasible_path, result.feasibility.decoded_route)
    if result.feasibility.feasible_path:
        cost = chosen_cost(truth.block, z)
        if result.objective is None or not close(result.objective, cost):
            _fail(truth, f"{z}: objective {result.objective!r} != chosen cost {cost!r}")
        if not at_least(result.objective, truth.optimum):
            _fail(truth, f"{z}: objective {result.objective!r} below the DFS optimum {truth.optimum!r}")
    elif result.objective is not None:
        _fail(truth, f"{z}: infeasible result carries objective {result.objective!r}")
    if not 1 <= result.evaluations_used <= maxiter:
        _fail(truth, f"evaluations_used {result.evaluations_used} outside [1, {maxiter}]")


def check_brute_force(truth: Truth, solution) -> None:
    """An OracleSolution from brute_force_min(block, instance)."""
    z = solution.bitstring
    check_bitstring(truth, z)
    if not close(solution.energy, truth.minimum):
        _fail(truth, f"brute force energy {solution.energy!r} != exhaustive minimum {truth.minimum!r}")
    literal = energy_of(truth.block, z)
    if not close(literal, truth.minimum):
        _fail(truth, f"brute force bitstring {z} has literal energy {literal!r}, minimum is {truth.minimum!r}")
    feasible, _ = decode(truth.block, z)
    check_route(truth, z, bool(solution.route), solution.route)
    if solution.objective is None or not close(solution.objective, chosen_cost(truth.block, z)):
        _fail(truth, f"brute force objective {solution.objective!r} != chosen cost")
    if feasible and not at_least(solution.objective, truth.optimum):
        _fail(truth, f"brute force objective {solution.objective!r} below the DFS optimum")


SWEEP_HEADER = ["layout", "cable_id", "kappa", "seed", "feasible", "energy", "objective", "oracle_objective", "opt_gap"]


@dataclass(frozen=True)
class SweepRow:
    cable_id: str
    kappa: float
    seed: int
    feasible: bool
    energy: float
    objective: float | None
    opt_gap: float | None


def check_sweep(layout: str, truths: dict, energy_tables: dict, kappas, seeds: int,
                csv_text: str, summary_text: str) -> list[SweepRow]:
    """The results CSV and summary table of ``qcroute sweep``.

    ``truths`` and ``energy_tables`` are keyed by (cable id, kappa); each
    energy table holds the sorted literal energies of every bitstring of that
    block, so any reported energy must be one of them.
    """
    rows = list(csv.reader(io.StringIO(csv_text)))
    if not rows or rows[0] != SWEEP_HEADER:
        raise CheckError(f"CSV header {rows[:1]} != {SWEEP_HEADER}")
    cables = sorted({cid for cid, _ in truths})
    expected = {(cid, float(k), s) for cid in cables for k in kappas for s in range(seeds)}
    parsed: list[SweepRow] = []
    seen: set = set()
    for lineno, row in enumerate(rows[1:], start=2):
        if len(row) != 9:
            raise CheckError(f"CSV line {lineno}: {len(row)} fields")
        name, cid, kappa, seed, feasible, energy, objective, oracle, gap = row
        try:
            key = (cid, float(kappa), int(seed))
            e, oracle_value = float(energy), float(oracle)
            obj = float(objective) if objective else None
            gap_value = float(gap) if gap else None
        except ValueError as exc:
            raise CheckError(f"CSV line {lineno}: {exc}") from exc
        if name != layout or key not in expected or key in seen or feasible not in ("true", "false"):
            raise CheckError(f"CSV line {lineno}: unexpected or repeated row {row}")
        seen.add(key)
        truth = truths[key[:2]]
        where = f"CSV line {lineno} ({cid}, kappa={kappa}, seed={seed})"
        if not close(oracle_value, truth.optimum):
            raise CheckError(f"{where}: oracle_objective {oracle} != DFS optimum {truth.optimum}")
        table = energy_tables[key[:2]]
        i = int(np.searchsorted(table, e))
        if not any(close(e, float(table[j])) for j in (i - 1, i) if 0 <= j < len(table)):
            raise CheckError(f"{where}: energy {energy} is not the energy of any bitstring")
        if not at_least(e, truth.minimum):
            raise CheckError(f"{where}: energy {energy} below the exhaustive minimum {truth.minimum}")
        if feasible == "true":
            if obj is None or not any(close(obj, c) for c in truth.path_costs):
                raise CheckError(f"{where}: objective {objective} is not the cost of any simple path")
            if not close(e, obj):
                raise CheckError(f"{where}: feasible energy {energy} != objective {objective}")
            want_gap = abs(obj - truth.optimum) / abs(truth.optimum)
            if gap_value is None or (not close(gap_value, want_gap) and abs(gap_value - want_gap) > 1e-12):
                raise CheckError(f"{where}: opt_gap {gap!r} != {want_gap!r}")
            parsed.append(SweepRow(cid, key[1], key[2], True, e, obj, gap_value))
        else:
            if objective != "" or gap != "":
                raise CheckError(f"{where}: infeasible row carries objective {objective!r} / gap {gap!r}")
            parsed.append(SweepRow(cid, key[1], key[2], False, e, None, None))
    if seen != expected:
        missing = sorted(expected - seen)[0]
        raise CheckError(f"CSV has {len(seen)} rows, expected {len(expected)}; missing {missing}")
    _check_summary(layout, parsed, summary_text)
    return parsed


def _check_summary(layout: str, rows: list[SweepRow], summary_text: str) -> None:
    lines = summary_text.strip().splitlines()
    if not lines or lines[0].split() != ["layout", "cable", "kappa", "emp_prob", "opt_gap_mean"]:
        raise CheckError(f"summary header {lines[:1]}")
    cells: dict = {}
    for r in rows:
        cells.setdefault((r.cable_id, r.kappa), []).append(r)
    printed = {}
    for line in lines[1:]:
        parts = line.split()
        try:
            if len(parts) != 5 or parts[0] != layout:
                raise ValueError("expected: layout cable kappa emp_prob opt_gap_mean")
            printed[(parts[1], float(parts[2]))] = (float(parts[3]), None if parts[4] == "-" else float(parts[4]))
        except ValueError as exc:
            raise CheckError(f"summary line {line!r}: {exc}") from exc
    if set(printed) != set(cells):
        raise CheckError(f"summary covers {sorted(printed)}, CSV covers {sorted(cells)}")
    # The summary prints 6 significant digits.
    for key, group in cells.items():
        printed_prob, printed_gap = printed[key]
        prob = sum(r.feasible for r in group) / len(group)
        if abs(printed_prob - prob) > 5e-6 * max(prob, 1e-6):
            raise CheckError(f"summary {key}: emp_prob {printed_prob}, recomputed {prob}")
        gaps = [r.opt_gap for r in group if r.feasible]
        mean = sum(gaps) / len(gaps) if gaps else None
        if (printed_gap is None) != (mean is None) or (
                mean is not None and abs(printed_gap - mean) > 5e-6 * max(mean, 1e-6)):
            raise CheckError(f"summary {key}: opt_gap_mean {printed_gap}, recomputed {mean}")
