"""Classical ground truth: constraint checking, exhaustive QUBO minimization,
and shortest-path routing.

Two feasibility notions are distinguished.  Model feasibility means the four
degree/selection constraints hold literally on the bitstring.  Path
feasibility additionally requires the chosen segments to form one simple
source-to-terminal path with nothing left over; model-feasible assignments may
also carry disjoint cycles on internal nodes.  Metrics use the strict path
notion.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass

import numpy as np

from .instance import Cable, Instance, incident_segments
from .qubo import _CHUNK_BITS, CableQubo, _basis_bits, _chunk_energies, check_block_dim, variable_map

__all__ = [
    "Violation",
    "FeasibilityReport",
    "OracleSolution",
    "check_feasibility",
    "brute_force_min",
    "shortest_path_opt",
    "route_bitstring",
    "chosen_objective",
]


@dataclass(frozen=True)
class Violation:
    constraint: str  # start | terminal | flow | selection
    location: str
    value: float


@dataclass(frozen=True)
class FeasibilityReport:
    feasible_model: bool
    feasible_path: bool
    violations: tuple[Violation, ...]
    decoded_route: tuple[str, ...] | None


@dataclass(frozen=True)
class OracleSolution:
    bitstring: str
    energy: float
    objective: float | None
    route: tuple[str, ...]


def check_feasibility(instance: Instance, cable: Cable, z: str) -> FeasibilityReport:
    """Evaluate the routing constraints literally on a block bitstring.

    Checks, in order: exactly one chosen segment at the source; exactly one at
    the terminal; every internal node either unused or traversed (segment
    degree equal to twice its node bit); and no chosen segment touching an
    internal node whose bit is off.  When all hold, the route is decoded by
    walking from the source; the result is path-feasible only if that walk
    consumes every chosen segment.
    """
    vmap = variable_map(instance, cable)
    if len(z) != vmap.dim:
        raise ValueError(f"bitstring length {len(z)} != block dimension {vmap.dim}")
    d = instance.num_segments
    x = [int(ch) for ch in z[:d]]
    b = {node: int(ch) for node, ch in zip(vmap.node_vars, z[d:])}

    violations: list[Violation] = []
    source_degree = sum(x[i] for i in incident_segments(instance, cable.source))
    if source_degree != 1:
        violations.append(Violation("start", cable.source, float(source_degree)))
    terminal_degree = sum(x[i] for i in incident_segments(instance, cable.terminal))
    if terminal_degree != 1:
        violations.append(Violation("terminal", cable.terminal, float(terminal_degree)))
    for node in vmap.node_vars:
        degree = sum(x[i] for i in incident_segments(instance, node))
        if degree != 2 * b[node]:
            violations.append(Violation("flow", node, float(degree - 2 * b[node])))
    for node in vmap.node_vars:
        for i in incident_segments(instance, node):
            if x[i] == 1 and b[node] == 0:
                violations.append(
                    Violation("selection", f"{instance.segments[i].id}@{node}", 1.0)
                )

    feasible_model = not violations
    route: tuple[str, ...] | None = None
    feasible_path = False
    if feasible_model:
        route, used_all = _walk_route(instance, cable, x)
        feasible_path = used_all
        if not feasible_path:
            route = None
    return FeasibilityReport(feasible_model, feasible_path, tuple(violations), route)


def _walk_route(instance: Instance, cable: Cable, x: list[int]) -> tuple[tuple[str, ...], bool]:
    """Walk the chosen segments from the source.

    Under model feasibility all degrees are 0, 1 (endpoints) or 2, so the walk
    is forced at every step and ends at the terminal.  Returns the node route
    and whether the walk consumed every chosen segment (no disjoint leftovers).
    """
    unused = {i for i, bit in enumerate(x) if bit}
    total = len(unused)
    route = [cable.source]
    current = cable.source
    while current != cable.terminal:
        step = [i for i in incident_segments(instance, current) if i in unused]
        if len(step) != 1:
            return tuple(route), False
        seg = instance.segments[step[0]]
        unused.discard(step[0])
        current = seg.v if seg.u == current else seg.u
        route.append(current)
    return tuple(route), len(unused) == 0 and total > 0


def chosen_objective(instance: Instance, cable: Cable, z: str) -> float:
    """Plain routing cost of the chosen segments (no penalties)."""
    d = instance.num_segments
    return sum(cable.costs[s.id] for s, ch in zip(instance.segments, z[:d]) if ch == "1")


def brute_force_min(q: CableQubo, instance: Instance | None = None) -> OracleSolution:
    """Exhaustive minimum of a block over all 2^dim bitstrings.

    Enumeration is in lexicographic bitstring order, 2^12 states per chunk
    of ``_chunk_energies`` into reused buffers (about 1.3 MiB at 20
    variables), and a chunk's minimum replaces the best only when strictly
    lower, so ties resolve to the lexicographically smallest minimizer.
    Blocks over 12 variables are screened first (``_kept_chunk_starts``):
    only the chunks that can hold the minimum are formed, in ascending
    order, so the result is the full scan's bitstring and float.  With
    ``instance`` given, the solution also carries the routing objective and
    decoded route (empty when the minimizer is not a single path).
    """
    check_block_dim(q.dim)
    # Bit i of z is bit (dim-1-i) of the counter, so counters run in
    # lexicographic order.
    best_energy = np.inf
    best_index = 0
    chunks = _chunk_energies(q, range(q.dim - 1, -1, -1), starts=_kept_chunk_starts(q))
    for start, energies in chunks:
        arg = int(np.argmin(energies))
        if energies[arg] < best_energy:
            best_energy = float(energies[arg])
            best_index = start + arg
    bitstring = format(best_index, f"0{q.dim}b")
    objective = None
    route: tuple[str, ...] = ()
    if instance is not None:
        cable = instance.cable(q.cable_id)
        objective = chosen_objective(instance, cable, bitstring)
        report = check_feasibility(instance, cable, bitstring)
        if report.feasible_path:
            route = report.decoded_route or ()
    return OracleSolution(bitstring=bitstring, energy=best_energy, objective=objective, route=route)


_SCREEN_FLOATS = 1 << 16  # size of the screen's reused (chunks, 2^12) buffer
_UNIT_ROUNDOFF = 2.0**-53


@np.errstate(over="ignore", invalid="ignore")  # an overflow keeps every chunk
def _kept_chunk_starts(q: CableQubo) -> list[int] | None:
    """Starts of the brute-force chunks that can hold the block's minimum.

    A chunk fixes the prefix variables ``0..h-1`` (h = dim - 12) at p and
    enumerates the last 12 as s, so its energies split exactly as
    ``E_pre(p) + E_suf(s) + p.(Q_ps + Q_sp^T).s``, the offset in ``E_pre``.
    The screen forms the chunks' minima of that sum 16 at a time, with one
    ``(16, 12) @ (12, 2^12)`` product into a reused buffer of 2^16 floats,
    a broadcast add of ``E_suf``, a row minimum and ``E_pre``: about 12
    flops a state.

    Both forms of a state's energy are within ``gamma_(2m+4) * A`` of its
    exact value (m = dim, A = sum|Q_ij| + |offset|, gamma_n = nu / (1 - nu),
    u = 2^-53): no term passes through more than 2m+4 roundings.  So a chunk
    whose screen minimum is above the least one, g, by more than twice the
    two forms' bounds holds only states whose full-form energy is strictly
    above that of the state giving g, and skipping it changes neither the
    minimum nor its first minimizer.  The bounds use 2A: the factor covers
    the rounding of the bound itself, and while 2A is finite no partial sum
    (at most about A) overflows.  A wider window only keeps more chunks.  A
    NaN minimum is kept, and a non-finite limit keeps every chunk.  Returns
    None, every chunk, for blocks of at most 12 variables, which are one
    chunk.
    """
    if q.dim <= _CHUNK_BITS:
        return None
    h = q.dim - _CHUNK_BITS
    prefix = _basis_bits(range(h - 1, -1, -1), h)  # row p: the prefix of chunk p
    suffix = _basis_bits(range(_CHUNK_BITS - 1, -1, -1), _CHUNK_BITS)  # row r of every chunk
    cross = prefix @ (q.q[:h, h:] + q.q[h:, :h].T)
    # Row sums as products with ones: a BLAS call, several times faster
    # than a reduction over rows this short.
    pre = ((prefix @ q.q[:h, :h]) * prefix) @ np.ones(h) + q.offset
    suf = ((suffix @ q.q[h:, h:]) * suffix) @ np.ones(_CHUNK_BITS)
    rows = min(len(prefix), _SCREEN_FLOATS >> _CHUNK_BITS)
    screen = np.empty((rows, len(suffix)))
    minima = np.empty(len(prefix))
    for first in range(0, len(prefix), rows):
        np.matmul(cross[first:first + rows], suffix.T, out=screen)
        screen += suf
        screen.min(axis=1, out=minima[first:first + rows])
    # Rounding is monotone, so adding E_pre after the minimum gives the
    # minimum of the rounded sums.
    minima += pre

    n = 2 * q.dim + 4
    gamma = n * _UNIT_ROUNDOFF / (1.0 - n * _UNIT_ROUNDOFF)
    bound = gamma * 2.0 * (float(np.abs(q.q).sum()) + abs(q.offset))  # per form
    limit = minima.min() + 2.0 * (bound + bound)
    if not np.isfinite(limit):
        return None
    return (np.flatnonzero(~(minima > limit)) << _CHUNK_BITS).tolist()


def shortest_path_opt(instance: Instance, cable: Cable) -> OracleSolution:
    """Minimum-cost simple source-to-terminal path under the cable's costs.

    Label-setting search over nonnegative per-segment costs; ties steered by
    node order for determinism.  The energy equals the objective because the
    encoded path satisfies every constraint, so all penalties vanish.
    """
    order = {n.id: i for i, n in enumerate(instance.nodes)}
    adjacency: dict[str, list[tuple[str, float]]] = {n.id: [] for n in instance.nodes}
    for s in instance.segments:
        cost = cable.costs[s.id]
        adjacency[s.u].append((s.v, cost))
        adjacency[s.v].append((s.u, cost))

    dist = {n.id: np.inf for n in instance.nodes}
    prev: dict[str, str] = {}
    dist[cable.source] = 0.0
    heap: list[tuple[float, int, str]] = [(0.0, order[cable.source], cable.source)]
    done: set[str] = set()
    while heap:
        d_u, _, u = heapq.heappop(heap)
        if u in done:
            continue
        done.add(u)
        if u == cable.terminal:
            break
        for v, cost in adjacency[u]:
            if v in done:
                continue
            candidate = d_u + cost
            if candidate < dist[v]:
                dist[v] = candidate
                prev[v] = u
                heapq.heappush(heap, (candidate, order[v], v))

    if not np.isfinite(dist[cable.terminal]):
        raise ValueError(f"no path from {cable.source!r} to {cable.terminal!r}")

    route_rev = [cable.terminal]
    node = cable.terminal
    while node != cable.source:
        node = prev[node]
        route_rev.append(node)
    route = tuple(reversed(route_rev))
    bitstring = route_bitstring(instance, cable, route)
    objective = chosen_objective(instance, cable, bitstring)
    return OracleSolution(bitstring=bitstring, energy=objective, objective=objective, route=route)


def route_bitstring(instance: Instance, cable: Cable, route: tuple[str, ...]) -> str:
    """Encode a node route as a block bitstring (segment bits plus node bits)."""
    vmap = variable_map(instance, cable)
    seg_by_pair = {frozenset((s.u, s.v)): i for i, s in enumerate(instance.segments)}
    x = ["0"] * instance.num_segments
    for a, b in zip(route, route[1:]):
        pair = frozenset((a, b))
        if pair not in seg_by_pair:
            raise ValueError(f"route step {a!r}-{b!r} is not a segment")
        x[seg_by_pair[pair]] = "1"
    interior = set(route[1:-1])
    b_bits = ["1" if node in interior else "0" for node in vmap.node_vars]
    return "".join(x) + "".join(b_bits)
