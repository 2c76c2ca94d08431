"""Independent reference implementations used only by the tests.

These deliberately avoid the library's matrix path: energies come from the
literal constraint expressions, optima from pure-Python exhaustive
enumeration, path costs from depth-first search over all simple paths, and
ansatz states from explicit 2x2 gate matrices embedded by Kronecker products.
They exist so that every frozen expected value in the suite was computed by
a second route.
"""

from __future__ import annotations

import itertools

import numpy as np


def incident_ids(instance, node_id):
    return [s.id for s in instance.segments if node_id in (s.u, s.v)]


def reference_energy(instance, cable, pens, z: str) -> float:
    """Routing cost plus the four penalty expressions, evaluated literally."""
    d = instance.num_segments
    x = {s.id: int(ch) for s, ch in zip(instance.segments, z[:d])}
    internal = instance.internal_nodes(cable)
    b = {k: int(ch) for k, ch in zip(internal, z[d:])}

    objective = sum(cable.costs[sid] * bit for sid, bit in x.items())
    start = (sum(x[sid] for sid in incident_ids(instance, cable.source)) - 1) ** 2
    terminal = (sum(x[sid] for sid in incident_ids(instance, cable.terminal)) - 1) ** 2
    flow = sum(
        (sum(x[sid] for sid in incident_ids(instance, k)) - 2 * b[k]) ** 2 for k in internal
    )
    selection = sum(
        x[sid] * (1 - b[k]) for k in internal for sid in incident_ids(instance, k)
    )
    return (
        objective
        + pens.eta1 * start
        + pens.eta2 * terminal
        + pens.eta3 * flow
        + pens.eta4 * selection
    )


def reference_minimum(instance, cable, pens) -> tuple[str, float]:
    """Exhaustive minimum by literal evaluation; first (lexicographic) winner."""
    dim = instance.block_dim(cable)
    best_z, best_e = None, None
    for bits in itertools.product("01", repeat=dim):
        z = "".join(bits)
        e = reference_energy(instance, cable, pens, z)
        if best_e is None or e < best_e:
            best_z, best_e = z, e
    return best_z, best_e


def min_simple_path_cost(instance, cable) -> float:
    """Cheapest simple source-terminal path by DFS over all simple paths."""
    adjacency = {n.id: [] for n in instance.nodes}
    for s in instance.segments:
        adjacency[s.u].append((s.v, s.id))
        adjacency[s.v].append((s.u, s.id))
    best = [float("inf")]

    def dfs(node, visited, cost):
        if node == cable.terminal:
            best[0] = min(best[0], cost)
            return
        for nxt, sid in adjacency[node]:
            if nxt not in visited:
                dfs(nxt, visited | {nxt}, cost + cable.costs[sid])

    dfs(cable.source, {cable.source}, 0.0)
    return best[0]


def count_simple_paths(instance, source, terminal) -> int:
    adjacency = {n.id: [] for n in instance.nodes}
    for s in instance.segments:
        adjacency[s.u].append(s.v)
        adjacency[s.v].append(s.u)
    total = [0]

    def dfs(node, visited):
        if node == terminal:
            total[0] += 1
            return
        for nxt in adjacency[node]:
            if nxt not in visited:
                dfs(nxt, visited | {nxt})

    dfs(source, {source})
    return total[0]


def _embed(num_qubits, ops):
    """Full 2^m operator with the 2x2 matrices ``ops[qubit]`` on their qubits.

    Qubit i is bit i of the basis index, so qubit 0 is the rightmost
    Kronecker factor.
    """
    full = np.eye(1)
    for qubit in reversed(range(num_qubits)):
        full = np.kron(full, ops.get(qubit, np.eye(2)))
    return full


def reference_ansatz(num_qubits, reps, theta):
    """The RY / CNOT-chain ansatz as explicit matrices applied to |0...0>."""
    def ry(angle):
        c, s = np.cos(angle / 2.0), np.sin(angle / 2.0)
        return np.array([[c, -s], [s, c]])

    p0 = np.diag([1.0, 0.0])
    p1 = np.diag([0.0, 1.0])
    x = np.array([[0.0, 1.0], [1.0, 0.0]])
    state = np.zeros(1 << num_qubits)
    state[0] = 1.0
    layers = [theta[k * num_qubits:(k + 1) * num_qubits] for k in range(reps + 1)]
    for k, angles in enumerate(layers):
        if k > 0:
            for control in range(num_qubits - 1):
                cnot = _embed(num_qubits, {control: p0}) + _embed(num_qubits, {control: p1, control + 1: x})
                state = cnot @ state
        state = _embed(num_qubits, {q: ry(a) for q, a in enumerate(angles)}) @ state
    return state


def cnot_chain_by_swaps(amps, num_qubits):
    """CNOT(0,1) ... CNOT(m-2,m-1), one gate at a time, as amplitude swaps."""
    amps = amps.copy()
    index = np.arange(1 << num_qubits)
    for control in range(num_qubits - 1):
        target = control + 1
        low = index[((index >> control) & 1 == 1) & ((index >> target) & 1 == 0)]
        high = low | (1 << target)
        amps[low], amps[high] = amps[high].copy(), amps[low].copy()
    return amps


def parent_prepare_state(num_qubits, reps, theta):
    """The ansatz gate by gate, frozen from the kernel's earlier form.

    The first rotation layer is filled as a product state, each CNOT chain
    is one gather ``amps[y ^ ((y << 1) & mask)]``, and each rotation copies
    ``a0`` and forms ``c*a0 - s*a1`` and ``s*a0 + c*a1``.  The library kernel
    must give exactly these bytes.
    """
    m = num_qubits
    theta = np.asarray(theta, dtype=np.float64)
    amps = np.empty(1 << m)
    amps[0] = 1.0
    for qubit, angle in enumerate(theta[:m]):
        half = 1 << qubit
        np.multiply(amps[:half], np.sin(angle / 2.0), out=amps[half:2 * half])
        amps[:half] *= np.cos(angle / 2.0)
    source = np.arange(1 << m)
    source ^= (source << 1) & ((1 << m) - 1)
    for layer in range(1, reps + 1):
        amps = amps[source]
        for qubit in range(m):
            angle = theta[layer * m + qubit]
            view = amps.reshape(1 << (m - qubit - 1), 2, 1 << qubit)
            c = np.cos(angle / 2.0)
            s = np.sin(angle / 2.0)
            a0 = view[:, 0, :].copy()
            a1 = view[:, 1, :]
            view[:, 0, :] = c * a0 - s * a1
            view[:, 1, :] = s * a0 + c * a1
    return amps


def parent_energy_table(q):
    """``CableQubo.energy_table`` frozen from its one-product form.

    One (2^dim, dim) float 0/1 matrix, bit i of row y in column i, and one
    ``bits @ Q`` over all of it; entry y is the energy of basis index y.
    """
    index = np.arange(1 << q.dim)
    bits = np.empty((1 << q.dim, q.dim))
    for i in range(q.dim):
        bits[:, i] = (index >> i) & 1
    return ((bits @ q.q) * bits).sum(axis=1) + q.offset


def parent_exact_distribution(state):
    """``exact_distribution`` frozen from its gather-only form.

    The squared amplitudes, then the nonzero ones gathered by index, for
    every state; returns (indices, weights).
    """
    probs = np.square(state.amplitudes)
    nonzero = np.flatnonzero(probs != 0)
    return nonzero, probs[nonzero]


def parent_estimate_energy(weights, q):
    """``estimate_energy`` frozen from its form before the per-block table.

    The energies of exactly the nonzero-weight indices, in their own order,
    from one shifted int64 bit matrix per call.  Takes a ``BasisWeights``;
    returns (e_exp, (best key, its energy)) as the library does.
    """
    m = q.dim
    idx = weights.indices
    w = np.asarray(weights.weights, dtype=np.float64)
    nonzero = w > 0.0
    idx, w = idx[nonzero], w[nonzero]
    bits = ((idx[:, None] >> np.arange(m)) & 1).astype(np.float64)
    energies = ((bits @ q.q) * bits).sum(axis=1) + q.offset
    e_exp = float((w @ energies) / w.sum())
    min_energy = energies.min()
    keys = ["".join("1" if (i >> b) & 1 else "0" for b in range(m)) for i in idx[energies == min_energy].tolist()]
    return e_exp, (min(keys), float(min_energy))


def parent_brute_force_min(q):
    """``brute_force_min`` frozen from its uint32 shift-matrix form.

    Same chunks of 2^16 counters in lexicographic order and the same
    first-strict-minimum rule; returns (bitstring, energy).
    """
    shifts = np.arange(q.dim - 1, -1, -1, dtype=np.uint32)
    low_bits = min(q.dim, 16)
    rows, high = 1 << low_bits, q.dim - low_bits
    bits = ((np.arange(rows, dtype=np.uint32)[:, None] >> shifts[None, :]) & 1).astype(np.float64)
    best_energy, best_index = np.inf, 0
    for lo in range(0, 1 << q.dim, rows):
        bits[:, :high] = (lo >> shifts[:high]) & 1
        energies = ((bits @ q.q) * bits).sum(axis=1) + q.offset
        arg = int(np.argmin(energies))
        if energies[arg] < best_energy:
            best_energy, best_index = float(energies[arg]), lo + arg
    return format(best_index, f"0{q.dim}b"), best_energy


class _BudgetExhausted(Exception):
    pass


def parent_minimize(fn, dim, config, rng):
    """``minimize`` frozen from its closure-and-exception form.

    The same Nelder-Mead moves, a budget enforced by an exception from the
    evaluation closure, and a convergence check every dim + 1 iterations
    against a separately tracked best value.  Returns (best point, best
    value, values in evaluation order, converged).
    """
    values_seen = []
    converged = False
    best_x, best_f = None, np.inf

    def evaluate(x):
        nonlocal best_x, best_f
        if len(values_seen) >= config.maxiter:
            raise _BudgetExhausted
        value = float(fn(x))
        values_seen.append(value)
        if value < best_f:
            best_f = value
            best_x = x.copy()
        return value

    x0 = rng.random(dim) * 2.0 * np.pi

    vertices = [x0]
    values = []
    try:
        values.append(evaluate(x0))
        for i in range(dim):
            point = x0.copy()
            point[i] += 0.5
            vertices.append(point)
            values.append(evaluate(point))
    except _BudgetExhausted:
        return best_x, best_f, values_seen, converged

    iterations = 0
    best_at_check = best_f
    try:
        while len(values_seen) < config.maxiter:
            order = np.argsort(values, kind="stable")
            vertices = [vertices[i] for i in order]
            values = [values[i] for i in order]
            centroid = np.mean(vertices[:-1], axis=0)
            worst = vertices[-1]

            reflected = centroid + 1.0 * (centroid - worst)
            f_reflected = evaluate(reflected)
            if f_reflected < values[0]:
                expanded = centroid + 2.0 * (centroid - worst)
                f_expanded = evaluate(expanded)
                if f_expanded < f_reflected:
                    vertices[-1], values[-1] = expanded, f_expanded
                else:
                    vertices[-1], values[-1] = reflected, f_reflected
            elif f_reflected < values[-2]:
                vertices[-1], values[-1] = reflected, f_reflected
            else:
                if f_reflected < values[-1]:
                    contracted = centroid + 0.5 * (reflected - centroid)
                else:
                    contracted = centroid + 0.5 * (worst - centroid)
                f_contracted = evaluate(contracted)
                if f_contracted < min(f_reflected, values[-1]):
                    vertices[-1], values[-1] = contracted, f_contracted
                else:
                    for i in range(1, len(vertices)):
                        vertices[i] = vertices[0] + 0.5 * (vertices[i] - vertices[0])
                        values[i] = evaluate(vertices[i])

            iterations += 1
            if iterations % (dim + 1) == 0:
                spread = max(values) - min(values)
                if best_at_check - best_f < config.ftol and spread < config.ftol:
                    converged = True
                    break
                best_at_check = best_f
    except _BudgetExhausted:
        pass
    return best_x, best_f, values_seen, converged
