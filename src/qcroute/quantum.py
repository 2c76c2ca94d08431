"""Dense statevector simulation of a hardware-efficient ansatz, basis-state
sampling, and QUBO energy estimation.

The ansatz is a Y-rotation layer followed, per repetition, by a linear chain
of controlled-NOT gates (control i, target i+1) and another Y-rotation layer.
Only real-amplitude states arise, which is sufficient because the cost
operator is diagonal in the computational basis.

Bit-ordering convention, fixed everywhere: variable i of the QUBO block is
qubit i is the i-th character of a bitstring, and qubit i is bit i of the flat
statevector index (index = sum_i z_i * 2^i).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Union

import numpy as np

from .qubo import CableQubo, block_energies

__all__ = [
    "AnsatzSpec",
    "Statevector",
    "SampleCounts",
    "prepare_state",
    "exact_distribution",
    "sample",
    "estimate_energy",
    "index_to_bitstring",
    "bitstring_to_index",
]


@dataclass(frozen=True)
class AnsatzSpec:
    """Shape of the variational circuit: qubit count and repetition depth."""

    num_qubits: int
    reps: int = 1

    def __post_init__(self) -> None:
        if self.num_qubits < 1:
            raise ValueError("num_qubits must be positive")
        if self.reps < 0:
            raise ValueError("reps must be nonnegative")

    @property
    def parameter_count(self) -> int:
        return self.num_qubits * (self.reps + 1)


@dataclass(frozen=True, eq=False)
class Statevector:
    """Complex amplitudes of an m-qubit state, unit norm."""

    amplitudes: np.ndarray

    @property
    def num_qubits(self) -> int:
        return int(self.amplitudes.shape[0]).bit_length() - 1


@dataclass(frozen=True)
class SampleCounts:
    """Measured bitstring counts; values sum to ``shots``."""

    counts: dict[str, int]
    shots: int


def index_to_bitstring(index: int, num_qubits: int) -> str:
    return "".join("1" if (index >> i) & 1 else "0" for i in range(num_qubits))


def bitstring_to_index(bits: str) -> int:
    return int(bits[::-1], 2)


def _apply_ry(amps: np.ndarray, num_qubits: int, qubit: int, angle: float) -> None:
    # Pairs indices differing in bit `qubit`: stride 2^qubit.
    view = amps.reshape(1 << (num_qubits - qubit - 1), 2, 1 << qubit)
    c = np.cos(angle / 2.0)
    s = np.sin(angle / 2.0)
    a0 = view[:, 0, :].copy()
    a1 = view[:, 1, :]
    view[:, 0, :] = c * a0 - s * a1
    view[:, 1, :] = s * a0 + c * a1


def _apply_cnot(amps: np.ndarray, num_qubits: int, control: int, target: int) -> None:
    hi, lo = max(control, target), min(control, target)
    view = amps.reshape(
        1 << (num_qubits - hi - 1), 2, 1 << (hi - lo - 1), 2, 1 << lo
    )
    if control == hi:
        sub = view[:, 1, :, :, :]
        tmp = sub[:, :, 0, :].copy()
        sub[:, :, 0, :] = sub[:, :, 1, :]
        sub[:, :, 1, :] = tmp
    else:
        sub = view[:, :, :, 1, :]
        tmp = sub[:, 0, :, :].copy()
        sub[:, 0, :, :] = sub[:, 1, :, :]
        sub[:, 1, :, :] = tmp


def prepare_state(spec: AnsatzSpec, theta) -> Statevector:
    """Run the ansatz on |0...0> with the given rotation angles.

    Parameter order is layer by layer, qubit 0..m-1 within each layer;
    ``spec.parameter_count`` angles in total.
    """
    theta = np.asarray(theta, dtype=np.float64)
    if theta.shape != (spec.parameter_count,):
        raise ValueError(
            f"expected {spec.parameter_count} parameters, got {theta.shape}"
        )
    m = spec.num_qubits
    amps = np.zeros(1 << m, dtype=np.complex128)
    amps[0] = 1.0
    k = 0
    for _ in range(spec.reps):
        for qubit in range(m):
            _apply_ry(amps, m, qubit, theta[k])
            k += 1
        for control in range(m - 1):
            _apply_cnot(amps, m, control, control + 1)
    for qubit in range(m):
        _apply_ry(amps, m, qubit, theta[k])
        k += 1
    return Statevector(amps)


def exact_distribution(state: Statevector) -> dict[str, float]:
    """Measurement distribution |amplitude|^2; zero-probability states omitted."""
    probs = np.abs(state.amplitudes) ** 2
    m = state.num_qubits
    return {
        index_to_bitstring(int(i), m): float(probs[i]) for i in np.nonzero(probs)[0]
    }


def sample(state: Statevector, shots: int, rng: np.random.Generator) -> SampleCounts:
    """Multinomial draw of ``shots`` measurements from the state.

    Deterministic given the generator's stream position.
    """
    if shots < 1:
        raise ValueError("shots must be positive")
    probs = np.abs(state.amplitudes) ** 2
    probs = probs / probs.sum()  # guard against 1e-16 normalization drift
    counts_vec = rng.multinomial(shots, probs)
    m = state.num_qubits
    counts = {
        index_to_bitstring(int(i), m): int(counts_vec[i])
        for i in np.nonzero(counts_vec)[0]
    }
    return SampleCounts(counts=counts, shots=shots)


def estimate_energy(
    weights: Union[SampleCounts, Mapping[str, float]], q: CableQubo
) -> tuple[float, tuple[str, float]]:
    """Weighted QUBO energy plus the best observed bitstring.

    ``weights`` is either sampled counts or an exact distribution.  Returns
    (expected energy, (minimum-energy bitstring with nonzero weight, its
    energy)); energy ties resolve to the lexicographically smallest bitstring.
    """
    if isinstance(weights, SampleCounts):
        items = weights.counts
    else:
        items = weights
    if not items:
        raise ValueError("no weighted bitstrings to estimate from")
    keys = list(items)
    for key in keys:
        if len(key) != q.dim:
            raise ValueError(f"bitstring length {len(key)} != block dimension {q.dim}")
    bits = (
        np.frombuffer("".join(keys).encode("ascii"), dtype=np.uint8)
        .reshape(len(keys), q.dim)
        .astype(np.float64)
        - 48.0
    )
    energies = block_energies(q, bits)
    w = np.array([float(items[k]) for k in keys])
    e_exp = float((w @ energies) / w.sum())
    min_energy = energies.min()
    best_key = min(k for k, e in zip(keys, energies) if e == min_energy)
    return e_exp, (best_key, float(min_energy))
