"""Dense statevector simulation of a hardware-efficient ansatz, basis-state
sampling, and QUBO energy estimation.

The ansatz is a Y-rotation layer followed, per repetition, by a linear chain
of controlled-NOT gates (control i, target i+1) and another Y-rotation layer.
Only real-amplitude states arise, which is sufficient because the cost
operator is diagonal in the computational basis, so states are held as real
float64 vectors.  Measurement results are keyed by basis index inside; the
'0'/'1' bitstring form is built only where a caller reads it.

Bit-ordering convention, fixed everywhere: variable i of the QUBO block is
qubit i is the i-th character of a bitstring, and qubit i is bit i of the flat
statevector index (index = sum_i z_i * 2^i).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Mapping, Union

import numpy as np

from .qubo import CableQubo, bits_to_array, block_energies

__all__ = [
    "AnsatzSpec",
    "Statevector",
    "BasisWeights",
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
    """Real float64 amplitudes of an m-qubit state, unit norm."""

    amplitudes: np.ndarray

    @property
    def num_qubits(self) -> int:
        return int(self.amplitudes.shape[0]).bit_length() - 1


class BasisWeights(Mapping[str, float]):
    """Read-only bitstring -> weight mapping over basis-state indices.

    ``indices`` holds the basis indices with nonzero weight, ascending and
    unique; ``weights`` their weights, in the same order.  Lookups and
    ``len`` work on the arrays; bitstrings are built only when iterated.
    """

    __slots__ = ("indices", "weights", "num_qubits")

    def __init__(self, indices: np.ndarray, weights: np.ndarray, num_qubits: int) -> None:
        self.indices = indices
        self.weights = weights
        self.num_qubits = num_qubits

    def __len__(self) -> int:
        return len(self.indices)

    def __iter__(self) -> Iterator[str]:
        for index in self.indices.tolist():
            yield index_to_bitstring(index, self.num_qubits)

    def __getitem__(self, key: str) -> float:
        if not isinstance(key, str) or len(key) != self.num_qubits or set(key) - {"0", "1"}:
            raise KeyError(key)
        index = bitstring_to_index(key)
        pos = int(np.searchsorted(self.indices, index))
        if pos == len(self.indices) or self.indices[pos] != index:
            raise KeyError(key)
        return self.weights[pos].item()

    def __repr__(self) -> str:
        return f"{type(self).__name__}({dict(self)!r})"


@dataclass(frozen=True)
class SampleCounts:
    """Measured bitstring counts; values sum to ``shots``."""

    counts: Mapping[str, int]
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


def _cnot_chain(amps: np.ndarray, num_qubits: int) -> np.ndarray:
    """CNOT(0,1), CNOT(1,2), ..., CNOT(m-2,m-1) as one gather.

    The chain maps basis index x to its prefix XOR (bit j becomes
    x_0 ^ ... ^ x_j), whose inverse is y -> y ^ (y << 1) within m bits.
    """
    source = np.arange(1 << num_qubits)
    source ^= (source << 1) & ((1 << num_qubits) - 1)
    return amps[source]


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
    # The first rotation layer acts on |0...0>, so it builds a product state:
    # qubit q maps the filled prefix a to (cos * a, sin * a), the same
    # products the gate-by-gate update forms.  Filled in place, with no
    # temporary state-sized arrays.
    amps = np.empty(1 << m)
    amps[0] = 1.0
    for qubit, angle in enumerate(theta[:m]):
        half = 1 << qubit
        np.multiply(amps[:half], np.sin(angle / 2.0), out=amps[half:2 * half])
        amps[:half] *= np.cos(angle / 2.0)
    for layer in range(1, spec.reps + 1):
        amps = _cnot_chain(amps, m)
        for qubit in range(m):
            _apply_ry(amps, m, qubit, theta[layer * m + qubit])
    return Statevector(amps)


def exact_distribution(state: Statevector) -> BasisWeights:
    """Measurement distribution |amplitude|^2; zero-probability states omitted."""
    probs = np.square(state.amplitudes)
    nonzero = np.flatnonzero(probs)
    return BasisWeights(nonzero, probs[nonzero], state.num_qubits)


def sample(state: Statevector, shots: int, rng: np.random.Generator) -> SampleCounts:
    """Multinomial draw of ``shots`` measurements from the state.

    Deterministic given the generator's stream position.
    """
    if shots < 1:
        raise ValueError("shots must be positive")
    probs = np.square(state.amplitudes)
    probs /= probs.sum()  # guard against 1e-16 normalization drift
    counts_vec = rng.multinomial(shots, probs)
    nonzero = np.flatnonzero(counts_vec)
    return SampleCounts(BasisWeights(nonzero, counts_vec[nonzero], state.num_qubits), shots)


def _key_index(key, dim: int) -> int:
    if not isinstance(key, str):
        raise ValueError(f"bitstring key must be a str, got {key!r}")
    bits_to_array(key, dim)  # raises ValueError naming a malformed key
    return bitstring_to_index(key)


def estimate_energy(
    weights: Union[SampleCounts, Mapping[str, float]], q: CableQubo
) -> tuple[float, tuple[str, float]]:
    """Weighted QUBO energy plus the best observed bitstring.

    ``weights`` is either sampled counts or an exact distribution; weights
    must be finite and nonnegative with a positive total.  Returns (expected
    energy, (minimum-energy bitstring with nonzero weight, its energy));
    energy ties resolve to the lexicographically smallest bitstring.
    """
    if isinstance(weights, SampleCounts):
        weights = weights.counts
    if not weights:
        raise ValueError("no weighted bitstrings to estimate from")
    m = q.dim
    if isinstance(weights, BasisWeights):
        if weights.num_qubits != m:
            raise ValueError(f"{weights.num_qubits}-qubit weights != block dimension {m}")
        idx = weights.indices
        w = np.asarray(weights.weights, dtype=np.float64)
    else:
        keys = list(weights)
        idx = np.array([_key_index(key, m) for key in keys], dtype=np.int64)
        w = np.array([float(weights[key]) for key in keys])
    bad = ~((w >= 0.0) & (w < np.inf))  # NaN fails both comparisons
    if bad.any():
        pos = int(np.argmax(bad))
        raise ValueError(
            f"weight of {index_to_bitstring(int(idx[pos]), m)!r} must be finite and nonnegative, got {w[pos]}"
        )
    if not w.sum() > 0.0:
        raise ValueError("weights must have a positive total")
    nonzero = w > 0.0
    if not nonzero.all():
        idx, w = idx[nonzero], w[nonzero]
    bits = ((idx[:, None] >> np.arange(m)) & 1).astype(np.float64)
    energies = block_energies(q, bits)
    e_exp = float((w @ energies) / w.sum())
    min_energy = energies.min()
    best_key = min(index_to_bitstring(i, m) for i in idx[energies == min_energy].tolist())
    return e_exp, (best_key, float(min_energy))
