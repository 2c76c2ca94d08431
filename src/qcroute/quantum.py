"""Dense statevector simulation of a hardware-efficient ansatz, basis-state
sampling, and QUBO energy estimation.

The ansatz is a Y-rotation layer followed, per repetition, by a linear chain
of controlled-NOT gates (control i, target i+1) and another Y-rotation layer.
Only real-amplitude states arise, which is sufficient because the cost
operator is diagonal in the computational basis, so states are held as real
float64 vectors.  A measurement result is a ``BasisWeights``: ascending
basis indices and their positive weights, checked once at construction.  The
'0'/'1' bitstring form is built only for the best state ``estimate_energy``
reports, and for a bad weight's error message.

State preparation forms exactly the floats of the gate-by-gate circuit with
few passes over memory.  The first rotation layer and the first CNOT chain
are one product state built by doubling (the chain only permutes amplitudes,
so it picks each qubit's cos or sin factor).  Each later rotation is four
in-place numpy calls with a scratch buffer, ``a0*c + a1*(-s)`` and
``a1*c + a0*s``, which equal ``c*a0 - s*a1`` and ``s*a0 + c*a1`` bit for bit.
A rotation layer runs in two passes over tiles of ``_TILE`` amplitudes, so
that a tile and its scratch stay in cache however large the state: the low
half of the qubits, whose amplitude pairs lie close together, is rotated in
transposed bands of rows, the high half in bands of columns.  A state of at
most one tile is one band in each pass.

Bit-ordering convention, fixed everywhere: variable i of the QUBO block is
qubit i is the i-th character of a bitstring, and qubit i is bit i of the flat
statevector index (index = sum_i z_i * 2^i).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .qubo import CableQubo, block_energies

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


class BasisWeights:
    """Basis-state indices of an m-qubit register and their positive weights.

    ``indices`` holds at least one basis index, strictly ascending within
    ``[0, 2^num_qubits)``; ``weights`` their weights, in the same order, each
    finite and positive (int counts or float probabilities).  The
    constructor raises ValueError otherwise, naming a bad weight by its
    bitstring, so a zero weight never reaches ``estimate_energy``.
    """

    __slots__ = ("indices", "weights", "num_qubits")

    def __init__(self, indices: np.ndarray, weights: np.ndarray, num_qubits: int) -> None:
        if len(indices) != len(weights):
            raise ValueError(f"{len(indices)} indices but {len(weights)} weights")
        if not len(indices):
            raise ValueError("no weighted basis states")
        # count_nonzero: half the cost of any() on a sample's few indices
        if indices[0] < 0 or indices[-1] >= 1 << num_qubits or np.count_nonzero(indices[1:] <= indices[:-1]):
            raise ValueError(f"indices must be strictly ascending within [0, 2^{num_qubits})")
        if not (weights.min() > 0 and weights.max() < np.inf):  # any NaN makes both NaN
            pos = int(np.argmax(~((weights > 0) & (weights < np.inf))))
            raise ValueError(
                f"weight of {index_to_bitstring(int(indices[pos]), num_qubits)!r} "
                f"must be finite and positive, got {weights[pos]}"
            )
        self.indices = indices
        self.weights = weights
        self.num_qubits = num_qubits

    def __len__(self) -> int:
        return len(self.indices)


@dataclass(frozen=True)
class SampleCounts:
    """Measured counts per basis state; the weights sum to ``shots``."""

    counts: BasisWeights
    shots: int


def index_to_bitstring(index: int, num_qubits: int) -> str:
    return "".join("1" if (index >> i) & 1 else "0" for i in range(num_qubits))


_TILE = 1 << 16  # amplitudes per band of _rotation_layer (512 KiB of float64)


def _rotate(view: np.ndarray, scratch: np.ndarray, c: float, s: float) -> None:
    """RY in place on the pairs ``view[:, 0, :]``, ``view[:, 1, :]``.

    ``scratch`` has the shape of ``view``; ``c`` and ``s`` are the cosine and
    sine of half the angle.  Forms ``a0*c + a1*(-s)`` and ``a1*c + a0*s``,
    the same IEEE results as ``c*a0 - s*a1`` and ``s*a0 + c*a1``: negation
    is exact, ``x + (-y)`` is ``x - y``, and products and sums commute.
    """
    np.multiply(view[:, 1, :], -s, out=scratch[:, 0, :])
    np.multiply(view[:, 0, :], s, out=scratch[:, 1, :])
    view *= c
    view += scratch


def _cnot_chain(amps: np.ndarray, num_qubits: int) -> np.ndarray:
    """CNOT(0,1), CNOT(1,2), ..., CNOT(m-2,m-1) as one gather.

    The chain maps basis index x to its prefix XOR (bit j becomes
    x_0 ^ ... ^ x_j), whose inverse is y -> y ^ (y << 1) within m bits.
    """
    source = np.arange(1 << num_qubits)
    source ^= (source << 1) & ((1 << num_qubits) - 1)
    return amps[source]


def _first_layer(cos: np.ndarray, sin: np.ndarray, entangle: bool) -> np.ndarray:
    """The first RY layer on |0...0>, then the CNOT chain if ``entangle``.

    Built by doubling in qubit order: amplitude y is the product, left to
    right over q, of ``(cos, sin)[y_q]`` of qubit q, the same products the
    gate-by-gate update forms.  The chain only permutes amplitudes, by its
    inverse ``y -> y ^ (y << 1)``, so after it the factor of qubit q is
    ``(cos, sin)[y_q ^ y_(q-1)]``: the lower half of the filled prefix
    (bit q-1 clear) takes (cos, sin) and its upper half (sin, cos).  Four
    in-place multiplies per qubit, with no index array and no gather.
    """
    amps = np.empty(1 << len(cos))
    amps[0] = 1.0
    for qubit, (c, s) in enumerate(zip(cos, sin)):
        half = 1 << qubit
        if qubit == 0 or not entangle:
            np.multiply(amps[:half], s, out=amps[half:2 * half])
            amps[:half] *= c
        else:
            quarter = half >> 1
            np.multiply(amps[:quarter], s, out=amps[half:half + quarter])
            np.multiply(amps[quarter:half], c, out=amps[half + quarter:2 * half])
            amps[:quarter] *= c
            amps[quarter:half] *= s
    return amps


def _rotation_layer(amps: np.ndarray, num_qubits: int, cos: np.ndarray, sin: np.ndarray) -> None:
    """RY on every qubit, qubit 0 first, in place on ``amps``, one tile at a time.

    The state is held as the grid ``(2^(m-h), 2^h)``, ``h = m // 2``: a row
    holds the low qubits ``0..h-1``, a column the high qubits ``h..m-1``.
    Pass 1 takes bands of rows: each band is transposed into the tile, where
    qubit q pairs rows of the tile ``2^q`` apart, its low qubits are rotated
    with the band's own memory as the scratch, and the tile is transposed
    back.  Pass 2 takes bands of columns: each band is copied into the tile,
    its high qubits are rotated with a second tile as the scratch, and it is
    copied back.  A band holds about ``_TILE`` amplitudes, so a tile and its
    scratch stay in cache however large the state.  A state of at most
    ``_TILE`` amplitudes is one band in each pass: pass 2 then rotates the
    contiguous state in place, with the one tile as the scratch.  Every
    amplitude still sees qubits 0..m-1 in order with the same four
    operations, so the floats are those of the plain update.
    """
    m = num_qubits
    h = m // 2
    low, high = 1 << h, 1 << (m - h)
    grid = amps.reshape(high, low)
    rows = min(high, max(1, _TILE >> h))  # a pass-1 band is (rows, low)
    cols = min(low, max(1, _TILE >> (m - h)))  # a pass-2 band is (high, cols)
    tile = np.empty(max(rows * low, high * cols))
    work = tile[:rows * low]
    for row in range(0, high, rows):
        band = grid[row:row + rows]
        np.copyto(work.reshape(low, rows), band.T)
        for qubit in range(h):
            shape = (1 << (h - qubit - 1), 2, rows << qubit)
            _rotate(work.reshape(shape), band.reshape(shape), cos[qubit], sin[qubit])
        np.copyto(band, work.reshape(low, rows).T)
    whole = cols == low  # one band: rotate the contiguous state in place
    work = amps if whole else tile[:high * cols]
    spare = tile if whole else np.empty(high * cols)
    for col in range(0, low, cols):
        band = grid[:, col:col + cols]
        if not whole:
            np.copyto(work.reshape(high, cols), band)
        for qubit in range(h, m):
            shape = (1 << (m - qubit - 1), 2, cols << (qubit - h))
            _rotate(work.reshape(shape), spare.reshape(shape), cos[qubit], sin[qubit])
        if not whole:
            np.copyto(band, work.reshape(high, cols))


def prepare_state(spec: AnsatzSpec, theta) -> Statevector:
    """Run the ansatz on |0...0> with the given rotation angles.

    Parameter order is layer by layer, qubit 0..m-1 within each layer;
    ``spec.parameter_count`` angles in total.

    The first rotation layer and the first CNOT chain are built together as
    a product state (``_first_layer``).  Each later rotation layer works in
    place, one tile at a time (``_rotation_layer``: the rotation identity of
    ``_rotate``; the low qubits in transposed bands of rows with the band as
    the scratch, the high qubits in bands of columns with a second tile as
    the scratch).  A state of at most ``_TILE`` amplitudes is one band in
    each pass and needs one state-sized buffer; a larger one needs two
    tiles and no state-sized scratch.  Only chains from the second on take
    the ``_cnot_chain`` gather.  The amplitudes are byte-identical to
    applying the gates one at a time.
    """
    theta = np.asarray(theta, dtype=np.float64)
    if theta.shape != (spec.parameter_count,):
        raise ValueError(
            f"expected {spec.parameter_count} parameters, got {theta.shape}"
        )
    m = spec.num_qubits
    half_angles = theta / 2.0
    cos, sin = np.cos(half_angles), np.sin(half_angles)  # elementwise, as per-angle calls
    amps = _first_layer(cos[:m], sin[:m], entangle=spec.reps > 0)
    for layer in range(1, spec.reps + 1):
        if layer > 1:
            amps = _cnot_chain(amps, m)
        angles = slice(layer * m, (layer + 1) * m)
        _rotation_layer(amps, m, cos[angles], sin[angles])
    return Statevector(amps)


def exact_distribution(state: Statevector) -> BasisWeights:
    """Measurement distribution |amplitude|^2; zero-probability states omitted."""
    probs = np.square(state.amplitudes)
    nonzero = np.flatnonzero(probs != 0)  # nonzero scans a bool mask faster than floats
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
    del probs  # freed before the mask, which then adds nothing to the peak
    nonzero = np.flatnonzero(counts_vec != 0)
    return SampleCounts(BasisWeights(nonzero, counts_vec[nonzero], state.num_qubits), shots)


def estimate_energy(weights: BasisWeights | SampleCounts, q: CableQubo) -> tuple[float, tuple[str, float]]:
    """Weighted QUBO energy plus the best observed bitstring.

    ``weights`` is a ``BasisWeights`` (an exact distribution) or sampled
    counts over one; any other type, or one of another qubit count than
    the block's dimension, raises ValueError.  Its constructor has already
    checked the weights (finite and positive), so they are used as they
    are.  Returns (expected energy, (minimum-energy weighted bitstring, its
    energy)); energy ties resolve to the lexicographically smallest
    bitstring.

    With weight on all 2^m basis states, as in the usual exact
    distribution, the indices are 0..2^m-1 in order (the ``BasisWeights``
    invariant), and the energies come from the block's ``energy_table``,
    built once per block: ``block_energies``' expression on the same bit
    matrix, formed 2^12 rows at a time, which gives the same floats.  Weights
    missing some basis state (most samples, or a state with a zero amplitude)
    have the energies of their own indices computed per call: looking them
    up in the table would not be byte-identical, because a ``bits @ Q`` of
    few rows may take another BLAS path than the full matrix.
    """
    if isinstance(weights, SampleCounts):
        weights = weights.counts
    if not isinstance(weights, BasisWeights):
        raise ValueError(f"weights must be BasisWeights or SampleCounts over them, got {type(weights).__name__}")
    m = q.dim
    if weights.num_qubits != m:
        raise ValueError(f"{weights.num_qubits}-qubit weights != block dimension {m}")
    idx = weights.indices
    w = np.asarray(weights.weights, dtype=np.float64)
    if len(idx) == 1 << m:
        energies = q.energy_table  # idx is exactly arange(2^m)
    else:
        energies = block_energies(q, ((idx[:, None] >> np.arange(m)) & 1).astype(np.float64))
    e_exp = float((w @ energies) / w.sum())
    min_energy = energies.min()
    best_key = min(index_to_bitstring(i, m) for i in idx[energies == min_energy].tolist())
    return e_exp, (best_key, float(min_energy))
