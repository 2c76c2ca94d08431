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

``prepare_state`` forms exactly the floats of the gate-by-gate circuit in a
``_Workspace``, which lists the buffers an evaluation reuses;
``_Workspace.prepare`` and ``_Workspace._rotation_layer`` show why the
floats are those of the plain gates.  ``estimate_energy`` takes a block's
energies from ``CableQubo.energies``.

Bit-ordering convention, fixed everywhere: variable i of the QUBO block is
qubit i is the i-th character of a bitstring, and qubit i is bit i of the flat
statevector index (index = sum_i z_i * 2^i).
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .qubo import CableQubo, check_block_dim

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
    """The '0'/'1' string of basis ``index`` < 2^num_qubits, character i for bit i."""
    return format(index, f"0{num_qubits}b")[::-1]


_TILE = 1 << 16  # amplitudes per band of a rotation pass (512 KiB of float64)

# numpy's ufunc buffer size, in elements, within the rotation passes.  A
# multiply into a strided pair view is copied through these buffers: with the
# default 8192 elements (64 KiB an operand) a 16- to 20-qubit preparation took
# about 1.2 times as long as with 64 to 512, which measured alike (2-core
# AVX-512 host, numpy 2.4.6).  A buffer only moves elements, so the floats are
# the same at any size.
_BUFSIZE = 256


def _pair_views(work: np.ndarray, scratch: np.ndarray, qubit: int, shape: tuple[int, int, int]) -> tuple:
    """``(qubit, swapped, spare)``: the pairs that RY on ``qubit`` updates in
    ``work`` held as ``shape``, each pair's two amplitudes swapped, and the
    same slots of ``scratch``."""
    return qubit, work.reshape(shape)[:, ::-1, :], scratch.reshape(shape)


class _Workspace:
    """The buffers and views that preparing states of one ansatz shape needs.

    ``vqe_solve`` builds one per solve, so that an evaluation allocates no
    state-sized array and makes only the numpy calls into views found here:

    * ``amps``, the state, which every ``prepare`` overwrites;
    * the first layer's halves of ``amps`` (in two quarters once a chain
      follows), and a ``(4, m)`` table of their factors with a column view
      per qubit;
    * a later layer's ``(-sin, sin)`` per qubit, each as a column view;
    * the rotation tile, and a second tile only when the state is larger
      than ``_TILE`` amplitudes;
    * per band of each rotation pass, the swapped pair view and the scratch
      view of every qubit it rotates;
    * from ``reps`` 2 on, the CNOT chain's index and gather buffer;
    * ``full_support``, the ``BasisWeights`` of ``amps`` over ``arange(2^m)``
      that every full-support exact distribution returns, built on first use.

    The constructor applies ``check_block_dim`` before it allocates.
    """

    def __init__(self, spec: AnsatzSpec) -> None:
        m = spec.num_qubits
        check_block_dim(m)
        self.spec = spec
        self.amps = amps = np.empty(1 << m)

        # The first layer, by doubling: (filled part, its copy, their factors)
        # per qubit, the factors read from rows (cos, sin, sin, cos) of the
        # first layer's angles.  Once the chain follows, the filled part is
        # two quarters: the lower takes (cos, sin), the upper (sin, cos).
        self._factors = np.empty((4, m))
        self._doubling: list[tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]] = []
        for qubit in range(m):
            half = 1 << qubit
            filled, copy = amps[:half], amps[half:2 * half]
            factors = self._factors[:, qubit:qubit + 1]
            if qubit == 0 or spec.reps == 0:
                self._doubling.append((filled, copy, factors[0], factors[1]))
            else:
                quarters = (2, half >> 1)
                self._doubling.append((filled.reshape(quarters), copy.reshape(quarters), factors[0:2], factors[2:4]))

        # A later layer's (-sin, sin) per qubit, each as a (1, 2, 1) column.
        self._signed_sin = np.empty((2, m))
        self._coefs = [self._signed_sin[:, qubit].reshape(1, 2, 1) for qubit in range(m)]

        # The rotation passes: (load, work, scratch, pairs, store) per band.
        h = m // 2
        low, high = 1 << h, 1 << (m - h)
        grid = amps.reshape(high, low)
        rows = min(high, max(1, _TILE >> h))  # a pass-1 band is (rows, low)
        cols = min(low, max(1, _TILE >> (m - h)))  # a pass-2 band is (high, cols)
        tile = np.empty(max(rows * low, high * cols))
        self._bands: list[tuple] = []
        work = tile[:rows * low]
        transposed = work.reshape(low, rows)
        for row in range(0, high if h else 0, rows):
            band = grid[row:row + rows]
            scratch = band.reshape(-1)
            pairs = [_pair_views(work, scratch, q, (1 << (h - q - 1), 2, rows << q)) for q in range(h)]
            self._bands.append(((transposed, band.T), work, scratch, pairs, (band, transposed.T)))
        whole = cols == low  # one band: rotate the contiguous state in place
        work = amps if whole else tile[:high * cols]
        spare = tile if whole else np.empty(high * cols)
        pairs = [_pair_views(work, spare, q, (1 << (m - q - 1), 2, cols << (q - h))) for q in range(h, m)]
        block = work.reshape(high, cols)
        for col in range(0, low, cols):
            band = grid[:, col:col + cols]
            load, store = (None, None) if whole else ((block, band), (band, block))
            self._bands.append((load, work, spare, pairs, store))

        if spec.reps > 1:
            self._source = np.arange(1 << m)
            self._source ^= (self._source << 1) & ((1 << m) - 1)
            self._gathered = tile if whole else np.empty(1 << m)

    @functools.cached_property
    def full_support(self) -> BasisWeights:
        """``amps`` as the weights of the read-only indices ``arange(2^m)``, checked once."""
        indices = np.arange(len(self.amps))
        indices.flags.writeable = False
        return BasisWeights(indices, self.amps, self.spec.num_qubits)

    def prepare(self, cos: np.ndarray, sin: np.ndarray) -> np.ndarray:
        """Run the ansatz into ``amps`` and return it; ``cos`` and ``sin`` of every half angle.

        The first layer (and the first chain, by its factors) is filled by
        doubling: amplitude y is the left-to-right product over q of
        ``(cos, sin)[y_q]``, or after the chain ``(cos, sin)[y_q ^ y_(q-1)]``,
        so the lower half of the filled prefix (bit q-1 clear) takes (cos,
        sin) and its upper half (sin, cos): one broadcast multiply into the
        copy and one into the filled part per qubit.  Later chains and
        rotation layers run with numpy's ufunc buffer at ``_BUFSIZE``
        elements, within ``np.errstate``, which restores the caller's size
        on exit, raise or not, in this thread only.
        """
        m = self.spec.num_qubits
        self._factors[0::3] = cos[:m]
        self._factors[1:3] = sin[:m]
        self.amps[0] = 1.0
        for filled, copy, f_filled, f_copy in self._doubling:
            np.multiply(filled, f_copy, out=copy)
            filled *= f_filled
        cos = cos.tolist()
        with np.errstate():
            np.setbufsize(_BUFSIZE)
            for layer in range(1, self.spec.reps + 1):
                if layer > 1:
                    self._cnot_chain()
                self._rotation_layer(cos[layer * m:(layer + 1) * m], sin[layer * m:(layer + 1) * m])
        return self.amps

    def _cnot_chain(self) -> None:
        """CNOT(0,1), CNOT(1,2), ..., CNOT(m-2,m-1) on ``amps``, as one gather.

        The chain maps basis index x to its prefix XOR (bit j becomes
        x_0 ^ ... ^ x_j), whose inverse is y -> y ^ (y << 1) within m bits:
        the index built once, gathered into a buffer and copied back.
        """
        # every index is in range; "clip" spares take's buffered copy of out
        np.take(self.amps, self._source, out=self._gathered, mode="clip")
        np.copyto(self.amps, self._gathered)

    def _rotation_layer(self, cos: list[float], sin: np.ndarray) -> None:
        """RY on every qubit, qubit 0 first, in place on ``amps``, one band at a time.

        The state is held as the grid ``(2^(m-h), 2^h)``, ``h = m // 2``: a
        row holds the low qubits ``0..h-1``, a column the high qubits
        ``h..m-1``.  Pass 1 takes bands of rows: each band is transposed into
        the tile, where qubit q pairs rows of the tile ``2^q`` apart, its low
        qubits are rotated with the band's own memory as the scratch, and
        the tile is transposed back.  Pass 2 takes bands of columns: each
        band is copied into the tile, its high qubits are rotated with a
        second tile as the scratch, and it is copied back.  A band holds
        about ``_TILE`` amplitudes, so a tile and its scratch stay in cache
        however large the state.  A state of at most ``_TILE`` amplitudes is
        one band in each pass: pass 2 then rotates the contiguous state in
        place, with the one tile as the scratch.

        A rotation forms ``a0*c + a1*(-s)`` and ``a1*c + a0*s`` in three
        calls: the swapped pairs ``(a1, a0)`` times the qubit's column
        ``(-s, s)`` of ``_signed_sin`` into the scratch, the band times ``c``, and the
        scratch added.  These are the same IEEE results as ``c*a0 - s*a1``
        and ``s*a0 + c*a1``: negation is exact, ``x + (-y)`` is ``x - y``,
        and products and sums commute.  Every amplitude sees qubits 0..m-1
        in order with the same operations, so the floats are those of the
        plain update.
        """
        np.negative(sin, out=self._signed_sin[0])
        self._signed_sin[1] = sin
        for load, work, scratch, pairs, store in self._bands:
            if load is not None:
                np.copyto(*load)
            for qubit, swapped, spare in pairs:
                np.multiply(swapped, self._coefs[qubit], out=spare)
                work *= cos[qubit]
                work += scratch
            if store is not None:
                np.copyto(*store)


def prepare_state(spec: AnsatzSpec, theta, workspace: _Workspace | None = None) -> Statevector:
    """Run the ansatz on |0...0> with the given rotation angles.

    Parameter order is layer by layer, qubit 0..m-1 within each layer;
    ``spec.parameter_count`` angles in total.

    The amplitudes are byte-identical to applying the gates one at a time
    (``_Workspace.prepare``).  Without ``workspace`` the call builds a
    throwaway one, so the returned state is a fresh array that no later call
    touches.  With the solve's ``workspace`` (built for ``spec``) the state
    is the workspace's own buffer, which the next call overwrites.
    """
    theta = np.asarray(theta, dtype=np.float64)
    if theta.shape != (spec.parameter_count,):
        raise ValueError(
            f"expected {spec.parameter_count} parameters, got {theta.shape}"
        )
    if workspace is None:
        workspace = _Workspace(spec)
    elif workspace.spec != spec:
        raise ValueError(f"workspace built for {workspace.spec}, not {spec}")
    half_angles = theta / 2.0
    return Statevector(workspace.prepare(np.cos(half_angles), np.sin(half_angles)))


def _squares(state: Statevector, workspace: _Workspace | None) -> np.ndarray:
    """The squared amplitudes, in the lent ``workspace``'s buffer if there is
    one; a workspace of another size raises ValueError."""
    if workspace is None:
        return np.square(state.amplitudes)
    if len(state.amplitudes) != len(workspace.amps):
        raise ValueError(f"a {state.num_qubits}-qubit state does not fit a workspace built for {workspace.spec}")
    return np.square(state.amplitudes, out=workspace.amps)


def exact_distribution(state: Statevector, workspace: _Workspace | None = None) -> BasisWeights:
    """Measurement distribution |amplitude|^2; zero-probability states omitted.

    With every probability finite and nonzero, the usual case, the squared
    amplitudes are the weights as they are, over indices 0..2^m-1;
    otherwise the nonzero ones are gathered, and the check names a bad one.
    A ``workspace`` of the state's size is lent as scratch: the squares go
    into its buffer (a state not its own is left as it is), and a full
    support returns its ``full_support``, one object for every call, built
    at the first, whose weights live until the workspace's next use.
    """
    probs = _squares(state, workspace)
    if not (probs.min() > 0 and probs.max() < np.inf):  # a NaN makes both NaN
        nonzero = np.flatnonzero(probs != 0)  # nonzero scans a bool mask faster than floats
        return BasisWeights(nonzero, probs[nonzero], state.num_qubits)
    if workspace is None:
        return BasisWeights(np.arange(len(probs)), probs, state.num_qubits)
    return workspace.full_support


def sample(state: Statevector, shots: int, rng: np.random.Generator, workspace: _Workspace | None = None) -> SampleCounts:
    """Multinomial draw of ``shots`` measurements from the state.

    Deterministic given the generator's stream position.  A lent
    ``workspace`` of the state's size holds the probabilities in its buffer
    (a state not its own is left as it is).
    """
    if shots < 1:
        raise ValueError("shots must be positive")
    probs = _squares(state, workspace)
    probs /= probs.sum()  # guard against 1e-16 normalization drift
    counts_vec = rng.multinomial(shots, probs)
    del probs  # without a workspace, freed before the mask, which then adds nothing to the peak
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
    bitstring.  The energies are ``q.energies`` of the weighted states.
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
    energies = q.energies(idx)
    e_exp = float((w @ energies) / w.sum())
    min_energy = energies.min()
    best_key = min(index_to_bitstring(i, m) for i in idx[energies == min_energy].tolist())
    return e_exp, (best_key, float(min_energy))
