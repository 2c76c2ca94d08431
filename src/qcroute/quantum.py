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
few passes over memory, in a ``_Workspace``: the state buffer, the rotation
tiles and every view an evaluation works on, built once for an ansatz shape.
``vqe_solve`` builds one per solve and lends it to ``prepare_state``,
``sample`` and ``exact_distribution``, so that an evaluation allocates no
state-sized array: the state is overwritten in place and squared in place
into the weights, and an exact distribution over every basis state is the
workspace's one ``full_support``.  Without a workspace each call builds a throwaway one, and
its state is a fresh array.  The first rotation layer and the first CNOT
chain are one product state built by doubling (the chain only permutes
amplitudes, so it picks each qubit's cos or sin factor).  Each later
rotation is four in-place numpy calls into prebuilt pair views,
``a0*c + a1*(-s)`` and ``a1*c + a0*s``, which equal ``c*a0 - s*a1`` and
``s*a0 + c*a1`` bit for bit.  A rotation layer runs in two passes over tiles
of ``_TILE`` amplitudes, so that a tile and its scratch stay in cache however
large the state: the low half of the qubits, whose amplitude pairs lie close
together, is rotated in transposed bands of rows, the high half in bands of
columns.  A state of at most one tile is one band in each pass.  The passes
run with numpy's ufunc buffer shrunk to ``_BUFSIZE`` elements inside
``np.errstate``, which keeps the setting to the calling thread and restores
it on exit.

Bit-ordering convention, fixed everywhere: variable i of the QUBO block is
qubit i is the i-th character of a bitstring, and qubit i is bit i of the flat
statevector index (index = sum_i z_i * 2^i).
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .qubo import CableQubo, block_energies, check_block_dim

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


_TILE = 1 << 16  # amplitudes per band of a rotation pass (512 KiB of float64)

# numpy's ufunc buffer size, in elements, within the rotation passes.  A
# multiply into a strided pair view is copied through these buffers: with the
# default 8192 elements (64 KiB an operand) a 16- to 20-qubit preparation took
# about 1.2 times as long as with 64 to 512, which measured alike (2-core
# AVX-512 host, numpy 2.4.6).  A buffer only moves elements, so the floats are
# the same at any size.
_BUFSIZE = 256


def _pair_views(work: np.ndarray, scratch: np.ndarray, qubit: int, shape: tuple[int, int, int]) -> tuple:
    """``(qubit, v0, v1, scratch0, scratch1)``: the pairs that RY on ``qubit``
    updates in ``work`` held as ``shape``, and the same slots of ``scratch``."""
    view, spare = work.reshape(shape), scratch.reshape(shape)
    return qubit, view[:, 0, :], view[:, 1, :], spare[:, 0, :], spare[:, 1, :]


class _Workspace:
    """The buffers and views that preparing states of one ansatz shape needs.

    ``vqe_solve`` builds one per solve, so that an evaluation allocates no
    state-sized array and makes only the numpy calls into views found here:

    * ``amps``, the state, which every ``prepare`` overwrites;
    * the first layer's half and quarter slices of ``amps``;
    * the rotation tile, and a second tile only when the state is larger
      than ``_TILE`` amplitudes;
    * per band of each rotation pass, the pair views ``(v0, v1, scratch0,
      scratch1)`` of every qubit it rotates;
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

        # The first layer, by doubling: (qubit, swap, filled part, its copy).
        # Once the chain follows, the upper quarter takes (sin, cos) (swap).
        self._doubling: list[tuple[int, bool, np.ndarray, np.ndarray]] = []
        for qubit in range(m):
            half = 1 << qubit
            if qubit == 0 or spec.reps == 0:
                self._doubling.append((qubit, False, amps[:half], amps[half:2 * half]))
            else:
                quarter = half >> 1
                self._doubling.append((qubit, False, amps[:quarter], amps[half:half + quarter]))
                self._doubling.append((qubit, True, amps[quarter:half], amps[half + quarter:2 * half]))

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

    def prepare(self, cos: list[float], sin: list[float]) -> np.ndarray:
        """Run the ansatz into ``amps`` and return it; ``cos`` and ``sin`` of every half angle.

        The first layer (and the first chain, by its factors) is filled by
        doubling: amplitude y is the left-to-right product over q of
        ``(cos, sin)[y_q]``, or after the chain ``(cos, sin)[y_q ^ y_(q-1)]``,
        so the lower half of the filled prefix (bit q-1 clear) takes (cos,
        sin) and its upper half (sin, cos).  Later chains and rotation layers
        run with numpy's ufunc buffer at ``_BUFSIZE`` elements, within
        ``np.errstate``, which restores the caller's size on exit, raise or
        not, in this thread only.
        """
        m = self.spec.num_qubits
        self.amps[0] = 1.0
        for qubit, swap, filled, copy in self._doubling:
            c, s = (sin[qubit], cos[qubit]) if swap else (cos[qubit], sin[qubit])
            np.multiply(filled, s, out=copy)
            filled *= c
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

    def _rotation_layer(self, cos: list[float], sin: list[float]) -> None:
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

        A rotation forms ``a0*c + a1*(-s)`` and ``a1*c + a0*s`` in four
        calls, the same IEEE results as ``c*a0 - s*a1`` and ``s*a0 + c*a1``:
        negation is exact, ``x + (-y)`` is ``x - y``, and products and sums
        commute.  Every amplitude sees qubits 0..m-1 in order with the same
        four operations, so the floats are those of the plain update.
        """
        for load, work, scratch, pairs, store in self._bands:
            if load is not None:
                np.copyto(*load)
            for qubit, v0, v1, scratch0, scratch1 in pairs:
                s = sin[qubit]
                np.multiply(v1, -s, out=scratch0)
                np.multiply(v0, s, out=scratch1)
                work *= cos[qubit]
                work += scratch
            if store is not None:
                np.copyto(*store)


def prepare_state(spec: AnsatzSpec, theta, workspace: _Workspace | None = None) -> Statevector:
    """Run the ansatz on |0...0> with the given rotation angles.

    Parameter order is layer by layer, qubit 0..m-1 within each layer;
    ``spec.parameter_count`` angles in total.

    The state is formed in a ``_Workspace`` of ``spec``: the first rotation
    layer and the first CNOT chain as one product state, each later layer
    in place, one tile at a time, with numpy's ufunc buffer shrunk to
    ``_BUFSIZE`` elements for the rotation passes only (restored on exit, in
    this thread only).  The amplitudes are byte-identical to applying the
    gates one at a time.  Without ``workspace`` the call builds a throwaway
    one, so the returned state is a fresh array that no later call touches.
    With the solve's ``workspace`` (built for ``spec``) the state is the
    workspace's own buffer, which the next call overwrites.
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
    # elementwise, as per-angle calls; Python floats, the same doubles
    return Statevector(workspace.prepare(np.cos(half_angles).tolist(), np.sin(half_angles).tolist()))


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
