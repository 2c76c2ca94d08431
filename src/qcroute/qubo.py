"""Per-cable QUBO blocks with exact-penalty weights, the block-diagonal global
form, energy evaluation, and an Ising export.

Bitstrings are strings of '0'/'1' whose i-th character is variable i of a
block.  Positions 0..d-1 are segment-use bits in instance segment order;
positions d.. are internal-node bits sorted by node id.

A block's energy is ``z^T Q z + offset``.  The offset carries the constant
terms dropped when the two squared start/terminal penalties are expanded, so
reported energies equal the plain routing objective plus the literal penalty
values: a feasible minimum's energy is exactly its routing cost.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from functools import cached_property
from typing import Iterator, Sequence

import numpy as np

from .instance import Cable, Instance, incident_segments

__all__ = [
    "PenaltyWeights",
    "VariableMap",
    "CableQubo",
    "GlobalQubo",
    "IsingModel",
    "variable_map",
    "default_penalties",
    "scale_penalties",
    "build_cable_qubo",
    "qubo_energy",
    "assemble_global",
    "to_ising",
    "ising_energy",
    "spins_from_bits",
    "qubo_document",
    "ising_document",
    "bits_to_array",
    "block_energies",
    "BLOCK_DIM_CAP",
    "check_block_dim",
]

# Largest block any solver takes: a 2^24-amplitude float64 statevector (128 MiB;
# a sampled solve squares it in place and adds the multinomial counts, 128 MiB,
# an exact solve the int64 indices 0..2^24-1, 128 MiB, and neither needs a
# state-sized scratch) or 2^24 enumerated bitstrings (energies formed 2^12 rows
# at a time in about 1.5 MiB of reused buffers; the energy table itself is
# 128 MiB).  The row of blocks that ``vqe.cable_block`` keeps holds one table per
# cable after an exact solve: four 24-variable tables are 512 MiB.  A sampled
# solve that runs its cables on threads (``vqe.solve_cables``, at most 2) holds
# two solves at once: two 24-qubit sampled solves hold about 512 MiB.
# Brute force screens every 2^12-row chunk at about 12 flops a state and forms
# only the chunks that can hold the minimum.
BLOCK_DIM_CAP = 24


def check_block_dim(dim: int) -> None:
    """Raise ValueError if a block of ``dim`` variables is over ``BLOCK_DIM_CAP``.

    The one check of the cap, for the statevector, the energy table and
    exhaustive search alike, made before anything is allocated.
    """
    if dim > BLOCK_DIM_CAP:
        raise ValueError(f"block dimension {dim} exceeds the cap of {BLOCK_DIM_CAP} variables")


@dataclass(frozen=True)
class PenaltyWeights:
    """Penalty weights (eta1..eta4) plus the incidence-cost sums they derive from.

    w1/w2 are the cost sums over segments incident to the source/terminal, w3
    is the largest such sum over internal nodes.  With kappa=1 the weights sit
    exactly at their lower bounds eta_i = 1 + w_i (eta4 = 1): any smallest
    constraint violation then costs more than the largest local cost saving.
    """

    eta1: float
    eta2: float
    eta3: float
    eta4: float
    w1: float
    w2: float
    w3: float
    kappa: float = 1.0

    def __post_init__(self) -> None:
        if not 0.0 < self.kappa < math.inf:  # NaN fails both comparisons
            raise ValueError(f"kappa must be positive and finite, got {self.kappa}")
        for name in ("eta1", "eta2", "eta3", "eta4", "w1", "w2", "w3"):
            value = getattr(self, name)
            if not 0 <= value < math.inf:  # NaN fails both comparisons
                raise ValueError(f"{name} must be nonnegative and finite at kappa {self.kappa}")

    def as_vector(self) -> tuple[float, float, float, float]:
        return (self.eta1, self.eta2, self.eta3, self.eta4)


@dataclass(frozen=True)
class VariableMap:
    """Block variable order: segment ids first, then internal node ids."""

    segment_vars: tuple[str, ...]
    node_vars: tuple[str, ...]

    @property
    def dim(self) -> int:
        return len(self.segment_vars) + len(self.node_vars)

    def labels(self) -> list[str]:
        return [f"x:{s}" for s in self.segment_vars] + [f"b:{k}" for k in self.node_vars]


_GATHER_STATES = 1 << 16  # most states of an exact block whose subsets read its table (512 KiB)


@dataclass(frozen=True, eq=False)
class CableQubo:
    """One cable's penalty-augmented QUBO block.

    Three facts are cached per block on first use: ``energy_bound``, the
    bound ``A`` on every energy and partial sum; ``energy_table``, the
    energies of every basis state; and ``exact_energies``, whether every
    energy is formed without rounding.  ``energies`` reads them to give the
    per-call bytes for any set of states.
    """

    dim: int
    q: np.ndarray
    offset: float
    vmap: VariableMap
    penalties: PenaltyWeights
    cable_id: str

    @cached_property
    def energy_bound(self) -> float:
        """``A = sum |Q_ij| + |offset|``, at least ``|energy|`` and every
        partial sum of it; infinite or NaN for a block with such a term."""
        return float(np.abs(self.q).sum()) + abs(self.offset)

    @cached_property
    def energy_table(self) -> np.ndarray:
        """Energies of all 2^dim basis states, indexed by basis index.

        Entry y is the energy of the bitstring whose variable i is bit i of
        y: ``block_energies``' expression over the bit matrix in ascending
        index order, written straight into the table by ``_chunk_energies``
        2^12 rows at a time (one chunk up to 12 variables), so a build holds
        the table plus about 1.3 MiB at 20 variables.  Built on first use
        and kept for the block's lifetime; read-only.  A block over
        ``BLOCK_DIM_CAP`` variables raises ValueError before anything is
        allocated.
        """
        check_block_dim(self.dim)
        table = np.empty(1 << self.dim)
        for _ in _chunk_energies(self, range(self.dim), table):
            pass
        table.flags.writeable = False
        return table

    @cached_property
    def exact_energies(self) -> bool:
        """Whether every form of every energy of this block is computed exactly.

        True when every ``Q_ij`` and the offset are integer multiples of one
        ``2^-K`` with ``A·2^K ≤ 2^53``, ``A = Σ|Q_ij| + |offset|`` (and the
        offset is not -0.0).  Then every partial sum of any subset of the
        terms, in any order, is an integer multiple of ``2^-K`` of magnitude
        at most ``2^53·2^-K``, so it is a float: every BLAS kernel, row count
        and summation order gives the same energy bytes, and a lookup in
        ``energy_table`` equals the per-call computation.  ``K`` is ``53 - e``
        for the float ``A < 2^e``; the float ``A`` is at least ``2^53·2^-K``
        whenever the exact one is, so the test is sound.  Computed on first
        use and kept for the block's lifetime.
        """
        bound = self.energy_bound
        if not math.isfinite(bound) or math.copysign(1.0, self.offset) == -1.0 and self.offset == 0.0:
            return False  # with offset -0.0, a zero energy's sign would follow the summation order
        scaled = np.ldexp(np.append(self.q, self.offset), 53 - math.frexp(bound)[1])
        return bool(np.all(scaled == np.rint(scaled)))

    def energies(self, indices: np.ndarray) -> np.ndarray:
        """Energies of the strictly ascending basis ``indices``, with the
        bytes of ``block_energies`` on their own bit rows.

        All 2^dim states return ``energy_table`` itself.  An exact block of
        at most ``_GATHER_STATES`` states gathers from the table, since no
        summation order can round.  Any other set is formed per call: there a
        ``bits @ Q`` of few rows may take another BLAS path than the table's
        chunks, and its floats may differ in the last bit.
        """
        if len(indices) == 1 << self.dim:
            return self.energy_table
        if 1 << self.dim <= _GATHER_STATES and self.exact_energies:
            return self.energy_table[indices]
        return block_energies(self, ((indices[:, None] >> np.arange(self.dim)) & 1).astype(np.float64))


@dataclass(frozen=True, eq=False)
class GlobalQubo:
    """Block-diagonal assembly of per-cable blocks."""

    q: np.ndarray
    offset: float
    blocks: tuple[CableQubo, ...]

    @property
    def dim(self) -> int:
        return self.q.shape[0]

    def split(self, z: str) -> list[str]:
        """Slice a concatenated bitstring into per-block bitstrings."""
        if len(z) != self.dim:
            raise ValueError(f"bitstring length {len(z)} != global dimension {self.dim}")
        out, pos = [], 0
        for block in self.blocks:
            out.append(z[pos : pos + block.dim])
            pos += block.dim
        return out

    def energy(self, z: str) -> float:
        """Global energy, evaluated block by block (no cross terms exist)."""
        return sum(qubo_energy(block, part) for block, part in zip(self.blocks, self.split(z)))


@dataclass(frozen=True, eq=False)
class IsingModel:
    """Spin form of a block: energy(s) = constant + h.s + sum_{i<j} J_ij s_i s_j.

    Convention: spin s_i in {+1, -1} with x_i = (1 - s_i) / 2, so x=1 maps to
    s=-1.  ``j`` is symmetric with zero diagonal.
    """

    h: np.ndarray
    j: np.ndarray
    constant: float


def bits_to_array(z: str, dim: int) -> np.ndarray:
    """The float 0/1 vector of a '0'/'1' bitstring of length ``dim``.

    Raises ValueError for any other type, length or character.
    """
    if not isinstance(z, str):
        raise ValueError(f"bitstring must be a str of 0/1, got {type(z).__name__} {z!r}")
    if len(z) != dim:
        raise ValueError(f"bitstring {z!r} has length {len(z)} != dimension {dim}")
    if set(z) - {"0", "1"}:
        raise ValueError(f"bitstring may contain only 0/1: {z!r}")
    return np.frombuffer(z.encode("ascii"), dtype=np.uint8).astype(np.float64) - 48.0


def variable_map(instance: Instance, cable: Cable) -> VariableMap:
    return VariableMap(
        segment_vars=tuple(s.id for s in instance.segments),
        node_vars=instance.internal_nodes(cable),
    )


def default_penalties(instance: Instance, cable: Cable) -> PenaltyWeights:
    """Exact-penalty lower-bound weights for one cable (kappa = 1).

    w1 and w2 sum the cable's costs over segments incident to the source and
    terminal; w3 takes the maximum such sum over internal nodes.  The weights
    are eta_i = 1 + w_i for i in 1..3 and eta4 = 1.
    """

    def incident_cost(node_id: str) -> float:
        return sum(cable.costs[instance.segments[i].id] for i in incident_segments(instance, node_id))

    w1 = incident_cost(cable.source)
    w2 = incident_cost(cable.terminal)
    w3 = max((incident_cost(k) for k in instance.internal_nodes(cable)), default=0.0)
    return PenaltyWeights(
        eta1=1.0 + w1, eta2=1.0 + w2, eta3=1.0 + w3, eta4=1.0,
        w1=w1, w2=w2, w3=w3, kappa=1.0,
    )


def scale_penalties(p: PenaltyWeights, kappa: float) -> PenaltyWeights:
    """Multiply every eta by ``kappa``; the w record is kept, kappa accumulates.

    The accumulated kappa must stay positive and finite (PenaltyWeights checks).
    """
    return replace(
        p,
        eta1=p.eta1 * kappa, eta2=p.eta2 * kappa,
        eta3=p.eta3 * kappa, eta4=p.eta4 * kappa,
        kappa=p.kappa * kappa,
    )


@np.errstate(over="ignore", invalid="ignore")  # an overflow raises the ValueError below
def build_cable_qubo(instance: Instance, cable: Cable, penalties: PenaltyWeights) -> CableQubo:
    """Assemble one cable's QUBO block over variables z = (x, b).

    The block is the sum of:
      * routing cost        diag(costs) on the segment bits,
      * start penalty       eta1 * (sum_{s at source} x_s - 1)^2,
      * terminal penalty    eta2 * (sum_{s at terminal} x_s - 1)^2,
      * flow penalty        eta3 * || F^T x - 2 b ||^2  over internal nodes,
      * selection penalty   eta4 * sum (x_s - x_s b_k)  for s incident to k.

    F is the d x p incidence matrix of segments vs internal nodes.  The two
    squared penalties contribute the constant eta1 + eta2, tracked as the
    block offset.  The matrix is exactly symmetric by construction.  Raises
    ValueError unless twice the block's ``energy_bound`` is finite, so a
    coefficient, the offset or any energy overflowing rejects the block.
    """
    vmap = variable_map(instance, cable)
    d = instance.num_segments
    p = len(vmap.node_vars)
    dim = d + p
    q = np.zeros((dim, dim))

    costs = np.array([cable.costs[s] for s in vmap.segment_vars])
    q[:d, :d] += np.diag(costs)

    for eta, node_id in ((penalties.eta1, cable.source), (penalties.eta2, cable.terminal)):
        f = np.zeros(d)
        f[incident_segments(instance, node_id)] = 1.0
        q[:d, :d] += eta * (np.outer(f, f) - 2.0 * np.diag(f))

    f_mat = np.zeros((d, p))
    for col, node_id in enumerate(vmap.node_vars):
        f_mat[incident_segments(instance, node_id), col] = 1.0

    q[:d, :d] += penalties.eta3 * (f_mat @ f_mat.T)
    q[:d, d:] += penalties.eta3 * (-2.0 * f_mat)
    q[d:, :d] += penalties.eta3 * (-2.0 * f_mat.T)
    q[d:, d:] += penalties.eta3 * (4.0 * np.eye(p))

    q[:d, :d] += penalties.eta4 * np.diag(f_mat.sum(axis=1))
    q[:d, d:] += penalties.eta4 * (-0.5 * f_mat)
    q[d:, :d] += penalties.eta4 * (-0.5 * f_mat.T)

    q.flags.writeable = False  # blocks are shared (``vqe.cable_block``)
    block = CableQubo(
        dim=dim,
        q=q,
        offset=penalties.eta1 + penalties.eta2,
        vmap=vmap,
        penalties=penalties,
        cable_id=cable.id,
    )
    if not math.isfinite(2.0 * block.energy_bound):
        raise ValueError(
            f"block of cable {cable.id!r} at kappa {penalties.kappa} has a non-finite coefficient or energy bound"
        )
    return block


def _basis_bits(columns: Sequence[int], width: int) -> np.ndarray:
    """The (2^k, width) 0/1 float matrix holding bit j of row r in ``columns[j]``.

    k is ``len(columns)``; the other columns are 0.  Built by doubling:
    rows ``[0, 2^j)`` are copied to ``[2^j, 2^(j+1))`` and column
    ``columns[j]`` of the copy is set to 1, so no integer matrix is formed.
    """
    bits = np.zeros((1 << len(columns), width))
    for j, column in enumerate(columns):
        half = 1 << j
        bits[half:2 * half] = bits[:half]
        bits[half:2 * half, column] = 1.0
    return bits


_CHUNK_BITS = 12  # counter bits per chunk of _chunk_energies: 2^12 rows


def _chunk_energies(
    q: CableQubo,
    columns: Sequence[int],
    table: np.ndarray | None = None,
    starts: Sequence[int] | None = None,
) -> Iterator[tuple[int, np.ndarray]]:
    """Energies of all 2^dim counters, 2^12 rows at a time.

    ``columns`` is a permutation of the block's variables: row r of the
    chunk starting at counter ``start`` is counter ``start + r``, whose bit
    j is in column ``columns[j]``.  The low 12 counter bits repeat in every
    chunk, so their bit matrix is built once per call; per chunk only the
    columns of the higher bits, constant within a chunk, are refilled from
    ``start``.  Each chunk's energies are ``block_energies`` formed in
    buffers allocated once per call (a (2^12, dim) work matrix
    and, without ``table``, a 2^12 energies vector), so a 20-variable call
    holds about 1.3 MiB and the chunk's operands stay in cache.  Every chunk
    has the same shape, so every ``bits @ Q`` takes the same BLAS path; 2^12
    is the fewest rows that keep the floats of one product over all rows,
    since below it OpenBLAS takes a small-matrix path whose floats differ
    on 18-variable blocks.

    With ``table`` (shape (2^dim,)) the energies of counter y go to
    ``table[y]``.  With ``starts`` (ascending multiples of the chunk size)
    only those chunks are formed, each with the same floats as in the full
    run.  Yields (start, energies of the chunk); the energies vector without
    ``table`` is overwritten by the next chunk.
    """
    columns = list(columns)
    low = min(len(columns), _CHUNK_BITS)
    bits = _basis_bits(columns[:low], len(columns))
    work = np.empty_like(bits)
    energies = np.empty(len(bits))
    high_columns = columns[low:]
    high_shifts = np.arange(low, len(columns))
    if starts is None:
        starts = range(0, 1 << len(columns), len(bits))
    for start in starts:
        bits[:, high_columns] = (start >> high_shifts) & 1
        out = energies if table is None else table[start:start + len(bits)]
        yield start, block_energies(q, bits, work, out)


def block_energies(
    q: CableQubo, bits: np.ndarray, work: np.ndarray | None = None, out: np.ndarray | None = None
) -> np.ndarray:
    """Energies z^T Q z + offset of the rows of a (n, dim) 0/1 float matrix,
    into ``out`` (n,) via ``work`` (n, dim) if given; the floats are the same."""
    work = np.matmul(bits, q.q, out=work)
    work *= bits
    out = work.sum(axis=1, out=out)
    out += q.offset
    return out


def qubo_energy(q: CableQubo, z: str) -> float:
    """Evaluate z^T Q z + offset for one block at the bitstring ``z``."""
    vec = bits_to_array(z, q.dim)
    return float(vec @ q.q @ vec + q.offset)


def assemble_global(blocks: list[CableQubo]) -> GlobalQubo:
    """Stack per-cable blocks into the block-diagonal global QUBO.

    All blocks must come from the same instance (checked structurally: they
    must share the segment variable list).
    """
    if not blocks:
        raise ValueError("no blocks to assemble")
    segment_vars = blocks[0].vmap.segment_vars
    for block in blocks[1:]:
        if block.vmap.segment_vars != segment_vars:
            raise ValueError(
                f"block {block.cable_id!r} has a different segment list; "
                "all blocks must come from one instance"
            )
    dim = sum(b.dim for b in blocks)
    q = np.zeros((dim, dim))
    pos = 0
    for block in blocks:
        q[pos : pos + block.dim, pos : pos + block.dim] = block.q
        pos += block.dim
    return GlobalQubo(q=q, offset=sum(b.offset for b in blocks), blocks=tuple(blocks))


def to_ising(q: CableQubo) -> IsingModel:
    """Rewrite the block in spin variables via x = (1 - s) / 2.

    For symmetric Q:  energy = constant + h.s + sum_{i<j} (Q_ij / 2) s_i s_j
    with h = -rowsum(Q) / 2 and constant = offset + (sum(Q) + trace(Q)) / 4.
    """
    mat = q.q
    row_sums = mat.sum(axis=1)
    h = -0.5 * row_sums
    j = 0.5 * mat.copy()
    np.fill_diagonal(j, 0.0)
    constant = q.offset + 0.25 * (mat.sum() + np.trace(mat))
    return IsingModel(h=h, j=j, constant=constant)


def spins_from_bits(z: str, dim: int) -> np.ndarray:
    """Map bits to spins: x=0 -> s=+1, x=1 -> s=-1."""
    return 1.0 - 2.0 * bits_to_array(z, dim)


def ising_energy(model: IsingModel, spins) -> float:
    s = np.asarray(spins, dtype=np.float64)
    if s.shape != model.h.shape:
        raise ValueError(f"spin vector shape {s.shape} != ({model.h.shape[0]},)")
    if not np.all(np.abs(s) == 1.0):
        raise ValueError("spins must be +1 or -1")
    return float(model.constant + model.h @ s + 0.5 * s @ model.j @ s)


# --- export documents ---------------------------------------------------------

_QUBO_CONVENTION = (
    "energy(z) = offset + sum(term.value * z[term.i] * z[term.j]); "
    "diagonal terms (i == j) are linear since z*z = z; off-diagonal terms are "
    "stored once with i < j at the full coupling strength of the quadratic form"
)

_ISING_CONVENTION = (
    "spins s in {+1,-1} with x = (1 - s)/2; "
    "energy(s) = constant + sum(h[i]*s[i]) + sum(coupling.value * s[i] * s[j])"
)


def qubo_document(q: CableQubo) -> dict:
    """Sparse triplet export of one block, with the value convention stated."""
    terms = []
    for i in range(q.dim):
        if q.q[i, i] != 0.0:
            terms.append({"i": i, "j": i, "value": float(q.q[i, i])})
        for j in range(i + 1, q.dim):
            if q.q[i, j] != 0.0:
                terms.append({"i": i, "j": j, "value": float(2.0 * q.q[i, j])})
    return {
        "cable_id": q.cable_id,
        "dim": q.dim,
        "offset": float(q.offset),
        "variables": q.vmap.labels(),
        "terms": terms,
        "convention": _QUBO_CONVENTION,
    }


def ising_document(q: CableQubo) -> dict:
    model = to_ising(q)
    couplings = [
        {"i": i, "j": j, "value": float(model.j[i, j])}
        for i in range(q.dim)
        for j in range(i + 1, q.dim)
        if model.j[i, j] != 0.0
    ]
    return {
        "cable_id": q.cable_id,
        "dim": q.dim,
        "constant": float(model.constant),
        "variables": q.vmap.labels(),
        "h": [float(v) for v in model.h],
        "couplings": couplings,
        "convention": _ISING_CONVENTION,
    }
