"""Circuit families and the analytic map from parameters to output blocks.

The simulated circuit acts on N input qubits plus one output qubit.  The
input register is prepared in a uniform superposition, the output qubit
receives an initial y-rotation, and then multi-controlled NOTs (controls
on input qubits, target the output qubit) alternate with further
y-rotations.  Commuting every rotation to the circuit front leaves, for
each input bitstring b, a 2x2 block

    U_b = X^flip(b) . R_y(theta_b)

on the output qubit.  theta_b is linear in the rotation parameters: the
parameter following the k-th controlled gate picks up sign (-1)^phase,
where phase is the mod-2 sum of the fire indicators of gates 1..k at b
(a controlled NOT "fires" when all its control bits are set).  flip(b) is
the total fire parity.  For the single-control gates this reproduces the
prefix-parity sign rule; the flip parities for the full pair and general
gate sets are the all-pairs and all-subsets product parities.

Input bitstrings are encoded as integers with b_1 the most significant bit:
b = 0b101 at N=3 has b_1=1, b_2=0, b_3=1, and every module in this package
uses that order.  The running fire parity is computed in one place, the
generator ``_phases``, which each ``Ansatz`` consumes once to build its
dense, read-only sign matrix S (2^N x M, cached on the instance: O(M 2^N)
memory for its lifetime).  The forward map (``effective_angles``), its
adjoint (``project_signs``), the flip bits and ``sign_matrix`` all read
that cached S, so each evaluation is one matrix-vector product.

All gates involved (H, R_y, X and controlled X) are real in the
computational basis, so amplitudes are stored as plain floats.

Three named families are provided:

  linear       single-control NOTs only, N+1 parameters
  quadratic    adds all pair-controlled NOTs, (N^2+N+2)/2 parameters
  exponential  every nonempty control subset, 2^N parameters

plus partially extended gate sets between linear and quadratic for
parameter-count sweeps.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import cached_property
from typing import Iterator

import numpy as np

__all__ = [
    "ANSATZ_KINDS",
    "MAX_ENTRIES",
    "Ansatz",
    "ConditionalOutput",
    "param_count",
    "check_sign_matrix_size",
    "effective_angles",
    "flip_bits",
    "sign_matrix",
    "project_signs",
    "conditional_output",
    "statevector",
]

ANSATZ_KINDS = ("linear", "quadratic", "exponential")

# The memory policy.  No array whose size a config sets holds more than
# MAX_ENTRIES entries (128 MiB of float64): the sign matrix S, the
# per-sample statistics and the drawn outcomes.  Work over the rows of such
# an array runs in blocks of at most _BLOCK_ENTRIES entries (``_row_blocks``).
MAX_ENTRIES = 1 << 24
_BLOCK_ENTRIES = 1 << 18


def param_count(kind: str, n_inputs: int) -> int:
    """Number of rotation parameters M of a family at a given width."""
    if n_inputs < 1:
        raise ValueError(f"n_inputs must be >= 1, got {n_inputs}")
    if kind == "linear":
        return n_inputs + 1
    if kind == "quadratic":
        return (n_inputs * n_inputs + n_inputs + 2) // 2
    if kind == "exponential":
        return 1 << n_inputs
    raise ValueError(f"unknown ansatz kind {kind!r}")


def check_sign_matrix_size(kind: str, n_inputs: int, n_params: int | None = None) -> None:
    """Refuse (ValueError) a 2^N x M sign matrix above ``MAX_ENTRIES`` entries;
    M defaults to the named family's.  A width above log2(MAX_ENTRIES) is
    refused before 2^N or M is formed, so even a huge one fails at once."""
    too_wide = n_inputs >= MAX_ENTRIES.bit_length()
    if too_wide or (1 << n_inputs) * (n_params or param_count(kind, n_inputs)) > MAX_ENTRIES:
        raise ValueError(f"{kind} width {n_inputs} needs a sign matrix above "
                         f"{MAX_ENTRIES} entries")


def _row_blocks(n_rows: int, row_entries: int) -> Iterator[slice]:
    """Consecutive row slices of an array whose rows hold ``row_entries``
    entries: as many rows as fit in ``_BLOCK_ENTRIES`` entries, at least one."""
    step = max(1, _BLOCK_ENTRIES // row_entries)
    for start in range(0, n_rows, step):
        yield slice(start, min(start + step, n_rows))


def _single_controls(n_inputs: int) -> list[tuple[int, ...]]:
    return [(i,) for i in range(1, n_inputs + 1)]


def _pair_controls(n_inputs: int) -> list[tuple[int, ...]]:
    return [(i, j) for i in range(1, n_inputs) for j in range(i + 1, n_inputs + 1)]


@dataclass(frozen=True)
class Ansatz:
    """A circuit family instance: gate list plus parameter bookkeeping.

    ``controls`` lists the control-index tuples of the controlled gates in
    circuit order; parameter slot 0 belongs to the initial rotation and
    slot k to the rotation following gate k.  Single controls come first
    in ascending index order, then pair controls in lexicographic order,
    then larger control sets, matching the drawn circuit layout.
    """

    kind: str
    n_inputs: int
    controls: tuple[tuple[int, ...], ...]

    def __post_init__(self) -> None:
        if self.n_inputs < 1:
            raise ValueError(f"n_inputs must be >= 1, got {self.n_inputs}")
        seen = set()
        for ctrl in self.controls:
            if not ctrl or any(not 1 <= i <= self.n_inputs for i in ctrl):
                raise ValueError(f"control set {ctrl} outside 1..{self.n_inputs}")
            if tuple(sorted(ctrl)) != ctrl:
                raise ValueError(f"control set {ctrl} must be strictly increasing")
            if ctrl in seen:
                raise ValueError(f"duplicate control set {ctrl}")
            seen.add(ctrl)

    @property
    def param_count(self) -> int:
        return len(self.controls) + 1

    @cached_property
    def control_masks(self) -> tuple[int, ...]:
        """Integer bit mask of each gate's controls; b_i sits at bit N - i."""
        return tuple(
            sum(1 << (self.n_inputs - i) for i in ctrl) for ctrl in self.controls
        )

    @cached_property
    def signs(self) -> np.ndarray:
        """The dense, read-only (2^N x M) sign matrix S: theta = S @ params.

        Built once per instance from ``_phases``; refused by
        ``check_sign_matrix_size`` when too large.
        """
        check_sign_matrix_size(self.kind, self.n_inputs, self.param_count)
        signs = np.empty((1 << self.n_inputs, self.param_count))
        signs[:, 0] = 1.0
        for k, phase in enumerate(_phases(self), start=1):
            signs[:, k] = np.where(phase, -1.0, 1.0)
        signs.flags.writeable = False
        return signs

    @cached_property
    def flips(self) -> np.ndarray:
        """Read-only flip bit of every block: where S's last column is -1.

        With no gates that column is the bare rotation's, so nothing flips.
        """
        flips = self.signs[:, -1] < 0
        flips.flags.writeable = False
        return flips

    @classmethod
    def linear(cls, n_inputs: int) -> "Ansatz":
        return cls("linear", n_inputs, tuple(_single_controls(n_inputs)))

    @classmethod
    def quadratic(cls, n_inputs: int) -> "Ansatz":
        gates = _single_controls(n_inputs) + _pair_controls(n_inputs)
        return cls("quadratic", n_inputs, tuple(gates))

    @classmethod
    def exponential(cls, n_inputs: int) -> "Ansatz":
        gates: list[tuple[int, ...]] = []
        for size in range(1, n_inputs + 1):
            gates.extend(itertools.combinations(range(1, n_inputs + 1), size))
        return cls("exponential", n_inputs, tuple(gates))

    @classmethod
    def linear_with_pairs(cls, n_inputs: int, extra_pairs: int) -> "Ansatz":
        """Linear gate set plus the first ``extra_pairs`` pair controls.

        Sweeping extra_pairs from 0 to N(N-1)/2 walks the parameter count
        from the linear family to the quadratic one, one gate at a time.
        """
        pairs = _pair_controls(n_inputs)
        if not 0 <= extra_pairs <= len(pairs):
            raise ValueError(f"extra_pairs {extra_pairs} outside 0..{len(pairs)}")
        if extra_pairs == 0:
            return cls.linear(n_inputs)
        if extra_pairs == len(pairs):
            return cls.quadratic(n_inputs)
        gates = _single_controls(n_inputs) + pairs[:extra_pairs]
        return cls("custom", n_inputs, tuple(gates))


def _check_params(ansatz: Ansatz, params) -> np.ndarray:
    arr = np.asarray(params, dtype=float)
    if arr.shape != (ansatz.param_count,):
        raise ValueError(
            f"expected {ansatz.param_count} parameters for {ansatz.kind} "
            f"width {ansatz.n_inputs}, got shape {arr.shape}"
        )
    return arr


def _phases(ansatz: Ansatz):
    """Running fire parity of every input after each gate, in circuit order.

    The k-th yield is a bool vector over all 2^N inputs, True where the
    fire parity of gates 1..k is odd, i.e. where parameter k enters theta_b
    with sign -1; the last yield is the flip bit.  The same array is
    updated in place, so copy it to keep a snapshot.
    """
    idx = np.arange(1 << ansatz.n_inputs)
    phase = np.zeros(idx.size, dtype=bool)
    for mask in ansatz.control_masks:
        phase ^= (idx & mask) == mask
        yield phase


def effective_angles(ansatz: Ansatz, params) -> tuple[np.ndarray, np.ndarray]:
    """Vector of theta_b over all 2^N bitstrings, plus the flip bits.

    One product with the instance's cached sign matrix: O(M * 2^N) time
    per call, on top of the O(M * 2^N) memory the cache holds for the
    life of the ``Ansatz``.  The flip bits are the cached read-only array.
    """
    return ansatz.signs @ _check_params(ansatz, params), ansatz.flips


def flip_bits(ansatz: Ansatz) -> np.ndarray:
    """Parameter-independent flip bit of every block, as a read-only bool vector."""
    return ansatz.flips


def sign_matrix(ansatz: Ansatz) -> np.ndarray:
    """The cached, read-only (2^N x M) matrix of parameter signs: theta = S @ params."""
    return ansatz.signs


def project_signs(ansatz: Ansatz, values: np.ndarray) -> np.ndarray:
    """Adjoint of the sign map: S.T @ values, from the cached S."""
    values = np.asarray(values, dtype=float)
    n_states = 1 << ansatz.n_inputs
    if values.shape != (n_states,):
        raise ValueError(f"expected {n_states} values, got shape {values.shape}")
    return values @ ansatz.signs


@dataclass(frozen=True)
class ConditionalOutput:
    """Output-qubit amplitudes conditioned on each input bitstring.

    For input b the output qubit carries (amp0[b], amp1[b]), a unit vector;
    amp0[b]**2 is the probability of reading 0 given b.
    """

    amp0: np.ndarray
    amp1: np.ndarray

    def joint_probabilities(self) -> np.ndarray:
        """Joint (input, output-bit) probabilities, shape (2^N, 2), sum 1."""
        n_states = self.amp0.size
        return np.stack([self.amp0 ** 2, self.amp1 ** 2], axis=1) / n_states


def conditional_output(ansatz: Ansatz, params) -> ConditionalOutput:
    """Evaluate every block on |0>: (cos, sin) of theta, swapped where flipped."""
    theta, flipped = effective_angles(ansatz, params)
    c, s = np.cos(theta), np.sin(theta)
    return ConditionalOutput(amp0=np.where(flipped, s, c), amp1=np.where(flipped, c, s))


def statevector(ansatz: Ansatz, params) -> np.ndarray:
    """Full amplitude vector of length 2^(N+1) over basis states |b>|a>.

    The input register is weighted uniformly (Hadamard preparation), so the
    amplitude at index 2*b + a is amp_a(b) / sqrt(2^N).  A width whose sign
    matrix exceeds ``MAX_ENTRIES`` raises ValueError before anything is allocated.
    """
    out = conditional_output(ansatz, params)
    n_states = out.amp0.size
    state = np.empty(2 * n_states)
    norm = 1.0 / np.sqrt(n_states)
    state[0::2] = out.amp0 * norm
    state[1::2] = out.amp1 * norm
    return state
