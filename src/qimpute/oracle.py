"""Gate-by-gate simulation oracle for small instances.

This is the independent verification path for the analytic block formulas:
the circuit is applied literally, one gate at a time to the full
2^(N+1)-amplitude state vector, with no parity bookkeeping anywhere.
Hadamards on the input register, the initial output-qubit rotation, then
controlled NOTs each followed by their rotation, in the drawn order.  A
one-qubit gate contracts its 2x2 matrix with the state's axis for that
qubit; a controlled NOT permutes the amplitudes whose control bits are
all set.

Capped at 10 input qubits.
"""

from __future__ import annotations

import numpy as np

from .ansatz import Ansatz, _check_params

__all__ = ["gate_level_oracle", "ORACLE_MAX_INPUTS"]

ORACLE_MAX_INPUTS = 10


def _rotation(angle: float) -> np.ndarray:
    c, s = np.cos(angle), np.sin(angle)
    return np.array([[c, -s], [s, c]])


def _apply_on_qubit(op: np.ndarray, bit_position: int, state: np.ndarray) -> np.ndarray:
    """Apply a 1-qubit operator at a bit position of the full index."""
    axes = state.reshape(-1, 2, 1 << bit_position)
    return (op @ axes).reshape(-1)


def _apply_controlled_not(control_bits: list[int], state: np.ndarray) -> np.ndarray:
    """Flip index bit 0 of every amplitude whose control bits are all set."""
    mask = 0
    for p in control_bits:
        mask |= 1 << p
    idx = np.arange(state.size)
    # The permutation is its own inverse, so gathering through it applies it.
    return state[np.where((idx & mask) == mask, idx ^ 1, idx)]


def gate_level_oracle(ansatz: Ansatz, params) -> np.ndarray:
    """Amplitude vector from literal sequential gate application.

    Index layout matches the analytic path: the full basis index is
    2*b + a with a the output bit, so input qubit i (bit b_i) occupies
    index bit N - i + 1.
    """
    n = ansatz.n_inputs
    if n > ORACLE_MAX_INPUTS:
        raise ValueError(f"oracle is capped at {ORACLE_MAX_INPUTS} input qubits, got {n}")
    params = _check_params(ansatz, params)

    state = np.zeros(1 << (n + 1))
    state[0] = 1.0

    hadamard = np.array([[1.0, 1.0], [1.0, -1.0]]) / np.sqrt(2.0)
    for i in range(1, n + 1):
        state = _apply_on_qubit(hadamard, n - i + 1, state)

    state = _apply_on_qubit(_rotation(params[0]), 0, state)
    for k, ctrl in enumerate(ansatz.controls, start=1):
        state = _apply_controlled_not([n - i + 1 for i in ctrl], state)
        state = _apply_on_qubit(_rotation(params[k]), 0, state)
    return state
