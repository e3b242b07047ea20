"""Gate-by-gate simulation oracle for small instances.

This is the independent verification path for the analytic block formulas:
the circuit is applied literally, each gate in turn to one full
2^(N+1)-amplitude state vector per parameter draw, with no parity
bookkeeping anywhere.  Hadamards on the input register, the initial
output-qubit rotation, then controlled NOTs each followed by their
rotation, in the drawn order.  A one-qubit gate contracts its 2x2 matrix
(one per draw for a rotation) with every state's axis for that qubit; a
controlled NOT permutes the amplitudes whose control bits are all set.

Capped at 10 input qubits.
"""

from __future__ import annotations

import numpy as np

from .ansatz import Ansatz

__all__ = ["gate_level_oracle", "ORACLE_MAX_INPUTS"]

ORACLE_MAX_INPUTS = 10


def _rotations(angles: np.ndarray) -> np.ndarray:
    """One 2x2 rotation per draw, as a (D, 1, 2, 2) stack that broadcasts over the blocks."""
    c, s = np.cos(angles), np.sin(angles)
    return np.stack([c, -s, s, c], axis=-1).reshape(-1, 1, 2, 2)


def _apply_on_qubit(op: np.ndarray, bit_position: int, state: np.ndarray) -> np.ndarray:
    """Apply a 1-qubit operator at a bit position of every draw's full index."""
    axes = state.reshape(state.shape[0], -1, 2, 1 << bit_position)
    return (op @ axes).reshape(state.shape)


def _apply_controlled_not(control_bits: list[int], state: np.ndarray) -> np.ndarray:
    """Flip index bit 0 of every amplitude whose control bits are all set."""
    mask = 0
    for p in control_bits:
        mask |= 1 << p
    idx = np.arange(state.shape[-1])
    # The permutation is its own inverse, so gathering through it applies it.
    return state[:, np.where((idx & mask) == mask, idx ^ 1, idx)]


def gate_level_oracle(ansatz: Ansatz, params) -> np.ndarray:
    """Amplitude vector from literal sequential gate application.

    ``params`` is one draw of shape (M,) or D draws of shape (D, M); the
    result is (2^(N+1),) or (D, 2^(N+1)), row d the circuit at draw d.
    Index layout matches the analytic path: the full basis index is
    2*b + a with a the output bit, so input qubit i (bit b_i) occupies
    index bit N - i + 1.
    """
    n = ansatz.n_inputs
    if n > ORACLE_MAX_INPUTS:
        raise ValueError(f"oracle is capped at {ORACLE_MAX_INPUTS} input qubits, got {n}")
    params = np.asarray(params, dtype=float)
    if params.ndim not in (1, 2) or params.shape[-1] != ansatz.param_count:
        raise ValueError(f"expected params of shape (M,) or (D, M), M = {ansatz.param_count}, "
                         f"for {ansatz.kind} width {n}, got shape {params.shape}")
    draws = params.reshape(-1, ansatz.param_count)

    state = np.zeros((draws.shape[0], 1 << (n + 1)))
    state[:, 0] = 1.0

    hadamard = np.array([[1.0, 1.0], [1.0, -1.0]]) / np.sqrt(2.0)
    for i in range(1, n + 1):
        state = _apply_on_qubit(hadamard, n - i + 1, state)

    state = _apply_on_qubit(_rotations(draws[:, 0]), 0, state)
    for k, ctrl in enumerate(ansatz.controls, start=1):
        state = _apply_controlled_not([n - i + 1 for i in ctrl], state)
        state = _apply_on_qubit(_rotations(draws[:, k]), 0, state)
    return state.reshape(params.shape[:-1] + state.shape[-1:])
