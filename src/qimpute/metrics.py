"""Distance and bound computations between targets and circuit outputs.

The working distance everywhere is d = sqrt(1 - BC) with BC(p, q) =
sum_x sqrt(p_x q_x), or |<phi|psi>| for states.  The gap 1 - BC is
computed as |u - v|^2 / 2 over the unit root or amplitude vectors u, v:
nonnegative terms that keep their digits where 1 - BC rounds to noise.
The restricted distance slices both distributions to a subset of the
inputs and renormalizes each slice before comparing.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from .ansatz import ConditionalOutput
from .targets import TargetDistribution

__all__ = [
    "DistanceReport",
    "hellinger",
    "state_distance",
    "worst_case_bound",
    "restricted_distance",
]

# Inputs this close to unit mass are silently renormalized; anything
# farther off is rejected.
NORMALIZATION_TOL = 1e-9


class DistanceReport(NamedTuple):
    hellinger: float
    bhattacharyya: float


def _as_distribution(p, name: str) -> np.ndarray:
    arr = np.asarray(p, dtype=float).ravel()
    if np.any(arr < 0):
        raise ValueError(f"{name} has negative entries")
    total = arr.sum()
    if abs(total - 1.0) > NORMALIZATION_TOL:
        raise ValueError(f"{name} sums to {total}, not 1")
    return arr / total


def hellinger(p, q) -> DistanceReport:
    """Distance sqrt(gap) between two probability vectors, with the gap
    1 - BC = sum((sqrt(p) - sqrt(q))^2) / 2 and BC reported as 1 - gap."""
    p = _as_distribution(p, "p")
    q = _as_distribution(q, "q")
    if p.size != q.size:
        raise ValueError(f"length mismatch: {p.size} vs {q.size}")
    diff = np.sqrt(p) - np.sqrt(q)
    gap = float(diff @ diff) / 2.0
    return DistanceReport(hellinger=float(np.sqrt(gap)), bhattacharyya=1.0 - gap)


def state_distance(target: TargetDistribution, out: ConditionalOutput) -> float:
    """Overlap distance sqrt(1 - |F|) between target state and circuit state.

    F = u.v for the target's root vector u = sqrt(p(b, a)) and the circuit
    amplitudes v = amp_a(b) / sqrt(2^N); the gap is computed as
    1 - |F| = min(|u - v|^2, |u + v|^2) / 2.
    """
    if out.amp0.size != target.n_states:
        raise ValueError(
            f"dimension mismatch: output has {out.amp0.size} inputs, "
            f"target has {target.n_states}"
        )
    u = np.sqrt(target.probs).ravel()
    v = np.stack([out.amp0, out.amp1], axis=1).ravel() / np.sqrt(target.n_states)
    below, above = u - v, u + v
    return float(np.sqrt(min(below @ below, above @ above) / 2.0))


def worst_case_bound(n_params: int, n_inputs: int) -> float:
    """Largest optimized distance an M-parameter family can be forced to.

    Exceeding sqrt(1 - M/2^N) after optimization signals optimizer failure,
    not family capacity.
    """
    if n_inputs < 1:
        raise ValueError(f"n_inputs must be >= 1, got {n_inputs}")
    n_states = 1 << n_inputs
    if not 0 <= n_params <= n_states:
        raise ValueError(f"n_params {n_params} outside 0..{n_states}")
    return float(np.sqrt(1.0 - n_params / n_states))


def restricted_distance(
    target: TargetDistribution, out: ConditionalOutput, selected: np.ndarray
) -> float:
    """Distance after restricting both joints to the inputs ``selected``
    (a bool mask over the inputs).

    The mask need not be the target's own seen mask: a full reference
    distribution can be scored on the inputs a training split hid.  Both
    slices are renormalized to unit mass before comparison.
    """
    if out.amp0.size != target.n_states:
        raise ValueError("dimension mismatch between target and output")
    if not selected.any():
        raise ValueError("the selected support is empty")

    target_slice = target.probs[selected].ravel()
    target_mass = target_slice.sum()
    if target_mass <= 0:
        raise ValueError("target carries no mass on the selected support")
    output_slice = out.joint_probabilities()[selected].ravel()
    return hellinger(target_slice / target_mass, output_slice / output_slice.sum()).hellinger
