"""Distance minimization over rotation parameters.

The objective is the overlap distance sqrt(E) with E = 1 - |F|, where F
averages cos(r_b) over the seen inputs and r_b = theta_b - t_b is the
block angle the parameters realize minus the flip-adjusted optimal block
angle of the target.  Averaging over the seen inputs only (and
renormalizing there) lets a perfect fit of the visible data reach exactly
zero even when part of the distribution is hidden.  ``_overlap_gap``
computes E from 1 - F = mean 2 sin^2(r/2) and 1 + F = mean 2 cos^2(r/2),
sums of nonnegative terms, so a near-exact fit keeps every digit of its
distance where 1 - |F| would round to noise (or to exactly 0).

The block angles are linear in the parameters, theta = S p, so the fit
starts from the seen angle system S_seen p = t_seen solved by least
squares (``least_squares_start``): the minimum-norm solution when the
system is underdetermined, and for a fully seen linear fit, whose S has
orthogonal columns, the Walsh coefficients S^T t / 2^N.  ``minimize``
polishes that start with a damped Newton iteration on E (``_newton_core``).
The Hessian of E is exact and cheap, S_seen^T diag(w) S_seen with the
curvature weights w = sign(F) cos(r) / n that ``_overlap_gap`` returns
beside E and dE/dr.  A Levenberg-Marquardt shift keeps every accepted
step a decrease.  E shares minimizers with sqrt(E) but has no
square-root cone at exact fits, so Newton converges quadratically to
them as well.  All reported distances and the public ``gradient`` use
the square root.  The start and the Hessian read the seen rows of S in
``ansatz._row_blocks``, so a fit holds no copy of S beyond its seen rows,
and none when every input is seen.

For the exponential family the sign matrix is square and invertible, so
``solve_exponential`` skips iteration entirely and solves the linear
angle system.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .ansatz import (
    Ansatz,
    _check_params,
    _row_blocks,
    effective_angles,
    flip_bits,
    project_signs,
    sign_matrix,
)
from .targets import TargetDistribution, target_angles

__all__ = [
    "OptimizeResult",
    "adjusted_target_angles",
    "objective",
    "gradient",
    "least_squares_start",
    "minimize",
    "solve_exponential",
]

# Below this distance the square root is effectively singular and the
# point counts as an exact fit.
EXACT_FIT_DISTANCE = 1e-12

# Levenberg-Marquardt shift of the Newton core, in units of the largest
# Hessian diagonal entry (at least 1): every iteration starts at the floor,
# and a search that needs more than the ceiling has stalled.
_SHIFT_FLOOR = 1e-10
_SHIFT_CEILING = 1e16
_SHIFT_GROWTH = 10.0
# The Newton core has converged when its step cannot move x (relative to
# max(1, |x|)) or predicts a relative decrease of f below the tolerance.
_STEP_RESOLUTION = 4.0 * np.finfo(float).eps
_DECREASE_TOLERANCE = 1e-12
# ``minimize`` stops after this many accepted Newton steps per parameter,
# or once the distance's gradient norm falls below the tolerance.
_ITERATIONS_PER_PARAM = 500
_GRADIENT_TOLERANCE = 1e-8


@dataclass(frozen=True)
class OptimizeResult:
    best_params: np.ndarray = field(repr=False)
    final_distance: float
    iterations_used: int
    converged: bool


def adjusted_target_angles(ansatz: Ansatz, target: TargetDistribution) -> np.ndarray:
    """Per-input block angle the circuit must realize; NaN where unseen.

    An un-flipped block reproduces the target at theta = arccos sqrt(p(0|b));
    a flipped block swaps the output amplitudes, so its goal angle is the
    complement pi/2 - arccos sqrt(p(0|b)).
    """
    if target.n_inputs != ansatz.n_inputs:
        raise ValueError(
            f"target width {target.n_inputs} != ansatz width {ansatz.n_inputs}"
        )
    bare = target_angles(target)
    return np.where(flip_bits(ansatz), np.pi / 2.0 - bare, bare)


def _overlap_gap(
    residual: np.ndarray, curvature: bool = False, out: np.ndarray | None = None
) -> tuple[np.ndarray, ...]:
    """E = 1 - |F| and dE/dr for F = mean cos(r) over the last axis of r.

    E is the smaller of mean 2 sin^2(r/2) = 1 - F and mean 2 cos^2(r/2) =
    1 + F, and dE/dr = sign(F) 2 sin(r/2) cos(r/2) / n.  With
    ``curvature`` a third array follows: d^2E/dr^2 = sign(F) (cos^2(r/2) -
    sin^2(r/2)) / n = sign(F) cos(r) / n, the diagonal the Hessian in the
    parameters is built from.  Leading axes are a batch.  ``residual`` is
    overwritten and the derivative is written to ``out`` (same shape,
    allocated when None), so without ``curvature`` no array of its size is
    allocated when ``out`` is given.
    """
    n = residual.shape[-1]
    residual *= 0.5
    d_gap = np.sin(residual, out=out)
    half_cos = np.cos(residual, out=residual)
    below = np.vecdot(d_gap, d_gap)  # n (1 - F) / 2
    above = np.vecdot(half_cos, half_cos)  # n (1 + F) / 2
    scale = (np.sign(above - below) * (2.0 / n))[..., None]
    gap = np.minimum(below, above) * (2.0 / n)
    if curvature:
        d2_gap = (half_cos - d_gap) * (half_cos + d_gap) * (scale / 2.0)
    d_gap *= half_cos
    d_gap *= scale
    return (gap, d_gap, d2_gap) if curvature else (gap, d_gap)


def _seen_goal(ansatz: Ansatz, target: TargetDistribution) -> np.ndarray:
    """t_seen: the goal angles of the target's seen inputs."""
    return adjusted_target_angles(ansatz, target)[target.seen_mask]


def _seen_overlap(ansatz: Ansatz, target: TargetDistribution, seen_goal: np.ndarray):
    """``gap(params) -> (E, dE/dparams)`` over the seen inputs, whose goal
    angles are ``seen_goal``; one forward map and one adjoint per call.

    ``gap(params, curvature=True)`` appends the seen inputs' curvature
    weights w = d^2E/dr^2, so that the Hessian of E in the parameters is
    S_seen^T diag(w) S_seen.
    """
    seen = target.seen_mask
    d_angles = np.zeros(target.n_states)

    def gap(params, curvature=False):
        theta, _ = effective_angles(ansatz, params)
        residual = theta[seen]
        residual -= seen_goal
        value, d_angles[seen], *weights = _overlap_gap(residual, curvature)
        return (float(value), project_signs(ansatz, d_angles), *weights)

    return gap


def objective(ansatz: Ansatz, params, target: TargetDistribution) -> float:
    """Distance sqrt(E), E = 1 - |F| over the seen inputs from ``_overlap_gap``."""
    value, _ = _seen_overlap(ansatz, target, _seen_goal(ansatz, target))(params)
    return float(np.sqrt(value))


def gradient(ansatz: Ansatz, params, target: TargetDistribution) -> np.ndarray:
    """Analytic gradient of ``objective``: dE/dparams / (2 sqrt(E)).

    Only valid away from an exact fit: at distance below 1e-12 the square
    root is singular and the caller should treat the point as converged;
    a ValueError says so.
    """
    e_value, e_grad = _seen_overlap(ansatz, target, _seen_goal(ansatz, target))(params)
    distance = np.sqrt(e_value)
    if distance <= EXACT_FIT_DISTANCE:
        raise ValueError(
            "objective is at an exact fit; the gradient is singular there "
            "and the point should be treated as converged"
        )
    return e_grad / (2.0 * distance)


def _seen_system(ansatz: Ansatz, target: TargetDistribution) -> tuple[np.ndarray, np.ndarray]:
    """(S_seen, t_seen): the seen rows of S and their goal angles.

    S_seen is the cached read-only S itself when every input is seen.
    """
    seen = target.seen_mask
    signs = sign_matrix(ansatz)
    return (signs if seen.all() else signs[seen]), _seen_goal(ansatz, target)


def _least_squares(signs: np.ndarray, goal: np.ndarray) -> np.ndarray:
    """Minimum-norm least-squares solution of signs @ p = goal.

    The triangular factor R of [S | t], reduced one row block at a time,
    satisfies |S p - t| = |R[:, :M] p - R[:, M]| for every p and shares
    S's singular values, so ``np.linalg.lstsq`` on R with the rank cutoff
    it would apply to S returns S's solution without copying S.
    """
    n_rows, n_cols = signs.shape
    factor = np.empty((0, n_cols + 1))
    for rows in _row_blocks(n_rows, n_cols):
        block = np.column_stack((signs[rows], goal[rows]))
        factor = np.linalg.qr(np.vstack((factor, block)), mode="r")
    cutoff = np.finfo(float).eps * max(n_rows, n_cols)
    return np.linalg.lstsq(factor[:, :n_cols], factor[:, n_cols], rcond=cutoff)[0]


def _weighted_gram(signs: np.ndarray, weights: np.ndarray) -> np.ndarray:
    """S^T diag(w) S, summed over row blocks."""
    gram = np.zeros((signs.shape[1], signs.shape[1]))
    for rows in _row_blocks(*signs.shape):
        block = signs[rows]
        gram += (block.T * weights[rows]) @ block
    return gram


def least_squares_start(ansatz: Ansatz, target: TargetDistribution) -> np.ndarray:
    """Parameters solving the seen angle system S_seen p = t_seen.

    The least-squares solution, of minimum norm when the system is
    underdetermined (more parameters than independent seen inputs).  Its
    residuals are the linearization of E's, so it is the analytic circuit
    for a target the family can realize exactly.
    """
    return _least_squares(*_seen_system(ansatz, target))


def _newton_core(fun, x0: np.ndarray, stop, max_iterations: int):
    """Damped Newton descent that accepts only decreasing steps.

    ``fun`` maps x to (f, grad f, hessian), where ``hessian()`` returns the
    Hessian at x; the core calls it only at accepted points.  Each step
    solves (H + shift I) d = -g through a Cholesky factor.  The shift, in
    units of the largest diagonal entry of H (at least 1), starts every
    iteration at ``_SHIFT_FLOOR`` and grows by ``_SHIFT_GROWTH`` while the
    factorization fails (H + shift I is not positive definite) or the
    step does not lower f.

    The search converges when ``stop(f, g)`` holds, or when the step at
    the floor shift (H + shift I positive definite) fails to lower f while
    it moves no coordinate by more than ``_STEP_RESOLUTION`` times
    max(1, |x|) or predicts a decrease g.d / 2 (half the squared Newton
    decrement) of at most ``_DECREASE_TOLERANCE`` times |f|: x is then a
    minimum to working precision, where f's rounding hides any further
    decrease from the acceptance test.  It ends unconverged after
    ``max_iterations`` accepted steps, or when the shift passes
    ``_SHIFT_CEILING`` without a decrease.  Returns (x, f, g, iterations,
    converged).
    """
    x = np.asarray(x0, dtype=float).copy()
    f, g, hessian = fun(x)
    iterations = 0
    converged = bool(stop(f, g))
    while not converged and iterations < max_iterations:
        h = hessian()
        diagonal = np.diag(h).copy()
        scale = max(1.0, float(np.max(np.abs(diagonal))))
        resolution = _STEP_RESOLUTION * max(1.0, float(np.max(np.abs(x))))
        shift = _SHIFT_FLOOR
        accepted = None
        while accepted is None and shift <= _SHIFT_CEILING:
            np.fill_diagonal(h, diagonal + shift * scale)
            try:
                factor = np.linalg.cholesky(h)
            except np.linalg.LinAlgError:
                shift *= _SHIFT_GROWTH
                continue
            step = np.linalg.solve(factor.T, np.linalg.solve(factor, g))
            f_new, g_new, hessian_new = fun(x - step)
            if f_new < f:
                accepted = (x - step, f_new, g_new, hessian_new)
            elif shift == _SHIFT_FLOOR and (
                float(np.max(np.abs(step))) <= resolution
                or float(g @ step) <= 2.0 * _DECREASE_TOLERANCE * abs(f)
            ):
                converged = True
                break
            else:
                shift *= _SHIFT_GROWTH
        if accepted is None:
            break
        x, f, g, hessian = accepted
        iterations += 1
        converged = bool(stop(f, g))
    return x, f, g, iterations, converged


def minimize(ansatz: Ansatz, target: TargetDistribution) -> OptimizeResult:
    """Damped Newton on E from ``least_squares_start``.

    The result is never farther than that start.  Deterministic given the
    target.  Non-convergence is reported through the ``converged`` flag,
    never raised.
    """
    seen_signs, seen_goal = _seen_system(ansatz, target)
    gap = _seen_overlap(ansatz, target, seen_goal)

    def fun(params):
        value, grad, weights = gap(params, curvature=True)
        return value, grad, lambda: _weighted_gram(seen_signs, weights)

    def stop(e_value: float, e_grad: np.ndarray) -> bool:
        distance = np.sqrt(e_value)
        return distance < EXACT_FIT_DISTANCE or (
            float(np.linalg.norm(e_grad)) / (2.0 * distance) < _GRADIENT_TOLERANCE)

    x0 = _least_squares(seen_signs, seen_goal)
    x, e_value, _, iterations, converged = _newton_core(
        fun, x0, stop, _ITERATIONS_PER_PARAM * ansatz.param_count)
    return OptimizeResult(x, float(np.sqrt(e_value)), iterations, converged)


def solve_exponential(target: TargetDistribution) -> np.ndarray:
    """Exact parameters reproducing the target under the exponential family.

    Builds the square sign system mapping parameters to block angles and
    solves it against the flip-adjusted target angles.  Hidden inputs get
    the maximum-entropy angle pi/4 (even output split).  The result is
    checked to fit the seen data to below 1e-8.
    """
    ansatz = Ansatz.exponential(target.n_inputs)
    goal = adjusted_target_angles(ansatz, target)
    goal = np.where(target.seen_mask, goal, np.pi / 4.0)
    params = np.linalg.solve(sign_matrix(ansatz), goal)
    residual = objective(ansatz, params, target)
    if residual >= 1e-8:
        raise RuntimeError(
            f"exponential angle system solved poorly (distance {residual}); "
            "this indicates a broken sign convention"
        )
    return params


def finite_difference_gradient(ansatz: Ansatz, params, target: TargetDistribution) -> np.ndarray:
    """Central-difference check value for ``gradient``, step 1e-6."""
    params = _check_params(ansatz, params)
    gap = _seen_overlap(ansatz, target, _seen_goal(ansatz, target))
    step = 1e-6
    out = np.empty(params.size)
    for i in range(params.size):
        bumped = params.copy()
        bumped[i] = params[i] + step
        upper = np.sqrt(gap(bumped)[0])
        bumped[i] = params[i] - step
        lower = np.sqrt(gap(bumped)[0])
        out[i] = (upper - lower) / (2.0 * step)
    return out
