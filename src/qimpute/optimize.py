"""Distance minimization over rotation parameters.

The objective is the overlap distance sqrt(1 - |F|), where F averages
cos(theta_b - t_b) over the seen inputs: t_b is the flip-adjusted optimal
block angle of the target and theta_b the block angle the parameters
realize.  Averaging over the seen inputs only (and renormalizing there)
lets a perfect fit of the visible data reach exactly zero even when part
of the distribution is hidden.

Minimization is a BFGS-style quasi-Newton iteration with a backtracking
(Armijo) line search, restarted from several initial points.  The line
search runs on the smooth surrogate E = 1 - |F|, which shares minimizers
with sqrt(E) but has no square-root cone at exact fits; all reported
distances and the public ``gradient`` use the square-root form.

For the exponential family the sign matrix is square and invertible, so
``solve_exponential`` skips iteration entirely and solves the linear
angle system.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from types import NoneType

import numpy as np

from .ansatz import (
    Ansatz,
    _check_params,
    effective_angles,
    flip_bits,
    project_signs,
    sign_matrix,
)
from .rng import stream
from .targets import TargetDistribution, target_angles

__all__ = [
    "OptimizeConfig",
    "OptimizeResult",
    "adjusted_target_angles",
    "objective",
    "gradient",
    "minimize",
    "solve_exponential",
]

# Below this distance the square root is effectively singular and the
# point counts as an exact fit.
EXACT_FIT_DISTANCE = 1e-12

_ARMIJO_C1 = 1e-4
_MIN_STEP = 1e-14
_CURVATURE_FLOOR = 1e-12
_INIT_SCHEMES = ("uniform_random", "zeros")


def check_field_types(obj, types: dict[str, tuple[type, ...]], error: type = TypeError) -> None:
    """Raise ``error`` unless each named field (each item of a sequence
    field) is an instance of one of its types.  A bool is not a number."""
    for name, allowed in types.items():
        value = getattr(obj, name)
        for item in value if isinstance(value, (tuple, list)) else (value,):
            if isinstance(item, bool) or not isinstance(item, allowed):
                names = " or ".join(kind.__name__ for kind in allowed)
                raise error(f"{name} must be {names}, got {item!r}")


@dataclass(frozen=True)
class OptimizeConfig:
    """Knobs of the quasi-Newton search.

    ``max_iterations`` of None means 500 * M.  ``zeros`` starts every
    restart from the origin (useful only with restarts=1); the default
    draws each restart uniformly from [0, 2*pi)^M.
    """

    max_iterations: int | None = None
    gradient_tolerance: float = 1e-8
    restarts: int = 10
    seed: int = 0
    init_scheme: str = "uniform_random"

    def __post_init__(self) -> None:
        check_field_types(self, {
            "max_iterations": (int, NoneType), "gradient_tolerance": (int, float),
            "restarts": (int,), "seed": (int,),
        })
        if self.max_iterations is not None and self.max_iterations < 1:
            raise ValueError(f"max_iterations must be >= 1, got {self.max_iterations}")
        if self.gradient_tolerance <= 0:
            raise ValueError(f"gradient_tolerance must be > 0, got {self.gradient_tolerance}")
        if self.restarts < 1:
            raise ValueError(f"restarts must be >= 1, got {self.restarts}")
        if self.init_scheme not in _INIT_SCHEMES:
            raise ValueError(f"init_scheme must be one of {_INIT_SCHEMES}")
        if self.seed < 0:
            raise ValueError(f"seed must be nonnegative, got {self.seed}")


@dataclass(frozen=True)
class OptimizeResult:
    best_params: np.ndarray = field(repr=False)
    final_distance: float
    iterations_used: int
    converged: bool
    restart_index: int


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


def _seen_overlap(ansatz: Ansatz, target: TargetDistribution):
    """The seen-input overlap F as a function of the parameters.

    Returns ``overlap(params, adjoint)``, giving (F, dF/dparams); the
    derivative is computed (through ``project_signs``) only when
    ``adjoint`` is true, and is None otherwise.
    """
    seen = target.seen_mask
    seen_goal = adjusted_target_angles(ansatz, target)[seen]
    seen_count = int(seen.sum())
    n_states = target.n_states

    def overlap(params, adjoint: bool):
        theta, _ = effective_angles(ansatz, params)
        residual = theta[seen] - seen_goal
        value = np.cos(residual).mean()
        if not adjoint:
            return value, None
        weights = np.zeros(n_states)
        weights[seen] = np.sin(residual) / seen_count
        return value, -project_signs(ansatz, weights)

    return overlap


def objective(ansatz: Ansatz, params, target: TargetDistribution) -> float:
    """Distance sqrt(1 - |F|) with F averaged over the seen inputs."""
    value, _ = _seen_overlap(ansatz, target)(params, adjoint=False)
    return float(np.sqrt(max(1.0 - abs(value), 0.0)))


def gradient(ansatz: Ansatz, params, target: TargetDistribution) -> np.ndarray:
    """Analytic gradient of ``objective`` with respect to every parameter.

    Only valid away from an exact fit: at distance below 1e-12 the square
    root is singular and the caller should treat the point as converged;
    a ValueError says so.
    """
    e_value, e_grad = _surrogate(ansatz, target)(params)
    distance = np.sqrt(max(e_value, 0.0))
    if distance <= EXACT_FIT_DISTANCE:
        raise ValueError(
            "objective is at an exact fit; the gradient is singular there "
            "and the point should be treated as converged"
        )
    return e_grad / (2.0 * distance)


def _bfgs_core(fun_grad, x0: np.ndarray, stop, max_iterations: int):
    """Quasi-Newton descent with backtracking line search.

    ``fun_grad`` maps x to (f, grad f); ``stop(f, g)`` declares
    convergence.  Returns (x, f, g, iterations, converged).  Accepted
    steps never increase f (asserted); a stalled line search exits early.
    """
    x = np.asarray(x0, dtype=float).copy()
    f, g = fun_grad(x)
    dim = x.size
    h_inv = np.eye(dim)
    iterations = 0
    converged = bool(stop(f, g))
    while not converged and iterations < max_iterations:
        direction = -h_inv @ g
        slope = float(g @ direction)
        if slope >= 0.0:
            # Curvature information went bad; fall back to steepest descent.
            h_inv = np.eye(dim)
            direction = -g
            slope = -float(g @ g)
            if slope == 0.0:
                break
        step = 1.0
        accepted = None
        while step > _MIN_STEP:
            candidate = x + step * direction
            f_new, g_new = fun_grad(candidate)
            if f_new <= f + _ARMIJO_C1 * step * slope:
                accepted = (candidate, f_new, g_new)
                break
            step *= 0.5
        if accepted is None:
            break
        x_new, f_new, g_new = accepted
        assert f_new <= f, "line search accepted an ascent step"
        s = x_new - x
        y = g_new - g
        sy = float(s @ y)
        if sy > _CURVATURE_FLOOR * np.linalg.norm(s) * np.linalg.norm(y):
            rho = 1.0 / sy
            left = np.eye(dim) - rho * np.outer(s, y)
            h_inv = left @ h_inv @ left.T + rho * np.outer(s, s)
        stalled = (f - f_new) < 1e-15 * max(1.0, abs(f))
        x, f, g = x_new, f_new, g_new
        iterations += 1
        converged = bool(stop(f, g))
        if stalled and not converged:
            break
    return x, f, g, iterations, converged


def _surrogate(ansatz: Ansatz, target: TargetDistribution):
    """(E, grad E) callable for E = 1 - |F|, smooth through exact fits."""
    overlap = _seen_overlap(ansatz, target)

    def fun_grad(params: np.ndarray):
        value, d_value = overlap(params, adjoint=True)
        return 1.0 - abs(value), -np.sign(value) * d_value

    return fun_grad


def minimize(ansatz: Ansatz, target: TargetDistribution, config: OptimizeConfig | None = None) -> OptimizeResult:
    """Best distance over several quasi-Newton restarts.

    Deterministic given (target, config): restart r draws its start point
    from the named stream "init-r" of the config seed.  Ties between
    restarts go to the lower restart index.  Non-convergence is reported
    through the ``converged`` flag, never raised.
    """
    if config is None:
        config = OptimizeConfig()
    n_params = ansatz.param_count
    max_iterations = config.max_iterations or 500 * n_params
    fun_grad = _surrogate(ansatz, target)
    tolerance = config.gradient_tolerance

    def stop(e_value: float, e_grad: np.ndarray) -> bool:
        distance = np.sqrt(max(e_value, 0.0))
        if distance < EXACT_FIT_DISTANCE:
            return True
        return float(np.linalg.norm(e_grad)) / (2.0 * distance) < tolerance

    best: OptimizeResult | None = None
    for restart in range(config.restarts):
        if config.init_scheme == "zeros":
            x0 = np.zeros(n_params)
        else:
            x0 = stream(config.seed, f"init-{restart}").uniform(0.0, 2.0 * np.pi, n_params)
        x, e_value, _, iterations, converged = _bfgs_core(fun_grad, x0, stop, max_iterations)
        distance = float(np.sqrt(max(e_value, 0.0)))
        if best is None or distance < best.final_distance:
            best = OptimizeResult(
                best_params=x,
                final_distance=distance,
                iterations_used=iterations,
                converged=converged,
                restart_index=restart,
            )
    assert best is not None
    return best


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


def finite_difference_gradient(
    ansatz: Ansatz, params, target: TargetDistribution, step: float = 1e-6
) -> np.ndarray:
    """Central-difference check value for ``gradient``; test use only."""
    params = _check_params(ansatz, params)
    out = np.empty(params.size)
    for i in range(params.size):
        bumped = params.copy()
        bumped[i] = params[i] + step
        upper = objective(ansatz, bumped, target)
        bumped[i] = params[i] - step
        lower = objective(ansatz, bumped, target)
        out[i] = (upper - lower) / (2.0 * step)
    return out
