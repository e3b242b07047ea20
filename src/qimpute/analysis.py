"""Flat-landscape diagnostics: gradient statistics and output-qubit entropy.

Gradient statistics sample the analytic derivative of the distance with
respect to the first parameter at uniformly random parameter draws; their
variance shrinking exponentially with the input width is the flat-plateau
signature.  The entropy side traces out the input register, leaving a 2x2
reduced state of the output qubit whose von Neumann entropy (base 2, so
the single-qubit maximum is 1) measures how entangled the output is with
the inputs.  That state depends on the block angles only through two
Bloch sums, mean sigma_b cos 2 theta_b and mean sin 2 theta_b, so no
per-input amplitudes are formed.  Averaging the entropy over random
parameters tracks the same saturation and is fit with a pinned-base
exponential approach to 1.

For the linear family the entropy needs no S: in the prefix parities
c_k = b_1 xor ... xor b_k a uniform input register is uniform and
independent, so both Bloch sums factor over the parameters and one draw
costs O(N) (``_linear_entropy``).

Both Monte Carlo statistics draw and evaluate their samples one
``ansatz._row_blocks`` block at a time.  A call allocates its block
arrays once, sized for the first (largest) block, and writes every block
through views of them, so besides S (none for linear entropy) it holds
one set of block arrays and one float per sample.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .ansatz import Ansatz, _row_blocks, flip_bits, sign_matrix
from .optimize import _newton_core, _overlap_gap, _seen_system
from .rng import stream
from .targets import TargetDistribution

__all__ = [
    "GradientStats",
    "EntropyStats",
    "ExpFit",
    "MIN_SAMPLE_COUNT",
    "gradient_statistics",
    "mean_entropy",
    "fit_entropy_curve",
]

MIN_SAMPLE_COUNT = 100

# The saturation model depends on its base a and rate b only through
# b*ln(a), so the base is pinned by convention and only the rate and
# offset are identifiable from data.
FIT_BASE = 1.2


@dataclass(frozen=True)
class GradientStats:
    n_inputs: int
    n_params: int
    sample_count: int
    mean_abs_gradient: float
    gradient_variance: float
    seed: int


@dataclass(frozen=True)
class EntropyStats:
    n_inputs: int
    n_params: int
    sample_count: int
    mean_entropy: float
    seed: int


@dataclass(frozen=True)
class ExpFit:
    """Parameters of the saturation model value(n) = 1 - a**(-b*(n - c))."""

    a: float
    b: float
    c: float
    residual: float
    degenerate: bool


def _block_buffers(sample_count: int, row_entries: int, *widths: int):
    """The ``_row_blocks`` slices over the samples, and one uninitialized
    (rows x width) array per width, rows being the first (largest) block's."""
    blocks = _row_blocks(sample_count, row_entries)
    first = next(blocks)
    buffers = [np.empty((first.stop, width)) for width in widths]
    return itertools.chain([first], blocks), buffers


def _uniform_angles(rng: np.random.Generator, out: np.ndarray) -> np.ndarray:
    """Fill ``out`` with the numbers ``rng.uniform(0, 2 pi, out.shape)`` draws."""
    rng.random(out=out)
    out *= 2.0 * np.pi
    return out


def gradient_statistics(
    ansatz: Ansatz,
    target: TargetDistribution,
    sample_count: int = 1000,
    seed: int = 0,
    param_index: int = 0,
) -> GradientStats:
    """Mean |dC/d(one parameter)| and its variance over random parameters.

    The first parameter (the initial rotation, sign +1 on every input) is
    used consistently across sweeps so that curves are comparable;
    ``param_index`` exists for spot checks against other components.
    Each sample is g = dE/dp / (2 sqrt(E)) from ``_overlap_gap`` on its
    row block, as ``optimize.gradient`` computes it for one draw.

    With E = 1 - |F|, F the mean of cos(theta_b - t_b) over the n_seen
    seen inputs, g^2 = (dF/dp)^2 / (4 E).  Over uniform parameters
    E[(dF/dp_k)^2] = 1/(2 n_seen) exactly for every k, because the seen
    rows of S are pairwise distinct, so E[g^2] >= 1/(8 n_seen), nearly
    equal once |F| is small (about 2^(-N/2)).
    """
    if sample_count < MIN_SAMPLE_COUNT:
        raise ValueError(f"sample_count must be >= {MIN_SAMPLE_COUNT}, got {sample_count}")
    if not 0 <= param_index < ansatz.param_count:
        raise ValueError(f"param_index {param_index} outside 0..{ansatz.param_count - 1}")
    seen_signs, seen_goal = _seen_system(ansatz, target)
    column = np.ascontiguousarray(seen_signs[:, param_index])
    rng = stream(seed, "gradient-stats")
    grads = np.empty(sample_count)
    n_seen = seen_goal.size
    blocks, (draws, residual, d_gap) = _block_buffers(
        sample_count, 1 << ansatz.n_inputs, ansatz.param_count, n_seen, n_seen)
    for rows in blocks:
        size = rows.stop - rows.start
        block = np.matmul(_uniform_angles(rng, draws[:size]), seen_signs.T, out=residual[:size])
        block -= seen_goal
        gap, block_d_gap = _overlap_gap(block, out=d_gap[:size])
        grads[rows] = block_d_gap @ column / (2.0 * np.sqrt(gap))
    return GradientStats(
        n_inputs=ansatz.n_inputs,
        n_params=ansatz.param_count,
        sample_count=sample_count,
        mean_abs_gradient=float(np.abs(grads).mean()),
        gradient_variance=float(grads.var()),
        seed=seed,
    )


def _radius_entropy(radius: np.ndarray) -> np.ndarray:
    """Base-2 entropy of a qubit whose Bloch vector has length ``radius``:
    its eigenvalues are (1 +- r) / 2."""
    split = radius / 2.0
    lams = np.stack([0.5 + split, 0.5 - split], axis=-1)
    lams = np.clip(lams, 0.0, 1.0)
    terms = np.where(lams > 0, -lams * np.log2(np.where(lams > 0, lams, 1.0)), 0.0)
    return terms.sum(axis=-1)


def _entropy(theta: np.ndarray, flipped: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """Base-2 entropy of the output qubit from its block angles and flip bits.

    Under a uniform input register the reduced state has Bloch vector
    (B, 0, A) with A = mean sigma_b cos 2 theta_b, sigma_b = -1 on flipped
    blocks, and B = mean sin 2 theta_b, so r = hypot(A, B).  ``theta`` may
    carry leading batch axes and is overwritten; the cosines go to ``out``
    (same shape as ``theta``, allocated when None).
    """
    sigma = np.where(flipped, -1.0, 1.0) / theta.shape[-1]
    theta *= 2.0
    along = np.cos(theta, out=out) @ sigma
    across = np.sin(theta, out=theta).mean(axis=-1)
    return _radius_entropy(np.hypot(along, across))


def _linear_entropy(draws: np.ndarray) -> np.ndarray:
    """``_entropy`` of the linear family for each row of parameters, in O(N).

    theta_b = p_0 + sum_k (-1)^c_k p_k with prefix parities c_k and flip
    c_N, and the c_k of a uniform input are uniform and independent, so
    B = sin 2p_0 prod_{k=1}^N cos 2p_k, A = -sin 2p_0 sin 2p_N
    prod_{k=1}^{N-1} cos 2p_k and r = |sin 2p_0 prod_{k=1}^{N-1} cos 2p_k|.
    ``draws`` is overwritten.
    """
    double = draws[:, :-1]
    double *= 2.0
    np.sin(double[:, 0], out=double[:, 0])
    np.cos(double[:, 1:], out=double[:, 1:])
    return _radius_entropy(np.abs(double.prod(axis=1)))


def mean_entropy(ansatz: Ansatz, sample_count: int = 1000, seed: int = 0) -> EntropyStats:
    """Monte Carlo average of the output qubit's entropy (``_entropy``)
    over uniform parameters.

    An ansatz whose gates are exactly the linear family's single controls
    takes the closed form of ``_linear_entropy``; any other gate list is
    evaluated through S.
    """
    if sample_count < MIN_SAMPLE_COUNT:
        raise ValueError(f"sample_count must be >= {MIN_SAMPLE_COUNT}, got {sample_count}")
    rng = stream(seed, "entropy-stats")
    entropies = np.empty(sample_count)
    n_params = ansatz.param_count
    if ansatz.controls == Ansatz.linear(ansatz.n_inputs).controls:
        blocks, (draws,) = _block_buffers(sample_count, n_params, n_params)
        for rows in blocks:
            entropies[rows] = _linear_entropy(_uniform_angles(rng, draws[:rows.stop - rows.start]))
    else:
        signs, flips = sign_matrix(ansatz), flip_bits(ansatz)
        n_states = 1 << ansatz.n_inputs
        blocks, (draws, theta, cosines) = _block_buffers(
            sample_count, n_states, n_params, n_states, n_states)
        for rows in blocks:
            size = rows.stop - rows.start
            block = np.matmul(_uniform_angles(rng, draws[:size]), signs.T, out=theta[:size])
            entropies[rows] = _entropy(block, flips, out=cosines[:size])
    return EntropyStats(
        n_inputs=ansatz.n_inputs,
        n_params=ansatz.param_count,
        sample_count=sample_count,
        mean_entropy=float(entropies.mean()),
        seed=seed,
    )


def fit_entropy_curve(points: Sequence[tuple[float, float]]) -> ExpFit:
    """Least-squares fit of value(n) = 1 - a**(-b*(n - c)) to (n, value) pairs.

    Only the product b*ln(a) and the offset c are identifiable, so ``a``
    is pinned to ``FIT_BASE`` and ``b`` reported relative to it.  The rate
    and offset are initialized by linear regression of log(1 - value) on n
    and polished with the damped Newton core on the exact Hessian.
    Constant or otherwise unfittable data comes back flagged degenerate
    rather than raising.
    """
    if len(points) < 4:
        raise ValueError(f"need at least 4 points to fit, got {len(points)}")
    ns = np.array([p[0] for p in points], dtype=float)
    values = np.array([p[1] for p in points], dtype=float)

    gaps = np.clip(1.0 - values, 1e-12, None)
    slope, intercept = np.polyfit(ns, np.log(gaps), 1)
    rate0 = max(-float(slope), 1e-6)
    offset0 = float(intercept) / rate0

    def fun(x: np.ndarray):
        # Model m = 1 - exp(-u), u = rate (n - offset), in x = (log rate, offset).
        rate = np.exp(x[0])
        u = rate * (ns - x[1])
        decay = np.exp(-u)
        err = (1.0 - decay) - values
        jac = np.stack([decay * u, -rate * decay])  # dm/dx

        def hessian():
            # 2 (J J^T + sum err d^2m/dx^2)
            cross = rate * float(err @ (decay * (u - 1.0)))
            second = np.array([
                [float(err @ (decay * u * (1.0 - u))), cross],
                [cross, -rate * rate * float(err @ decay)],
            ])
            return 2.0 * (jac @ jac.T + second)

        return float(err @ err), 2.0 * (jac @ err), hessian

    x0 = np.array([np.log(rate0), offset0])
    x, loss, _, _, _ = _newton_core(
        fun, x0, stop=lambda f, g: float(np.linalg.norm(g)) < 1e-12, max_iterations=500
    )
    rate = float(np.exp(x[0]))
    offset = float(x[1])
    rms = float(np.sqrt(loss / ns.size))
    degenerate = (
        not np.isfinite(rate)
        or not np.isfinite(offset)
        or rate < 1e-4
        or rate > 1e3
        or float(values.max() - values.min()) < 1e-6
    )
    return ExpFit(
        a=FIT_BASE,
        b=rate / float(np.log(FIT_BASE)),
        c=offset,
        residual=rms,
        degenerate=bool(degenerate),
    )
