import numpy as np
import pytest

import qimpute.ansatz
from qimpute import optimize
from qimpute.ansatz import Ansatz, conditional_output, effective_angles, sign_matrix
from qimpute.metrics import restricted_distance, state_distance, worst_case_bound
from qimpute.optimize import (
    _newton_core,
    adjusted_target_angles,
    finite_difference_gradient,
    gradient,
    least_squares_start,
    minimize,
    objective,
    solve_exponential,
)
from qimpute.oracle import gate_level_oracle
from qimpute.targets import (
    TargetDistribution,
    gaussian_target,
    majority_target,
    mask_fraction,
    random_target,
)


class TestObjective:
    def test_exponential_solution_scores_zero(self):
        target = random_target(3, seed=1)
        params = solve_exponential(target)
        assert objective(Ansatz.exponential(3), params, target) < 1e-10

    def test_brute_force_overlap_at_origin(self):
        # independent route: overlap of the literal gate-level state with
        # the amplitude vector of the target joint
        target = majority_target(2)
        ansatz = Ansatz.linear(2)
        zeros = np.zeros(3)
        state = gate_level_oracle(ansatz, zeros)
        overlap = float(np.sqrt(target.probs.ravel()) @ state)
        expected = np.sqrt(1.0 - abs(overlap))
        assert objective(ansatz, zeros, target) == pytest.approx(expected, abs=1e-12)
        # and the overlap itself is the hand value (1 + sqrt(2))/4
        assert overlap == pytest.approx((1.0 + np.sqrt(2.0)) / 4.0, abs=1e-12)

    def test_periodic_in_each_parameter(self):
        rng = np.random.default_rng(2)
        target = gaussian_target(3)
        ansatz = Ansatz.quadratic(3)
        params = rng.uniform(0, 2 * np.pi, ansatz.param_count)
        base = objective(ansatz, params, target)
        for i in range(ansatz.param_count):
            shifted = params.copy()
            shifted[i] += 2 * np.pi
            assert objective(ansatz, shifted, target) == pytest.approx(base, abs=1e-12)

    def test_masked_optimum_can_reach_zero(self):
        # more parameters than seen inputs: the visible data fits exactly
        target = TargetDistribution.from_conditionals(
            np.array([[1.0, 0.0], [0.0, 0.0], [0.25, 0.75], [0.0, 0.0]]),
            seen_mask=np.array([True, False, True, False]),
        )
        result = minimize(Ansatz.linear(2), target)
        assert result.final_distance < 1e-7

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            objective(Ansatz.linear(3), np.zeros(3), gaussian_target(3))
        with pytest.raises(ValueError):
            objective(Ansatz.linear(2), np.zeros(3), gaussian_target(3))


def near_exact_fit(gap, seed, seen_mask=None):
    """An exponential-family exact solve, moved so that 1 - |F| is near ``gap``.

    The target's conditionals keep every goal angle in [0.46, 1.11], and
    each block angle moves by at most sqrt(2 * gap) <= 0.15, so the block
    angles stay in [0, pi/2]: both output amplitudes are nonnegative and
    the overlap F equals the Bhattacharyya coefficient of the joints.
    """
    rng = np.random.default_rng(seed)
    p0 = rng.uniform(0.2, 0.8, 16)
    target = TargetDistribution.from_conditionals(np.stack([p0, 1.0 - p0], axis=1), seen_mask)
    ansatz = Ansatz.exponential(4)
    shift = np.sqrt(2.0 * gap) * rng.choice([-1.0, 1.0], p0.size) * rng.uniform(0.5, 1.0, p0.size)
    params = solve_exponential(target) + np.linalg.solve(sign_matrix(ansatz), shift)
    return ansatz, params, target


GAPS = [1e-16, 1e-14, 1e-12, 1e-10, 1e-8, 1e-6, 1e-4, 1e-2]


class TestExactForms:
    # Computed as sqrt(1 - overlap), a distance near 1e-6 keeps only about
    # four digits; the gap forms keep them all, so the routes agree.
    @pytest.mark.parametrize("gap", GAPS)
    def test_objective_is_seen_hellinger(self, gap):
        seen = np.ones(16, dtype=bool)
        seen[[1, 6, 11]] = False
        ansatz, params, target = near_exact_fit(gap, 1, seen_mask=seen)
        distance = objective(ansatz, params, target)
        seen_hellinger = restricted_distance(target, conditional_output(ansatz, params), seen)
        assert distance == pytest.approx(seen_hellinger, rel=1e-6, abs=0.0)
        assert distance == pytest.approx(np.sqrt(gap), rel=0.5, abs=0.0)

    @pytest.mark.parametrize("gap", GAPS)
    def test_state_distance_is_objective(self, gap):
        ansatz, params, target = near_exact_fit(gap, 2)
        distance = state_distance(target, conditional_output(ansatz, params))
        assert distance == pytest.approx(objective(ansatz, params, target), rel=1e-6, abs=0.0)


class TestGradient:
    def test_matches_central_differences(self):
        rng = np.random.default_rng(3)
        for kind in ("linear", "quadratic", "exponential"):
            for n in (2, 3):
                ansatz = getattr(Ansatz, kind)(n)
                target = random_target(n, seed=n)
                for _ in range(5):
                    params = rng.uniform(0, 2 * np.pi, ansatz.param_count)
                    analytic = gradient(ansatz, params, target)
                    numeric = finite_difference_gradient(ansatz, params, target)
                    assert np.max(np.abs(analytic - numeric)) < 1e-6

    def test_vanishing_at_exponential_optimum(self):
        # sqrt(1-|F|) is conical at an exact fit, so its gradient norm does
        # not vanish; the smooth complement 2*C*grad(C) = grad(1-|F|) does
        target = random_target(3, seed=4)
        params = solve_exponential(target)
        rng = np.random.default_rng(4)
        nudged = params + 1e-6 * rng.standard_normal(params.size)
        ansatz = Ansatz.exponential(3)
        distance = objective(ansatz, nudged, target)
        assert distance > 1e-12
        smooth_norm = 2.0 * distance * np.linalg.norm(gradient(ansatz, nudged, target))
        assert smooth_norm < 1e-5

    def test_exact_fit_signals_convergence(self):
        # parity target realized exactly at the origin
        parity = TargetDistribution.from_conditionals(
            np.array([[1.0, 0.0], [0.0, 1.0], [0.0, 1.0], [1.0, 0.0]])
        )
        ansatz = Ansatz.linear(2)
        assert objective(ansatz, np.zeros(3), parity) == 0.0
        with pytest.raises(ValueError):
            gradient(ansatz, np.zeros(3), parity)


class TestNewtonCore:
    def test_solves_quadratic_bowl(self):
        scale = np.array([1.0, 4.0, 9.0])

        def fun(x):
            return float(scale @ (x * x)), 2.0 * scale * x, lambda: np.diag(2.0 * scale)

        x, f, g, iterations, converged = _newton_core(
            fun,
            np.array([1.0, -2.0, 3.0]),
            stop=lambda f, g: float(np.linalg.norm(g)) < 1e-10,
            max_iterations=200,
        )
        assert converged
        assert iterations > 0
        assert f < 1e-18
        assert np.max(np.abs(x)) < 1e-9

    def test_shift_engages_at_non_convex_start(self):
        # f = (x^2 - 1)^2 + y^2 has a local maximum in x at 0; from x = 0.1
        # the Hessian is indefinite, so Cholesky fails without the shift and
        # the plain Newton step heads uphill, towards that maximum
        values = []

        def fun(z):
            x, y = z
            values.append(float((x * x - 1.0) ** 2 + y * y))
            grad = np.array([4.0 * x * (x * x - 1.0), 2.0 * y])
            return values[-1], grad, lambda: np.diag([12.0 * x * x - 4.0, 2.0])

        start = np.array([0.1, 0.01])
        assert np.linalg.eigvalsh(fun(start)[2]()).min() < 0.0
        plain = start - np.linalg.solve(fun(start)[2](), fun(start)[1])
        assert fun(plain)[0] > fun(start)[0]
        values.clear()
        x, f, g, iterations, converged = _newton_core(
            fun, start, stop=lambda f, g: float(np.linalg.norm(g)) < 1e-10, max_iterations=200
        )
        assert converged
        assert f < 1e-18
        assert abs(x[0]) == pytest.approx(1.0, abs=1e-9)
        assert f <= min(values)
        assert values[0] > f


def least_squares_cases():
    for kind in ("linear", "quadratic"):
        for n in (3, 5, 7):
            for target in (gaussian_target(n), majority_target(n), random_target(n, seed=n)):
                for fraction in (0.0, 0.4, 0.8):
                    masked = mask_fraction(target, fraction, seed=n) if fraction else target
                    yield getattr(Ansatz, kind)(n), masked


class TestLeastSquaresStart:
    @pytest.mark.parametrize("n", [1, 2, 4, 6, 8])
    def test_fully_seen_linear_start_is_walsh_closed_form(self, n):
        # linear S has orthogonal columns, S^T S = 2^N I
        ansatz = Ansatz.linear(n)
        signs = sign_matrix(ansatz)
        for target in (gaussian_target(n), majority_target(n), random_target(n, seed=3)):
            goal = adjusted_target_angles(ansatz, target)
            expected = signs.T @ goal / 2 ** n
            assert np.max(np.abs(least_squares_start(ansatz, target) - expected)) < 1e-12

    def test_minimize_never_above_start(self):
        for ansatz, target in least_squares_cases():
            start = objective(ansatz, least_squares_start(ansatz, target), target)
            result = minimize(ansatz, target)
            assert result.converged
            assert result.final_distance <= start

    def test_masked_quadratic_start_is_minimum_norm(self):
        # 5 of 16 inputs seen, 11 parameters: the seen system is
        # underdetermined and realized exactly by its minimum-norm solution
        ansatz = Ansatz.quadratic(4)
        target = mask_fraction(majority_target(4), 0.7, seed=1)
        seen = target.seen_mask
        assert seen.sum() < ansatz.param_count
        goal = adjusted_target_angles(ansatz, target)[seen]
        expected = np.linalg.pinv(sign_matrix(ansatz)[seen]) @ goal
        start = least_squares_start(ansatz, target)
        assert np.max(np.abs(start - expected)) < 1e-12
        result = minimize(ansatz, target)
        assert result.final_distance < 1e-12
        assert np.max(np.abs(result.best_params - expected)) < 1e-12

    @pytest.mark.parametrize("fraction", [0.0, 0.6])
    def test_row_blocks_match_one_block(self, fraction, monkeypatch):
        # blocks of two rows reduce the start and the Hessian piecewise
        ansatz = Ansatz.quadratic(5)
        target = random_target(5, seed=4)
        target = mask_fraction(target, fraction, seed=4) if fraction else target
        whole = minimize(ansatz, target)
        seen = target.seen_mask
        goal = adjusted_target_angles(ansatz, target)[seen]
        expected = np.linalg.lstsq(sign_matrix(ansatz)[seen], goal)[0]
        monkeypatch.setattr(qimpute.ansatz, "_BLOCK_ENTRIES", 2 * ansatz.param_count)
        assert np.max(np.abs(least_squares_start(ansatz, target) - expected)) < 1e-12
        signs = sign_matrix(ansatz)[seen]
        weights = np.cos(np.arange(seen.sum()))
        gram = optimize._weighted_gram(signs, weights)
        assert np.max(np.abs(gram - (signs.T * weights) @ signs)) < 1e-12
        blocked = minimize(ansatz, target)
        assert blocked.converged and whole.converged
        assert blocked.final_distance == pytest.approx(whole.final_distance, rel=1e-9, abs=1e-15)
        assert np.max(np.abs(blocked.best_params - whole.best_params)) < 1e-9


class TestMinimize:
    def test_gaussian_linear_beats_bound(self):
        target = gaussian_target(3)
        result = minimize(Ansatz.linear(3), target)
        assert result.final_distance < worst_case_bound(4, 3)
        assert result.final_distance < 0.35

    def test_majority_quadratic_beats_linear(self):
        target = majority_target(3)
        lin = minimize(Ansatz.linear(3), target)
        qua = minimize(Ansatz.quadratic(3), target)
        assert qua.final_distance < lin.final_distance

    def test_deterministic(self):
        target = mask_fraction(random_target(4, seed=5), 0.3, seed=5)
        first = minimize(Ansatz.quadratic(4), target)
        second = minimize(Ansatz.quadratic(4), target)
        assert first.final_distance == second.final_distance
        assert first.iterations_used == second.iterations_used
        assert first.converged == second.converged
        assert np.array_equal(first.best_params, second.best_params)

    def test_result_within_unit_interval(self):
        target = random_target(3, seed=8)
        result = minimize(Ansatz.linear(3), target)
        assert 0.0 <= result.final_distance <= 1.0


class TestSolveExponential:
    def test_random_targets_exact(self):
        for n in (1, 2, 3):
            for seed in (1, 2):
                target = random_target(n, seed=seed)
                params = solve_exponential(target)
                assert objective(Ansatz.exponential(n), params, target) < 1e-10

    def test_round_trip_reproduces_distribution(self):
        rng = np.random.default_rng(6)
        ansatz = Ansatz.exponential(3)
        original = rng.uniform(0, 2 * np.pi, 8)
        out = conditional_output(ansatz, original)
        target = TargetDistribution.from_conditionals(
            np.stack([out.amp0 ** 2, out.amp1 ** 2], axis=1)
        )
        recovered = solve_exponential(target)
        out2 = conditional_output(ansatz, recovered)
        assert np.max(np.abs(out2.amp0 ** 2 - out.amp0 ** 2)) < 1e-10

    def test_single_input_closed_form(self):
        target = random_target(1, seed=7)
        goal = adjusted_target_angles(Ansatz.exponential(1), target)
        params = solve_exponential(target)
        assert params[0] == pytest.approx((goal[0] + goal[1]) / 2.0, abs=1e-12)
        assert params[1] == pytest.approx((goal[0] - goal[1]) / 2.0, abs=1e-12)

    def test_masked_inputs_filled_with_even_split(self):
        full = random_target(2, seed=9)
        masked = TargetDistribution.from_conditionals(
            full.cond * np.array([1.0, 1.0, 0.0, 1.0])[:, None],
            seen_mask=np.array([True, True, False, True]),
        )
        params = solve_exponential(masked)
        out = conditional_output(Ansatz.exponential(2), params)
        assert out.amp0[2] ** 2 == pytest.approx(0.5, abs=1e-10)


def test_block_gradient_antisymmetry_single_input():
    # nudging a realized block angle and nudging its target angle move the
    # distance by opposite amounts
    def distance(theta, goal):
        return np.sqrt(1.0 - abs(np.mean(np.cos(theta - goal))))

    theta = np.array([0.3, 1.1])
    goal = np.array([0.9, 0.2])
    step = 1e-6
    for b in range(2):
        bump = np.zeros(2)
        bump[b] = step
        d_theta = (distance(theta + bump, goal) - distance(theta - bump, goal)) / (2 * step)
        d_goal = (distance(theta, goal + bump) - distance(theta, goal - bump)) / (2 * step)
        assert d_theta == pytest.approx(-d_goal, abs=1e-8)


def test_adjusted_targets_flip_complement():
    target = random_target(3, seed=10)
    linear_goal = adjusted_target_angles(Ansatz.linear(3), target)
    theta, flips = effective_angles(Ansatz.linear(3), np.zeros(4))
    bare = np.arccos(np.sqrt(target.cond[:, 0]))
    expected = np.where(flips, np.pi / 2 - bare, bare)
    assert np.allclose(linear_goal, expected, atol=0)
