import numpy as np
import pytest
from hypothesis import given, strategies as st

import qimpute.ansatz
from qimpute.analysis import (
    _entropy,
    _linear_entropy,
    _radius_entropy,
    fit_entropy_curve,
    gradient_statistics,
    mean_entropy,
)
from qimpute.ansatz import Ansatz, conditional_output, effective_angles, sign_matrix
from qimpute.harness import ExperimentConfig, run_bp_stats
from qimpute.optimize import (
    _overlap_gap,
    _seen_system,
    adjusted_target_angles,
    finite_difference_gradient,
    gradient,
)
from qimpute.rng import stream
from qimpute.targets import gaussian_target, majority_target, mask_fraction, random_target


class TestTargetEntropy:
    def test_zero_parameters_give_maximal_mixing(self):
        for n in (1, 2, 3, 5):
            entropy = _entropy(*effective_angles(Ansatz.linear(n), np.zeros(n + 1)))
            assert entropy == pytest.approx(1.0, abs=1e-12)

    def test_single_input_quarter_turn_maximal(self):
        entropy = _entropy(*effective_angles(Ansatz.linear(1), [0.0, np.pi / 4]))
        assert entropy == pytest.approx(1.0, abs=1e-12)

    def test_uniform_quarter_angle_is_pure(self):
        # only the initial rotation set: flipped and unflipped blocks both
        # give the same output vector, so the reduced state is pure
        for n in (2, 4):
            params = np.zeros(n + 1)
            params[0] = np.pi / 4
            entropy = _entropy(*effective_angles(Ansatz.linear(n), params))
            assert entropy == pytest.approx(0.0, abs=1e-12)

    def test_reduced_state_well_formed(self):
        rng = np.random.default_rng(0)
        for n in (2, 4, 6):
            ansatz = Ansatz.quadratic(n)
            for _ in range(25):
                params = rng.uniform(0, 2 * np.pi, ansatz.param_count)
                out = conditional_output(ansatz, params)
                rho = np.array(
                    [
                        [(out.amp0 ** 2).mean(), (out.amp0 * out.amp1).mean()],
                        [(out.amp0 * out.amp1).mean(), (out.amp1 ** 2).mean()],
                    ]
                )
                assert np.trace(rho) == pytest.approx(1.0, abs=1e-12)
                eigenvalues = np.linalg.eigvalsh(rho)
                assert eigenvalues.min() > -1e-12
                entropy = _entropy(*effective_angles(ansatz, params))
                assert 0.0 <= entropy <= 1.0 + 1e-12


class TestMeanEntropy:
    def test_deterministic(self):
        a = mean_entropy(Ansatz.linear(4), sample_count=200, seed=3)
        b = mean_entropy(Ansatz.linear(4), sample_count=200, seed=3)
        assert a == b

    def test_grows_with_width(self):
        small = mean_entropy(Ansatz.linear(3), sample_count=1000, seed=1)
        large = mean_entropy(Ansatz.linear(6), sample_count=1000, seed=1)
        assert large.mean_entropy > small.mean_entropy

    def test_pair_gates_leave_level_unchanged(self):
        lin = mean_entropy(Ansatz.linear(5), sample_count=1000, seed=1)
        qua = mean_entropy(Ansatz.quadratic(5), sample_count=1000, seed=1)
        assert abs(lin.mean_entropy - qua.mean_entropy) < 0.05

    def test_sample_floor(self):
        with pytest.raises(ValueError):
            mean_entropy(Ansatz.linear(3), sample_count=50, seed=0)

    @pytest.mark.parametrize("n", [1, 2, 3, 6, 9])
    def test_linear_matches_exact_mean(self, n):
        # Over uniform parameters the linear family's entropy has mean
        # 1 - (1/ln 2) sum_k c_k^N / (2k (2k - 1)), c_k = C(2k, k) / 4^k.
        # c_k falls, so the terms past K sum to at most c_K / (4K) < 5e-9.
        k = np.arange(1, 100_001)
        c = np.cumprod((2 * k - 1) / (2 * k))
        exact = 1.0 - (c ** n / (2 * k * (2 * k - 1))).sum() / np.log(2.0)
        samples = 20_000
        stats = mean_entropy(Ansatz.linear(n), sample_count=samples, seed=3)
        # Each entropy lies in [0, 1], so its standard deviation is at most 1/2.
        assert abs(stats.mean_entropy - exact) < 4 * 0.5 / np.sqrt(samples)

    @given(st.data())
    def test_linear_closed_form_matches_bloch_sums(self, data):
        n = data.draw(st.integers(1, 10))
        angle = st.floats(0.0, 2 * np.pi)
        params = np.array(data.draw(st.lists(angle, min_size=n + 1, max_size=n + 1)))
        closed = _linear_entropy(params[None, :].copy())[0]
        general = _entropy(*effective_angles(Ansatz.linear(n), params))
        # The Bloch-sum path rounds each theta_b = S p, a sum of N+1 terms
        # up to sum |p_k|, which moves its Bloch radius by up to about
        # delta = (N + 2) eps sum |p_k|; near a pure state the entropy
        # magnifies that.  1e-15 covers the remaining rounding.
        radius = abs(np.sin(2 * params[0]) * np.prod(np.cos(2 * params[1:-1])))
        delta = (n + 2) * np.finfo(float).eps * np.abs(params).sum()
        spread = np.ptp(_radius_entropy(np.clip([radius - delta, radius + delta], 0.0, 1.0)))
        assert abs(closed - general) <= 1e-15 + spread

    def test_linear_kind_with_pair_gate_takes_general_path(self):
        # The closed form holds for the single-control gate list, not for
        # whatever an ansatz named "linear" carries.
        gates = ((1,), (1, 2), (2,), (3,))
        named = mean_entropy(Ansatz("linear", 3, gates), sample_count=300, seed=2)
        custom = mean_entropy(Ansatz("custom", 3, gates), sample_count=300, seed=2)
        assert named == custom
        draws = stream(2, "entropy-stats").uniform(0, 2 * np.pi, (300, len(gates) + 1))
        reference = np.mean(
            [eigenvalue_entropy(conditional_output(Ansatz("custom", 3, gates), p)) for p in draws])
        assert named.mean_entropy == pytest.approx(reference, rel=1e-12, abs=0.0)


class TestGradientStatistics:
    def test_reproducible(self):
        target = gaussian_target(4)
        a = gradient_statistics(Ansatz.linear(4), target, sample_count=300, seed=2)
        b = gradient_statistics(Ansatz.linear(4), target, sample_count=300, seed=2)
        assert a == b

    def test_variance_decays_with_width(self):
        values = []
        for n in (4, 6, 8):
            stats = gradient_statistics(
                Ansatz.linear(n), gaussian_target(n), sample_count=1000, seed=1
            )
            values.append(stats.gradient_variance)
        assert values[0] > values[1] > values[2]

    def test_agrees_with_finite_difference_statistics(self):
        n = 4
        ansatz = Ansatz.linear(n)
        target = gaussian_target(n)
        sample_count = 1000
        stats = gradient_statistics(ansatz, target, sample_count=sample_count, seed=5)
        draws = stream(5, "gradient-stats").uniform(0, 2 * np.pi, (sample_count, ansatz.param_count))
        numeric = np.array(
            [finite_difference_gradient(ansatz, p, target)[0] for p in draws]
        )
        analytic = np.array([gradient(ansatz, p, target)[0] for p in draws])
        assert np.max(np.abs(analytic - numeric)) < 1e-5
        standard_error = numeric.std() / np.sqrt(sample_count)
        assert abs(stats.mean_abs_gradient - np.abs(numeric).mean()) < 3 * standard_error
        assert stats.gradient_variance == pytest.approx(numeric.var(), rel=1e-3)

    def test_sample_floor(self):
        with pytest.raises(ValueError):
            gradient_statistics(Ansatz.linear(3), gaussian_target(3), sample_count=10, seed=0)

    def test_other_parameter_index(self):
        target = gaussian_target(4)
        first = gradient_statistics(Ansatz.linear(4), target, sample_count=500, seed=6)
        last = gradient_statistics(Ansatz.linear(4), target, sample_count=500, seed=6, param_index=4)
        # same order of magnitude, different component
        assert 0.1 < last.gradient_variance / first.gradient_variance < 10.0
        with pytest.raises(ValueError):
            gradient_statistics(Ansatz.linear(4), target, sample_count=500, seed=6, param_index=5)


@pytest.mark.parametrize("kind, n", [
    ("linear", 3), ("linear", 8), ("quadratic", 5), ("exponential", 4),
])
@pytest.mark.parametrize("masked", [False, True], ids=["random", "masked-majority"])
def test_gradient_second_moment_is_exact(kind, n, masked):
    # F = mean cos(theta_b - t_b) over the n_seen seen inputs.  Over uniform
    # parameters E[(dF/dp_k)^2] = 1/(2 n_seen) for every k: the seen rows of
    # S are pairwise distinct, so each cross term has some p_j at twice its
    # angle and averages out.  dE/dp_k = -sign(F) dF/dp_k has the same square.
    ansatz = getattr(Ansatz, kind)(n)
    target = mask_fraction(majority_target(n), 0.4, seed=n) if masked else random_target(n, n)
    seen_signs, seen_goal = _seen_system(ansatz, target)
    columns = seen_signs[:, [0, -1]]
    rng = stream(n, "gradient-stats")
    squares = []
    for _ in range(8):
        draws = rng.uniform(0, 2 * np.pi, (1000, ansatz.param_count))
        _, d_gap = _overlap_gap(draws @ seen_signs.T - seen_goal)
        squares.append((d_gap @ columns) ** 2)
    squares = np.concatenate(squares)
    standard_error = squares.std(axis=0) / np.sqrt(len(squares))
    deviation = np.abs(squares.mean(axis=0) - 1.0 / (2 * seen_goal.size))
    assert np.all(deviation < 5 * standard_error), (deviation, standard_error)


def one_block_statistics(ansatz, target, sample_count, seed):
    """(mean |gradient|, gradient variance, mean entropy) from one samples x 2^N block."""
    signs = sign_matrix(ansatz)
    seen = target.seen_mask
    goal = adjusted_target_angles(ansatz, target)
    draws = stream(seed, "gradient-stats").uniform(0, 2 * np.pi, (sample_count, ansatz.param_count))
    residual = (draws @ signs.T)[:, seen] - goal[seen]
    overlap = np.cos(residual).mean(axis=1)
    d_overlap = -np.sin(residual).mean(axis=1)
    distance = np.sqrt(np.clip(1.0 - np.abs(overlap), 0.0, None))
    grads = -np.sign(overlap) * d_overlap / (2.0 * np.maximum(distance, 1e-15))
    draws = stream(seed, "entropy-stats").uniform(0, 2 * np.pi, (sample_count, ansatz.param_count))
    entropies = [eigenvalue_entropy(conditional_output(ansatz, p)) for p in draws]
    return np.abs(grads).mean(), grads.var(), np.mean(entropies)


def eigenvalue_entropy(out):
    """Base-2 entropy of the input-averaged projector onto (amp0, amp1)."""
    amps = np.stack([out.amp0, out.amp1])
    lams = np.clip(np.linalg.eigvalsh(amps @ amps.T / out.amp0.size), 0.0, 1.0)
    lams = lams[lams > 0]
    return float(-(lams * np.log2(lams)).sum())


BUDGETS = [1, 7 * 32, 1 << 20]


@pytest.mark.parametrize("kind, budget", [
    *(pytest.param("quadratic", budget, id=str(budget)) for budget in BUDGETS),
    *(pytest.param("linear", budget, id=f"linear-{budget}") for budget in BUDGETS),
])
def test_chunked_statistics_match_one_block(monkeypatch, kind, budget):
    # 150 samples at N=5: one row per block, 22 blocks of up to 7 rows, one
    # block.  Linear entropy blocks over its M=6 parameters instead: 150 of
    # one row, 5 of up to 37 rows, one.  Both short last blocks reuse the
    # buffers of the full blocks before them.
    monkeypatch.setattr(qimpute.ansatz, "_BLOCK_ENTRIES", budget)
    ansatz = getattr(Ansatz, kind)(5)
    target = mask_fraction(random_target(5, seed=1), 0.3, seed=2)
    grad_stats = gradient_statistics(ansatz, target, sample_count=150, seed=4)
    entropy_stats = mean_entropy(ansatz, sample_count=150, seed=4)
    expected = one_block_statistics(ansatz, target, 150, 4)
    got = (grad_stats.mean_abs_gradient, grad_stats.gradient_variance, entropy_stats.mean_entropy)
    assert got == pytest.approx(expected, rel=1e-12, abs=0.0)


def gate_sweep_rows(n, sample_count, seed, out_dir):
    """The ``bp_stats`` gate-count sweep rows at width ``n`` on the gaussian target."""
    config = ExperimentConfig("bp_stats", n_min=2, n_max=2, samples=sample_count,
                              seeds=(seed,), m_sweep_n=n, out_dir=str(out_dir))
    return [row for row in run_bp_stats(config).rows if row["mode"] == "vs_m"]


class TestGradientStatisticsSweep:
    def test_series_shape_and_endpoints(self, tmp_path):
        n = 5
        series = gate_sweep_rows(n, 200, 4, tmp_path)
        n_pairs = n * (n - 1) // 2
        assert len(series) == n_pairs + 1
        linear = gradient_statistics(Ansatz.linear(n), gaussian_target(n), 200, seed=4)
        assert series[0]["gradient_variance"] == linear.gradient_variance
        assert series[0]["mean_abs_gradient"] == linear.mean_abs_gradient
        assert series[-1]["m"] == Ansatz.quadratic(n).param_count
        counts = [row["m"] for row in series]
        assert counts == list(range(n + 1, n + 1 + n_pairs + 1))

    def test_variation_stays_bounded(self, tmp_path):
        variances = [row["gradient_variance"] for row in gate_sweep_rows(6, 1000, 1, tmp_path)]
        assert max(variances) / min(variances) < 4.0


class TestEntropyFit:
    def test_synthetic_round_trip(self):
        ns = np.arange(3, 11, dtype=float)
        values = 1.0 - 1.2 ** (-3.2 * (ns - 0.8))
        fit = fit_entropy_curve(list(zip(ns, values)))
        assert not fit.degenerate
        assert fit.a == pytest.approx(1.2, rel=0.05)
        assert fit.b == pytest.approx(3.2, rel=0.05)
        assert fit.c == pytest.approx(0.8, rel=0.05)
        assert fit.residual < 1e-8

    def test_noisy_round_trip(self):
        rng = np.random.default_rng(11)
        ns = np.arange(3, 11, dtype=float)
        values = 1.0 - 1.2 ** (-3.2 * (ns - 0.8)) + rng.normal(0, 1e-4, ns.size)
        fit = fit_entropy_curve(list(zip(ns, values)))
        assert fit.b == pytest.approx(3.2, rel=0.05)
        assert fit.c == pytest.approx(0.8, rel=0.10)

    def test_constant_data_flagged(self):
        fit = fit_entropy_curve([(n, 0.5) for n in range(3, 10)])
        assert fit.degenerate

    def test_needs_four_points(self):
        with pytest.raises(ValueError):
            fit_entropy_curve([(3, 0.5), (4, 0.6), (5, 0.7)])
