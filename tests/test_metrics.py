import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from qimpute.ansatz import Ansatz, conditional_output
from qimpute.metrics import (
    hellinger,
    restricted_distance,
    state_distance,
    worst_case_bound,
)
from qimpute.optimize import solve_exponential
from qimpute.targets import (
    TargetDistribution,
    gaussian_target,
    mask_fraction,
    random_target,
    target_angles,
)


class TestHellinger:
    def test_identical_distributions(self):
        p = np.array([0.2, 0.3, 0.5])
        assert hellinger(p, p).hellinger == 0.0

    def test_disjoint_supports(self):
        report = hellinger([1.0, 0.0], [0.0, 1.0])
        assert report.hellinger == 1.0
        assert report.bhattacharyya == 0.0

    def test_half_half_versus_point_mass(self):
        report = hellinger([0.5, 0.5], [1.0, 0.0])
        expected = math.sqrt(1.0 - 1.0 / math.sqrt(2.0))
        assert report.hellinger == pytest.approx(expected, abs=1e-12)
        assert report.hellinger == pytest.approx(0.541196, abs=1e-6)

    def test_root_of_complement_invariant(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            p = rng.dirichlet(np.ones(8))
            q = rng.dirichlet(np.ones(8))
            report = hellinger(p, q)
            assert report.hellinger == pytest.approx(
                math.sqrt(1.0 - report.bhattacharyya), abs=1e-12
            )

    @given(st.integers(0, 1000))
    def test_symmetry(self, seed):
        rng = np.random.default_rng(seed)
        p = rng.dirichlet(np.ones(6))
        q = rng.dirichlet(np.ones(6))
        assert hellinger(p, q).hellinger == hellinger(q, p).hellinger

    def test_input_validation(self):
        with pytest.raises(ValueError):
            hellinger([0.5, 0.5], [1.0, 0.0, 0.0])
        with pytest.raises(ValueError):
            hellinger([0.6, 0.5], [1.0, 0.0])
        with pytest.raises(ValueError):
            hellinger([-0.1, 1.1], [1.0, 0.0])
        # NaN passes neither a "< 0" nor a "> tol" test.
        with pytest.raises(ValueError):
            hellinger([np.nan, 1.0], [0.5, 0.5])
        with pytest.raises(ValueError):
            hellinger([0.5, 0.5], [1.0, np.nan])

    def test_tiny_drift_renormalized(self):
        p = np.array([0.5, 0.5]) * (1.0 + 5e-10)
        assert hellinger(p, [0.5, 0.5]).hellinger == pytest.approx(0.0, abs=1e-9)

    def test_tiny_relative_change_matches_closed_form(self):
        # q = p with its first entry scaled by 1 + delta, renormalized:
        # 1 - BC = p0 p1 delta^2 / 8 + O(delta^3), far below the rounding
        # of a Bhattacharyya coefficient formed near 1.  Rounding q itself
        # moves sqrt(q) - sqrt(p) by about 1e-4 of its size at this delta.
        delta = (1.0 + 1e-12) - 1.0
        p = np.array([0.25, 0.75])
        q = p * np.array([1.0 + delta, 1.0])
        expected = math.sqrt(p[0] * p[1] / 8.0) * delta
        assert hellinger(p, q / q.sum()).hellinger == pytest.approx(expected, rel=1e-3, abs=0.0)

    def test_never_nan(self):
        assert not math.isnan(hellinger([1.0, 0.0], [0.0, 1.0]).hellinger)


class TestStateDistance:
    def test_perfect_unflipped_output(self):
        # a perfect reconstruction differs from the target only by the
        # rounding of its amplitudes
        target = random_target(3, seed=1)
        angles = target_angles(target)
        out = np.stack([np.cos(angles), np.sin(angles)], axis=1)
        assert state_distance(target, out) < 1e-7

    def test_quarter_turn_off_everywhere(self):
        target = random_target(3, seed=2)
        angles = target_angles(target) + np.pi / 2
        out = np.stack([np.cos(angles), np.sin(angles)], axis=1)
        assert state_distance(target, out) == pytest.approx(1.0, abs=1e-12)

    def test_exponential_solution_is_exact(self):
        target = random_target(4, seed=3)
        params = solve_exponential(target)
        out = conditional_output(Ansatz.exponential(4), params)
        assert state_distance(target, out) < 1e-8

    def test_dimension_mismatch(self):
        target = random_target(3, seed=4)
        out = conditional_output(Ansatz.linear(2), np.zeros(3))
        with pytest.raises(ValueError):
            state_distance(target, out)
        # The amplitudes of the right width, but not as (2^N, 2) rows.
        with pytest.raises(ValueError):
            state_distance(target, conditional_output(Ansatz.linear(3), np.zeros(4)).ravel())


class TestWorstCaseBound:
    def test_edge_values(self):
        assert worst_case_bound(8, 3) == 0.0
        assert worst_case_bound(0, 3) == 1.0
        assert worst_case_bound(4, 3) == pytest.approx(math.sqrt(0.5), abs=1e-12)

    def test_rejects_overfull(self):
        with pytest.raises(ValueError):
            worst_case_bound(9, 3)
        with pytest.raises(ValueError):
            worst_case_bound(-1, 3)


class TestRestrictedDistance:
    def test_full_mask_seen_equals_plain(self):
        target = gaussian_target(3)
        out = conditional_output(Ansatz.linear(3), np.full(4, 0.4))
        distance = restricted_distance(target, out, target.seen_mask)
        plain = hellinger(target.probs.ravel(), (out ** 2 / 8).ravel())
        assert distance == pytest.approx(plain.hellinger, abs=1e-12)

    def test_perfect_seen_fit_scores_zero_despite_holes(self):
        # target built from the circuit's own output on the seen inputs
        rng = np.random.default_rng(5)
        ansatz = Ansatz.linear(3)
        params = rng.uniform(0, 2 * np.pi, 4)
        out = conditional_output(ansatz, params)
        cond = out ** 2
        seen = np.array([True, False, True, True, False, True, False, True])
        target = TargetDistribution.from_conditionals(cond, seen_mask=seen)
        assert restricted_distance(target, out, seen) < 1e-12

    def test_unseen_support_in_range(self):
        full = gaussian_target(4)
        masked = mask_fraction(full, 0.7, seed=6)
        out = conditional_output(Ansatz.linear(4), np.full(5, 0.2))
        assert 0.0 <= restricted_distance(full, out, ~masked.seen_mask) <= 1.0

    def test_empty_support_rejected(self):
        target = gaussian_target(2)
        out = conditional_output(Ansatz.linear(2), np.zeros(3))
        with pytest.raises(ValueError, match="empty"):
            restricted_distance(target, out, ~target.seen_mask)
        # The hidden inputs of a masked target carry none of its mass.
        masked = mask_fraction(gaussian_target(2), 0.5, seed=1)
        with pytest.raises(ValueError, match="no mass"):
            restricted_distance(masked, out, ~masked.seen_mask)
        with pytest.raises(ValueError, match="dimension"):
            restricted_distance(gaussian_target(3), out, np.ones(8, dtype=bool))
