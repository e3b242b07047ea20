import math
import tracemalloc
import warnings

import numpy as np
import pytest

from qimpute.rng import stream
from qimpute.targets import (
    TargetDistribution,
    gaussian_target,
    load_target_csv,
    majority_target,
    mask_fraction,
    random_target,
    save_target_csv,
    target_angles,
)


def assert_valid(target):
    assert target.probs.sum() == pytest.approx(1.0, abs=1e-12)
    assert np.all(target.probs >= 0)
    assert np.all(target.probs[~target.seen_mask] == 0)
    cond = target.cond
    assert np.allclose(cond[target.seen_mask].sum(axis=1), 1.0, atol=1e-12)


class TestGaussian:
    def test_peak_weight(self):
        target = gaussian_target(3)
        cond = target.cond
        peak = 1.0 / math.sqrt(2.0 * math.pi)
        assert cond[1, 0] == pytest.approx(peak, abs=1e-12)  # center (N-1)/2 = 1
        assert cond[1, 1] == pytest.approx(1.0 - peak, abs=1e-12)

    def test_normalized(self):
        for n in (1, 4, 8, 12):
            assert_valid(gaussian_target(n))

    def test_symmetric_about_center(self):
        cond = gaussian_target(3).cond
        assert cond[0, 0] == pytest.approx(cond[2, 0], abs=1e-12)

    def test_overrides(self):
        target = gaussian_target(3, center=4.0, sigma=2.0)
        cond = target.cond
        assert cond[4, 0] == pytest.approx(1.0 / math.sqrt(2.0 * math.pi), abs=1e-12)
        assert cond[2, 0] == pytest.approx(cond[6, 0], abs=1e-12)
        for bad in ({"sigma": 0.0}, {"sigma": -1.0}, {"sigma": math.nan},
                    {"center": math.nan}, {"center": math.inf}):
            with pytest.raises(ValueError):
                gaussian_target(3, **bad)
        with pytest.raises(ValueError):
            gaussian_target(0)


class TestMajority:
    def test_majority_of_ones(self):
        cond = majority_target(3).cond
        assert cond[5] == pytest.approx([0.0, 1.0])  # 101 has two ones

    def test_tie_splits_evenly(self):
        cond = majority_target(2).cond
        assert cond[1] == pytest.approx([0.5, 0.5])

    def test_single_bit_identity(self):
        cond = majority_target(1).cond
        assert cond[0] == pytest.approx([1.0, 0.0])
        assert cond[1] == pytest.approx([0.0, 1.0])

    def test_argmax_matches_majority_exhaustively(self):
        for n in range(1, 7):
            cond = majority_target(n).cond
            for value in range(1 << n):
                ones = int(value).bit_count()
                zeros = n - ones
                expected = (1.0, 0.0) if zeros > ones else (0.0, 1.0) if ones > zeros else (0.5, 0.5)
                assert tuple(cond[value]) == expected


class TestRandom:
    def test_deterministic(self):
        a = random_target(4, seed=9)
        b = random_target(4, seed=9)
        assert np.array_equal(a.probs, b.probs)

    def test_rows_sum_to_one(self):
        cond = random_target(5, seed=0).cond
        assert np.allclose(cond.sum(axis=1), 1.0, atol=1e-12)

    def test_seeds_differ(self):
        for seed in range(10):
            a = random_target(3, seed=seed)
            b = random_target(3, seed=seed + 1000)
            assert np.max(np.abs(a.probs - b.probs)) > 1e-6


class TestMasking:
    def test_zero_fraction_identity(self):
        target = gaussian_target(3)
        masked = mask_fraction(target, 0.0, seed=1)
        assert np.array_equal(masked.probs, target.probs)
        assert masked.seen_mask.all()

    def test_half_mask_counts_and_mass(self):
        masked = mask_fraction(gaussian_target(3), 0.5, seed=1)
        assert int((~masked.seen_mask).sum()) == 4
        assert masked.probs.sum() == pytest.approx(1.0, abs=1e-12)
        assert np.all(masked.probs[~masked.seen_mask] == 0)

    def test_conditionals_preserved_exactly(self):
        target = random_target(4, seed=2)
        masked = mask_fraction(target, 0.7, seed=3)
        seen = masked.seen_mask
        assert np.array_equal(masked.cond[seen], target.cond[seen])

    def test_deterministic_in_seed(self):
        a = mask_fraction(gaussian_target(4), 0.3, seed=5)
        b = mask_fraction(gaussian_target(4), 0.3, seed=5)
        assert np.array_equal(a.seen_mask, b.seen_mask)

    def test_fraction_bounds(self):
        with pytest.raises(ValueError):
            mask_fraction(gaussian_target(2), 1.0, seed=1)
        with pytest.raises(ValueError):
            mask_fraction(gaussian_target(2), -0.1, seed=1)

    def test_partly_seen_target_hides_only_seen_inputs(self):
        half = mask_fraction(gaussian_target(3), 0.5, seed=1)
        for seed in range(10):
            masked = mask_fraction(half, 0.25, seed=seed)
            assert int(masked.seen_mask.sum()) == 2
            assert not np.any(masked.seen_mask & ~half.seen_mask)
            assert_valid(masked)
        for fraction in (0.5, 0.9):
            with pytest.raises(ValueError, match="leaving none"):
                mask_fraction(half, fraction, seed=1)
        # A fully seen target keeps the hidden set drawn over all inputs.
        masked = mask_fraction(gaussian_target(4), 0.3, seed=5)
        hidden = stream(5, "mask").choice(16, size=4, replace=False)
        assert set(np.flatnonzero(~masked.seen_mask)) == set(hidden)

    def test_nothing_left_rejected(self):
        lone = TargetDistribution.from_conditionals(
            np.array([[1.0, 0.0], [0.0, 0.0]]), seen_mask=np.array([True, False])
        )
        raised = False
        for seed in range(30):
            try:
                mask_fraction(lone, 0.5, seed=seed)
            except ValueError:
                raised = True
                break
        assert raised, "masking the only seen input should fail"


class TestAngles:
    def test_limit_values(self):
        cond = np.array([[1.0, 0.0], [0.5, 0.5], [0.0, 1.0], [0.25, 0.75]])
        target = TargetDistribution.from_conditionals(cond)
        angles = target_angles(target)
        assert angles[0] == pytest.approx(0.0)
        assert angles[1] == pytest.approx(np.pi / 4)
        assert angles[2] == pytest.approx(np.pi / 2)
        assert angles[3] == pytest.approx(np.arccos(np.sqrt(0.25)))

    def test_unseen_flagged_nan(self):
        masked = mask_fraction(gaussian_target(3), 0.5, seed=1)
        angles = target_angles(masked)
        assert np.all(np.isnan(angles[~masked.seen_mask]))
        assert not np.any(np.isnan(angles[masked.seen_mask]))


class TestSerialization:
    def test_csv_round_trip(self, tmp_path):
        target = mask_fraction(random_target(3, seed=4), 0.3, seed=4)
        path = tmp_path / "target.csv"
        save_target_csv(target, path)
        loaded = load_target_csv(path)
        assert loaded.n_inputs == 3
        assert np.array_equal(loaded.seen_mask, target.seen_mask)
        assert np.allclose(loaded.probs, target.probs, atol=1e-12)

    def test_csv_weights_conditioned_on_load(self, tmp_path):
        path = tmp_path / "raw.csv"
        path.write_text(
            "bitstring,output_bit,weight\n"
            "0,0,3.0\n"
            "0,1,1.0\n"
        )
        target = load_target_csv(path)
        assert target.n_inputs == 1
        assert target.cond[0] == pytest.approx([0.75, 0.25])
        assert not target.seen_mask[1]

    def test_csv_rejects_bad_rows(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("bitstring,weight\n0,1\n")
        with pytest.raises(ValueError):
            load_target_csv(path)
        path.write_text("bitstring,output_bit,weight\n02,0,1\n")
        with pytest.raises(ValueError):
            load_target_csv(path)
        path.write_text("bitstring,output_bit,weight\n01,2,1\n")
        with pytest.raises(ValueError):
            load_target_csv(path)
        path.write_text("bitstring,output_bit,weight\n01,0\n")
        with pytest.raises(ValueError, match="misses a field"):
            load_target_csv(path)
        # A NaN weight would otherwise leave its input silently unseen.
        for weight in ("-1", "nan"):
            path.write_text(f"bitstring,output_bit,weight\n0,0,{weight}\n1,0,1\n")
            with pytest.raises(ValueError, match="not nonnegative"):
                load_target_csv(path)
        # An infinite weight, or two finite ones whose sum overflows, is
        # refused before a row is divided by its sum, with no numpy warning.
        for rows in ("0,0,inf\n0,1,1\n", "0,0,1e308\n0,1,1e308\n"):
            path.write_text(f"bitstring,output_bit,weight\n{rows}1,0,1\n")
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                with pytest.raises(ValueError, match="finite conditional weight sum"):
                    load_target_csv(path)

    def test_csv_too_wide_refused_before_sizing(self, tmp_path):
        # (2^24, 2) conditionals exceed MAX_ENTRIES; the first row decides.
        path = tmp_path / "wide.csv"
        path.write_text("bitstring,output_bit,weight\n" + "0" * 24 + ",0,1\n")
        tracemalloc.start()
        try:
            with pytest.raises(ValueError, match="24-bit"):
                load_target_csv(path)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 4 << 20

    def test_csv_width_checked_on_first_row(self, tmp_path):
        path = tmp_path / "w23.csv"
        path.write_text("bitstring,output_bit,weight\n" + "0" * 23 + ",0,1\n")
        tracemalloc.start()
        try:
            with pytest.raises(ValueError, match="23 input bits but the run asks for 2"):
                load_target_csv(path, 2)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 4 << 20
        path.write_text("bitstring,output_bit,weight\n01,0,1\n")
        assert load_target_csv(path, 2).n_inputs == 2


def test_invariants_enforced_on_construction():
    both = np.array([True, True])
    first = np.array([True, False])
    # A seen row that does not sum to 1.
    with pytest.raises(ValueError, match="sum to 1"):
        TargetDistribution(np.array([[0.5, 0.5], [0.5, 0.4]]), both)
    # Mass on an unseen row.
    with pytest.raises(ValueError, match="unseen"):
        TargetDistribution(np.array([[0.5, 0.5], [0.0, 0.1]]), first)
    with pytest.raises(ValueError, match="nonnegative"):
        TargetDistribution(np.array([[1.5, -0.5], [0.0, 0.0]]), first)
    # NaN passes every comparison-based check unless the check requires >= 0.
    with pytest.raises(ValueError, match="nonnegative"):
        TargetDistribution(np.array([[np.nan, 0.5], [0.0, 1.0]]), both)
    with pytest.raises(ValueError):
        TargetDistribution.from_conditionals(np.array([[np.nan, 0.5], [0.5, 0.5]]))


def test_joint_is_derived_from_conditionals_and_mask():
    target = mask_fraction(random_target(3, seed=4), 0.5, seed=4)
    assert target.n_inputs == 3
    assert np.array_equal(target.probs, target.cond / 4)
