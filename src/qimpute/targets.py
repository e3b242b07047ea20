"""Target distributions: per-input conditionals p(a|b) plus a seen mask.

A target stores only its conditionals and which inputs are seen.  The
joint p(b, a) it stands for is derived: the input marginal is uniform over
the seen inputs, so the joint is conditional / (number of seen inputs).
Masked (unseen) inputs have zero conditional rows and so zero joint mass,
and masking leaves the seen conditionals untouched bit for bit.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .ansatz import MAX_ENTRIES
from .rng import stream

__all__ = [
    "TargetDistribution",
    "gaussian_target",
    "majority_target",
    "random_target",
    "mask_fraction",
    "target_angles",
    "load_target_csv",
    "save_target_csv",
]

_SUM_TOL = 1e-9


@dataclass(frozen=True)
class TargetDistribution:
    """Conditionals p(a|b) of shape (2^N, 2) and a seen/unseen input mask.

    Seen rows of ``cond`` sum to 1 and unseen rows are zero; at least one
    input is seen.  The joint ``probs`` follows from these and is derived
    on first use.
    """

    cond: np.ndarray
    seen_mask: np.ndarray

    def __post_init__(self) -> None:
        shape = self.cond.shape
        n_states = shape[0] if len(shape) == 2 and shape[1] == 2 else 0
        if n_states < 2 or n_states & (n_states - 1):
            raise ValueError(f"conditionals must have shape (2^N, 2) with N >= 1, got {shape}")
        if self.seen_mask.dtype != bool or self.seen_mask.shape != (n_states,):
            raise ValueError(f"seen_mask must be a bool vector of shape ({n_states},)")
        if not np.all(self.cond >= 0):  # NaN fails too
            raise ValueError("conditionals must be nonnegative")
        if np.any(np.abs(self.cond[self.seen_mask].sum(axis=1) - 1.0) > _SUM_TOL):
            raise ValueError("seen conditional rows must sum to 1")
        if np.any(self.cond[~self.seen_mask] != 0):
            raise ValueError("unseen conditional rows must be zero")
        if not self.seen_mask.any():
            raise ValueError("at least one input must remain seen")

    @property
    def n_inputs(self) -> int:
        return self.n_states.bit_length() - 1

    @property
    def n_states(self) -> int:
        return self.cond.shape[0]

    @cached_property
    def probs(self) -> np.ndarray:
        """Joint p(b, a), shape (2^N, 2), summing to 1: every seen input
        weighs the same and unseen inputs carry zero mass."""
        return self.cond / self.seen_mask.sum()

    @classmethod
    def from_conditionals(cls, cond: np.ndarray, seen_mask: np.ndarray | None = None) -> "TargetDistribution":
        """Build a target from per-input conditional weights.

        Seen rows are normalized individually and unseen rows are zeroed.
        A seen row whose sum is not positive and finite is an error.
        """
        cond = np.asarray(cond, dtype=float)
        if cond.ndim != 2:
            raise ValueError(f"conditionals must have shape (2^N, 2), got {cond.shape}")
        if seen_mask is None:
            seen_mask = np.ones(cond.shape[0], dtype=bool)
        else:
            seen_mask = np.asarray(seen_mask, dtype=bool).copy()
        # A sum that overflows is refused here, before any division.
        with np.errstate(over="ignore"):
            row_sums = cond.sum(axis=1)
        seen_sums = row_sums[seen_mask]
        if not np.all((seen_sums > 0) & (seen_sums < np.inf)):  # NaN fails too
            raise ValueError("every seen input needs a positive, finite conditional weight sum")
        normalized = np.zeros_like(cond)
        normalized[seen_mask] = cond[seen_mask] / row_sums[seen_mask, None]
        return cls(cond=normalized, seen_mask=seen_mask)


def gaussian_target(n_inputs: int, center: float | None = None, sigma: float | None = None) -> TargetDistribution:
    """Bell-shaped conditional: p(0|n) peaks at ``center`` and p(1|n) is its complement.

    Defaults follow the narrow literal form: center (N-1)/2 and variance 1/2,
    with peak weight 1/sqrt(2*pi).  Both are overridable, the center with a
    finite value and sigma with a positive one whose 2 sigma^2 is positive
    and finite in float64.  An input too far from the center for its
    squared distance to be finite gets weight 0.
    """
    if n_inputs < 1:
        raise ValueError(f"n_inputs must be >= 1, got {n_inputs}")
    if center is None:
        center = (n_inputs - 1) / 2.0
    if not np.isfinite(center):
        raise ValueError(f"center must be finite, got {center}")
    with np.errstate(over="ignore"):
        spread = 1.0 if sigma is None else 2.0 * np.float64(sigma) ** 2
    if sigma is not None and not (sigma > 0 and 0.0 < spread < np.inf):  # NaN fails too
        raise ValueError(f"sigma must be positive with 2 sigma^2 positive and finite, got {sigma}")
    n = np.arange(1 << n_inputs, dtype=float)
    with np.errstate(over="ignore"):
        w0 = np.exp(-((n - center) ** 2) / spread) / np.sqrt(2.0 * np.pi)
    cond = np.stack([w0, 1.0 - w0], axis=1)
    return TargetDistribution.from_conditionals(cond)


def majority_target(n_inputs: int) -> TargetDistribution:
    """Full conditional mass on the more frequent input bit; ties split 1/2."""
    if n_inputs < 1:
        raise ValueError(f"n_inputs must be >= 1, got {n_inputs}")
    # sign(ones - zeros) is -1, 0 or +1, so p(1|b) is exactly 0, 1/2 or 1.
    ones = np.bitwise_count(np.arange(1 << n_inputs))
    p1 = (np.sign(2.0 * ones - n_inputs) + 1.0) / 2.0
    cond = np.stack([1.0 - p1, p1], axis=1)
    return TargetDistribution.from_conditionals(cond)


def random_target(n_inputs: int, seed: int) -> TargetDistribution:
    """Independent uniform conditional p(0|b) per input; deterministic in seed."""
    if n_inputs < 1:
        raise ValueError(f"n_inputs must be >= 1, got {n_inputs}")
    rng = stream(seed, "random-target")
    p0 = rng.uniform(0.0, 1.0, size=1 << n_inputs)
    cond = np.stack([p0, 1.0 - p0], axis=1)
    return TargetDistribution.from_conditionals(cond)


def mask_fraction(target: TargetDistribution, fraction: float, seed: int) -> TargetDistribution:
    """Hide floor(fraction * 2^N) inputs, drawn uniformly from the seen ones.

    Hidden inputs get zero mass and leave the seen-input conditionals
    untouched; the remaining joint renormalizes to 1.  A mask that would
    hide every seen input is a ValueError.  Uses its own seed stream so
    train/test splits never couple to optimizer seeds.
    """
    if not 0.0 <= fraction < 1.0:
        raise ValueError(f"fraction must lie in [0, 1), got {fraction}")
    n_states = target.n_states
    n_masked = int(fraction * n_states)
    if n_masked == 0:
        return TargetDistribution(target.cond.copy(), target.seen_mask.copy())
    seen_inputs = np.flatnonzero(target.seen_mask)
    if n_masked >= seen_inputs.size:
        raise ValueError(
            f"masking fraction {fraction} hides {n_masked} of {n_states} inputs, "
            f"leaving none of the {seen_inputs.size} seen inputs"
        )
    # On a fully seen target this draws the same indices as choice(n_states).
    hidden = stream(seed, "mask").choice(seen_inputs, size=n_masked, replace=False)
    seen = target.seen_mask.copy()
    seen[hidden] = False
    # Seen conditional rows are copied bit for bit; only the joint weight
    # per seen input, derived from the mask, changes.
    return TargetDistribution(np.where(seen[:, None], target.cond, 0.0), seen)


def target_angles(target: TargetDistribution) -> np.ndarray:
    """Optimal per-input rotation angle arccos(sqrt(p(0|b))), in [0, pi/2].

    Unseen inputs have no defined angle and come back as NaN.
    """
    cond0 = np.clip(target.cond[:, 0], 0.0, 1.0)
    angles = np.arccos(np.sqrt(cond0))
    return np.where(target.seen_mask, angles, np.nan)


def load_target_csv(path: str, n_inputs: int | None = None) -> TargetDistribution:
    """Read a target from rows of (bitstring, output_bit, weight).

    Bitstrings are fixed-width binary text, first character = b_1.  Weights
    are conditioned per input and normalized on load; inputs absent from
    the file (or with zero total weight) are unseen.  Duplicate rows add.
    The first row sets the width; one that differs from ``n_inputs``, when
    given, is refused there, before anything is sized from the file.
    """
    width: int | None = None
    weights: dict[tuple[int, int], float] = {}
    with open(path, newline="") as handle:
        reader = csv.DictReader(handle)
        required = {"bitstring", "output_bit", "weight"}
        if reader.fieldnames is None or not required.issubset(reader.fieldnames):
            raise ValueError(f"target CSV needs columns {sorted(required)}")
        for row in reader:
            if any(row[key] is None for key in required):
                raise ValueError(f"line {reader.line_num} of {path} misses a field")
            bits = row["bitstring"].strip()
            if width is None:
                width = len(bits)
                if n_inputs is not None and width != n_inputs:
                    raise ValueError(f"target CSV has {width} input bits but the run "
                                     f"asks for {n_inputs}")
                if 2 << width > MAX_ENTRIES:  # the (2^N, 2) conditionals
                    raise ValueError(f"{width}-bit inputs in {path} need more than "
                                     f"{MAX_ENTRIES} conditional entries")
            if len(bits) != width or any(ch not in "01" for ch in bits):
                raise ValueError(f"bad bitstring {bits!r} in {path}")
            a = int(row["output_bit"])
            if a not in (0, 1):
                raise ValueError(f"output_bit must be 0 or 1, got {row['output_bit']!r}")
            w = float(row["weight"])
            if not w >= 0:  # NaN fails too
                raise ValueError(f"weight {w} in {path} is not nonnegative")
            key = (int(bits, 2), a)
            weights[key] = weights.get(key, 0.0) + w
    if width is None:
        raise ValueError(f"target CSV {path} has no rows")
    cond = np.zeros((1 << width, 2))
    for (b, a), w in weights.items():
        cond[b, a] = w
    seen = cond.any(axis=1)  # weights are nonnegative
    if not seen.any():
        raise ValueError(f"target CSV {path} carries no mass")
    return TargetDistribution.from_conditionals(cond, seen_mask=seen)


def save_target_csv(target: TargetDistribution, path: str) -> None:
    """Write the conditionals of the seen inputs in the loadable format."""
    with open(path, "w", newline="") as handle:
        writer = csv.writer(handle, lineterminator="\n")
        writer.writerow(["bitstring", "output_bit", "weight"])
        for b in range(target.n_states):
            if not target.seen_mask[b]:
                continue
            bits = format(b, f"0{target.n_inputs}b")
            for a in (0, 1):
                writer.writerow([bits, a, float(target.cond[b, a])])
