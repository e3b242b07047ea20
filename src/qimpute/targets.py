"""Target joint distributions over (input bitstring, output bit).

A target stores true joint probabilities: the input marginal is uniform
over the seen inputs and the per-input conditionals carry the shape, so
the joint of a fully seen target is conditional / 2^N.  Masked (unseen)
inputs carry exactly zero mass and the rest is renormalized, which keeps
the seen conditionals untouched.
"""

from __future__ import annotations

import csv
import json
from dataclasses import dataclass

import numpy as np

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
    """Joint distribution p(b, a) with a seen/unseen input mask.

    probs has shape (2^N, 2) and sums to 1; rows of unseen inputs are zero.
    The conditionals are stored alongside the joint so that masking hands
    them through bit for bit instead of re-deriving them by division.
    """

    n_inputs: int
    probs: np.ndarray
    seen_mask: np.ndarray
    cond: np.ndarray | None = None

    def __post_init__(self) -> None:
        n_states = 1 << self.n_inputs
        if self.probs.shape != (n_states, 2):
            raise ValueError(f"probs must have shape ({n_states}, 2), got {self.probs.shape}")
        if self.seen_mask.shape != (n_states,):
            raise ValueError(f"seen_mask must have shape ({n_states},)")
        if not np.all(self.probs >= 0):  # NaN fails too
            raise ValueError("probabilities must be nonnegative")
        if np.any(self.probs[~self.seen_mask] != 0):
            raise ValueError("unseen inputs must carry zero mass")
        total = self.probs.sum()
        if abs(total - 1.0) > _SUM_TOL:
            raise ValueError(f"joint mass {total} is not normalized")
        if self.cond is None:
            row_sums = self.probs.sum(axis=1, keepdims=True)
            safe = np.where(row_sums > 0, row_sums, 1.0)
            object.__setattr__(self, "cond", self.probs / safe)
        else:
            if self.cond.shape != (n_states, 2):
                raise ValueError(f"cond must have shape ({n_states}, 2)")
            row_sums = self.cond.sum(axis=1)
            if np.any(np.abs(row_sums[self.seen_mask] - 1.0) > _SUM_TOL):
                raise ValueError("seen conditional rows must sum to 1")
            if np.any(self.cond[~self.seen_mask] != 0):
                raise ValueError("unseen conditional rows must be zero")

    @property
    def n_states(self) -> int:
        return 1 << self.n_inputs

    @property
    def seen_count(self) -> int:
        return int(self.seen_mask.sum())

    def conditionals(self) -> np.ndarray:
        """Per-input conditionals p(a|b); zero rows for unseen inputs."""
        return self.cond

    @classmethod
    def from_conditionals(cls, cond: np.ndarray, seen_mask: np.ndarray | None = None) -> "TargetDistribution":
        """Build a target from per-input conditional weights.

        Rows are normalized individually; the joint weights all seen inputs
        equally.  A seen row summing to zero is an error.
        """
        cond = np.asarray(cond, dtype=float)
        if cond.ndim != 2 or cond.shape[1] != 2 or cond.shape[0] < 2:
            raise ValueError(f"conditionals must have shape (2^N, 2), got {cond.shape}")
        n_inputs = int(cond.shape[0]).bit_length() - 1
        if (1 << n_inputs) != cond.shape[0]:
            raise ValueError(f"row count {cond.shape[0]} is not a power of two")
        if not np.all(cond >= 0):  # NaN fails too
            raise ValueError("conditional weights must be nonnegative")
        if seen_mask is None:
            seen_mask = np.ones(cond.shape[0], dtype=bool)
        else:
            seen_mask = np.asarray(seen_mask, dtype=bool).copy()
        row_sums = cond.sum(axis=1)
        if np.any(row_sums[seen_mask] <= 0):
            raise ValueError("every seen input needs positive conditional weight")
        seen_count = int(seen_mask.sum())
        if seen_count == 0:
            raise ValueError("at least one input must remain seen")
        normalized = np.zeros_like(cond)
        rows = seen_mask
        normalized[rows] = cond[rows] / row_sums[rows, None]
        return cls(
            n_inputs=n_inputs,
            probs=normalized / seen_count,
            seen_mask=seen_mask,
            cond=normalized,
        )

    def to_json(self) -> str:
        return json.dumps(
            {
                "n_inputs": self.n_inputs,
                "probs": self.probs.tolist(),
                "seen_mask": self.seen_mask.astype(int).tolist(),
            }
        )

    @classmethod
    def from_json(cls, text: str) -> "TargetDistribution":
        data = json.loads(text)
        return cls(
            n_inputs=int(data["n_inputs"]),
            probs=np.asarray(data["probs"], dtype=float),
            seen_mask=np.asarray(data["seen_mask"], dtype=bool),
        )


def gaussian_target(n_inputs: int, center: float | None = None, sigma: float | None = None) -> TargetDistribution:
    """Bell-shaped conditional: p(0|n) peaks at ``center`` and p(1|n) is its complement.

    Defaults follow the narrow literal form: center (N-1)/2 and variance 1/2,
    with peak weight 1/sqrt(2*pi).  Both are overridable, the center with a
    finite value and sigma with a positive one.
    """
    if n_inputs < 1:
        raise ValueError(f"n_inputs must be >= 1, got {n_inputs}")
    if center is None:
        center = (n_inputs - 1) / 2.0
    if not np.isfinite(center):
        raise ValueError(f"center must be finite, got {center}")
    if sigma is not None and not sigma > 0:  # NaN fails too
        raise ValueError(f"sigma must be positive, got {sigma}")
    variance = 0.5 if sigma is None else float(sigma) ** 2
    n = np.arange(1 << n_inputs, dtype=float)
    w0 = np.exp(-((n - center) ** 2) / (2.0 * variance)) / np.sqrt(2.0 * np.pi)
    cond = np.stack([w0, 1.0 - w0], axis=1)
    return TargetDistribution.from_conditionals(cond)


def majority_target(n_inputs: int) -> TargetDistribution:
    """Full conditional mass on the more frequent input bit; ties split 1/2."""
    if n_inputs < 1:
        raise ValueError(f"n_inputs must be >= 1, got {n_inputs}")
    n_states = 1 << n_inputs
    cond = np.empty((n_states, 2))
    for n in range(n_states):
        ones = int(n).bit_count()
        zeros = n_inputs - ones
        if zeros > ones:
            cond[n] = (1.0, 0.0)
        elif ones > zeros:
            cond[n] = (0.0, 1.0)
        else:
            cond[n] = (0.5, 0.5)
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
        return TargetDistribution(
            n_inputs=target.n_inputs,
            probs=target.probs.copy(),
            seen_mask=target.seen_mask.copy(),
            cond=target.conditionals().copy(),
        )
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
    # per seen input changes.
    cond = np.where(seen[:, None], target.conditionals(), 0.0)
    return TargetDistribution(
        n_inputs=target.n_inputs,
        probs=cond / int(seen.sum()),
        seen_mask=seen,
        cond=cond,
    )


def target_angles(target: TargetDistribution) -> np.ndarray:
    """Optimal per-input rotation angle arccos(sqrt(p(0|b))), in [0, pi/2].

    Unseen inputs have no defined angle and come back as NaN.
    """
    cond0 = np.clip(target.conditionals()[:, 0], 0.0, 1.0)
    angles = np.arccos(np.sqrt(cond0))
    return np.where(target.seen_mask, angles, np.nan)


def load_target_csv(path: str) -> TargetDistribution:
    """Read a target from rows of (bitstring, output_bit, weight).

    Bitstrings are fixed-width binary text, first character = b_1.  Weights
    are conditioned per input and normalized on load; inputs absent from
    the file (or with zero total weight) are unseen.  Duplicate rows add.
    """
    width: int | None = None
    weights: dict[tuple[int, int], float] = {}
    with open(path, newline="") as handle:
        reader = csv.DictReader(handle)
        required = {"bitstring", "output_bit", "weight"}
        if reader.fieldnames is None or not required.issubset(reader.fieldnames):
            raise ValueError(f"target CSV needs columns {sorted(required)}")
        for row in reader:
            bits = row["bitstring"].strip()
            if width is None:
                width = len(bits)
            if len(bits) != width or any(ch not in "01" for ch in bits):
                raise ValueError(f"bad bitstring {bits!r} in {path}")
            a = int(row["output_bit"])
            if a not in (0, 1):
                raise ValueError(f"output_bit must be 0 or 1, got {row['output_bit']!r}")
            w = float(row["weight"])
            if w < 0:
                raise ValueError(f"negative weight {w} in {path}")
            key = (int(bits, 2), a)
            weights[key] = weights.get(key, 0.0) + w
    if width is None:
        raise ValueError(f"target CSV {path} has no rows")
    cond = np.zeros((1 << width, 2))
    for (b, a), w in weights.items():
        cond[b, a] = w
    seen = cond.sum(axis=1) > 0
    if not seen.any():
        raise ValueError(f"target CSV {path} carries no mass")
    return TargetDistribution.from_conditionals(np.where(seen[:, None], cond, 0.0), seen_mask=seen)


def save_target_csv(target: TargetDistribution, path: str) -> None:
    """Write the conditionals of the seen inputs in the loadable format."""
    cond = target.conditionals()
    with open(path, "w", newline="") as handle:
        writer = csv.writer(handle, lineterminator="\n")
        writer.writerow(["bitstring", "output_bit", "weight"])
        for b in range(target.n_states):
            if not target.seen_mask[b]:
                continue
            bits = format(b, f"0{target.n_inputs}b")
            for a in (0, 1):
                writer.writerow([bits, a, repr(float(cond[b, a]))])
