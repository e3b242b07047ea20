"""Deterministic named random streams.

Each experiment stage (masking, output sampling, Monte Carlo draws, ...)
pulls its generator from ``stream(seed, name)``.
Streams with different names are statistically independent even under the
same seed, so one experiment seed can drive every stage without coupling
them.  Generators are PCG64, whose output is stable across platforms.
"""

from __future__ import annotations

import hashlib

import numpy as np

__all__ = ["stream"]


def stream(seed: int, name: str) -> np.random.Generator:
    """Return the generator for stage ``name`` under experiment ``seed``."""
    if seed < 0:
        raise ValueError(f"seed must be nonnegative, got {seed}")
    key = int.from_bytes(hashlib.sha256(name.encode("utf-8")).digest()[:16], "big")
    return np.random.default_rng(np.random.SeedSequence([int(seed), key]))
