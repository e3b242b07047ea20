"""Exact simulation, optimization and analysis of parity-phase imputation circuits.

The package models a family of circuits that rotate one output qubit
conditioned on N input qubits, learns conditional bit distributions by
minimizing an overlap distance, and ships the experiment harness used to
study fitting quality, generalization to hidden inputs, gradient
flattening and output-qubit entanglement.
"""

from .ansatz import (
    Ansatz,
    conditional_output,
    effective_angles,
    flip_bits,
    param_count,
    sign_matrix,
    statevector,
)
from .analysis import (
    EntropyStats,
    ExpFit,
    GradientStats,
    fit_entropy_curve,
    gradient_statistics,
    mean_entropy,
)
from .harness import (
    ExperimentConfig,
    ExperimentOutput,
    run_experiment,
    run_validate,
)
from .metrics import (
    DistanceReport,
    hellinger,
    restricted_distance,
    state_distance,
    worst_case_bound,
)
from .optimize import (
    OptimizeResult,
    gradient,
    least_squares_start,
    minimize,
    objective,
    solve_exponential,
)
from .oracle import gate_level_oracle
from .rng import stream
from .targets import (
    TargetDistribution,
    gaussian_target,
    load_target_csv,
    majority_target,
    mask_fraction,
    random_target,
    save_target_csv,
    target_angles,
)

__version__ = "0.1.0"
