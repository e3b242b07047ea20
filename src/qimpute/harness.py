"""Experiment orchestration, persistence and the validation gate.

Each experiment resolves a configuration, runs deterministically from its
seeds, and writes one CSV of plot-ready rows plus a JSON sidecar echoing
the resolved configuration, timing and aggregates.  CSV content is a pure
function of (configuration, seeds): floats are written with shortest
round-trip formatting and newlines are fixed, so reruns are byte
identical.  Wall time lives in the sidecar only, for exactly that reason.

Every optimized run is checked against the capacity bound
sqrt(1 - M/2^N); violations are collected (and reported), never silently
dropped, since exceeding the bound can only mean the optimizer failed.
"""

from __future__ import annotations

import csv
import hashlib
import json
import os
import time
from dataclasses import asdict, dataclass, field, replace
from pathlib import Path
from typing import Callable

import numpy as np

from .analysis import (
    MIN_SAMPLE_COUNT,
    fit_entropy_curve,
    gradient_statistics,
    gradient_statistics_vs_m,
    mean_entropy,
)
from .ansatz import (
    _SIGN_MATRIX_MAX_ENTRIES,
    ANSATZ_KINDS,
    DEFAULT_STATEVECTOR_CAP,
    Ansatz,
    ConditionalOutput,
    conditional_output,
    param_count,
    statevector,
)
from .metrics import restricted_distance, worst_case_bound
from .optimize import (
    OptimizeConfig,
    finite_difference_gradient,
    gradient,
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
)

__all__ = [
    "ConfigError",
    "ExperimentConfig",
    "ExperimentOutput",
    "SamplingReport",
    "EXPERIMENTS",
    "OUTPUT_DIR_ENV",
    "BOUND_SLACK",
    "run_fit",
    "run_sweep",
    "run_generalize",
    "run_majority_ratios",
    "run_bp_stats",
    "run_entropy",
    "run_validate",
    "run_experiment",
    "sample_outcomes",
    "classify_outcomes",
]

EXPERIMENTS = ("fit", "sweep", "generalize", "majority_ratios", "bp_stats", "entropy", "validate")
OUTPUT_DIR_ENV = "QIMPUTE_OUT_DIR"
BOUND_SLACK = 1e-9

_TARGET_KINDS = ("gaussian", "majority", "random", "csv")


class ConfigError(ValueError):
    """A configuration problem the caller must fix (CLI exit code 2)."""


@dataclass(frozen=True)
class ExperimentConfig:
    experiment: str
    ansatz: tuple[str, ...] = ("linear",)
    n_min: int = 3
    n_max: int = 3
    target: str = "gaussian"
    target_csv: str | None = None
    center: float | None = None
    sigma: float | None = None
    fraction: float = 0.0
    fractions: tuple[float, ...] = ()
    seeds: tuple[int, ...] = (1,)
    outcomes: int = 1024
    samples: int = 1000
    m_sweep_n: int | None = None
    optimizer: OptimizeConfig = field(default_factory=OptimizeConfig)
    out_dir: str | None = None

    def __post_init__(self) -> None:
        if self.experiment not in EXPERIMENTS:
            raise ConfigError(f"unknown experiment {self.experiment!r}; choose from {EXPERIMENTS}")
        for kind in self.ansatz:
            if kind not in ANSATZ_KINDS:
                raise ConfigError(f"unknown ansatz kind {kind!r}; choose from {ANSATZ_KINDS}")
        if not self.ansatz:
            raise ConfigError("at least one ansatz kind is required")
        if self.target not in _TARGET_KINDS:
            raise ConfigError(f"unknown target {self.target!r}; choose from {_TARGET_KINDS}")
        if self.target == "csv" and not self.target_csv:
            raise ConfigError("target 'csv' requires target_csv")
        if self.target_csv and not os.path.exists(self.target_csv):
            raise ConfigError(f"target CSV not found: {self.target_csv}")
        if not 1 <= self.n_min <= self.n_max:
            raise ConfigError(f"bad input-width range {self.n_min}..{self.n_max}")
        if self.n_max > DEFAULT_STATEVECTOR_CAP:
            raise ConfigError(
                f"input width {self.n_max} exceeds the analytic-path cap {DEFAULT_STATEVECTOR_CAP}"
            )
        if not 0.0 <= self.fraction < 1.0:
            raise ConfigError(f"fraction must lie in [0, 1), got {self.fraction}")
        for f in self.fractions:
            if not 0.0 <= f < 1.0:
                raise ConfigError(f"fractions must lie in [0, 1), got {f}")
        if not self.seeds:
            raise ConfigError("at least one seed is required")
        if any(s < 0 for s in self.seeds):
            raise ConfigError("seeds must be nonnegative")
        if self.outcomes < 1:
            raise ConfigError(f"outcomes must be >= 1, got {self.outcomes}")
        if self.samples < MIN_SAMPLE_COUNT:
            raise ConfigError(f"samples must be >= {MIN_SAMPLE_COUNT}, got {self.samples}")
        if self.m_sweep_n is not None and not 1 <= self.m_sweep_n <= DEFAULT_STATEVECTOR_CAP:
            raise ConfigError(
                f"m_sweep_n must lie in 1..{DEFAULT_STATEVECTOR_CAP}, got {self.m_sweep_n}"
            )
        # The Monte Carlo experiments build a dense sign matrix for every
        # family they run, bp_stats also for its gate-count sweep; the
        # others only for the exponential family's exact solve.
        sampled = self.experiment in ("bp_stats", "entropy")
        shapes = [(kind, self.n_max) for kind in self.ansatz if sampled or kind == "exponential"]
        if self.experiment == "bp_stats" and self.m_sweep_n is not None:
            shapes.append(("quadratic", self.m_sweep_n))
        for kind, n in shapes:
            if (1 << n) * param_count(kind, n) > _SIGN_MATRIX_MAX_ENTRIES:
                raise ConfigError(
                    f"{kind} width {n} needs a sign matrix above {_SIGN_MATRIX_MAX_ENTRIES} entries"
                )

    @classmethod
    def from_dict(cls, data: dict) -> "ExperimentConfig":
        known = set(cls.__dataclass_fields__)
        unknown = set(data) - known
        if unknown:
            raise ConfigError(f"unknown config keys: {sorted(unknown)}")
        kwargs = dict(data)
        for key in ("ansatz", "fractions", "seeds"):
            if key in kwargs and kwargs[key] is not None:
                value = kwargs[key]
                if isinstance(value, (str, int, float)):
                    value = [value]
                kwargs[key] = tuple(value)
        if "optimizer" in kwargs and isinstance(kwargs["optimizer"], dict):
            try:
                kwargs["optimizer"] = OptimizeConfig(**kwargs["optimizer"])
            except (TypeError, ValueError) as exc:
                raise ConfigError(f"bad optimizer config: {exc}") from exc
        try:
            return cls(**kwargs)
        except TypeError as exc:
            raise ConfigError(str(exc)) from exc

    def resolved(self) -> dict:
        data = asdict(self)
        data["optimizer"] = asdict(self.optimizer)
        for key in ("ansatz", "fractions", "seeds"):
            data[key] = list(data[key])
        return data


@dataclass(frozen=True)
class SamplingReport:
    """Classification of sampled (input, output) pairs against the rule.

    A draw counts as rule-correct when the reference distribution puts
    positive mass on its (input, output) pair; the split mask decides
    whether a correct draw lands in the seen or the unseen tally.  Seen
    draws with a rule-violating output count as plain errors.
    """

    outcomes: int
    hits_seen: int
    hits_unseen: int

    @property
    def hits_total(self) -> int:
        return self.hits_seen + self.hits_unseen

    @property
    def ratio_seen(self) -> float:
        return self.hits_seen / self.outcomes

    @property
    def ratio_unseen(self) -> float:
        return self.hits_unseen / self.outcomes

    @property
    def ratio_total(self) -> float:
        return self.hits_total / self.outcomes


@dataclass(frozen=True)
class ExperimentOutput:
    experiment_id: str
    csv_path: Path
    sidecar_path: Path
    rows: list[dict]
    aggregates: dict
    bound_violations: list[dict]


def _experiment_id(resolved: dict) -> str:
    # The id names the scientific configuration; where it lands on disk
    # must not change it.
    hashed = {k: v for k, v in resolved.items() if k != "out_dir"}
    blob = json.dumps(hashed, sort_keys=True, separators=(",", ":"))
    digest = hashlib.sha1(blob.encode("utf-8")).hexdigest()[:10]
    return f"{resolved['experiment']}-{digest}"


def _out_dir(config: ExperimentConfig) -> Path:
    root = config.out_dir or os.environ.get(OUTPUT_DIR_ENV) or "results"
    path = Path(root)
    path.mkdir(parents=True, exist_ok=True)
    return path


def _cell(value) -> str:
    if value is None or value == "":
        return ""
    if isinstance(value, (bool, np.bool_)):
        return str(bool(value)).lower()
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, (float, np.floating)):
        return repr(float(value))
    return str(value)


def _write_rows(path: Path, header: list[str], rows: list[dict]) -> None:
    with open(path, "w", newline="") as handle:
        writer = csv.writer(handle, lineterminator="\n")
        writer.writerow(header)
        for row in rows:
            writer.writerow([_cell(row.get(col)) for col in header])


def _write_sidecar(path: Path, experiment_id: str, resolved: dict, wall_time: float, aggregates: dict, violations: list[dict]) -> None:
    payload = {
        "experiment_id": experiment_id,
        "config": resolved,
        "wall_time_s": wall_time,
        "aggregates": aggregates,
        "bound_violations": violations,
    }
    with open(path, "w") as handle:
        json.dump(payload, handle, indent=2, sort_keys=True)
        handle.write("\n")


def _build_target(config: ExperimentConfig, n_inputs: int, seed: int) -> TargetDistribution:
    if config.target == "gaussian":
        return gaussian_target(n_inputs, center=config.center, sigma=config.sigma)
    if config.target == "majority":
        return majority_target(n_inputs)
    if config.target == "random":
        return random_target(n_inputs, seed)
    target = load_target_csv(config.target_csv)
    if target.n_inputs != n_inputs:
        raise ConfigError(
            f"target CSV has {target.n_inputs} input bits but the run asks for {n_inputs}"
        )
    return target


def _optimize(kind: str, target: TargetDistribution, optimizer: OptimizeConfig, seed: int):
    """Run the family-appropriate solver; exact solve for the exponential."""
    ansatz = getattr(Ansatz, kind)(target.n_inputs)
    if kind == "exponential":
        params = solve_exponential(target)
        return ansatz, params, objective(ansatz, params, target)
    result = minimize(ansatz, target, replace(optimizer, seed=seed))
    return ansatz, result.best_params, result.final_distance


def _check_bound(violations: list[dict], context: dict, distance: float, n_params: int, n_inputs: int) -> float:
    bound = worst_case_bound(n_params, n_inputs)
    if distance > bound + BOUND_SLACK:
        violations.append(dict(context, d_h=distance, bound=bound))
    return bound


def _finalize(
    config: ExperimentConfig,
    experiment_id: str,
    header: list[str],
    rows: list[dict],
    aggregates: dict,
    violations: list[dict],
    started: float,
) -> ExperimentOutput:
    resolved = config.resolved()
    out_dir = _out_dir(config)
    csv_path = out_dir / f"{experiment_id}.csv"
    sidecar_path = out_dir / f"{experiment_id}.json"
    _write_rows(csv_path, header, rows)
    _write_sidecar(sidecar_path, experiment_id, resolved, time.perf_counter() - started, aggregates, violations)
    return ExperimentOutput(
        experiment_id=experiment_id,
        csv_path=csv_path,
        sidecar_path=sidecar_path,
        rows=rows,
        aggregates=aggregates,
        bound_violations=violations,
    )


def _provenance(config: ExperimentConfig, experiment_id: str, seed: int, ansatz: Ansatz) -> dict:
    return {
        "experiment": config.experiment,
        "experiment_id": experiment_id,
        "seed": seed,
        "ansatz": ansatz.kind,
        "n": ansatz.n_inputs,
        "m": ansatz.param_count,
    }


_FIT_HEADER = [
    "experiment", "experiment_id", "seed", "ansatz", "n", "m",
    "row_type", "bitstring", "output_bit", "target_prob", "circuit_prob", "d_h", "bound",
]


def run_fit(config: ExperimentConfig) -> ExperimentOutput:
    """Optimize once per (ansatz, width) and dump target vs circuit probabilities."""
    started = time.perf_counter()
    experiment_id = _experiment_id(config.resolved())
    rows: list[dict] = []
    violations: list[dict] = []
    seed = config.seeds[0]
    for kind in config.ansatz:
        for n in range(config.n_min, config.n_max + 1):
            target = _build_target(config, n, seed)
            if config.fraction > 0:
                target = mask_fraction(target, config.fraction, seed)
            ansatz, params, distance = _optimize(kind, target, config.optimizer, seed)
            bound = _check_bound(violations, {"ansatz": kind, "n": n, "seed": seed},
                                 distance, ansatz.param_count, n)
            base = _provenance(config, experiment_id, seed, ansatz)
            joint_circuit = conditional_output(ansatz, params).joint_probabilities()
            for b in range(target.n_states):
                bits = format(b, f"0{n}b")
                for a in (0, 1):
                    rows.append(dict(
                        base, row_type="prob", bitstring=bits, output_bit=a,
                        target_prob=float(target.probs[b, a]),
                        circuit_prob=float(joint_circuit[b, a]),
                    ))
            rows.append(dict(base, row_type="summary", d_h=distance, bound=bound))
    return _finalize(config, experiment_id, _FIT_HEADER, rows, {}, violations, started)


_SWEEP_HEADER = [
    "experiment", "experiment_id", "seed", "ansatz", "n", "m", "target", "bound", "d_h",
]


def run_sweep(config: ExperimentConfig) -> ExperimentOutput:
    """Optimized distance per width and family; random targets repeat per seed."""
    started = time.perf_counter()
    experiment_id = _experiment_id(config.resolved())
    rows: list[dict] = []
    violations: list[dict] = []
    aggregates: list[dict] = []
    seeds = config.seeds if config.target == "random" else config.seeds[:1]
    for kind in config.ansatz:
        for n in range(config.n_min, config.n_max + 1):
            distances = []
            bound = None
            for seed in seeds:
                target = _build_target(config, n, seed)
                ansatz, _, distance = _optimize(kind, target, config.optimizer, seed)
                bound = _check_bound(violations, {"ansatz": kind, "n": n, "seed": seed},
                                     distance, ansatz.param_count, n)
                distances.append(distance)
                rows.append(dict(
                    _provenance(config, experiment_id, seed, ansatz),
                    target=config.target, bound=bound, d_h=distance,
                ))
            aggregates.append({
                "ansatz": kind,
                "n": n,
                "target": config.target,
                "bound": bound,
                "d_h_mean": float(np.mean(distances)),
                "d_h_var": float(np.var(distances)),
                "n_seeds": len(distances),
            })
    return _finalize(config, experiment_id, _SWEEP_HEADER, rows, {"cells": aggregates}, violations, started)


_GENERALIZE_HEADER = [
    "experiment", "experiment_id", "seed", "ansatz", "n", "m", "fraction",
    "bound", "d_h_opt", "d_h_seen", "d_h_unseen", "d_h_full",
]


def run_generalize(config: ExperimentConfig) -> ExperimentOutput:
    """Mask part of the target, optimize on the rest, and score each support."""
    started = time.perf_counter()
    experiment_id = _experiment_id(config.resolved())
    fractions = config.fractions or (config.fraction,)
    rows: list[dict] = []
    violations: list[dict] = []
    seed = config.seeds[0]
    for kind in config.ansatz:
        for n in range(config.n_min, config.n_max + 1):
            full = _build_target(config, n, seed)
            for fraction in fractions:
                masked = mask_fraction(full, fraction, seed) if fraction > 0 else full
                ansatz, params, distance = _optimize(kind, masked, config.optimizer, seed)
                bound = _check_bound(
                    violations, {"ansatz": kind, "n": n, "fraction": fraction, "seed": seed},
                    distance, ansatz.param_count, n)
                out = conditional_output(ansatz, params)
                d_seen = restricted_distance(masked, out, "seen").hellinger
                d_unseen = (
                    restricted_distance(full, out, "unseen", mask=masked.seen_mask).hellinger
                    if fraction > 0 else None
                )
                d_full = restricted_distance(full, out, "full").hellinger
                rows.append(dict(
                    _provenance(config, experiment_id, seed, ansatz),
                    fraction=fraction, bound=bound, d_h_opt=distance,
                    d_h_seen=d_seen, d_h_unseen=d_unseen, d_h_full=d_full,
                ))
    return _finalize(config, experiment_id, _GENERALIZE_HEADER, rows, {}, violations, started)


def sample_outcomes(out: ConditionalOutput, n_outcomes: int, rng: np.random.Generator) -> np.ndarray:
    """Draw (input, output) basis indices from the circuit's joint output."""
    joint = out.joint_probabilities().ravel()
    return rng.choice(joint.size, size=n_outcomes, p=joint / joint.sum())


def classify_outcomes(
    draws: np.ndarray, reference: TargetDistribution, split_mask: np.ndarray
) -> SamplingReport:
    """Tally rule-correct draws, split into seen and unseen inputs."""
    inputs = draws >> 1
    outputs = draws & 1
    correct = reference.probs[inputs, outputs] > 0
    seen = split_mask[inputs]
    return SamplingReport(
        outcomes=int(draws.size),
        hits_seen=int(np.count_nonzero(correct & seen)),
        hits_unseen=int(np.count_nonzero(correct & ~seen)),
    )


_RATIO_HEADER = [
    "experiment", "experiment_id", "seed", "ansatz", "n", "m", "fraction", "outcomes",
    "hits_seen", "hits_unseen", "hits_total", "ratio_seen", "ratio_unseen", "ratio_total",
    "bound", "d_h_opt",
]


def run_majority_ratios(config: ExperimentConfig) -> ExperimentOutput:
    """Train on a masked rule target, sample the circuit, count rule-correct draws."""
    if config.target != "majority":
        raise ConfigError("majority_ratios requires the majority target")
    started = time.perf_counter()
    experiment_id = _experiment_id(config.resolved())
    rows: list[dict] = []
    violations: list[dict] = []
    for kind in config.ansatz:
        for n in range(config.n_min, config.n_max + 1):
            full = majority_target(n)
            for seed in config.seeds:
                masked = mask_fraction(full, config.fraction, seed) if config.fraction > 0 else full
                ansatz, params, distance = _optimize(kind, masked, config.optimizer, seed)
                bound = _check_bound(violations, {"ansatz": kind, "n": n, "seed": seed},
                                     distance, ansatz.param_count, n)
                out = conditional_output(ansatz, params)
                draws = sample_outcomes(out, config.outcomes, stream(seed, "sampling"))
                report = classify_outcomes(draws, full, masked.seen_mask)
                rows.append(dict(
                    _provenance(config, experiment_id, seed, ansatz),
                    fraction=config.fraction, outcomes=report.outcomes,
                    hits_seen=report.hits_seen, hits_unseen=report.hits_unseen,
                    hits_total=report.hits_total, ratio_seen=report.ratio_seen,
                    ratio_unseen=report.ratio_unseen, ratio_total=report.ratio_total,
                    bound=bound, d_h_opt=distance,
                ))
    return _finalize(config, experiment_id, _RATIO_HEADER, rows, {}, violations, started)


_BP_HEADER = [
    "experiment", "experiment_id", "seed", "ansatz", "mode", "n", "m", "samples",
    "mean_abs_gradient", "gradient_variance",
]


def run_bp_stats(config: ExperimentConfig) -> ExperimentOutput:
    """Gradient mean/variance versus width, plus an optional gate-count sweep."""
    started = time.perf_counter()
    experiment_id = _experiment_id(config.resolved())
    rows: list[dict] = []
    seed = config.seeds[0]

    def add_row(label: str, mode: str, stats) -> None:
        rows.append({
            "experiment": config.experiment, "experiment_id": experiment_id,
            "seed": seed, "ansatz": label, "mode": mode,
            "n": stats.n_inputs, "m": stats.n_params, "samples": stats.sample_count,
            "mean_abs_gradient": stats.mean_abs_gradient,
            "gradient_variance": stats.gradient_variance,
        })

    for kind in config.ansatz:
        for n in range(config.n_min, config.n_max + 1):
            target = _build_target(config, n, seed)
            ansatz = getattr(Ansatz, kind)(n)
            add_row(kind, "vs_n", gradient_statistics(ansatz, target, config.samples, seed))
    if config.m_sweep_n is not None:
        n = config.m_sweep_n
        target = _build_target(config, n, seed)
        for step, stats in enumerate(gradient_statistics_vs_m(n, target, config.samples, seed)):
            add_row(f"linear+{step}pairs", "vs_m", stats)
    # Curves above fix the first parameter; report (without asserting) how
    # another component compares at the smallest width.
    n = config.n_min
    spot_target = _build_target(config, n, seed)
    spot_ansatz = getattr(Ansatz, config.ansatz[0])(n)
    first = gradient_statistics(spot_ansatz, spot_target, config.samples, seed)
    last = gradient_statistics(
        spot_ansatz, spot_target, config.samples, seed, param_index=spot_ansatz.param_count - 1
    )
    aggregates = {
        "parameter_uniformity_spot_check": {
            "n": n,
            "ansatz": config.ansatz[0],
            "variance_first_param": first.gradient_variance,
            "variance_last_param": last.gradient_variance,
        }
    }
    return _finalize(config, experiment_id, _BP_HEADER, rows, aggregates, [], started)


_ENTROPY_HEADER = [
    "experiment", "experiment_id", "seed", "ansatz", "n", "m", "samples", "mean_entropy",
]


def run_entropy(config: ExperimentConfig) -> ExperimentOutput:
    """Mean output-qubit entropy per width, with a saturation fit per family."""
    started = time.perf_counter()
    experiment_id = _experiment_id(config.resolved())
    rows: list[dict] = []
    fits: dict[str, dict] = {}
    seed = config.seeds[0]
    for kind in config.ansatz:
        points = []
        for n in range(config.n_min, config.n_max + 1):
            ansatz = getattr(Ansatz, kind)(n)
            stats = mean_entropy(ansatz, config.samples, seed)
            points.append((n, stats.mean_entropy))
            rows.append(dict(
                _provenance(config, experiment_id, seed, ansatz),
                samples=stats.sample_count, mean_entropy=stats.mean_entropy,
            ))
        if len(points) >= 4:
            fit = fit_entropy_curve(points)
            fits[kind] = {
                "a": fit.a, "b": fit.b, "c": fit.c,
                "residual": fit.residual, "degenerate": fit.degenerate,
            }
    return _finalize(config, experiment_id, _ENTROPY_HEADER, rows, {"fits": fits}, [], started)


def _validate_oracle(statevector_fn: Callable, draws: int = 50) -> dict:
    worst = 0.0
    rng = stream(0, "validate-oracle")
    for kind in ANSATZ_KINDS:
        for n in range(2, 6):
            ansatz = getattr(Ansatz, kind)(n)
            for _ in range(draws):
                params = rng.uniform(0.0, 2.0 * np.pi, ansatz.param_count)
                analytic = statevector_fn(ansatz, params)
                literal = gate_level_oracle(ansatz, params)
                worst = max(worst, float(np.max(np.abs(analytic - literal))))
    return {"passed": worst < 1e-10, "max_deviation": worst, "tolerance": 1e-10, "draws": draws}


def _validate_gradient(points: int = 7) -> dict:
    worst = 0.0
    rng = stream(0, "validate-gradient")
    for kind in ANSATZ_KINDS:
        for n in (2, 4, 6):
            ansatz = getattr(Ansatz, kind)(n)
            target = random_target(n, seed=n)
            for _ in range(points):
                params = rng.uniform(0.0, 2.0 * np.pi, ansatz.param_count)
                analytic = gradient(ansatz, params, target)
                numeric = finite_difference_gradient(ansatz, params, target)
                worst = max(worst, float(np.max(np.abs(analytic - numeric))))
    return {"passed": worst < 1e-6, "max_abs_error": worst, "tolerance": 1e-6}


def _validate_bounds() -> dict:
    violations: list[dict] = []
    checked = 0
    optimizer = OptimizeConfig(restarts=5)
    for kind in ("linear", "quadratic"):
        for n in range(2, 7):
            target = majority_target(n)
            ansatz, _, distance = _optimize(kind, target, optimizer, seed=1)
            _check_bound(violations, {"ansatz": kind, "n": n, "target": "majority"},
                         distance, ansatz.param_count, n)
            checked += 1
    for seed in range(1, 6):
        target = random_target(6, seed)
        ansatz, _, distance = _optimize("quadratic", target, optimizer, seed=seed)
        _check_bound(violations, {"ansatz": "quadratic", "n": 6, "target": "random", "seed": seed},
                     distance, ansatz.param_count, 6)
        checked += 1
    masked = mask_fraction(gaussian_target(6), 0.5, seed=1)
    ansatz, _, distance = _optimize("linear", masked, optimizer, seed=1)
    _check_bound(violations, {"ansatz": "linear", "n": 6, "target": "gaussian", "fraction": 0.5},
                 distance, ansatz.param_count, 6)
    checked += 1
    return {"passed": not violations, "runs_checked": checked, "violations": violations}


def _validate_exponential() -> dict:
    worst = 0.0
    for n in range(1, 6):
        for seed in range(1, 6):
            target = random_target(n, seed)
            params = solve_exponential(target)
            worst = max(worst, objective(Ansatz.exponential(n), params, target))
    return {"passed": worst < 1e-8, "max_distance": worst, "tolerance": 1e-8}


def run_validate(
    config: ExperimentConfig | None = None,
    statevector_fn: Callable = statevector,
) -> tuple[dict, Path | None]:
    """End-to-end invariant suites: oracle, gradient, bounds, exact solve.

    Returns the machine-readable report and the path it was written to.
    ``statevector_fn`` exists so tests can prove the oracle suite catches
    a perturbed analytic path.
    """
    suites = {
        "oracle_equivalence": _validate_oracle(statevector_fn),
        "gradient_check": _validate_gradient(),
        "bound_compliance": _validate_bounds(),
        "exponential_exactness": _validate_exponential(),
    }
    report = {"suites": suites, "passed": all(s["passed"] for s in suites.values())}
    path = None
    if config is not None:
        path = _out_dir(config) / "validation.json"
        with open(path, "w") as handle:
            json.dump(report, handle, indent=2, sort_keys=True)
            handle.write("\n")
    return report, path


_RUNNERS = {
    "fit": run_fit,
    "sweep": run_sweep,
    "generalize": run_generalize,
    "majority_ratios": run_majority_ratios,
    "bp_stats": run_bp_stats,
    "entropy": run_entropy,
}


def run_experiment(config: ExperimentConfig) -> ExperimentOutput:
    """Dispatch a data experiment (everything except validate)."""
    if config.experiment == "validate":
        raise ConfigError("use run_validate for the validation experiment")
    return _RUNNERS[config.experiment](config)
