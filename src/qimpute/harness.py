"""Experiment orchestration, persistence and the validation gate.

Each experiment resolves a configuration, runs deterministically from its
seeds, and writes one CSV of plot-ready rows plus a JSON sidecar echoing
the resolved configuration, timing and aggregates.  CSV content is a pure
function of (configuration, seeds): floats are written with shortest
round-trip formatting and newlines are fixed, so reruns are byte
identical.  Wall time lives in the sidecar only, for exactly that reason.

The experiments that optimize (fit, sweep, generalize, majority_ratios
and the validate bound suite) share one fit loop, ``_fits``: for every
ansatz, width, seed and mask fraction, in CSV row order, it builds the
target, masks it, optimizes, and checks the distance against the capacity
bound sqrt(1 - M/2^N).  Violations are collected (and reported), never
silently dropped, since exceeding the bound can only mean the optimizer
failed.  Each runner only turns fits (or Monte Carlo statistics) into
rows; one envelope, ``_Run``, times the run, hashes the experiment id,
adds the provenance columns and writes the CSV and the sidecar.
"""

from __future__ import annotations

import csv
import hashlib
import json
import os
import time
from dataclasses import asdict, dataclass, field, replace
from itertools import groupby
from pathlib import Path
from types import NoneType
from typing import Callable, Iterator

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
    check_field_types,
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
        check_field_types(self, {
            "n_min": (int,), "n_max": (int,), "seeds": (int,), "outcomes": (int,),
            "samples": (int,), "m_sweep_n": (int, NoneType), "fraction": (int, float),
            "fractions": (int, float), "center": (int, float, NoneType),
            "sigma": (int, float, NoneType), "optimizer": (OptimizeConfig,),
            "target_csv": (str, NoneType), "out_dir": (str, NoneType),
        }, error=ConfigError)
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
        for f in (self.fraction, *self.fractions):
            if not 0.0 <= f < 1.0:
                raise ConfigError(f"mask fractions must lie in [0, 1), got {f}")
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


def _write_json(path: Path, payload: dict) -> None:
    with open(path, "w") as handle:
        json.dump(payload, handle, indent=2, sort_keys=True)
        handle.write("\n")


class _Run:
    """The envelope of one data experiment.

    Created when the run starts: it hashes the experiment id, starts the
    clock and holds the bound violations the run's fits append.  ``write``
    adds the provenance columns every row shares and writes the CSV and
    the sidecar.  The CSV header is the rows' keys in first-seen order, so
    a runner's row dicts fix its column order.
    """

    def __init__(self, config: ExperimentConfig) -> None:
        self.started = time.perf_counter()
        self.config = config
        self.resolved = config.resolved()
        # The id names the scientific configuration; where it lands on
        # disk must not change it.
        hashed = {k: v for k, v in self.resolved.items() if k != "out_dir"}
        blob = json.dumps(hashed, sort_keys=True, separators=(",", ":"))
        digest = hashlib.sha1(blob.encode("utf-8")).hexdigest()[:10]
        self.experiment_id = f"{config.experiment}-{digest}"
        self.violations: list[dict] = []

    def write(self, rows: list[dict], aggregates: dict | None = None) -> ExperimentOutput:
        rows = [dict(experiment=self.config.experiment, experiment_id=self.experiment_id, **row)
                for row in rows]
        header = list(dict.fromkeys(key for row in rows for key in row))
        aggregates = aggregates or {}
        csv_path = _out_dir(self.config) / f"{self.experiment_id}.csv"
        with open(csv_path, "w", newline="") as handle:
            writer = csv.writer(handle, lineterminator="\n")
            writer.writerow(header)
            writer.writerows([_cell(row.get(col)) for col in header] for row in rows)
        sidecar_path = csv_path.with_suffix(".json")
        _write_json(sidecar_path, {
            "experiment_id": self.experiment_id,
            "config": self.resolved,
            "wall_time_s": time.perf_counter() - self.started,
            "aggregates": aggregates,
            "bound_violations": self.violations,
        })
        return ExperimentOutput(
            experiment_id=self.experiment_id,
            csv_path=csv_path,
            sidecar_path=sidecar_path,
            rows=rows,
            aggregates=aggregates,
            bound_violations=self.violations,
        )


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


@dataclass(frozen=True)
class _Fit:
    """One optimized fit: its target before (``full``) and after masking."""

    seed: int
    fraction: float
    full: TargetDistribution
    target: TargetDistribution
    ansatz: Ansatz
    params: np.ndarray
    distance: float
    bound: float

    @property
    def columns(self) -> dict:
        return {"seed": self.seed, "ansatz": self.ansatz.kind,
                "n": self.ansatz.n_inputs, "m": self.ansatz.param_count}


def _fits(
    config: ExperimentConfig,
    violations: list[dict],
    seeds: tuple[int, ...],
    fractions: tuple[float, ...],
) -> Iterator[_Fit]:
    """Every fit of a run in CSV row order: ansatz, width, seed, fraction.

    A fit whose distance exceeds the capacity bound is appended to
    ``violations``.  Every stage draws from its own named seed stream, so
    the loop order changes no value.
    """
    for kind in config.ansatz:
        for n in range(config.n_min, config.n_max + 1):
            for seed in seeds:
                full = _build_target(config, n, seed)
                for fraction in fractions:
                    target = mask_fraction(full, fraction, seed) if fraction > 0 else full
                    ansatz, params, distance = _optimize(kind, target, config.optimizer, seed)
                    bound = worst_case_bound(ansatz.param_count, n)
                    if distance > bound + BOUND_SLACK:
                        violations.append({
                            "ansatz": kind, "n": n, "target": config.target, "seed": seed,
                            "fraction": fraction, "d_h": distance, "bound": bound,
                        })
                    yield _Fit(seed, fraction, full, target, ansatz, params, distance, bound)


def run_fit(config: ExperimentConfig) -> ExperimentOutput:
    """Optimize once per (ansatz, width) and dump target vs circuit probabilities."""
    run = _Run(config)
    rows: list[dict] = []
    for fit in _fits(config, run.violations, config.seeds[:1], (config.fraction,)):
        joint_circuit = conditional_output(fit.ansatz, fit.params).joint_probabilities()
        for b in range(fit.target.n_states):
            bits = format(b, f"0{fit.ansatz.n_inputs}b")
            for a in (0, 1):
                rows.append(dict(
                    fit.columns, row_type="prob", bitstring=bits, output_bit=a,
                    target_prob=float(fit.target.probs[b, a]),
                    circuit_prob=float(joint_circuit[b, a]),
                ))
        rows.append(dict(fit.columns, row_type="summary", d_h=fit.distance, bound=fit.bound))
    return run.write(rows)


def run_sweep(config: ExperimentConfig) -> ExperimentOutput:
    """Optimized distance per width and family; random targets repeat per seed."""
    run = _Run(config)
    seeds = config.seeds if config.target == "random" else config.seeds[:1]
    rows = [
        dict(fit.columns, target=config.target, bound=fit.bound, d_h=fit.distance)
        for fit in _fits(config, run.violations, seeds, (0.0,))
    ]
    cells = []
    for (kind, n), cell in groupby(rows, key=lambda row: (row["ansatz"], row["n"])):
        cell = list(cell)
        distances = [row["d_h"] for row in cell]
        cells.append({
            "ansatz": kind,
            "n": n,
            "target": config.target,
            "bound": cell[-1]["bound"],
            "d_h_mean": float(np.mean(distances)),
            "d_h_var": float(np.var(distances)),
            "n_seeds": len(distances),
        })
    return run.write(rows, {"cells": cells})


def run_generalize(config: ExperimentConfig) -> ExperimentOutput:
    """Mask part of the target, optimize on the rest, and score each support.

    The unseen distance is left empty when the mask hid no input, as it
    does for fraction 0 and whenever floor(fraction * 2^N) is 0.
    """
    run = _Run(config)
    rows: list[dict] = []
    fractions = config.fractions or (config.fraction,)
    for fit in _fits(config, run.violations, config.seeds[:1], fractions):
        out = conditional_output(fit.ansatz, fit.params)
        hid_inputs = fit.target.seen_mask.sum() < fit.full.seen_mask.sum()
        d_unseen = (
            restricted_distance(fit.full, out, "unseen", mask=fit.target.seen_mask).hellinger
            if hid_inputs else None
        )
        rows.append(dict(
            fit.columns, fraction=fit.fraction, bound=fit.bound, d_h_opt=fit.distance,
            d_h_seen=restricted_distance(fit.target, out, "seen").hellinger,
            d_h_unseen=d_unseen,
            d_h_full=restricted_distance(fit.full, out, "full").hellinger,
        ))
    return run.write(rows)


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


def run_majority_ratios(config: ExperimentConfig) -> ExperimentOutput:
    """Train on a masked rule target, sample the circuit, count rule-correct draws."""
    if config.target != "majority":
        raise ConfigError("majority_ratios requires the majority target")
    run = _Run(config)
    rows: list[dict] = []
    for fit in _fits(config, run.violations, config.seeds, (config.fraction,)):
        out = conditional_output(fit.ansatz, fit.params)
        draws = sample_outcomes(out, config.outcomes, stream(fit.seed, "sampling"))
        report = classify_outcomes(draws, fit.full, fit.target.seen_mask)
        rows.append(dict(
            fit.columns, fraction=fit.fraction, outcomes=report.outcomes,
            hits_seen=report.hits_seen, hits_unseen=report.hits_unseen,
            hits_total=report.hits_total, ratio_seen=report.ratio_seen,
            ratio_unseen=report.ratio_unseen, ratio_total=report.ratio_total,
            bound=fit.bound, d_h_opt=fit.distance,
        ))
    return run.write(rows)


def run_bp_stats(config: ExperimentConfig) -> ExperimentOutput:
    """Gradient mean/variance versus width, plus an optional gate-count sweep."""
    run = _Run(config)
    rows: list[dict] = []
    seed = config.seeds[0]

    def add_row(label: str, mode: str, stats) -> None:
        rows.append({
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
    # Curves above fix the first parameter (the first row is the first
    # family at the smallest width); report (without asserting) how the
    # last component compares there.
    n = config.n_min
    spot_ansatz = getattr(Ansatz, config.ansatz[0])(n)
    last = gradient_statistics(spot_ansatz, _build_target(config, n, seed), config.samples, seed,
                               param_index=spot_ansatz.param_count - 1)
    aggregates = {
        "parameter_uniformity_spot_check": {
            "n": n,
            "ansatz": config.ansatz[0],
            "variance_first_param": rows[0]["gradient_variance"],
            "variance_last_param": last.gradient_variance,
        }
    }
    return run.write(rows, aggregates)


def run_entropy(config: ExperimentConfig) -> ExperimentOutput:
    """Mean output-qubit entropy per width, with a saturation fit per family."""
    run = _Run(config)
    rows: list[dict] = []
    fits: dict[str, dict] = {}
    seed = config.seeds[0]
    for kind in config.ansatz:
        points = []
        for n in range(config.n_min, config.n_max + 1):
            ansatz = getattr(Ansatz, kind)(n)
            stats = mean_entropy(ansatz, config.samples, seed)
            points.append((n, stats.mean_entropy))
            rows.append({
                "seed": seed, "ansatz": kind, "n": n, "m": ansatz.param_count,
                "samples": stats.sample_count, "mean_entropy": stats.mean_entropy,
            })
        if len(points) >= 4:
            fit = fit_entropy_curve(points)
            fits[kind] = {
                "a": fit.a, "b": fit.b, "c": fit.c,
                "residual": fit.residual, "degenerate": fit.degenerate,
            }
    return run.write(rows, {"fits": fits})


def _random_points(label: str, widths, draws: int):
    """Uniform random parameters for every family and width, from one stream."""
    rng = stream(0, label)
    for kind in ANSATZ_KINDS:
        for n in widths:
            ansatz = getattr(Ansatz, kind)(n)
            for _ in range(draws):
                yield ansatz, rng.uniform(0.0, 2.0 * np.pi, ansatz.param_count)


def _validate_oracle(statevector_fn: Callable, draws: int = 50) -> dict:
    worst = max(
        float(np.max(np.abs(statevector_fn(ansatz, params) - gate_level_oracle(ansatz, params))))
        for ansatz, params in _random_points("validate-oracle", range(2, 6), draws)
    )
    return {"passed": worst < 1e-10, "max_deviation": worst, "tolerance": 1e-10, "draws": draws}


def _validate_gradient(points: int = 7) -> dict:
    targets = {n: random_target(n, seed=n) for n in (2, 4, 6)}
    worst = 0.0
    for ansatz, params in _random_points("validate-gradient", targets, points):
        target = targets[ansatz.n_inputs]
        analytic = gradient(ansatz, params, target)
        numeric = finite_difference_gradient(ansatz, params, target)
        worst = max(worst, float(np.max(np.abs(analytic - numeric))))
    return {"passed": worst < 1e-6, "max_abs_error": worst, "tolerance": 1e-6}


def _validate_bounds() -> dict:
    optimizer = OptimizeConfig(restarts=5)
    runs = (
        ExperimentConfig("validate", ansatz=("linear", "quadratic"), n_min=2, n_max=6,
                         target="majority", optimizer=optimizer),
        ExperimentConfig("validate", ansatz=("quadratic",), n_min=6, n_max=6,
                         target="random", seeds=(1, 2, 3, 4, 5), optimizer=optimizer),
        ExperimentConfig("validate", n_min=6, n_max=6, fraction=0.5, optimizer=optimizer),
    )
    violations: list[dict] = []
    checked = sum(1 for config in runs
                  for _ in _fits(config, violations, config.seeds, (config.fraction,)))
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
        _write_json(path, report)
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
