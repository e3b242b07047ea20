"""Experiment orchestration, persistence and the validation gate.

Each experiment resolves a configuration, runs deterministically from its
seeds, and writes one CSV of plot-ready rows plus a JSON sidecar echoing
the resolved configuration, timing and aggregates.  CSV content is a pure
function of (configuration, seeds): floats are written with shortest
round-trip formatting and newlines are fixed, so reruns are byte
identical.  Wall time lives in the sidecar only, for exactly that reason.
Every file is written to a temp file and renamed into place.

One table, ``_READS``, records which config fields each experiment
reads.  A config must leave every other field at its default, so the
experiment id, a hash of the whole config, names one set of numbers; the
CLI offers each subcommand the flags of the fields it reads.

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
from dataclasses import asdict, dataclass, fields
from functools import cache
from itertools import chain, groupby
from pathlib import Path
from types import NoneType
from typing import IO, Callable, Iterator

import numpy as np

from .analysis import (
    MIN_SAMPLE_COUNT,
    fit_entropy_curve,
    gradient_statistics,
    mean_entropy,
)
from .ansatz import (
    ANSATZ_KINDS,
    MAX_ENTRIES,
    Ansatz,
    ConditionalOutput,
    check_sign_matrix_size,
    conditional_output,
    statevector,
)
from .metrics import restricted_distance, worst_case_bound
from .optimize import (
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
    "fields_read",
    "sample_outcomes",
    "classify_outcomes",
]

OUTPUT_DIR_ENV = "QIMPUTE_OUT_DIR"
BOUND_SLACK = 1e-9

_TARGET_KINDS = ("gaussian", "majority", "random", "csv")
_GRID = ("ansatz", "n_min", "n_max", "seeds")
# The fields each experiment reads besides experiment and out_dir:
# experiment -> (its fields, the target kinds it runs on, the kinds on
# which it reads every seed rather than one).  With no kind it builds no
# target; with one, the target is fixed rather than chosen.  Every other
# field must keep its default, so that one set of numbers gets one id.
_READS = {
    "fit": (_GRID + ("fraction",), _TARGET_KINDS, ()),
    "sweep": (_GRID, _TARGET_KINDS, ("random",)),
    "generalize": (_GRID + ("fractions",), _TARGET_KINDS, ()),
    "majority_ratios": (_GRID + ("fraction", "outcomes"), ("majority",), ("majority",)),
    "bp_stats": (_GRID + ("samples", "m_sweep_n"), _TARGET_KINDS, ()),
    "entropy": (_GRID + ("samples",), (), ()),
    "validate": ((), (), ()),
}
EXPERIMENTS = tuple(_READS)
# Fields read only on a target of this kind.
_TARGET_FIELDS = {"gaussian": ("center", "sigma"), "csv": ("target_csv",)}


@cache
def fields_read(experiment: str, target: str | None = None) -> frozenset[str]:
    """The config fields ``experiment`` reads on a ``target`` kind, or on
    any kind it runs on when None.  A target kind that is fixed, not
    chosen, counts as read only on that kind."""
    own, targets, _ = _READS[experiment]
    read = {"experiment", "out_dir", *own}
    for kind in targets:
        if target in (None, kind):
            read.update(_TARGET_FIELDS.get(kind, ()))
    if len(targets) > 1 or target in targets:
        read.add("target")
    return frozenset(read)


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
    out_dir: str | None = None

    def __post_init__(self) -> None:
        # Each field (each item of a sequence field) must be one of its
        # types; a bool is not a number.
        for name, allowed in {
            "n_min": (int,), "n_max": (int,), "seeds": (int,), "outcomes": (int,),
            "samples": (int,), "m_sweep_n": (int, NoneType), "fraction": (int, float),
            "fractions": (int, float), "center": (int, float, NoneType),
            "sigma": (int, float, NoneType), "target_csv": (str, NoneType),
            "out_dir": (str, NoneType),
        }.items():
            value = getattr(self, name)
            for item in value if isinstance(value, (tuple, list)) else (value,):
                if isinstance(item, bool) or not isinstance(item, allowed):
                    names = " or ".join(kind.__name__ for kind in allowed)
                    raise ConfigError(f"{name} must be {names}, got {item!r}")
        # An int number is stored as the float it stands for, so that 0 and
        # 0.0 get one experiment id and one cell text.
        for name in ("fraction", "center", "sigma"):
            if isinstance(getattr(self, name), int):
                object.__setattr__(self, name, float(getattr(self, name)))
        object.__setattr__(self, "fractions", tuple(map(float, self.fractions)))
        if self.experiment not in EXPERIMENTS:
            raise ConfigError(f"unknown experiment {self.experiment!r}; choose from {EXPERIMENTS}")
        for kind in self.ansatz:
            if kind not in ANSATZ_KINDS:
                raise ConfigError(f"unknown ansatz kind {kind!r}; choose from {ANSATZ_KINDS}")
        if not self.ansatz:
            raise ConfigError("at least one ansatz kind is required")
        _, targets, every_seed = _READS[self.experiment]
        if self.target not in (targets or _TARGET_KINDS):
            raise ConfigError(f"{self.experiment} cannot run on target {self.target!r}; "
                              f"choose from {targets or _TARGET_KINDS}")
        read = fields_read(self.experiment, self.target)
        for spec in fields(self):
            if spec.name not in read and getattr(self, spec.name) != spec.default:
                raise ConfigError(f"{self.experiment} does not read {spec.name} (target "
                                  f"{self.target}); leave it at {spec.default!r}")
        if len(self.seeds) > 1 and self.target not in every_seed:
            raise ConfigError(f"{self.experiment} on the {self.target} target reads one seed")
        if self.experiment == "generalize" and not self.fractions:
            raise ConfigError("generalize requires at least one mask fraction")
        if self.target == "csv" and not self.target_csv:
            raise ConfigError("target 'csv' requires target_csv")
        if self.target_csv and not os.path.exists(self.target_csv):
            raise ConfigError(f"target CSV not found: {self.target_csv}")
        if not 1 <= self.n_min <= self.n_max:
            raise ConfigError(f"bad input-width range {self.n_min}..{self.n_max}")
        for f in (self.fraction, *self.fractions):
            if not 0.0 <= f < 1.0:
                raise ConfigError(f"mask fractions must lie in [0, 1), got {f}")
        if not self.seeds:
            raise ConfigError("at least one seed is required")
        if any(s < 0 for s in self.seeds):
            raise ConfigError("seeds must be nonnegative")
        # No array the config sizes may exceed MAX_ENTRIES: the outcomes, the per-sample
        # statistics, and each family's sign matrix (quadratic's at m_sweep_n too).
        if not 1 <= self.outcomes <= MAX_ENTRIES:
            raise ConfigError(f"outcomes must lie in 1..{MAX_ENTRIES}, got {self.outcomes}")
        if not MIN_SAMPLE_COUNT <= self.samples <= MAX_ENTRIES:
            raise ConfigError(f"samples must lie in {MIN_SAMPLE_COUNT}..{MAX_ENTRIES}, "
                              f"got {self.samples}")
        if self.m_sweep_n is not None and self.m_sweep_n < 1:
            raise ConfigError(f"m_sweep_n must be >= 1, got {self.m_sweep_n}")
        shapes = [(kind, self.n_max) for kind in self.ansatz]
        if self.m_sweep_n is not None:
            shapes.append(("quadratic", self.m_sweep_n))
        for kind, n in shapes:
            try:
                check_sign_matrix_size(kind, n)
            except ValueError as exc:
                raise ConfigError(str(exc)) from exc

    @classmethod
    def from_dict(cls, data: dict) -> "ExperimentConfig":
        known = set(cls.__dataclass_fields__)
        unknown = set(data) - known
        if unknown:
            raise ConfigError(f"unknown config keys: {sorted(unknown)}")
        kwargs = dict(data)
        for key in ("ansatz", "fractions", "seeds"):
            value = kwargs.get(key)
            if value is not None:
                kwargs[key] = tuple([value] if isinstance(value, (str, int, float)) else value)
        try:
            return cls(**kwargs)
        except TypeError as exc:
            raise ConfigError(str(exc)) from exc


@dataclass(frozen=True)
class ExperimentOutput:
    """A data experiment's files and what went into them.  ``rows`` are the
    runner's own rows, without the ``experiment`` and ``experiment_id``
    columns that lead each CSV line."""

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


def _write_atomic(path: Path, write: Callable[[IO[str]], None]) -> None:
    """Write ``path`` through ``write`` into a temp file beside it, then
    rename it into place, so no reader sees a partial file and a failed
    write leaves none behind."""
    temp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        with open(temp, "w", newline="") as handle:
            write(handle)
        os.replace(temp, path)
    except BaseException:
        temp.unlink(missing_ok=True)
        raise


def _write_json(path: Path, payload: dict) -> None:
    text = json.dumps(payload, indent=2, sort_keys=True) + "\n"
    _write_atomic(path, lambda handle: handle.write(text))


class _Run:
    """The envelope of one data experiment.

    Created when the run starts: it hashes the experiment id, starts the
    clock and holds the bound violations the run's fits append.  ``write``
    writes the CSV and the sidecar.  Each CSV line is the experiment, its
    id, then the runner's row as built; the rest of the header is the rows'
    keys in first-seen order, so a runner's row dicts fix its column order.
    Row values are Python scalars, which the csv module writes as they are:
    a float as its shortest round-trip ``repr``, an int or a str as
    ``str``, and None, like a key the row lacks, as an empty cell.
    """

    def __init__(self, config: ExperimentConfig) -> None:
        self.started = time.perf_counter()
        self.config = config
        # JSON writes the tuple fields as lists.
        self.resolved = asdict(config)
        # The id names the scientific configuration; where it lands on
        # disk must not change it.
        hashed = {k: v for k, v in self.resolved.items() if k != "out_dir"}
        blob = json.dumps(hashed, sort_keys=True, separators=(",", ":"))
        digest = hashlib.sha1(blob.encode("utf-8")).hexdigest()[:10]
        self.experiment_id = f"{config.experiment}-{digest}"
        self.violations: list[dict] = []

    def write(self, rows: list[dict], aggregates: dict | None = None) -> ExperimentOutput:
        header = list(dict.fromkeys(chain.from_iterable(rows)))
        lead = (self.config.experiment, self.experiment_id)
        aggregates = aggregates or {}
        csv_path = _out_dir(self.config) / f"{self.experiment_id}.csv"

        def write_rows(handle: IO[str]) -> None:
            writer = csv.writer(handle, lineterminator="\n")
            writer.writerow(("experiment", "experiment_id", *header))
            writer.writerows((*lead, *map(row.get, header)) for row in rows)

        _write_atomic(csv_path, write_rows)
        sidecar_path = csv_path.with_suffix(".json")
        _write_json(sidecar_path, {
            "experiment_id": self.experiment_id,
            "config": self.resolved,
            "wall_time_s": time.perf_counter() - self.started,
            "aggregates": aggregates,
            "bound_violations": self.violations,
        })
        return ExperimentOutput(self.experiment_id, csv_path, sidecar_path, rows, aggregates,
                                self.violations)


def _build_target(config: ExperimentConfig, n_inputs: int, seed: int) -> TargetDistribution:
    """The run's target at one width; a target that cannot be built (a bad
    gaussian override, an unreadable or malformed CSV, a CSV of another
    width) is a ConfigError."""
    try:
        if config.target == "gaussian":
            return gaussian_target(n_inputs, center=config.center, sigma=config.sigma)
        if config.target == "majority":
            return majority_target(n_inputs)
        if config.target == "random":
            return random_target(n_inputs, seed)
        return load_target_csv(config.target_csv, n_inputs)
    except (OSError, ValueError) as exc:
        raise ConfigError(str(exc)) from exc


def _optimize(kind: str, target: TargetDistribution):
    """(ansatz, params, distance, converged) from the family's solver, exact
    for the exponential."""
    ansatz = getattr(Ansatz, kind)(target.n_inputs)
    if kind == "exponential":
        params = solve_exponential(target)
        return ansatz, params, objective(ansatz, params, target), True
    result = minimize(ansatz, target)
    return ansatz, result.best_params, result.final_distance, result.converged


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
    converged: bool

    @property
    def columns(self) -> dict:
        return {"seed": self.seed, "ansatz": self.ansatz.kind,
                "n": self.ansatz.n_inputs, "m": self.ansatz.param_count}


def _fits(
    config: ExperimentConfig, violations: list[dict], fractions: tuple[float, ...]
) -> Iterator[_Fit]:
    """Every fit of a run in CSV row order: ansatz, width, seed, fraction.

    A fit whose distance exceeds the capacity bound is appended to
    ``violations``.  Every stage draws from its own named seed stream, so
    the loop order changes no value.
    """
    for kind in config.ansatz:
        for n in range(config.n_min, config.n_max + 1):
            for seed in config.seeds:
                full = _build_target(config, n, seed)
                for fraction in fractions:
                    try:
                        target = mask_fraction(full, fraction, seed) if fraction > 0 else full
                    except ValueError as exc:
                        raise ConfigError(str(exc)) from exc
                    ansatz, params, distance, converged = _optimize(kind, target)
                    bound = worst_case_bound(ansatz.param_count, n)
                    if distance > bound + BOUND_SLACK:
                        violations.append({
                            "ansatz": kind, "n": n, "target": config.target, "seed": seed,
                            "fraction": fraction, "d_h": distance, "bound": bound,
                        })
                    yield _Fit(seed, fraction, full, target, ansatz, params, distance, bound,
                               converged)


def run_fit(config: ExperimentConfig) -> ExperimentOutput:
    """Optimize once per (ansatz, width) and dump target vs circuit probabilities."""
    run = _Run(config)
    rows: list[dict] = []
    for fit in _fits(config, run.violations, (config.fraction,)):
        columns = fit.columns
        width = f"0{fit.ansatz.n_inputs}b"
        joint_circuit = conditional_output(fit.ansatz, fit.params).joint_probabilities()
        # Flat lists in (input, output bit) order, read in step with the rows.
        target_probs = iter(fit.target.probs.ravel().tolist())
        circuit_probs = iter(joint_circuit.ravel().tolist())
        for b in range(fit.target.n_states):
            bits = format(b, width)
            for a in (0, 1):
                rows.append(dict(
                    columns, row_type="prob", bitstring=bits, output_bit=a,
                    target_prob=next(target_probs), circuit_prob=next(circuit_probs),
                ))
        rows.append(dict(columns, row_type="summary", d_h=fit.distance, bound=fit.bound))
    return run.write(rows)


def run_sweep(config: ExperimentConfig) -> ExperimentOutput:
    """Optimized distance per width and family; random targets repeat per seed."""
    run = _Run(config)
    rows = [
        dict(fit.columns, target=config.target, bound=fit.bound, d_h=fit.distance)
        for fit in _fits(config, run.violations, (0.0,))
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
    for fit in _fits(config, run.violations, config.fractions):
        out = conditional_output(fit.ansatz, fit.params)
        seen = fit.target.seen_mask
        hid_inputs = seen.sum() < fit.full.seen_mask.sum()
        rows.append(dict(
            fit.columns, fraction=fit.fraction, bound=fit.bound, d_h_opt=fit.distance,
            d_h_seen=restricted_distance(fit.target, out, seen),
            d_h_unseen=restricted_distance(fit.full, out, ~seen) if hid_inputs else None,
            d_h_full=restricted_distance(fit.full, out, np.ones_like(seen)),
        ))
    return run.write(rows)


def sample_outcomes(out: ConditionalOutput, n_outcomes: int, rng: np.random.Generator) -> np.ndarray:
    """Draw (input, output) basis indices from the circuit's joint output."""
    joint = out.joint_probabilities().ravel()
    return rng.choice(joint.size, size=n_outcomes, p=joint / joint.sum())


def classify_outcomes(
    draws: np.ndarray, reference: TargetDistribution, split_mask: np.ndarray
) -> tuple[int, int]:
    """Rule-correct draws as (hits_seen, hits_unseen).

    A draw counts as rule-correct when the reference distribution puts
    positive mass on its (input, output) pair; the split mask decides
    whether a correct draw lands in the seen or the unseen tally.  Seen
    draws with a rule-violating output count as plain errors.
    """
    inputs = draws >> 1
    outputs = draws & 1
    correct = reference.probs[inputs, outputs] > 0
    seen = split_mask[inputs]
    return int(np.count_nonzero(correct & seen)), int(np.count_nonzero(correct & ~seen))


def run_majority_ratios(config: ExperimentConfig) -> ExperimentOutput:
    """Train on a masked rule target, sample the circuit, count rule-correct draws."""
    run = _Run(config)
    rows: list[dict] = []
    for fit in _fits(config, run.violations, (config.fraction,)):
        out = conditional_output(fit.ansatz, fit.params)
        draws = sample_outcomes(out, config.outcomes, stream(fit.seed, "sampling"))
        hits_seen, hits_unseen = classify_outcomes(draws, fit.full, fit.target.seen_mask)
        hits_total = hits_seen + hits_unseen
        rows.append(dict(
            fit.columns, fraction=fit.fraction, outcomes=config.outcomes,
            hits_seen=hits_seen, hits_unseen=hits_unseen, hits_total=hits_total,
            ratio_seen=hits_seen / config.outcomes, ratio_unseen=hits_unseen / config.outcomes,
            ratio_total=hits_total / config.outcomes, bound=fit.bound, d_h_opt=fit.distance,
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
        # Pair-controlled gates join the linear family one at a time, in
        # lexicographic order, up to the quadratic family.
        n = config.m_sweep_n
        target = _build_target(config, n, seed)
        for extra in range(n * (n - 1) // 2 + 1):
            ansatz = Ansatz.linear_with_pairs(n, extra)
            add_row(f"linear+{extra}pairs", "vs_m",
                    gradient_statistics(ansatz, target, config.samples, seed))
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
            fits[kind] = asdict(fit_entropy_curve(points))
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
    """The oracle suite on ``statevector_fn``, a hook through which a test
    proves the suite catches a perturbed analytic path."""
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
    runs = (
        ExperimentConfig("sweep", ansatz=("linear", "quadratic"), n_min=2, n_max=6,
                         target="majority"),
        ExperimentConfig("sweep", ansatz=("quadratic",), n_min=6, n_max=6,
                         target="random", seeds=(1, 2, 3, 4, 5)),
        ExperimentConfig("fit", n_min=6, n_max=6, fraction=0.5),
    )
    violations: list[dict] = []
    fits = [fit for config in runs for fit in _fits(config, violations, (config.fraction,))]
    unconverged = [dict(fit.columns, fraction=fit.fraction) for fit in fits if not fit.converged]
    return {"passed": not violations and not unconverged, "runs_checked": len(fits),
            "violations": violations, "unconverged": unconverged}


def _validate_exponential() -> dict:
    worst = 0.0
    for n in range(1, 6):
        for seed in range(1, 6):
            target = random_target(n, seed)
            params = solve_exponential(target)
            worst = max(worst, objective(Ansatz.exponential(n), params, target))
    return {"passed": worst < 1e-8, "max_distance": worst, "tolerance": 1e-8}


def run_validate(config: ExperimentConfig) -> tuple[dict, Path]:
    """End-to-end invariant suites: oracle, gradient, bounds, exact solve.

    Returns the machine-readable report and the path it was written to.
    """
    suites = {
        "oracle_equivalence": _validate_oracle(statevector),
        "gradient_check": _validate_gradient(),
        "bound_compliance": _validate_bounds(),
        "exponential_exactness": _validate_exponential(),
    }
    report = {"suites": suites, "passed": all(s["passed"] for s in suites.values())}
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
