"""The benchmark's two workloads, driven through qimpute's public API.

A workload builds its inputs once (``setup``) and then hands out its
list of ops (``ops``).  The target, mask and optimizer seeds in them are
derived from the workload seed and the op's position, so every call to
``ops`` returns the same work: a run repeats that list in rounds and
takes each op's fastest latency over them.

An op is a ``(label, run, check)`` triple.  ``run`` is the timed unit of
user-visible work and returns an outcome; ``check`` inspects that outcome
outside the timed region and returns a list of failure messages.  A
check that reads optimized distances stores them in the outcome under
``distances``, which feeds ``mean_distance``.

Calls go through module attributes (``q.gradient_statistics``,
``qcli.main``) so that the traced run's wrappers, installed on those
attributes, see them.
"""

from __future__ import annotations

import contextlib
import csv
import hashlib
import io
import json
import math
import re
import shutil
from pathlib import Path
from typing import Callable, NamedTuple


class Op(NamedTuple):
    label: str
    run: Callable[[], dict]
    check: Callable[[dict], list]


def derive(seed: int, *labels) -> int:
    """Stable nonnegative seed for one input, from the workload seed."""
    blob = json.dumps([seed, *labels]).encode("utf-8")
    return int(hashlib.sha256(blob).hexdigest()[:8], 16)


def _finite(*values) -> bool:
    return all(math.isfinite(v) for v in values)


MC_WIDTHS = range(4, 13)
MC_SAMPLES = 1000
MC_M_SWEEP_N = 9


class MonteCarloWorkload:
    """Gradient statistics and mean entropy; one op is one statistic."""

    name = "montecarlo"

    def setup(self, q, seed: int) -> dict:
        targets = {n: q.random_target(n, derive(seed, self.name, "target", n)) for n in MC_WIDTHS}
        ansatze = {(kind, n): getattr(q.Ansatz, kind)(n)
                   for kind in ("linear", "quadratic") for n in MC_WIDTHS}
        n_pairs = MC_M_SWEEP_N * (MC_M_SWEEP_N - 1) // 2
        m_sweep = [q.Ansatz.linear_with_pairs(MC_M_SWEEP_N, extra) for extra in range(n_pairs + 1)]
        return {"targets": targets, "ansatze": ansatze, "m_sweep": m_sweep}

    def _gradient_op(self, q, label, ansatz, target, stat_seed, verify) -> Op:
        def run() -> dict:
            return {"stats": q.gradient_statistics(ansatz, target, MC_SAMPLES, stat_seed)}

        def check(outcome: dict) -> list:
            stats = outcome["stats"]
            errors = []
            if not (_finite(stats.mean_abs_gradient, stats.gradient_variance)
                    and stats.gradient_variance >= 0.0):
                errors.append(f"non-finite gradient statistics {stats}")
            if verify:
                errors.extend(_per_sample_gradient_check(q, ansatz, target, stat_seed, stats))
            return errors

        return Op(label, run, check)

    def _entropy_op(self, q, label, ansatz, stat_seed, points) -> Op:
        def run() -> dict:
            stats = q.mean_entropy(ansatz, MC_SAMPLES, stat_seed)
            points.append((ansatz.n_inputs, stats.mean_entropy))
            return {"stats": stats}

        def check(outcome: dict) -> list:
            value = outcome["stats"].mean_entropy
            if _finite(value) and 0.0 <= value <= 1.0:
                return []
            return [f"mean entropy {value} outside [0, 1]"]

        return Op(label, run, check)

    def _curve_op(self, q, label, points) -> Op:
        def run() -> dict:
            return {"fit": q.fit_entropy_curve(list(points))}

        def check(outcome: dict) -> list:
            fit = outcome["fit"]
            if _finite(fit.a, fit.b, fit.c, fit.residual):
                return []
            return [f"non-finite entropy curve fit {fit}"]

        return Op(label, run, check)

    def warmup(self, q, state: dict, seed: int) -> Op:
        n = MC_WIDTHS[0]
        ansatz = state["ansatze"][("linear", n)]
        return self._gradient_op(q, "warmup", ansatz, state["targets"][n],
                                 derive(seed, self.name, "warmup"), verify=False)

    def ops(self, q, state: dict, seed: int) -> list:
        ops = []
        for kind in ("linear", "quadratic"):
            points: list = []
            for n in MC_WIDTHS:
                ansatz = state["ansatze"][(kind, n)]
                ops.append(self._gradient_op(
                    q, f"gradient-{kind}-{n}", ansatz, state["targets"][n],
                    derive(seed, self.name, "gradient", kind, n),
                    # One small-width statistic is recomputed sample by sample.
                    verify=(kind == "linear" and n == MC_WIDTHS[0]),
                ))
                ops.append(self._entropy_op(
                    q, f"entropy-{kind}-{n}", ansatz,
                    derive(seed, self.name, "entropy", kind, n), points,
                ))
            ops.append(self._curve_op(q, f"entropy-curve-{kind}", points))
        # The gate-count sweep of gradient_statistics_vs_m, one statistic per op.
        target = state["targets"][MC_M_SWEEP_N]
        for extra, ansatz in enumerate(state["m_sweep"]):
            ops.append(self._gradient_op(
                q, f"gradient-m-sweep-{extra}", ansatz, target,
                derive(seed, self.name, "m-sweep"), verify=False,
            ))
        return ops


def _per_sample_gradient_check(q, ansatz, target, stat_seed, stats) -> list:
    """Recompute a gradient statistic from per-sample ``gradient`` calls.

    ``gradient_statistics`` draws all parameter samples at once from the
    named stream "gradient-stats"; replaying that stream and calling the
    public ``gradient`` per sample must give the same mean and variance.
    """
    import numpy as np

    rng = q.stream(stat_seed, "gradient-stats")
    draws = rng.uniform(0.0, 2.0 * np.pi, size=(stats.sample_count, ansatz.param_count))
    grads = np.array([q.gradient(ansatz, draw, target)[0] for draw in draws])
    expected = (float(np.abs(grads).mean()), float(grads.var()))
    got = (stats.mean_abs_gradient, stats.gradient_variance)
    if all(math.isclose(e, g, rel_tol=1e-9, abs_tol=1e-12) for e, g in zip(expected, got)):
        return []
    return [f"gradient_statistics {got} != per-sample gradient {expected}"]


EXPERIMENT_SUBCOMMANDS = (
    "fit", "majority-ratios", "entropy", "bp-stats", "generalize", "sweep", "validate",
)

# The CSV column holding each data subcommand's optimized distance.
DISTANCE_COLUMN = {"fit": "d_h", "sweep": "d_h", "generalize": "d_h_opt", "majority-ratios": "d_h_opt"}
# Columns whose values must lie in [0, 1], per data subcommand.
UNIT_COLUMNS = {
    "fit": ("target_prob", "circuit_prob"),
    "generalize": ("d_h_seen", "d_h_unseen", "d_h_full"),
    "majority-ratios": ("ratio_seen", "ratio_unseen", "ratio_total"),
    "entropy": ("mean_entropy",),
}
CAPACITY_WARNING = "exceeds capacity bound"
# The CLI's success line: "<experiment id>: <rows> rows -> <csv path>".
_OUTPUT_LINE = re.compile(r"^(\S+): (\d+) rows -> (.+)$", re.MULTILINE)


def _number(row: dict, column: str) -> float | None:
    return float(row[column]) if row.get(column, "") != "" else None


def _check_rows(q, subcommand: str, rows: list) -> tuple[list, list]:
    """Check one data subcommand's CSV rows; return (errors, optimized distances).

    The CLI writes no fitted parameters, so ``objective(best_params)``
    cannot be recomputed here.  The checks it can make: every optimized
    distance lies in [0, bound + 1e-9], and the Hellinger distance of the
    fitted circuit's written probabilities is at most that distance (the
    objective's amplitude overlap never exceeds the Bhattacharyya
    coefficient), so a run that reports a better fit than its circuit has
    fails.
    """
    import numpy as np

    errors = []
    distances = []
    column = DISTANCE_COLUMN.get(subcommand)
    for index, row in enumerate(rows):
        for name in UNIT_COLUMNS.get(subcommand, ()):
            value = _number(row, name)
            if value is not None and not 0.0 <= value <= 1.0:
                errors.append(f"row {index}: {name} {value} outside [0, 1]")
        if subcommand == "bp-stats":
            mean, variance = float(row["mean_abs_gradient"]), float(row["gradient_variance"])
            if not (_finite(mean, variance) and variance >= 0.0):
                errors.append(f"row {index}: gradient statistics {mean}, {variance}")
        distance = _number(row, column) if column else None
        if distance is None:
            continue
        distances.append(distance)
        bound = float(row["bound"])
        if not 0.0 <= distance <= bound + 1e-9:
            errors.append(f"row {index}: distance {distance} outside [0, bound {bound} + 1e-9]")
        if subcommand == "generalize" and not float(row["d_h_seen"]) <= distance + 1e-9:
            errors.append(f"row {index}: seen Hellinger {row['d_h_seen']} above distance {distance}")
    if subcommand == "fit":
        for index, row in enumerate(rows):
            if row["row_type"] != "summary":
                continue
            probs = [r for r in rows if r["row_type"] == "prob"
                     and (r["ansatz"], r["n"]) == (row["ansatz"], row["n"])]
            target = np.array([float(r["target_prob"]) for r in probs])
            circuit = np.array([float(r["circuit_prob"]) for r in probs])
            written = q.hellinger(target / target.sum(), circuit / circuit.sum()).hellinger
            if not written <= float(row["d_h"]) + 1e-9:
                errors.append(f"row {index}: written probabilities are {written} apart, "
                              f"above the reported distance {row['d_h']}")
    if column and not distances:
        errors.append("no optimized distance written")
    return errors, distances


class ExperimentsWorkload:
    """Every CLI subcommand at its defaults; one op is one subcommand."""

    name = "experiments"

    def __init__(self, out_dir: Path):
        self.out_dir = out_dir

    def setup(self, q, seed: int) -> None:
        import qimpute.cli  # noqa: F401  (the CLI is part of this workload's import)

        self.out_dir.mkdir(parents=True, exist_ok=True)

    def op(self, q, subcommand: str, experiment_seed: int) -> Op:
        import qimpute.cli as qcli

        argv = [subcommand, "--out", str(self.out_dir)]
        if subcommand != "validate":
            argv += ["--seed", str(experiment_seed)]

        def run() -> dict:
            captured = io.StringIO()
            with contextlib.redirect_stdout(captured), contextlib.redirect_stderr(captured):
                code = qcli.main(argv)
            return {"code": code, "output": captured.getvalue()}

        def check(outcome: dict) -> list:
            output = outcome["output"]
            if outcome["code"] != 0:
                return [f"qimpute {' '.join(argv)} exited {outcome['code']}: {output[-2000:]}"]
            if CAPACITY_WARNING in output:
                return [f"qimpute {' '.join(argv)} warned: {output[-2000:]}"]
            if subcommand == "validate":
                report = json.loads((self.out_dir / "validation.json").read_text())
                if report.get("passed") is not True:
                    return [f"validate did not pass: {report}"]
                return []
            line = _OUTPUT_LINE.search(output)
            if line is None:
                return [f"no output line in: {output[-2000:]}"]
            csv_path = Path(line.group(3))
            sidecar = json.loads(csv_path.with_suffix(".json").read_text())
            if sidecar.get("bound_violations") != []:
                return [f"bound violations: {sidecar.get('bound_violations')}"]
            with open(csv_path, newline="") as handle:
                rows = list(csv.DictReader(handle))
            if len(rows) != int(line.group(2)) or not rows:
                return [f"{csv_path} holds {len(rows)} rows, the CLI reported {line.group(2)}"]
            errors, outcome["distances"] = _check_rows(q, subcommand, rows)
            return errors

        return Op(subcommand, run, check)

    def warmup(self, q, state, seed: int) -> Op:
        return self.op(q, EXPERIMENT_SUBCOMMANDS[0], derive(seed, self.name, "warmup"))

    def ops(self, q, state, seed: int) -> list:
        return [self.op(q, sub, derive(seed, self.name, "seed", sub))
                for sub in EXPERIMENT_SUBCOMMANDS]

    def cleanup(self) -> None:
        shutil.rmtree(self.out_dir, ignore_errors=True)


def make_workload(name: str, work_dir: Path):
    if name == "montecarlo":
        return MonteCarloWorkload()
    if name == "experiments":
        return ExperimentsWorkload(work_dir)
    raise ValueError(f"unknown workload {name!r}")


WORKLOADS = ("montecarlo", "experiments")
