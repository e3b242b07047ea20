"""Command-line front end.

One subcommand per experiment.  Values resolve in three layers: built-in
subcommand defaults, then a JSON config file (--config), then explicit
flags, with later layers winning.  One table, ``_FLAGS``, declares every
flag with the config field it sets, and each subcommand accepts only the
flags its experiment reads.  Exit codes: 0 on success, 1 when the
validation suite fails, 2 on configuration and usage errors.
"""

from __future__ import annotations

import argparse
import json
import sys

from .harness import (
    ConfigError,
    ExperimentConfig,
    run_experiment,
    run_validate,
)

__all__ = ["main"]

_DEFAULTS: dict[str, dict] = {
    "fit": {"ansatz": ["linear"], "n_min": 3, "n_max": 3, "target": "gaussian"},
    "sweep": {"ansatz": ["linear", "quadratic"], "n_min": 2, "n_max": 8, "target": "majority"},
    "generalize": {
        "ansatz": ["linear"], "n_min": 6, "n_max": 10, "target": "gaussian",
        "fractions": [0.1, 0.3, 0.5, 0.7],
    },
    # Masked rule fits are underdetermined (more parameters than visible
    # inputs), so the zeros start is the default here: descent from the
    # origin stays in the row space of the visible angle system and lands
    # on its minimum-norm solution, which is deterministic and extrapolates
    # the rule far better than an arbitrary random-start solution.
    "majority_ratios": {
        "ansatz": ["quadratic"], "n_min": 4, "n_max": 4, "target": "majority", "fraction": 0.7,
        "optimizer": {"init_scheme": "zeros", "restarts": 1},
    },
    "bp_stats": {"ansatz": ["linear"], "n_min": 4, "n_max": 10, "target": "gaussian"},
    "entropy": {"ansatz": ["linear"], "n_min": 3, "n_max": 9},
    "validate": {},
}

# Long-running reproduction scale for the random-target sweep.
_FULL_SCALE = {"n_min": 2, "n_max": 16, "seeds": list(range(1, 101)), "target": "random"}


def _comma_list(item_type):
    def parse(text: str) -> list:
        return [item_type(item.strip()) for item in text.split(",") if item.strip()]

    parse.__name__ = f"comma-separated {item_type.__name__}"
    return parse


_DATA = ("fit", "sweep", "generalize", "majority_ratios", "bp_stats", "entropy")
_FITTING = ("fit", "sweep", "generalize", "majority_ratios")
_TARGETED = ("fit", "sweep", "generalize", "bp_stats")

# flag -> (config field, value type, help, subcommands whose runner reads it).
# A bool type makes a switch; a field of None marks the flags
# _resolve_config maps itself.
_FLAGS = {
    "--config": (None, str, "JSON config file; flags override its values", tuple(_DEFAULTS)),
    "--out": ("out_dir", str, "output directory (default $QIMPUTE_OUT_DIR or ./results)",
              tuple(_DEFAULTS)),
    "--seed": (None, int, "single experiment seed", _DATA),
    "--seeds": ("seeds", _comma_list(int), "comma-separated seed list", _DATA),
    "--ansatz": ("ansatz", _comma_list(str), "comma-separated ansatz kinds", _DATA),
    "--n": (None, int, "single input width", _DATA),
    "--n-min": ("n_min", int, "smallest input width", _DATA),
    "--n-max": ("n_max", int, "largest input width", _DATA),
    "--target": ("target", str, "gaussian, majority, random or csv", _TARGETED),
    "--csv": ("target_csv", str, "target CSV path (implies --target csv)", _TARGETED),
    "--center": ("center", float, "gaussian target center override", _TARGETED),
    "--sigma": ("sigma", float, "gaussian target width override", _TARGETED),
    "--fraction": ("fraction", float, "masked fraction of inputs", ("fit", "majority_ratios")),
    "--fractions": ("fractions", _comma_list(float), "comma-separated mask fractions",
                    ("generalize",)),
    "--samples": ("samples", int, "Monte Carlo sample count", ("bp_stats", "entropy")),
    "--outcomes": ("outcomes", int, "sampled outcome count", ("majority_ratios",)),
    "--m-sweep-n": ("m_sweep_n", int, "also sweep gate count at this fixed width",
                    ("bp_stats",)),
    "--restarts": (None, int, "optimizer restarts", _FITTING),
    "--full-scale": (None, bool, "long-running full reproduction scale", ("sweep",)),
}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qimpute",
        description="Simulate, optimize and analyze parity-phase imputation circuits.",
    )
    sub = parser.add_subparsers(dest="experiment", required=True)
    for name in _DEFAULTS:
        cmd = sub.add_parser(name.replace("_", "-"), help=f"run the {name} experiment")
        cmd.set_defaults(experiment=name)
        for flag, (field, kind, text, readers) in _FLAGS.items():
            if name in readers:
                parse = {"action": "store_true"} if kind is bool else {"type": kind}
                cmd.add_argument(flag, dest=field, help=text, **parse)
    return parser


def _resolve_config(args: argparse.Namespace) -> ExperimentConfig:
    flags = vars(args)
    data = dict(_DEFAULTS[args.experiment])
    data["experiment"] = args.experiment
    if flags.get("config"):
        try:
            with open(args.config) as handle:
                file_data = json.load(handle)
        except (OSError, json.JSONDecodeError) as exc:
            raise ConfigError(f"cannot read config {args.config}: {exc}") from exc
        if not isinstance(file_data, dict):
            raise ConfigError(f"config {args.config} must hold a JSON object")
        data.update(file_data)

    if flags.get("full_scale"):
        data.update(_FULL_SCALE)
    if flags.get("seed") is not None:
        data["seeds"] = [args.seed]
    if flags.get("n") is not None:
        data["n_min"] = data["n_max"] = args.n
    for field, *_ in _FLAGS.values():
        if field and flags.get(field) is not None:
            data[field] = flags[field]
    if flags.get("target_csv") is not None and flags.get("target") is None:
        data["target"] = "csv"
    optimizer = data.get("optimizer") or {}
    if flags.get("restarts") is not None and isinstance(optimizer, dict):
        data["optimizer"] = dict(optimizer, restarts=args.restarts)
    return ExperimentConfig.from_dict(data)


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        config = _resolve_config(args)
        if config.experiment != "validate":
            output = run_experiment(config)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2

    if config.experiment == "validate":
        report, path = run_validate(config)
        for name, suite in report["suites"].items():
            status = "PASS" if suite["passed"] else "FAIL"
            details = {k: v for k, v in suite.items() if k != "passed"}
            print(f"{status} {name} {json.dumps(details)}")
        if path is not None:
            print(f"report written to {path}")
        return 0 if report["passed"] else 1

    print(f"{output.experiment_id}: {len(output.rows)} rows -> {output.csv_path}")
    if output.aggregates:
        print(json.dumps(output.aggregates, indent=2, sort_keys=True))
    for violation in output.bound_violations:
        print(f"warning: optimized distance exceeds capacity bound: {violation}", file=sys.stderr)
    return 0
